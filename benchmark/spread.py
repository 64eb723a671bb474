#!/usr/bin/env python3
"""Runs the benchmark as its driver does and reports how steady it is.

For every workload of BENCHMARK.json it runs the command once per seed,
then prints, for each end-to-end metric, the median over the seeds and
the spread: the distance between the first and third quartile as a share
of the median, beside the metric's bound. Run it from the root of the
repository:

    python3 benchmark/spread.py [--seeds 1-10] [--workload NAME] [--json FILE]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json", help="also write every run's metrics here")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end" if args.trace == "0" else "per_layer"]}
    runs = {}
    worst = 0.0
    for w in spec["workloads"]:
        name = w["name"]
        if args.workload and name not in args.workload:
            continue
        values = {m: [] for m in bounds}
        for seed in seeds:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", args.trace]
            start = time.time()
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            took = time.time() - start
            if out.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {out.returncode}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{name} seed {seed}: {res['failed']} of {res['attempted']} failed")
            if set(res["metrics"]) != set(bounds):
                sys.exit(f"{name} seed {seed}: metrics differ from BENCHMARK.json")
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            print(f"# {name} seed {seed}: {took:.1f}s, {res['attempted']} ops", file=sys.stderr)
        runs[name] = values
        print(f"{name}")
        for m, xs in values.items():
            med = statistics.median(xs)
            line = f"  {m:36s} median {med:12.5g}"
            if len(xs) >= 4 and med:
                q = statistics.quantiles(xs, n=4)
                spread = (q[2] - q[0]) / abs(med)
                line += f"  spread {spread:7.4f}"
                if bounds[m] is not None:
                    line += f"  bound {bounds[m]:.2f}  {'ok' if spread < bounds[m] / 3 else 'WIDE' if spread < bounds[m] else 'OVER'}"
                    if m != "setup_s":
                        worst = max(worst, spread / bounds[m])
            print(line)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    print(f"worst spread/bound (setup_s apart): {worst:.2f}")


if __name__ == "__main__":
    main()
