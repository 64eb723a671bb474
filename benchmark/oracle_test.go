package main

import (
	"context"
	"math"
	"testing"
)

// delivered synthesises the progressive deliveries of a report, in
// report order.
func delivered(skyline []Member) []Result {
	out := make([]Result, len(skyline))
	for i, m := range skyline {
		out[i] = Result{Tuple: m.Tuple, GlobalProb: m.Prob, Index: i + 1}
	}
	return out
}

// The sort-and-scan oracle must agree with the repo's O(N²) brute force
// on every value distribution, at its own threshold and above it.
func TestOracleMatchesBruteForce(t *testing.T) {
	for _, values := range []ValueDist{independent, anticorrelated, correlated} {
		db, err := generate(2000, values, 7)
		if err != nil {
			t.Fatal(err)
		}
		const qmin = 0.2
		o := newOracle(db, qmin)
		want := bruteForceSkyline(db, qmin)
		if len(want) == 0 {
			t.Fatalf("%v: empty reference skyline, the test checks nothing", values)
		}
		if len(o.members) != len(want) {
			t.Fatalf("%v: oracle has %d members at q=%v, brute force %d", values, len(o.members), qmin, len(want))
		}
		for _, m := range want {
			if got, ok := o.members[m.Tuple.ID]; !ok || math.Abs(got-m.Prob) > 1e-12 {
				t.Errorf("%v: tuple %d: oracle %v, brute force %v", values, m.Tuple.ID, got, m.Prob)
			}
		}
		for _, q := range []float64{qmin, 0.3, 0.55} {
			sky := bruteForceSkyline(db, q)
			if err := o.check(answer{q: q, skyline: sky, delivered: delivered(sky)}); err != nil {
				t.Errorf("%v: brute-force answer rejected: %v", values, err)
			}
		}
	}
}

func TestOracleRejectsWrongAnswers(t *testing.T) {
	db, err := generate(2000, independent, 11)
	if err != nil {
		t.Fatal(err)
	}
	const q = 0.3
	o := newOracle(db, q)
	good := bruteForceSkyline(db, q)
	if len(good) < 3 {
		t.Fatalf("reference skyline has %d members, need 3", len(good))
	}
	fresh := func() answer {
		sky := append([]Member(nil), good...)
		return answer{q: q, skyline: sky, delivered: delivered(sky)}
	}
	cases := map[string]func(a *answer){
		"probability off by 1e-6": func(a *answer) {
			a.skyline[1].Prob += 1e-6
			a.delivered = delivered(a.skyline)
		},
		"member missing": func(a *answer) {
			a.skyline = a.skyline[1:]
			a.delivered = delivered(a.skyline)
		},
		"tuple below the threshold reported": func(a *answer) {
			a.q = 0.9
		},
		"delivery ordinals not 1..k": func(a *answer) {
			a.delivered[0].Index = 2
		},
		"delivery missing": func(a *answer) {
			a.delivered = a.delivered[:len(a.delivered)-1]
		},
		"report out of order": func(a *answer) {
			a.skyline[0], a.skyline[2] = a.skyline[2], a.skyline[0]
			a.delivered = delivered(a.skyline)
		},
	}
	if err := o.check(fresh()); err != nil {
		t.Fatalf("untouched answer rejected: %v", err)
	}
	for name, corrupt := range cases {
		a := fresh()
		corrupt(&a)
		if err := o.check(a); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// One falsified P_g-sky between the program and the verification must
// surface as failed operations and a non-zero exit.
func TestCorruptedReportFailsTheRun(t *testing.T) {
	cfg := &config{seed: 1, quick: true, corrupt: true}
	res, err := runEndToEnd(context.Background(), cfg, findWorkload("compute_inproc"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("correct=%v failed=%d of %d after corrupting every report", res.Correct, res.Failed, res.Attempted)
	}
	if exitCode(res) == 0 {
		t.Error("exit code 0 for a run that failed verification")
	}
}
