package main

import (
	"context"
	"fmt"
	"time"
)

// floor is the threshold every instance materializes its serving tier
// at; covered reads draw from [floor, coveredHi).
const (
	floor     = 0.3
	coveredHi = 0.8
)

// cycle is one repetition of a workload's operation mix, run by one
// client in this order: updates, then protocol reads, then covered reads.
type cycle struct {
	updates  int
	protocol int
	covered  int
}

func (c cycle) ops() int { return c.updates + c.protocol + c.covered }

// workload is one named set of inputs. The main phase repeats `main`
// until the time budget is spent; the tail then runs `tail` a fixed
// number of times. The tail exists so that update and covered-read
// metrics are defined on the query-only workloads too: it measures the
// §5.4 update path on that workload's data shape and transport, after
// the queries, where it cannot disturb them.
//
// A workload's database is part of its definition, as a benchmark's
// tables are: every run generates the same tuples, partitions them the
// same way and inserts the same pool of tuples in the same order
// (dataSeed). The run's --seed drives the reads: every query
// threshold. A skyline's size is an extreme-value statistic of its data;
// where the few best tuples live decides how many rounds find them; and
// what a delete costs depends on which inserted tuples are still there.
// Redrawing data, placement or insert order per seed moved
// tuples_per_query by ±25 %, time to first result by ±20 % and
// update_ms_p90 by ±35 % between seeds, which no bound on a regression
// could have seen through.
type workload struct {
	name string
	why  string

	n       int
	sites   int
	values  ValueDist
	tcp     bool
	delay   time.Duration // per-request service delay in front of every site
	clients int           // closed-loop client goroutines in the main phase

	uncovered bool    // protocol reads go through ModeAuto below the floor
	qLo, qHi  float64 // thresholds of the protocol reads

	main       cycle
	tail       cycle
	tailCycles int
}

// tailShape is the mixed_serve mix without its protocol read.
var tailShape = cycle{updates: 20, covered: 8}

// dataSeed generates every workload's database and insert pool.
const dataSeed = 1

// poolSize is how many distinct tuples an instance's update stream
// inserts before it starts over. Ten cycles of 20 updates insert each of
// them once.
const poolSize = 100

var workloads = []workload{
	{
		name: "compute_inproc",
		why:  "100k independent tuples over the in-process transport: the sites' Init (PR-tree local skyline) dominates, no sockets, zero wire bytes; codec/transport changes must not move it",
		n:    100_000, sites: 10, values: independent, clients: 1,
		qLo: 0.25, qHi: 0.40,
		main: cycle{protocol: 1}, tail: tailShape, tailCycles: 20,
	},
	{
		name: "wire_tcp",
		why:  "8k anticorrelated tuples over loopback TCP: hundreds of rounds and thousands of messages per query, so encode/decode, framing, syscalls and the round loop dominate and Init is a small share",
		n:    8_000, sites: 8, values: anticorrelated, tcp: true, clients: 1,
		qLo: 0.25, qHi: 0.40,
		main: cycle{protocol: 1}, tail: tailShape, tailCycles: 20,
	},
	{
		name: "rtt_tcp",
		why:  "8k independent tuples over loopback TCP with a 1 ms service delay at every site and 2 concurrent clients: latency is rounds x RTT, so only fewer or overlapped rounds move it; shows mux pipelining",
		n:    8_000, sites: 8, values: independent, tcp: true, delay: time.Millisecond, clients: 2,
		qLo: 0.25, qHi: 0.40,
		main: cycle{protocol: 1}, tail: tailShape, tailCycles: 20,
	},
	{
		name: "mixed_serve",
		why:  "50k tuples over TCP behind the serving tier: cycles of 20 inserts/deletes, 1 uncovered read (protocol fallback) and 8 covered reads on one client, so a read-side gain that costs the update path shows",
		n:    50_000, sites: 8, values: independent, tcp: true, clients: 1,
		uncovered: true, qLo: 0.20, qHi: 0.29,
		main: cycle{updates: 20, protocol: 1, covered: 8},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// qmin is the lowest threshold any read of the workload uses, and so
// the threshold its oracle is built at.
func (w *workload) qmin() float64 {
	if w.qLo < floor {
		return w.qLo
	}
	return floor
}

// liveTuple is a tuple the benchmark inserted, with the site it lives at.
type liveTuple struct {
	t    Tuple
	home int
}

// instance is one built copy of a workload: data, sites, transport,
// cluster and serving tier, plus the benchmark's own record of the data
// so the oracle can follow the updates.
type instance struct {
	w       *workload
	cluster *Cluster
	srv     *Server
	stops   []func()
	rec     *recorder // nil: untraced
	setup   time.Duration
	parts   []DB

	pool    []Tuple           // the tuples the update stream inserts, in order
	live    map[TupleID]Tuple // the benchmark's copy of the current data
	fifo    []liveTuple       // benchmark-inserted tuples, oldest first
	nextID  TupleID
	updates int
	inserts int

	oracle *oracle // nil once updates have made it stale

	// tamper, set only by the benchmark's own negative test, falsifies
	// an answer between the program and the verification.
	tamper func(*answer)
}

// insertLag is how many benchmark-inserted tuples stay in the data
// before deletes start removing the oldest, so that a delete never
// removes the tuple the previous op inserted.
const insertLag = 8

// build sets w up and times it: generate, partition, site engines
// (PR-tree bulk load), listeners and connections where the workload has
// them, and the serving tier's materialization round — the first query
// answered. rec, when set, puts the benchmark's span decorators on both
// transport seams.
func build(ctx context.Context, w *workload, rec *recorder) (_ *instance, err error) {
	in := &instance{w: w, rec: rec, nextID: 1 << 40}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	start := time.Now()
	db, err := generate(w.n, w.values, dataSeed)
	if err != nil {
		return nil, err
	}
	if in.parts, err = partition(db, w.sites, dataSeed); err != nil {
		return nil, err
	}
	switch {
	case !w.tcp && rec == nil:
		in.cluster, err = connectPartitions(in.parts)
	case !w.tcp:
		clients := make([]Client, w.sites)
		for i, part := range in.parts {
			h := &siteHandler{inner: newEngine(i, part), rec: rec, site: i, delay: w.delay}
			clients[i] = &spanClient{inner: localClient(h), rec: rec, site: i}
		}
		in.cluster, err = clusterFromClients(clients)
	default:
		addrs := make([]string, w.sites)
		for i, part := range in.parts {
			h := &siteHandler{inner: newEngine(i, part), rec: rec, site: i, delay: w.delay}
			addr, stop, err := listenSite(h)
			if err != nil {
				return nil, err
			}
			addrs[i] = addr
			in.stops = append(in.stops, stop)
		}
		if rec == nil {
			in.cluster, err = connectAddrs(addrs)
			break
		}
		clients := make([]Client, w.sites)
		for i, addr := range addrs {
			c, err := dialSite(addr)
			if err != nil {
				for _, open := range clients[:i] {
					open.Close()
				}
				return nil, err
			}
			clients[i] = &spanClient{inner: c, rec: rec, site: i}
		}
		in.cluster, err = clusterFromClients(clients)
	}
	if err != nil {
		return nil, err
	}
	if in.srv, err = serveFloor(ctx, in.cluster, floor); err != nil {
		return nil, err
	}
	in.setup = time.Since(start)

	// The insert pool follows the workload's own value distribution;
	// every 4th tuple is scaled towards the origin so that it lands in or
	// near the skyline, where it evicts members of the answer and its
	// later deletion promotes them back.
	if in.pool, err = generate(poolSize, w.values, dataSeed+1000); err != nil {
		return nil, err
	}
	for i := 0; i < len(in.pool); i += 4 {
		for d := range in.pool[i].Point {
			in.pool[i].Point[d] *= 0.2
		}
	}
	return in, nil
}

// track builds the benchmark's own copy of the data and the oracle over
// it. It is separate from build so that neither counts as set-up time
// or as the instance's heap.
func (in *instance) track() {
	in.live = make(map[TupleID]Tuple, in.w.n)
	for _, part := range in.parts {
		for _, t := range part {
			in.live[t.ID] = t
		}
	}
	in.oracle = in.freshOracle()
}

func (in *instance) freshOracle() *oracle {
	union := make([]Tuple, 0, len(in.live))
	for _, t := range in.live {
		union = append(union, t)
	}
	return newOracle(union, in.w.qmin())
}

// close tears the instance down: connections first, then listeners,
// each waiting for its goroutines.
func (in *instance) close() {
	if in.cluster != nil {
		in.cluster.Close()
	}
	for _, stop := range in.stops {
		stop()
	}
}

// nextUpdate picks the next update op: inserts and deletes alternate
// once insertLag tuples are in. An insert takes the next tuple of the
// pool, round and round, under a fresh ID and at the pool entry's own
// home site; a delete removes the oldest benchmark-inserted tuple, so N
// is stationary.
func (in *instance) nextUpdate() (insert bool, lt liveTuple) {
	u := in.updates
	in.updates++
	if u%2 == 1 && len(in.fifo) > insertLag {
		lt = in.fifo[0]
		in.fifo = in.fifo[1:]
		return false, lt
	}
	pick := in.inserts % len(in.pool)
	in.inserts++
	t := in.pool[pick]
	t.ID = in.nextID
	in.nextID++
	return true, liveTuple{t: t, home: pick % in.w.sites}
}

// applied records a successful update in the benchmark's copy.
func (in *instance) applied(insert bool, lt liveTuple) {
	in.oracle = nil
	if insert {
		in.live[lt.t.ID] = lt.t
		in.fifo = append(in.fifo, lt)
		return
	}
	delete(in.live, lt.t.ID)
}

func (w *workload) String() string {
	tr := "in-process"
	if w.tcp {
		tr = "loopback TCP"
	}
	return fmt.Sprintf("%s: n=%d sites=%d %s delay=%v clients=%d", w.name, w.n, w.sites, tr, w.delay, w.clients)
}
