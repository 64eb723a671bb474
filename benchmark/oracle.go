package main

import (
	"fmt"
	"math"
	"sort"
)

// probTol is how far a reported P_g-sky may sit from the oracle's. The
// protocol multiplies per-site factors, the oracle one flat product, so
// the two differ by rounding only.
const probTol = 1e-9

// oracle is the benchmark's own answer to "which tuples have global
// skyline probability >= q". It shares no code with the PR-tree: the
// union is sorted by L1 norm (a dominator always has a strictly smaller
// L1), and eq. 5 is evaluated for each tuple by scanning the tuples
// before it, stopping once P(t)·Π(1−P(t')) has fallen below qmin — from
// there it can only fall further. It is computed once at the lowest
// threshold a workload uses; every higher threshold is a filter of it.
type oracle struct {
	qmin    float64
	members map[TupleID]float64 // every tuple with P_g-sky >= qmin
}

func newOracle(union []Tuple, qmin float64) *oracle {
	type ranked struct {
		t  Tuple
		l1 float64
	}
	rs := make([]ranked, len(union))
	for i, t := range union {
		rs[i] = ranked{t, t.Point.L1()}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].l1 < rs[j].l1 })
	o := &oracle{qmin: qmin, members: make(map[TupleID]float64)}
	for i := range rs {
		t := rs[i].t
		p := t.Prob
		for j := 0; j < i && p >= qmin; j++ {
			if rs[j].t.Point.Dominates(t.Point) {
				p *= 1 - rs[j].t.Prob
			}
		}
		if p >= qmin {
			o.members[t.ID] = p
		}
	}
	return o
}

// answer is what one read returned, kept for verification: the reported
// skyline and the progressive deliveries in arrival order.
type answer struct {
	q         float64
	skyline   []Member
	delivered []Result
}

// check compares one answer with the oracle's prefix at a.q: the same
// tuple IDs, every probability within probTol, descending report order,
// and progressive deliveries numbered 1..k over exactly the reported
// tuples. A tuple whose probability is within probTol of q may be on
// either side of the cut.
func (o *oracle) check(a answer) error {
	if a.q < o.qmin {
		return fmt.Errorf("oracle built at q=%v cannot judge q=%v", o.qmin, a.q)
	}
	got := make(map[TupleID]float64, len(a.skyline))
	for i, m := range a.skyline {
		want, ok := o.members[m.Tuple.ID]
		if !ok || want < a.q-probTol {
			return fmt.Errorf("q=%v: tuple %d reported with P=%v, oracle says %v", a.q, m.Tuple.ID, m.Prob, want)
		}
		if math.Abs(want-m.Prob) > probTol {
			return fmt.Errorf("q=%v: tuple %d P_g-sky=%v, oracle %v", a.q, m.Tuple.ID, m.Prob, want)
		}
		if i > 0 && m.Prob > a.skyline[i-1].Prob {
			return fmt.Errorf("q=%v: report not in descending probability order at %d", a.q, i)
		}
		got[m.Tuple.ID] = m.Prob
	}
	if len(got) != len(a.skyline) {
		return fmt.Errorf("q=%v: duplicate tuple in report", a.q)
	}
	for id, want := range o.members {
		if _, ok := got[id]; !ok && want >= a.q+probTol {
			return fmt.Errorf("q=%v: tuple %d (P=%v) missing from the answer", a.q, id, want)
		}
	}
	if len(a.delivered) != len(a.skyline) {
		return fmt.Errorf("q=%v: %d progressive deliveries for %d reported tuples", a.q, len(a.delivered), len(a.skyline))
	}
	for i, r := range a.delivered {
		if r.Index != i+1 {
			return fmt.Errorf("q=%v: delivery %d carries ordinal %d", a.q, i+1, r.Index)
		}
		if p, ok := got[r.Tuple.ID]; !ok || p != r.GlobalProb {
			return fmt.Errorf("q=%v: delivery %d (tuple %d, P=%v) does not match the report", a.q, i+1, r.Tuple.ID, r.GlobalProb)
		}
	}
	return nil
}
