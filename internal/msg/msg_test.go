package msg

import (
	"fmt"
	"strings"
	"testing"
)

func TestQueryValidate(t *testing.T) {
	good := Query{Threshold: 0.3}
	if err := good.Validate(3); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	if err := (Query{Threshold: 0.3, Dims: []int{0, 2}}).Validate(3); err != nil {
		t.Errorf("valid subspace rejected: %v", err)
	}
	bad := []Query{
		{Threshold: 0},
		{Threshold: 1.2},
		{Threshold: -1},
		{Threshold: 0.3, Dims: []int{3}},
		{Threshold: 0.3, Dims: []int{}},
		{Threshold: 0.3, Dims: []int{1, 1}},
	}
	for i, q := range bad {
		if err := q.Validate(3); err == nil {
			t.Errorf("case %d: query %+v must be rejected", i, q)
		}
	}
}

func TestKindString(t *testing.T) {
	// Every kind up to MaxKind has its own name: the numbering is dense,
	// with no retired hole rendering as the Kind(n) fallback.
	seen := map[string]bool{}
	for k := Kind(1); int(k) <= MaxKind; k++ {
		s := k.String()
		if s == "" || seen[s] || strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d has empty/duplicate/fallback string %q", int(k), s)
		}
		seen[s] = true
	}
	for _, k := range []Kind{0, Kind(MaxKind + 1), 99} {
		if want := fmt.Sprintf("Kind(%d)", int(k)); k.String() != want {
			t.Errorf("unknown kind renders %q, want %q", k.String(), want)
		}
	}
}
