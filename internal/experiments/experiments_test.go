package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// tiny finishes each figure in well under a second while keeping enough
// data for the qualitative trends to show.
var tiny = Scale{N: 6000, Queries: 1, Seed: 3, Sites: 10}

func findSeries(t *testing.T, fig Figure, name string) Series {
	t.Helper()
	for _, s := range fig.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("figure %s has no series %q", fig.ID, name)
	return Series{}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run(context.Background(), "fig99", tiny); err == nil {
		t.Fatal("unknown experiment must be rejected")
	}
}

func TestIDsStable(t *testing.T) {
	ids := IDs()
	if len(ids) != 12 {
		t.Fatalf("IDs = %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("IDs must be sorted")
		}
	}
}

func TestFig8Trends(t *testing.T) {
	figs, err := Fig8(context.Background(), tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("got %d figures", len(figs))
	}
	for _, fig := range figs {
		dsud := findSeries(t, fig, "DSUD")
		edsud := findSeries(t, fig, "e-DSUD")
		ceiling := findSeries(t, fig, "Ceiling")
		if len(dsud.Points) != 4 {
			t.Fatalf("%s: expected 4 dimensionality samples", fig.ID)
		}
		for i := range dsud.Points {
			if edsud.Points[i].Y > dsud.Points[i].Y {
				t.Errorf("%s d=%v: e-DSUD (%v) above DSUD (%v)",
					fig.ID, dsud.Points[i].X, edsud.Points[i].Y, dsud.Points[i].Y)
			}
			if ceiling.Points[i].Y > edsud.Points[i].Y {
				t.Errorf("%s d=%v: ceiling above e-DSUD", fig.ID, dsud.Points[i].X)
			}
		}
		// Bandwidth must grow with dimensionality overall.
		if dsud.Points[3].Y <= dsud.Points[0].Y {
			t.Errorf("%s: DSUD bandwidth did not grow from d=2 to d=5", fig.ID)
		}
	}
	// Anticorrelated must cost more than independent at the default d.
	indep := findSeries(t, figs[0], "DSUD")
	anti := findSeries(t, figs[1], "DSUD")
	if anti.Points[1].Y <= indep.Points[1].Y {
		t.Error("anticorrelated should consume more bandwidth than independent")
	}
}

func TestFig9Trends(t *testing.T) {
	figs, err := Fig9(context.Background(), tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range figs {
		dsud := findSeries(t, fig, "DSUD")
		edsud := findSeries(t, fig, "e-DSUD")
		if len(dsud.Points) != 4 {
			t.Fatalf("%s: expected 4 site-count samples", fig.ID)
		}
		for i := range dsud.Points {
			if edsud.Points[i].Y > dsud.Points[i].Y {
				t.Errorf("%s m=%v: e-DSUD above DSUD", fig.ID, dsud.Points[i].X)
			}
		}
		if dsud.Points[3].Y <= dsud.Points[0].Y {
			t.Errorf("%s: bandwidth did not grow with m", fig.ID)
		}
	}
}

func TestFig10Trends(t *testing.T) {
	figs, err := Fig10(context.Background(), tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range figs {
		dsud := findSeries(t, fig, "DSUD")
		edsud := findSeries(t, fig, "e-DSUD")
		for i := range dsud.Points {
			if edsud.Points[i].Y > dsud.Points[i].Y {
				t.Errorf("%s q=%v: e-DSUD above DSUD", fig.ID, dsud.Points[i].X)
			}
		}
		// Larger q must reduce e-DSUD bandwidth.
		if edsud.Points[len(edsud.Points)-1].Y >= edsud.Points[0].Y {
			t.Errorf("%s: e-DSUD bandwidth did not fall as q grew", fig.ID)
		}
	}
}

func TestFig11Structure(t *testing.T) {
	figs, err := Fig11(context.Background(), tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("got %d figures, want 4", len(figs))
	}
	for _, fig := range figs[:3] {
		dsud := findSeries(t, fig, "DSUD")
		edsud := findSeries(t, fig, "e-DSUD")
		for i := range dsud.Points {
			if edsud.Points[i].Y > dsud.Points[i].Y {
				t.Errorf("%s x=%v: e-DSUD above DSUD", fig.ID, dsud.Points[i].X)
			}
		}
	}
	// 11d: both algorithms must report identical answer sizes.
	d := figs[3]
	dsud := findSeries(t, d, "DSUD")
	edsud := findSeries(t, d, "e-DSUD")
	for i := range dsud.Points {
		if dsud.Points[i].Y != edsud.Points[i].Y {
			t.Errorf("fig11d mu=%v: answer sizes differ (%v vs %v)",
				dsud.Points[i].X, dsud.Points[i].Y, edsud.Points[i].Y)
		}
	}
}

func TestFig12Progressiveness(t *testing.T) {
	figs, err := Fig12(context.Background(), tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("got %d figures, want 4", len(figs))
	}
	for _, fig := range figs {
		for _, s := range fig.Series {
			if len(s.Points) == 0 {
				t.Fatalf("%s/%s: empty progress series", fig.ID, s.Name)
			}
			for i := 1; i < len(s.Points); i++ {
				if s.Points[i].X < s.Points[i-1].X || s.Points[i].Y < s.Points[i-1].Y {
					t.Fatalf("%s/%s: progress not monotone", fig.ID, s.Name)
				}
			}
		}
	}
}

func TestFig13Progressiveness(t *testing.T) {
	figs, err := Fig13(context.Background(), tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("got %d figures, want 4", len(figs))
	}
}

func TestFig14UpdateStudy(t *testing.T) {
	small := tiny
	small.N = 3000
	figs, err := Fig14(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("got %d figures, want 2", len(figs))
	}
	for _, fig := range figs {
		inc := findSeries(t, fig, "Incremental")
		naive := findSeries(t, fig, "Naive")
		if len(inc.Points) != 5 || len(naive.Points) != 5 {
			t.Fatalf("%s: expected 5 rate samples", fig.ID)
		}
		// The headline claim: incremental beats naive at every rate.
		for i := range inc.Points {
			if inc.Points[i].Y >= naive.Points[i].Y {
				t.Errorf("%s rate=%v%%: incremental (%v s) not under naive (%v s)",
					fig.ID, inc.Points[i].X, inc.Points[i].Y, naive.Points[i].Y)
			}
		}
	}
}

func TestEq6Table(t *testing.T) {
	figs, err := Eq6(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("got %d figures", len(figs))
	}
	card := findSeries(t, figs[0], "H(d,N)")
	for i := 1; i < len(card.Points); i++ {
		if card.Points[i].Y < card.Points[i-1].Y {
			t.Fatal("H(d,N) must grow with d")
		}
	}
	back := findSeries(t, figs[1], "N_back")
	local := findSeries(t, figs[1], "N_local")
	for i := range back.Points {
		if back.Points[i].Y <= local.Points[i].Y {
			t.Errorf("m=%v: N_back must exceed N_local", back.Points[i].X)
		}
	}
}

func TestRenderFigure(t *testing.T) {
	fig := Figure{
		ID: "demo", Title: "Demo", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", Points: []Point{{1, 10}, {2, 20}}},
			{Name: "b", Points: []Point{{1, 11.5}}},
		},
	}
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# demo — Demo", "a", "b", "10", "11.5", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	figs, err := Run(context.Background(), "eq6", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) == 0 {
		t.Fatal("dispatch returned nothing")
	}
}

func TestRenderCSV(t *testing.T) {
	fig := Figure{
		ID: "demo", Title: "Demo, with comma", XLabel: "x",
		Series: []Series{
			{Name: "a", Points: []Point{{1, 10}, {2, 20}}},
			{Name: "b", Points: []Point{{2, 21}}},
		},
	}
	var buf bytes.Buffer
	if err := fig.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"x,a,b", "1,10,", "2,20,21"} {
		if !strings.Contains(out, want) {
			t.Errorf("csv missing %q:\n%s", want, out)
		}
	}
}

func TestAblationRunner(t *testing.T) {
	figs, err := Ablation(context.Background(), tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("got %d figures", len(figs))
	}
	for _, fig := range figs {
		if len(fig.Series) != 6 {
			t.Fatalf("%s: %d series, want 6", fig.ID, len(fig.Series))
		}
		full := findSeries(t, fig, "e-DSUD")
		stripped := findSeries(t, fig, "e-DSUD -both")
		if full.Points[0].Y >= stripped.Points[0].Y {
			t.Errorf("%s: full e-DSUD (%v) should beat the stripped variant (%v)",
				fig.ID, full.Points[0].Y, stripped.Points[0].Y)
		}
	}
}

func TestVerticalRunner(t *testing.T) {
	figs, err := Vertical(context.Background(), tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 {
		t.Fatalf("got %d figures", len(figs))
	}
	vdsud := findSeries(t, figs[0], "VDSUD")
	download := findSeries(t, figs[0], "Download")
	if len(vdsud.Points) != 3 || len(download.Points) != 3 {
		t.Fatal("expected 3 distributions")
	}
	// Correlated (index 0) is the favourable regime.
	if vdsud.Points[0].Y >= download.Points[0].Y {
		t.Errorf("correlated: VDSUD (%v) should beat download (%v)",
			vdsud.Points[0].Y, download.Points[0].Y)
	}
}

func TestPartitioningRunner(t *testing.T) {
	figs, err := Partitioning(context.Background(), tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("got %d figures", len(figs))
	}
	for _, fig := range figs {
		random := findSeries(t, fig, "Random")
		angular := findSeries(t, fig, "Angular")
		if len(random.Points) != 4 || len(angular.Points) != 4 {
			t.Fatalf("%s: expected 4 site-count samples", fig.ID)
		}
	}
}

func TestLatencyRunner(t *testing.T) {
	small := tiny
	small.N = 2000
	small.Sites = 5
	figs, err := Latency(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 {
		t.Fatalf("got %d figures", len(figs))
	}
	for _, s := range figs[0].Series {
		if len(s.Points) != 3 {
			t.Fatalf("%s: %d milestones", s.Name, len(s.Points))
		}
		if s.Points[0].Y >= s.Points[2].Y {
			t.Fatalf("%s: first answer (%v s) not before completion (%v s)",
				s.Name, s.Points[0].Y, s.Points[2].Y)
		}
	}
}
