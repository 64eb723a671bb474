// Package experiments regenerates every figure of the paper's §7
// evaluation: bandwidth versus dimensionality (Fig. 8), site count
// (Fig. 9) and threshold (Fig. 10); the NYSE workload (Fig. 11);
// progressiveness traces (Fig. 12–13); and update maintenance (Fig. 14),
// plus the eq. 6–8 analytic table. The same runners back the testing.B
// benchmarks in the repository root and the cmd/dsud-bench CLI.
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/gen"
	"repro/internal/obs/progress"
	"repro/internal/uncertain"
)

// Scale sizes an experiment run. The paper's Table 3 defaults are
// PaperScale; DefaultScale finishes each figure in seconds on a laptop
// while preserving every qualitative trend.
type Scale struct {
	// N is the global cardinality (paper: 2,000,000).
	N int
	// Queries is how many repetitions (fresh seeds) are averaged
	// (paper: 10).
	Queries int
	// Seed anchors generation; repetition k uses Seed + k.
	Seed int64
	// Sites overrides the default site count m = 60 where the figure does
	// not sweep it (0 keeps the paper default).
	Sites int
}

// Paper defaults (Table 3).
const (
	DefaultSites     = 60
	DefaultDims      = 3
	DefaultThreshold = 0.3
)

// PaperScale reproduces the paper's exact workload sizes. Expect minutes
// per figure.
var PaperScale = Scale{N: 2_000_000, Queries: 10, Seed: 1}

// DefaultScale is a laptop-friendly configuration preserving all trends.
var DefaultScale = Scale{N: 60_000, Queries: 2, Seed: 1}

func (s Scale) sites() int {
	if s.Sites > 0 {
		return s.Sites
	}
	return DefaultSites
}

func (s Scale) queries() int {
	if s.Queries > 0 {
		return s.Queries
	}
	return 1
}

// Point is one (x, y) sample of a series.
type Point struct {
	X float64
	Y float64
}

// Series is one labelled curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is one reproduced chart: labelled series over a shared x-axis.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// config is one fully resolved query setup.
type config struct {
	n, d, m  int
	q        float64
	values   gen.ValueDist
	probs    gen.ProbDist
	mu       float64
	sigma    float64
	seed     int64
	subspace []int
}

// runOnce generates the workload, partitions it, and runs one algorithm.
func runOnce(ctx context.Context, cfg config, algo core.Algorithm) (*core.Report, error) {
	return runOnceTraced(ctx, cfg, algo, nil)
}

// measured is one configuration's averaged cost: the tuples a query sent
// (on a fresh cluster, so its Init fetched the sites' summaries), the
// tuples the paper's broadcast to all m−1 sites would have sent on the
// same run, and the answer size (for the Ceiling).
type measured struct {
	tuples, paper, sky float64
}

// averageBandwidth runs the configuration scale.Queries times with
// distinct seeds and averages what they cost. A routed run has the
// rounds and the shipped representatives of the broadcast to all, so the
// paper's count is the representatives up plus broadcasts × (m − 1).
func averageBandwidth(ctx context.Context, cfg config, algo core.Algorithm, scale Scale) (measured, error) {
	var avg measured
	reps := scale.queries()
	for k := 0; k < reps; k++ {
		c := cfg
		c.seed = scale.Seed + int64(k)*1000
		report, err := runOnce(ctx, c, algo)
		if err != nil {
			return measured{}, err
		}
		avg.tuples += float64(report.Bandwidth.Tuples())
		avg.paper += float64(report.Broadcasts) * float64(len(report.PerSite)-1)
		for _, s := range report.PerSite {
			avg.paper += float64(s.Shipped)
		}
		avg.sky += float64(len(report.Skyline))
	}
	n := float64(reps)
	return measured{avg.tuples / n, avg.paper / n, avg.sky / n}, nil
}

// Names of the series every bandwidth figure carries beside each
// algorithm's own: what the paper's broadcast to all sites would have
// sent on the same runs.
const (
	dsudPaper  = "DSUD (broadcast to all)"
	edsudPaper = "e-DSUD (broadcast to all)"
)

// bandwidthSeries names a bandwidth figure's series: DSUD, e-DSUD, any
// extra, then both algorithms as the paper would have sent.
func bandwidthSeries(extra ...string) []Series {
	names := append(append([]string{"DSUD", "e-DSUD"}, extra...), dsudPaper, edsudPaper)
	series := make([]Series, len(names))
	for i, name := range names {
		series[i].Name = name
	}
	return series
}

// measureBoth runs DSUD and e-DSUD on cfg and adds their points at x to
// fig's series of those names.
func measureBoth(ctx context.Context, fig *Figure, x float64, cfg config, scale Scale) (dsud, edsud measured, err error) {
	if dsud, err = averageBandwidth(ctx, cfg, core.DSUD, scale); err != nil {
		return
	}
	if edsud, err = averageBandwidth(ctx, cfg, core.EDSUD, scale); err != nil {
		return
	}
	for name, y := range map[string]float64{"DSUD": dsud.tuples, "e-DSUD": edsud.tuples, dsudPaper: dsud.paper, edsudPaper: edsud.paper} {
		fig.add(name, Point{x, y})
	}
	return dsud, edsud, nil
}

// add appends p to the series called name.
func (f *Figure) add(name string, p Point) {
	for i := range f.Series {
		if f.Series[i].Name == name {
			f.Series[i].Points = append(f.Series[i].Points, p)
		}
	}
}

// Fig8 reproduces "Performance versus Dimensionality d": bandwidth of
// DSUD, e-DSUD and the Ceiling for d in 2..5 under Independent (8a) and
// Anticorrelated (8b) data.
func Fig8(ctx context.Context, scale Scale) ([]Figure, error) {
	dims := []int{2, 3, 4, 5}
	var out []Figure
	for _, vd := range []gen.ValueDist{gen.Independent, gen.Anticorrelated} {
		fig := Figure{
			ID:     "fig8-" + vd.String(),
			Title:  fmt.Sprintf("Bandwidth vs dimensionality (%s)", vd),
			XLabel: "d", YLabel: "tuples transmitted",
			Series: bandwidthSeries("Ceiling"),
		}
		for _, d := range dims {
			cfg := config{
				n: scale.N, d: d, m: scale.sites(), q: DefaultThreshold,
				values: vd, probs: gen.UniformProb,
			}
			_, edsud, err := measureBoth(ctx, &fig, float64(d), cfg, scale)
			if err != nil {
				return nil, err
			}
			fig.add("Ceiling", Point{float64(d), edsud.sky * float64(cfg.m)})
		}
		out = append(out, fig)
	}
	return out, nil
}

// Fig9 reproduces "Performance versus Number of local sites m": bandwidth
// for m in {40, 60, 80, 100}.
func Fig9(ctx context.Context, scale Scale) ([]Figure, error) {
	ms := []int{40, 60, 80, 100}
	var out []Figure
	for _, vd := range []gen.ValueDist{gen.Independent, gen.Anticorrelated} {
		fig := Figure{
			ID:     "fig9-" + vd.String(),
			Title:  fmt.Sprintf("Bandwidth vs site count (%s)", vd),
			XLabel: "m", YLabel: "tuples transmitted",
			Series: bandwidthSeries(),
		}
		for _, m := range ms {
			cfg := config{
				n: scale.N, d: DefaultDims, m: m, q: DefaultThreshold,
				values: vd, probs: gen.UniformProb,
			}
			if _, _, err := measureBoth(ctx, &fig, float64(m), cfg, scale); err != nil {
				return nil, err
			}
		}
		out = append(out, fig)
	}
	return out, nil
}

// Fig10 reproduces "Performance versus Threshold q": bandwidth for q in
// {0.3, 0.5, 0.7, 0.9}.
func Fig10(ctx context.Context, scale Scale) ([]Figure, error) {
	qs := []float64{0.3, 0.5, 0.7, 0.9}
	var out []Figure
	for _, vd := range []gen.ValueDist{gen.Independent, gen.Anticorrelated} {
		fig := Figure{
			ID:     "fig10-" + vd.String(),
			Title:  fmt.Sprintf("Bandwidth vs threshold (%s)", vd),
			XLabel: "q", YLabel: "tuples transmitted",
			Series: bandwidthSeries(),
		}
		for _, q := range qs {
			cfg := config{
				n: scale.N, d: DefaultDims, m: scale.sites(), q: q,
				values: vd, probs: gen.UniformProb,
			}
			if _, _, err := measureBoth(ctx, &fig, q, cfg, scale); err != nil {
				return nil, err
			}
		}
		out = append(out, fig)
	}
	return out, nil
}

// Fig11 reproduces the NYSE-workload experiments: bandwidth vs m (11a)
// and vs q (11b) with uniform probabilities, then bandwidth (11c) and
// answer size (11d) vs the Gaussian probability mean.
func Fig11(ctx context.Context, scale Scale) ([]Figure, error) {
	figA := Figure{
		ID: "fig11a", Title: "NYSE: bandwidth vs site count",
		XLabel: "m", YLabel: "tuples transmitted",
		Series: bandwidthSeries(),
	}
	for _, m := range []int{40, 60, 80, 100} {
		cfg := config{n: scale.N, m: m, q: DefaultThreshold, values: gen.NYSE, probs: gen.UniformProb}
		if _, _, err := measureBoth(ctx, &figA, float64(m), cfg, scale); err != nil {
			return nil, err
		}
	}

	figB := Figure{
		ID: "fig11b", Title: "NYSE: bandwidth vs threshold",
		XLabel: "q", YLabel: "tuples transmitted",
		Series: bandwidthSeries(),
	}
	for _, q := range []float64{0.3, 0.5, 0.7, 0.9} {
		cfg := config{n: scale.N, m: scale.sites(), q: q, values: gen.NYSE, probs: gen.UniformProb}
		if _, _, err := measureBoth(ctx, &figB, q, cfg, scale); err != nil {
			return nil, err
		}
	}

	figC := Figure{
		ID: "fig11c", Title: "NYSE: bandwidth vs Gaussian probability mean",
		XLabel: "mu", YLabel: "tuples transmitted",
		Series: bandwidthSeries(),
	}
	figD := Figure{
		ID: "fig11d", Title: "NYSE: skyline size vs Gaussian probability mean",
		XLabel: "mu", YLabel: "qualified skyline tuples",
		Series: []Series{{Name: "DSUD"}, {Name: "e-DSUD"}},
	}
	for _, mu := range []float64{0.3, 0.5, 0.7, 0.9} {
		cfg := config{
			n: scale.N, m: scale.sites(), q: DefaultThreshold,
			values: gen.NYSE, probs: gen.GaussianProb, mu: mu, sigma: 0.2,
		}
		dsud, edsud, err := measureBoth(ctx, &figC, mu, cfg, scale)
		if err != nil {
			return nil, err
		}
		figD.add("DSUD", Point{mu, dsud.sky})
		figD.add("e-DSUD", Point{mu, edsud.sky})
	}
	return []Figure{figA, figB, figC, figD}, nil
}

// progressSeries downsamples a progress trace to at most 16 points.
func progressSeries(name string, trace []progress.Point, y func(progress.Point) float64) Series {
	s := Series{Name: name}
	if len(trace) == 0 {
		return s
	}
	step := (len(trace) + 15) / 16
	for i := 0; i < len(trace); i += step {
		s.Points = append(s.Points, Point{float64(trace[i].K), y(trace[i])})
	}
	last := trace[len(trace)-1]
	s.Points = append(s.Points, Point{float64(last.K), y(last)})
	return s
}

// Fig12 reproduces the synthetic-data progressiveness study: cumulative
// bandwidth (12a/12b) and CPU runtime (12c/12d) as functions of the
// number of skyline tuples reported, for Independent and Anticorrelated.
func Fig12(ctx context.Context, scale Scale) ([]Figure, error) {
	return progressFigures(ctx, scale, "fig12", progressCases("fig12"))
}

// Fig13 reproduces the NYSE progressiveness study with uniform and
// Gaussian (mu = 0.5, sigma = 0.2) probability assignments.
func Fig13(ctx context.Context, scale Scale) ([]Figure, error) {
	return progressFigures(ctx, scale, "fig13", progressCases("fig13"))
}

// progressCases lists the workload cases behind each progressiveness
// figure (nil for any other experiment id).
func progressCases(id string) []progressCase {
	switch id {
	case "fig12":
		return []progressCase{
			{label: "independent", values: gen.Independent, probs: gen.UniformProb},
			{label: "anticorrelated", values: gen.Anticorrelated, probs: gen.UniformProb},
		}
	case "fig13":
		return []progressCase{
			{label: "uniform", values: gen.NYSE, probs: gen.UniformProb},
			{label: "gaussian", values: gen.NYSE, probs: gen.GaussianProb, mu: 0.5, sigma: 0.2},
		}
	default:
		return nil
	}
}

type progressCase struct {
	label  string
	values gen.ValueDist
	probs  gen.ProbDist
	mu     float64
	sigma  float64
}

func progressFigures(ctx context.Context, scale Scale, id string, cases []progressCase) ([]Figure, error) {
	var out []Figure
	for _, pc := range cases {
		d := DefaultDims
		if pc.values == gen.NYSE {
			d = 2
		}
		cfg := config{
			n: scale.N, d: d, m: scale.sites(), q: DefaultThreshold,
			values: pc.values, probs: pc.probs, mu: pc.mu, sigma: pc.sigma,
			seed: scale.Seed,
		}
		dsud, err := runOnce(ctx, cfg, core.DSUD)
		if err != nil {
			return nil, err
		}
		edsud, err := runOnce(ctx, cfg, core.EDSUD)
		if err != nil {
			return nil, err
		}
		out = append(out,
			Figure{
				ID:     id + "-bandwidth-" + pc.label,
				Title:  fmt.Sprintf("Progressiveness (%s): bandwidth vs reported tuples", pc.label),
				XLabel: "skyline tuples reported", YLabel: "tuples transmitted",
				Series: []Series{
					progressSeries("DSUD", dsud.Progress, func(p progress.Point) float64 { return float64(p.Tuples) }),
					progressSeries("e-DSUD", edsud.Progress, func(p progress.Point) float64 { return float64(p.Tuples) }),
				},
			},
			Figure{
				ID:     id + "-cpu-" + pc.label,
				Title:  fmt.Sprintf("Progressiveness (%s): CPU time vs reported tuples", pc.label),
				XLabel: "skyline tuples reported", YLabel: "seconds",
				Series: []Series{
					progressSeries("DSUD", dsud.Progress, func(p progress.Point) float64 { return time.Duration(p.NS).Seconds() }),
					progressSeries("e-DSUD", edsud.Progress, func(p progress.Point) float64 { return time.Duration(p.NS).Seconds() }),
				},
			},
		)
	}
	return out, nil
}

// Eq6 tabulates the analytic model: the expected skyline cardinality
// H(d, N) for the Table 3 dimensionalities, and the eq. 7/8 feedback-cost
// comparison over the site sweep.
func Eq6(scale Scale) ([]Figure, error) {
	card := Figure{
		ID: "eq6", Title: "Expected skyline cardinality H(d, N)",
		XLabel: "d", YLabel: "expected tuples",
		Series: []Series{{Name: "H(d,N)"}},
	}
	for _, d := range []int{2, 3, 4, 5} {
		h, err := estimate.SkylineCardinality(d, scale.N)
		if err != nil {
			return nil, err
		}
		card.Series[0].Points = append(card.Series[0].Points, Point{float64(d), h})
	}
	cost := Figure{
		ID: "eq7-8", Title: "Feedback cost: N_back vs N_local",
		XLabel: "m", YLabel: "tuples",
		Series: []Series{{Name: "N_back"}, {Name: "N_local"}},
	}
	for _, m := range []int{40, 60, 80, 100} {
		fc, err := estimate.CompareFeedback(DefaultDims, scale.N, m)
		if err != nil {
			return nil, err
		}
		cost.Series[0].Points = append(cost.Series[0].Points, Point{float64(m), fc.Back})
		cost.Series[1].Points = append(cost.Series[1].Points, Point{float64(m), fc.Local})
	}
	return []Figure{card, cost}, nil
}

// Fig14 reproduces the update study: average response time per update for
// the Incremental and Naive maintenance strategies as the update rate
// grows from 20% to 100%, under Independent and Anticorrelated data. The
// update count at rate r is r × N/100 × updateFraction; the naive strategy
// is sampled (it re-runs the full query per update) and its average is
// extrapolated, exactly like the paper's per-update response-time metric.
func Fig14(ctx context.Context, scale Scale) ([]Figure, error) {
	const updateFraction = 0.02 // updates at 100% rate = 2% of N
	var out []Figure
	for _, vd := range []gen.ValueDist{gen.Independent, gen.Anticorrelated} {
		fig := Figure{
			ID:     "fig14-" + vd.String(),
			Title:  fmt.Sprintf("Update maintenance (%s): response time vs update rate", vd),
			XLabel: "update rate (%)", YLabel: "avg seconds per update",
			Series: []Series{{Name: "Incremental"}, {Name: "Naive"}},
		}
		for _, rate := range []int{20, 40, 60, 80, 100} {
			inc, naive, err := updateRun(ctx, scale, vd, rate, updateFraction)
			if err != nil {
				return nil, err
			}
			fig.Series[0].Points = append(fig.Series[0].Points, Point{float64(rate), inc})
			fig.Series[1].Points = append(fig.Series[1].Points, Point{float64(rate), naive})
		}
		out = append(out, fig)
	}
	return out, nil
}

func updateRun(ctx context.Context, scale Scale, vd gen.ValueDist, rate int, fraction float64) (incremental, naive float64, err error) {
	db, err := gen.Generate(gen.Config{
		N: scale.N, Dims: DefaultDims, Values: vd, Probs: gen.UniformProb, Seed: scale.Seed,
	})
	if err != nil {
		return 0, 0, err
	}
	m := scale.sites()
	parts, err := gen.Partition(db, m, scale.Seed+1)
	if err != nil {
		return 0, 0, err
	}
	cluster, err := core.Open(core.ClusterConfig{Partitions: parts, Dims: DefaultDims})
	if err != nil {
		return 0, 0, err
	}
	defer cluster.Close()

	srv, err := cluster.Serve(ctx, core.ServeConfig{Floor: DefaultThreshold})
	if err != nil {
		return 0, 0, err
	}

	updates := int(float64(scale.N) * fraction * float64(rate) / 100)
	if updates < 1 {
		updates = 1
	}
	// Alternate delete/insert pairs over a deterministic walk of the data.
	nextID := len(db) + 1
	start := time.Now()
	for k := 0; k < updates; k++ {
		home := k % m
		if len(parts[home]) == 0 {
			continue
		}
		if k%2 == 0 {
			victim := parts[home][k%len(parts[home])]
			parts[home] = append(parts[home][:k%len(parts[home])], parts[home][(k%len(parts[home]))+1:]...)
			if err := srv.Delete(ctx, home, victim); err != nil {
				return 0, 0, err
			}
		} else {
			tu := db[(k*7)%len(db)].Clone()
			tu.ID = uncertain.TupleID(nextID)
			nextID++
			if err := srv.Insert(ctx, home, tu); err != nil {
				return 0, 0, err
			}
			parts[home] = append(parts[home], tu)
		}
	}
	incremental = time.Since(start).Seconds() / float64(updates)

	// Naive: each update triggers a full re-query. Sample a few to keep
	// the harness tractable and report the per-update average.
	sample := 3
	if updates < sample {
		sample = updates
	}
	start = time.Now()
	for k := 0; k < sample; k++ {
		home := k % m
		tu := db[(k*13)%len(db)].Clone()
		tu.ID = uncertain.TupleID(nextID)
		nextID++
		if err := srv.ApplyNaive(ctx, home, true, tu); err != nil {
			return 0, 0, err
		}
		if err := srv.Refresh(ctx); err != nil {
			return 0, 0, err
		}
	}
	naive = time.Since(start).Seconds() / float64(sample)
	return incremental, naive, nil
}
