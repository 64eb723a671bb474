package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Registry maps experiment identifiers to their runners.
var registry = map[string]func(context.Context, Scale) ([]Figure, error){
	"fig8":  Fig8,
	"fig9":  Fig9,
	"fig10": Fig10,
	"fig11": Fig11,
	"fig12": Fig12,
	"fig13": Fig13,
	"fig14": Fig14,
	"eq6":   func(_ context.Context, s Scale) ([]Figure, error) { return Eq6(s) },

	// Extensions beyond the paper's own figures.
	"ablation":     Ablation,
	"vertical":     Vertical,
	"partitioning": Partitioning,
	"latency":      Latency,
}

// IDs lists the available experiment identifiers in stable order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes the experiment with the given identifier.
func Run(ctx context.Context, id string, scale Scale) ([]Figure, error) {
	fn, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (available: %s)",
			id, strings.Join(IDs(), ", "))
	}
	return fn(ctx, scale)
}

// Render writes the figure as an aligned text table: one row per x value,
// one column per series.
func (f Figure) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s — %s\n", f.ID, f.Title); err != nil {
		return err
	}
	// Collect the union of x values in order of first appearance, then
	// sorted ascending.
	xsSeen := map[float64]bool{}
	var xs []float64
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !xsSeen[p.X] {
				xsSeen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)

	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for _, x := range xs {
		row := []string{trimFloat(x)}
		for _, s := range f.Series {
			cell := "-"
			for _, p := range s.Points {
				if p.X == x {
					cell = trimFloat(p.Y)
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}

	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		if _, err := fmt.Fprintln(w, b.String()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// RenderCSV writes the figure as CSV: header "x,<series...>" then one row
// per x value, empty cells for missing points — machine-readable output
// for plotting tools.
func (f Figure) RenderCSV(w io.Writer) error {
	xsSeen := map[float64]bool{}
	var xs []float64
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !xsSeen[p.X] {
				xsSeen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	records := [][]string{header}
	for _, x := range xs {
		row := []string{trimFloat(x)}
		for _, s := range f.Series {
			cell := ""
			for _, p := range s.Points {
				if p.X == x {
					cell = trimFloat(p.Y)
					break
				}
			}
			row = append(row, cell)
		}
		records = append(records, row)
	}
	if _, err := fmt.Fprintf(w, "# %s,%s\n", f.ID, f.Title); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.WriteAll(records); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}
