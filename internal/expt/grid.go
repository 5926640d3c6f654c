package expt

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Grid holds one figure's worth of data: a family of series sampled at
// common x values, rendered as an aligned text table or CSV. A cell holds
// NaN until it is set, so any other value — negative ones included, such as
// a headline improvement where DLOOP is slower — is stored and shown.
type Grid struct {
	Title  string
	XLabel string
	YLabel string
	XVals  []string
	series []string
	data   map[string][]float64
}

// NewGrid returns an empty grid over the given x values.
func NewGrid(title, xLabel, yLabel string, xVals []string) *Grid {
	return &Grid{
		Title:  title,
		XLabel: xLabel,
		YLabel: yLabel,
		XVals:  xVals,
		data:   make(map[string][]float64),
	}
}

// Set stores one point. Unset points render as "-" (blank in CSV).
//
// x must be one of the grid's XVals. That is an invariant of the caller,
// not an input to check: every study takes its x values from the list it
// built the grid with. Set panics if it breaks, and has no error to return.
func (g *Grid) Set(series, x string, v float64) {
	xi := -1
	for i, xv := range g.XVals {
		if xv == x {
			xi = i
			break
		}
	}
	if xi < 0 {
		panic(fmt.Sprintf("expt: unknown x value %q in grid %q", x, g.Title))
	}
	row, ok := g.data[series]
	if !ok {
		row = make([]float64, len(g.XVals))
		for i := range row {
			row[i] = math.NaN() // unset
		}
		g.data[series] = row
		g.series = append(g.series, series)
	}
	row[xi] = v
}

// Get returns a stored point, with ok=false for unset cells.
func (g *Grid) Get(series, x string) (float64, bool) {
	row, ok := g.data[series]
	if !ok {
		return 0, false
	}
	for i, xv := range g.XVals {
		if xv == x {
			if math.IsNaN(row[i]) {
				return 0, false
			}
			return row[i], true
		}
	}
	return 0, false
}

// Render writes an aligned text table.
func (g *Grid) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", g.Title)
	fmt.Fprintf(&b, "%s (rows: %s)\n", g.YLabel, g.XLabel)
	width := 12
	for _, s := range g.series {
		if len(s)+2 > width {
			width = len(s) + 2
		}
	}
	fmt.Fprintf(&b, "%-10s", g.XLabel)
	for _, s := range g.series {
		fmt.Fprintf(&b, "%*s", width, s)
	}
	b.WriteByte('\n')
	for i, x := range g.XVals {
		fmt.Fprintf(&b, "%-10s", x)
		for _, s := range g.series {
			v := g.data[s][i]
			if math.IsNaN(v) {
				fmt.Fprintf(&b, "%*s", width, "-")
			} else {
				fmt.Fprintf(&b, "%*.3f", width, v)
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the grid as comma-separated values with a header row.
func (g *Grid) CSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString(g.XLabel)
	for _, s := range g.series {
		b.WriteByte(',')
		b.WriteString(s)
	}
	b.WriteByte('\n')
	for i, x := range g.XVals {
		b.WriteString(x)
		for _, s := range g.series {
			v := g.data[s][i]
			if math.IsNaN(v) {
				b.WriteString(",")
			} else {
				fmt.Fprintf(&b, ",%g", v)
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
