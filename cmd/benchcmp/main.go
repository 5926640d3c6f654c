// Command benchcmp compares two files of raw `go test -bench -benchmem`
// output, a base and a change measured in alternating rounds on one machine
// (scripts/bench.sh -against REV), and exits 1 when a benchmark regressed.
//
// The k-th result of a benchmark in one file is paired with its k-th result
// in the other: one pair per round. The base's own spread across the rounds
// is the bar, so noise that the base shows against itself fails nothing:
//
//   - allocs/op or B/op fails only when every change round is above every
//     base round;
//   - ns/op fails only when the base's relative IQR is under 10 %, the change
//     is slower in at least nine tenths of the paired rounds (the rule for
//     claiming a difference from paired runs; a bare majority failed
//     identical binaries on a shared host, DESIGN §12), the median ratio is
//     above 1.10, and the median difference exceeds the base's IQR. A row whose base IQR is 10 % or wider is "unresolved",
//     unless every change round is faster than every base round.
//
// A benchmark found in one file only is reported and never fails: a
// benchmark whose body changes takes a new name.
//
// Usage:
//
//	benchcmp -base base.txt -new new.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// bound is both the widest relative IQR of a base's ns/op at which a row is
// judged and the smallest median slowdown that fails it.
const bound = 0.10

// results maps "pkg.BenchmarkName-P" to each unit's values, in the order of
// the rounds.
type results map[string]map[string][]float64

// parse reads raw `go test -bench` text; lines that are not benchmark results
// (headers, logs, PASS) are skipped.
func parse(text string) results {
	res := results{}
	pkg := ""
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == "pkg:" {
			pkg = f[1]
		}
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		key := pkg + "." + f[0]
		if res[key] == nil {
			res[key] = map[string][]float64{}
		}
		for i := 2; i < len(f); i += 2 {
			v, _ := strconv.ParseFloat(f[i], 64) // a value go test printed
			res[key][f[i+1]] = append(res[key][f[i+1]], v)
		}
	}
	return res
}

// row is one benchmark's verdict ("ok", "FAIL", "unresolved", "base only" or
// "new only") and the figures behind it.
type row struct {
	name, status string
	notes        []string
}

// judge compares every benchmark of base and change, in name order.
func judge(base, change results) []row {
	var rows []row
	for name := range base {
		rows = append(rows, row{name: name, status: "base only"})
	}
	for name := range change {
		if base[name] == nil {
			rows = append(rows, row{name: name, status: "new only"})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	for i := range rows {
		b, c, r := base[rows[i].name], change[rows[i].name], &rows[i]
		if b == nil || c == nil {
			continue
		}
		r.status = "ok"
		for _, unit := range []string{"allocs/op", "B/op"} {
			bv, cv := b[unit], c[unit]
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			r.notes = append(r.notes, fmt.Sprintf("%s %.0f..%.0f -> %.0f..%.0f", unit, lo(bv), hi(bv), lo(cv), hi(cv)))
			if lo(cv) > hi(bv) {
				r.status = "FAIL"
				r.notes[len(r.notes)-1] += " (every round above the base's)"
			}
		}
		n := min(len(b["ns/op"]), len(c["ns/op"]))
		if n == 0 {
			continue
		}
		bv, cv := b["ns/op"][:n], c["ns/op"][:n]
		ratios, diffs, slower := make([]float64, n), make([]float64, n), 0
		for k := range bv {
			ratios[k], diffs[k] = cv[k]/bv[k], cv[k]-bv[k]
			if cv[k] > bv[k] {
				slower++
			}
		}
		iqr, med, ratio := quantile(bv, 0.75)-quantile(bv, 0.25), quantile(bv, 0.5), quantile(ratios, 0.5)
		r.notes = append(r.notes, fmt.Sprintf("ns/op %.4g -> %.4g (x%.2f, slower in %d/%d rounds, base IQR %.0f%%)",
			med, quantile(cv, 0.5), ratio, slower, n, 100*iqr/med))
		switch {
		case iqr >= bound*med && hi(cv) < lo(bv):
		case iqr >= bound*med && r.status == "ok":
			r.status = "unresolved"
		case iqr < bound*med && 10*slower >= 9*n && ratio > 1+bound && quantile(diffs, 0.5) > iqr:
			r.status = "FAIL"
		}
	}
	return rows
}

// quantile returns the p-quantile of v, interpolating between order
// statistics (the first and third quartiles of five values are the second
// and fourth).
func quantile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 == len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func lo(v []float64) float64 { return quantile(v, 0) }
func hi(v []float64) float64 { return quantile(v, 1) }

func main() {
	basePath := flag.String("base", "", "raw go test -bench output of the base (required)")
	newPath := flag.String("new", "", "raw go test -bench output of the change (required)")
	flag.Parse()
	var sides [2]results
	for i, path := range []string{*basePath, *newPath} {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcmp: -base and -new name two files:", err)
			os.Exit(2)
		}
		sides[i] = parse(string(data))
	}
	count := map[string]int{}
	for _, r := range judge(sides[0], sides[1]) {
		count[r.status]++
		fmt.Printf("%-10s %-70s %s\n", r.status, r.name, strings.Join(r.notes, "; "))
	}
	fmt.Printf("benchcmp: %d ok, %d failed, %d unresolved, %d base only, %d new only\n",
		count["ok"], count["FAIL"], count["unresolved"], count["base only"], count["new only"])
	if count["FAIL"] > 0 {
		os.Exit(1)
	}
}
