package main

import (
	"fmt"
	"strings"
	"testing"
)

// rounds renders one benchmark's results as go test -bench prints them, one
// line per round; each round is {ns/op, B/op, allocs/op}.
func rounds(name string, rs ...[3]float64) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%s-2   \t  100000\t  %g ns/op\t  %g B/op\t  %g allocs/op\n", name, r[0], r[1], r[2])
	}
	return b.String()
}

// scaled returns rs with ns/op multiplied by f and dB, dAllocs added to the
// other two columns.
func scaled(rs [][3]float64, f, dB, dAllocs float64) [][3]float64 {
	out := make([][3]float64, len(rs))
	for i, r := range rs {
		out[i] = [3]float64{r[0] * f, r[1] + dB, r[2] + dAllocs}
	}
	return out
}

func TestJudge(t *testing.T) {
	const header = "goos: linux\ngoarch: amd64\npkg: dloop/internal/sim\ncpu: test\n"
	tight := [][3]float64{{100, 0, 0}, {101, 0, 0}, {99, 0, 0}, {100, 0, 0}, {102, 0, 0}}
	wide := [][3]float64{{70, 0, 0}, {80, 0, 0}, {100, 0, 0}, {120, 0, 0}, {130, 0, 0}} // IQR 40 % of the median
	jitter := [][3]float64{{50, 2, 1}, {51, 4, 1}, {50, 3, 1}, {49, 2, 1}, {50, 4, 1}}
	jittered := [][3]float64{{50, 3, 1}, {50, 3, 1}, {51, 4, 1}, {50, 2, 1}, {49, 2, 1}}
	cases := []struct {
		name       string
		base, next string
		want       map[string]string // row name -> status
	}{
		{
			name: "identical sides",
			base: rounds("BenchmarkResourceAcquire", tight...) + rounds("BenchmarkWide", wide...),
			next: rounds("BenchmarkResourceAcquire", tight...) + rounds("BenchmarkWide", wide...),
			want: map[string]string{"BenchmarkResourceAcquire-2": "ok", "BenchmarkWide-2": "unresolved"},
		},
		{
			name: "one more allocation in every round of a 0-alloc row",
			base: rounds("BenchmarkCopyBack", tight...),
			next: rounds("BenchmarkCopyBack", scaled(tight, 1, 16, 1)...),
			want: map[string]string{"BenchmarkCopyBack-2": "FAIL"},
		},
		{
			name: "bytes per op jitter inside the base's range",
			base: rounds("BenchmarkTrackerChurn", jitter...),
			next: rounds("BenchmarkTrackerChurn", jittered...),
			want: map[string]string{"BenchmarkTrackerChurn-2": "ok"},
		},
		{
			name: "20 % slower on a tight row",
			base: rounds("BenchmarkResourceAcquire", tight...),
			next: rounds("BenchmarkResourceAcquire", scaled(tight, 1.2, 0, 0)...),
			want: map[string]string{"BenchmarkResourceAcquire-2": "FAIL"},
		},
		{
			name: "20 % slower on a tight row in only 4 of 5 rounds",
			base: rounds("BenchmarkResourceAcquire", tight...),
			next: rounds("BenchmarkResourceAcquire", append(scaled(tight[:4], 1.2, 0, 0), tight[4])...),
			want: map[string]string{"BenchmarkResourceAcquire-2": "ok"},
		},
		{
			name: "20 % slower on a row with 40 % base spread",
			base: rounds("BenchmarkWide", wide...),
			next: rounds("BenchmarkWide", scaled(wide, 1.2, 0, 0)...),
			want: map[string]string{"BenchmarkWide-2": "unresolved"},
		},
		{
			name: "faster in every round on a wide row",
			base: rounds("BenchmarkWide", wide...),
			next: rounds("BenchmarkWide", scaled(wide, 0.5, 0, 0)...),
			want: map[string]string{"BenchmarkWide-2": "ok"},
		},
		{
			name: "a row split into sub-benchmarks",
			base: rounds("BenchmarkCMT", tight...),
			next: rounds("BenchmarkCMT/8K-scan", tight...) +
				"BenchmarkBuild/64GB/DLOOP-2 \t 10\t 4300000 ns/op\t 16.0 hwm-MB\t 2000 B/op\t 30 allocs/op\n",
			want: map[string]string{
				"BenchmarkCMT-2":              "base only",
				"BenchmarkCMT/8K-scan-2":      "new only",
				"BenchmarkBuild/64GB/DLOOP-2": "new only",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows := judge(parse(header+tc.base+"PASS\n"), parse(header+tc.next+"PASS\n"))
			if len(rows) != len(tc.want) {
				t.Fatalf("got %d rows %v, want %d", len(rows), rows, len(tc.want))
			}
			for _, r := range rows {
				name := strings.TrimPrefix(r.name, "dloop/internal/sim.")
				if tc.want[name] != r.status {
					t.Errorf("%s: status %q, want %q (%s)", name, r.status, tc.want[name], strings.Join(r.notes, "; "))
				}
			}
		})
	}
}
