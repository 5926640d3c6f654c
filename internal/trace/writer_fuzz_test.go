package trace

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"dloop/internal/sim"
)

// fmtLine is the line the trace writers produced with fmt.Fprintf before
// they appended with strconv; the Writer must reproduce it byte for byte.
func fmtLine(format string, r Request) string {
	if format == FormatSPC {
		opc := "w"
		if r.Op == OpRead {
			opc = "r"
		}
		return fmt.Sprintf("0,%d,%d,%s,%.6f\n", r.LBN, r.Bytes(), opc, sim.Duration(r.Arrival).Seconds())
	}
	flags := 0
	if r.Op == OpRead {
		flags = 1
	}
	return fmt.Sprintf("%.6f 0 %d %d %d\n", sim.Duration(r.Arrival).Milliseconds(), r.LBN, r.Sectors, flags)
}

// FuzzWriteTrace holds both formats' Writer to the fmt.Fprintf lines it
// replaced, for any arrival, LBN, sector count and op — negative, huge and
// malformed values included, since the writers never validate.
func FuzzWriteTrace(f *testing.F) {
	for _, s := range []struct {
		arrival, lbn, sectors int64
		op                    uint8
	}{
		{0, 0, 1, 0}, {1500_000, 1234, 8, 1}, {1, 99, 1, 1}, {999_999_999_999, 1 << 40, 256, 0},
		{-1, -5, -8, 2}, {-1_500_000, 7, 0, 255},
		{math.MaxInt64, math.MaxInt64, math.MaxInt64, 1}, {math.MinInt64, math.MinInt64, math.MinInt64, 0},
		{499, 3, 4, 0}, {500, 3, 4, 0}, {1_000_000_500, 3, 4, 1}, // rounding at the sixth decimal
	} {
		f.Add(s.arrival, s.lbn, s.sectors, s.op)
	}
	f.Fuzz(func(t *testing.T, arrival, lbn, sectors int64, op uint8) {
		r := Request{Arrival: sim.Time(arrival), LBN: lbn, Sectors: int32(sectors), Op: Op(op)}
		for _, format := range []string{FormatDiskSim, FormatSPC} {
			var buf bytes.Buffer
			w, err := NewWriter(&buf, format)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if got, want := buf.String(), fmtLine(format, r); got != want {
				t.Fatalf("%s line for %+v = %q, want %q", format, r, got, want)
			}
		}
	})
}

// TestWritersMatchFmt checks whole traces: WriteDiskSim and WriteAll emit
// the fmt lines in order, and Writer.Stats equals Summarize.
func TestWritersMatchFmt(t *testing.T) {
	reqs := genRequests(2000, 17)
	for _, tc := range []struct {
		format string
		write  func(*bytes.Buffer, []Request) error
	}{
		{FormatDiskSim, func(b *bytes.Buffer, r []Request) error { return WriteDiskSim(b, r) }},
		{FormatSPC, func(b *bytes.Buffer, r []Request) error {
			_, err := WriteAll(b, FormatSPC, NewSliceReader(r))
			return err
		}},
	} {
		var got, want bytes.Buffer
		if err := tc.write(&got, reqs); err != nil {
			t.Fatal(err)
		}
		for _, r := range reqs {
			want.WriteString(fmtLine(tc.format, r))
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s output differs from the fmt lines", tc.format)
		}
		w, _ := NewWriter(&bytes.Buffer{}, tc.format)
		for _, r := range reqs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if w.Stats() != Summarize(reqs) {
			t.Fatalf("%s Writer.Stats %+v, want %+v", tc.format, w.Stats(), Summarize(reqs))
		}
	}
	if _, err := NewWriter(&bytes.Buffer{}, "csv"); err == nil {
		t.Fatal("NewWriter accepted an unknown format")
	}
}
