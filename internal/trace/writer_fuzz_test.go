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

// maxExactMillis is the first arrival the DiskSim writer hands to
// AppendFloat: 2^32 ms.
const maxExactMillis = 1 << 32 * 1e6

// FuzzWriteTrace holds both formats' Writer to the fmt.Fprintf lines it
// replaced, for any arrival, LBN, sector count and op — negative, huge and
// malformed values included, since the writers never validate. A request
// Validate accepts must also read back: its DiskSim line as exactly that
// request when the arrival is below 2^32 ms (past it the line holds the
// float's digits, which cannot name every nanosecond), and its SPC line as
// the reference parser reads it, with the same LBN, size and op if it reads.
func FuzzWriteTrace(f *testing.F) {
	for _, s := range []struct {
		arrival, lbn, sectors int64
		op                    uint8
	}{
		{0, 0, 1, 0}, {1500_000, 1234, 8, 1}, {1, 99, 1, 1}, {999_999_999_999, 1 << 40, 256, 0},
		{-1, -5, -8, 2}, {-1_500_000, 7, 0, 255},
		{math.MaxInt64, math.MaxInt64, math.MaxInt64, 1}, {math.MinInt64, math.MinInt64, math.MinInt64, 0},
		{499, 3, 4, 0}, {500, 3, 4, 0}, {1_000_000_500, 3, 4, 1}, // rounding at the sixth decimal
		// The DiskSim writer's integer range ends at 2^32 ms.
		{maxExactMillis - 1, 8, 8, 0}, {maxExactMillis, 8, 8, 1}, {maxExactMillis + 1, 8, 8, 1},
		// SPC: nanoseconds past the microsecond of 499, 500 (a tie) and 501,
		// at 1 s and next to the integer range's end, 2^20 s.
		{1_000_000_499, 8, 8, 0}, {1_000_000_501, 8, 8, 0}, {999_999_999_501, 8, 8, 0},
		{1<<20*1e9 - 501, 8, 8, 0}, {1<<20*1e9 - 500, 8, 8, 0}, {1<<20*1e9 - 499, 8, 8, 0},
		{1<<20*1e9 - 1, 8, 8, 1}, {1<<20*1e9 + 501, 8, 8, 1},
		// 16-digit DiskSim arrivals read back through the reference parser.
		{1e15 - 1, 8, 8, 0}, {1e15, 8, 8, 0}, {1<<51 - 1, 8, 8, 0}, {1<<51 + 1, 8, 8, 0},
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
			if r.Validate() != nil {
				continue
			}
			line := bytes.TrimSpace(buf.Bytes())
			var back Request
			if format == FormatDiskSim {
				back, err = NewDiskSimReader(&buf).Next()
				if r.Arrival < maxExactMillis && (back != r || err != nil) {
					t.Fatalf("%q read back as %+v, %v; want %+v", line, back, err, r)
				}
				continue
			}
			back, err = NewSPCReader(&buf).Next()
			want, werr := parseSPCLine(string(line))
			if back != want || errText(err) != errText(werr) || err == nil && (back.LBN != r.LBN || back.Sectors != r.Sectors || back.Op != r.Op) {
				t.Fatalf("%q read back as %+v, %v; reference %+v, %v; written %+v", line, back, err, want, werr, r)
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
