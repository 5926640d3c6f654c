package trace

import (
	"strconv"
	"testing"

	"dloop/internal/sim"
)

// FuzzParseFast holds the one-pass field scanners to the reference parsers'
// strconv calls, field by field: wherever scanUint takes a whole field its
// value is strconv.ParseUint's, and wherever scanArrival takes one, at the
// DiskSim (ms) or SPC (s) scale, it is the reference's float round trip,
// math.Round(ParseFloat * unit), to the nanosecond. A field either scanner
// refuses goes to the reference, which FuzzTraceReaders checks line by line.
func FuzzParseFast(f *testing.F) {
	for _, s := range []string{
		"0", "7", "0.25", "1234.5678",
		"123456789012345", "1234567890123456", "1.23456789012345", "1.234567890123456", // 15 / 16 significant digits
		"0.000000000000000000000001", "9999999999999999999999.5", // past the exact powers of ten
		"123456789012345678", "1234567890123456789", "-123456789012345678", "-1234567890123456789", // 18 / 19 digits
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"1.", ".5", ".", "+5", "-5", "-0", "+0", "-", "+", "", "00012", "1e5", "0x1p-2", "1_000",
		"inf", "NaN", "1..2", "1.2.3", " 1", "1 ", "١٢٣", "1\u00a0", "\xff", // non-ASCII: Arabic-Indic digits, a no-break space, a stray byte
		// Arrivals next to 2^51 ns at each scale, and 6/7 and 9/10 fraction digits.
		"2251799813.68524", "2251799813.68525", "2251799.81368524", "2251799.81368525",
		"0.0000009", "0.0000000009", "999999999999999",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s := string(b)
		if v, i := scanUint(b, 0); i == len(b) {
			if w, err := strconv.ParseUint(s, 10, 64); err != nil || v != w {
				t.Fatalf("scanUint(%q) = %d; strconv %d, %v", s, v, w, err)
			}
		}
		for _, unit := range []sim.Duration{sim.Millisecond, sim.Second} {
			scale := 6
			if unit == sim.Second {
				scale = 9
			}
			at, i := scanArrival(b, 0, scale)
			if i != len(b) {
				continue
			}
			v, err := strconv.ParseFloat(s, 64)
			want, werr := arrivalAt(v, unit)
			if err != nil || werr != nil || at != want {
				t.Fatalf("scanArrival(%q, %d) = %d; reference %d, %v, %v", s, scale, at, want, err, werr)
			}
		}
	})
}
