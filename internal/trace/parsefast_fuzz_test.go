package trace

import (
	"math"
	"strconv"
	"testing"
)

// FuzzParseFast holds the allocation-free number parsers to the contract in
// parsefast.go: for every input, the value strconv returns (bit for bit, so
// -0 and NaN count) and the error text strconv would give.
func FuzzParseFast(f *testing.F) {
	for _, s := range []string{
		"0", "7", "0.25", "1234.5678",
		"123456789012345", "1234567890123456", "1.23456789012345", "1.234567890123456", // 15 / 16 significant digits
		"0.000000000000000000000001", "9999999999999999999999.5", // past the exact powers of ten
		"123456789012345678", "1234567890123456789", "-123456789012345678", "-1234567890123456789", // 18 / 19 digits
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"1.", ".5", ".", "+5", "-5", "-0", "+0", "-", "+", "", "00012", "1e5", "0x1p-2", "1_000",
		"inf", "NaN", "1..2", "1.2.3", " 1", "1 ", "١٢٣", "1\u00a0", "\xff", // non-ASCII: Arabic-Indic digits, a no-break space, a stray byte
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s := string(b)
		x, err := parseFloatBytes(b)
		wx, werr := strconv.ParseFloat(s, 64)
		if math.Float64bits(x) != math.Float64bits(wx) || errText(err) != errText(werr) {
			t.Fatalf("parseFloatBytes(%q) = %v (%#x), %v; strconv %v (%#x), %v",
				s, x, math.Float64bits(x), err, wx, math.Float64bits(wx), werr)
		}
		i, err := parseIntBytes(b)
		wi, werr := strconv.ParseInt(s, 10, 64)
		if i != wi || errText(err) != errText(werr) {
			t.Fatalf("parseIntBytes(%q) = %d, %v; strconv %d, %v", s, i, err, wi, werr)
		}
		n, err := parseAtoiBytes(b)
		wn, werr := strconv.Atoi(s)
		if n != wn || errText(err) != errText(werr) {
			t.Fatalf("parseAtoiBytes(%q) = %d, %v; strconv %d, %v", s, n, err, wn, werr)
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
