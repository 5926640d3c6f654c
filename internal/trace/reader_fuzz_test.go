package trace

import (
	"bytes"
	"strconv"
	"testing"
)

// readerSeeds are lines at every bound of the one-pass readers: arrivals of
// 15 and 16 digits, 6 and 7 fraction digits (DiskSim, ms) and 9 and 10 (SPC,
// s), and arrivals whose nanoseconds lie next to 2^51 = 2251799813685248.
// 2^51 ± 1 needs 16 digits, so those lines take the reference parser; the
// closest 15-digit ones are 2^51 - 8 (the integer path) and 2^51 + 2 (not).
var readerSeeds = []string{
	"1.5 0 100 8 1\n# comment\n\n2 0 5 4 0x10\r\n",
	"0,100,512,W,0.25\n1,7,100,r,1.5,extra\n",
	"1 0 64 4294967304 0\n",
	"1 0 9223372036854775000 8 0\n",
	"NaN 0 0 8 0\n-Inf 0 0 8 0\n1e300 0 0 8 0\n",
	"0,100,512,r,NaN\n0,100,512,r,1e10\n",
	"0,100,2199023256064,r,0.5\n0,18014398509481980,4096,r,0.5\n",
	// Sizes at and past an int32 (TestParsersRefuseWideSizes' rows).
	"1 0 64 2147483647 0\n1 0 64 2147483648 0\n1 0 64 4294967304 0\n1 0 64 -4294967288 0\n",
	"1 0 64 2147483647\u00a00\n1 0 64 2147483648\u00a00\n1 0 64 4294967304\u00a00\n1 0 64 -4294967288\u00a00\n",
	"0,64,1099511626753,w,0.001\n0,64,1099511627265,w,0.001\n0,64,2199023259137,w,0.001\n0,64,-2199023251967,w,0.001\n",
	// DiskSim arrivals: 15 and 16 digits; 6 and 7 fraction digits; 2^51.
	"123456789.012345 0 8 8 0\n1234567890.123456 0 8 8 0\n999999999999999 0 8 8 1\n",
	"0.000001 0 8 8 0\n0.0000005 0 8 8 0\n0.0000009 0 8 8 0\n1.2345679 0 8 8 1\n",
	"2251799813.685247 0 8 8 0\n2251799813.685249 0 8 8 0\n2251799813.68524 0 8 8 0\n2251799813.68525 0 8 8 0\n",
	"2251799813 0 8 8 0\n2251799814 0 8 8 0\n1. 0 8 8 0\n.5 0 8 8 0\n. 0 8 8 0\n1.2.3 0 8 8 0\n",
	// Flags base 0 and blanks other than a space.
	"1 0 8 8 010\n1 0 8 8 08\n1 0 8 8 0b1\n1 0 8 8 1_1\n1\t0\t8\t8\t1\n1 0 8 8 1 \v\n1 0 8 8\v1\n",
	// SPC timestamps: 15 and 16 digits; 9 and 10 fraction digits; 2^51.
	"0,8,4096,r,123456.789012345\n0,8,4096,r,1234567.890123456\n0,8,4096,r,999999999999999\n",
	"0,8,512,w,0.000000001\n0,8,512,w,0.0000000005\n0,8,512,w,0.0000000009\n0,8,512,w,1.2345678905\n",
	"0,8,512,w,2251799.813685247\n0,8,512,w,2251799.813685249\n0,8,512,w,2251799.81368524\n0,8,512,w,2251799.81368525\n",
	// SPC fields: spaces, empty ASU, a size of 0 (one sector) and negative
	// sizes (refused).
	"0, 8,512,w,1\n,8,512,w,1\n0,8,0,w,1\n0,8,-1022,w,1\n0,8,-1023,w,1\n0,8,512,rw,1\n0,8,512,w,1,\n0,8,512,w,1 ,x\n",
	"0,8,-1,w,1\n0,8,-1000,w,1\n0,8,-512,r,1\n0,8,- 1,w,1\n",
}

// FuzzTraceReaders feeds arbitrary bytes to both line readers. Neither may
// panic; every request either accepts passes Validate and comes back
// unchanged from an Arena built over it (an Arena holds 31-bit sizes); on
// every line each format's one-pass parser agrees with its reference
// (parseDiskSimLine, parseSPCLine), in value and in error text; and an
// accepted DiskSim line's Sectors is its size column's value.
func FuzzTraceReaders(f *testing.F) {
	for _, s := range readerSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, r := range []*TextReader{NewDiskSimReader(bytes.NewReader(data)), NewSPCReader(bytes.NewReader(data))} {
			var got []Request
			for {
				req, err := r.Next()
				if err != nil {
					break
				}
				if err := req.Validate(); err != nil {
					t.Fatalf("%s reader accepted %+v: %v", r.format, req, err)
				}
				got = append(got, req)
			}
			a, err := BuildArena(NewSliceReader(got))
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range got {
				if a.At(i) != want {
					t.Fatalf("%s: request %d is %+v in an Arena, %+v read", r.format, i, a.At(i), want)
				}
			}
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			line = bytes.TrimSpace(line)
			if len(line) == 0 || line[0] == '#' {
				continue
			}
			checkParsers(t, line)
		}
	})
}

// checkParsers holds both formats' parsers to their references on one
// trimmed line.
func checkParsers(t *testing.T, line []byte) {
	t.Helper()
	got, err := parseDiskSim(line)
	want, werr := parseDiskSimLine(string(line))
	if got != want || errText(err) != errText(werr) {
		t.Fatalf("disksim line %q: one pass %+v, %v; reference %+v, %v", line, got, err, want, werr)
	}
	// An accepted size is the size column's value, not a narrowing of it.
	if err == nil {
		if size, _ := strconv.ParseInt(string(bytes.Fields(line)[3]), 10, 64); int64(got.Sectors) != size {
			t.Fatalf("line %q: %d sectors read from size %d", line, got.Sectors, size)
		}
	}
	got, err = parseSPC(line)
	want, werr = parseSPCLine(string(line))
	if got != want || errText(err) != errText(werr) {
		t.Fatalf("spc line %q: one pass %+v, %v; reference %+v, %v", line, got, err, want, werr)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
