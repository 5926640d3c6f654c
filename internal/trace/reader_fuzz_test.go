package trace

import (
	"bytes"
	"strconv"
	"testing"
)

// FuzzTraceReaders feeds arbitrary bytes to both line readers. Neither may
// panic; every request either accepts passes Validate and comes back
// unchanged from an Arena built over it (an Arena holds 31-bit sizes);
// and on every ASCII DiskSim line the byte-wise parser agrees with the
// reference parseDiskSimLine, in value and in error text, and an accepted
// line's Sectors is its size column's value.
func FuzzTraceReaders(f *testing.F) {
	for _, s := range []string{
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
		"NaN 0 0 8 0\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, r := range []Reader{NewDiskSimReader(bytes.NewReader(data)), NewSPCReader(bytes.NewReader(data))} {
			var got []Request
			for {
				req, err := r.Next()
				if err != nil {
					break
				}
				if err := req.Validate(); err != nil {
					t.Fatalf("%T accepted %+v: %v", r, req, err)
				}
				got = append(got, req)
			}
			a, err := BuildArena(NewSliceReader(got))
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range got {
				if a.At(i) != want {
					t.Fatalf("%T: request %d is %+v in an Arena, %+v read", r, i, a.At(i), want)
				}
			}
		}
		var r DiskSimReader
		for _, line := range bytes.Split(data, []byte("\n")) {
			line = bytes.TrimSpace(line)
			if len(line) == 0 || line[0] == '#' || !asciiLine(line) {
				continue
			}
			got, err := r.parseLine(line)
			want, werr := parseDiskSimLine(string(line))
			if got != want || errText(err) != errText(werr) {
				t.Fatalf("line %q: fast %+v, %v; reference %+v, %v", line, got, err, want, werr)
			}
			// An accepted size is the size column's value, not a narrowing of it.
			if err != nil {
				continue
			}
			if size, _ := strconv.ParseInt(string(bytes.Fields(line)[3]), 10, 64); int64(got.Sectors) != size {
				t.Fatalf("line %q: %d sectors read from size %d", line, got.Sectors, size)
			}
		}
	})
}
