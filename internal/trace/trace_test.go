package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"dloop/internal/sim"
)

// ReadAll drains a Reader into a slice.
func ReadAll(r Reader) ([]Request, error) {
	var out []Request
	for {
		req, err := r.Next()
		if err != nil {
			if isEOF(err) {
				return out, nil
			}
			return out, err
		}
		out = append(out, req)
	}
}

func TestRequestValidate(t *testing.T) {
	good := Request{Arrival: 10, LBN: 5, Sectors: 8, Op: OpRead}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Request{
		{Arrival: -1, LBN: 0, Sectors: 1, Op: OpRead},
		{Arrival: 0, LBN: -2, Sectors: 1, Op: OpRead},
		{Arrival: 0, LBN: 0, Sectors: 0, Op: OpRead},
		{Arrival: 0, LBN: 0, Sectors: 1, Op: Op(9)},
		{Arrival: 0, LBN: maxSector - 7, Sectors: 8, Op: OpWrite},     // its byte address overflows
		{Arrival: 0, LBN: math.MaxInt64 - 1, Sectors: 8, Op: OpWrite}, // LBN+Sectors overflows
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, r)
		}
	}
}

// TestRequestSize pins the request record at 24 bytes: a trace held as a
// []Request (the benchmark's DiskSim set-up does) costs 24 B a request.
func TestRequestSize(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Request{}) = %d, want 24", got)
	}
}

// TestParsersRefuseWideSizes checks that every parser narrows a size to
// Request.Sectors only when an int32 holds it: MaxInt32 sectors is read
// as is, and a size past it or below one is refused with Validate's
// message, never wrapped (1<<32 + 8 and -(1<<32) + 8 would both narrow to
// 8). SPC sizes are bytes, so each row is written as the byte count
// sectors*512 - 511, which rounds up to exactly that many sectors.
func TestParsersRefuseWideSizes(t *testing.T) {
	for _, tc := range []struct {
		sectors int64
		want    string // error text; "" means accepted
	}{
		{math.MaxInt32, ""},
		{math.MaxInt32 + 1, "trace: size 2147483648 sectors exceeds 2147483647"},
		{1<<32 + 8, "trace: size 4294967304 sectors exceeds 2147483647"},
		{-(1 << 32) + 8, "trace: non-positive size -4294967288 sectors"},
	} {
		lines := map[string]string{
			"disksim":           fmt.Sprintf("1 0 64 %d 0", tc.sectors),
			"disksim reference": fmt.Sprintf("1 0 64 %d\u00a00", tc.sectors), // a multi-byte space picks parseDiskSimLine
			"spc":               fmt.Sprintf("0,64,%d,w,0.001", tc.sectors*SectorSize-(SectorSize-1)),
		}
		for name, line := range lines {
			var r Reader = NewDiskSimReader(strings.NewReader(line))
			if name == "spc" {
				r = NewSPCReader(strings.NewReader(line))
			}
			req, err := r.Next()
			if tc.want == "" {
				if err != nil || int64(req.Sectors) != tc.sectors {
					t.Errorf("%s %q: got %+v, %v; want %d sectors", name, line, req, err, tc.sectors)
				}
				continue
			}
			if err == nil || !strings.HasSuffix(err.Error(), ": "+tc.want) {
				t.Errorf("%s %q: got %+v, error %v; want %q", name, line, req, err, tc.want)
			}
		}
	}
}

func TestRequestValidateEdges(t *testing.T) {
	for _, r := range []Request{
		{LBN: 0, Sectors: math.MaxInt32, Op: OpWrite},
		{LBN: maxSector - 8, Sectors: 8, Op: OpRead},
	} {
		if err := r.Validate(); err != nil {
			t.Errorf("Validate rejected %+v: %v", r, err)
		}
	}
}

func TestRequestDerived(t *testing.T) {
	r := Request{LBN: 100, Sectors: 8}
	if r.Bytes() != 4096 {
		t.Errorf("Bytes = %d, want 4096", r.Bytes())
	}
	if r.End() != 108 {
		t.Errorf("End = %d, want 108", r.End())
	}
}

func TestSliceReader(t *testing.T) {
	reqs := []Request{
		{Arrival: 1, LBN: 0, Sectors: 1, Op: OpRead},
		{Arrival: 2, LBN: 8, Sectors: 2, Op: OpWrite},
	}
	got, err := ReadAll(NewSliceReader(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, reqs) {
		t.Fatalf("got %+v, want %+v", got, reqs)
	}
}

func TestDiskSimRoundTrip(t *testing.T) {
	reqs := []Request{
		{Arrival: sim.Time(1500 * sim.Microsecond), LBN: 1234, Sectors: 8, Op: OpRead},
		{Arrival: sim.Time(2 * sim.Millisecond), LBN: 99, Sectors: 1, Op: OpWrite},
	}
	var buf bytes.Buffer
	if err := WriteDiskSim(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(NewDiskSimReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, reqs) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, reqs)
	}
}

func TestDiskSimParsesCommentsAndBlank(t *testing.T) {
	in := "# header\n\n0.5 0 100 8 1\n"
	got, err := ReadAll(NewDiskSimReader(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Op != OpRead || got[0].LBN != 100 {
		t.Fatalf("got %+v", got)
	}
}

func TestDiskSimRejectsMalformed(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"1.0 0 100 8", "want 5 fields"},             // missing field
		{"x 0 100 8 0", "arrival"},                   // bad arrival
		{"1.0 0 y 8 0", "blkno"},                     // bad lbn
		{"1.0 0 100 z 0", "size"},                    // bad size
		{"1.0 0 100 8 gg", "flags"},                  // bad flags
		{"1.0 0 -5 8 0", "negative LBN"},             // negative lbn
		{"1.0 0 100 0 0", "non-positive size"},       // zero size
		{"1 0 64 4294967304 0", "exceeds"},           // would wrap to 8 sectors in an Arena
		{"1 0 9223372036854775000 8 0", "ends past"}, // byte address overflows
		{"NaN 0 0 8 0", "out of range"},              // float→int64 is implementation-defined
		{"Inf 0 0 8 0", "out of range"},
		{"-Inf 0 0 8 0", "out of range"},
		{"1e300 0 0 8 0", "out of range"},
		{"-9.3e12 0 0 8 0", "out of range"}, // below int64 nanoseconds
		{"-1 0 0 8 0", "negative arrival"},  // in range, rejected by Validate
		// A multi-byte space sends the line to the reference parser.
		{"NaN\u00a00 0 8 0", "out of range"},
		{"1 0 64 4294967304\u00a00", "exceeds"},
	} {
		_, err := ReadAll(NewDiskSimReader(strings.NewReader(tc.in)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("line %q: error %v, want one containing %q", tc.in, err, tc.want)
		}
	}
}

func TestSPCRoundTrip(t *testing.T) {
	reqs := []Request{
		{Arrival: sim.Time(1 * sim.Second), LBN: 5000, Sectors: 8, Op: OpWrite},
		{Arrival: sim.Time(2 * sim.Second), LBN: 16, Sectors: 4, Op: OpRead},
	}
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, FormatSPC, NewSliceReader(reqs)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(NewSPCReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, reqs) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, reqs)
	}
}

func TestSPCSubSectorSizeRoundsUp(t *testing.T) {
	in := "0,100,100,r,0.5\n" // 100 bytes -> 1 sector
	got, err := ReadAll(NewSPCReader(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Sectors != 1 {
		t.Fatalf("Sectors = %d, want 1", got[0].Sectors)
	}
}

func TestSPCRejectsMalformed(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"0,100,512,x,0.5", "opcode"},                   // bad opcode
		{"0,a,512,r,0.5", "lba"},                        // bad lba
		{"0,100,b,r,0.5", "size"},                       // bad size
		{"0,100,512,r,c", "timestamp"},                  // bad timestamp
		{"0,100,512", "want at least 5 fields"},         // short line
		{"0,100,2199023256064,r,0.5", "exceeds"},        // 2^32+… sectors would wrap in an Arena
		{"0,18014398509481980,4096,r,0.5", "ends past"}, // byte address overflows
		{"0,100,512,r,NaN", "out of range"},             // float→int64 is implementation-defined
		{"0,100,512,r,+Inf", "out of range"},
		{"0,100,512,r,1e10", "out of range"},  // beyond int64 nanoseconds
		{"0,100,-1,w,1", "non-positive size"}, // once rounded up to one sector
		{"0,100,-1000,w,1", "non-positive size"},
	} {
		_, err := ReadAll(NewSPCReader(strings.NewReader(tc.in)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("line %q: error %v, want one containing %q", tc.in, err, tc.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	reqs := []Request{
		{Arrival: sim.Time(1 * sim.Second), LBN: 0, Sectors: 8, Op: OpWrite},
		{Arrival: sim.Time(60 * sim.Second), LBN: 100, Sectors: 4, Op: OpRead},
		{Arrival: sim.Time(120 * sim.Second), LBN: 50, Sectors: 2, Op: OpWrite},
	}
	s := Summarize(reqs)
	if s.Reads != 1 || s.Writes != 2 {
		t.Errorf("reads=%d writes=%d", s.Reads, s.Writes)
	}
	if s.Requests() != 3 {
		t.Errorf("Requests = %d", s.Requests())
	}
	if got := s.WriteRatio(); got < 0.66 || got > 0.67 {
		t.Errorf("WriteRatio = %v", got)
	}
	if s.MinLBN != 0 || s.MaxEnd != 104 {
		t.Errorf("footprint [%d,%d)", s.MinLBN, s.MaxEnd)
	}
	wantMean := float64(8+4+2) * SectorSize / 3
	if got := s.MeanSizeBytes(); got != wantMean {
		t.Errorf("MeanSizeBytes = %v, want %v", got, wantMean)
	}
	if got := s.Rate(); got != 3.0/120 {
		t.Errorf("Rate = %v, want %v", got, 3.0/120)
	}
	if Summarize(nil).Requests() != 0 {
		t.Error("empty summary")
	}
}

// Property: DiskSim format round-trips arbitrary valid requests.
func TestDiskSimRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reqs := make([]Request, 50)
		for i := range reqs {
			op := OpRead
			if rng.Intn(2) == 0 {
				op = OpWrite
			}
			reqs[i] = Request{
				// Keep arrivals on whole microseconds so the ms text format
				// (6 decimal places = ns resolution) is exact.
				Arrival: sim.Time(rng.Int63n(1e9)) * 1000,
				LBN:     rng.Int63n(1 << 32),
				Sectors: int32(rng.Intn(256) + 1),
				Op:      op,
			}
		}
		var buf bytes.Buffer
		if err := WriteDiskSim(&buf, reqs); err != nil {
			return false
		}
		got, err := ReadAll(NewDiskSimReader(&buf))
		return err == nil && reflect.DeepEqual(got, reqs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadAllPropagatesError(t *testing.T) {
	r := NewDiskSimReader(io.LimitReader(strings.NewReader("bogus line here"), 15))
	if _, err := ReadAll(r); err == nil {
		t.Fatal("expected parse error")
	}
}
