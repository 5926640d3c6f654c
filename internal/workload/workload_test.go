package workload

import (
	"math"
	"testing"
	"testing/quick"

	"dloop/internal/trace"
)

func TestProfilesValidate(t *testing.T) {
	for _, p := range All() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	if len(All()) != 5 {
		t.Errorf("want the paper's 5 workloads, got %d", len(All()))
	}
}

func TestByName(t *testing.T) {
	p, ok := ByName("Financial1")
	if !ok || p.Name != "Financial1" {
		t.Fatal("ByName(Financial1) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName should reject unknown names")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	base := Financial1()
	cases := []func(*Profile){
		func(p *Profile) { p.WriteRatio = 1.5 },
		func(p *Profile) { p.WriteRatio = -0.1 },
		func(p *Profile) { p.Sizes = nil },
		func(p *Profile) { p.Sizes = []SizeWeight{{Sectors: 0, Weight: 1}} },
		func(p *Profile) { p.Sizes = []SizeWeight{{Sectors: 8, Weight: 0}} },
		func(p *Profile) { // a size a Request's int32 cannot hold, in a footprint that fits it
			p.Sizes = []SizeWeight{{Sectors: math.MaxInt32 + 1, Weight: 1}}
			p.FootprintBytes = 1 << 41
		},
		func(p *Profile) { p.RatePerSec = 0 },
		func(p *Profile) { p.BurstProb = 1.0 },
		func(p *Profile) { p.SeqProb = -0.1 },
		func(p *Profile) { p.FootprintBytes = 512 },
		func(p *Profile) { p.AlignSectors = 0 },
	}
	for i, mutate := range cases {
		p := base
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p := Financial1().ScaleFootprint(0.01)
	a, err := Generate(p, 7, 500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, 7, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c, err := Generate(p, 8, 500)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestNextNMatchesNext verifies chunked generation is just a view of the
// same stream: arbitrary chunk boundaries must reproduce per-request Next.
func TestNextNMatchesNext(t *testing.T) {
	p := Financial1().ScaleFootprint(0.01)
	want, err := Generate(p, 7, 500)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]trace.Request, 64)
	var got []trace.Request
	for _, chunk := range []int{1, 7, 64, 3, 64, 64, 64, 64, 64, 64, 41} {
		n, err := g.NextN(buf[:chunk])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if len(got) != len(want) {
		t.Fatalf("generated %d requests, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestGeneratedStreamMatchesProfile(t *testing.T) {
	for _, p := range All() {
		p := p.ScaleFootprint(0.05)
		reqs, err := Generate(p, 42, 20000)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		s := trace.Summarize(reqs)

		if got := s.WriteRatio(); math.Abs(got-p.WriteRatio) > 0.02 {
			t.Errorf("%s: write ratio %.3f, want %.3f±0.02", p.Name, got, p.WriteRatio)
		}
		wantMean := p.MeanSizeSectors() * trace.SectorSize
		// Sequential continuation reuses the previous size draw, so allow a
		// modest tolerance.
		if got := s.MeanSizeBytes(); math.Abs(got-wantMean)/wantMean > 0.10 {
			t.Errorf("%s: mean size %.0f B, want ≈%.0f B", p.Name, got, wantMean)
		}
		if got := s.Rate(); math.Abs(got-p.RatePerSec)/p.RatePerSec > 0.15 {
			t.Errorf("%s: rate %.1f req/s, want ≈%.1f", p.Name, got, p.RatePerSec)
		}
		if s.MaxEnd*trace.SectorSize > p.FootprintBytes {
			t.Errorf("%s: footprint exceeded: %d > %d", p.Name, s.MaxEnd*trace.SectorSize, p.FootprintBytes)
		}
		// Arrivals non-decreasing.
		for i := 1; i < len(reqs); i++ {
			if reqs[i].Arrival < reqs[i-1].Arrival {
				t.Fatalf("%s: arrivals not monotone at %d", p.Name, i)
			}
		}
	}
}

func TestZipfLocalitySkew(t *testing.T) {
	// Financial1 (Zipf) should concentrate accesses far more than TPC-C
	// (uniform) on the same number of slots.
	count := func(p Profile) float64 {
		p = p.ScaleFootprint(0.01)
		reqs, err := Generate(p, 1, 10000)
		if err != nil {
			t.Fatal(err)
		}
		freq := map[int64]int{}
		for _, r := range reqs {
			freq[r.LBN]++
		}
		max := 0
		for _, c := range freq {
			if c > max {
				max = c
			}
		}
		return float64(max) / float64(len(reqs))
	}
	hot := count(Financial1())
	cold := count(TPCC())
	if hot < 4*cold {
		t.Errorf("Zipf workload hottest-address share %.4f should dwarf uniform %.4f", hot, cold)
	}
}

func TestSequentialRuns(t *testing.T) {
	p := Build().ScaleFootprint(0.05)
	reqs, err := Generate(p, 3, 5000)
	if err != nil {
		t.Fatal(err)
	}
	seq := 0
	for i := 1; i < len(reqs); i++ {
		if reqs[i].LBN == reqs[i-1].End() {
			seq++
		}
	}
	frac := float64(seq) / float64(len(reqs)-1)
	if math.Abs(frac-p.SeqProb) > 0.05 {
		t.Errorf("sequential fraction %.3f, want ≈%.2f", frac, p.SeqProb)
	}
}

func TestScaleFootprint(t *testing.T) {
	p := Financial1()
	q := p.ScaleFootprint(0.001)
	if q.FootprintBytes >= p.FootprintBytes {
		t.Fatal("ScaleFootprint did not shrink")
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	align := int64(p.AlignSectors) * trace.SectorSize
	if q.FootprintBytes%align != 0 {
		t.Fatalf("scaled footprint %d not aligned to %d", q.FootprintBytes, align)
	}
	// Scaling to nothing still leaves room for the largest request.
	tiny := p.ScaleFootprint(0)
	if err := tiny.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: every generated request is valid and within the footprint, for
// any profile and seed.
func TestGeneratorInvariantProperty(t *testing.T) {
	profiles := All()
	f := func(seed int64, pick uint8) bool {
		p := profiles[int(pick)%len(profiles)].ScaleFootprint(0.02)
		reqs, err := Generate(p, seed, 300)
		if err != nil {
			return false
		}
		for _, r := range reqs {
			if r.Validate() != nil {
				return false
			}
			if r.End()*trace.SectorSize > p.FootprintBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqWriteProfile(t *testing.T) {
	if err := SeqWrite().Validate(); err != nil {
		t.Fatal(err)
	}
	// SeqWrite is nearly all sequential continuations.
	reqs, err := Generate(SeqWrite().ScaleFootprint(0.05), 5, 2000)
	if err != nil {
		t.Fatal(err)
	}
	seq := 0
	for i := 1; i < len(reqs); i++ {
		if reqs[i].LBN == reqs[i-1].End() {
			seq++
		}
	}
	if frac := float64(seq) / float64(len(reqs)-1); frac < 0.95 {
		t.Errorf("SeqWrite sequential fraction %.3f, want > 0.95", frac)
	}
	// A write ratio of 0 issues no writes.
	reads := SeqWrite().ScaleFootprint(0.05)
	reads.WriteRatio = 0
	reqs, err = Generate(reads, 5, 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if r.Op != trace.OpRead {
			t.Fatal("write ratio 0 produced a write")
		}
	}
}

// MeanSizeSectors returns the expected request length under the profile's
// size distribution.
func (p Profile) MeanSizeSectors() float64 {
	var sum, w float64
	for _, s := range p.Sizes {
		sum += float64(s.Sectors) * s.Weight
		w += s.Weight
	}
	return sum / w
}
