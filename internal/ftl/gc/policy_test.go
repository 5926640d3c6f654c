package gc

import (
	"strings"
	"testing"

	"dloop/internal/flash"
)

func pb(plane, block int) flash.PlaneBlock { return flash.PlaneBlock{Plane: plane, Block: block} }

func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"greedy", "costbenefit", "fifo"} {
		p, err := ParsePolicy(name, 64)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("ParsePolicy(%q).Name() = %q", name, p.Name())
		}
	}
	// The alias resolves to its canonical policy.
	if p, err := ParsePolicy("cost-benefit", 64); err != nil || p.Name() != "costbenefit" {
		t.Errorf("alias cost-benefit resolved to %v, %v; want costbenefit", p, err)
	}
	// Unknown names, the retired windowed-greedy policy among them, are
	// refused with an error that lists what is accepted.
	for _, name := range []string{"nope", "windowed", "windowed-greedy"} {
		_, err := ParsePolicy(name, 64)
		if err == nil {
			t.Errorf("ParsePolicy(%q) accepted", name)
			continue
		}
		for _, have := range []string{"greedy", "costbenefit", "fifo"} {
			if !strings.Contains(err.Error(), have) {
				t.Errorf("ParsePolicy(%q) error %q does not name %s", name, err, have)
			}
		}
	}
}

func TestGreedyPick(t *testing.T) {
	p, _ := ParsePolicy("greedy", 8)
	src := SliceSource{
		{PB: pb(0, 1), Valid: 6, Invalid: 2, Age: 3},
		{PB: pb(0, 2), Valid: 3, Invalid: 5, Age: 2},
		{PB: pb(1, 3), Valid: 3, Invalid: 5, Age: 1},
	}
	c, ok := p.Pick(src, GlobalPlane)
	if !ok || c.PB != pb(0, 2) {
		t.Fatalf("greedy picked %+v ok=%v, want block 0/2 (first max-invalid)", c, ok)
	}
	// Nothing invalid: greedy declines (the engine stops collecting).
	if _, ok := p.Pick(SliceSource{{PB: pb(0, 1), Valid: 8, Invalid: 0, Age: 9}}, GlobalPlane); ok {
		t.Fatal("greedy picked an all-valid candidate")
	}
}

func TestCostBenefitPick(t *testing.T) {
	p, _ := ParsePolicy("costbenefit", 8)
	// A fully-invalid block is a free win over everything else.
	src := SliceSource{
		{PB: pb(0, 1), Valid: 1, Invalid: 7, Age: 100},
		{PB: pb(0, 2), Valid: 0, Invalid: 8, Age: 0},
	}
	if c, ok := p.Pick(src, GlobalPlane); !ok || c.PB != pb(0, 2) {
		t.Fatalf("cost-benefit picked %+v, want the fully-invalid block", c)
	}
	// Age outweighs a small invalid-count edge: an old half-dirty block beats
	// a young slightly-dirtier one ((1-u)/(2u) * (Age+1)).
	src = SliceSource{
		{PB: pb(0, 1), Valid: 3, Invalid: 5, Age: 0}, // score (5/8)/(6/8) * 1 ≈ 0.83
		{PB: pb(0, 2), Valid: 4, Invalid: 4, Age: 3}, // score (4/8)/(8/8) * 4 = 2.0
	}
	if c, _ := p.Pick(src, GlobalPlane); c.PB != pb(0, 2) {
		t.Fatalf("cost-benefit picked %+v, want the older block", c)
	}
	// Exact score ties break toward the older candidate.
	src = SliceSource{
		{PB: pb(0, 1), Valid: 4, Invalid: 4, Age: 1},
		{PB: pb(0, 2), Valid: 4, Invalid: 4, Age: 2},
	}
	if c, _ := p.Pick(src, GlobalPlane); c.PB != pb(0, 2) {
		t.Fatalf("tie-break picked %+v, want the older block", c)
	}
}

func TestFifoPick(t *testing.T) {
	p, _ := ParsePolicy("fifo", 8)
	src := SliceSource{
		{PB: pb(0, 1), Valid: 1, Invalid: 7, Age: 2},
		{PB: pb(1, 2), Valid: 8, Invalid: 0, Age: 5}, // oldest wins even when fully valid
		{PB: pb(0, 3), Valid: 4, Invalid: 4, Age: 5}, // same age: lower plane wins
	}
	if c, _ := p.Pick(src, GlobalPlane); c.PB != pb(0, 3) {
		t.Fatalf("fifo picked %+v, want the oldest lowest-plane block", c)
	}
}

func TestPickLogVictimFallback(t *testing.T) {
	// Log eviction is mandatory: when greedy finds nothing invalid it must
	// fall back to the oldest candidate instead of declining.
	p, _ := ParsePolicy("greedy", 8)
	cands := []Candidate{
		{PB: pb(0, 1), Valid: 8, Invalid: 0, Age: 1, Key: 10},
		{PB: pb(0, 2), Valid: 8, Invalid: 0, Age: 4, Key: 20},
	}
	if c := PickLogVictim(p, cands); c.Key != 20 {
		t.Fatalf("fallback picked %+v, want the oldest (Key 20)", c)
	}
	// With garbage present the policy's own pick stands.
	cands[0].Invalid, cands[0].Valid = 3, 5
	if c := PickLogVictim(p, cands); c.Key != 10 {
		t.Fatalf("picked %+v, want greedy's choice (Key 10)", c)
	}
}

func TestSliceSourceMaxInvalid(t *testing.T) {
	src := SliceSource{
		{PB: pb(0, 1), Invalid: 2},
		{PB: pb(0, 2), Invalid: 5},
		{PB: pb(0, 3), Invalid: 5}, // tie: first listed wins
	}
	c, ok := src.MaxInvalid(GlobalPlane)
	if !ok || c.PB != pb(0, 2) {
		t.Fatalf("MaxInvalid = %+v ok=%v, want block 0/2", c, ok)
	}
	if _, ok := (SliceSource{{PB: pb(0, 1), Invalid: 0}}).MaxInvalid(GlobalPlane); ok {
		t.Fatal("MaxInvalid yielded an all-valid candidate")
	}
}
