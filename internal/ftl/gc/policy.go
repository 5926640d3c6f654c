// Package gc is the scheme-agnostic garbage-collection engine shared by the
// FTL schemes. It owns the collect loop — trigger evaluation, victim
// selection behind the VictimPolicy interface, valid-page relocation
// (intra-plane copy-back with the same-parity waste rule, or external
// read-transfer-write moves), and erase accounting — while each scheme
// supplies only a small callback surface (Scheme): its pool watermark, write
// points, and mapping redirection. The default policies reproduce the
// pre-engine scheme behavior bit-identically; the alternative victim
// policies (cost-benefit, and FIFO on a page-mapping scheme) plug in without
// touching scheme code.
package gc

import (
	"fmt"
	"math"

	"dloop/internal/flash"
)

// GlobalPlane selects device-wide candidate enumeration instead of one
// plane's.
const GlobalPlane = -1

// Candidate describes one garbage-collection victim candidate.
type Candidate struct {
	PB      flash.PlaneBlock
	Valid   int
	Invalid int
	// Age ranks candidates by how long ago they stopped taking writes:
	// larger is older. For tracker-backed candidates it counts block closes;
	// for log-block lists it is the reverse list position.
	Age int64
	// Key is a scheme-private handle identifying the candidate to its owner
	// (a log-list index for FAST). The engine and policies carry it through
	// untouched.
	Key int64
}

// Source enumerates the current victim candidates of one plane, or of the
// whole device when plane is GlobalPlane.
type Source interface {
	// MaxInvalid returns the candidate with the most invalid pages, with the
	// exact deterministic tie-breaking of the seed tracker (LIFO within an
	// invalid-count bucket; global scans planes in order keeping strict
	// improvements). ok is false when no candidate has an invalid page.
	MaxInvalid(plane int) (Candidate, bool)
	// ForEach visits candidates in a deterministic order; fn returns false
	// to stop early.
	ForEach(plane int, fn func(Candidate) bool)
}

// VictimPolicy ranks candidates and picks the next GC victim. Policies are
// stateless and deterministic: the same source contents always yield the
// same pick, which keeps whole simulations reproducible and lets
// checkpoint/fork skip policy state entirely.
type VictimPolicy interface {
	Name() string
	Pick(src Source, plane int) (Candidate, bool)
}

// Default policy names per scheme family. Page-mapping schemes historically
// collect greedily; the hybrid log schemes evict their oldest log block.
const (
	DefaultPagePolicy = "greedy"
	DefaultLogPolicy  = "fifo"
)

// ParsePolicy returns the victim policy named name; ppb is the device's
// pages-per-block, which cost-benefit needs to compute utilization.
func ParsePolicy(name string, ppb int) (VictimPolicy, error) {
	switch name {
	case "greedy":
		return greedy{}, nil
	case "costbenefit", "cost-benefit":
		return costBenefit{ppb: ppb}, nil
	case "fifo":
		return fifo{}, nil
	}
	return nil, fmt.Errorf("gc: unknown victim policy %q (have greedy, costbenefit, fifo)", name)
}

// greedy picks the candidate with the most invalid pages — the seed
// behavior of every page-mapping scheme. It delegates to the source's
// MaxInvalid so tracker-backed picks are bit-identical to the pre-engine
// code, including the tracker's internal max-count caching.
type greedy struct{}

func (greedy) Name() string { return "greedy" }

func (greedy) Pick(src Source, plane int) (Candidate, bool) { return src.MaxInvalid(plane) }

// costBenefit scores candidates by Kawaguchi's benefit/cost ratio,
// (1-u)/(2u) scaled by age: moving a page costs a read and a write (the 2u),
// and old cold blocks are better bets than hot ones that will reinvalidate
// soon. A fully-invalid candidate is an infinite-score free win.
type costBenefit struct{ ppb int }

func (costBenefit) Name() string { return "costbenefit" }

func (p costBenefit) Pick(src Source, plane int) (Candidate, bool) {
	var best Candidate
	var bestScore float64
	found := false
	src.ForEach(plane, func(c Candidate) bool {
		s := p.score(c)
		if !found || betterScored(s, c, bestScore, best) {
			found, best, bestScore = true, c, s
		}
		return true
	})
	return best, found
}

func (p costBenefit) score(c Candidate) float64 {
	if c.Valid == 0 {
		return math.Inf(1)
	}
	u := float64(c.Valid) / float64(p.ppb)
	return (1 - u) / (2 * u) * float64(c.Age+1)
}

// betterScored orders (score, candidate) pairs: higher score, then older,
// then lower plane, then lower block — a strict total order, so picks are
// deterministic.
func betterScored(s float64, c Candidate, bestScore float64, best Candidate) bool {
	if s != bestScore {
		return s > bestScore
	}
	return olderThan(c, best)
}

// olderThan is the deterministic age order: older first, ties toward lower
// plane then lower block.
func olderThan(c, best Candidate) bool {
	if c.Age != best.Age {
		return c.Age > best.Age
	}
	if c.PB.Plane != best.PB.Plane {
		return c.PB.Plane < best.PB.Plane
	}
	return c.PB.Block < best.PB.Block
}

// fifo picks the oldest candidate regardless of utilization — the seed
// eviction order of FAST's log (rwFull[0]).
type fifo struct{}

func (fifo) Name() string { return "fifo" }

func (fifo) Pick(src Source, plane int) (Candidate, bool) {
	var best Candidate
	found := false
	src.ForEach(plane, func(c Candidate) bool {
		if !found || olderThan(c, best) {
			found, best = true, c
		}
		return true
	})
	return best, found
}

// PickLogVictim selects a victim from an explicit log-block candidate list.
// Log-block eviction is mandatory — the scheme needs a free log slot — so
// when the policy finds nothing it likes (greedy with all-valid logs), the
// pick falls back to the oldest candidate. cands must be non-empty. Under
// fifo, the log schemes' default, that oldest-candidate scan is the whole
// pick and runs without the Source indirection, which allocates.
func PickLogVictim(p VictimPolicy, cands []Candidate) Candidate {
	if _, isFifo := p.(fifo); !isFifo {
		if c, ok := p.Pick(SliceSource(cands), GlobalPlane); ok {
			return c
		}
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if olderThan(c, best) {
			best = c
		}
	}
	return best
}
