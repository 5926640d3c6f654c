// Package translate is the scheme-agnostic demand-paged address-translation
// engine shared by the page-mapping FTLs (DLOOP, DFTL). It owns the pieces
// DFTL introduced and DLOOP reuses (§II.A, §III.D): the in-SRAM cached
// mapping table (CMT), the global translation directory (GTD) locating the
// on-flash translation pages, and the read-modify-write machinery that
// charges the flash traffic of CMT misses and dirty evictions — while each
// scheme supplies only placement (ftl.Placer) and invalidation bookkeeping
// (ftl.Tracker).
//
// Like the garbage-collection engine (internal/ftl/gc), the translation
// policy is pluggable and the default reproduces the pre-engine behavior
// bit-identically:
//
//   - slru (default): the segmented-LRU cache the seed code used — a
//     probationary segment for entries seen once and a protected segment for
//     entries hit again, victims from the probationary tail.
//   - learned: the slru cache plus a LearnedFTL-style learned index
//     (Wang et al.): piecewise-linear LPN→PPN segments trained at
//     translation-page write-back predict the physical location of regularly
//     placed ranges, and a correct prediction — verified against the page's
//     out-of-band logical tag — skips the translation-page read entirely.
//     GC relocations and random overwrites invalidate the covering segments.
package translate

import "fmt"

// Policy selects the translation engine's caching/lookup policy.
type Policy uint8

const (
	// PolicySLRU is the segmented-LRU cache, the seed behavior and default.
	PolicySLRU Policy = iota
	// PolicyLearned is slru plus the learned LPN→PPN index on the miss path.
	PolicyLearned
)

func (p Policy) String() string {
	switch p {
	case PolicySLRU:
		return "slru"
	case PolicyLearned:
		return "learned"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// DefaultPolicy is the policy used when none is named.
const DefaultPolicy = "slru"

// ParsePolicy returns the policy named name; the empty string selects the
// default (slru).
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "", "slru":
		return PolicySLRU, nil
	case "learned":
		return PolicyLearned, nil
	}
	return 0, fmt.Errorf("translate: unknown policy %q (have slru, learned)", name)
}
