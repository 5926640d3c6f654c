package pagemap

import (
	"fmt"

	"dloop/internal/flash"
)

// Striping selects which hardware unit consecutive logical pages spread
// over first. Every policy is a static permutation of planes, so each LPN
// still lives on one fixed plane — updates stay on their original's plane
// and GC keeps its copy-back property — only the order in which a
// sequential run of LPNs visits planes changes.
//
// §II.C of the paper discusses the priority order of the parallelism
// levels (Hu et al. advocate channel > die > plane > chip; the paper argues
// plane first on cost grounds). The E8 ablation quantifies the difference:
// plane-order striping sends consecutive pages to planes that share chip
// buses, serializing their transfers, while channel-first striping spreads
// consecutive pages over independent channels.
type Striping string

// Striping policies.
const (
	// StripePlane is equation (1) verbatim: plane = LPN mod #planes, in
	// physical plane order (the paper's DLOOP).
	StripePlane Striping = "plane"
	// StripeDie interleaves consecutive LPNs across dies first.
	StripeDie Striping = "die"
	// StripeChip interleaves consecutive LPNs across chips first.
	StripeChip Striping = "chip"
	// StripeChannel interleaves consecutive LPNs across channels first.
	StripeChannel Striping = "channel"
)

// stripePermutation returns perm where perm[i] is the plane serving LPNs
// congruent to i modulo the plane count. Planes are grouped by the chosen
// unit and dealt round-robin across groups, so consecutive indices land on
// distinct units as long as there are units left to visit.
func stripePermutation(geo flash.Geometry, policy Striping) ([]int, error) {
	planes := geo.Planes()
	groupOf := func(plane int) int {
		switch policy {
		case StripePlane:
			return plane // every plane its own group: identity permutation
		case StripeDie:
			return geo.DieOfPlane(plane)
		case StripeChip:
			return geo.ChipOfPlane(plane)
		case StripeChannel:
			return geo.ChannelOfPlane(plane)
		default:
			return -1
		}
	}
	if groupOf(0) < 0 {
		return nil, fmt.Errorf("pagemap: unknown striping policy %q", policy)
	}
	groups := make(map[int][]int)
	var order []int
	for p := 0; p < planes; p++ {
		g := groupOf(p)
		if len(groups[g]) == 0 {
			order = append(order, g)
		}
		groups[g] = append(groups[g], p)
	}
	perm := make([]int, 0, planes)
	for round := 0; len(perm) < planes; round++ {
		for _, g := range order {
			if round < len(groups[g]) {
				perm = append(perm, groups[g][round])
			}
		}
	}
	return perm, nil
}
