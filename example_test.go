package dloop_test

import (
	"fmt"
	"log"

	"dloop"
)

// ExampleSimulate builds a 4 GB SSD scaled to 1/20th of its blocks with
// each of the paper's three FTLs, replays the same synthetic Financial1
// workload, and compares the paper's two metrics. The footprint scales with
// the device, so utilization stays at Financial1's ~80 % and garbage
// collection is live. DLOOP should have the lowest mean response time and
// SDRPP: its garbage collection relocates pages with intra-plane copy-back
// (225 µs, no bus), while DFTL and FAST move pages through the serial bus
// and channel (325 µs each, blocking other requests).
func ExampleSimulate() {
	const scale = 0.05
	geo, err := dloop.ScaledGeometryFor(4, 2, 0.03, scale)
	if err != nil {
		log.Fatal(err)
	}
	profile := dloop.Financial1().ScaleFootprint(scale)
	const requests = 100_000
	const seed = 42

	fmt.Printf("workload: %s, %d requests, footprint %d MiB\n",
		profile.Name, requests, profile.FootprintBytes>>20)
	fmt.Printf("%-8s %14s %10s %12s %12s\n", "FTL", "mean resp (ms)", "SDRPP", "GC moves", "bus-free %")
	for _, scheme := range dloop.Schemes() {
		cfg := dloop.Config{
			FTL:        scheme,
			Geometry:   &geo,
			CMTEntries: 256, // scale the SRAM cache with the device
		}
		res, err := dloop.Simulate(cfg, profile, requests, seed)
		if err != nil {
			log.Fatal(err)
		}
		moves := res.GCCopyBacks + res.GCExternalMoves + res.MergeCopies
		busFree := 0.0
		if moves > 0 {
			busFree = 100 * float64(res.GCCopyBacks) / float64(moves)
		}
		fmt.Printf("%-8s %14.3f %10.2f %12d %11.1f%%\n",
			scheme, res.MeanRespMs, res.SDRPP, moves, busFree)
	}
	// Output:
	// workload: Financial1, 100000 requests, footprint 160 MiB
	// FTL      mean resp (ms)      SDRPP     GC moves   bus-free %
	// DLOOP             1.289       9.64       268662       100.0%
	// DFTL              1.667      10.84       124936         0.0%
	// FAST            117.594      12.04      4035182         0.0%
}

// ExampleGeometryFor shows the paper's capacity-derived device shapes.
func ExampleGeometryFor() {
	for _, gb := range []int{4, 64} {
		g, err := dloop.GeometryFor(gb, 2, 0.03)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d GB: %d channels, %d planes\n", gb, g.Channels, g.Planes())
	}
	// Output:
	// 4 GB: 2 channels, 16 planes
	// 64 GB: 8 channels, 256 planes
}

// ExampleDefaultTiming shows the §III.A latency identity the model is
// calibrated to: copy-back saves ~31% over an inter-plane move (the paper
// quotes 30.7%; the extra 0.7 points here are the command/address cycles
// the paper rounds away).
func ExampleDefaultTiming() {
	tm := dloop.DefaultTiming()
	cb := tm.CopyBack().Microseconds()
	inter := tm.InterPlaneCopy(2048).Microseconds()
	fmt.Printf("copy-back: %.0f µs\n", cb)
	fmt.Printf("saving: %.1f%%\n", 100*(1-cb/inter))
	// Output:
	// copy-back: 225 µs
	// saving: 31.4%
}

// ExampleGenerateTrace materializes a deterministic synthetic stream.
func ExampleGenerateTrace() {
	p := dloop.TPCC().ScaleFootprint(0.01)
	reqs, err := dloop.GenerateTrace(p, 7, 3)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range reqs {
		fmt.Printf("%s %d sectors at %d\n", r.Op, r.Sectors, r.LBN)
	}
	// Output:
	// read 16 sectors at 32816
	// read 16 sectors at 2864
	// write 16 sectors at 49152
}
