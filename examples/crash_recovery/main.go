// Crash recovery: run a DLOOP SSD under load, pull the plug, rebuild the
// controller from the out-of-band page tags (the spare-area logical
// addresses every NAND page carries), and verify the recovered device is
// byte-for-byte equivalent — then keep serving on it. The same OOB tags are
// what make the FTL's lazy GC mapping redirects safe (DESIGN.md §5b).
//
//	go run ./examples/crash_recovery
package main

import (
	"fmt"
	"log"

	"dloop"
)

func main() {
	const scale = 0.05
	geo, err := dloop.ScaledGeometryFor(4, 2, 0.03, scale)
	if err != nil {
		log.Fatal(err)
	}
	profile := dloop.TPCC().ScaleFootprint(scale)

	ssd, err := dloop.New(dloop.Config{FTL: dloop.SchemeDLOOP, Geometry: &geo, CMTEntries: 256})
	if err != nil {
		log.Fatal(err)
	}
	if err := ssd.PreconditionBytes(profile.FootprintBytes); err != nil {
		log.Fatal(err)
	}

	// Heavy random updates: garbage collection relocates pages constantly,
	// so the crash happens with plenty of lazily-redirected (stale on
	// flash, OOB-authoritative) mappings in flight.
	reqs, err := dloop.GenerateTrace(profile, 99, 60_000)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range reqs {
		if _, err := ssd.Serve(r); err != nil {
			log.Fatal(err)
		}
	}
	res := ssd.Result()
	fmt.Printf("before crash: %d requests served, %d GC runs, %d copy-backs\n",
		res.Requests, res.GCRuns, res.GCCopyBacks)

	// Power loss: every byte of SRAM (mapping table, GTD, CMT, pools, write
	// points) is gone. Only the flash array survives.
	recovered, err := dloop.Recover(ssd)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("recovered: mapping rebuilt from OOB spare-area tags")

	// Reads on the recovered device return the same physical pages; writes
	// (and the GC they trigger) keep working.
	post, err := dloop.GenerateTrace(profile, 100, 20_000)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range post {
		if _, err := recovered.Serve(r); err != nil {
			log.Fatal(err)
		}
	}
	res = recovered.Result()
	fmt.Printf("after recovery: %d more requests, mean %.3f ms, %d further GC runs\n",
		res.Requests, res.MeanRespMs, res.GCRuns)
	fmt.Println("(the mapping-consistency proof lives in the test suite:")
	fmt.Println(" internal/ftl/pagemap TestRecoveryRebuildsMapping compares every LPN)")
}
