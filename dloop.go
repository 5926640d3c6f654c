// Package dloop is a simulator-backed reproduction of "DLOOP: A Flash
// Translation Layer Exploiting Plane-Level Parallelism" (Abdurrab, Xie,
// Wang; IPDPS 2013).
//
// It bundles a NAND flash SSD simulator (channels, packages, chips, dies,
// planes, the copy-back command and its same-parity rule, Table I timing),
// three flash translation layers (DLOOP, and the DFTL and FAST baselines),
// synthetic equivalents of the paper's five enterprise traces, and an
// experiment harness that regenerates every figure of the paper's
// evaluation.
//
// Quick start:
//
//	cfg := dloop.Config{CapacityGB: 8, FTL: dloop.SchemeDLOOP}
//	res, err := dloop.Simulate(cfg, dloop.Financial1(), 100_000, 42)
//	fmt.Printf("mean response: %.3f ms\n", res.MeanRespMs)
//
// For request-level control build an SSD and drive it yourself:
//
//	ssd, _ := dloop.New(cfg)
//	ssd.PreconditionBytes(3200 << 20)
//	rt, _ := ssd.Serve(dloop.Request{LBN: 0, Sectors: 8, Op: dloop.OpWrite})
//
// The figures of the paper are regenerated by the functions Fig8, Fig9,
// Fig10 (plus the ablations AblationCopyback, ParityReport, HotPlane), or
// from the command line via cmd/experiments.
package dloop

import (
	"fmt"
	"strconv"

	"dloop/internal/expt"
	"dloop/internal/flash"
	"dloop/internal/ssd"
	"dloop/internal/trace"
	"dloop/internal/workload"
)

// Config describes one simulated SSD (capacity, page size, extra blocks,
// FTL scheme, and overrides). See the field docs on the underlying type.
type Config = ssd.Config

// Result is the outcome of one simulation run: mean/percentile response
// times, SDRPP, flash traffic, GC/merge accounting, and wear dispersion.
type Result = ssd.Result

// SSD is a built simulator instance: device + FTL + controller.
type SSD = ssd.Controller

// Geometry is the physical shape of a device, for Config.Geometry overrides.
type Geometry = flash.Geometry

// Timing is the set of flash latency parameters, for Config.Timing overrides.
type Timing = flash.Timing

// Request is one host I/O in sectors (512 B).
type Request = trace.Request

// Profile parameterizes a synthetic workload.
type Profile = workload.Profile

// Options tunes the experiment harness (request count, seed, scale).
type Options = expt.Options

// SweepStats accumulates warm-up cache and fork-scheduler counters across a
// sweep; attach one via Options.Stats and render it with Summary.
type SweepStats = expt.SweepStats

// WarmupCache is the persistent, content-addressed warm-up checkpoint store
// behind Options.WarmupCache. Commands running single simulations use its
// LoadInto/Save to skip preconditioning across processes.
type WarmupCache = expt.WarmupCache

// Grid is a rendered figure: series sampled over a swept parameter.
type Grid = expt.Grid

// FTL scheme names for Config.FTL.
const (
	SchemeDLOOP = ssd.SchemeDLOOP
	SchemeDFTL  = ssd.SchemeDFTL
	SchemeFAST  = ssd.SchemeFAST
)

// AutoShards, as Config.FTLShards, runs one concurrent FTL shard per
// channel. It engages only on shapes of at least 8 channels; smaller shapes
// keep the single-FTL engine, which is faster there. Sharded completions
// fold in arrival order, so results stay bit-reproducible run to run.
const AutoShards = ssd.AutoShards

// Request directions.
const (
	OpRead  = trace.OpRead
	OpWrite = trace.OpWrite
)

// New builds a simulated SSD from a configuration.
func New(cfg Config) (*SSD, error) { return ssd.Build(cfg) }

// ParseShards parses an -ftl-shards flag value: "auto" selects one shard per
// channel (AutoShards), otherwise a non-negative count where 0 and 1 both
// mean the single-FTL engine.
func ParseShards(s string) (int, error) {
	if s == "auto" {
		return AutoShards, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid shard count %q (want a non-negative integer or 'auto')", s)
	}
	return n, nil
}

// Schemes lists the three FTLs in the order the paper's figures plot them.
func Schemes() []string { return ssd.Schemes() }

// DefaultTiming returns the paper's Table I latencies.
func DefaultTiming() Timing { return flash.DefaultTiming() }

// GeometryFor derives the paper's device shape for a capacity and page size.
func GeometryFor(capacityGB, pageSizeKB int, extraPct float64) (Geometry, error) {
	return ssd.GeometryFor(capacityGB, pageSizeKB, extraPct, 3)
}

// Simulate builds the configured SSD, preconditions it with the workload's
// footprint, replays `requests` synthetic requests, and returns the results.
func Simulate(cfg Config, p Profile, requests int, seed int64) (Result, error) {
	return expt.Run(cfg, p, requests, seed)
}

// Workloads returns the five paper traces' synthetic profiles.
func Workloads() []Profile { return workload.All() }

// WorkloadByName returns one of the five profiles by its Table II name.
func WorkloadByName(name string) (Profile, bool) { return workload.ByName(name) }

// Financial1 returns the synthetic UMass Financial1 profile (§V.A).
func Financial1() Profile { return workload.Financial1() }

// Financial2 returns the synthetic UMass Financial2 profile (§V.A).
func Financial2() Profile { return workload.Financial2() }

// TPCC returns the synthetic TPC-C profile (§V.A).
func TPCC() Profile { return workload.TPCC() }

// ExchangeWorkload returns the synthetic Microsoft Exchange profile (§V.A).
func ExchangeWorkload() Profile { return workload.Exchange() }

// BuildWorkload returns the synthetic Windows Build server profile (§V.A).
func BuildWorkload() Profile { return workload.Build() }

// GenerateTrace materializes n requests of a workload deterministically.
func GenerateTrace(p Profile, seed int64, n int) ([]Request, error) {
	return workload.Generate(p, seed, n)
}

// Fig8 regenerates the paper's capacity sweep (mean response time + SDRPP).
func Fig8(opt Options) (mrt, sdrpp *Grid, err error) { return expt.Fig8(opt) }

// Fig9 regenerates the paper's page-size sweep.
func Fig9(opt Options) (mrt, sdrpp *Grid, err error) { return expt.Fig9(opt) }

// Fig10 regenerates the paper's extra-blocks sweep.
func Fig10(opt Options) (mrt, sdrpp *Grid, err error) { return expt.Fig10(opt) }

// Headline derives the paper's §I improvement ratios from a Fig8 grid.
func Headline(mrt *Grid) *Grid { return expt.Headline(mrt) }

// AblationCopyback runs the E5 ablation (copy-back vs external GC moves).
func AblationCopyback(opt Options) (*Grid, error) { return expt.AblationCopyback(opt) }

// ParityReport runs the E6 parity-waste measurement.
func ParityReport(opt Options) (*Grid, error) { return expt.ParityReport(opt) }

// HotPlane runs the E7 hot-plane adaptive-GC extension experiment.
func HotPlane(opt Options) (*Grid, error) { return expt.HotPlane(opt) }

// ScaledGeometryFor shrinks the paper geometry for a capacity/page size by
// scale in (0,1], keeping plane count, channel layout, and capacity ratios.
// Examples and benchmarks use it to reach the garbage-collection-active
// regime in seconds instead of minutes.
func ScaledGeometryFor(capacityGB, pageSizeKB int, extraPct, scale float64) (Geometry, error) {
	return ssd.ScaledGeometryFor(capacityGB, pageSizeKB, extraPct, 3, scale)
}

// StripingStudy runs the E8 ablation comparing the hardware unit DLOOP
// stripes consecutive logical pages over (plane/die/chip/channel).
func StripingStudy(opt Options) (*Grid, error) { return expt.StripingStudy(opt) }

// GCPolicyStudy runs the E9 sweep of the unified GC engine's victim policy
// (default vs cost-benefit vs windowed-greedy) across the paper's three
// schemes, returning mean-response-time and relocation-volume grids.
func GCPolicyStudy(opt Options) (mrt, moves *Grid, err error) { return expt.GCPolicyStudy(opt) }

// GCPolicies lists the victim policies GCPolicyStudy sweeps ("" = each
// scheme's default).
func GCPolicies() []string { return expt.GCPolicies() }

// TranslateStudy runs the E10 sweep of the translation engine's policy (slru
// vs learned) across the demand-paged schemes at several SRAM cache sizes on
// a sequential workload, returning translation-read and mean-response-time
// grids.
func TranslateStudy(opt Options) (reads, mrt *Grid, err error) { return expt.TranslateStudy(opt) }

// TranslatePolicies lists the translation policies TranslateStudy compares.
func TranslatePolicies() []string { return expt.TranslatePolicies() }

// Recover simulates a power loss on an SSD: a fresh controller is rebuilt
// over the same flash device from the out-of-band page tags. Page-mapping
// schemes recover their exact tables; the hybrids reconstruct an equivalent
// data/log block assignment.
func Recover(s *SSD) (*SSD, error) { return s.Recover() }
