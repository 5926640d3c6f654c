package workload

// The five profiles below reconstruct Table II of the paper. Sizes are in
// 512-byte sectors. Footprints are chosen so every workload fits the
// smallest evaluated SSD (4 GB) at high utilization — larger SSDs then delay
// garbage collection, reproducing the capacity trend of Fig. 8.

// Financial1 models the UMass/SPC OLTP trace: random, write-dominant
// (~77% writes), small requests (~3 KB), strong temporal locality.
func Financial1() Profile {
	return Profile{
		Name:       "Financial1",
		WriteRatio: 0.768,
		Sizes: []SizeWeight{
			{Sectors: 1, Weight: 0.20},
			{Sectors: 4, Weight: 0.30},
			{Sectors: 8, Weight: 0.40},
			{Sectors: 16, Weight: 0.10},
		},
		RatePerSec:     120,
		BurstProb:      0.35,
		FootprintBytes: 3200 << 20, // 3.2 GB
		ZipfS:          1.10,
		SeqProb:        0.05,
		AlignSectors:   8,
	}
}

// Financial2 models the UMass/SPC OLTP trace 2: random, read-dominant
// (~18% writes), ~2 KB requests, temporal locality.
func Financial2() Profile {
	return Profile{
		Name:       "Financial2",
		WriteRatio: 0.177,
		Sizes: []SizeWeight{
			{Sectors: 1, Weight: 0.30},
			{Sectors: 4, Weight: 0.40},
			{Sectors: 8, Weight: 0.30},
		},
		RatePerSec:     90,
		BurstProb:      0.30,
		FootprintBytes: 3000 << 20, // 3.0 GB
		ZipfS:          1.05,
		SeqProb:        0.05,
		AlignSectors:   8,
	}
}

// TPCC models the TPC-C SQL Server trace: very intensive, almost uniformly
// random 8 KB requests, mixed read/write.
func TPCC() Profile {
	return Profile{
		Name:       "TPC-C",
		WriteRatio: 0.65,
		Sizes: []SizeWeight{
			{Sectors: 16, Weight: 1.0},
		},
		RatePerSec:     1200,
		BurstProb:      0.50,
		FootprintBytes: 3400 << 20, // 3.4 GB
		ZipfS:          0,          // uniform
		SeqProb:        0,
		AlignSectors:   16,
	}
}

// Exchange models the Microsoft Exchange mail-server trace: bursty,
// write-heavy, larger requests (~12 KB), medium locality.
func Exchange() Profile {
	return Profile{
		Name:       "Exchange",
		WriteRatio: 0.70,
		Sizes: []SizeWeight{
			{Sectors: 8, Weight: 0.30},
			{Sectors: 16, Weight: 0.30},
			{Sectors: 32, Weight: 0.20},
			{Sectors: 64, Weight: 0.20},
		},
		RatePerSec:     300,
		BurstProb:      0.45,
		FootprintBytes: 2500 << 20, // 2.5 GB
		ZipfS:          1.02,
		SeqProb:        0.15,
		AlignSectors:   8,
	}
}

// Build models the Windows Build server trace: read-mostly compilation I/O
// with long sequential runs, ~8 KB requests.
func Build() Profile {
	return Profile{
		Name:       "Build",
		WriteRatio: 0.35,
		Sizes: []SizeWeight{
			{Sectors: 8, Weight: 0.40},
			{Sectors: 16, Weight: 0.40},
			{Sectors: 32, Weight: 0.20},
		},
		RatePerSec:     400,
		BurstProb:      0.40,
		FootprintBytes: 2000 << 20, // 2.0 GB
		ZipfS:          1.01,
		SeqProb:        0.50,
		AlignSectors:   8,
	}
}

// All returns the five paper workloads in the order the figures plot them.
func All() []Profile {
	return []Profile{Financial1(), Financial2(), TPCC(), Exchange(), Build()}
}

// ByName returns the named profile, or false if unknown. Matching is exact
// on the profile Name field.
func ByName(name string) (Profile, bool) {
	for _, p := range All() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Microbenchmark profiles: the four classic access patterns, useful for
// isolating FTL behaviours outside the five trace-derived workloads.

// SeqWrite returns a purely sequential write stream (switch-merge heaven
// for hybrid FTLs, stripe-parallel for DLOOP).
func SeqWrite() Profile {
	return Profile{
		Name:           "SeqWrite",
		WriteRatio:     1.0,
		Sizes:          []SizeWeight{{Sectors: 64, Weight: 1}},
		RatePerSec:     500,
		FootprintBytes: 2000 << 20,
		SeqProb:        0.99,
		AlignSectors:   64,
	}
}
