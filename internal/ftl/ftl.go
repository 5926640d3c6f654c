// Package ftl defines the flash-translation-layer interface the SSD
// controller drives, plus the machinery shared by page-mapping FTLs: the
// free-block pools, the SRAM cached mapping table (CMT, segmented LRU), the
// global translation directory (GTD), and the demand-paging of translation
// pages. The page-mapping schemes (DLOOP, DFTL, PureMap) are presets of the
// one FTL in subpackage pagemap; the hybrid FAST lives in fast.
package ftl

import (
	"fmt"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/obs"
	"dloop/internal/sim"
)

// LPN is a logical page number: the page-granular address space the FTL
// exports to the host.
type LPN int64

// FTL translates logical page operations into timed flash operations. The
// controller has already split host requests into single-page operations
// (the paper: DLOOP "always aligns each request on page boundary" and splits
// multi-page requests). Implementations are not safe for concurrent use.
type FTL interface {
	// Name identifies the scheme in reports ("DLOOP", "DFTL", "FAST").
	Name() string
	// ReadPage serves a one-page host read that becomes serviceable at
	// ready, returning its completion time. Reading a never-written page
	// completes immediately (the controller answers it with zeros).
	ReadPage(lpn LPN, ready sim.Time) (sim.Time, error)
	// WritePage serves a one-page host write (first write or update) that
	// becomes serviceable at ready, returning its completion time.
	WritePage(lpn LPN, ready sim.Time) (sim.Time, error)
	// Capacity returns the number of logical pages the FTL exports.
	Capacity() LPN
	// Counts returns the scheme's occurrence counters (CMT lookups,
	// translation traffic, collections, merges), each counted once where
	// it happens since the FTL was built or its state last decoded.
	// Entries a scheme has no use for stay zero.
	Counts() obs.Counts
	// EncodeState appends every piece of mutable FTL state (mapping tables,
	// CMT, free pools, GC trackers, log-block state) to a checkpoint.
	EncodeState(w *ckpt.Writer)
	// DecodeState overwrites that state, in place, with what EncodeState
	// wrote on an FTL of the same configuration. It records any error in r
	// and may leave the FTL partly overwritten, so a caller that sees one
	// must not run the FTL until a later DecodeState succeeds.
	DecodeState(r *ckpt.Reader)
	// Release frees the FTL's capacity-sized columns (flash.NewColumn) at
	// the end of its life, and is harmless when repeated. The FTL must not
	// be used afterwards. Its device is its owner's to release.
	Release()
}

// Observable is implemented by FTLs that can report internal activity (GC
// and merge spans, victims) through an observability recorder; what they
// count is in Counts, recorder or not. All FTLs in this repository
// implement it; the controller wires the recorder through this interface so
// new schemes opt in by adding one method.
type Observable interface {
	// SetRecorder attaches (or, with nil, detaches) the recorder.
	SetRecorder(r obs.Recorder)
}

// Stored-page tagging. The flash device records one OOB tag per physical
// page; FTLs use it to remember which logical content lives there so garbage
// collection can redirect mappings. Data pages store the LPN itself
// (non-negative); translation pages store an encoded translation-page number,
// biased by flash.TransTagBase, the bias the device's tag domain is built
// around.

// EncodeTrans tags a translation-page number for storage in a physical page.
func EncodeTrans(tvpn int64) int64 { return flash.TransTagBase + tvpn }

// IsTrans reports whether a stored tag names a translation page.
func IsTrans(stored int64) bool { return stored >= flash.TransTagBase }

// DecodeTrans recovers the translation-page number from a stored tag.
func DecodeTrans(stored int64) int64 { return stored - flash.TransTagBase }

// CheckLPN validates an LPN against an exported capacity.
func CheckLPN(lpn LPN, capacity LPN) error {
	if lpn < 0 || lpn >= capacity {
		return fmt.Errorf("ftl: lpn %d outside exported capacity %d", lpn, capacity)
	}
	return nil
}

// ExportedPages computes how many logical pages an FTL exports given the
// device geometry and the number of over-provisioned ("extra") blocks per
// plane, which are invisible to the user (§III.C).
func ExportedPages(geo flash.Geometry, extraPerPlane int) LPN {
	data := geo.BlocksPerPlane - extraPerPlane
	return LPN(int64(geo.Planes()) * int64(data) * int64(geo.PagesPerBlock))
}

// GCThreshold is the free-block count below which a pool triggers garbage
// collection: the paper's 3. No figure of the paper varies it.
const GCThreshold = 3

// ExtraBlocksPerPlane converts the paper's "percentage of extra blocks"
// (extra as a fraction of data blocks) into a per-plane block count, rounding
// up and keeping at least GCThreshold + 1 so collection always has room.
func ExtraBlocksPerPlane(blocksPerPlane int, extraPct float64) int {
	// blocksPerPlane = data + extra, extra = data*pct  =>  extra = total*pct/(1+pct)
	extra := int(float64(blocksPerPlane)*extraPct/(1+extraPct) + 0.999999)
	if min := GCThreshold + 1; extra < min {
		extra = min
	}
	if extra >= blocksPerPlane {
		extra = blocksPerPlane - 1
	}
	return extra
}
