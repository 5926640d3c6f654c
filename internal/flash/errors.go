package flash

import "errors"

// Sentinel errors returned by Device operations. They are wrapped with
// addressing context; test with errors.Is.
var (
	// ErrOutOfRange marks an address outside the device geometry.
	ErrOutOfRange = errors.New("address out of range")
	// ErrReadInvalid marks a read (or copy-back source) of a page that does
	// not hold valid data.
	ErrReadInvalid = errors.New("page not valid")
	// ErrWriteNotFree marks a program of a page that has already been
	// programmed since the last erase: the erase-before-write limitation.
	ErrWriteNotFree = errors.New("page not free")
	// ErrEraseValid marks an erase of a block that still holds live data.
	ErrEraseValid = errors.New("block still holds valid pages")
	// ErrCrossPlane marks a copy-back whose source and destination are on
	// different planes; the internal-data-move command cannot cross planes.
	ErrCrossPlane = errors.New("copy-back crosses planes")
	// ErrParity marks a copy-back whose source and destination in-block page
	// offsets differ in parity, violating the vendor restriction.
	ErrParity = errors.New("copy-back parity mismatch")
	// ErrRunShape marks a copy-back run whose source and destination lists
	// differ in length or do not each stay inside one block.
	ErrRunShape = errors.New("copy-back run leaves its block")
	// ErrTooManyPages marks a geometry with more pages than maxPages, the
	// page count whose every LPN a page word's data tag can hold.
	ErrTooManyPages = errors.New("geometry exceeds addressable pages")
	// ErrTagRange marks an OOB tag no page word can hold: neither a data
	// LPN up to maxDataTag nor TransTagBase plus up to maxTransTag.
	ErrTagRange = errors.New("tag outside the page word's domain")
	// ErrPageTag marks a decoded page whose state and tag contradict each
	// other: a valid page without a tag, or a free or invalid one with one.
	ErrPageTag = errors.New("page state and tag disagree")
	// ErrBlockTooLarge marks a geometry with more pages per block than a
	// block row's packed counts can hold (MaxPagesPerBlock).
	ErrBlockTooLarge = errors.New("too many pages per block")
	// ErrColumnMap marks a column (NewColumn) whose memory could not be
	// mapped: the address space or the system's overcommit limit is spent.
	ErrColumnMap = errors.New("column memory unavailable")
	// ErrUnmappable marks a decoded page number that is neither InvalidPPN
	// nor below maxPages, so no PPNMap can hold it.
	ErrUnmappable = errors.New("page number beyond any device")
)
