//go:build !unix || race

package flash

// mapColumn declines: every column comes from make on this build.
func mapColumn(int64) []uint32 { return nil }

func unmapColumn([]uint32) {}
