package flash

import "testing"

// TestFirstNonState checks the word-at-a-time page-state scan against the
// byte-by-byte definition: every byte value, at every position of a word
// and in the tail.
func TestFirstNonState(t *testing.T) {
	for n := 0; n <= 19; n++ {
		for pos := 0; pos < n; pos++ {
			for v := 0; v < 256; v++ {
				raw := make([]byte, n)
				for i := range raw {
					raw[i] = byte(i % 3)
				}
				raw[pos] = byte(v)
				want := -1
				if v > int(PageInvalid) {
					want = pos
				}
				if got := firstNonState(raw); got != want {
					t.Fatalf("len %d, byte %d at %d: got %d, want %d", n, v, pos, got, want)
				}
			}
		}
	}
}
