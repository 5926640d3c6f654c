package flash

import "testing"

// TestNewColumn checks both sizes of column, below and at the mapping
// threshold: each reads zero, holds what is written to it, and releases
// whole; releasing nil does nothing.
func TestNewColumn(t *testing.T) {
	for _, n := range []int64{3, columnMapMin} {
		c := NewColumn(n)
		if int64(len(c)) != n {
			t.Fatalf("NewColumn(%d) has %d entries", n, len(c))
		}
		for i, v := range c {
			if v != 0 {
				t.Fatalf("NewColumn(%d)[%d] = %d, want 0", n, i, v)
			}
		}
		c[0], c[n-1] = 7, 9
		if c[0] != 7 || c[n-1] != 9 {
			t.Fatalf("NewColumn(%d) lost a write", n)
		}
		FreeColumn(c)
	}
	FreeColumn(nil)
}

// TestDeviceReleaseDropsPages checks that a released device holds no page
// column, so a page operation on it panics with an index error instead of
// reading freed memory, and that a second Release does nothing.
func TestDeviceReleaseDropsPages(t *testing.T) {
	d, err := NewDevice(testGeometry(), DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	d.Release()
	d.Release()
	defer func() {
		if recover() == nil {
			t.Error("PageState on a released device did not panic")
		}
	}()
	d.PageState(0)
}
