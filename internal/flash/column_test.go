package flash

import (
	"errors"
	"testing"
)

// TestNewColumn checks both sizes of column, below and at the mapping
// threshold, for a narrow and a wide element: each reads zero, holds what is
// written to it, and releases whole; releasing nil does nothing. Every
// column made is counted live until it is released.
func TestNewColumn(t *testing.T) {
	live := LiveColumns()
	for _, n := range []int64{3, columnMapMin / 4} {
		c, err := NewColumn[uint32](n)
		if err != nil {
			t.Fatal(err)
		}
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
		w, err := NewColumn[uint64](n / 2)
		if err != nil {
			t.Fatal(err)
		}
		w[len(w)-1] = 1 << 40
		if got := LiveColumns() - live; got != 2 {
			t.Fatalf("%d columns live, want 2", got)
		}
		FreeColumn(c)
		FreeColumn(w)
	}
	FreeColumn[uint32](nil)
	if got := LiveColumns(); got != live {
		t.Fatalf("%d columns live after release, want %d", got, live)
	}
}

// TestColumnFault checks that an injected fault fails exactly the column it
// names with ErrColumnMap, and that a withdrawn one fails none.
func TestColumnFault(t *testing.T) {
	withdraw := FailColumnAfter(1)
	defer withdraw()
	c, err := NewColumn[int32](5)
	if err != nil {
		t.Fatalf("the first column failed: %v", err)
	}
	FreeColumn(c)
	if _, err := NewColumn[int32](5); !errors.Is(err, ErrColumnMap) {
		t.Fatalf("the second column: %v, want ErrColumnMap", err)
	}
	if c, err = NewColumn[int32](5); err != nil {
		t.Fatalf("a column after the fault fired: %v", err)
	}
	FreeColumn(c)
	FailColumnAfter(0)()
	if c, err = NewColumn[int32](5); err != nil {
		t.Fatalf("a column after the fault was withdrawn: %v", err)
	}
	FreeColumn(c)
}

// TestNewDeviceColumnFault fails each of NewDevice's columns in turn: the
// build must return ErrColumnMap and leave no column live.
func TestNewDeviceColumnFault(t *testing.T) {
	live := LiveColumns()
	for k := 0; ; k++ {
		withdraw := FailColumnAfter(k)
		d, err := NewDevice(testGeometry(), DefaultTiming())
		withdraw()
		if err == nil {
			if k != 3 {
				t.Fatalf("NewDevice survived a fault at column %d, want 3 columns", k)
			}
			d.Release()
			break
		}
		if !errors.Is(err, ErrColumnMap) {
			t.Fatalf("fault at column %d: %v, want ErrColumnMap", k, err)
		}
		if got := LiveColumns(); got != live {
			t.Fatalf("fault at column %d left %d columns live", k, got-live)
		}
	}
	if got := LiveColumns(); got != live {
		t.Fatalf("a released device left %d columns live", got-live)
	}
}

// TestDeviceReleaseDropsPages checks that a released device holds none of
// its columns (page words, block rows, erase counts), so a page or block
// operation on it panics with an index error instead of reading freed
// memory, and that a second Release does nothing.
func TestDeviceReleaseDropsPages(t *testing.T) {
	d, err := NewDevice(testGeometry(), DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	d.Release()
	d.Release()
	if d.pages != nil || d.blocks != nil || d.wear != nil || d.BlockErases() != nil {
		t.Fatal("a released device still holds a column")
	}
	for what, op := range map[string]func(){
		"PageState": func() { d.PageState(0) },
		"Block":     func() { d.Block(PlaneBlock{}) },
		"WritePage": func() { d.WritePage(0, 0, 0, CauseHost) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released device did not panic", what)
				}
			}()
			op()
		}()
	}
}
