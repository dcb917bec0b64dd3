package dirtytrack

import (
	"testing"
	"testing/quick"
)

func TestNewBitmapValidation(t *testing.T) {
	if _, err := NewBitmap(-1); err == nil {
		t.Error("negative size accepted")
	}
	bm, err := NewBitmap(0)
	if err != nil {
		t.Fatal(err)
	}
	if bm.Len() != 0 || bm.Count() != 0 {
		t.Error("empty bitmap not empty")
	}
}

func TestBitmapSetClearTest(t *testing.T) {
	bm, err := NewBitmap(130) // spans three words
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 63, 64, 127, 128, 129} {
		if bm.Test(i) {
			t.Errorf("page %d dirty at start", i)
		}
		bm.Set(i)
		if !bm.Test(i) {
			t.Errorf("page %d clean after Set", i)
		}
	}
	if bm.Count() != 6 {
		t.Errorf("Count = %d, want 6", bm.Count())
	}
	bm.Clear(64)
	if bm.Test(64) || bm.Count() != 5 {
		t.Error("Clear failed")
	}
}

func TestBitmapSetIdempotent(t *testing.T) {
	bm, _ := NewBitmap(10)
	bm.Set(3)
	bm.Set(3)
	if bm.Count() != 1 {
		t.Errorf("double Set counted twice: %d", bm.Count())
	}
}

func TestBitmapOutOfRangePanics(t *testing.T) {
	bm, _ := NewBitmap(10)
	for _, i := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("access to page %d did not panic", i)
				}
			}()
			bm.Test(i)
		}()
	}
}

func TestBitmapResetSetAll(t *testing.T) {
	bm, _ := NewBitmap(100)
	bm.SetAll()
	if bm.Count() != 100 {
		t.Errorf("SetAll count = %d", bm.Count())
	}
	bm.Reset()
	if bm.Count() != 0 {
		t.Errorf("Reset count = %d", bm.Count())
	}
}

func TestBitmapForEachSet(t *testing.T) {
	bm, _ := NewBitmap(200)
	want := []int{0, 1, 63, 64, 65, 128, 199}
	for _, i := range want {
		bm.Set(i)
	}
	var got []int
	bm.ForEachSet(func(p int) { got = append(got, p) })
	if len(got) != len(want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visited %v, want %v (order must be ascending)", got, want)
		}
	}
}

func TestBitmapClone(t *testing.T) {
	bm, _ := NewBitmap(10)
	bm.Set(5)
	c := bm.Clone()
	c.Set(6)
	if bm.Test(6) {
		t.Error("Clone shares storage")
	}
	if !c.Test(5) {
		t.Error("Clone lost bits")
	}
}

// Property: Count always equals the number of pages for which Test is true.
func TestBitmapCountConsistent(t *testing.T) {
	f := func(pages []uint8) bool {
		bm, err := NewBitmap(256)
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		for _, p := range pages {
			bm.Set(int(p))
			seen[int(p)] = true
		}
		if bm.Count() != len(seen) {
			return false
		}
		n := 0
		bm.ForEachSet(func(int) { n++ })
		return n == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
