package itemset

import "testing"

// Find returns each indexed itemset's position, and -1 for an itemset
// missing from the list or one the keep filter left out.
func TestIndexFind(t *testing.T) {
	fs := []Frequent{
		{Items: NewSet(1)}, {Items: NewSet(1, 2)}, {Items: NewSet(2)}, {Items: NewSet(1, 2, 3)}, {Items: Set{}},
	}
	all := NewIndex(fs, nil)
	odd := NewIndex(fs, func(i int) bool { return i%2 == 1 })
	for i, f := range fs {
		if got := all.Find(f.Items.Clone()); got != i {
			t.Errorf("Find(%v) = %d, want %d", f.Items, got, i)
		}
		want := -1
		if i%2 == 1 {
			want = i
		}
		if got := odd.Find(f.Items); got != want {
			t.Errorf("odd positions: Find(%v) = %d, want %d", f.Items, got, want)
		}
	}
	for _, s := range []Set{NewSet(3), NewSet(2, 3), NewSet(1, 2, 3, 4)} {
		if got := all.Find(s); got != -1 {
			t.Errorf("Find(%v) = %d, want -1", s, got)
		}
	}
	if got := NewIndex(nil, nil).Find(NewSet(1)); got != -1 {
		t.Errorf("empty index: Find = %d, want -1", got)
	}
}
