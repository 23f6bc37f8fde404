package itemset

// Index finds itemsets by value in a list of frequent itemsets: an
// open-addressed hash table keyed by Set.Hash, so a lookup allocates no
// string key. Slots hold 1-based positions in the list, 0 marks an empty
// slot, and the load factor is at most ½.
type Index struct {
	slots []int32
	mask  uint64
	fs    []Frequent
}

// NewIndex indexes the itemsets of fs at the positions keep accepts, or
// every one when keep is nil. The indexed itemsets must be distinct.
func NewIndex(fs []Frequent, keep func(i int) bool) *Index {
	n := len(fs)
	if keep != nil {
		n = 0
		for i := range fs {
			if keep(i) {
				n++
			}
		}
	}
	size := 1
	for size < 2*n+1 {
		size <<= 1
	}
	ix := &Index{slots: make([]int32, size), mask: uint64(size - 1), fs: fs}
	for i := range fs {
		if keep != nil && !keep(i) {
			continue
		}
		h := fs[i].Items.Hash() & ix.mask
		for ix.slots[h] != 0 {
			h = (h + 1) & ix.mask
		}
		ix.slots[h] = int32(i + 1)
	}
	return ix
}

// Find returns the position of s in the indexed list, or -1 when s is
// not indexed.
func (ix *Index) Find(s Set) int {
	for h := s.Hash() & ix.mask; ; h = (h + 1) & ix.mask {
		v := ix.slots[h]
		if v == 0 {
			return -1
		}
		if ix.fs[v-1].Items.Equal(s) {
			return int(v - 1)
		}
	}
}
