// Package radix sorts int32 permutations by uint64 keys with a stable LSD
// radix sort, and maps float64 metrics to keys that sort them descending.
// The rule table's orders are built with it: rules.Generate ranks rules by
// lift, and the serving index pre-sorts them by support and confidence.
package radix

import "math"

// DescKey maps x to a key that ascends as x descends, so an ascending key
// sort is a descending sort of the metric. −0 ties with +0, as it does
// under >. x must not be NaN.
func DescKey(x float64) uint64 {
	if x == 0 {
		x = 0
	}
	b := math.Float64bits(x)
	if b>>63 == 1 {
		b = ^b
	} else {
		b |= 1 << 63
	}
	// b ascends with x; its complement ascends as x descends.
	return ^b
}

// Sort's digit width follows the input size. Seven-bit digits keep the
// per-call bucket work small for the ~50-rule keyword lists the serving
// path sorts per request; from wideFrom keys up, 11-bit digits take six
// passes instead of ten, which pays for their larger count tables on a
// full rule table; the two measure about even at wideFrom. Each width has
// its own copy of the sort so that its digit count and bucket mask stay
// constants the compiler folds.
const (
	narrowBits    = 7
	narrowBuckets = 1 << narrowBits
	narrowDigits  = (64 + narrowBits - 1) / narrowBits
	wideBits      = 11
	wideBuckets   = 1 << wideBits
	wideDigits    = (64 + wideBits - 1) / wideBits
	wideFrom      = 1024
)

// Sort sorts keys ascending by a stable LSD radix sort, carrying vals
// along, and returns both in that order: equal keys keep their input
// order. scratch must be as long as keys; keys, scratch and vals are
// clobbered, and the results may be the inputs or fresh slices. One pass
// counts every digit, and a digit all keys share is skipped.
func Sort(keys, scratch []uint64, vals []int32) ([]uint64, []int32) {
	switch n := len(keys); {
	case n < 2:
		return keys, vals
	case n < wideFrom:
		return sortNarrow(keys, scratch, vals)
	default:
		return sortWide(keys, scratch, vals)
	}
}

// sortNarrow is Sort with 7-bit digits.
func sortNarrow(keys, scratch []uint64, vals []int32) ([]uint64, []int32) {
	n := len(keys)
	var counts [narrowDigits][narrowBuckets]int32
	for _, k := range keys {
		for d := range counts {
			counts[d][k>>(narrowBits*d)&(narrowBuckets-1)]++
		}
	}
	src, srcV := keys, vals
	dst, dstV := scratch, []int32(nil)
	for d := range counts {
		c := &counts[d]
		shift := narrowBits * d
		if int(c[src[0]>>shift&(narrowBuckets-1)]) == n {
			continue
		}
		if dstV == nil {
			dstV = make([]int32, n)
		}
		sum := int32(0)
		for b, cnt := range c {
			c[b] = sum
			sum += cnt
		}
		for i, k := range src {
			b := k >> shift & (narrowBuckets - 1)
			dst[c[b]] = k
			dstV[c[b]] = srcV[i]
			c[b]++
		}
		src, dst = dst, src
		srcV, dstV = dstV, srcV
	}
	return src, srcV
}

// sortWide is Sort with 11-bit digits.
func sortWide(keys, scratch []uint64, vals []int32) ([]uint64, []int32) {
	n := len(keys)
	counts := new([wideDigits][wideBuckets]int32)
	for _, k := range keys {
		for d := range counts {
			counts[d][k>>(wideBits*d)&(wideBuckets-1)]++
		}
	}
	src, srcV := keys, vals
	dst, dstV := scratch, []int32(nil)
	for d := range counts {
		c := &counts[d]
		shift := wideBits * d
		if int(c[src[0]>>shift&(wideBuckets-1)]) == n {
			continue
		}
		if dstV == nil {
			dstV = make([]int32, n)
		}
		sum := int32(0)
		for b, cnt := range c {
			c[b] = sum
			sum += cnt
		}
		for i, k := range src {
			b := k >> shift & (wideBuckets - 1)
			dst[c[b]] = k
			dstV[c[b]] = srcV[i]
			c[b]++
		}
		src, dst = dst, src
		srcV, dstV = dstV, srcV
	}
	return src, srcV
}
