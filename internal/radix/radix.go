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

// Sort takes 11-bit digits: six passes over the keys, each with a
// 2048-bucket count table, sized for the rule tables it orders (thousands
// to a hundred thousand keys). The digit width is a constant so that the
// digit count and bucket mask fold.
const (
	digitBits = 11
	buckets   = 1 << digitBits
	digits    = (64 + digitBits - 1) / digitBits
)

// Sort sorts keys ascending by a stable LSD radix sort, carrying vals
// along, and returns both in that order: equal keys keep their input
// order. scratch must be as long as keys; keys, scratch and vals are
// clobbered, and the results may be the inputs or fresh slices. One pass
// counts every digit, and a digit all keys share is skipped.
func Sort(keys, scratch []uint64, vals []int32) ([]uint64, []int32) {
	n := len(keys)
	if n < 2 {
		return keys, vals
	}
	counts := new([digits][buckets]int32)
	for _, k := range keys {
		for d := range counts {
			counts[d][k>>(digitBits*d)&(buckets-1)]++
		}
	}
	src, srcV := keys, vals
	dst, dstV := scratch, []int32(nil)
	for d := range counts {
		c := &counts[d]
		shift := digitBits * d
		if int(c[src[0]>>shift&(buckets-1)]) == n {
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
			b := k >> shift & (buckets - 1)
			dst[c[b]] = k
			dstV[c[b]] = srcV[i]
			c[b]++
		}
		src, dst = dst, src
		srcV, dstV = dstV, srcV
	}
	return src, srcV
}
