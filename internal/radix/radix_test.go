package radix

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkSort sorts keys with Sort and requires the stable order
// slices.SortStableFunc gives the same (key, position) pairs.
func checkSort(t *testing.T, name string, keys []uint64) {
	t.Helper()
	n := len(keys)
	type pair struct {
		key uint64
		val int32
	}
	want := make([]pair, n)
	vals := make([]int32, n)
	for i, k := range keys {
		want[i] = pair{k, int32(i)}
		vals[i] = int32(i)
	}
	slices.SortStableFunc(want, func(a, b pair) int { return cmp.Compare(a.key, b.key) })
	in := slices.Clone(keys)
	gotKeys, gotVals := Sort(in, make([]uint64, n), vals)
	if len(gotKeys) != n || len(gotVals) != n {
		t.Fatalf("%s (n=%d): got %d keys and %d vals", name, n, len(gotKeys), len(gotVals))
	}
	for i, w := range want {
		if gotKeys[i] != w.key || gotVals[i] != w.val {
			t.Fatalf("%s (n=%d): position %d holds (%#x, %d), want (%#x, %d)", name, n, i, gotKeys[i], gotVals[i], w.key, w.val)
		}
	}
}

// TestSortMatchesStableSort covers sizes from empty to a few thousand keys.
func TestSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 2, 3, 50, 127, 1000, 1023, 1024, 1025, 3072}
	gens := map[string]func(i int) uint64{
		// Full-width keys: every digit varies.
		"random": func(int) uint64 { return rng.Uint64() },
		// Few distinct values: long runs of ties test stability.
		"ties":      func(int) uint64 { return uint64(rng.Intn(5)) << 40 },
		"all equal": func(int) uint64 { return 0xdeadbeefcafef00d },
		// Only the top and bottom bits vary: every middle digit is shared
		// and skipped.
		"skipped digits": func(int) uint64 { return uint64(rng.Intn(3))<<62 | uint64(rng.Intn(4)) },
		// Descending keys of real metrics, ±0 and repeats included.
		"desc floats": func(i int) uint64 {
			return DescKey([]float64{0, math.Copysign(0, -1), 1.5, -2, rng.Float64(), 1e300}[i%6])
		},
		"reversed": func(i int) uint64 { return math.MaxUint64 - uint64(i) },
		// One key differs in one digit: that digit must not be skipped.
		"one differs": func(i int) uint64 {
			if i == 1 {
				return 1 << 50
			}
			return 1 << 3
		},
	}
	for name, gen := range gens {
		for _, n := range sizes {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = gen(i)
			}
			checkSort(t, name, keys)
		}
	}
}

func TestDescKeyOrder(t *testing.T) {
	xs := []float64{math.Inf(1), 1e300, 2, 1, 0.5, 0, math.Copysign(0, -1), -0.5, -1, -1e300, math.Inf(-1)}
	for i := 1; i < len(xs); i++ {
		a, b := DescKey(xs[i-1]), DescKey(xs[i])
		if xs[i-1] == xs[i] {
			if a != b {
				t.Errorf("DescKey(%v) != DescKey(%v) although they are equal", xs[i-1], xs[i])
			}
		} else if a >= b {
			t.Errorf("DescKey(%v) = %#x does not sort before DescKey(%v) = %#x", xs[i-1], a, xs[i], b)
		}
	}
}

func benchSort(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	src := make([]uint64, n)
	for i := range src {
		src[i] = DescKey(rng.Float64() * 10)
	}
	keys, scratch, vals := make([]uint64, n), make([]uint64, n), make([]int32, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(keys, src)
		for j := range vals {
			vals[j] = int32(j)
		}
		Sort(keys, scratch, vals)
	}
}

// Sizes from a short list to a full rule table.
func BenchmarkSort50(b *testing.B)   { benchSort(b, 50) }
func BenchmarkSort512(b *testing.B)  { benchSort(b, 512) }
func BenchmarkSort2k(b *testing.B)   { benchSort(b, 2048) }
func BenchmarkSort140k(b *testing.B) { benchSort(b, 140000) }
