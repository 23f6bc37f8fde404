package stream_test

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/benchfix"
	"repro/internal/itemset"
	"repro/internal/rules"
	"repro/internal/stream"
)

// diffOracle is the string-keyed stream.Diff the hash-table version
// replaced, kept verbatim as its oracle: four map[string]bool tables over
// antecedent-key "=>" consequent-key strings.
func diffOracle(prev, cur []rules.Rule) stream.Delta {
	key := func(r rules.Rule) string { return r.Antecedent.Key() + "=>" + r.Consequent.Key() }
	prevKeys := make(map[string]bool, len(prev))
	for _, r := range prev {
		prevKeys[key(r)] = true
	}
	curKeys := make(map[string]bool, len(cur))
	for _, r := range cur {
		curKeys[key(r)] = true
	}
	var d stream.Delta
	for _, r := range cur {
		if !prevKeys[key(r)] {
			d.Appeared = append(d.Appeared, r)
		}
	}
	for _, r := range prev {
		if !curKeys[key(r)] {
			d.Vanished = append(d.Vanished, r)
		}
	}
	inter := 0
	for k := range curKeys {
		if prevKeys[k] {
			inter++
		}
	}
	union := len(prevKeys) + len(curKeys) - inter
	if union == 0 {
		d.Jaccard = 1
	} else {
		d.Jaccard = float64(inter) / float64(union)
	}
	sort.Slice(d.Appeared, func(i, j int) bool { return d.Appeared[i].Lift > d.Appeared[j].Lift })
	sort.Slice(d.Vanished, func(i, j int) bool { return d.Vanished[i].Lift > d.Vanished[j].Lift })
	return d
}

// checkDiff fails t unless stream.Diff and the oracle agree exactly on the
// pair: same rules in the same order, nil where the oracle is nil, and the
// same Jaccard bits.
func checkDiff(t *testing.T, prev, cur []rules.Rule) {
	t.Helper()
	got, want := stream.Diff(prev, cur), diffOracle(prev, cur)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Diff differs from oracle on prev=%v cur=%v:\n got %+v\nwant %+v", prev, cur, got, want)
	}
	if math.Float64bits(got.Jaccard) != math.Float64bits(want.Jaccard) {
		t.Fatalf("Jaccard bits %x, oracle %x", math.Float64bits(got.Jaccard), math.Float64bits(want.Jaccard))
	}
}

// sample draws n rules from pool with replacement: duplicates, permuted.
func sample(rng *rand.Rand, pool []rules.Rule, n int) []rules.Rule {
	if len(pool) == 0 {
		return nil
	}
	out := make([]rules.Rule, n)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

func TestDiffMatchesOracleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20260117))
	for c := 0; c < 400; c++ {
		pool := benchfix.RandomRules(rng, rng.Intn(40), 1+rng.Intn(12))
		prev := sample(rng, pool, rng.Intn(50))
		cur := sample(rng, pool, rng.Intn(50))
		switch c % 8 {
		case 0:
			prev = nil
		case 1:
			cur = []rules.Rule{}
		case 2:
			// The same rules in another order: nothing appears or vanishes.
			cur = append([]rules.Rule(nil), prev...)
			rng.Shuffle(len(cur), func(i, j int) { cur[i], cur[j] = cur[j], cur[i] })
		}
		checkDiff(t, prev, cur)
	}
}

// Hand-picked edge cases; each also seeds FuzzDiff through diffSeeds.
func TestDiffMatchesOracleEdges(t *testing.T) {
	for _, seed := range diffSeeds {
		prev, cur := decodeRules(seed)
		checkDiff(t, prev, cur)
	}
}

// decodeRules turns fuzz bytes into a pair of rule lists, three bytes per
// rule: the first picks the list (high bit), the lift (bits 0–2) and the
// support (bits 3–4); the next two are the antecedent and consequent as
// bitmasks over items 0–7. A trailing partial rule is ignored.
func decodeRules(data []byte) (prev, cur []rules.Rule) {
	set := func(mask byte) itemset.Set {
		var s itemset.Set
		for i := 0; i < 8; i++ {
			if mask&(1<<i) != 0 {
				s = append(s, itemset.Item(i))
			}
		}
		return s
	}
	for ; len(data) >= 3; data = data[3:] {
		r := rules.Rule{
			Antecedent: set(data[1]),
			Consequent: set(data[2]),
			Lift:       float64(data[0]&7) / 2,
			Support:    float64(data[0]>>3&3) / 4,
		}
		if data[0]&0x80 != 0 {
			cur = append(cur, r)
		} else {
			prev = append(prev, r)
		}
	}
	return prev, cur
}

var diffSeeds = [][]byte{
	nil,
	{0x00, 0x01, 0x02},                   // one rule, vanished
	{0x80, 0x01, 0x02},                   // one rule, appeared
	{0x01, 0x01, 0x02, 0x82, 0x01, 0x02}, // unchanged structure, lift drifted
	// Duplicates on both sides: counted once, every copy listed.
	{0x80, 0x01, 0x02, 0x80, 0x01, 0x02, 0x00, 0x04, 0x08, 0x00, 0x04, 0x08},
	// Rules sharing one side: same antecedent, same consequent, swapped.
	{0x00, 0x03, 0x04, 0x81, 0x03, 0x08, 0x02, 0x05, 0x04, 0x83, 0x04, 0x03},
	// The same itemset split two ways ({0} ⇒ {1,2} against {0,1} ⇒ {2}).
	{0x00, 0x01, 0x06, 0x80, 0x03, 0x04},
	// Permuted lists with tied lifts.
	{0x01, 0x01, 0x02, 0x01, 0x02, 0x04, 0x01, 0x04, 0x08, 0x81, 0x04, 0x08, 0x81, 0x01, 0x02, 0x81, 0x10, 0x20},
	// Empty sides.
	{0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x80, 0x00, 0x01},
}

func FuzzDiff(f *testing.F) {
	for _, seed := range diffSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prev, cur := decodeRules(data)
		checkDiff(t, prev, cur)
	})
}

// The publish-step diff on the shared fixture: the two consecutive
// publishes of a 5000-job PAI window (~145k rules each). The Oracle twin
// runs the string-keyed version it replaced, in the same process.
func BenchmarkDiff(b *testing.B)       { benchDiff(b, stream.Diff) }
func BenchmarkDiffOracle(b *testing.B) { benchDiff(b, diffOracle) }

// The first publish's diff on the shared fixture: Diff(nil, cur), where
// every one of the second publish's ~145k rules appears, as a cold start or
// a restart pays it.
func BenchmarkDiffFirst(b *testing.B) {
	_, cur, err := benchfix.PublishPoints()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deltaSink = stream.Diff(nil, cur.Rules)
	}
}

// deltaSink keeps the benchmarked result alive.
var deltaSink stream.Delta

func benchDiff(b *testing.B, diff func(prev, cur []rules.Rule) stream.Delta) {
	prev, cur, err := benchfix.PublishPoints()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deltaSink = diff(prev.Rules, cur.Rules)
	}
}
