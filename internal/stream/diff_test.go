package stream_test

import (
	"math"
	"math/bits"
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
// replaced, kept as its oracle: four map[string]bool tables over
// antecedent-key "=>" consequent-key strings. It lists the appeared rules
// by their positions in cur and the vanished ones in prev's order.
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
	for i, r := range cur {
		if !prevKeys[key(r)] {
			d.Appeared = append(d.Appeared, int32(i))
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

// viewLifts and viewTxns are the thresholds and database sizes
// decodeViews draws from: the default lift (zero), the filter disabled
// (negative), and values that cut through the pooled counts' lifts.
var (
	viewLifts = []float64{0, -1, 0.5, 1, 1.5, 2}
	viewTxns  = []int{1, 3, 10, 64, 1000}
)

// viewItems is the item universe of a decoded pair. Only a pair's first
// generator may be longer than viewShortMax items, so an input costs at
// most one 9-itemset (about 20k splits) per view.
const (
	viewItems    = 12
	viewLongMax  = 9
	viewShortMax = 6
)

// decodeViews turns bytes into two consecutive mined views over one item
// universe, as TestGenerateMatchesOracleRandomized draws its lattices. The
// header picks nTxns, the lift threshold, a pool of 1–4 counts, a salt and
// a drift byte; each further 3 bytes are a generator: a side byte (bit 0
// puts it in prev, bit 1 in cur, neither means both) and a 2-byte item
// mask. A view's lattice is every non-empty subset of its generators, in
// a side-specific order, so one itemset sits at different indices in the
// two lists. A subset's count comes from the pool; cur shifts it for the
// subsets the drift byte picks, so some shared splits change lift and
// cross the threshold while others keep theirs. Missing bytes read as
// zero. Each view carries the refs rules.GenerateRefs returns.
func decodeViews(data []byte) (prev, cur *stream.View) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := viewTxns[next()%len(viewTxns)]
	opts := rules.Options{MinLift: viewLifts[next()%len(viewLifts)]}
	pool := make([]int, 1+next()%4)
	for i := range pool {
		pool[i] = 1 + next()%(n+1)
	}
	salt, drift := next()|1, next()|1
	var masks [2]map[uint32]bool
	for side := range masks {
		masks[side] = map[uint32]bool{}
	}
	for g := 0; len(data) >= 3; g++ {
		sides := data[0] & 3
		gen := uint32(data[1]) | uint32(data[2])<<8
		data = data[3:]
		gen &= 1<<viewItems - 1
		limit := viewShortMax
		if g == 0 {
			limit = viewLongMax
		}
		for bits.OnesCount32(gen) > limit {
			gen &^= 1 << (31 - bits.LeadingZeros32(gen))
		}
		for side := range masks {
			if sides != 0 && sides&(1<<side) == 0 {
				continue
			}
			for sub := gen; sub != 0; sub = (sub - 1) & gen {
				masks[side][sub] = true
			}
		}
	}
	var views [2]*stream.View
	for side := range views {
		var fs []itemset.Frequent
		for m := range masks[side] {
			var s itemset.Set
			for i := 0; i < viewItems; i++ {
				if m>>i&1 != 0 {
					s = append(s, itemset.Item(3*i))
				}
			}
			c := int(m) * salt
			if side == 1 && (int(m)*drift)%5 == 0 {
				c++
			}
			fs = append(fs, itemset.Frequent{Items: s, Count: pool[c%len(pool)]})
		}
		// Map order is random: order prev by hash and cur the other way.
		sort.Slice(fs, func(i, j int) bool {
			return (fs[i].Items.Hash() < fs[j].Items.Hash()) == (side == 0)
		})
		rs, refs := rules.GenerateRefs(fs, n, opts)
		views[side] = &stream.View{Rules: rs, Refs: refs}
	}
	return views[0], views[1]
}

// viewsCase draws the bytes of one property case: a random header and one
// to five generators. One case in four leads with a generator of 7–9
// items, whose masks outgrow one byte; the rest stay at most viewShortMax
// long.
func viewsCase(rng *rand.Rand) []byte {
	data := make([]byte, 3, 16)
	rng.Read(data)
	pool := make([]byte, 1+int(data[2])%4+2)
	rng.Read(pool)
	data = append(data, pool...)
	gens := 1 + rng.Intn(5)
	for g := 0; g < gens; g++ {
		k := 1 + rng.Intn(viewShortMax)
		if g == 0 && rng.Intn(4) == 0 {
			k = 7 + rng.Intn(viewLongMax-6)
		}
		var mask uint16
		for _, i := range rng.Perm(viewItems)[:k] {
			mask |= 1 << i
		}
		data = append(data, byte(rng.Intn(4)), byte(mask), byte(mask>>8))
	}
	return data
}

// checkDiffViews fails t unless DiffViews equals Diff on the views' rule
// lists: the same positions, the same vanished rules in the same order,
// nil where Diff is nil, and the same Jaccard bits. A nil prev is a first
// publish. It returns the delta.
func checkDiffViews(t *testing.T, prev, cur *stream.View) stream.Delta {
	t.Helper()
	var prevRules []rules.Rule
	if prev != nil {
		prevRules = prev.Rules
	}
	got, want := stream.DiffViews(prev, cur), stream.Diff(prevRules, cur.Rules)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DiffViews differs from Diff (%d → %d rules):\n got %d appeared, %d vanished, Jaccard %v\nwant %d appeared, %d vanished, Jaccard %v",
			len(prevRules), len(cur.Rules), len(got.Appeared), len(got.Vanished), got.Jaccard,
			len(want.Appeared), len(want.Vanished), want.Jaccard)
	}
	if math.Float64bits(got.Jaccard) != math.Float64bits(want.Jaccard) {
		t.Fatalf("Jaccard bits %x, Diff %x", math.Float64bits(got.Jaccard), math.Float64bits(want.Jaccard))
	}
	return got
}

// withoutRefs is v as a hand-built view: its rules without their refs.
func withoutRefs(v *stream.View) *stream.View { return &stream.View{Rules: v.Rules} }

func TestDiffViewsMatchesDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(20261020))
	long, mixed := 0, 0
	for c := 0; c < 400; c++ {
		prev, cur := decodeViews(viewsCase(rng))
		for _, v := range []*stream.View{prev, cur} {
			if len(v.Refs.Rule) != len(v.Rules) || len(v.Refs.Mask) != len(v.Rules) {
				t.Fatalf("case %d: %d rules carry %d rule refs and %d masks", c, len(v.Rules), len(v.Refs.Rule), len(v.Refs.Mask))
			}
		}
		for _, r := range cur.Rules {
			if len(r.Antecedent)+len(r.Consequent) > 5 {
				long++
				break
			}
		}
		d := checkDiffViews(t, prev, cur)
		if len(d.Appeared) > 0 && len(d.Vanished) > 0 && d.Jaccard > 0 {
			mixed++
		}
		checkDiffViews(t, nil, cur)
		checkDiffViews(t, cur, prev)
		checkDiffViews(t, prev, prev)
		checkDiffViews(t, withoutRefs(prev), cur)
		checkDiffViews(t, prev, withoutRefs(cur))
	}
	if long < 60 || mixed < 40 {
		t.Fatalf("coverage: %d cases with a rule over more than 5 items, %d with rules appearing, vanishing and kept; want 60 and 40", long, mixed)
	}

	empty, mined := &stream.View{}, &stream.View{Rules: []rules.Rule{}}
	_, some := decodeViews([]byte{3, 0, 1, 1, 1, 1, 0, 0, 0x3f, 0})
	if len(some.Rules) == 0 {
		t.Fatal("the hand-picked pair mined no rules")
	}
	for _, pair := range [][2]*stream.View{{nil, empty}, {empty, empty}, {empty, mined}, {mined, some}, {some, empty}, {nil, some}} {
		checkDiffViews(t, pair[0], pair[1])
	}

	if testing.Short() {
		return
	}
	first, second, err := benchfix.PublishPoints()
	if err != nil {
		t.Fatal(err)
	}
	checkDiffViews(t, nil, first)
	d := checkDiffViews(t, first, second)
	if len(d.Appeared) == 0 || len(d.Vanished) == 0 {
		t.Fatalf("fixture pair: %d appeared, %d vanished; the pair no longer exercises both", len(d.Appeared), len(d.Vanished))
	}
}

func FuzzDiffViews(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 1, 1, 1, 0, 0, 0x3f, 0})
	rng := rand.New(rand.NewSource(20261020))
	for c := 0; c < 32; c++ {
		f.Add(viewsCase(rng))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prev, cur := decodeViews(data)
		checkDiffViews(t, prev, cur)
		checkDiffViews(t, nil, cur)
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

// The same publish pair and first publish through DiffViews, the form
// NewSnapshot runs: the views' itemsets hashed once, their rules compared
// by mask.
func BenchmarkDiffViews(b *testing.B) {
	prev, cur, err := benchfix.PublishPoints()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deltaSink = stream.DiffViews(prev, cur)
	}
}

func BenchmarkDiffViewsFirst(b *testing.B) {
	_, cur, err := benchfix.PublishPoints()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deltaSink = stream.DiffViews(nil, cur)
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
