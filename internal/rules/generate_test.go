package rules

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/itemset"
)

// The threshold tables decodeLattice draws from: the defaults (zero), the
// disabled filters (negative), and values that cut through the tied
// metrics the small count pools produce.
var (
	latticeTxns       = []int{1, 1, 2, 3, 5, 10, 64, 1000}
	latticeLifts      = []float64{0, -1, -0.5, 0.5, 1, 1.5, 2, 4}
	latticeConfidence = []float64{0, -1, 0.25, 0.5, 0.9, 1}
	latticeSupports   = []float64{0, -1, 0.1, 0.5, 1}
	latticeWorkers    = []int{0, 1, 2, 4}
)

// latticeItems is the item universe of a decoded lattice; a generator mask
// picks its itemset from it. Only the first generator may be longer than
// latticeShortMax items, so one input costs at most one 12-itemset.
const (
	latticeItems    = 16
	latticeLongMax  = 12
	latticeShortMax = 8
)

// decodeLattice turns bytes into Generate's inputs. The header picks nTxns
// and the four options from the tables above, then a pool of 1–4 counts in
// [0, nTxns+1], a hole byte and a count salt. The rest are two-byte
// generator masks over latticeItems items: the lattice is every non-empty
// subset of every generator, so it is downward closed unless the hole
// byte drops some subsets. Each subset's count comes from the pool, so
// counts, and with them lift and support, tie heavily, zeros included.
// Missing bytes read as zero.
func decodeLattice(data []byte) ([]itemset.Frequent, int, Options) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := latticeTxns[next()%len(latticeTxns)]
	opts := Options{
		MinLift:       latticeLifts[next()%len(latticeLifts)],
		MinConfidence: latticeConfidence[next()%len(latticeConfidence)],
		MinSupport:    latticeSupports[next()%len(latticeSupports)],
		Workers:       latticeWorkers[next()%len(latticeWorkers)],
	}
	pool := make([]int, 1+next()%4)
	for i := range pool {
		pool[i] = next() % (n + 2)
	}
	hole, salt := next(), next()|1

	masks := map[uint32]bool{}
	for g := 0; len(data) >= 2; g++ {
		gen := uint32(binary.LittleEndian.Uint16(data))
		data = data[2:]
		limit := latticeShortMax
		if g == 0 {
			limit = latticeLongMax
		}
		for bits.OnesCount32(gen) > limit {
			gen &^= 1 << (31 - bits.LeadingZeros32(gen))
		}
		// Every non-empty subset of gen.
		for sub := gen; sub != 0; sub = (sub - 1) & gen {
			masks[sub] = true
		}
	}
	var fs []itemset.Frequent
	for m := range masks {
		if hole%4 == 0 && bits.OnesCount32(m) >= 2 && (int(m)+hole)%7 == 0 {
			continue
		}
		var s itemset.Set
		for i := 0; i < latticeItems; i++ {
			if m>>i&1 != 0 {
				s = append(s, itemset.Item(3*i))
			}
		}
		fs = append(fs, itemset.Frequent{Items: s, Count: pool[int(m)*salt%len(pool)]})
	}
	// The miner's order: by length, then by items.
	sort.Slice(fs, func(i, j int) bool {
		if len(fs[i].Items) != len(fs[j].Items) {
			return len(fs[i].Items) < len(fs[j].Items)
		}
		return compareSets(fs[i].Items, fs[j].Items) < 0
	})
	if hole&2 != 0 {
		for i, j := 0, len(fs)-1; i < j; i, j = i+1, j-1 {
			fs[i], fs[j] = fs[j], fs[i]
		}
	}
	return fs, n, opts
}

// latticeCase draws the bytes of one property case: a random header and
// one to four generators. One case in eight leads with a generator of
// 9–12 items, the longer ones rarer since a k-itemset's lattice has about
// 3^k splits; the rest stay at most latticeShortMax long.
func latticeCase(rng *rand.Rand) []byte {
	// nTxns, the four options and the count pool's size, then the pool,
	// the hole byte and the salt.
	data := make([]byte, 6, 32)
	rng.Read(data)
	pool := make([]byte, 1+int(data[5])%4+2)
	rng.Read(pool)
	data = append(data, pool...)
	gens := 1 + rng.Intn(4)
	for g := 0; g < gens; g++ {
		k := 1 + rng.Intn(latticeShortMax)
		if g == 0 && rng.Intn(8) == 0 {
			k = []int{9, 9, 9, 9, 9, 9, 10, 10, 10, 11, 11, 12}[rng.Intn(12)]
		}
		var mask uint16
		for _, i := range rng.Perm(latticeItems)[:k] {
			mask |= 1 << i
		}
		data = binary.LittleEndian.AppendUint16(data, mask)
	}
	return data
}

// checkGenerate requires Generate to equal the oracle on one input, and
// GenerateRefs to return Generate's rules with refs that name each of
// them. An empty result may be nil or empty: the oracle itself returns
// either, depending on its worker count.
func checkGenerate(t *testing.T, fs []itemset.Frequent, n int, opts Options) {
	t.Helper()
	got := Generate(fs, n, opts)
	want := generateOracle(fs, n, opts)
	checkRefs(t, fs, n, opts, got)
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		for i := 0; i < len(got) && i < len(want); i++ {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("n=%d opts=%+v: %d rules, oracle %d; first difference at %d:\n got %+v\nwant %+v",
					n, opts, len(got), len(want), i, got[i], want[i])
			}
		}
		t.Fatalf("n=%d opts=%+v: %d rules, oracle %d", n, opts, len(got), len(want))
	}
}

// checkRefs requires GenerateRefs to return want and refs in record
// order: each itemset's masks ascending, every rule named once, and each
// named rule's sides cut from its itemset by its mask.
func checkRefs(t *testing.T, fs []itemset.Frequent, n int, opts Options, want []Rule) {
	t.Helper()
	got, refs := GenerateRefs(fs, n, opts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("n=%d opts=%+v: GenerateRefs returned %d rules, Generate %d", n, opts, len(got), len(want))
	}
	if len(refs.Itemsets) != len(fs) || len(refs.Start) != len(fs)+1 || refs.Start[len(fs)] != int32(len(got)) ||
		len(refs.Mask) != len(got) || len(refs.Rule) != len(got) {
		t.Fatalf("n=%d opts=%+v: %d rules from %d itemsets carry refs of %d itemsets, starts %v, %d masks, %d positions",
			n, opts, len(got), len(fs), len(refs.Itemsets), refs.Start, len(refs.Mask), len(refs.Rule))
	}
	named := make([]bool, len(got))
	for i := range fs {
		items := refs.Itemsets[i].Items
		for k := refs.Start[i]; k < refs.Start[i+1]; k++ {
			if k > refs.Start[i] && refs.Mask[k] <= refs.Mask[k-1] {
				t.Fatalf("itemset %v: masks %b then %b, want ascending", items, refs.Mask[k-1], refs.Mask[k])
			}
			p := refs.Rule[k]
			if named[p] {
				t.Fatalf("rule %d named twice", p)
			}
			named[p] = true
			ante, cons := sides(make(itemset.Set, len(items)), items, refs.Mask[k])
			if !ante.Equal(got[p].Antecedent) || !cons.Equal(got[p].Consequent) {
				t.Fatalf("rule %d is %v ⇒ %v, its ref (%v, %b) names %v ⇒ %v",
					p, got[p].Antecedent, got[p].Consequent, items, refs.Mask[k], ante, cons)
			}
		}
	}
}

func TestGenerateMatchesOracleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	long, ones := 0, 0
	for c := 0; c < 500; c++ {
		fs, n, opts := decodeLattice(latticeCase(rng))
		for _, f := range fs {
			if len(f.Items) > 8 {
				long++
				break
			}
		}
		if n == 1 {
			ones++
		}
		checkGenerate(t, fs, n, opts)
	}
	if long < 40 || ones < 80 {
		t.Fatalf("coverage: %d cases with an itemset longer than 8, %d with nTxns 1; want 40 and 80", long, ones)
	}
}

// Hand-picked inputs seeding FuzzGenerate, whose seeds also run as part
// of the plain test suite.
var generateSeeds = [][]byte{
	// Empty input: the default thresholds and no itemsets.
	{},
	// One pair over nTxns 1 with every filter disabled.
	{0, 1, 1, 1, 1, 0, 1, 1, 1, 0x03, 0x00},
	// A 12-itemset over nTxns 1 whose subset counts are 0 or 1: zero
	// counts skip splits, and lift and support tie heavily.
	{1, 1, 1, 1, 2, 2, 0, 1, 1, 1, 1, 0xff, 0x0f},
	// Two overlapping 8-itemsets with holes: subsets missing from the list
	// skip their splits.
	{4, 1, 1, 1, 3, 3, 2, 5, 7, 4, 4, 3, 0xff, 0x00, 0x0f, 0xf0},
}

func FuzzGenerate(f *testing.F) {
	for _, seed := range generateSeeds {
		f.Add(seed)
	}
	rng := rand.New(rand.NewSource(20261018))
	for c := 0; c < 32; c++ {
		f.Add(latticeCase(rng))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fs, n, opts := decodeLattice(data)
		checkGenerate(t, fs, n, opts)
	})
}
