// Package stream adapts the analysis workflow to live monitoring data, the
// extension the paper's related-work section sketches ("since our pruning
// techniques are applied after the rules are generated, we can integrate"
// streaming miners into the workflow). A Miner maintains a sliding window
// of the most recent transactions; snapshots mine the window with FP-Growth
// and successive snapshots can be diffed to surface rules that appeared or
// vanished — exactly what an operator dashboard needs to notice, say, a new
// failure association emerging after a driver rollout.
package stream

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fpgrowth"
	"repro/internal/itemset"
	"repro/internal/rules"
	"repro/internal/transaction"
)

// Thresholds resolves zero mining thresholds to the paper's settings:
// support 0.05, itemset length 5, lift 1.5. Capture applies it to every
// window that is mined, and internal/server and the batch pipeline in
// internal/core resolve their settings here too, so the defaults cannot
// drift apart.
func Thresholds(minSupport float64, maxLen int, minLift float64) (float64, int, float64) {
	if minSupport == 0 {
		minSupport = 0.05
	}
	if maxLen == 0 {
		maxLen = 5
	}
	if minLift == 0 {
		minLift = 1.5
	}
	return minSupport, maxLen, minLift
}

// MinCount is the absolute support threshold over n transactions:
// ceil(minSupport·n), clamped to at least 1.
func MinCount(minSupport float64, n int) int {
	return max(int(math.Ceil(minSupport*float64(n))), 1)
}

// Config sizes the window and fixes the mining thresholds.
type Config struct {
	// WindowSize is the number of most recent transactions retained.
	WindowSize int
	// MinSupport is the per-window support threshold; zero means 0.05.
	MinSupport float64
	// MaxLen caps itemset length; zero means 5.
	MaxLen int
	// MinLift filters generated rules; zero means 1.5.
	MinLift float64
	// Workers is ignored: mining and rule generation are serial. The field
	// stays only because perfbench still sets it.
	Workers int
}

// Miner is a sliding-window association rule miner. It is not safe for
// concurrent use: confine it to a single goroutine (internal/server wraps
// it behind exactly that — one writer loop fed by a channel) and publish
// immutable Views to readers instead of sharing the Miner itself.
type Miner struct {
	cfg     Config
	catalog *itemset.Catalog
	ring    []itemset.Set
	next    int
	filled  bool
	total   int
}

// New returns a Miner over catalog (nil allocates a fresh one).
func New(catalog *itemset.Catalog, cfg Config) (*Miner, error) {
	if cfg.WindowSize < 1 {
		return nil, fmt.Errorf("stream: window size %d", cfg.WindowSize)
	}
	cfg.MinSupport, cfg.MaxLen, cfg.MinLift = Thresholds(cfg.MinSupport, cfg.MaxLen, cfg.MinLift)
	if catalog == nil {
		catalog = itemset.NewCatalog()
	}
	return &Miner{
		cfg:     cfg,
		catalog: catalog,
		ring:    make([]itemset.Set, cfg.WindowSize),
	}, nil
}

// Catalog returns the item catalog backing the miner.
func (m *Miner) Catalog() *itemset.Catalog { return m.catalog }

// Observe appends one transaction, evicting the oldest when the window is
// full.
func (m *Miner) Observe(items ...itemset.Item) {
	m.ring[m.next] = itemset.NewSet(items...)
	m.next++
	m.total++
	if m.next == len(m.ring) {
		m.next = 0
		m.filled = true
	}
}

// ObserveNames is Observe with name interning.
func (m *Miner) ObserveNames(names ...string) {
	items := make([]itemset.Item, len(names))
	for i, n := range names {
		items[i] = m.catalog.Intern(n)
	}
	m.Observe(items...)
}

// Len returns the number of transactions currently in the window.
func (m *Miner) Len() int {
	if m.filled {
		return len(m.ring)
	}
	return m.next
}

// Export returns the window's transactions oldest-first plus the total
// observed count — the miner's half of a serving checkpoint and the window
// BeginView captures. The slice is fresh; its sets alias the ring, and
// since Observe replaces slots rather than mutating them they stay valid
// after later Observe calls. Treat them as read-only.
func (m *Miner) Export() ([]itemset.Set, int) {
	n := m.Len()
	out := make([]itemset.Set, 0, n)
	if m.filled {
		out = append(out, m.ring[m.next:]...)
	}
	return append(out, m.ring[:m.next]...), m.total
}

// RestoreWindow refills an empty miner from an Export: txns oldest-first
// (item ids must be valid in this miner's catalog) and the historical total.
// The window after restore is byte-identical input to Snapshot as the window
// the export was taken from, so a restored server re-mines the same rules.
func (m *Miner) RestoreWindow(txns []itemset.Set, total int) error {
	if len(txns) > len(m.ring) {
		return fmt.Errorf("stream: restoring %d transactions into a window of %d", len(txns), len(m.ring))
	}
	if total < len(txns) {
		return fmt.Errorf("stream: restored total %d below window occupancy %d", total, len(txns))
	}
	for i, t := range txns {
		m.ring[i] = t
	}
	for i := len(txns); i < len(m.ring); i++ {
		m.ring[i] = nil
	}
	m.next = len(txns) % len(m.ring)
	m.filled = len(txns) == len(m.ring)
	m.total = total
	return nil
}

// Total returns the number of transactions ever observed.
func (m *Miner) Total() int { return m.total }

// Snapshot mines the current window and returns the rules above the lift
// threshold, strongest first.
func (m *Miner) Snapshot() []rules.Rule {
	return m.BeginView().Mine().Rules
}

// View is an immutable snapshot of the miner, safe to hand to concurrent
// readers while the miner keeps observing: the mined rules, a frozen clone
// of the catalog to render them against (item ids are stable across
// clones), and the window occupancy at mining time. Nothing in a View
// aliases miner state that later Observe calls mutate.
type View struct {
	// Rules is the mined rule set, strongest first (see Snapshot).
	Rules []rules.Rule
	// Catalog resolves the rules' item ids to names as of mining time.
	Catalog *itemset.Catalog
	// WindowLen and Total mirror Len and Total at mining time.
	WindowLen, Total int
	// Window is the captured window the rules were mined from, oldest
	// first: canonical immutable sets resolved against Catalog. A merged
	// multi-shard view (internal/shard) carries the union of its shards'
	// windows, re-interned against the merge catalog.
	Window []itemset.Set
}

// View mines the current window and packages the result with a frozen
// catalog clone. This is the hand-off point between the single-writer
// mining loop and lock-free readers.
func (m *Miner) View() *View {
	return m.BeginView().Mine()
}

// PendingView is a window captured for mining away from the miner's owner
// goroutine. Capturing is cheap (slice-header copies plus a catalog
// clone); Mine does the heavy work and touches nothing the miner mutates
// afterwards — the ring slots it holds are canonical sets that Observe
// replaces rather than edits, and the catalog is a private clone. This is
// what lets the serving loop put a watchdog around mining: a hung or
// panicking Mine strands only its PendingView, never the miner, so the
// loop keeps observing and simply begins a fresh view for the next batch.
type PendingView struct {
	cfg     Config
	catalog *itemset.Catalog
	window  []itemset.Set
	total   int
}

// Capture packages a window for mining under cfg's thresholds (zero
// values resolve through Thresholds; WindowSize is ignored). window holds
// canonical sets resolved against catalog, total is the observed count to
// report. The PendingView takes ownership: the caller must not mutate the
// catalog, the slice or its sets afterwards. Every window that becomes
// rules goes through here — the single miner's BeginView and the shard
// cluster's union of shard windows alike.
func Capture(cfg Config, catalog *itemset.Catalog, window []itemset.Set, total int) *PendingView {
	cfg.MinSupport, cfg.MaxLen, cfg.MinLift = Thresholds(cfg.MinSupport, cfg.MaxLen, cfg.MinLift)
	return &PendingView{cfg: cfg, catalog: catalog, window: window, total: total}
}

// BeginView captures the current window, oldest first like Export. Must
// be called from the miner's owner goroutine, like every other Miner
// method.
func (m *Miner) BeginView() *PendingView {
	window, total := m.Export()
	return Capture(m.cfg, m.catalog.Clone(), window, total)
}

// Mine runs FP-Growth and rule generation over the capture, building the
// FP-tree afresh. Safe to call on any goroutine; for a BeginView capture
// the result is identical to what Miner.View would have returned at
// capture time.
func (pv *PendingView) Mine() *View {
	n := len(pv.window)
	var rs []rules.Rule
	if n > 0 {
		db := transaction.NewDB(pv.catalog)
		for _, txn := range pv.window {
			db.AddCanonical(txn)
		}
		frequent := fpgrowth.Mine(db, fpgrowth.Options{
			MinCount: MinCount(pv.cfg.MinSupport, n),
			MaxLen:   pv.cfg.MaxLen,
		})
		rs = rules.Generate(frequent, n, rules.Options{MinLift: pv.cfg.MinLift})
	}
	return &View{
		Rules:     rs,
		Catalog:   pv.catalog,
		WindowLen: n,
		Total:     pv.total,
		Window:    pv.window,
	}
}

// Postings is an inverted item→rule index over one immutable rule list:
// Postings[item] lists the indices (ascending) of every rule whose
// antecedent or consequent contains the item. Built once when a snapshot is
// published, it turns the keyword filter — previously a scan over every
// rule per request — into a single slice lookup.
type Postings [][]int32

// IndexRules builds the inverted index for rs over a catalog of items
// ids. Rule indices appear in each posting list in rule order, so
// materializing a list reproduces exactly the subsequence a linear
// Contains scan would have produced.
func IndexRules(rs []rules.Rule, items int) Postings {
	// Count first, so every list is carved from one flat backing array
	// instead of growing by append.
	counts := make([]int32, items)
	count := func(s itemset.Set) {
		for _, it := range s {
			// Defensive growth: a rule item beyond the declared catalog
			// length (impossible for views built by this package) must not
			// panic the read path.
			if int(it) >= len(counts) {
				counts = append(counts, make([]int32, int(it)+1-len(counts))...)
			}
			counts[it]++
		}
	}
	total := 0
	for i := range rs {
		count(rs[i].Antecedent)
		count(rs[i].Consequent)
		total += len(rs[i].Antecedent) + len(rs[i].Consequent)
	}
	backing := make([]int32, total)
	p := make(Postings, len(counts))
	off := 0
	for it, c := range counts {
		if c > 0 {
			// Capacity is capped at the list's own length, so the fill's
			// appends stay inside its span and never reallocate.
			p[it] = backing[off : off : off+int(c)]
			off += int(c)
		}
	}
	for i := range rs {
		for _, it := range rs[i].Antecedent {
			p[it] = append(p[it], int32(i))
		}
		for _, it := range rs[i].Consequent {
			p[it] = append(p[it], int32(i))
		}
	}
	return p
}

// For returns the posting list for item (nil when the item indexes no rule).
func (p Postings) For(item itemset.Item) []int32 {
	if item < 0 || int(item) >= len(p) {
		return nil
	}
	return p[item]
}

// Delta describes how the rule set changed between two snapshots.
type Delta struct {
	// Appeared holds rules present now but not before; Vanished the
	// reverse. Both are sorted by descending lift.
	Appeared, Vanished []rules.Rule
	// Jaccard is the similarity of the two rule sets by structure
	// (antecedent ⇒ consequent identity, ignoring metric drift): 1 means
	// unchanged, 0 means disjoint.
	Jaccard float64
}

// Diff compares two snapshots structurally: a rule's identity is its
// antecedent ⇒ consequent pair. A rule listed twice counts once towards
// Jaccard, and every copy of an appeared or vanished rule is listed.
//
// Both lists go into one open-addressed table of rule positions keyed by
// rules.SidesHash, so the diff costs integer work per rule; every probe
// hit is confirmed with Set.Equal, so a hash collision never misclassifies
// a rule. The classifying passes record appeared positions and count
// vanished rules, so each output list is allocated once at its exact
// length: a first publish, where every rule appears, copies the rule list
// once instead of append-growing it.
func Diff(prev, cur []rules.Rule) Delta {
	t := newRuleTable(prev, cur)
	// at[i] is the slot holding prev[i]'s structure, shared by its copies.
	at := make([]int32, len(prev))
	prevKeys := 0
	for i := range prev {
		h := t.slot(&prev[i])
		if t.slots[h] == 0 {
			t.slots[h] = int32(i + 1)
			prevKeys++
		}
		at[i] = int32(h)
	}
	// hit marks the prev slots some cur rule matched; appeared lists the
	// positions of the cur rules prev lacks, every copy included.
	hit := make([]bool, len(t.slots))
	appeared := make([]int32, 0, len(cur))
	curKeys, inter := 0, 0
	for i := range cur {
		h := t.slot(&cur[i])
		switch v := t.slots[h]; {
		case v == 0:
			t.slots[h] = -int32(i + 1)
			curKeys++
			appeared = append(appeared, int32(i))
		case v < 0:
			// A further copy of a rule prev lacks.
			appeared = append(appeared, int32(i))
		case !hit[h]:
			hit[h] = true
			curKeys++
			inter++
		}
	}
	var d Delta
	vanished := 0
	for i := range prev {
		if !hit[at[i]] {
			vanished++
		}
	}
	if vanished > 0 {
		d.Vanished = make([]rules.Rule, 0, vanished)
		for i := range prev {
			if !hit[at[i]] {
				d.Vanished = append(d.Vanished, prev[i])
			}
		}
	}
	if len(appeared) > 0 {
		d.Appeared = make([]rules.Rule, len(appeared))
		for k, i := range appeared {
			d.Appeared[k] = cur[i]
		}
	}
	union := prevKeys + curKeys - inter
	if union == 0 {
		d.Jaccard = 1
	} else {
		d.Jaccard = float64(inter) / float64(union)
	}
	sort.Slice(d.Appeared, func(i, j int) bool { return d.Appeared[i].Lift > d.Appeared[j].Lift })
	sort.Slice(d.Vanished, func(i, j int) bool { return d.Vanished[i].Lift > d.Vanished[j].Lift })
	return d
}

// ruleTable is Diff's hash table, modelled on the rule generator's support
// index: slots hold prev[v-1] for v > 0, cur[-v-1] for v < 0, and 0 marks
// an empty slot. It is sized for both lists at a load factor of at most ½.
type ruleTable struct {
	slots     []int32
	mask      uint64
	prev, cur []rules.Rule
}

func newRuleTable(prev, cur []rules.Rule) *ruleTable {
	size := 1
	for size < 2*(len(prev)+len(cur))+1 {
		size <<= 1
	}
	return &ruleTable{slots: make([]int32, size), mask: uint64(size - 1), prev: prev, cur: cur}
}

// slot returns the slot holding r's structure, or the empty slot where it
// belongs.
func (t *ruleTable) slot(r *rules.Rule) uint64 {
	h := rules.SidesHash(r.Antecedent, r.Consequent) & t.mask
	for {
		v := t.slots[h]
		if v == 0 {
			return h
		}
		var o *rules.Rule
		if v > 0 {
			o = &t.prev[v-1]
		} else {
			o = &t.cur[-v-1]
		}
		if o.Antecedent.Equal(r.Antecedent) && o.Consequent.Equal(r.Consequent) {
			return h
		}
		h = (h + 1) & t.mask
	}
}

// KeywordDelta narrows a delta to the rules mentioning the keyword on
// either side — the alerting primitive: "a new rule about job failure
// appeared in the last window".
func KeywordDelta(d Delta, keyword itemset.Item) Delta {
	filter := func(rs []rules.Rule) []rules.Rule {
		var out []rules.Rule
		for _, r := range rs {
			if r.Antecedent.Contains(keyword) || r.Consequent.Contains(keyword) {
				out = append(out, r)
			}
		}
		return out
	}
	return Delta{
		Appeared: filter(d.Appeared),
		Vanished: filter(d.Vanished),
		Jaccard:  d.Jaccard,
	}
}
