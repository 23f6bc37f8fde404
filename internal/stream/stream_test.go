package stream

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/fpgrowth"
	"repro/internal/itemset"
	"repro/internal/rules"
	"repro/internal/stats"
	"repro/internal/transaction"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("zero window should error")
	}
	m, err := New(nil, Config{WindowSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.cfg.MinSupport != 0.05 || m.cfg.MaxLen != 5 || m.cfg.MinLift != 1.5 {
		t.Errorf("defaults not applied: %+v", m.cfg)
	}
}

func TestMinCount(t *testing.T) {
	for _, c := range []struct {
		support float64
		n, want int
	}{
		{0.05, 0, 1},   // empty window still needs one occurrence
		{0.05, 10, 1},  // ceil(0.5)
		{0.05, 100, 5}, // exact
		{0.05, 101, 6}, // rounds up
		{0.5, 3, 2},
	} {
		if got := MinCount(c.support, c.n); got != c.want {
			t.Errorf("MinCount(%v, %d) = %d, want %d", c.support, c.n, got, c.want)
		}
	}
}

func TestWindowEviction(t *testing.T) {
	m, err := New(nil, Config{WindowSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Error("fresh window should be empty")
	}
	m.ObserveNames("a")
	m.ObserveNames("b")
	if m.Len() != 2 {
		t.Errorf("Len = %d", m.Len())
	}
	m.ObserveNames("c")
	m.ObserveNames("d") // evicts "a"
	if m.Len() != 3 {
		t.Errorf("Len = %d, want window size", m.Len())
	}
	if m.Total() != 4 {
		t.Errorf("Total = %d", m.Total())
	}
	// "a" must be gone: a snapshot of the window has no rule or itemset
	// mentioning it; easiest check is via a fresh snapshot's rules over a
	// window where 'a' no longer reaches min support.
	rules := m.Snapshot()
	a, _ := m.Catalog().Lookup("a")
	for _, r := range rules {
		if r.Antecedent.Contains(a) || r.Consequent.Contains(a) {
			t.Fatalf("evicted item still present: %v", r)
		}
	}
}

func TestSnapshotFindsWindowRules(t *testing.T) {
	m, err := New(nil, Config{WindowSize: 200, MinLift: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	g := stats.NewRNG(1)
	// Phase 1: x and y co-occur strongly.
	for i := 0; i < 200; i++ {
		if g.Bernoulli(0.5) {
			m.ObserveNames("x", "y")
		} else {
			m.ObserveNames("z")
		}
	}
	snap := m.Snapshot()
	if len(snap) == 0 {
		t.Fatal("expected rules in phase 1")
	}
	x, _ := m.Catalog().Lookup("x")
	y, _ := m.Catalog().Lookup("y")
	foundXY := false
	for _, r := range snap {
		if r.Antecedent.Contains(x) && r.Consequent.Contains(y) {
			foundXY = true
		}
	}
	if !foundXY {
		t.Fatal("x => y rule missing")
	}
}

func TestDriftDetection(t *testing.T) {
	m, err := New(nil, Config{WindowSize: 300, MinLift: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	g := stats.NewRNG(2)
	healthy := func() {
		if g.Bernoulli(0.5) {
			m.ObserveNames("train", "gpu_busy")
		} else {
			m.ObserveNames("infer", "gpu_idle")
		}
	}
	for i := 0; i < 300; i++ {
		healthy()
	}
	before := m.Snapshot()

	// Regime change: a new failure association floods in.
	for i := 0; i < 300; i++ {
		if g.Bernoulli(0.4) {
			m.ObserveNames("driver_v2", "failed")
		} else {
			healthy()
		}
	}
	after := m.Snapshot()

	d := Diff(before, after)
	if len(d.Appeared) == 0 {
		t.Fatal("regime change should create new rules")
	}
	if d.Jaccard >= 0.99 {
		t.Errorf("Jaccard = %v, expected visible drift", d.Jaccard)
	}
	failed, _ := m.Catalog().Lookup("failed")
	kd := KeywordDelta(d, failed)
	if len(kd.Appeared) == 0 {
		t.Fatal("failure keyword delta should flag the new rule")
	}
	for _, r := range kd.Appeared {
		if !r.Antecedent.Contains(failed) && !r.Consequent.Contains(failed) {
			t.Fatalf("keyword delta leaked unrelated rule: %v", r)
		}
	}
}

func TestDiffIdentical(t *testing.T) {
	m, err := New(nil, Config{WindowSize: 100, MinLift: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		m.ObserveNames("a", "b")
	}
	s1 := m.Snapshot()
	s2 := m.Snapshot()
	d := Diff(s1, s2)
	if len(d.Appeared) != 0 || len(d.Vanished) != 0 {
		t.Errorf("identical snapshots should not differ: %+v", d)
	}
	if d.Jaccard != 1 {
		t.Errorf("Jaccard = %v, want 1", d.Jaccard)
	}
}

func TestDiffEmptyBothSides(t *testing.T) {
	d := Diff(nil, nil)
	if d.Jaccard != 1 {
		t.Errorf("empty-vs-empty Jaccard = %v, want 1 (nothing changed)", d.Jaccard)
	}
}

func TestSnapshotEmptyWindow(t *testing.T) {
	m, err := New(nil, Config{WindowSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot(); got != nil {
		t.Errorf("empty window snapshot = %v", got)
	}
}

func TestViewEmptyWindow(t *testing.T) {
	m, err := New(nil, Config{WindowSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	v := m.View()
	if v.WindowLen != 0 || v.Total != 0 || len(v.Rules) != 0 {
		t.Errorf("empty-window view = %+v", v)
	}
	if v.Catalog == nil {
		t.Fatal("view must carry a catalog even when empty")
	}
	// The view's catalog is a clone: interning into it must not leak back
	// into the miner's live catalog.
	v.Catalog.Intern("ghost")
	if _, ok := m.Catalog().Lookup("ghost"); ok {
		t.Error("view catalog aliases the live catalog")
	}
}

func TestWindowSmallerThanBatch(t *testing.T) {
	// A burst larger than the whole window: only the tail survives, and
	// mining still works on the fully-churned ring.
	m, err := New(nil, Config{WindowSize: 5, MinSupport: 0.4, MinLift: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		m.ObserveNames("old", "stale")
	}
	for i := 0; i < 7; i++ {
		if i%2 == 0 {
			m.ObserveNames("fresh", "hot")
		} else {
			m.ObserveNames("noise")
		}
	}
	if m.Len() != 5 || m.Total() != 107 {
		t.Fatalf("Len/Total = %d/%d", m.Len(), m.Total())
	}
	old, _ := m.Catalog().Lookup("old")
	fresh, _ := m.Catalog().Lookup("fresh")
	foundFresh := false
	for _, r := range m.Snapshot() {
		if r.Antecedent.Contains(old) || r.Consequent.Contains(old) {
			t.Fatalf("fully-evicted item still mined: %v", r)
		}
		if r.Antecedent.Contains(fresh) || r.Consequent.Contains(fresh) {
			foundFresh = true
		}
	}
	if !foundFresh {
		t.Error("no rule over the surviving tail")
	}
}

func TestDiffVanishAndReappear(t *testing.T) {
	// A rule that disappears and later returns must be reported as vanished
	// in the first diff and appeared again in the second — Diff is stateless
	// across snapshot pairs.
	m, err := New(nil, Config{WindowSize: 50, MinSupport: 0.3, MinLift: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	// Half the window co-occurring (a,b), half background noise, so a=>b
	// has support 0.5 and lift 2 rather than a degenerate lift of 1.
	fill := func(a, b string) {
		for i := 0; i < 50; i++ {
			if i%2 == 0 {
				m.ObserveNames(a, b)
			} else {
				m.ObserveNames("noise")
			}
		}
	}
	fill("x", "y")
	s1 := m.Snapshot()
	fill("p", "q") // fully evicts x,y
	s2 := m.Snapshot()
	fill("x", "y") // x=>y comes back
	s3 := m.Snapshot()

	x, _ := m.Catalog().Lookup("x")
	containsX := func(d Delta, appeared bool) bool {
		rs := d.Vanished
		if appeared {
			rs = d.Appeared
		}
		for _, r := range rs {
			if r.Antecedent.Contains(x) || r.Consequent.Contains(x) {
				return true
			}
		}
		return false
	}
	d12 := Diff(s1, s2)
	if !containsX(d12, false) {
		t.Error("x rule not reported vanished in s1->s2")
	}
	if containsX(d12, true) {
		t.Error("x rule reported appeared in s1->s2")
	}
	d23 := Diff(s2, s3)
	if !containsX(d23, true) {
		t.Error("x rule not reported appeared in s2->s3")
	}
	if containsX(d23, false) {
		t.Error("x rule reported vanished in s2->s3")
	}
	// Round trip: the reappearing rule set matches the original.
	d13 := Diff(s1, s3)
	if len(d13.Appeared) != 0 || len(d13.Vanished) != 0 {
		t.Errorf("s1 vs s3 should be identical, got %+v", d13)
	}
}

func TestObserveCanonicalizes(t *testing.T) {
	m, err := New(nil, Config{WindowSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	b := m.Catalog().Intern("b") // id 0
	a := m.Catalog().Intern("a") // id 1
	m.Observe(b, a, b)
	// Canonical form sorts by item id and removes duplicates.
	if got := itemset.Set(m.ring[0]); !got.Equal(itemset.NewSet(a, b)) {
		t.Errorf("transaction not canonical: %v", got)
	}
}

// Export/RestoreWindow round trip: a miner rebuilt from an export mines the
// same rules, both before and after the ring has wrapped.
func TestExportRestoreWindowRoundTrip(t *testing.T) {
	for _, observed := range []int{7, 10, 23} { // partial, exactly full, wrapped
		m, err := New(nil, Config{WindowSize: 10, MinSupport: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < observed; i++ {
			if i%2 == 0 {
				m.ObserveNames("a", "b", "c")
			} else {
				m.ObserveNames("a", "d")
			}
		}
		txns, total := m.Export()
		if total != observed {
			t.Fatalf("observed=%d: exported total = %d", observed, total)
		}
		if len(txns) != m.Len() {
			t.Fatalf("observed=%d: exported %d txns, window holds %d", observed, len(txns), m.Len())
		}

		r, err := New(m.Catalog().Clone(), Config{WindowSize: 10, MinSupport: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.RestoreWindow(txns, total); err != nil {
			t.Fatal(err)
		}
		if r.Len() != m.Len() || r.Total() != m.Total() {
			t.Fatalf("observed=%d: restored len/total = %d/%d, want %d/%d",
				observed, r.Len(), r.Total(), m.Len(), m.Total())
		}
		if !reflect.DeepEqual(m.Snapshot(), r.Snapshot()) {
			t.Errorf("observed=%d: restored snapshot differs", observed)
		}
		// The restored miner keeps evicting correctly.
		m.ObserveNames("a", "e")
		r.ObserveNames("a", "e")
		if !reflect.DeepEqual(m.Snapshot(), r.Snapshot()) {
			t.Errorf("observed=%d: snapshots diverge after post-restore observe", observed)
		}
	}
}

func TestRestoreWindowRejectsOversize(t *testing.T) {
	m, err := New(nil, Config{WindowSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	txns := []itemset.Set{itemset.NewSet(0), itemset.NewSet(1), itemset.NewSet(2)}
	if err := m.RestoreWindow(txns, 3); err == nil {
		t.Error("oversize restore should error")
	}
	if err := m.RestoreWindow(txns[:2], 1); err == nil {
		t.Error("total below occupancy should error")
	}
}

func TestViewCarriesWindow(t *testing.T) {
	m, err := New(nil, Config{WindowSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	m.ObserveNames("a", "b")
	m.ObserveNames("c")
	m.ObserveNames("d")
	m.ObserveNames("e") // evicts {a,b}
	v := m.View()
	want, _ := m.Export()
	if len(v.Window) != len(want) {
		t.Fatalf("view window has %d txns, export has %d", len(v.Window), len(want))
	}
	for i := range want {
		if !v.Window[i].Equal(want[i]) {
			t.Fatalf("view window txn %d = %v, export says %v", i, v.Window[i], want[i])
		}
	}
	// The captured window must render against the view's own catalog, so a
	// merge stage can reconcile item ids by name across shards.
	if got := v.Catalog.Names(v.Window[0]); len(got) != 1 || got[0] != "c" {
		t.Fatalf("oldest txn renders as %v, want [c]", got)
	}
}

// TestSnapshotBatchOracle interleaves observe/evict/mine and checks every
// snapshot, and every published View, against batch mining of the exported
// window: FP-Growth over a database built from Export, then rule
// generation, with the support count computed here rather than by the
// package. The schedule wraps the ring several times so eviction runs
// mid-stream.
func TestSnapshotBatchOracle(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		cfg := Config{WindowSize: 150, MinSupport: 0.04, MinLift: 1.1, Workers: 1}
		m, err := New(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		oracle := func() []rules.Rule {
			txns, _ := m.Export()
			db := transaction.NewDB(m.Catalog())
			for _, txn := range txns {
				db.AddCanonical(txn)
			}
			minCount := int(math.Ceil(cfg.MinSupport * float64(db.Len())))
			frequent := fpgrowth.Mine(db, fpgrowth.Options{MinCount: minCount, MaxLen: 5, Workers: 1})
			return rules.Generate(frequent, db.Len(), rules.Options{MinLift: cfg.MinLift, Workers: 1})
		}
		g := stats.NewRNG(700 + seed)
		names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		for i := 0; i < 600; i++ {
			var txn []string
			for _, n := range names {
				if g.Bernoulli(0.3) {
					txn = append(txn, n)
				}
			}
			if len(txn) > 0 && txn[0] == "a" && g.Bernoulli(0.8) {
				txn = append(txn, "b")
			}
			m.ObserveNames(txn...)
			if g.Intn(40) != 0 && i != 599 {
				continue
			}
			want := oracle()
			if len(want) == 0 {
				t.Fatalf("seed %d step %d: oracle mined no rules; the schedule no longer exercises anything", seed, i)
			}
			if got := m.Snapshot(); !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d step %d: snapshot has %d rules, batch oracle %d", seed, i, len(got), len(want))
			}
			v := m.View()
			if !reflect.DeepEqual(want, v.Rules) {
				t.Fatalf("seed %d step %d: view has %d rules, batch oracle %d", seed, i, len(v.Rules), len(want))
			}
			if v.WindowLen != m.Len() || v.Total != i+1 {
				t.Fatalf("seed %d step %d: view occupancy %d/%d, want %d/%d", seed, i, v.WindowLen, v.Total, m.Len(), i+1)
			}
		}
	}
}
