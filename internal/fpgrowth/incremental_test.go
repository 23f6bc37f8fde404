package fpgrowth_test

import (
	"fmt"
	"testing"

	"repro/internal/apriori"
	"repro/internal/fpgrowth"
	"repro/internal/itemset"
	"repro/internal/stats"
	"repro/internal/transaction"
)

// TestIncrementalInterleavedOracle is the incremental counterpart of
// TestRandomizedOracle: 25 seeded interleaved observe/evict/mine schedules
// drive a sliding window through an Incremental tree, and at every mine
// point the frozen tree must agree with three oracles on the exact window
// contents — a from-scratch fpgrowth.Mine, Apriori, and a direct
// DB.SupportCount scan. Maintenance (drift/fragmentation rebuilds) fires
// at random points mid-schedule, so mines land on fresh, decayed and
// just-rebuilt trees alike.
func TestIncrementalInterleavedOracle(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		g := stats.NewRNG(int64(4200 + trial))
		catalog := itemset.NewCatalog()
		nItems := 5 + g.Intn(25)
		ids := make([]itemset.Item, nItems)
		for i := range ids {
			ids[i] = catalog.Intern(fmt.Sprintf("i%d", i))
		}
		windowSize := 20 + g.Intn(80)
		inc := fpgrowth.NewIncremental(fpgrowth.IncOptions{})
		var window []itemset.Set // oldest first
		steps := 150 + g.Intn(250)
		for step := 0; step < steps; step++ {
			n := 1 + g.Intn(8)
			items := make([]itemset.Item, 0, n)
			for j := 0; j < n; j++ {
				// Zipf-ish popularity via squaring a uniform.
				u := g.Float64()
				idx := int(u * u * float64(nItems))
				if idx >= nItems {
					idx = nItems - 1
				}
				items = append(items, ids[idx])
			}
			txn := itemset.NewSet(items...)
			if len(window) == windowSize {
				if err := inc.Remove(window[0]); err != nil {
					t.Fatalf("trial %d step %d: evict: %v", trial, step, err)
				}
				window = window[1:]
			}
			inc.Add(txn)
			window = append(window, txn)
			if inc.Len() != len(window) {
				t.Fatalf("trial %d step %d: tree holds %d txns, window %d",
					trial, step, inc.Len(), len(window))
			}
			if g.Intn(10) == 0 {
				inc.Maintain()
			}
			if g.Intn(25) != 0 && step != steps-1 {
				continue
			}

			db := transaction.NewDB(catalog)
			for _, s := range window {
				db.AddCanonical(s)
			}
			minCount := 1 + g.Intn(len(window)/5+2)
			maxLen := g.Intn(6) // 0 = unlimited
			opts := fpgrowth.Options{MinCount: minCount, MaxLen: maxLen, Workers: 1}
			want := fpgrowth.Mine(db, opts)
			ap := apriori.Mine(db, apriori.Options{MinCount: minCount, MaxLen: maxLen})
			if !sameResults(want, ap) {
				t.Fatalf("trial %d step %d: FP-Growth and Apriori disagree on the window", trial, step)
			}
			got := inc.Freeze().Mine(opts)
			if !sameResults(want, got) {
				t.Fatalf("trial %d step %d (window=%d min=%d maxLen=%d): incremental mine %d itemsets, full rebuild %d",
					trial, step, len(window), minCount, maxLen, len(got), len(want))
			}
			for _, f := range got {
				if scan := db.SupportCount(f.Items); scan != f.Count {
					t.Fatalf("trial %d step %d: itemset %v count %d, DB scan says %d",
						trial, step, f.Items, f.Count, scan)
				}
			}
		}
	}
}

// TestIncrementalEvictSharedPrefix evicts a transaction whose path is a
// full prefix of a surviving transaction's: the decrement must leave the
// shared nodes alive with the survivor's weight, not tear the path down.
func TestIncrementalEvictSharedPrefix(t *testing.T) {
	catalog := itemset.NewCatalog()
	a, b, c, d := catalog.Intern("a"), catalog.Intern("b"), catalog.Intern("c"), catalog.Intern("d")
	inc := fpgrowth.NewIncremental(fpgrowth.IncOptions{})
	short := itemset.NewSet(a, b, c)
	long := itemset.NewSet(a, b, c, d)
	inc.Add(short)
	inc.Add(long)
	if err := inc.Remove(short); err != nil {
		t.Fatalf("evict shared-prefix txn: %v", err)
	}
	st := inc.Stats()
	if st.Txns != 1 || st.Dead != 0 {
		t.Fatalf("after eviction: stats %+v, want 1 txn and no dead nodes", st)
	}
	got := inc.Freeze().Mine(fpgrowth.Options{MinCount: 1, Workers: 1})
	db := transaction.NewDB(catalog)
	db.AddCanonical(long)
	want := fpgrowth.Mine(db, fpgrowth.Options{MinCount: 1, Workers: 1})
	if !sameResults(want, got) {
		t.Fatalf("post-eviction mine: got %d itemsets, want %d (all subsets of the survivor)", len(got), len(want))
	}
}

// TestIncrementalDeadNodeRevival decrements a path to zero, then re-adds
// the same transaction: the dead node must be reused in place — no arena
// growth — and mining must be exact at every point in between.
func TestIncrementalDeadNodeRevival(t *testing.T) {
	catalog := itemset.NewCatalog()
	a, b, c := catalog.Intern("a"), catalog.Intern("b"), catalog.Intern("c")
	inc := fpgrowth.NewIncremental(fpgrowth.IncOptions{MaxDeadFrac: 0.99})
	ab := itemset.NewSet(a, b)
	ac := itemset.NewSet(a, c)
	inc.Add(ab)
	inc.Add(ac)
	if err := inc.Remove(ab); err != nil {
		t.Fatalf("evict: %v", err)
	}
	st := inc.Stats()
	if st.Nodes != 3 || st.Dead != 1 {
		t.Fatalf("after decrement-to-zero: stats %+v, want 3 nodes with 1 dead", st)
	}
	got := inc.Freeze().Mine(fpgrowth.Options{MinCount: 1, Workers: 1})
	db := transaction.NewDB(catalog)
	db.AddCanonical(ac)
	want := fpgrowth.Mine(db, fpgrowth.Options{MinCount: 1, Workers: 1})
	if !sameResults(want, got) {
		t.Fatalf("mine with dead node: got %d itemsets, want %d", len(got), len(want))
	}

	inc.Add(ab) // revive
	st = inc.Stats()
	if st.Nodes != 3 || st.Dead != 0 {
		t.Fatalf("after revival: stats %+v, want the same 3 nodes, none dead", st)
	}
	got = inc.Freeze().Mine(fpgrowth.Options{MinCount: 1, Workers: 1})
	db2 := transaction.NewDB(catalog)
	db2.AddCanonical(ab)
	db2.AddCanonical(ac)
	want = fpgrowth.Mine(db2, fpgrowth.Options{MinCount: 1, Workers: 1})
	if !sameResults(want, got) {
		t.Fatalf("mine after revival: got %d itemsets, want %d", len(got), len(want))
	}
}

// TestIncrementalDriftFallback flips item popularity mid-schedule: an item
// that arrived late (tail rank) overtakes the early frequent ones, so the
// maintained order decays until Maintain's drift check forces a rebuild.
// Fragmentation is effectively disabled to isolate the drift trigger.
func TestIncrementalDriftFallback(t *testing.T) {
	catalog := itemset.NewCatalog()
	x, y, z := catalog.Intern("x"), catalog.Intern("y"), catalog.Intern("z")
	inc := fpgrowth.NewIncremental(fpgrowth.IncOptions{MaxDeadFrac: 0.99})
	var window []itemset.Set
	observe := func(txn itemset.Set) {
		if len(window) == 50 {
			if err := inc.Remove(window[0]); err != nil {
				t.Fatalf("evict: %v", err)
			}
			window = window[1:]
		}
		inc.Add(txn)
		window = append(window, txn)
	}
	for i := 0; i < 50; i++ {
		observe(itemset.NewSet(x, y))
	}
	inc.Maintain() // settle the order on the warm window: x, y
	if got := inc.Stats().Rebuilds; got > 1 {
		t.Fatalf("warmup rebuilds = %d, want at most 1", got)
	}
	base := inc.Stats().Rebuilds
	rebuiltAt := -1
	for i := 0; i < 50; i++ {
		if i%2 == 0 {
			observe(itemset.NewSet(y, z))
		} else {
			observe(itemset.NewSet(z))
		}
		if inc.Maintain() && rebuiltAt < 0 {
			rebuiltAt = i
		}
		// Every mine along the decay, through the fallback and past it,
		// must match the from-scratch oracle.
		db := transaction.NewDB(catalog)
		for _, s := range window {
			db.AddCanonical(s)
		}
		want := fpgrowth.Mine(db, fpgrowth.Options{MinCount: 5, Workers: 1})
		got := inc.Freeze().Mine(fpgrowth.Options{MinCount: 5, Workers: 1})
		if !sameResults(want, got) {
			t.Fatalf("step %d: incremental mine diverged from oracle", i)
		}
	}
	if rebuiltAt < 0 || inc.Stats().Rebuilds == base {
		t.Fatalf("popularity flip never triggered the drift fallback (rebuilds=%d)", inc.Stats().Rebuilds)
	}
}

// TestIncrementalFragmentationCompaction disables the drift check and
// churns disjoint transactions until dead nodes dominate: Maintain must
// compact the arena down to the live paths.
func TestIncrementalFragmentationCompaction(t *testing.T) {
	catalog := itemset.NewCatalog()
	inc := fpgrowth.NewIncremental(fpgrowth.IncOptions{DriftThreshold: -1})
	var txns []itemset.Set
	for i := 0; i < 10; i++ {
		txns = append(txns, itemset.NewSet(catalog.Intern(fmt.Sprintf("t%d", i))))
		inc.Add(txns[i])
	}
	for i := 0; i < 6; i++ {
		if err := inc.Remove(txns[i]); err != nil {
			t.Fatalf("evict: %v", err)
		}
	}
	if st := inc.Stats(); st.Dead != 6 || st.Nodes != 10 {
		t.Fatalf("pre-compaction stats %+v, want 6 dead of 10", st)
	}
	if !inc.Maintain() {
		t.Fatal("Maintain did not compact a mostly-dead arena")
	}
	st := inc.Stats()
	if st.Nodes != 4 || st.Dead != 0 || st.Rebuilds != 1 {
		t.Fatalf("post-compaction stats %+v, want 4 live nodes", st)
	}
	got := inc.Freeze().Mine(fpgrowth.Options{MinCount: 1, Workers: 1})
	if len(got) != 4 {
		t.Fatalf("post-compaction mine found %d itemsets, want the 4 survivors", len(got))
	}
}

// TestIncrementalRemoveErrors: a decrement that does not correspond to a
// prior insert is a contract violation reported as an error, never a wrong
// count.
func TestIncrementalRemoveErrors(t *testing.T) {
	catalog := itemset.NewCatalog()
	a, b := catalog.Intern("a"), catalog.Intern("b")
	inc := fpgrowth.NewIncremental(fpgrowth.IncOptions{})
	inc.Add(itemset.NewSet(a))
	if err := inc.Remove(itemset.NewSet(b)); err == nil {
		t.Fatal("Remove of a never-added item did not error")
	}
	if err := inc.Remove(itemset.NewSet(a, b)); err == nil {
		t.Fatal("Remove of a never-added transaction did not error")
	}
	if err := inc.Remove(itemset.NewSet(a)); err != nil {
		t.Fatalf("Remove of the real transaction: %v", err)
	}
}
