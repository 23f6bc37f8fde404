package shard

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/benchfix"
	"repro/internal/itemset"
	"repro/internal/rules"
	"repro/internal/server"
	"repro/internal/son"
	"repro/internal/stream"
	"repro/internal/transaction"
)

// remergeSONOracle is the merge as it ran before the cluster mined the
// union window itself: SON's two-pass protocol (son.MineShards) over one
// database per shard window, then rule generation. Kept verbatim as the
// oracle the union mine must reproduce rule for rule.
func (c *Cluster) remergeSONOracle(snaps []*server.Snapshot, key string) *mergedSnap {
	start := c.clock.Now()
	dbs := make([]*transaction.DB, 0, len(snaps))
	totalLen, totalObserved := 0, 0
	stale := false
	for _, snap := range snaps {
		if snap == nil {
			continue
		}
		view := snap.View
		stale = stale || snap.Stale
		totalObserved += view.Total
		db := transaction.NewDB(c.mergeCatalog)
		for _, txn := range view.Window {
			// Reconcile by name: the same item carries different ids in
			// different shard catalogs, and AddNames re-interns against the
			// cluster-stable merge catalog.
			db.AddNames(view.Catalog.Names(txn)...)
		}
		totalLen += db.Len()
		dbs = append(dbs, db)
	}

	minSupport, maxLen, minLift := stream.Thresholds(c.cfg.Shard.MinSupport, c.cfg.Shard.MaxLen, c.cfg.Shard.MinLift)
	frequent := son.MineShards(dbs, son.Options{
		MinCount: stream.MinCount(minSupport, totalLen),
		MaxLen:   maxLen,
		Workers:  c.cfg.Shard.Workers,
	})
	rs := rules.Generate(frequent, totalLen, rules.Options{MinLift: minLift, Workers: c.cfg.Shard.Workers})

	// The published View renders against a frozen clone; ids are stable
	// across clones, so consecutive merges diff structurally just like
	// consecutive single-miner snapshots. Window stays nil: a merged view is
	// synthesized, not a mining input.
	view := &stream.View{
		Rules:     rs,
		Catalog:   c.mergeCatalog.Clone(),
		WindowLen: totalLen,
		Total:     totalObserved,
	}
	var prev *server.Snapshot
	if m := c.merged.Load(); m != nil {
		prev = m.snap
	}
	// One index per merge-key: every request against this cached merge
	// shares the posting lists, sort orders and analysis cache.
	snap := server.NewSnapshot(prev, 1, view, c.clock, start, stale)
	c.mergedWatch.Publish(snap)
	return &mergedSnap{snap: snap, key: key, etag: mergedETag(snap.Seq, key)}
}

// fixtureSnaps splits the benchfix window over three shard snapshots —
// assign maps a transaction's position to its shard — plus a shard that
// has not mined yet. Every shard catalog interns the fixture's item names
// from a different starting point, so ids disagree across shards as they
// do between independent shard servers, and each catalog also holds items
// its own window lacks.
func fixtureSnaps(tb testing.TB, assign func(i, n int) int, stale bool) []*server.Snapshot {
	tb.Helper()
	_, cur, err := benchfix.PublishPoints()
	if err != nil {
		tb.Fatalf("fixture: %v", err)
	}
	const shards = 3
	names := cur.Catalog.Export()
	cats := make([]*itemset.Catalog, shards)
	wins := make([][]itemset.Set, shards)
	for s := range cats {
		cats[s] = itemset.NewCatalog()
		for j := range names {
			cats[s].Intern(names[(j+s*len(names)/shards)%len(names)])
		}
	}
	for i, txn := range cur.Window {
		s := assign(i, len(cur.Window))
		items := make([]itemset.Item, len(txn))
		for j, it := range txn {
			items[j] = cats[s].Intern(cur.Catalog.Name(it))
		}
		wins[s] = append(wins[s], itemset.NewSet(items...))
	}
	snaps := make([]*server.Snapshot, 0, shards+1)
	for s := range wins {
		snaps = append(snaps, &server.Snapshot{
			Seq: int64(s + 1),
			View: &stream.View{
				Catalog:   cats[s],
				Window:    wins[s],
				WindowLen: len(wins[s]),
				Total:     len(wins[s]) + 100*(s+1),
			},
			Stale: stale && s == shards-1,
		})
		if s == 0 {
			snaps = append(snaps, nil)
		}
	}
	return snaps
}

func roundRobin(i, _ int) int { return i % 3 }

// skewed cuts the window into contiguous 70/25/5% runs.
func skewed(i, n int) int {
	switch {
	case i < n*70/100:
		return 0
	case i < n*95/100:
		return 1
	default:
		return 2
	}
}

// fixtureCluster is a one-shard cluster mining at the serving thresholds;
// remerge never looks at its own shards, only at the snapshots it is given.
func fixtureCluster(tb testing.TB) *Cluster {
	c, err := New(Config{Shard: server.Config{MineInterval: time.Hour, MineBatch: 1 << 20}})
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	tb.Cleanup(func() { _ = c.Stop(context.Background()) })
	return c
}

// merge runs one remerge the way Merged does: under the merge lock, with
// the result cached as the next merge's predecessor.
func merge(c *Cluster, fn func([]*server.Snapshot, string) *mergedSnap, snaps []*server.Snapshot) *mergedSnap {
	c.mergeMu.Lock()
	defer c.mergeMu.Unlock()
	m := fn(snaps, "fixture")
	c.merged.Store(m)
	return m
}

// At PAI scale, mining the union window must reproduce the SON merge
// exactly: the same rules in the same order with the same metrics, the
// same merge catalog, and the same window, observed-total and stale
// accounting — for an even and a skewed split, each with a shard that has
// not mined.
func TestRemergeMatchesSONOracleOnFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("mines the 5000-job PAI fixture twice per split")
	}
	for _, tc := range []struct {
		name   string
		assign func(i, n int) int
		stale  bool
	}{
		{"round-robin", roundRobin, false},
		{"skewed", skewed, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snaps := fixtureSnaps(t, tc.assign, tc.stale)
			uc, oc := fixtureCluster(t), fixtureCluster(t)
			got := merge(uc, uc.remerge, snaps).snap
			want := merge(oc, oc.remergeSONOracle, snaps).snap
			if len(want.View.Rules) == 0 {
				t.Fatal("oracle mined no rules; the fixture no longer exercises the merge")
			}
			if !reflect.DeepEqual(got.View.Rules, want.View.Rules) {
				t.Fatalf("union mine: %d rules, SON oracle: %d rules; lists differ",
					len(got.View.Rules), len(want.View.Rules))
			}
			if !reflect.DeepEqual(got.View.Catalog.Export(), want.View.Catalog.Export()) {
				t.Error("merge catalogs differ")
			}
			if got.View.WindowLen != want.View.WindowLen || got.View.Total != want.View.Total || got.Stale != want.Stale {
				t.Errorf("window/total/stale = %d/%d/%v, oracle %d/%d/%v",
					got.View.WindowLen, got.View.Total, got.Stale,
					want.View.WindowLen, want.View.Total, want.Stale)
			}
			if len(got.View.Window) != got.View.WindowLen {
				t.Errorf("merged view carries %d window transactions, WindowLen %d",
					len(got.View.Window), got.View.WindowLen)
			}
		})
	}
}

func benchmarkRemerge(b *testing.B, oracle bool) {
	snaps := fixtureSnaps(b, roundRobin, false)
	c := fixtureCluster(b)
	fn := c.remerge
	if oracle {
		fn = c.remergeSONOracle
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merge(c, fn, snaps)
	}
}

// BenchmarkRemerge times one merge of the round-robin fixture split,
// including the diff against the previous merge and the index build.
func BenchmarkRemerge(b *testing.B) { benchmarkRemerge(b, false) }

// BenchmarkRemergeOracle times the SON merge on the same split.
func BenchmarkRemergeOracle(b *testing.B) { benchmarkRemerge(b, true) }
