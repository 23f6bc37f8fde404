// The merge stage: reconciling N per-shard sliding windows into one rule
// snapshot of their union.
//
// Each shard publishes immutable snapshots whose View carries the captured
// window (stream.View.Window). The merge re-interns every shard window into
// one shared catalog (shards intern item names in different orders, so ids
// must be reconciled by name) and mines the resulting union window through
// stream.Capture — the same FP-Growth and rule-generation code the single
// server's mines run. The merged rules are therefore, by construction, the
// rules one miner holding the union window would publish.
//
// Merges are cached on the shard seq/stale vector: while no shard publishes
// a new snapshot, every /v1/rules hit serves the cached merge (and its ETag
// revalidates 304s for free); when the vector moves, one request pays for
// the remerge under a single-flight lock.
package shard

import (
	"fmt"
	"hash/fnv"

	"repro/internal/itemset"
	"repro/internal/server"
	"repro/internal/stream"
)

// mergedSnap is one cached merge: the synthesized snapshot, the shard
// seq/stale vector key it was computed from, and the derived ETag.
type mergedSnap struct {
	snap *server.Snapshot
	key  string
	etag string
}

// collect reads every shard's current snapshot and fingerprints the set.
// The key encodes each shard's seq and stale flag ("-" for a shard that has
// not mined yet), so any publish — including a degraded republish — moves it.
func (c *Cluster) collect() (snaps []*server.Snapshot, key string, any bool) {
	snaps = make([]*server.Snapshot, len(c.shards))
	buf := make([]byte, 0, 16*len(c.shards))
	for i, s := range c.shards {
		snap := s.Snapshot()
		snaps[i] = snap
		if i > 0 {
			buf = append(buf, '|')
		}
		if snap == nil {
			buf = append(buf, '-')
			continue
		}
		any = true
		buf = append(buf, fmt.Sprintf("%d", snap.Seq)...)
		if snap.Stale {
			buf = append(buf, 's')
		}
	}
	return snaps, string(buf), any
}

// Merged returns the current merged snapshot plus its ETag, remerging only
// when some shard has published since the cached merge. Nil means no shard
// has mined anything yet.
func (c *Cluster) Merged() (*server.Snapshot, string) {
	snaps, key, any := c.collect()
	if !any {
		return nil, ""
	}
	if cur := c.merged.Load(); cur != nil && cur.key == key {
		return cur.snap, cur.etag
	}
	c.mergeMu.Lock()
	defer c.mergeMu.Unlock()
	// Re-read under the lock: a racing request may have merged this vector
	// already, and shards may have published again while we waited.
	snaps, key, any = c.collect()
	if !any {
		return nil, ""
	}
	if cur := c.merged.Load(); cur != nil && cur.key == key {
		return cur.snap, cur.etag
	}
	m := c.remerge(snaps, key)
	c.merged.Store(m)
	return m.snap, m.etag
}

// remerge mines the union of the shard windows. Caller holds mergeMu —
// c.mergeCatalog and the previous merged snapshot are only touched here.
func (c *Cluster) remerge(snaps []*server.Snapshot, key string) *mergedSnap {
	start := c.clock.Now()
	var window []itemset.Set
	var items []itemset.Item
	total, stale := 0, false
	for _, snap := range snaps {
		if snap == nil {
			continue
		}
		view := snap.View
		stale = stale || snap.Stale
		total += view.Total
		for _, txn := range view.Window {
			// Reconcile by name: the same item carries different ids in
			// different shard catalogs, so intern each name against the
			// cluster-stable merge catalog.
			items = items[:0]
			for _, it := range txn {
				items = append(items, c.mergeCatalog.Intern(view.Catalog.Name(it)))
			}
			window = append(window, itemset.NewSet(items...))
		}
	}

	// The merged View renders against a frozen clone; ids are stable across
	// clones, so consecutive merges diff structurally just like consecutive
	// single-miner snapshots.
	sc := c.cfg.Shard
	cfg := stream.Config{MinSupport: sc.MinSupport, MaxLen: sc.MaxLen, MinLift: sc.MinLift}
	view := stream.Capture(cfg, c.mergeCatalog.Clone(), window, total).Mine()
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

// mergedETag derives the merged view's cache validator: the merge seq plus
// an FNV-1a hash of the shard seq/stale vector, so a response revalidates
// exactly until any shard publishes again.
func mergedETag(seq int64, key string) string {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return fmt.Sprintf("\"m%d-%08x\"", seq, h.Sum32())
}
