package server

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/benchfix"
	"repro/internal/faultinject"
	"repro/internal/rules"
	"repro/internal/stream"
)

// driftKeywords are the drift filters the fixture tests and benchmarks
// use: none, then the keywords perfbench's query-mix sends.
var driftKeywords = []string{"", "failed", "gpu_type=T4", "user_tier=frequent"}

// driftBody is the /v1/drift?keyword=&limit= body WriteDrift renders for
// snap.
func driftBody(snap *Snapshot, keyword string, limit int) []byte {
	rec := httptest.NewRecorder()
	WriteDrift(rec, httptest.NewRequest("GET", fmt.Sprintf("/v1/drift?keyword=%s&limit=%d", keyword, limit), nil), snap, DriftParams{})
	return rec.Body.Bytes()
}

// driftOracle renders the same body with a linear keyword filter over
// every appeared and vanished rule, as /v1/drift did before a keyword
// drift walked the keyword's posting list.
func driftOracle(t *testing.T, snap *Snapshot, keyword string, limit int) []byte {
	t.Helper()
	appeared, vanished := stream.RulesAt(snap.View.Rules, snap.Delta.Appeared), snap.Delta.Vanished
	resp := driftResponse{Seq: snap.Seq, PrevSeq: snap.PrevSeq, Jaccard: snap.Delta.Jaccard}
	if keyword != "" {
		item, name, err := snap.Index.Resolve(keyword)
		if err != nil {
			t.Fatal(err)
		}
		resp.Keyword = name
		filter := func(rs []rules.Rule) []rules.Rule {
			var out []rules.Rule
			for _, r := range rs {
				if r.Antecedent.Contains(item) || r.Consequent.Contains(item) {
					out = append(out, r)
				}
			}
			return out
		}
		appeared, vanished = filter(appeared), filter(vanished)
	}
	resp.Appeared = rules.ManyToJSON(truncate(appeared, limit), snap.View.Catalog)
	resp.Vanished = rules.ManyToJSON(truncate(vanished, limit), snap.View.Catalog)
	rec := httptest.NewRecorder()
	WriteJSON(rec, 200, resp)
	return rec.Body.Bytes()
}

// On the fixture's two publish points, the /v1/drift bodies and the watch
// events of NewSnapshot's snapshots (the itemset-keyed diff, the keyword
// filter walking the posting list, pages materialized from positions) are
// byte-identical to those of the same snapshots carrying stream.Diff's
// delta, and to a linear keyword filter over that delta: for no keyword
// and each query-mix keyword, at limits of one rule, the default page and
// more than any list holds.
func TestDriftAndWatchMatchRuleListDiff(t *testing.T) {
	if testing.Short() {
		t.Skip("mines the 5000-job fixture window twice")
	}
	first, second, err := benchfix.PublishPoints()
	if err != nil {
		t.Fatal(err)
	}
	clock := faultinject.NewManualClock(time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC))
	hub, listHub := NewWatchHub(0), NewWatchHub(0)
	var prev *Snapshot
	for _, view := range []*stream.View{first, second} {
		snap := NewSnapshot(prev, 1, view, clock, clock.Now(), false)
		listed := *snap
		var prevRules []rules.Rule
		if prev != nil {
			prevRules = prev.View.Rules
		}
		listed.Delta = stream.Diff(prevRules, view.Rules)
		for _, kw := range driftKeywords {
			for _, limit := range []int{1, 50, len(view.Rules) + 1} {
				got := driftBody(snap, kw, limit)
				if want := driftBody(&listed, kw, limit); !bytes.Equal(got, want) {
					t.Fatalf("seq %d keyword %q limit %d: the drift body differs from stream.Diff's:\n got %.300s\nwant %.300s", snap.Seq, kw, limit, got, want)
				}
				if want := driftOracle(t, &listed, kw, limit); !bytes.Equal(got, want) {
					t.Fatalf("seq %d keyword %q limit %d: the drift body differs from the linear filter's:\n got %.300s\nwant %.300s", snap.Seq, kw, limit, got, want)
				}
			}
		}
		hub.Publish(snap)
		listHub.Publish(&listed)
		got, want := hub.ring[len(hub.ring)-1].data, listHub.ring[len(listHub.ring)-1].data
		if !bytes.Equal(got, want) {
			t.Fatalf("seq %d: the watch event differs from stream.Diff's:\n got %.300s\nwant %.300s", snap.Seq, got, want)
		}
		prev = snap
	}
}

// A first publish's ?keyword=failed drift on the shared fixture: every one
// of the second publish point's rules has appeared, and the request pages
// the first 50 that mention the keyword.
func BenchmarkDriftKeywordFirst(b *testing.B) {
	_, cur, err := benchfix.PublishPoints()
	if err != nil {
		b.Fatal(err)
	}
	clock := faultinject.NewManualClock(time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC))
	snap := NewSnapshot(nil, 1, cur, clock, clock.Now(), false)
	req := httptest.NewRequest("GET", "/v1/drift?keyword=failed", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WriteDrift(httptest.NewRecorder(), req, snap, DriftParams{})
	}
}
