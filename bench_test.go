// Benchmarks regenerating every table and figure in the paper's evaluation,
// plus the miner comparison and the ablations called out in DESIGN.md. One
// benchmark per artifact: the harness generates the three traces once
// (outside the timed region) and times the analysis that produces the
// artifact. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/apriori"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eclat"
	"repro/internal/experiments"
	"repro/internal/fpgrowth"
	"repro/internal/pruning"
	"repro/internal/rules"
	"repro/internal/server"
	"repro/internal/son"
	"repro/internal/stream"
	"repro/internal/transaction"
)

// benchJobs sizes the benchmark traces: large enough that the mining cost
// dominates, small enough that the full suite runs in minutes. Every result
// is scale-invariant by construction (verified in the experiments tests).
const benchJobs = 20000

var (
	benchOnce sync.Once
	benchSet  *experiments.TraceSet
	benchErr  error
)

func traces(b *testing.B) *experiments.TraceSet {
	b.Helper()
	benchOnce.Do(func() {
		benchSet, benchErr = experiments.Generate(benchJobs, 42)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSet
}

// freshSet returns a trace set with cold caches so the timed region covers
// the full join + preprocess + mine path.
func freshSet(b *testing.B) *experiments.TraceSet {
	ts := traces(b)
	return &experiments.TraceSet{PAI: ts.PAI, SuperCloud: ts.SuperCloud, Philly: ts.Philly}
}

// --- Table I and the figures -----------------------------------------------

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := freshSet(b).TableI(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1FrequentItemsets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := freshSet(b).Fig1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2RuleMetricDistributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := freshSet(b).Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3Pruning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := freshSet(b).Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4UtilizationCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := freshSet(b).Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5ExitStatus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := freshSet(b).Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Rule tables ------------------------------------------------------------

func benchTable(b *testing.B, run func(*experiments.TraceSet) (*experiments.TableResult, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := run(freshSet(b))
		if err != nil {
			b.Fatal(err)
		}
		if t.FoundCount() != len(t.Rows) {
			b.Fatalf("table %s: only %d/%d paper rows rediscovered", t.Table, t.FoundCount(), len(t.Rows))
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	benchTable(b, (*experiments.TraceSet).TableII)
}

func BenchmarkTableIII(b *testing.B) {
	benchTable(b, (*experiments.TraceSet).TableIII)
}

func BenchmarkTableIV(b *testing.B) {
	benchTable(b, (*experiments.TraceSet).TableIV)
}

func BenchmarkTableV(b *testing.B) {
	benchTable(b, (*experiments.TraceSet).TableV)
}

func BenchmarkTableVI(b *testing.B) {
	benchTable(b, (*experiments.TraceSet).TableVI)
}

func BenchmarkTableVII(b *testing.B) {
	benchTable(b, (*experiments.TraceSet).TableVII)
}

func BenchmarkTableVIII(b *testing.B) {
	benchTable(b, (*experiments.TraceSet).TableVIII)
}

// BenchmarkFullReport times the whole reproduction end to end (everything
// the cmd/experiments binary does, minus trace generation).
func BenchmarkFullReport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := freshSet(b).WriteReport(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Miner comparison (the Fig. 1 motivation: FP-Growth vs the candidates) --

func paiDB(b *testing.B) *transaction.DB {
	b.Helper()
	ts := traces(b)
	joined, err := ts.Joined("pai")
	if err != nil {
		b.Fatal(err)
	}
	pre, err := core.PAIPipeline().Preprocess(joined)
	if err != nil {
		b.Fatal(err)
	}
	db, err := transaction.Encode(pre, transaction.EncodeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

func BenchmarkMinerFPGrowth(b *testing.B) {
	db := paiDB(b)
	minCount := db.Len() / 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fpgrowth.Mine(db, fpgrowth.Options{MinCount: minCount, MaxLen: 5})
	}
}

func BenchmarkMinerApriori(b *testing.B) {
	db := paiDB(b)
	minCount := db.Len() / 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apriori.Mine(db, apriori.Options{MinCount: minCount, MaxLen: 5})
	}
}

func BenchmarkMinerEclat(b *testing.B) {
	db := paiDB(b)
	minCount := db.Len() / 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eclat.Mine(db, eclat.Options{MinCount: minCount, MaxLen: 5})
	}
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationPruningSlack sweeps the C_lift/C_supp slack: tighter
// slack (1.0) keeps more rules, the paper's 1.5 cuts aggressively.
func BenchmarkAblationPruningSlack(b *testing.B) {
	ts := traces(b)
	res, err := ts.Mined("pai")
	if err != nil {
		b.Fatal(err)
	}
	kw, ok := res.DB.Catalog().Lookup(core.KeywordZeroSM)
	if !ok {
		b.Fatal("keyword missing")
	}
	all := res.Rules()
	var keyword []rules.Rule
	for _, r := range all {
		if r.Antecedent.Contains(kw) || r.Consequent.Contains(kw) {
			keyword = append(keyword, r)
		}
	}
	for _, slack := range []float64{1.0, 1.25, 1.5, 2.0} {
		b.Run(formatSlack(slack), func(b *testing.B) {
			var kept int
			for i := 0; i < b.N; i++ {
				out, _ := pruning.Prune(keyword, kw, pruning.Options{CLift: slack, CSupp: slack})
				kept = len(out)
			}
			b.ReportMetric(float64(kept), "rules-kept")
		})
	}
}

func formatSlack(s float64) string {
	switch s {
	case 1.0:
		return "C=1.0"
	case 1.25:
		return "C=1.25"
	case 1.5:
		return "C=1.5"
	default:
		return "C=2.0"
	}
}

// BenchmarkAblationBinning compares the paper's equal-frequency binning with
// the rejected equal-width alternative on the PAI pipeline.
func BenchmarkAblationBinning(b *testing.B) {
	ts := traces(b)
	joined, err := ts.Joined("pai")
	if err != nil {
		b.Fatal(err)
	}
	for _, method := range []struct {
		name string
		m    int
	}{{"EqualFrequency", 0}, {"EqualWidth", 1}} {
		b.Run(method.name, func(b *testing.B) {
			var itemsets int
			for i := 0; i < b.N; i++ {
				p := core.PAIPipeline()
				for fi := range p.Features {
					if method.m == 1 {
						p.Features[fi].Method = 1 // discretize.EqualWidth
					}
				}
				res, err := p.Mine(joined)
				if err != nil {
					b.Fatal(err)
				}
				itemsets = len(res.Frequent)
			}
			b.ReportMetric(float64(itemsets), "itemsets")
		})
	}
}

// BenchmarkAblationMaxLen sweeps the itemset length cap around the paper's 5.
func BenchmarkAblationMaxLen(b *testing.B) {
	db := paiDB(b)
	minCount := db.Len() / 20
	for _, maxLen := range []int{3, 4, 5, 6} {
		b.Run(formatLen(maxLen), func(b *testing.B) {
			var itemsets int
			for i := 0; i < b.N; i++ {
				fs := fpgrowth.Mine(db, fpgrowth.Options{MinCount: minCount, MaxLen: maxLen})
				itemsets = len(fs)
			}
			b.ReportMetric(float64(itemsets), "itemsets")
		})
	}
}

func formatLen(n int) string {
	return "maxlen=" + string(rune('0'+n))
}

// --- Substrate benches --------------------------------------------------------

func BenchmarkTraceGenerationPAI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts, err := experiments.Generate(benchJobs, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		_ = ts.PAI
	}
}

func BenchmarkEncode(b *testing.B) {
	ts := traces(b)
	joined, err := ts.Joined("pai")
	if err != nil {
		b.Fatal(err)
	}
	pre, err := core.PAIPipeline().Preprocess(joined)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transaction.Encode(pre, transaction.EncodeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension benches ---------------------------------------------------

// BenchmarkMinerSON times the partitioned miner against the same workload
// as the other miner benches; its two-phase structure trades a verification
// pass for shardability.
func BenchmarkMinerSON(b *testing.B) {
	db := paiDB(b)
	minCount := db.Len() / 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		son.Mine(db, son.Options{MinCount: minCount, MaxLen: 5, Partitions: 8})
	}
}

// BenchmarkStreamSnapshot times one sliding-window re-mine at an
// operator-dashboard window size.
func BenchmarkStreamSnapshot(b *testing.B) {
	ts := traces(b)
	joined, err := ts.Joined("philly")
	if err != nil {
		b.Fatal(err)
	}
	pre, err := core.PhillyPipeline().Preprocess(joined)
	if err != nil {
		b.Fatal(err)
	}
	db, err := transaction.Encode(pre, transaction.EncodeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := stream.New(db.Catalog(), stream.Config{WindowSize: 5000})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < db.Len() && i < 5000; i++ {
		m.Observe(db.Txn(i)...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(m.Snapshot()) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkServerIngestMine times the serving path end to end: one
// iteration posts a pre-serialized NDJSON chunk of PAI jobs through the
// HTTP API and waits for the mining loop to publish the snapshot that
// covers it (MineBatch equals the chunk size, so each chunk triggers
// exactly one re-mine). Serialization happens outside the timed region.
func BenchmarkServerIngestMine(b *testing.B) {
	ts := traces(b)
	joined, err := ts.Joined("pai")
	if err != nil {
		b.Fatal(err)
	}
	events := server.FrameEvents(joined)
	const chunkSize = 2000
	var chunks [][]byte
	for start := 0; start+chunkSize <= len(events); start += chunkSize {
		var buf bytes.Buffer
		for _, ev := range events[start : start+chunkSize] {
			line, err := json.Marshal(ev)
			if err != nil {
				b.Fatal(err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		chunks = append(chunks, buf.Bytes())
	}
	srv, err := server.New(server.Config{
		Spec:         server.PAISpec(),
		WindowSize:   5000,
		Bootstrap:    500,
		MineBatch:    chunkSize,
		MineInterval: time.Hour, // batch-driven: the ticker must not fire
		QueueSize:    2 * chunkSize,
	})
	if err != nil {
		b.Fatal(err)
	}
	ht := httptest.NewServer(srv.Handler())
	defer ht.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Stop(ctx)
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ht.URL+"/v1/jobs", "application/x-ndjson",
			bytes.NewReader(chunks[i%len(chunks)]))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("ingest status %d", resp.StatusCode)
		}
		wantSeq := int64(i + 1)
		for {
			snap := srv.Snapshot()
			if snap != nil && snap.Seq >= wantSeq {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(chunkSize), "jobs/op")
}

// BenchmarkFailurePrediction times the full train+evaluate classifier study
// on the PAI trace.
func BenchmarkFailurePrediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pr, err := freshSet(b).FailurePrediction("pai")
		if err != nil {
			b.Fatal(err)
		}
		if !pr.Trained {
			b.Fatal("classifier should train on PAI")
		}
	}
}

func BenchmarkCSVRoundTrip(b *testing.B) {
	ts := traces(b)
	frame := ts.PAI.Scheduler
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr, pw := io.Pipe()
		done := make(chan error, 1)
		go func() {
			err := frame.WriteCSV(pw)
			pw.Close()
			done <- err
		}()
		if _, err := dataset.ReadCSV(pr); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}
