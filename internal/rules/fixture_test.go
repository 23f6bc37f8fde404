package rules_test

import (
	"reflect"
	"testing"

	"repro/internal/benchfix"
	"repro/internal/itemset"
	"repro/internal/rules"
	"repro/internal/stream"
)

// TestGenerateMatchesOracleOnFixture: on both publish points of the PAI
// fixture window (~145k rules each), Generate equals the oracle and
// reproduces the view's published rules.
func TestGenerateMatchesOracleOnFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("mines and generates the 5000-job fixture window twice")
	}
	prev, cur, err := benchfix.PublishPoints()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []*stream.View{prev, cur} {
		fs := benchfix.Frequent(v)
		got := rules.Generate(fs, v.WindowLen, rules.Options{})
		want := rules.GenerateOracle(fs, v.WindowLen, rules.Options{})
		if len(want) < 100000 {
			t.Fatalf("fixture generated %d rules; the test needs a full-size window", len(want))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Generate differs from the oracle on the fixture (%d rules, oracle %d)", len(got), len(want))
		}
		if !reflect.DeepEqual(got, v.Rules) {
			t.Fatalf("Generate on the re-mined window differs from the published view")
		}
	}
}

// Rule generation on the fixture's second publish point: the cur window's
// frequent list (~9k itemsets, ~141k rules). The Oracle twin runs the
// sharded, append-grown, sort.Slice version Generate replaced, in the same
// process.
func BenchmarkGenerateFixture(b *testing.B)       { benchGenerate(b, rules.Generate) }
func BenchmarkGenerateFixtureOracle(b *testing.B) { benchGenerate(b, rules.GenerateOracle) }

// rulesSink keeps the benchmarked result alive.
var rulesSink []rules.Rule

func benchGenerate(b *testing.B, generate func([]itemset.Frequent, int, rules.Options) []rules.Rule) {
	_, cur, err := benchfix.PublishPoints()
	if err != nil {
		b.Fatal(err)
	}
	fs := benchfix.Frequent(cur)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rulesSink = generate(fs, cur.WindowLen, rules.Options{})
	}
}
