package fpgrowth_test

import (
	"fmt"
	"testing"

	"repro/internal/fpgrowth"
	"repro/internal/stats"
	"repro/internal/transaction"
)

// Microbenchmarks: mining cost vs database density and threshold.

func benchDB(n, items, maxLen int) *transaction.DB {
	return buildDB(stats.NewRNG(1), n, items, maxLen)
}

func BenchmarkMineByDensity(b *testing.B) {
	for _, avgLen := range []int{4, 8, 16} {
		db := benchDB(20000, 40, avgLen)
		b.Run(fmt.Sprintf("len=%d", avgLen), func(b *testing.B) {
			minCount := db.Len() / 20
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fpgrowth.Mine(db, fpgrowth.Options{MinCount: minCount, MaxLen: 5})
			}
		})
	}
}

func BenchmarkMineByThreshold(b *testing.B) {
	db := benchDB(20000, 40, 10)
	for _, div := range []int{10, 20, 50} {
		b.Run(fmt.Sprintf("support=1/%d", div), func(b *testing.B) {
			minCount := db.Len() / div
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fpgrowth.Mine(db, fpgrowth.Options{MinCount: minCount, MaxLen: 5})
			}
		})
	}
}
