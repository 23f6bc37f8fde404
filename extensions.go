package repro

import (
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fpgrowth"
	"repro/internal/itemset"
	"repro/internal/privacy"
	"repro/internal/rules"
	"repro/internal/son"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/transaction"
)

// Extensions beyond the paper's core workflow: streaming-window mining with
// drift detection, the CBA-style rule classifier its takeaways propose, and
// the SON partitioned miner for traces too large for one FP-tree.

// Streaming mining.
type (
	// StreamMiner maintains a sliding window of transactions and mines
	// rule snapshots from it.
	StreamMiner = stream.Miner
	// StreamConfig sizes the window and thresholds.
	StreamConfig = stream.Config
	// StreamDelta describes rule-set drift between two snapshots: the
	// positions of the appeared rules in the newer snapshot (ascending, so
	// strongest first) and copies of the vanished rules in the older
	// snapshot's order.
	StreamDelta = stream.Delta
)

// NewStreamMiner returns a sliding-window miner (nil catalog allocates one).
func NewStreamMiner(catalog *itemset.Catalog, cfg StreamConfig) (*StreamMiner, error) {
	return stream.New(catalog, cfg)
}

// DiffSnapshots compares two rule snapshots structurally; index the newer
// snapshot with the delta's Appeared positions to read the new rules.
var DiffSnapshots = stream.Diff

// Rule-based classification.
type (
	// Classifier predicts a target item from mined cause rules.
	Classifier = classify.Classifier
	// ClassifierOptions tunes rule selection.
	ClassifierOptions = classify.Options
	// ClassifierMetrics is the evaluation scorecard.
	ClassifierMetrics = classify.Metrics
)

// TrainClassifier builds a CBA-style classifier from mined rules, ranking
// by marginal confidence.
var TrainClassifier = classify.Train

// TrainClassifierWithCoverage builds the classifier with database-coverage
// selection: each rule must clear the precision floor on the training
// transactions *not covered by earlier rules*, the CBA refinement that
// keeps an ordered rule list honest.
var TrainClassifierWithCoverage = classify.TrainWithCoverage

// Raw mining layer, for callers that build transaction databases directly
// (market-basket style) rather than going through a Frame.
type (
	// TransactionDB is the mining database: one itemset per record.
	TransactionDB = transaction.DB
	// Rule is an association rule with its quality metrics (support,
	// confidence, lift, leverage, conviction, plus the null-invariant
	// measures as methods).
	Rule = rules.Rule
	// Item is a dense item id from a Catalog.
	Item = itemset.Item
	// Catalog interns item names.
	Catalog = itemset.Catalog
	// Frequent is a frequent itemset with its support count.
	Frequent = itemset.Frequent
)

// NewTransactionDB returns an empty database (nil catalog allocates one).
func NewTransactionDB(catalog *itemset.Catalog) *TransactionDB {
	return transaction.NewDB(catalog)
}

// NewCatalog returns an empty item catalog.
var NewCatalog = itemset.NewCatalog

// MineSON runs the partitioned SON miner: exactly FP-Growth's results,
// computed over independently mined partitions plus one verification pass,
// the structure used to scale mining out across machines.
var MineSON = son.Mine

// MineTopK returns the k most frequent itemsets without a support
// threshold (ties at the k-th count included).
var MineTopK = fpgrowth.MineTopK

// SONOptions configures MineSON.
type SONOptions = son.Options

// GenerateRules derives association rules from frequent itemsets.
var GenerateRules = rules.Generate

// RuleOptions configures GenerateRules.
type RuleOptions = rules.Options

// Negative (protective) association rules: X ⇒ ¬Y.
type (
	// NegativeRule states that the antecedent suppresses the consequent.
	NegativeRule = rules.NegativeRule
	// NegativeOptions configures GenerateNegativeRules.
	NegativeOptions = rules.NegativeOptions
	// NegativeRuleView is a rendered protective rule.
	NegativeRuleView = core.NegativeRuleView
)

// GenerateNegativeRules derives protective rules for one consequent item.
var GenerateNegativeRules = rules.GenerateNegative

// Bootstrap confidence intervals on rule metrics.
type (
	// RuleCI is a two-sided percentile interval.
	RuleCI = rules.CI
	// BootstrapResult carries the support/confidence/lift intervals.
	BootstrapResult = rules.BootstrapResult
)

// BootstrapRule resamples the database to produce percentile confidence
// intervals for one rule's metrics.
var BootstrapRule = rules.Bootstrap

// FormatNegative renders protective rules in the table style.
var FormatNegative = core.FormatNegative

// ClosedItemsets extracts the closed itemsets (no superset of equal count):
// the lossless compression of a frequent set.
var ClosedItemsets = itemset.Closed

// MaximalItemsets extracts the maximal itemsets (no frequent superset).
var MaximalItemsets = itemset.Maximal

// Differentially private release of mined supports.
type (
	// PrivacyOptions sets the budget for ReleasePrivate.
	PrivacyOptions = privacy.Options
	// PrivacyDistortion reports the error a release introduced.
	PrivacyDistortion = privacy.Distortion
)

// ReleasePrivate returns a Laplace-noised copy of mined itemset supports
// under the given privacy budget.
func ReleasePrivate(g *stats.RNG, fs []Frequent, opts PrivacyOptions) ([]Frequent, error) {
	return privacy.Release(g, fs, opts)
}

// MeasurePrivacyDistortion compares a private release against the exact
// itemsets.
var MeasurePrivacyDistortion = privacy.Measure

// NewRNG returns the library's seeded random generator (used by the trace
// simulators and the privacy mechanism).
var NewRNG = stats.NewRNG

// RNG is the seeded random generator type.
type RNG = stats.RNG

// Experiment extensions.
type (
	// PredictionResult is the failure-prediction scorecard per trace.
	PredictionResult = experiments.PredictionResult
)
