// Package core implements the paper's contribution: the end-to-end
// interpretable analysis workflow. A Pipeline declares how a merged trace
// frame is turned into a mining database — which continuous features to
// discretize and how (equal-frequency quartiles, zero bins, "Std" spike
// bins), which categorical features to tier by activity or aggregate into
// families, and what to skip — and the Options fix the mining thresholds
// (5 % minimum support, itemsets of length ≤ 5, lift ≥ 1.5, pruning slack
// C_lift = C_supp = 1.5). Mining produces a Result from which keyword
// analyses (cause rules and characteristic rules, pruned for redundancy)
// are derived.
package core

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/fpgrowth"
	"repro/internal/itemset"
	"repro/internal/pruning"
	"repro/internal/rules"
	"repro/internal/stream"
	"repro/internal/transaction"
)

// FeatureSpec declares the discretization of one continuous column.
type FeatureSpec struct {
	// Column names the numeric column to discretize in place.
	Column string
	// Bins is the regular bin count; zero means quartiles (4).
	Bins int
	// Method selects equal-frequency (default) or equal-width binning.
	Method discretize.Method
	// ZeroSpecial gives near-zero values (|v| <= ZeroEpsilon) a dedicated
	// bin labelled ZeroLabel ("0%" by default).
	ZeroSpecial bool
	ZeroLabel   string
	ZeroEpsilon float64
	// SpikeThreshold enables "Std" bin detection: a single value covering
	// at least this fraction of samples gets its own bin.
	SpikeThreshold float64
	SpikeLabel     string
}

// TierSpec declares activity tiering of a high-cardinality categorical
// column (users, job groups): the values jointly responsible for TopShare of
// rows become "frequent", the least active for BottomShare become "new".
type TierSpec struct {
	Column string
	// Out names the produced tier column (e.g. "user_tier").
	Out string
	// TopShare and BottomShare are the paper's 25 % cumulative shares;
	// zero means 0.25.
	TopShare, BottomShare float64
	// Keep retains the original column; by default it is dropped, since
	// raw ids generate one near-singleton item per value.
	Keep bool
}

// MapSpec declares aggregation of a categorical column's values into
// families (resnet/vgg/inception → CV).
type MapSpec struct {
	Column string
	// Out names the produced column; empty maps in place.
	Out string
	// Groups maps raw values to family labels; values not present map to
	// Fallback (or stay unchanged if Fallback is empty).
	Groups   map[string]string
	Fallback string
	// Keep retains the original column alongside Out.
	Keep bool
}

// Transform is an arbitrary frame-to-frame preprocessing step, applied
// before everything else; an escape hatch for trace-specific feature
// engineering that the declarative specs do not cover.
type Transform func(*dataset.Frame) (*dataset.Frame, error)

// Options fixes the mining thresholds. The zero value selects the paper's
// settings everywhere.
type Options struct {
	// MinSupport is the frequent-itemset threshold as a fraction of the
	// database; zero means the paper's 0.05.
	MinSupport float64
	// MaxItemsetLen caps itemset length; zero means the paper's 5.
	MaxItemsetLen int
	// MinLift filters generated rules; zero means the paper's 1.5.
	MinLift float64
	// MinConfidence optionally filters generated rules.
	MinConfidence float64
	// CLift and CSupp are the pruning slack parameters; zero means 1.5.
	CLift, CSupp float64
	// MaxPrevalence drops items present in more than this fraction of
	// jobs; zero means the paper's 0.8.
	MaxPrevalence float64
	// KeepItems exempts item names from prevalence dropping (use for a
	// keyword under study that happens to be very common).
	KeepItems []string
}

// Pipeline is a declarative preprocessing + mining configuration.
type Pipeline struct {
	Transforms []Transform
	Features   []FeatureSpec
	Tiers      []TierSpec
	Maps       []MapSpec
	// Skip lists columns excluded from encoding (identifiers, raw
	// timestamps, columns superseded by derived features).
	Skip []string
	Opts Options
}

// Preprocess applies the pipeline's feature engineering and returns a frame
// containing only string and bool columns, ready for one-hot encoding.
func (p *Pipeline) Preprocess(f *dataset.Frame) (*dataset.Frame, error) {
	var err error
	for _, tr := range p.Transforms {
		if f, err = tr(f); err != nil {
			return nil, fmt.Errorf("core: transform: %w", err)
		}
	}
	for _, spec := range p.Features {
		if f, err = applyFeature(f, spec); err != nil {
			return nil, err
		}
	}
	for _, spec := range p.Tiers {
		if f, err = applyTier(f, spec); err != nil {
			return nil, err
		}
	}
	for _, spec := range p.Maps {
		if f, err = applyMap(f, spec); err != nil {
			return nil, err
		}
	}
	return f.Drop(p.Skip...), nil
}

func applyFeature(f *dataset.Frame, spec FeatureSpec) (*dataset.Frame, error) {
	col, err := f.Column(spec.Column)
	if err != nil {
		return nil, fmt.Errorf("core: feature %q: %w", spec.Column, err)
	}
	if !col.IsNumeric() {
		return nil, fmt.Errorf("core: feature %q is %v, not numeric", spec.Column, col.Kind())
	}
	d, err := discretize.Fit(col.Floats(), discretize.Options{
		Bins:           spec.Bins,
		Method:         spec.Method,
		ZeroSpecial:    spec.ZeroSpecial,
		ZeroLabel:      spec.ZeroLabel,
		ZeroEpsilon:    spec.ZeroEpsilon,
		SpikeThreshold: spec.SpikeThreshold,
		SpikeLabel:     spec.SpikeLabel,
	})
	if err != nil {
		return nil, fmt.Errorf("core: feature %q: %w", spec.Column, err)
	}
	n := col.Len()
	labels := make([]string, n)
	var valid []bool
	if col.NullCount() > 0 {
		valid = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		if !col.IsValid(i) {
			continue
		}
		if valid != nil {
			valid[i] = true
		}
		labels[i] = d.Label(col.Number(i))
	}
	return f.WithColumn(dataset.NewString(spec.Column, labels).WithValidity(valid))
}

func applyTier(f *dataset.Frame, spec TierSpec) (*dataset.Frame, error) {
	col, err := f.Column(spec.Column)
	if err != nil {
		return nil, fmt.Errorf("core: tier %q: %w", spec.Column, err)
	}
	if col.Kind() != dataset.String {
		return nil, fmt.Errorf("core: tier %q needs a string column", spec.Column)
	}
	top, bottom := spec.TopShare, spec.BottomShare
	if top == 0 {
		top = 0.25
	}
	if bottom == 0 {
		bottom = 0.25
	}
	values := make([]string, col.Len())
	for i := range values {
		if col.IsValid(i) {
			values[i] = col.Str(i)
		}
	}
	tiers := transaction.FrequencyTiers(values, top, bottom)
	out := spec.Out
	if out == "" {
		out = spec.Column + "_tier"
	}
	g, err := f.WithColumn(dataset.NewString(out, tiers))
	if err != nil {
		return nil, err
	}
	if !spec.Keep {
		g = g.Drop(spec.Column)
	}
	return g, nil
}

func applyMap(f *dataset.Frame, spec MapSpec) (*dataset.Frame, error) {
	col, err := f.Column(spec.Column)
	if err != nil {
		return nil, fmt.Errorf("core: map %q: %w", spec.Column, err)
	}
	if col.Kind() != dataset.String {
		return nil, fmt.Errorf("core: map %q needs a string column", spec.Column)
	}
	n := col.Len()
	values := make([]string, n)
	var valid []bool
	if col.NullCount() > 0 {
		valid = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		if !col.IsValid(i) {
			continue
		}
		if valid != nil {
			valid[i] = true
		}
		v := col.Str(i)
		if mapped, ok := spec.Groups[v]; ok {
			values[i] = mapped
		} else if spec.Fallback != "" {
			values[i] = spec.Fallback
		} else {
			values[i] = v
		}
	}
	out := spec.Out
	if out == "" {
		out = spec.Column
	}
	g, err := f.WithColumn(dataset.NewString(out, values).WithValidity(valid))
	if err != nil {
		return nil, err
	}
	if !spec.Keep && out != spec.Column {
		g = g.Drop(spec.Column)
	}
	return g, nil
}

// Result is a mined trace, ready for keyword analyses.
type Result struct {
	DB       *transaction.DB
	Frequent []itemset.Frequent
	// NumTransactions is the database size |D|.
	NumTransactions int
	opts            Options
	allRules        []rules.Rule
	rulesReady      bool
}

// Mine runs the full preprocess → encode → FP-Growth pipeline.
func (p *Pipeline) Mine(f *dataset.Frame) (*Result, error) {
	pre, err := p.Preprocess(f)
	if err != nil {
		return nil, err
	}
	opts := p.Opts
	db, err := transaction.Encode(pre, transaction.EncodeOptions{
		MaxPrevalence: opts.MaxPrevalence,
		KeepAlways:    opts.KeepItems,
	})
	if err != nil {
		return nil, err
	}
	minSupport, maxLen, _ := stream.Thresholds(opts.MinSupport, opts.MaxItemsetLen, opts.MinLift)
	frequent := fpgrowth.Mine(db, fpgrowth.Options{
		MinCount: stream.MinCount(minSupport, db.Len()),
		MaxLen:   maxLen,
	})
	return &Result{
		DB:              db,
		Frequent:        frequent,
		NumTransactions: db.Len(),
		opts:            opts,
	}, nil
}

// Rules generates (and caches) all association rules above the lift
// threshold from the mined itemsets.
func (r *Result) Rules() []rules.Rule {
	if !r.rulesReady {
		_, _, minLift := stream.Thresholds(r.opts.MinSupport, r.opts.MaxItemsetLen, r.opts.MinLift)
		r.allRules = rules.Generate(r.Frequent, r.NumTransactions, rules.Options{
			MinLift:       minLift,
			MinConfidence: r.opts.MinConfidence,
		})
		r.rulesReady = true
	}
	return r.allRules
}

// RuleView is a rendered rule with readable item names.
type RuleView struct {
	Antecedent []string
	Consequent []string
	Support    float64
	Confidence float64
	Lift       float64
}

// Analysis is the outcome of one keyword study.
type Analysis struct {
	Keyword string
	// Cause rules carry the keyword in the consequent; Characteristic
	// rules carry it in the antecedent. Both are redundancy-pruned and
	// sorted by descending lift.
	Cause          []RuleView
	Characteristic []RuleView
	// PruneStats reports how much the four conditions removed.
	PruneStats pruning.Stats
	// RulesBefore holds the unpruned keyword rules, for the Fig. 3 style
	// before/after comparison.
	RulesBefore []rules.Rule
}

// ErrKeywordUnknown is returned when the keyword item does not occur in the
// mined database.
var ErrKeywordUnknown = errors.New("core: keyword item not found in database")

// Analyze runs the keyword study: select the rules containing the keyword,
// prune redundancy with the four conditions, and split into cause and
// characteristic sets.
func (r *Result) Analyze(keyword string) (*Analysis, error) {
	kw, ok := r.DB.Catalog().Lookup(keyword)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrKeywordUnknown, keyword)
	}
	all := r.Rules()
	var relevant []rules.Rule
	for _, rule := range all {
		if rule.Antecedent.Contains(kw) || rule.Consequent.Contains(kw) {
			relevant = append(relevant, rule)
		}
	}
	cl, cs := r.opts.CLift, r.opts.CSupp
	kept, stats := pruning.Prune(relevant, kw, pruning.Options{CLift: cl, CSupp: cs})
	split := rules.Split(kept, kw)
	return &Analysis{
		Keyword:        keyword,
		Cause:          r.views(split.Cause),
		Characteristic: r.views(split.Characteristic),
		PruneStats:     stats,
		RulesBefore:    relevant,
	}, nil
}

func (r *Result) views(rs []rules.Rule) []RuleView {
	out := make([]RuleView, len(rs))
	for i, rule := range rs {
		out[i] = RuleView{
			Antecedent: r.DB.Catalog().Names(rule.Antecedent),
			Consequent: r.DB.Catalog().Names(rule.Consequent),
			Support:    rule.Support,
			Confidence: rule.Confidence,
			Lift:       rule.Lift,
		}
	}
	return out
}
