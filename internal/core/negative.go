package core

import (
	"fmt"
	"strings"

	"repro/internal/rules"
	"repro/internal/stream"
)

// NegativeRuleView is a rendered protective rule: the antecedent suppresses
// the keyword.
type NegativeRuleView struct {
	Antecedent []string
	Keyword    string
	Support    float64
	Confidence float64
	Lift       float64
}

// AnalyzeNegative mines the protective side of a keyword study: which job
// attributes make the keyword *unlikely* ("jobs from this group never
// fail"). opts zero-values select the package defaults.
func (r *Result) AnalyzeNegative(keyword string, opts rules.NegativeOptions) ([]NegativeRuleView, error) {
	kw, ok := r.DB.Catalog().Lookup(keyword)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrKeywordUnknown, keyword)
	}
	minSupport, _, _ := stream.Thresholds(r.opts.MinSupport, r.opts.MaxItemsetLen, r.opts.MinLift)
	minCount := stream.MinCount(minSupport, r.NumTransactions)
	neg := rules.GenerateNegative(r.Frequent, r.NumTransactions, minCount, kw, opts)
	out := make([]NegativeRuleView, len(neg))
	for i, nr := range neg {
		out[i] = NegativeRuleView{
			Antecedent: r.DB.Catalog().Names(nr.Antecedent),
			Keyword:    keyword,
			Support:    nr.Support,
			Confidence: nr.Confidence,
			Lift:       nr.Lift,
		}
	}
	return out, nil
}

// FormatNegative renders protective rules in the table style.
func FormatNegative(vs []NegativeRuleView, maxRows int) string {
	var sb strings.Builder
	for i, v := range vs {
		if maxRows > 0 && i == maxRows {
			break
		}
		fmt.Fprintf(&sb, "N%-2d {%s} => NOT %s  supp>=%.2f conf>=%.2f lift=%.2f\n",
			i+1, strings.Join(v.Antecedent, ", "), v.Keyword, v.Support, v.Confidence, v.Lift)
	}
	return sb.String()
}
