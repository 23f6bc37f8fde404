package server

import (
	"math"
	"math/rand"
	"net/url"
	"strconv"
	"testing"

	"repro/internal/benchfix"
	"repro/internal/rules"
)

// validRuleQuery is the /v1/rules parameter contract written out
// independently of parseRuleQuery: limit a positive integer, offset a
// non-negative one, a known sort key and kind, and metric floors that are
// non-negative numbers, each parameter optional.
func validRuleQuery(q url.Values) bool {
	intOK := func(raw string, lo int) bool {
		if raw == "" {
			return true
		}
		v, err := strconv.Atoi(raw)
		return err == nil && v >= lo
	}
	floatOK := func(raw string) bool {
		if raw == "" {
			return true
		}
		v, err := strconv.ParseFloat(raw, 64)
		return err == nil && !math.IsNaN(v) && v >= 0
	}
	switch q.Get("sort") {
	case "", "lift", "support", "confidence":
	default:
		return false
	}
	switch q.Get("kind") {
	case "", "all", "cause", "characteristic":
	default:
		return false
	}
	return intOK(q.Get("limit"), 1) && intOK(q.Get("offset"), 0) &&
		floatOK(q.Get("min_lift")) && floatOK(q.Get("min_support"))
}

// FuzzRuleQuery drives the /v1/rules query parser and the filter-sort-page
// step over a small rule list with tied and zero metrics. No input may
// panic; a query outside the parameter contract must be rejected with an
// error and one inside it accepted; and an accepted query returns at most
// min(limit, len) rules, each passing its min_lift and min_support floors,
// in descending order of its sort key.
func FuzzRuleQuery(f *testing.F) {
	for _, seed := range []string{
		"",
		"limit=3&offset=1&sort=support&min_lift=1.5",
		"sort=confidence&min_support=0.25&offset=2&limit=1",
		"limit=0", "limit=-1", "offset=-3", "limit=99999999999999999999",
		"sort=bogus", "kind=cause", "kind=x&prune=false",
		"min_lift=NaN", "min_support=-1", "min_lift=Inf", "min_support=1e309",
		"min_lift=-0", "limit=2&limit=x", "%zz", "offset=1000",
	} {
		f.Add(seed)
	}
	rs := benchfix.RandomRules(rand.New(rand.NewSource(5)), 40, 6)
	f.Fuzz(func(t *testing.T, raw string) {
		values, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		q, err := parseRuleQuery(values)
		if valid := validRuleQuery(values); valid != (err == nil) {
			t.Fatalf("query %q: contract says valid=%v, parseRuleQuery error %v", raw, valid, err)
		}
		if err != nil {
			return
		}
		out := applyQuery(rs, q)
		if len(out) > min(q.limit, len(rs)) {
			t.Fatalf("query %q: %d rules, limit %d over %d", raw, len(out), q.limit, len(rs))
		}
		key := func(r rules.Rule) float64 {
			switch q.sortKey {
			case "support":
				return r.Support
			case "confidence":
				return r.Confidence
			}
			return r.Lift
		}
		for i, r := range out {
			if q.hasMinLift && r.Lift < q.minLift || q.hasMinSupport && r.Support < q.minSupport {
				t.Fatalf("query %q: rule %d (lift %v, support %v) fails its floors", raw, i, r.Lift, r.Support)
			}
			if q.sortKey != "lift" && i > 0 && key(out[i-1]) < key(r) {
				t.Fatalf("query %q: rules %d and %d out of %s order", raw, i-1, i, q.sortKey)
			}
		}
	})
}
