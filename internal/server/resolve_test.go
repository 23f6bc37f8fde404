package server

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/benchfix"
	"repro/internal/itemset"
	"repro/internal/stream"
)

// TestResolveMatchesLinear holds RuleIndex.Resolve to the linear reference
// resolveKeyword: the same item, name and error text for every name and
// every substring of every name, a miss, and keywords holding "\n". Every
// ambiguous keyword must wrap errAmbiguous, so handlers answer it 400.
// It runs on the publish fixture's catalog and on a synthetic one where
// "gpu" is a name and also a substring of nine others, so an exact match
// must win over an ambiguous substring.
func TestResolveMatchesLinear(t *testing.T) {
	_, cur, err := benchfix.PublishPoints()
	if err != nil {
		t.Fatal(err)
	}
	synth := itemset.NewCatalog()
	synth.Intern("gpu")
	for i := 0; i < 9; i++ {
		synth.Intern(fmt.Sprintf("gpu_type=T%d", i))
	}
	synth.Intern("status=failed")
	synth.Intern("status=terminated")
	for name, c := range map[string]*itemset.Catalog{"fixture": cur.Catalog, "synthetic": synth} {
		ix := NewRuleIndex(&stream.View{Catalog: c})
		keywords := []string{"no such item"}
		for id := itemset.Item(0); int(id) < c.Len(); id++ {
			n := c.Name(id)
			for i := 0; i <= len(n); i++ {
				for j := i; j <= len(n); j++ {
					keywords = append(keywords, n[i:j])
				}
			}
			// A newline joins this name to the next, in whole and across
			// the seam: neither lies inside one name.
			if next := int(id) + 1; next < c.Len() {
				m := c.Name(itemset.Item(next))
				keywords = append(keywords, n+"\n"+m, n[len(n)/2:]+"\n"+m[:len(m)/2])
			}
			keywords = append(keywords, n+"\n", "\n"+n)
		}
		ambiguous := 0
		for _, kw := range keywords {
			gotItem, gotName, gotErr := ix.Resolve(kw)
			wantItem, wantName, wantErr := resolveKeyword(c, kw)
			if gotItem != wantItem || gotName != wantName || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: Resolve(%q) = (%d, %q, %v), linear (%d, %q, %v)", name, kw,
					gotItem, gotName, gotErr, wantItem, wantName, wantErr)
			}
			isAmbiguous := wantErr != nil && strings.Contains(wantErr.Error(), " is ambiguous: ")
			if errors.Is(gotErr, errAmbiguous) != isAmbiguous {
				t.Fatalf("%s: Resolve(%q) error %v: errors.Is(errAmbiguous) = %v, want %v", name, kw,
					gotErr, !isAmbiguous, isAmbiguous)
			}
			if isAmbiguous {
				ambiguous++
			}
		}
		if ambiguous == 0 {
			t.Fatalf("%s: no keyword was ambiguous", name)
		}
	}
}
