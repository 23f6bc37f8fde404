package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
)

// promSample is one parsed sample line of a scrape.
type promSample struct {
	labels  map[string]string
	value   float64
	matched bool
}

// promFamily is one parsed series family: its HELP text, TYPE and samples.
type promFamily struct {
	help, typ string
	samples   []*promSample
}

var (
	promMetricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promSampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.+)\})? (\S+)$`)
	// promLabelPair matches one label pair, its value escaped as the text
	// format requires (\\, \" and \n only), and the comma or end after it.
	promLabelPair = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\[\\"n])*)"(?:,|$)`)
	promUnescape  = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
)

// parseScrape parses a Prometheus text scrape line by line and enforces the
// layout: every family opens with exactly one HELP line followed by exactly
// one TYPE line, and all its samples follow them contiguously.
func parseScrape(t *testing.T, body string) map[string]*promFamily {
	t.Helper()
	fams := map[string]*promFamily{}
	var helped, open string // family awaiting its TYPE; family taking samples
	if !strings.HasSuffix(body, "\n") {
		t.Fatalf("scrape does not end in a newline:\n%s", body)
	}
	for n, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("line %d %q: %s", n+1, line, fmt.Sprintf(format, args...))
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, help, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			if fams[name] != nil {
				fail("second HELP for %s", name)
			}
			if helped != "" {
				fail("HELP while %s still lacks its TYPE", helped)
			}
			if !promMetricName.MatchString(name) || help == "" {
				fail("bad HELP")
			}
			fams[name] = &promFamily{help: help}
			helped, open = name, ""
		case strings.HasPrefix(line, "# TYPE "):
			name, typ, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			if name != helped {
				fail("TYPE not right after its family's HELP")
			}
			if typ != "counter" && typ != "gauge" {
				fail("TYPE %q", typ)
			}
			if typ == "counter" && !strings.HasSuffix(name, "_total") {
				fail("counter without the _total suffix")
			}
			fams[name].typ = typ
			helped, open = "", name
		case strings.HasPrefix(line, "#"):
			fail("unexpected comment")
		default:
			name, labels, value, err := parseSampleLine(line)
			if err != nil {
				fail("%v", err)
			}
			if name != open {
				fail("sample of %s outside its family's block", name)
			}
			fams[name].samples = append(fams[name].samples, &promSample{labels: labels, value: value})
		}
	}
	for name, f := range fams {
		if len(f.samples) == 0 {
			t.Errorf("family %s has no samples", name)
		}
	}
	return fams
}

// parseSampleLine splits `name{l="v",...} value`, unescaping label values.
func parseSampleLine(line string) (name string, labels map[string]string, value float64, err error) {
	m := promSampleLine.FindStringSubmatch(line)
	if m == nil {
		return "", nil, 0, errors.New("not a sample line")
	}
	labels = map[string]string{}
	for rest := m[2]; rest != ""; {
		pair := promLabelPair.FindStringSubmatch(rest)
		if pair == nil {
			return "", nil, 0, fmt.Errorf("bad label pair at %q", rest)
		}
		if _, dup := labels[pair[1]]; dup {
			return "", nil, 0, fmt.Errorf("label %s twice", pair[1])
		}
		labels[pair[1]] = promUnescape.Replace(pair[2])
		rest = rest[len(pair[0]):]
	}
	value, err = strconv.ParseFloat(m[3], 64)
	return m[1], labels, value, err
}

// checkSeries requires every number and bool of one JSON metrics block to
// appear as exactly one sample carrying labels, named by the rule
// "armine_" + scope + key, with "_total" appended to counters that lack it,
// and with the same value (bools as 0/1). It marks the samples it finds.
func checkSeries(t *testing.T, what string, block map[string]any, fams map[string]*promFamily, scope string, labels map[string]string) {
	t.Helper()
	for key, raw := range block {
		var want float64
		switch v := raw.(type) {
		case float64:
			want = v
		case bool:
			if v {
				want = 1
			}
		default:
			continue
		}
		name := "armine_" + scope + key
		f := fams[name]
		if f != nil && f.typ == "counter" && !strings.HasSuffix(key, "_total") {
			t.Errorf("%s: %s is a counter named without the _total suffix", what, key)
			continue
		}
		if f == nil && !strings.HasSuffix(key, "_total") {
			name += "_total"
			if f = fams[name]; f != nil && f.typ != "counter" {
				t.Errorf("%s: %s gained _total but is a %s", what, key, f.typ)
				continue
			}
		}
		if f == nil {
			t.Errorf("%s: key %s has no series", what, key)
			continue
		}
		var found []*promSample
		for _, s := range f.samples {
			if maps.Equal(s.labels, labels) {
				found = append(found, s)
			}
		}
		if len(found) != 1 {
			t.Errorf("%s: key %s: %d samples of %s with labels %v, want 1", what, key, len(found), name, labels)
			continue
		}
		found[0].matched = true
		if found[0].value != want {
			t.Errorf("%s: %s%v = %v, JSON %s = %v", what, name, labels, found[0].value, key, want)
		}
	}
}

// checkAllMatched requires every sample of the scrape to belong to a JSON key.
func checkAllMatched(t *testing.T, fams map[string]*promFamily) {
	t.Helper()
	for name, f := range fams {
		for _, s := range f.samples {
			if !s.matched {
				t.Errorf("series %s%v matches no JSON key", name, s.labels)
			}
		}
	}
}

func getBoth(t *testing.T, h http.Handler) (map[string]any, string) {
	t.Helper()
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body.String())
		}
		return rec
	}
	var body map[string]any
	if err := json.Unmarshal(get("/metrics").Body.Bytes(), &body); err != nil {
		t.Fatalf("decode JSON metrics: %v", err)
	}
	rec := get("/metrics?format=prometheus")
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("scrape content type %q", ct)
	}
	return body, rec.Body.String()
}

// TestPrometheusScrapeBothFronts parses the single server's and the
// cluster's scrapes, with and without a WAL, and holds each to the layout
// rules and to a one-to-one match with the JSON body of the same instant
// (the manual clock and a drained instance keep every value still).
func TestPrometheusScrapeBothFronts(t *testing.T) {
	for _, withWAL := range []bool{false, true} {
		shardCfg := func() server.Config {
			cfg := testShardConfig()
			cfg.Clock = faultinject.NewManualClock(time.Unix(1000, 0))
			if withWAL {
				cfg.WALDir = filepath.Join(t.TempDir(), "wal")
			}
			return cfg
		}
		t.Run(fmt.Sprintf("single/wal=%v", withWAL), func(t *testing.T) {
			s, err := server.New(shardCfg())
			if err != nil {
				t.Fatal(err)
			}
			for _, color := range []string{"red", "red", "blue"} {
				if err := s.Enqueue(server.Event{"color": color}); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Stop(ctx); err != nil {
				t.Fatal(err)
			}
			body, scrape := getBoth(t, s.Handler())
			if _, ok := body["wal_appends"]; ok != withWAL {
				t.Fatalf("wal_appends present = %v with WAL %v", ok, withWAL)
			}
			fams := parseScrape(t, scrape)
			checkSeries(t, "server", body, fams, "", map[string]string{})
			checkAllMatched(t, fams)
		})
		t.Run(fmt.Sprintf("cluster/wal=%v", withWAL), func(t *testing.T) {
			c := mustCluster(t, Config{Shards: 2, QuotaLimit: 1, QuotaWindow: time.Minute, Shard: shardCfg()})
			for _, tenant := range []string{"acme", "acme", `we"ird`, "multi\nline\\"} {
				if err := c.Ingest(server.Event{"tenant": tenant, "color": "red"}); err != nil && !errors.Is(err, ErrQuota) {
					t.Fatalf("ingest: %v", err)
				}
			}
			stopCluster(t, c)
			body, scrape := getBoth(t, c.Handler())
			if !strings.Contains(scrape, `armine_tenant_ingested_total{tenant="we\"ird",shard="`) ||
				!strings.Contains(scrape, `{tenant="multi\nline\\",shard="`) {
				t.Errorf("tenant label values not escaped:\n%s", scrape)
			}
			fams := parseScrape(t, scrape)
			checkSeries(t, "cluster", body, fams, "", map[string]string{})
			tenants, _ := body["tenants"].(map[string]any)
			if len(tenants) != 3 {
				t.Fatalf("%d tenants in the JSON body, want 3", len(tenants))
			}
			for name, raw := range tenants {
				entry, _ := raw.(map[string]any)
				shard := strconv.Itoa(int(entry["shard"].(float64)))
				checkSeries(t, "tenant "+name, entry, fams, "tenant_", map[string]string{"tenant": name, "shard": shard})
			}
			blocks, _ := body["shard"].([]any)
			for i, raw := range blocks {
				block, _ := raw.(map[string]any)
				if _, ok := block["wal_appends"]; ok != withWAL {
					t.Fatalf("shard %d wal_appends present = %v with WAL %v", i, ok, withWAL)
				}
				checkSeries(t, fmt.Sprintf("shard %d", i), block, fams, "shard_", map[string]string{"shard": strconv.Itoa(i)})
			}
			checkAllMatched(t, fams)
		})
	}
}
