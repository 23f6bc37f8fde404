package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/shard"
)

// TestMain doubles as the child process for the SIGTERM test: when
// SERVE_CHILD=1 the test binary runs a real serve daemon (the same start()
// main uses, sharded when SERVE_SHARDS > 1) instead of the test suite, so
// the parent can exercise actual signal delivery across a process boundary.
func TestMain(m *testing.M) {
	if os.Getenv("SERVE_CHILD") == "1" {
		childMain()
		return
	}
	os.Exit(m.Run())
}

func childMain() {
	o := baseOptions()
	o.spec = "generic" // strings pass through as field=value items
	o.bootstrap = 10
	o.mineInterval = time.Hour // only the drain mine may publish
	o.mineBatch = 1 << 20
	cfg, err := buildConfig(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(1)
	}
	var ccfg *shard.Config
	if n, _ := strconv.Atoi(os.Getenv("SERVE_SHARDS")); n > 1 {
		ccfg = &shard.Config{Shards: n, Shard: cfg}
	}
	if err := start(os.Getenv("SERVE_ADDR"), cfg, ccfg); err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// TestSIGTERMGracefulDrain sends a real SIGTERM to a real serve process and
// requires a clean exit that drained the queue: every ingested event must
// be in the final snapshot the shutdown path prints. The single server and
// a 2-shard cluster share that lifecycle, so both run it.
func TestSIGTERMGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testSIGTERMGracefulDrain(t, shards) })
	}
}

func testSIGTERMGracefulDrain(t *testing.T, shards int) {
	// Reserve a port for the child. Closing the listener races with the
	// child's bind in principle, but the window is tiny and local.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SERVE_CHILD=1", "SERVE_ADDR="+addr, fmt.Sprintf("SERVE_SHARDS=%d", shards))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("child never became healthy:\n%s", out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	var body bytes.Buffer
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&body, `{"tenant":"t%d","node":"n%d","status":"ok"}`+"\n", i%3, i%4)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("child exited uncleanly: %v\n%s", err, out.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("child did not exit after SIGTERM\n%s", out.String())
	}
	// The drain mined one final snapshot over everything ingested: the
	// mine interval is an hour, so only the shutdown path can have
	// published it.
	if !strings.Contains(out.String(), "observed=40") {
		t.Errorf("final snapshot missing the drained events:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "draining ingest queue") {
		t.Errorf("shutdown path did not announce the drain:\n%s", out.String())
	}
}

func baseOptions() options {
	return options{
		spec: "pai", window: 1000,
		minSupport: 0.05, minLift: 1.5, maxLen: 5, cLift: 1.5, cSupp: 1.5,
		mineInterval: time.Second, mineBatch: 500, queue: 1024, bootstrap: 100,
		skips: []string{"job_id", "submit_s", "num_tasks"},
	}
}

func TestBuildConfigPAI(t *testing.T) {
	cfg, err := buildConfig(baseOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Spec.Numeric) == 0 || len(cfg.Spec.Tiers) == 0 {
		t.Errorf("PAI spec incomplete: %+v", cfg.Spec)
	}
	if cfg.WindowSize != 1000 || cfg.MineBatch != 500 {
		t.Errorf("sizing flags not applied: %+v", cfg)
	}
}

func TestBuildConfigGeneric(t *testing.T) {
	o := baseOptions()
	o.spec = "generic"
	o.numeric = []string{"gpu_util", "runtime_s"}
	o.zeros = []string{"gpu_util"}
	o.spikes = []string{"runtime_s"}
	o.tiers = []string{"user"}
	o.bools = []string{"retried"}
	cfg, err := buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Spec.Numeric) != 2 {
		t.Fatalf("numeric specs = %+v", cfg.Spec.Numeric)
	}
	for _, n := range cfg.Spec.Numeric {
		switch n.Field {
		case "gpu_util":
			if !n.ZeroSpecial || n.SpikeThreshold != 0 {
				t.Errorf("gpu_util spec = %+v", n)
			}
		case "runtime_s":
			if n.ZeroSpecial || n.SpikeThreshold == 0 {
				t.Errorf("runtime_s spec = %+v", n)
			}
		}
	}
	if len(cfg.Spec.Tiers) != 1 || cfg.Spec.Tiers[0].Field != "user" {
		t.Errorf("tiers = %+v", cfg.Spec.Tiers)
	}
}

func TestBuildConfigUnknownSpec(t *testing.T) {
	o := baseOptions()
	o.spec = "bogus"
	if _, err := buildConfig(o); err == nil {
		t.Error("unknown spec should error")
	}
}

// TestServeWiring drives the exact configuration main builds through one
// ingest + query cycle, covering the glue (spec flags -> server.Config ->
// handler) without binding a real port.
func TestServeWiring(t *testing.T) {
	o := baseOptions()
	o.spec = "generic"
	o.numeric = []string{"gpu_util"}
	o.tiers = []string{"user"}
	o.bootstrap = 20
	cfg, err := buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MineBatch = 20
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var body bytes.Buffer
	for i := 0; i < 40; i++ {
		util := 90.0
		if i%2 == 0 {
			util = 5.0
		}
		line, _ := json.Marshal(map[string]any{"user": "u1", "gpu_util": util, "status": "ok"})
		body.Write(line)
		body.WriteByte('\n')
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot() == nil {
		if time.Now().After(deadline) {
			t.Fatal("no snapshot published")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestBuildConfigDurabilityFlags(t *testing.T) {
	o := baseOptions()
	o.stateDir = "/var/lib/armine"
	o.keep = []string{"status=failed", "status=terminated"}
	cfg, err := buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.StateDir != "/var/lib/armine" {
		t.Errorf("StateDir = %q", cfg.StateDir)
	}
	if len(cfg.KeepItems) != 2 || cfg.KeepItems[0] != "status=failed" {
		t.Errorf("KeepItems = %v", cfg.KeepItems)
	}
}

func TestBuildConfigWALFlags(t *testing.T) {
	o := baseOptions()
	o.stateDir = "/var/lib/armine"
	o.walDir = "/var/lib/armine/wal"
	o.fsync = "always"
	o.mineTimeout = 30 * time.Second
	cfg, err := buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.WALDir != "/var/lib/armine/wal" || cfg.Fsync != "always" {
		t.Errorf("WAL flags not applied: dir=%q fsync=%q", cfg.WALDir, cfg.Fsync)
	}
	if cfg.MineTimeout != 30*time.Second {
		t.Errorf("MineTimeout = %v", cfg.MineTimeout)
	}
	// Without a state dir nothing ever truncates the WAL: refused.
	o.stateDir = ""
	if _, err := buildConfig(o); err == nil || !strings.Contains(err.Error(), "-state-dir") {
		t.Errorf("-wal-dir without -state-dir: err = %v, want a refusal naming -state-dir", err)
	}
}

// TestKeepItemSurvivesPrevalenceDrop: in a failure-heavy window status=failed
// crosses the 80% running-prevalence ceiling and the online drop deletes the
// very keyword an operator is studying. -keep exempts it: with the flag the
// rule table carries high-support rules about the item; without it only the
// few pre-floor occurrences remain and no such rule can exist.
func TestKeepItemSurvivesPrevalenceDrop(t *testing.T) {
	const jobs = 400
	run := func(keep []string) []map[string]any {
		o := baseOptions()
		o.spec = "generic" // no declared fields: strings pass through as field=value
		o.minLift = 1.05   // an 87.5%-share consequent caps lift at ~1.14
		o.bootstrap = 10
		o.keep = keep
		cfg, err := buildConfig(o)
		if err != nil {
			t.Fatal(err)
		}
		cfg.MineBatch = jobs
		cfg.MineInterval = time.Hour
		s, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		// 87.5% of jobs fail; node=n1 occurs only on failed jobs (37.5%
		// share), so n1 => failed holds with confidence 1 and lift 1/0.875.
		var body bytes.Buffer
		for i := 0; i < jobs; i++ {
			ev := map[string]any{"status": "failed", "node": "n2"}
			if i%8 == 0 {
				ev["status"] = "ok"
			} else if i%2 == 0 {
				ev["node"] = "n1"
			}
			line, _ := json.Marshal(ev)
			body.Write(line)
			body.WriteByte('\n')
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/x-ndjson", &body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if snap := s.Snapshot(); snap != nil && snap.View.Total == jobs {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("no snapshot over the full stream")
			}
			time.Sleep(5 * time.Millisecond)
		}
		resp, err = http.Get(ts.URL + "/v1/rules?limit=100000")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Rules []map[string]any `json:"rules"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Stop(ctx); err != nil {
			t.Fatal(err)
		}
		return out.Rules
	}

	mentionsFailed := func(r map[string]any) bool {
		for _, side := range []string{"antecedent", "consequent"} {
			items, _ := r[side].([]any)
			for _, it := range items {
				if it == "status=failed" {
					return true
				}
			}
		}
		return false
	}

	// With -keep: the n1 => failed association survives at its true support.
	kept := run([]string{"status=failed"})
	found := false
	for _, r := range kept {
		if mentionsFailed(r) && r["support"].(float64) >= 0.3 {
			found = true
		}
	}
	if !found {
		t.Errorf("with -keep status=failed, no high-support rule mentions it (%d rules)", len(kept))
	}

	// Without -keep the item is dropped once prevalence tracking kicks in;
	// only the few early transactions can mention it, far below 0.3 support.
	control := run(nil)
	for _, r := range control {
		if mentionsFailed(r) && r["support"].(float64) >= 0.3 {
			t.Errorf("without -keep, high-support rule still mentions status=failed: %v", r)
		}
	}
}

// TestClusterWiring drives the sharded mode end to end through the same
// config path main uses: tenant-keyed ingest over HTTP, merged and
// per-tenant rule views, and the prometheus scrape surface.
func TestClusterWiring(t *testing.T) {
	o := baseOptions()
	o.spec = "generic"
	o.bootstrap = 1
	o.mineInterval = time.Hour // only the drain mine publishes
	o.mineBatch = 1 << 20
	cfg, err := buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxPrevalence = 1
	c, err := shard.New(shard.Config{Shards: 3, Shard: cfg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	var body bytes.Buffer
	for i := 0; i < 60; i++ {
		line, _ := json.Marshal(map[string]any{
			"tenant": fmt.Sprintf("t%d", i%5),
			"status": "ok",
			"color":  []string{"red", "blue"}[i%2],
		})
		body.Write(line)
		body.WriteByte('\n')
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Stop(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(ts.URL + "/v1/rules")
	if err != nil {
		t.Fatal(err)
	}
	var merged struct {
		Shards    int `json:"shards"`
		WindowLen int `json:"window_len"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&merged); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || merged.Shards != 3 || merged.WindowLen != 60 {
		t.Fatalf("merged rules: status %d body %+v", resp.StatusCode, merged)
	}

	resp, err = http.Get(ts.URL + "/v1/tenants/t0/rules")
	if err != nil {
		t.Fatal(err)
	}
	var tenant struct {
		Tenant string `json:"tenant"`
		Shard  *int   `json:"shard"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tenant); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tenant.Tenant != "t0" || tenant.Shard == nil {
		t.Fatalf("tenant view: %+v", tenant)
	}

	resp, err = http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(scrape), "armine_shards 3") {
		t.Fatalf("scrape output missing shard gauge:\n%s", scrape)
	}
}
