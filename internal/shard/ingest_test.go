package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
)

// ingestFront is one deployment that serves POST /v1/jobs: both go through
// server.ServeIngest, so both must answer every case below alike.
type ingestFront struct {
	name string
	// start serves cfg and registers its shutdown with t.Cleanup.
	start func(t *testing.T, cfg server.Config) (http.Handler, func(context.Context) error)
	// rejectedKey is the /metrics counter of refused lines.
	rejectedKey string
}

var ingestFronts = []ingestFront{
	{
		name: "server",
		start: func(t *testing.T, cfg server.Config) (http.Handler, func(context.Context) error) {
			s, err := server.New(cfg)
			if err != nil {
				t.Fatalf("server.New: %v", err)
			}
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				_ = s.Stop(ctx)
			})
			return s.Handler(), s.Stop
		},
		rejectedKey: "ingest_rejected",
	},
	{
		name: "cluster",
		start: func(t *testing.T, cfg server.Config) (http.Handler, func(context.Context) error) {
			c := mustCluster(t, Config{Shards: 2, Shard: cfg})
			return c.Handler(), c.Stop
		},
		rejectedKey: "rejected_total",
	},
}

// ingestResponse is the POST /v1/jobs body as a client reads it.
type ingestResponse struct {
	Accepted      int    `json:"accepted"`
	Rejected      int    `json:"rejected"`
	DroppedAtLine int    `json:"dropped_at_line"`
	Error         string `json:"error"`
}

// lineReader hands out one line per Read and calls stop before the line
// after the first n: a drain that begins partway through a request body.
type lineReader struct {
	lines []string
	n     int
	stop  func()
}

func (r *lineReader) Read(p []byte) (int, error) {
	if len(r.lines) == 0 {
		return 0, io.EOF
	}
	if r.n == 0 && r.stop != nil {
		r.stop()
		r.stop = nil
	}
	r.n--
	line := r.lines[0] + "\n"
	r.lines = r.lines[1:]
	return copy(p, line), nil
}

// stallingDisk blocks every Rename until release is closed. A checkpoint
// ends in a rename, so the mining loop stalls after its first mine and the
// ingest queue fills behind it.
type stallingDisk struct {
	faultinject.FS
	release chan struct{}
}

func (d *stallingDisk) Rename(oldpath, newpath string) error {
	<-d.release
	return d.FS.Rename(oldpath, newpath)
}

// failingDisk fails the nth file write and every one after it: a disk that
// fills up after n-1 WAL appends.
type failingDisk struct {
	faultinject.FS
	n      int64
	writes atomic.Int64
}

func (d *failingDisk) OpenFile(name string, flag int, perm os.FileMode) (faultinject.File, error) {
	f, err := d.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &failingFile{File: f, disk: d}, nil
}

type failingFile struct {
	faultinject.File
	disk *failingDisk
}

func (f *failingFile) Write(p []byte) (int, error) {
	if f.disk.writes.Add(1) >= f.disk.n {
		return 0, errors.New("no space left on device")
	}
	return f.File.Write(p)
}

// TestIngestContract runs one table of POST /v1/jobs cases against the
// single server and the shard cluster: the status, the Retry-After header,
// the partial result and the /metrics rejection count must agree on both.
func TestIngestContract(t *testing.T) {
	good := func(i int) string { return `{"color":"c` + string(rune('a'+i%26)) + `"}` }
	goodLines := func(n int) []string {
		lines := make([]string, n)
		for i := range lines {
			lines[i] = good(i)
		}
		return lines
	}
	cases := []struct {
		name string
		// setup returns the config and, when the case holds the mining
		// loop, the func that lets it go again.
		setup func(t *testing.T) (server.Config, func())
		body  func(stop func()) io.Reader
		check func(t *testing.T, status int, header http.Header, res ingestResponse)
	}{
		{
			name: "mixed batch",
			setup: func(t *testing.T) (server.Config, func()) {
				cfg := testShardConfig()
				cfg.Spec = server.Spec{Numeric: []server.NumericSpec{{Field: "util"}}}
				return cfg, nil
			},
			body: func(func()) io.Reader {
				return strings.NewReader(strings.Join([]string{
					`{"util":5}`, `{not json`, `{"surprise":1.5}`, `{"util":7}`,
				}, "\n"))
			},
			check: func(t *testing.T, status int, _ http.Header, res ingestResponse) {
				if status != http.StatusOK || res.Accepted != 2 || res.Rejected != 2 {
					t.Errorf("status %d, result %+v; want 200 with 2 accepted, 2 rejected", status, res)
				}
			},
		},
		{
			name: "over-long line",
			setup: func(t *testing.T) (server.Config, func()) {
				return testShardConfig(), nil
			},
			body: func(func()) io.Reader {
				var b bytes.Buffer
				b.WriteString(good(0) + "\n" + good(1) + "\n")
				b.WriteString(`{"pad":"` + strings.Repeat("x", 1<<20) + `"}` + "\n")
				b.WriteString(good(2) + "\n")
				return &b
			},
			check: func(t *testing.T, status int, _ http.Header, res ingestResponse) {
				if status != http.StatusBadRequest || res.Accepted != 2 || res.DroppedAtLine != 3 ||
					!strings.Contains(res.Error, "token too long") {
					t.Errorf("status %d, result %+v; want 400, 2 accepted, dropped at line 3", status, res)
				}
			},
		},
		{
			name: "queue full",
			setup: func(t *testing.T) (server.Config, func()) {
				disk := &stallingDisk{FS: faultinject.OS(), release: make(chan struct{})}
				cfg := testShardConfig()
				cfg.StateDir = t.TempDir()
				cfg.FS = disk
				cfg.MineBatch = 1
				cfg.QueueSize = 1
				var once sync.Once
				return cfg, func() { once.Do(func() { close(disk.release) }) }
			},
			body: func(func()) io.Reader { return strings.NewReader(strings.Join(goodLines(10), "\n")) },
			check: func(t *testing.T, status int, header http.Header, res ingestResponse) {
				// The loop may take the first event before or after the
				// second arrives, so the queue fills at line 2 or 3.
				if status != http.StatusTooManyRequests || res.Accepted < 1 || res.DroppedAtLine != res.Accepted+1 {
					t.Errorf("status %d, result %+v; want 429 dropped right after the accepted prefix", status, res)
				}
				if got := header.Get("Retry-After"); got != "3600" {
					t.Errorf("Retry-After %q, want 3600 (the one-hour mine interval)", got)
				}
			},
		},
		{
			name: "WAL append failure",
			setup: func(t *testing.T) (server.Config, func()) {
				cfg := testShardConfig()
				cfg.WALDir = t.TempDir()
				cfg.Fsync = "never"
				cfg.FS = &failingDisk{FS: faultinject.OS(), n: 2}
				return cfg, nil
			},
			body: func(func()) io.Reader { return strings.NewReader(strings.Join(goodLines(3), "\n")) },
			check: func(t *testing.T, status int, _ http.Header, res ingestResponse) {
				if status != http.StatusServiceUnavailable || res.Accepted != 1 || res.DroppedAtLine != 2 {
					t.Errorf("status %d, result %+v; want 503, 1 accepted, dropped at line 2", status, res)
				}
			},
		},
		{
			name: "drain mid-body",
			setup: func(t *testing.T) (server.Config, func()) {
				return testShardConfig(), nil
			},
			body: func(stop func()) io.Reader { return &lineReader{lines: goodLines(4), n: 2, stop: stop} },
			check: func(t *testing.T, status int, _ http.Header, res ingestResponse) {
				if status != http.StatusServiceUnavailable || res.Accepted != 2 || res.DroppedAtLine != 3 ||
					res.Error != "server is draining" {
					t.Errorf("status %d, result %+v; want 503 naming the 2 accepted lines and dropped at line 3", status, res)
				}
			},
		},
	}
	for _, front := range ingestFronts {
		for _, tc := range cases {
			t.Run(front.name+"/"+tc.name, func(t *testing.T) {
				cfg, release := tc.setup(t)
				h, stop := front.start(t, cfg)
				if release != nil {
					t.Cleanup(release) // before the shutdown start registered
				}
				drain := func() {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					if err := stop(ctx); err != nil {
						t.Errorf("stop: %v", err)
					}
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", tc.body(drain)))
				var res ingestResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
					t.Fatalf("status %d, body %q: %v", rec.Code, rec.Body, err)
				}
				tc.check(t, rec.Code, rec.Header(), res)

				// Every refused line is counted, parse failures included.
				mrec := httptest.NewRecorder()
				h.ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
				var m map[string]any
				if err := json.Unmarshal(mrec.Body.Bytes(), &m); err != nil {
					t.Fatalf("metrics: %v", err)
				}
				if got := m[front.rejectedKey]; got != float64(res.Rejected) {
					t.Errorf("%s = %v, want %d", front.rejectedKey, got, res.Rejected)
				}
			})
		}
	}
}
