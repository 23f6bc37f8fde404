package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serveProc is one launched cmd/serve process.
type serveProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	dir    string // per-launch directory: log, state, WAL
	exited chan struct{}
	log    *os.File
	once   sync.Once
}

// launch starts bin with args plus a free loopback -addr and waits until
// /healthz answers. dir is created fresh and holds the process log.
func launch(bin, dir string, args []string) (*serveProc, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "serve.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start serve: %w", err)
	}
	p := &serveProc{cmd: cmd, base: "http://" + addr, dir: dir, exited: make(chan struct{}), log: logf}
	go func() {
		_ = cmd.Wait()
		close(p.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := probe.Get(p.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-p.exited:
			logf.Close()
			return nil, fmt.Errorf("serve exited during start-up; see %s", logf.Name())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("serve did not become healthy within 30s")
		}
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// stop drains the server with SIGTERM, kills it if the drain hangs, and
// returns once the process has exited.
func (p *serveProc) stop() {
	p.once.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.exited:
		case <-time.After(20 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.exited
		}
		p.log.Close()
	})
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MB.
func (p *serveProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// client is one keep-alive HTTP connection to the server: the transport
// allows a single connection, so requests on one client are serialized the
// way a single real client's would be.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

type reply struct {
	status int
	body   []byte
	etag   string
	err    error
}

func (r reply) ok() bool {
	return r.err == nil && (r.status == http.StatusOK || r.status == http.StatusNotModified)
}

func (c *client) do(method, path, ctype string, body []byte, ifNoneMatch string) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{err: err}
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: data, etag: resp.Header.Get("Etag"), err: err}
}

// snapshotHead is the part of a /v1/rules body the harness reads: how many
// events the answering snapshot covers and how many rules it holds.
type snapshotHead struct {
	Total     int `json:"observed_total"`
	RuleCount int `json:"rule_count"`
}

func parseHead(body []byte) (snapshotHead, error) {
	var h snapshotHead
	err := json.Unmarshal(body, &h)
	return h, err
}

// ingestReply is the part of a POST /v1/jobs body the harness reads.
type ingestReply struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
}

// metrics fetches /metrics as a generic map.
func (c *client) metrics() (map[string]any, error) {
	r := c.do("GET", "/metrics", "", nil, "")
	if r.err != nil {
		return nil, r.err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", r.status)
	}
	var m map[string]any
	err := json.Unmarshal(r.body, &m)
	return m, err
}
