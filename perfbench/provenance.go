package main

import (
	"bufio"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// provenance tags every run with the machine and the code it measured, so
// numbers from different machines or builds are never compared by accident.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func (p provenance) String() string {
	return fmt.Sprintf("workload=%s seed=%d seconds=%d traced=%v cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		p.Workload, p.Seed, p.Seconds, p.Traced, p.CPU, p.NumCPU, p.GOMAXPROCS, p.GoVersion, p.Commit)
}

func collectProvenance(o options) provenance {
	return provenance{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Traced:     o.trace,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitOf(o.serve),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitOf names the code under test: the VCS revision the Go toolchain
// stamped into the serve binary when it was built inside a git work tree,
// otherwise a hash of the Go sources in the working directory (a benchmark
// checkout need not be a repository).
func commitOf(serveBin string) string {
	if bi, err := buildinfo.ReadFile(serveBin); err == nil {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	root, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	h := sha256.New()
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
