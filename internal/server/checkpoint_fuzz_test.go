package server

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"testing"
	"time"
)

// fuzzCheckpointConfig is the server shape both the seed checkpoint and
// the fuzzed restores use: one field of every spec kind, so the seed
// carries discretizer, tier, map and prevalence state.
func fuzzCheckpointConfig(stateDir string) Config {
	return Config{
		Spec: Spec{
			Numeric: []NumericSpec{{Field: "util", ZeroSpecial: true}},
			Tiers:   []TierSpec{{Field: "user"}},
			Maps:    []MapSpec{{Field: "gpu", Out: "gpu_family", Groups: map[string]string{"V100": "volta"}, Fallback: "other"}},
			Bools:   []string{"multi"},
			Skip:    []string{"job_id"},
		},
		WindowSize:   16,
		Bootstrap:    6,
		MineBatch:    8,
		MineInterval: time.Hour,
		StateDir:     stateDir,
	}
}

// seedCheckpoint runs a server over a short stream, drains it, and returns
// the checkpoint file the drain left behind.
func seedCheckpoint(f *testing.F) []byte {
	dir := f.TempDir()
	s, err := New(fuzzCheckpointConfig(dir))
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		ev := Event{
			"job_id": fmt.Sprint(i),
			"util":   float64(i % 7),
			"user":   fmt.Sprintf("u%d", i%5),
			"gpu":    []string{"V100", "T4"}[i%2],
			"multi":  i%3 == 0,
			"status": []string{"ok", "failed"}[i%4/3],
		}
		if err := s.Enqueue(ev); err != nil {
			f.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(checkpointPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// sealCheckpoint wraps payload in a current-version envelope with a
// matching CRC, so mutated payloads get past the gate into restore.
func sealCheckpoint(payload []byte) []byte {
	data, err := json.Marshal(checkpointEnvelope{
		Version: checkpointVersion,
		CRC32C:  crc32.Checksum(payload, checkpointCRC),
		Payload: payload,
	})
	if err != nil {
		return nil // payload is not valid JSON: nothing to seal
	}
	return data
}

// FuzzCheckpointLoad feeds arbitrary bytes through what startup does with a
// state file: the envelope gate, then restore into a fresh encoder and
// miner. Each input is tried as a whole file and, sealed with a valid CRC,
// as a payload. Properties: nothing panics; every input is either rejected
// with an error or restored into a miner whose window holds at most
// WindowSize transactions of catalog items, and an encoder that takes the
// next event and a flush.
func FuzzCheckpointLoad(f *testing.F) {
	seed := seedCheckpoint(f)
	f.Add(seed)
	var env checkpointEnvelope
	if err := json.Unmarshal(seed, &env); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(env.Payload))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte("{not json"))

	cfg := fuzzCheckpointConfig("").withDefaults()
	s := &Server{cfg: cfg, idx: newSpecIndex(cfg.Spec)}
	// The seed must get all the way through restore, or the target would
	// only ever exercise the gate.
	if cp, err := parseCheckpoint(seed); err != nil {
		f.Fatal(err)
	} else if _, _, err := s.restore(cp, newEncoder(s.idx, cfg.Bootstrap, cfg.MaxPrevalence, cfg.KeepItems)); err != nil {
		f.Fatal(err)
	}
	next := Event{"util": 3.0, "user": "u1", "gpu": "V100", "multi": true, "status": "ok"}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, sealCheckpoint(data)} {
			cp, err := parseCheckpoint(file)
			if err != nil {
				continue
			}
			enc := newEncoder(s.idx, cfg.Bootstrap, cfg.MaxPrevalence, cfg.KeepItems)
			miner, _, err := s.restore(cp, enc)
			if err != nil {
				continue
			}
			if miner == nil {
				t.Fatal("restore returned neither a miner nor an error")
			}
			window, _ := miner.Export()
			if len(window) > cfg.WindowSize {
				t.Fatalf("restored window holds %d transactions, WindowSize is %d", len(window), cfg.WindowSize)
			}
			for _, txn := range window {
				for _, it := range txn {
					if int(it) < 0 || int(it) >= miner.Catalog().Len() {
						t.Fatalf("restored window references item %d outside a catalog of %d", it, miner.Catalog().Len())
					}
				}
			}
			enc.add(next)
			enc.flush()
		}
	})
}
