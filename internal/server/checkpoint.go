package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/discretize"
	"repro/internal/faultinject"
	"repro/internal/itemset"
	"repro/internal/stream"
)

// The serving daemon's durable state: everything the mining loop fits or
// accumulates that a restart would otherwise silently re-derive from a
// different sample — bin edges, tier counts, prevalence shares, the interned
// catalog and the sliding window itself. A server restored from a checkpoint
// serves byte-identical /v1/rules to one that never restarted, and skips the
// bootstrap entirely.
//
// Checkpoints are generational: each save rotates the previous newest file
// to a .prev generation before publishing the new one, and each file wraps
// its payload in a CRC-32C envelope. Startup tries the newest generation
// first and falls back to the previous one when the newest fails its CRC or
// parse gate — a half-written or bit-rotted file costs one checkpoint
// interval of state, not a refused start. Only when no generation is
// restorable does New error out.

// checkpointVersion gates restores: a file written by an incompatible layout
// is an error, never a silent partial restore. Version 2 added the CRC
// envelope and the WALApplied watermark.
const checkpointVersion = 2

// checkpointFileName is the newest state file inside Config.StateDir;
// checkpointPrevFileName keeps the generation before it as the fallback.
const (
	checkpointFileName     = "serve-checkpoint.json"
	checkpointPrevFileName = "serve-checkpoint.prev.json"
	checkpointTempFileName = ".serve-checkpoint.tmp"
)

// checkpointCRC is the same Castagnoli polynomial the WAL frames use.
var checkpointCRC = crc32.MakeTable(crc32.Castagnoli)

// checkpointEnvelope is the on-disk wrapper: the CRC is computed over the
// payload's exact bytes, so any torn write or flipped bit fails the gate
// before a single field is trusted.
type checkpointEnvelope struct {
	Version int             `json:"version"`
	CRC32C  uint32          `json:"crc32c"`
	Payload json.RawMessage `json:"payload"`
}

type checkpointFile struct {
	SavedAt time.Time `json:"saved_at"`
	// Spec fingerprints the encoder configuration the state was fitted
	// under. Restoring into a differently-shaped spec would mis-apply every
	// discretizer, so a mismatch refuses the restore.
	Spec []string `json:"spec"`
	// Seq is the latest published snapshot's sequence number (0 if none).
	// The restored server republishes the re-mined window under this seq so
	// numbering continues instead of restarting at 1.
	Seq int64 `json:"seq"`
	// WALApplied is the WAL sequence number of the newest record whose
	// effect is inside this checkpoint. Recovery replays the WAL strictly
	// after it, so every record is applied exactly once across the restart.
	WALApplied uint64 `json:"wal_applied"`
	// Catalog is the interned item names in id order; Window holds the ring
	// transactions oldest-first as catalog ids; Total the all-time observed
	// count.
	Catalog []string            `json:"catalog"`
	Window  [][]itemset.Item    `json:"window"`
	Total   int                 `json:"total"`
	Encoder checkpointedEncoder `json:"encoder"`
}

// checkpointedEncoder is the serialized form of the online encoder: both the
// fitted artifacts (discretizers, tier maps) and the running accumulators
// (tier counts, prevalence counts, late/bootstrap sample buffers) that make
// future encoding decisions deterministic across the restart.
type checkpointedEncoder struct {
	Fitted     bool                         `json:"fitted"`
	Disc       map[string]json.RawMessage   `json:"disc,omitempty"`
	Pending    []Event                      `json:"pending,omitempty"`
	Samples    map[string][]float64         `json:"samples,omitempty"`
	Late       map[string][]float64         `json:"late,omitempty"`
	TierCounts map[string]map[string]int    `json:"tier_counts,omitempty"`
	TierMaps   map[string]map[string]string `json:"tier_maps,omitempty"`
	SinceTier  int                          `json:"since_tier"`
	ItemCounts map[string]int               `json:"item_counts,omitempty"`
	Txns       int                          `json:"txns"`
}

// specFingerprint lists the spec's field-level shape in a stable order.
func (idx *specIndex) specFingerprint() []string {
	var out []string
	for f := range idx.numeric {
		out = append(out, "numeric:"+f)
	}
	for f, t := range idx.tier {
		out = append(out, "tier:"+f+">"+t.Out)
	}
	for f, m := range idx.maps {
		out = append(out, "map:"+f+">"+m.Out)
	}
	for f := range idx.boolCSV {
		out = append(out, "bool:"+f)
	}
	for f := range idx.skip {
		out = append(out, "skip:"+f)
	}
	sort.Strings(out)
	return out
}

func checkpointPath(dir string) string {
	return filepath.Join(dir, checkpointFileName)
}

func checkpointPrevPath(dir string) string {
	return filepath.Join(dir, checkpointPrevFileName)
}

// exportState captures the encoder for a checkpoint. Owned by the mining
// loop, like every other encoder method.
func (e *encoder) exportState() (checkpointedEncoder, error) {
	st := checkpointedEncoder{
		Fitted:     e.fitted,
		Pending:    e.pending,
		Samples:    e.samples,
		Late:       e.late,
		TierCounts: e.tierCounts,
		TierMaps:   e.tierMaps,
		SinceTier:  e.sinceTier,
		ItemCounts: e.itemCounts,
		Txns:       e.txns,
	}
	if len(e.disc) > 0 {
		st.Disc = make(map[string]json.RawMessage, len(e.disc))
		for field, d := range e.disc {
			raw, err := d.Marshal()
			if err != nil {
				return checkpointedEncoder{}, fmt.Errorf("marshal discretizer %q: %w", field, err)
			}
			st.Disc[field] = raw
		}
	}
	return st, nil
}

// restoreState rebuilds the encoder from a checkpoint. The encoder must be
// freshly constructed (newEncoder) when this is called.
func (e *encoder) restoreState(st checkpointedEncoder) error {
	e.fitted = st.Fitted
	e.pending = st.Pending
	e.sinceTier = st.SinceTier
	e.txns = st.Txns
	if st.Samples != nil {
		e.samples = st.Samples
	}
	if e.fitted {
		e.samples = nil
	}
	if st.Late != nil {
		e.late = st.Late
	}
	if st.TierCounts != nil {
		e.tierCounts = st.TierCounts
	}
	if st.TierMaps != nil {
		e.tierMaps = st.TierMaps
	}
	if st.ItemCounts != nil {
		e.itemCounts = st.ItemCounts
	}
	for field, raw := range st.Disc {
		if _, declared := e.idx.numeric[field]; !declared {
			return fmt.Errorf("checkpointed discretizer %q is not in the spec", field)
		}
		d, err := discretize.Unmarshal(raw)
		if err != nil {
			return fmt.Errorf("restore discretizer %q: %w", field, err)
		}
		e.disc[field] = d
	}
	return nil
}

// saveCheckpoint writes the full serving state to StateDir atomically and
// generationally: marshal into a CRC envelope, write+fsync a temp file in
// the same directory, rotate the current newest file to the .prev
// generation, then rename the temp file into place. A crash at any point
// leaves at least one complete, CRC-valid generation on disk. Called only
// from the mining loop, which owns miner and enc. All file operations go
// through the faultinject seam so chaos tests can crash mid-sequence.
func (s *Server) saveCheckpoint(miner *stream.Miner, enc *encoder) error {
	window, total := miner.Export()
	encState, err := enc.exportState()
	if err != nil {
		return err
	}
	var seq int64
	if snap := s.snap.Load(); snap != nil {
		seq = snap.Seq
	}
	cp := checkpointFile{
		SavedAt:    s.clock.Now().UTC(),
		Spec:       s.idx.specFingerprint(),
		Seq:        seq,
		WALApplied: s.lastApplied.Load(),
		Catalog:    miner.Catalog().Export(),
		Window:     make([][]itemset.Item, len(window)),
		Total:      total,
		Encoder:    encState,
	}
	for i, txn := range window {
		cp.Window[i] = txn
	}
	payload, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("marshal checkpoint: %w", err)
	}
	data, err := json.Marshal(checkpointEnvelope{
		Version: checkpointVersion,
		CRC32C:  crc32.Checksum(payload, checkpointCRC),
		Payload: payload,
	})
	if err != nil {
		return fmt.Errorf("marshal checkpoint envelope: %w", err)
	}
	if err := s.fs.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		return fmt.Errorf("create state dir: %w", err)
	}
	tmpPath := filepath.Join(s.cfg.StateDir, checkpointTempFileName)
	tmp, err := s.fs.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("create temp checkpoint: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		//armlint:allow syncerr the write error propagates; the temp file is recreated O_TRUNC on the next attempt
		_ = tmp.Close()
		return fmt.Errorf("write checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		//armlint:allow syncerr the sync error propagates; the temp file is recreated O_TRUNC on the next attempt
		_ = tmp.Close()
		return fmt.Errorf("sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("close checkpoint: %w", err)
	}
	// Rotate generations: the current newest becomes the fallback, then the
	// temp file becomes the newest. If we crash between the two renames the
	// .prev file still holds a complete checkpoint and startup falls back to
	// it.
	newest := checkpointPath(s.cfg.StateDir)
	if err := s.fs.Rename(newest, checkpointPrevPath(s.cfg.StateDir)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("rotate checkpoint generation: %w", err)
	}
	if err := s.fs.Rename(tmpPath, newest); err != nil {
		return fmt.Errorf("publish checkpoint: %w", err)
	}
	if err := s.fs.SyncDir(s.cfg.StateDir); err != nil {
		return fmt.Errorf("sync state dir: %w", err)
	}
	return nil
}

// loadCheckpoints reads the checkpoint generations under dir, newest first,
// returning every one that passes the envelope gate (version, CRC, parse)
// plus the errors from the ones that did not. Missing files are not errors;
// a dir with no generation at all returns (nil, nil) and the server starts
// cold.
func loadCheckpoints(fsys faultinject.FS, dir string) ([]*checkpointFile, []error) {
	var (
		out  []*checkpointFile
		errs []error
	)
	for _, path := range []string{checkpointPath(dir), checkpointPrevPath(dir)} {
		cp, err := loadCheckpointFile(fsys, path)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", filepath.Base(path), err))
			continue
		}
		if cp != nil {
			out = append(out, cp)
		}
	}
	return out, errs
}

// loadCheckpointFile reads and gates one generation. A missing file returns
// (nil, nil).
func loadCheckpointFile(fsys faultinject.FS, path string) (*checkpointFile, error) {
	data, err := fsys.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("read checkpoint: %w", err)
	}
	return parseCheckpoint(data)
}

// parseCheckpoint gates one generation's bytes: the envelope must parse,
// carry the current version and a CRC matching its payload, and the
// payload must parse. Nothing in it is trusted until restore checks it
// against the spec.
func parseCheckpoint(data []byte) (*checkpointFile, error) {
	var env checkpointEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("parse checkpoint: %w", err)
	}
	if env.Version != checkpointVersion {
		return nil, fmt.Errorf("checkpoint version %d, want %d", env.Version, checkpointVersion)
	}
	if got := crc32.Checksum(env.Payload, checkpointCRC); got != env.CRC32C {
		return nil, fmt.Errorf("checkpoint CRC mismatch: file says %08x, payload hashes to %08x", env.CRC32C, got)
	}
	var cp checkpointFile
	if err := json.Unmarshal(env.Payload, &cp); err != nil {
		return nil, fmt.Errorf("parse checkpoint payload: %w", err)
	}
	return &cp, nil
}

// restore applies a loaded checkpoint: rebuild the catalog, refill the
// window, and rehydrate the encoder. Returns the miner to hand to the loop
// and the seq to republish under.
func (s *Server) restore(cp *checkpointFile, enc *encoder) (*stream.Miner, int64, error) {
	want := s.idx.specFingerprint()
	if !equalStrings(cp.Spec, want) {
		return nil, 0, fmt.Errorf("checkpoint was written under a different spec (got %v, want %v); move or delete %s to start cold",
			cp.Spec, want, checkpointFileName)
	}
	catalog, err := itemset.RestoreCatalog(cp.Catalog)
	if err != nil {
		return nil, 0, err
	}
	miner, err := stream.New(catalog, s.streamConfig())
	if err != nil {
		return nil, 0, err
	}
	window := make([]itemset.Set, len(cp.Window))
	for i, txn := range cp.Window {
		for _, it := range txn {
			if int(it) < 0 || int(it) >= catalog.Len() {
				return nil, 0, fmt.Errorf("checkpoint window transaction %d references item %d outside the catalog", i, it)
			}
		}
		window[i] = itemset.Set(txn)
	}
	if err := miner.RestoreWindow(window, cp.Total); err != nil {
		return nil, 0, err
	}
	if err := enc.restoreState(cp.Encoder); err != nil {
		return nil, 0, err
	}
	return miner, cp.Seq, nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
