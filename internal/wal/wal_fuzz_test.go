package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// FuzzWALReplay appends records, damages the segment files as the input
// says, then recovers the log the way a restarted server does: an Open
// followed by a full Replay.
//
// records picks how many records are appended (the "record-%04d" payloads
// the unit tests use), segBytes the segment size (0 keeps one segment).
// edits is read in 5-byte steps {op, segment, offset hi, offset lo, value}:
// an even op overwrites one byte with value, an odd op truncates the
// segment at the offset; both wrap to the segment's size.
//
// Properties:
//   - recovery never panics and never errors;
//   - replayed seqs strictly increase;
//   - replayed payloads are appended ones, in append order: nothing
//     invented, duplicated or reordered;
//   - with no counted corruption every replayed payload is the one appended
//     under that seq, the replay is a prefix of the log, and appends carry
//     on right after it;
//   - with no counted corruption, no torn tail and the newest segment not
//     cut, every record is replayed.
func FuzzWALReplay(f *testing.F) {
	// The shapes of the unit tests: a clean round trip, a torn tail, a
	// flipped payload byte of record 3, tiny rotating segments with a cut
	// sealed segment, and a length field rewritten to swallow the next frame.
	f.Add(uint8(5), uint8(0), []byte{})
	f.Add(uint8(3), uint8(0), []byte{1, 0, 0, 50, 0})
	f.Add(uint8(5), uint8(0), []byte{0, 0, 0, 46, 0})
	f.Add(uint8(20), uint8(60), []byte{1, 1, 0, 38, 0})
	f.Add(uint8(20), uint8(60), []byte{0, 1, 0, 19, 30})
	f.Fuzz(func(t *testing.T, records, segBytes uint8, edits []byte) {
		n := 1 + int(records)%48
		payloads := make([][]byte, n)
		for i := range payloads {
			payloads[i] = []byte(fmt.Sprintf("record-%04d", i))
		}
		dir := t.TempDir()
		cutNewest := writeDamaged(t, dir, appendedLog(t, payloads, int64(segBytes)), edits)

		w2, err := Open(Options{Dir: dir, Sync: SyncNever})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer w2.Close()
		var seqs []uint64
		var got [][]byte
		next := 0 // index of the first appended payload a replay may still yield
		err = w2.Replay(1, func(seq uint64, payload []byte) error {
			if len(seqs) > 0 && seq <= seqs[len(seqs)-1] {
				t.Fatalf("seq %d replayed after %d", seq, seqs[len(seqs)-1])
			}
			seqs = append(seqs, seq)
			got = append(got, bytes.Clone(payload))
			for next < n && !bytes.Equal(payloads[next], payload) {
				next++
			}
			if next == n {
				t.Fatalf("seq %d replayed %q, not an appended record in append order", seq, payload)
			}
			next++
			return nil
		})
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if w2.CorruptFrames() > 0 {
			return
		}
		for i, seq := range seqs {
			if seq != uint64(i+1) || !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("no corruption counted, yet replay %d is seq %d with %q, want seq %d with %q",
					i, seq, got[i], i+1, payloads[i])
			}
		}
		if got := w2.NextSeq(); got != uint64(len(seqs)+1) {
			t.Fatalf("NextSeq = %d after replaying %d records", got, len(seqs))
		}
		if !w2.TruncatedTail() && !cutNewest && len(seqs) != n {
			t.Fatalf("no corruption and no torn tail, yet %d of %d records replayed", len(seqs), n)
		}
	})
}

type segmentFile struct {
	name string
	data []byte
}

// appendedLogs caches the segment files of a freshly appended log by
// record count and segment size, so a fuzz input pays for file writes but
// not for the fsyncs of every rotation.
var appendedLogs sync.Map // [2]int64{records, segBytes} -> []segmentFile

func appendedLog(t *testing.T, payloads [][]byte, segBytes int64) []segmentFile {
	t.Helper()
	key := [2]int64{int64(len(payloads)), segBytes}
	if files, ok := appendedLogs.Load(key); ok {
		return files.([]segmentFile)
	}
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Sync: SyncNever, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make([]segmentFile, len(entries))
	for i, e := range entries {
		files[i].name = e.Name()
		if files[i].data, err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	appendedLogs.Store(key, files)
	return files
}

// writeDamaged writes the segment files into dir with the fuzz edits
// applied and reports whether any edit truncated the newest segment.
func writeDamaged(t *testing.T, dir string, files []segmentFile, edits []byte) (cutNewest bool) {
	t.Helper()
	damaged := make([][]byte, len(files))
	for i, f := range files {
		damaged[i] = bytes.Clone(f.data)
	}
	for ; len(edits) >= 5; edits = edits[5:] {
		i := int(edits[1]) % len(damaged)
		data := damaged[i]
		off := int(binary.BigEndian.Uint16(edits[2:4]))
		if edits[0]%2 == 0 {
			if len(data) > 0 {
				data[off%len(data)] = edits[4]
			}
			continue
		}
		if cut := off % (len(data) + 1); cut < len(data) {
			damaged[i] = data[:cut]
			cutNewest = cutNewest || i == len(damaged)-1
		}
	}
	for i, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f.name), damaged[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return cutNewest
}
