package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

func openTest(t *testing.T, opts Options) *WAL {
	t.Helper()
	w, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func appendN(t *testing.T, w *WAL, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		seq, err := w.Append([]byte(fmt.Sprintf("record-%04d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
	}
}

func replayAll(t *testing.T, w *WAL, from uint64) []string {
	t.Helper()
	var got []string
	err := w.Replay(from, func(seq uint64, payload []byte) error {
		got = append(got, fmt.Sprintf("%d:%s", seq, payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, Options{Dir: dir, Sync: SyncAlways})
	appendN(t, w, 0, 5)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openTest(t, Options{Dir: dir, Sync: SyncAlways})
	if w2.NextSeq() != 6 {
		t.Errorf("NextSeq after reopen = %d, want 6", w2.NextSeq())
	}
	got := replayAll(t, w2, 1)
	if len(got) != 5 || got[0] != "1:record-0000" || got[4] != "5:record-0004" {
		t.Errorf("replay = %v", got)
	}
	// Replay from a midpoint skips covered records.
	if got := replayAll(t, w2, 4); len(got) != 2 || got[0] != "4:record-0003" {
		t.Errorf("partial replay = %v", got)
	}
	// Appends continue the sequence.
	seq, err := w2.Append([]byte("resumed"))
	if err != nil || seq != 6 {
		t.Errorf("resumed append = %d, %v", seq, err)
	}
}

func TestSegmentRotationAndGC(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every ~3 records rotate.
	w := openTest(t, Options{Dir: dir, Sync: SyncAlways, SegmentBytes: 60})
	appendN(t, w, 0, 20)
	if w.Segments() < 4 {
		t.Fatalf("expected several segments, got %d", w.Segments())
	}
	if got := replayAll(t, w, 1); len(got) != 20 {
		t.Fatalf("replay across segments = %d records", len(got))
	}

	// GC everything a checkpoint through seq 10 covers.
	removed, err := w.TruncateBefore(11)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Error("no segments removed")
	}
	// Records >= 11 all survive; some < 11 may remain in a partly-covered
	// segment, which is fine — replay filters by seq.
	got := replayAll(t, w, 11)
	if len(got) != 10 || got[0] != "11:record-0010" {
		t.Errorf("post-GC replay = %v", got)
	}
	// Reopen sees the same story.
	w.Close()
	w2 := openTest(t, Options{Dir: dir, Sync: SyncAlways, SegmentBytes: 60})
	if w2.NextSeq() != 21 {
		t.Errorf("NextSeq after GC+reopen = %d", w2.NextSeq())
	}
	if got := replayAll(t, w2, 11); len(got) != 10 {
		t.Errorf("post-GC reopen replay = %d records", len(got))
	}
}

func TestTornTailSilentlyTruncated(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, Options{Dir: dir, Sync: SyncAlways})
	appendN(t, w, 0, 3)
	w.Close()

	// Simulate a crash mid-append: a half-written frame at the tail.
	name := filepath.Join(dir, segmentName(1))
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, frameHeaderSize+10)
	binary.LittleEndian.PutUint32(torn[:4], 10)
	if _, err := f.Write(torn[:frameHeaderSize+4]); err != nil { // payload cut short
		t.Fatal(err)
	}
	f.Close()

	w2 := openTest(t, Options{Dir: dir, Sync: SyncAlways})
	if !w2.TruncatedTail() {
		t.Error("torn tail not reported")
	}
	if w2.CorruptFrames() != 0 {
		t.Errorf("torn tail counted as corruption: %d", w2.CorruptFrames())
	}
	if got := replayAll(t, w2, 1); len(got) != 3 {
		t.Errorf("replay after torn tail = %v", got)
	}
	// The tail is clean again: appends land right after record 3.
	seq, err := w2.Append([]byte("after-tear"))
	if err != nil || seq != 4 {
		t.Fatalf("append after tear = %d, %v", seq, err)
	}
	w2.Close()
	w3 := openTest(t, Options{Dir: dir, Sync: SyncAlways})
	if got := replayAll(t, w3, 1); len(got) != 4 || got[3] != "4:after-tear" {
		t.Errorf("final replay = %v", got)
	}
}

// corruptFrame flips a payload byte of the idx-th frame (0-based) in the
// segment file, leaving the frame structurally intact.
func corruptFrame(t *testing.T, path string, idx int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(0)
	for i := 0; ; i++ {
		length := binary.LittleEndian.Uint32(data[off : off+4])
		if i == idx {
			data[off+frameHeaderSize] ^= 0xFF
			break
		}
		off += frameHeaderSize + int64(length)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestMidSegmentCorruptionLenientSkips(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, Options{Dir: dir, Sync: SyncAlways})
	appendN(t, w, 0, 5)
	w.Close()
	corruptFrame(t, filepath.Join(dir, segmentName(1)), 2) // record seq 3

	w2 := openTest(t, Options{Dir: dir, Sync: SyncAlways})
	if w2.CorruptFrames() != 1 {
		t.Errorf("corrupt frames = %d, want 1", w2.CorruptFrames())
	}
	got := replayAll(t, w2, 1)
	// Record 3 is skipped but keeps its seq burned: 1,2,4,5 survive.
	want := []string{"1:record-0000", "2:record-0001", "4:record-0003", "5:record-0004"}
	if len(got) != len(want) {
		t.Fatalf("replay = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("replay[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if w2.NextSeq() != 6 {
		t.Errorf("NextSeq = %d, want 6 (skipped frame burns its seq)", w2.NextSeq())
	}
}

func TestFailedAppendRollsBack(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.NewInjector(nil)
	w := openTest(t, Options{Dir: dir, Sync: SyncAlways, FS: inj})
	appendN(t, w, 0, 2)
	// Tear the next frame's write; the rollback must keep the tail clean so
	// the append after it is not stranded beyond a hole.
	inj.FailAt(inj.Ops()+1, faultinject.ShortWrite)
	if _, err := w.Append([]byte("doomed")); err == nil {
		t.Fatal("injected append should fail")
	}
	seq, err := w.Append([]byte("survivor"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Errorf("survivor seq = %d, want 3", seq)
	}
	w.Close()
	w2 := openTest(t, Options{Dir: dir, Sync: SyncAlways})
	got := replayAll(t, w2, 1)
	if len(got) != 3 || got[2] != "3:survivor" {
		t.Errorf("replay after rollback = %v", got)
	}
}

func TestCrashMidAppendRecovers(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.NewInjector(nil)
	w := openTest(t, Options{Dir: dir, Sync: SyncAlways, FS: inj})
	appendN(t, w, 0, 4)
	inj.FailAt(inj.Ops()+1, faultinject.Crash)
	if _, err := w.Append([]byte("never-acked")); err == nil {
		t.Fatal("crash-point append should fail")
	}
	// Process "restarts": reopen the same dir with a healthy filesystem.
	w2 := openTest(t, Options{Dir: dir, Sync: SyncAlways})
	if got := replayAll(t, w2, 1); len(got) != 4 {
		t.Errorf("replay after crash = %v", got)
	}
	if !w2.TruncatedTail() {
		t.Error("crash left a torn tail that was not repaired")
	}
}

func TestSyncIntervalFlushesOnCadence(t *testing.T) {
	dir := t.TempDir()
	clock := faultinject.NewManualClock(time.Unix(0, 0))
	w, err := Open(Options{Dir: dir, Sync: SyncInterval, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append([]byte("buffered")); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	dirty := w.dirty
	w.mu.Unlock()
	if !dirty {
		t.Fatal("interval-mode append should leave the log dirty")
	}
	// Advance inside the poll loop: the sync goroutine may not have
	// registered its first timer yet when the test starts advancing.
	deadline := time.Now().Add(2 * time.Second)
	for {
		clock.Advance(syncCadence)
		w.mu.Lock()
		dirty = w.dirty
		w.mu.Unlock()
		if !dirty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval sync never fired")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "": SyncInterval, "never": SyncNever}
	for in, want := range cases {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestAppendAfterCloseRefused(t *testing.T) {
	w := openTest(t, Options{Dir: t.TempDir(), Sync: SyncNever})
	w.Close()
	if _, err := w.Append([]byte("x")); err != ErrClosed {
		t.Errorf("append after close = %v", err)
	}
}

func TestEmptyRotatedSegmentAtTail(t *testing.T) {
	// A crash can land between rotation and the first append to the new
	// segment; reopening must continue in the empty tail.
	dir := t.TempDir()
	w := openTest(t, Options{Dir: dir, Sync: SyncAlways, SegmentBytes: 40})
	appendN(t, w, 0, 4)
	w.Close()
	// Force an empty tail segment on disk.
	nseq := uint64(5)
	f, err := os.Create(filepath.Join(dir, segmentName(nseq)))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	w2 := openTest(t, Options{Dir: dir, Sync: SyncAlways, SegmentBytes: 40})
	if w2.NextSeq() != nseq {
		t.Fatalf("NextSeq with empty tail = %d, want %d", w2.NextSeq(), nseq)
	}
	if seq, err := w2.Append([]byte("in-new-segment")); err != nil || seq != nseq {
		t.Errorf("append into empty tail = %d, %v", seq, err)
	}
}

// crc sanity: the table is Castagnoli, not IEEE — a mismatch here would
// silently accept frames written by a different build.
func TestChecksumIsCastagnoli(t *testing.T) {
	if crc32.Checksum([]byte("123456789"), castagnoli) != 0xE3069283 {
		t.Fatal("CRC table is not CRC-32C")
	}
}

// A sealed segment cut at a frame boundary has no torn frame to find, but
// it holds fewer records than its successor's name says: the loss is
// counted and later segments keep their seqs.
func TestCutSealedSegmentCounted(t *testing.T) {
	dir := t.TempDir()
	// 60-byte segments hold four 19-byte frames: records 1-4, 5-8, 9-12.
	w := openTest(t, Options{Dir: dir, Sync: SyncAlways, SegmentBytes: 60})
	appendN(t, w, 0, 12)
	w.Close()
	// Keep only record 5 of the middle segment.
	if err := os.Truncate(filepath.Join(dir, segmentName(5)), frameHeaderSize+int64(len("record-0004"))); err != nil {
		t.Fatal(err)
	}

	w2 := openTest(t, Options{Dir: dir, Sync: SyncAlways})
	if w2.CorruptFrames() != 1 {
		t.Errorf("corrupt frames = %d, want 1", w2.CorruptFrames())
	}
	want := []string{"1:record-0000", "2:record-0001", "3:record-0002", "4:record-0003", "5:record-0004",
		"9:record-0008", "10:record-0009", "11:record-0010", "12:record-0011"}
	if got := replayAll(t, w2, 1); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("replay = %v, want %v", got, want)
	}
}
