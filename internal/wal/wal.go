// Package wal is the serving daemon's write-ahead log: a segmented,
// append-only record of every accepted ingest event, written before the
// event is enqueued for mining. A checkpoint alone makes restarts cheap; the
// WAL makes them lossless — on restart the server restores the latest
// checkpoint and replays the WAL tail, so a kill -9 at any instant loses
// nothing that was acknowledged (under SyncAlways) and the restarted
// /v1/rules matches an uninterrupted run.
//
// On-disk layout: Dir holds segments named by the sequence number of their
// first record (%020d.wal). Each record is one frame:
//
//	u32le payload length | u32le CRC-32C(payload) | payload
//
// Recovery walks every frame on Open. An incomplete frame at the end of the
// newest segment is a torn tail — the write a crash interrupted — and is
// silently truncated away; it was never acknowledged. A complete frame whose
// CRC fails mid-log is corruption: in the default lenient mode the frame is
// skipped and counted (its sequence number stays burned, so later records
// keep their identity), in Strict mode Open refuses, for deployments that
// would rather page an operator than mine around a hole. A sealed segment
// must hold exactly the records up to its successor's first: one cut short
// at a frame boundary, or whose frames no longer add up after a damaged
// length field, keeps only the frames before its first damaged one and
// counts the rest as one corruption. Frames carry no seq of their own, so
// the same damage in the newest segment can shift the seqs of the records
// after it; the corruption is still counted.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// SyncPolicy decides when appended frames reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs inside every Append: an acknowledged record
	// survives kill -9. The durable choice, and the slowest.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background cadence (Options.SyncInterval):
	// a crash can lose at most the last interval's records.
	SyncInterval
	// SyncNever leaves syncing to the OS: fastest, weakest.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy maps the -fsync flag values onto policies.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval", "":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
	}
}

// frameHeaderSize is the per-record overhead: u32 length + u32 CRC.
const frameHeaderSize = 8

// maxFrameBytes bounds one payload; ingest events are small JSON objects,
// so anything near this is a corrupt length field, not a record.
const maxFrameBytes = 16 << 20

const segmentSuffix = ".wal"

// ErrClosed is returned by appends after Close.
var ErrClosed = errors.New("wal: closed")

// castagnoli is the CRC-32C table (the checksum RocksDB, LevelDB and etcd
// frame their logs with — hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures Open.
type Options struct {
	// Dir holds the segments; created if missing.
	Dir string
	// Sync is the fsync policy; the zero value is SyncAlways.
	Sync SyncPolicy
	// SyncInterval is the cadence under SyncInterval; zero means 100ms.
	SyncInterval time.Duration
	// SegmentBytes rotates to a new segment once the current one exceeds
	// this size; zero means 8 MiB.
	SegmentBytes int64
	// Strict makes a mid-log CRC mismatch an Open error instead of a
	// skipped frame.
	Strict bool
	// FS is the filesystem seam; nil means the real one.
	FS faultinject.FS
	// Clock drives the interval-sync goroutine; nil means the wall clock.
	Clock faultinject.Clock
}

func (o Options) withDefaults() Options {
	if o.SyncInterval == 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.FS == nil {
		o.FS = faultinject.OS()
	}
	if o.Clock == nil {
		o.Clock = faultinject.RealClock()
	}
	return o
}

// segment is one on-disk file: records [first, first+count).
type segment struct {
	name  string
	first uint64
	count uint64
}

// WAL is an open log. Append is safe for concurrent use; Replay must run
// before the first Append.
type WAL struct {
	opts Options
	fs   faultinject.FS

	mu      sync.Mutex
	segs    []segment
	tail    faultinject.File
	tailLen int64
	next    uint64 // seq the next Append returns
	dirty   bool
	closed  bool
	failed  bool

	corrupt       int64
	truncatedTail bool

	stopSync chan struct{}
	syncDone chan struct{}
}

// Open scans dir, repairs the tail, and returns a log ready to append.
// Record sequence numbers are contiguous from 1 across restarts; the first
// Append continues after the last recovered record.
func Open(opts Options) (*WAL, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("wal: empty dir")
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	w := &WAL{opts: opts, fs: opts.FS, next: 1}
	if err := w.scan(); err != nil {
		return nil, err
	}
	if err := w.openTail(); err != nil {
		return nil, err
	}
	if opts.Sync == SyncInterval {
		w.stopSync = make(chan struct{})
		w.syncDone = make(chan struct{})
		go w.syncLoop()
	}
	return w, nil
}

// scan validates every existing segment, truncating a torn tail and
// counting (or refusing, under Strict) corrupt frames.
func (w *WAL) scan() error {
	entries, err := w.fs.ReadDir(w.opts.Dir)
	if err != nil {
		return fmt.Errorf("wal: list segments: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, segmentSuffix), 10, 64)
		if err != nil {
			continue // not ours
		}
		w.segs = append(w.segs, segment{name: name, first: first})
	}
	sort.Slice(w.segs, func(i, j int) bool { return w.segs[i].first < w.segs[j].first })
	for i := range w.segs {
		last := i == len(w.segs)-1
		var span uint64 // records a sealed segment was closed with
		if !last {
			span = w.segs[i+1].first - w.segs[i].first
		}
		if err := w.scanSegment(&w.segs[i], last, span); err != nil {
			return err
		}
		w.next = w.segs[i].first + w.segs[i].count
	}
	return nil
}

// scanSegment walks one segment's frames. For the last segment the walk
// also measures the valid prefix so Append can continue exactly there. A
// sealed segment was synced whole before its successor was created, so
// the walk must find exactly span frames in it. Any other count means
// frames were cut away or a length field was rewritten: past the first
// damaged frame the seqs are a guess, so only the frames before it are
// kept and the loss counts as one corruption (an error under Strict).
func (w *WAL) scanSegment(seg *segment, last bool, span uint64) error {
	data, err := w.fs.ReadFile(filepath.Join(w.opts.Dir, seg.name))
	if err != nil {
		return fmt.Errorf("wal: read segment %s: %w", seg.name, err)
	}
	off := int64(0)
	good := int64(0)      // end offset of the last valid frame
	trusted := ^uint64(0) // frames before the first CRC mismatch
	corruptBefore := w.corrupt
	for {
		rest := data[off:]
		if len(rest) == 0 {
			break
		}
		if len(rest) < frameHeaderSize {
			// A header fragment at EOF: torn tail.
			if err := w.repairTail(seg, last, good, off); err != nil {
				return err
			}
			break
		}
		length := binary.LittleEndian.Uint32(rest[:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if length > maxFrameBytes {
			// The length field itself is garbage. At the tail this is a
			// torn header; mid-log the rest of the segment is
			// unnavigable — everything from here is lost.
			if err := w.repairTail(seg, last, good, off); err != nil {
				return err
			}
			break
		}
		if int64(len(rest)) < frameHeaderSize+int64(length) {
			// Frame extends past EOF: the write this frame belongs to
			// never finished.
			if err := w.repairTail(seg, last, good, off); err != nil {
				return err
			}
			break
		}
		payload := rest[frameHeaderSize : frameHeaderSize+length]
		if crc32.Checksum(payload, castagnoli) != sum {
			// The frame is fully present but its bytes rotted: this is
			// corruption, not a torn write, wherever it sits.
			if w.opts.Strict {
				return fmt.Errorf("wal: segment %s: CRC mismatch at offset %d (record %d)",
					seg.name, off, seg.first+seg.count)
			}
			w.corrupt++
			trusted = min(trusted, seg.count)
		}
		seg.count++ // a skipped frame still burns its seq
		off += frameHeaderSize + int64(length)
		good = off
	}
	if last {
		w.tailLen = good
		return nil
	}
	if seg.count != span {
		if w.opts.Strict {
			return fmt.Errorf("wal: segment %s holds %d records, but the next segment starts at record %d",
				seg.name, seg.count, seg.first+span)
		}
		if w.corrupt == corruptBefore {
			w.corrupt++
		}
		seg.count = min(seg.count, trusted)
	}
	return nil
}

// repairTail handles an unparseable region starting at off: in the last
// segment it is the torn write of a crash and is silently truncated; in an
// earlier segment nothing after it can be framed, so the remainder counts
// as one corruption (or an error under Strict).
func (w *WAL) repairTail(seg *segment, last bool, good, off int64) error {
	if last {
		if err := w.fs.Truncate(filepath.Join(w.opts.Dir, seg.name), good); err != nil {
			return fmt.Errorf("wal: truncate torn tail of %s: %w", seg.name, err)
		}
		w.truncatedTail = true
		return nil
	}
	if w.opts.Strict {
		return fmt.Errorf("wal: segment %s: unparseable frame at offset %d", seg.name, off)
	}
	w.corrupt++
	return nil
}

// openTail opens the newest segment for appending, creating the first
// segment in an empty dir.
func (w *WAL) openTail() error {
	if len(w.segs) == 0 {
		return w.rotateLocked()
	}
	seg := w.segs[len(w.segs)-1]
	f, err := w.fs.OpenFile(filepath.Join(w.opts.Dir, seg.name), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open tail segment: %w", err)
	}
	w.tail = f
	return nil
}

func segmentName(first uint64) string {
	return fmt.Sprintf("%020d%s", first, segmentSuffix)
}

// rotateLocked closes the current tail and starts a fresh segment whose
// name records the next sequence number. Callers hold w.mu (or are inside
// Open, before the WAL is shared).
func (w *WAL) rotateLocked() error {
	if w.tail != nil {
		// Seal the outgoing segment: its frames must be durable before the
		// new segment's existence implies the old one is complete.
		if err := w.tail.Sync(); err != nil {
			return fmt.Errorf("wal: sync sealed segment: %w", err)
		}
		if err := w.tail.Close(); err != nil {
			return fmt.Errorf("wal: close sealed segment: %w", err)
		}
		w.tail = nil
	}
	name := segmentName(w.next)
	// O_APPEND matters beyond convenience: after a failed append is rolled
	// back with a truncate, the next write must land at the new EOF, not at
	// the fd's stale offset past the hole.
	f, err := w.fs.OpenFile(filepath.Join(w.opts.Dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if err := w.fs.SyncDir(w.opts.Dir); err != nil {
		//armlint:allow syncerr the directory-sync error propagates and fails the rotation; the orphan segment is re-created O_EXCL-safe on retry
		_ = f.Close()
		return fmt.Errorf("wal: sync dir after rotation: %w", err)
	}
	w.tail = f
	w.tailLen = 0
	w.segs = append(w.segs, segment{name: name, first: w.next})
	return nil
}

// Append frames one record and returns its sequence number. Under
// SyncAlways the record is on stable storage when Append returns; an error
// means the record must be treated as not written (the next Open truncates
// any torn remains).
func (w *WAL) Append(payload []byte) (uint64, error) {
	if len(payload) > maxFrameBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d frame cap", len(payload), maxFrameBytes)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if w.failed {
		return 0, errors.New("wal: log failed after an unrecoverable append error; restart to recover")
	}
	if w.tailLen >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	frame := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeaderSize:], payload)
	if _, err := w.tail.Write(frame); err != nil {
		w.rollbackLocked()
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	if w.opts.Sync == SyncAlways {
		if err := w.tail.Sync(); err != nil {
			// Written but possibly not durable: roll it back so a resent
			// record cannot become a duplicate frame after recovery.
			w.rollbackLocked()
			return 0, fmt.Errorf("wal: sync: %w", err)
		}
	} else {
		w.dirty = true
	}
	w.tailLen += int64(len(frame))
	seq := w.next
	w.next++
	w.segs[len(w.segs)-1].count++
	return seq, nil
}

// rollbackLocked undoes a failed append by truncating the tail segment to
// its last acknowledged frame, so later appends never land beyond torn
// bytes (a mid-file hole would orphan everything after it at recovery). If
// even the truncate fails the log is poisoned: further appends refuse, and
// the next Open repairs the tail instead.
func (w *WAL) rollbackLocked() {
	seg := w.segs[len(w.segs)-1]
	if err := w.fs.Truncate(filepath.Join(w.opts.Dir, seg.name), w.tailLen); err != nil {
		w.failed = true
	}
}

// Sync flushes buffered frames to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	if w.closed || w.tail == nil || !w.dirty {
		return nil
	}
	if err := w.tail.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	w.dirty = false
	return nil
}

func (w *WAL) syncLoop() {
	defer close(w.syncDone)
	for {
		select {
		case <-w.stopSync:
			return
		case <-w.opts.Clock.After(w.opts.SyncInterval):
			//armlint:allow syncerr background sync retries next tick; Append observes and reports sync errors on the synchronous path
			_ = w.Sync()
		}
	}
}

// Replay streams every recovered record with seq >= from, in order. Call
// before the first Append (recovery time), while the log is quiescent.
func (w *WAL) Replay(from uint64, fn func(seq uint64, payload []byte) error) error {
	w.mu.Lock()
	segs := append([]segment(nil), w.segs...)
	w.mu.Unlock()
	for _, seg := range segs {
		if seg.first+seg.count <= from {
			continue
		}
		data, err := w.fs.ReadFile(filepath.Join(w.opts.Dir, seg.name))
		if err != nil {
			return fmt.Errorf("wal: replay %s: %w", seg.name, err)
		}
		seq := seg.first
		off := int64(0)
		for n := uint64(0); n < seg.count; n++ {
			rest := data[off:]
			if int64(len(rest)) < frameHeaderSize {
				break // repaired region; scan already accounted for it
			}
			length := binary.LittleEndian.Uint32(rest[:4])
			if length > maxFrameBytes || int64(len(rest)) < frameHeaderSize+int64(length) {
				break
			}
			payload := rest[frameHeaderSize : frameHeaderSize+length]
			sum := binary.LittleEndian.Uint32(rest[4:8])
			off += frameHeaderSize + int64(length)
			if crc32.Checksum(payload, castagnoli) == sum && seq >= from {
				if err := fn(seq, payload); err != nil {
					return err
				}
			}
			seq++
		}
	}
	return nil
}

// TruncateBefore garbage-collects segments every record of which has seq <
// from — called after a checkpoint covers them. The active tail is never
// removed. Returns the number of segments deleted.
func (w *WAL) TruncateBefore(from uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	removed := 0
	for len(w.segs) > 1 {
		// A segment's coverage ends where the next one begins: removable
		// only when even its last possible record predates from.
		if w.segs[1].first > from {
			break
		}
		if err := w.fs.Remove(filepath.Join(w.opts.Dir, w.segs[0].name)); err != nil {
			return removed, fmt.Errorf("wal: remove covered segment: %w", err)
		}
		w.segs = w.segs[1:]
		removed++
	}
	return removed, nil
}

// NextSeq returns the sequence number the next Append will assign.
func (w *WAL) NextSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.next
}

// CorruptFrames returns how many frames recovery skipped over CRC or
// framing damage (always zero under Strict, which refuses instead).
func (w *WAL) CorruptFrames() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.corrupt
}

// TruncatedTail reports whether Open cut a torn tail off the newest
// segment.
func (w *WAL) TruncatedTail() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.truncatedTail
}

// Segments returns how many segment files the log currently spans.
func (w *WAL) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segs)
}

// Close flushes and closes the log. Appends after Close return ErrClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	syncErr := w.syncLocked()
	w.closed = true
	var closeErr error
	if w.tail != nil {
		closeErr = w.tail.Close()
		w.tail = nil
	}
	stop := w.stopSync
	done := w.syncDone
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
