// Package durability persists serving sessions across process restarts: a
// per-session write-ahead log of update batches plus periodic checkpoints,
// mirroring how the engine already treats state as version deltas over
// immutable snapshots (Snapshot.Apply). A session's durable state is a
// directory holding its registration metadata, the newest checkpoint — a
// manifest (ckpt-<version>.manifest, engine.AppendLayout) naming one file
// per sealed segment (seg-<n>.seg, engine.AppendSegment), each written once
// by the first checkpoint that references it — and a log of the update
// batches applied since that checkpoint. Recovery loads each segment file
// back as its own segment (engine.ReadLayout) and replays the log tail; Apply is
// deterministic given the prior state and the row order, so the recovered
// head is byte-identical to the pre-crash head.
package durability

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"repro/internal/engine"
)

// Record is one durable update batch: the version it produced and the
// rows it applied, exactly as they were handed to Snapshot.Apply (deletes
// are applied before inserts there, so replay preserves replace
// semantics).
type Record struct {
	Version uint64
	Inserts []engine.Row
	Deletes []engine.Row
}

// Frame layout: uint32 payload length (LE), uint32 CRC-32C of the payload
// (LE), then the gob-encoded Record. Each record gets its own gob encoder
// so frames are self-contained — a truncated or skipped frame never
// poisons decoder state for its successors.
const frameHeader = 8

// maxFrameLen bounds a single record; a length field beyond it means the
// header bytes are garbage (torn write into the length word), not a real
// giant batch.
const maxFrameLen = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// FsyncPolicy controls when the log file is flushed to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways flushes after every append: an acknowledged update
	// survives power loss, at the cost of one fsync per batch.
	FsyncAlways FsyncPolicy = iota
	// FsyncNever leaves flushing to the OS page cache: an acknowledged
	// update survives a process crash but may be lost on power failure.
	FsyncNever
)

// Log is an append-only write-ahead log of Records. Appends are
// serialized internally; one Log has one writer file handle.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	fsync  FsyncPolicy
	count  int // records appended since open (compaction cadence)
	closed bool
}

// OpenLog opens (creating if absent) the log at path for appending.
func OpenLog(path string, fsync FsyncPolicy) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Log{f: f, path: path, fsync: fsync}, nil
}

// EncodeRecord frames one record: header plus self-contained gob payload.
// Exposed for tests that build WAL fixtures byte-by-byte.
func EncodeRecord(rec *Record) ([]byte, error) {
	buf, err := encodeFrame(rec)
	if err != nil {
		return nil, fmt.Errorf("durability: encoding record: %w", err)
	}
	return buf, nil
}

// encodeFrame gob-encodes v with a fresh encoder into one frame: the
// header, then the payload it describes. WAL records and checkpoint
// manifests are both such frames.
func encodeFrame(v any) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(make([]byte, frameHeader))
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	out := buf.Bytes()
	payload := out[frameHeader:]
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(payload, crcTable))
	return out, nil
}

// Append frames rec and writes it with a single write call (so a crash
// tears at most the final record, never interleaves two), then flushes
// per the fsync policy. It returns only after the record is as durable as
// the policy promises.
func (l *Log) Append(rec *Record) error {
	buf, err := EncodeRecord(rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("durability: append to closed log")
	}
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("durability: appending WAL record: %w", err)
	}
	if l.fsync == FsyncAlways {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("durability: fsync WAL: %w", err)
		}
	}
	l.count++
	return nil
}

// AppendCount returns the number of records appended since the log was
// opened (not the total records in the file).
func (l *Log) AppendCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// Reset truncates the log to empty and restarts the append count; called
// after a covering checkpoint is durably in place. The O_APPEND handle keeps
// working — subsequent appends start at the new (zero) end of file.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("durability: reset of closed log")
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("durability: truncating WAL after compaction: %w", err)
	}
	l.count = 0
	return nil
}

// Sync flushes buffered writes to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	return l.f.Sync()
}

// Close flushes and closes the log. Further Appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// ReadStats reports what ReadLog found and repaired.
type ReadStats struct {
	// Records is the number of intact records returned.
	Records int
	// TornTail is true when the file ended mid-record (incomplete header
	// or short payload) — the expected shape after a crash during Append.
	TornTail bool
	// CorruptRecords counts records whose checksum did not match the
	// payload. The first corrupt record and everything after it are
	// dropped: a bad checksum means the tail cannot be trusted.
	CorruptRecords int
	// TruncatedAt is the byte offset the file was (or should be)
	// truncated to; equal to the file size when the log was clean.
	TruncatedAt int64
}

// Clean reports whether the log needed no repair.
func (s *ReadStats) Clean() bool { return !s.TornTail && s.CorruptRecords == 0 }

// ReadLog reads every intact record from the log at path, in order. A
// torn final record (crash mid-append) or a corrupt checksum ends the
// read: the intact prefix is returned and, when repair is true, the file
// is truncated to that prefix so the next append starts on a clean
// boundary. A missing file is an empty log.
func ReadLog(path string, repair bool) ([]*Record, *ReadStats, error) {
	stats := &ReadStats{}
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, stats, nil
	}
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()

	var recs []*Record
	var offset int64
	header := make([]byte, frameHeader)
	for {
		if _, err := io.ReadFull(f, header); err != nil {
			if errors.Is(err, io.EOF) {
				break // clean end
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				stats.TornTail = true
				break
			}
			return nil, nil, fmt.Errorf("durability: reading WAL header: %w", err)
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if length > maxFrameLen {
			// Garbage length word: treat like a torn record — nothing after
			// this offset can be framed.
			stats.TornTail = true
			break
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				stats.TornTail = true
				break
			}
			return nil, nil, fmt.Errorf("durability: reading WAL payload: %w", err)
		}
		if crc32.Checksum(payload, crcTable) != sum {
			stats.CorruptRecords++
			break
		}
		var rec Record
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
			// Checksum matched but gob won't parse: count it as corruption
			// (e.g. a record written by an incompatible build) and stop.
			stats.CorruptRecords++
			break
		}
		recs = append(recs, &rec)
		offset += frameHeader + int64(length)
		stats.Records++
	}
	stats.TruncatedAt = offset

	if repair && !stats.Clean() {
		if err := os.Truncate(path, offset); err != nil {
			return nil, nil, fmt.Errorf("durability: truncating damaged WAL tail: %w", err)
		}
	}
	return recs, stats, nil
}
