package durability

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/engine"
)

// Checkpoints. A checkpoint at version V is one manifest, ckpt-<V>.manifest,
// plus the segment files it names, seg-<N>.seg. The manifest is the
// version's layout frame (engine.AppendLayout) naming each segment by its
// file; a segment file holds one sealed engine segment (engine.AppendSegment)
// and is written once: the first checkpoint that references the segment
// writes it, and every later one that still references it names the same
// file. Between folds a checkpoint therefore writes only the small recent
// and middle segments of the relations that changed; a new base only after
// a fold.
//
// The manifest lands tmp + fsync + rename + directory fsync, after the
// segment files it names are fsynced and their directory entries too.
// Recovery loads each segment file back as its own segment
// (engine.ReadLayout), so the recovered head has the live head's segment
// layout.

func manifestName(version uint64) string { return fmt.Sprintf("ckpt-%d.manifest", version) }

func segmentName(n uint64) string { return fmt.Sprintf("seg-%d.seg", n) }

// parseName returns the number in a file name of the form prefix<N>suffix.
func parseName(name, prefix, suffix string) (uint64, bool) {
	num, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	if num, ok = strings.CutSuffix(num, suffix); !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(num, 10, 64)
	return n, err == nil && strconv.FormatUint(n, 10) == num
}

// loadCheckpoint rebuilds the snapshot a manifest describes, reading each
// segment file through read, and returns which file each loaded segment
// came from.
func loadCheckpoint(manifest []byte, read func(name string) ([]byte, error)) (*engine.Snapshot, map[*engine.Segment]string, error) {
	files := make(map[*engine.Segment]string)
	seen := make(map[string]bool)
	snap, err := engine.ReadLayout(manifest, func(name, rel string, arity int) (*engine.Segment, error) {
		if _, ok := parseName(name, "seg-", ".seg"); !ok || seen[name] {
			return nil, fmt.Errorf("durability: manifest names segment file %q twice or badly", name)
		}
		seen[name] = true
		data, err := read(name)
		if err != nil {
			return nil, err
		}
		seg, err := engine.DecodeSegment(data, rel, arity)
		if err != nil {
			return nil, fmt.Errorf("durability: segment file %s: %w", name, err)
		}
		files[seg] = name
		return seg, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return snap, files, nil
}

// CheckpointStats reports what one checkpoint wrote.
type CheckpointStats struct {
	// Written counts the segment files the checkpoint wrote and Reused the
	// segments it referenced from files an earlier checkpoint wrote.
	Written, Reused int
	// Bytes counts the bytes written: segment files and the manifest.
	Bytes int64
}

// checkpointStage names the points of a checkpoint a test can stop it at,
// as a crash would.
type checkpointStage int

const (
	// stageSegmentsWritten: the new segment files and the manifest's tmp
	// file are durable; the manifest is not renamed into place.
	stageSegmentsWritten checkpointStage = iota
	// stageManifestLanded: the manifest is in place; the WAL still holds
	// the records it covers.
	stageManifestLanded
	// stageWALReset: the WAL is empty; superseded files are not removed.
	stageWALReset
)

// stop reports whether a test stops the checkpoint at the given stage.
func (st *SessionStore) stop(stage checkpointStage) error {
	if st.crashAt != nil {
		return st.crashAt(stage)
	}
	return nil
}

// writeCheckpoint writes a checkpoint of head at version: the segment files
// the current manifest does not reference, then the manifest. Once the
// manifest is in place it calls landed (the WAL reset; nil when there is
// no WAL to reset) and then removes the superseded manifest and every
// segment file only it referenced. Every crash window recovers the same
// head: before the rename the old checkpoint and the full WAL are intact,
// after it the new checkpoint is, and recovery skips WAL records it covers.
func (st *SessionStore) writeCheckpoint(head *engine.Snapshot, version uint64, landed func() error) error {
	files := make(map[*engine.Segment]string, len(st.files))
	var fresh []*engine.Segment
	var stats CheckpointStats
	data := engine.AppendLayout(nil, head.Layout(), func(seg *engine.Segment) string {
		name, ok := st.files[seg]
		if ok {
			stats.Reused++
		} else {
			name = segmentName(st.nextSegment)
			st.nextSegment++
			fresh = append(fresh, seg)
		}
		files[seg] = name
		return name
	})
	for _, seg := range fresh {
		frame := engine.AppendSegment(nil, seg)
		if err := writeFileSync(filepath.Join(st.dir, files[seg]), frame); err != nil {
			return err
		}
		stats.Written++
		stats.Bytes += int64(len(frame))
	}
	if len(fresh) > 0 {
		// The new segment files' directory entries are durable before the
		// manifest that names them can be.
		syncDir(st.dir)
	}
	path := filepath.Join(st.dir, manifestName(version))
	if err := writeFileSync(path+".tmp", data); err != nil {
		return err
	}
	if err := st.stop(stageSegmentsWritten); err != nil {
		return err
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		os.Remove(path + ".tmp")
		return err
	}
	syncDir(st.dir)
	stats.Bytes += int64(len(data))
	if err := st.stop(stageManifestLanded); err != nil {
		return err
	}
	if landed != nil {
		if err := landed(); err != nil {
			return err
		}
	}
	if err := st.stop(stageWALReset); err != nil {
		return err
	}
	// Best-effort removal of what the new manifest does not reference;
	// recovery sweeps whatever a crash leaves behind here.
	if st.snapVersion != version {
		os.Remove(filepath.Join(st.dir, manifestName(st.snapVersion)))
	}
	kept := make(map[string]bool, len(files))
	for _, name := range files {
		kept[name] = true
	}
	for _, name := range st.files {
		if !kept[name] {
			os.Remove(filepath.Join(st.dir, name))
		}
	}
	st.files, st.snapVersion, st.last = files, version, stats
	return nil
}

// writeFileSync writes data to a new file at path and fsyncs it.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

// sweep removes what no recovery reads from a session directory whose
// current checkpoint is the given manifest version and file set: *.tmp
// files, segment files the manifest does not reference and superseded
// manifests.
func sweep(dir string, version uint64, files map[*engine.Segment]string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	kept := make(map[string]bool, len(files))
	for _, name := range files {
		kept[name] = true
	}
	for _, e := range entries {
		name := e.Name()
		var stale bool
		if v, ok := parseName(name, "ckpt-", ".manifest"); ok {
			stale = v != version
		} else if _, ok := parseName(name, "seg-", ".seg"); ok {
			stale = !kept[name]
		} else {
			stale = strings.HasSuffix(name, ".tmp")
		}
		if stale {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}
