package server

import (
	"net/http"
	"time"

	"repro/internal/metrics"
	"repro/internal/server/durability"
)

// svcMetrics is the Service's metric inventory, rendered by GET /metrics
// in the Prometheus text format. Every Service carries its own registry
// (no process-global state), so embedded services and tests never collide.
type svcMetrics struct {
	reg *metrics.Registry

	// requests partitions by request kind (repair, repair_all, repairs,
	// query, is_stable, update, delete_view, register, deregister) and
	// outcome (ok, error).
	requests *metrics.CounterVec
	// requestSeconds is end-to-end request latency, queueing included.
	requestSeconds *metrics.Histogram
	// starts partitions session activations: "cold" (a registration
	// compiled and froze it) and "recovered" (loaded from the durability
	// layer after a restart or eviction).
	starts *metrics.CounterVec

	// Update write amplification: rows the accepted batches changed
	// (effective inserts + deletes), rows written into newly sealed
	// segments for them (the batch's own plus every row compaction
	// copied), and the segment tier merges behind the difference — which
	// a recovery's WAL replay runs too.
	rowsChanged        *metrics.Counter
	rowsSealed         *metrics.Counter
	segmentCompactions *metrics.Counter

	// WAL and recovery instrumentation; all zero when durability is off.
	walAppendSeconds *metrics.Histogram
	recoverySeconds  *metrics.Histogram
	replayedRecords  *metrics.Counter
	tornTails        *metrics.Counter
	corruptRecords   *metrics.Counter
	compactions      *metrics.Counter
	// Checkpoints (registration's and every compaction's): segment files
	// written versus segments referenced from an earlier checkpoint's
	// files, and the bytes written.
	checkpointSegments *metrics.CounterVec
	checkpointBytes    *metrics.Counter

	// Artefact-store lookups of /repair and /query answers, and lookups of
	// the session's derivation slot by store misses.
	repairLookups, queryLookups, derivationLookups lookupCounters
	// panics counts handler panics the recover middleware answered.
	panics *metrics.Counter
}

// lookupCounters are one request kind's artefact-store lookups, resolved
// from the labelled family once so a hit counts itself without a label
// lookup.
type lookupCounters struct{ hit, miss *metrics.Counter }

func (c lookupCounters) count(hit bool) {
	if hit {
		c.hit.Inc()
	} else {
		c.miss.Inc()
	}
}

func newSvcMetrics(s *Service) *svcMetrics {
	reg := metrics.NewRegistry()
	m := &svcMetrics{
		reg: reg,
		requests: reg.NewCounterVec("deltarepaird_requests_total",
			"Requests served, by kind and outcome.", "kind", "status"),
		requestSeconds: reg.NewHistogram("deltarepaird_request_seconds",
			"End-to-end request latency in seconds, admission queueing included.", nil),
		starts: reg.NewCounterVec("deltarepaird_session_starts_total",
			"Session activations by start type: cold (registered) or recovered from disk.", "type"),
		rowsChanged: reg.NewCounter("deltarepaird_update_rows_changed_total",
			"Rows update batches effectively inserted or deleted."),
		rowsSealed: reg.NewCounter("deltarepaird_update_rows_sealed_total",
			"Rows written into newly sealed segments by updates, compaction copies included."),
		segmentCompactions: reg.NewCounter("deltarepaird_segment_compactions_total",
			"Segment tier merges (recent-into-middle spills and base folds) run by updates and by recovery replay."),
		walAppendSeconds: reg.NewHistogram("deltarepaird_wal_append_seconds",
			"WAL append latency in seconds (includes fsync when the policy demands it).", nil),
		recoverySeconds: reg.NewHistogram("deltarepaird_recovery_seconds",
			"Per-session crash-recovery time in seconds (snapshot load + WAL replay).", nil),
		replayedRecords: reg.NewCounter("deltarepaird_recovery_replayed_records_total",
			"WAL records replayed during session recovery."),
		tornTails: reg.NewCounter("deltarepaird_recovery_torn_tails_total",
			"Recoveries that truncated a torn final WAL record."),
		corruptRecords: reg.NewCounter("deltarepaird_recovery_corrupt_records_total",
			"WAL records dropped for checksum or decode failures during recovery."),
		compactions: reg.NewCounter("deltarepaird_snapshot_compactions_total",
			"Snapshot compactions (WAL truncated into a fresh checkpoint)."),
		checkpointSegments: reg.NewCounterVec("deltarepaird_checkpoint_segments_total",
			"Segments checkpoints referenced, by outcome: written to a new file or reused from an earlier checkpoint's.", "outcome"),
		checkpointBytes: reg.NewCounter("deltarepaird_checkpoint_bytes_total",
			"Bytes checkpoints wrote: segment files and manifests."),
		panics: reg.NewCounter("deltarepaird_panics_total",
			"Handler panics answered with 500 by the recover middleware."),
	}
	lookups := reg.NewCounterVec("deltarepaird_artefact_lookups_total",
		"Artefact lookups by kind and outcome: /repair and /query answers in the artefact store (hit: stored bytes served), and the derivation a store miss runs on (hit: the session's derivation of that version reused).", "kind", "outcome")
	m.repairLookups = lookupCounters{lookups.With("repair", "hit"), lookups.With("repair", "miss")}
	m.queryLookups = lookupCounters{lookups.With("query", "hit"), lookups.With("query", "miss")}
	m.derivationLookups = lookupCounters{lookups.With("derivation", "hit"), lookups.With("derivation", "miss")}
	reg.NewGaugeFunc("deltarepaird_sessions",
		"Sessions currently resident in the cache.",
		func() float64 { return float64(s.Len()) })
	reg.NewGaugeFunc("deltarepaird_evictions_total",
		"Sessions evicted from the cache by LRU pressure (monotonic).",
		func() float64 { return float64(s.Evictions()) })
	reg.NewGaugeFunc("deltarepaird_session_versions",
		"Sum of head snapshot versions across resident sessions.",
		func() float64 {
			var sum uint64
			for _, info := range s.Sessions() {
				sum += info.Version
			}
			return float64(sum)
		})
	return m
}

// countCheckpoint adds one checkpoint's stats to the counters.
func (m *svcMetrics) countCheckpoint(st durability.CheckpointStats) {
	m.checkpointSegments.With("written").Add(uint64(st.Written))
	m.checkpointSegments.With("reused").Add(uint64(st.Reused))
	m.checkpointBytes.Add(uint64(st.Bytes))
}

// track records one request's outcome and latency; defer it at the top of
// each public request method with the named error result.
func (s *Service) track(kind string, start time.Time, errp *error) {
	status := "ok"
	if *errp != nil {
		status = "error"
	}
	s.metrics.requests.With(kind, status).Inc()
	s.metrics.requestSeconds.ObserveSeconds(time.Since(start))
}

// Metrics renders the service's metrics in the Prometheus text format.
func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = s.metrics.reg.WriteTo(w)
}
