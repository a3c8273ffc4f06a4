package deltarepair

import (
	"repro/internal/engine"
	"repro/internal/server"
)

// Serving layer re-exports: the concurrent repair service from
// internal/server, embeddable through the public package. A Service
// caches named (schema, program, database) sessions behind an LRU,
// prepares and freezes each once, when it is registered, and answers
// repair / repair-all / is-stable / delete-view-tuple requests on private
// copy-on-write forks of the session's snapshot, behind admission control
// and per-request deadlines. Sessions are mutable: Service.Update applies
// base-table insert/delete batches, producing new snapshot versions that
// share the frozen cores of untouched relations; requests may pin a
// retained version for read-your-writes. Service.Handler exposes the
// JSON HTTP API that cmd/deltarepaird serves.
type (
	// Service is a concurrent repair service over cached sessions; build
	// one with OpenServer.
	Service = server.Service
	// ServerConfig tunes a Service (cache size, admission bound, default
	// timeout, solver budget, retained-version window).
	ServerConfig = server.Config
	// RequestOptions tunes one request (timeout, solver budget override,
	// pinned snapshot version).
	RequestOptions = server.RequestOptions
	// SessionInfo is a point-in-time view of one cached session,
	// including its version head and retention window.
	SessionInfo = server.SessionInfo
	// Row addresses one base tuple by content (relation + values), the
	// unit of Service.Update batches.
	Row = engine.Row
	// UpdateResult reports an applied update batch and the new version.
	UpdateResult = server.UpdateResult
	// SnapshotRing is a bounded history of snapshot versions for callers
	// embedding the engine directly (the Service manages one per
	// session).
	SnapshotRing = engine.SnapshotRing
)

// OpenServer builds a repair service; zero-value config fields take the
// documented defaults. With ServerConfig.DataDir set, sessions are
// durable: registrations and update batches are persisted (write-ahead
// log + periodic snapshot compaction) and crash recovery restores every
// persisted session to its latest durable version on first access after a
// restart; preparing the data directory can fail, hence the error.
func OpenServer(cfg ServerConfig) (*Service, error) { return server.Open(cfg) }
