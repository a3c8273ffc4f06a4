package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/sideeffect"
)

// The JSON API. All bodies are JSON; errors come back as
// {"error": "..."} with a meaningful status code.
//
//	GET    /healthz                                liveness + cache stats
//	GET    /metrics                                Prometheus text metrics
//	GET    /v1/sessions                            list cached sessions
//	POST   /v1/sessions                            register a session
//	DELETE /v1/sessions/{name}                     evict a session
//	POST   /v1/sessions/{name}/update              insert/delete base tuples → new version
//	POST   /v1/sessions/{name}/repair              run one semantics
//	POST   /v1/sessions/{name}/repair-all          run all four + containments
//	POST   /v1/sessions/{name}/repairs             enumerate the k best repairs
//	POST   /v1/sessions/{name}/query               certain/possible answers (CQA)
//	POST   /v1/sessions/{name}/is-stable           stability probe
//	POST   /v1/sessions/{name}/delete-view-tuple   deletion propagation (§7)
//
// Sessions are mutable: update applies a base-table batch and returns the
// new monotonically increasing version. Request bodies may pin "version"
// (read-your-writes) to any retained version; responses echo the version
// they executed against. Status codes: 400 malformed input / future
// version, 404 unknown session, 409 duplicate register / schema-mismatch
// update / evicted version, 413 body over Config.MaxBodyBytes, 499 client
// canceled, 504 deadline exceeded.

// RegisterRequest is the POST /v1/sessions body.
type RegisterRequest struct {
	// Name identifies the session in later requests.
	Name string `json:"name"`
	// Schema is the schema source, one "Rel(attr, ...)" per line.
	Schema string `json:"schema"`
	// Program is the delta program source.
	Program string `json:"program"`
	// Tuples lists rows per relation. Values are JSON scalars: integral
	// numbers become ints, other numbers floats, strings strings. A row
	// repeating an earlier row's content is dropped (set semantics).
	Tuples Tuples `json:"tuples"`
}

// RepairRequest is the body of repair, repair-all, and is-stable calls.
type RepairRequest struct {
	// Semantics is one of "independent", "step", "stage", "end"
	// (repair only).
	Semantics string `json:"semantics,omitempty"`
	// TimeoutMS bounds the request; 0 uses the server default, < 0
	// disables it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// SolverMaxNodes lowers the SAT budget (independent semantics); the
	// daemon's budget caps it.
	SolverMaxNodes int64 `json:"solver_max_nodes,omitempty"`
	// Version pins the request to a retained snapshot version
	// (read-your-writes); 0 reads the head.
	Version uint64 `json:"version,omitempty"`
}

func (rr *RepairRequest) options() RequestOptions {
	opts := RequestOptions{
		SolverMaxNodes: rr.SolverMaxNodes,
		Version:        rr.Version,
	}
	switch {
	case rr.TimeoutMS > 0:
		opts.Timeout = time.Duration(rr.TimeoutMS) * time.Millisecond
	case rr.TimeoutMS < 0:
		opts.Timeout = -1
	}
	return opts
}

// RepairResponse reports one semantics' repair.
type RepairResponse struct {
	Session string `json:"session"`
	// Version is the snapshot version the repair executed against (the
	// head at admission, or the pinned request version).
	Version   uint64         `json:"version"`
	Semantics string         `json:"semantics"`
	Size      int            `json:"size"`
	Deleted   []string       `json:"deleted"`
	ByRel     map[string]int `json:"deleted_by_relation,omitempty"`
	Rounds    int            `json:"rounds"`
	Optimal   bool           `json:"optimal"`
	// ElapsedUS is the core time this request spent on the repair, in
	// microseconds: 0 when /repair answered from the session's artefact
	// store (the repair was computed at that version before).
	ElapsedUS int64 `json:"elapsed_us"`
}

func repairResponse(name string, version uint64, res *core.Result) RepairResponse {
	return RepairResponse{
		Session:   name,
		Version:   version,
		Semantics: res.Semantics.String(),
		Size:      res.Size(),
		Deleted:   res.Keys(),
		ByRel:     res.ByRelation(),
		Rounds:    res.Rounds,
		Optimal:   res.Optimal,
		ElapsedUS: res.Timing.Total().Microseconds(),
	}
}

// repairFields encodes RepairResponse's fields from semantics to optimal,
// in its order and under its names, without the enclosing braces: the part
// of a /repair body the artefact store keeps. writeRepair splices it
// between the session/version and elapsed_us fields, which gives the bytes
// encoding the whole RepairResponse gives.
func repairFields(res *core.Result) []byte {
	b, _ := json.Marshal(struct {
		Semantics string         `json:"semantics"`
		Size      int            `json:"size"`
		Deleted   []string       `json:"deleted"`
		ByRel     map[string]int `json:"deleted_by_relation,omitempty"`
		Rounds    int            `json:"rounds"`
		Optimal   bool           `json:"optimal"`
	}{res.Semantics.String(), res.Size(), res.Keys(), res.ByRelation(), res.Rounds, res.Optimal})
	return b[1 : len(b)-1]
}

// writeRepair writes a 200 /repair body: a.fields between the session and
// version fields and elapsed_us, with no encoding beyond two integers.
func writeRepair(w http.ResponseWriter, a repairAnswer) {
	buf := make([]byte, 0, len(a.nameJSON)+96)
	buf = append(append(append(buf, `{"session":`...), a.nameJSON...), `,"version":`...)
	buf = append(strconv.AppendUint(buf, a.version, 10), ',')
	n := len(buf)
	buf = append(strconv.AppendInt(append(buf, `,"elapsed_us":`...), a.elapsed.Microseconds(), 10), "}\n"...)
	writeHeader(w, http.StatusOK, len(buf)+len(a.fields))
	_, _ = w.Write(buf[:n])
	_, _ = w.Write(a.fields)
	_, _ = w.Write(buf[n:])
}

// RepairAllResponse reports all four semantics plus the paper's Table 3
// containment flags.
type RepairAllResponse struct {
	Session     string                    `json:"session"`
	Version     uint64                    `json:"version"`
	Results     map[string]RepairResponse `json:"results"`
	Containment core.Containment          `json:"containment"`
}

// UpdateRequest is the POST /v1/sessions/{name}/update body: base-table
// rows to delete and insert (deletes apply first, so one batch can
// replace a row). Values follow the RegisterRequest conventions. It is
// the body's shape for Go clients that encode one; the handler decodes
// the same fields as updateBody, whose rows are Tuples.
type UpdateRequest struct {
	Inserts map[string][][]any `json:"inserts,omitempty"`
	Deletes map[string][][]any `json:"deletes,omitempty"`
}

// updateBody is an UpdateRequest as handleUpdate decodes it.
type updateBody struct {
	Inserts Tuples `json:"inserts"`
	Deletes Tuples `json:"deletes"`
}

// ViewDeleteRequest is the delete-view-tuple body.
type ViewDeleteRequest struct {
	// View is a conjunctive query, e.g. "V(x, y) :- R(x, z), S(z, y).".
	View string `json:"view"`
	// Values selects the view row to remove.
	Values         []any  `json:"values"`
	TimeoutMS      int64  `json:"timeout_ms,omitempty"`
	SolverMaxNodes int64  `json:"solver_max_nodes,omitempty"`
	Version        uint64 `json:"version,omitempty"`
}

// ViewDeleteResponse reports a deletion-propagation solution.
type ViewDeleteResponse struct {
	Session        string   `json:"session"`
	Size           int      `json:"size"`
	Deleted        []string `json:"deleted"`
	Optimal        bool     `json:"optimal"`
	ViewRowsBefore int      `json:"view_rows_before"`
	ViewRowsAfter  int      `json:"view_rows_after"`
	ElapsedUS      int64    `json:"elapsed_us"`
}

// Handler returns the JSON API over this service. Every POST body is read
// through http.MaxBytesReader with Config.MaxBodyBytes as the limit.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("POST /v1/sessions", s.handleRegister)
	mux.HandleFunc("DELETE /v1/sessions/{name}", s.handleDeregister)
	mux.HandleFunc("POST /v1/sessions/{name}/update", s.handleUpdate)
	mux.HandleFunc("POST /v1/sessions/{name}/repair", s.handleRepair)
	mux.HandleFunc("POST /v1/sessions/{name}/repair-all", s.handleRepairAll)
	mux.HandleFunc("POST /v1/sessions/{name}/repairs", s.handleRepairs)
	mux.HandleFunc("POST /v1/sessions/{name}/query", s.handleQuery)
	mux.HandleFunc("POST /v1/sessions/{name}/is-stable", s.handleIsStable)
	mux.HandleFunc("POST /v1/sessions/{name}/delete-view-tuple", s.handleDeleteViewTuple)
	return s.recovering(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		mux.ServeHTTP(w, r)
	}))
}

// recovering wraps h so that a panic answers 500 {"error":"internal
// error"}, logs its stack and counts in deltarepaird_panics_total instead
// of tearing down the connection. http.ErrAbortHandler, net/http's way to
// abort a response on purpose, is panicked on.
func (s *Service) recovering(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			s.metrics.panics.Inc()
			log.Printf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "internal error"})
		}()
		h.ServeHTTP(w, r)
	})
}

// encodeJSON is v as the API encodes it: encoding/json, one line, with a
// trailing newline.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(v)
	return buf.Bytes()
}

// jsonString is s encoded as a JSON string.
func jsonString(s string) []byte {
	b, _ := json.Marshal(s)
	return b
}

// writeHeader writes a JSON response's status line and headers for a body
// of n bytes.
func writeHeader(w http.ResponseWriter, status, n int) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(status)
}

// writeBody writes an encoded JSON response body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	writeHeader(w, status, len(body))
	_, _ = w.Write(body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	writeBody(w, status, encodeJSON(v))
}

func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrDuplicate), errors.Is(err, ErrSchemaMismatch), errors.Is(err, ErrVersionGone):
		status = http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = 499 // client closed request (nginx convention)
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeBadRequest reports a request the client must change: 413 for a
// body over the size limit, 400 for anything else.
func writeBadRequest(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// decodeBody decodes a JSON body with numbers kept exact; an empty body
// decodes to the zero value so POSTs without options work. Anything but
// whitespace after the value is an error.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return nil
		}
		return fmt.Errorf("decoding request body: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		if err == nil {
			err = errors.New("data after the JSON value")
		}
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

// jsonValue converts one decoded JSON scalar to an engine Value.
func jsonValue(raw any) (engine.Value, error) {
	switch x := raw.(type) {
	case string:
		return engine.Str(x), nil
	case json.Number:
		return numberValue(string(x))
	case float64: // decoder without UseNumber
		if x == float64(int64(x)) {
			return engine.Int64(int64(x)), nil
		}
		return engine.Float(x), nil
	default:
		return engine.Value{}, fmt.Errorf("unsupported value %v (%T): want string or number", raw, raw)
	}
}

// numberValue converts one JSON number: an int when it parses as one, else
// a float.
func numberValue(tok string) (engine.Value, error) {
	if i, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return engine.Int64(i), nil
	}
	f, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return engine.Value{}, fmt.Errorf("bad number %q", tok)
	}
	return engine.Float(f), nil
}

func jsonValues(raw []any) ([]engine.Value, error) {
	out := make([]engine.Value, len(raw))
	for i, r := range raw {
		v, err := jsonValue(r)
		if err != nil {
			return nil, fmt.Errorf("value %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

func (s *Service) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":        true,
		"sessions":  s.Len(),
		"evictions": s.Evictions(),
	})
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Sessions())
}

func (s *Service) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := decodeBody(r, &req); err != nil {
		writeBadRequest(w, err)
		return
	}
	schema, db, prog, err := buildSession(&req)
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	if err := s.Register(req.Name, schema, db, prog); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"name":   req.Name,
		"tuples": db.TotalTuples(),
		"rules":  len(prog.Rules),
	})
}

// buildSession parses a RegisterRequest and seals its rows into a
// database: one base segment per relation, loaded in schema declaration
// order (not name order) so tuple identities — and therefore result
// ordering — are deterministic for a given registration body.
func buildSession(req *RegisterRequest) (*engine.Schema, *engine.Database, *datalog.Program, error) {
	if req.Name == "" {
		return nil, nil, nil, fmt.Errorf("missing session name")
	}
	schema, err := engine.ParseSchema(req.Schema)
	if err != nil {
		return nil, nil, nil, err
	}
	for rel := range req.Tuples.rels {
		if schema.Relation(rel) == nil {
			return nil, nil, nil, fmt.Errorf("tuples reference unknown relation %q", rel)
		}
	}
	blocks := make([][]engine.Value, len(schema.Relations))
	for i, rs := range schema.Relations {
		b := req.Tuples.rels[rs.Name]
		if b == nil {
			continue
		}
		if ri, w := b.badRow(rs.Arity()); ri >= 0 {
			return nil, nil, nil, fmt.Errorf("relation %s row %d: %s expects %d values, got %d", rs.Name, ri, rs.Name, rs.Arity(), w)
		}
		blocks[i] = b.vals
	}
	prog, err := datalog.ParseAndValidate(req.Program, schema)
	if err != nil {
		return nil, nil, nil, err
	}
	db, err := engine.LoadRows(schema, blocks)
	if err != nil {
		return nil, nil, nil, err
	}
	return schema, db, prog, nil
}

func (s *Service) handleDeregister(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.Deregister(name) {
		writeErr(w, fmt.Errorf("%w: %q", ErrNotFound, name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"evicted": name})
}

func semFromString(s string) (core.Semantics, error) {
	switch s {
	case "":
		return 0, fmt.Errorf("missing semantics: want one of independent, step, stage, end")
	case "independent", "ind":
		return core.SemIndependent, nil
	case "step":
		return core.SemStep, nil
	case "stage":
		return core.SemStage, nil
	case "end":
		return core.SemEnd, nil
	default:
		return 0, fmt.Errorf("unknown semantics %q: want one of independent, step, stage, end", s)
	}
}

func (s *Service) handleUpdate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req updateBody
	if err := decodeBody(r, &req); err != nil {
		writeBadRequest(w, err)
		return
	}
	res, err := s.Update(r.Context(), name, req.Inserts.rows(), req.Deletes.rows(), RequestOptions{})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"session":           name,
		"version":           res.Version,
		"oldest_version":    res.OldestVersion,
		"inserted":          res.Inserted,
		"deleted":           res.Deleted,
		"changed_relations": res.Changed,
	})
}

func (s *Service) handleRepair(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req RepairRequest
	if err := decodeBody(r, &req); err != nil {
		writeBadRequest(w, err)
		return
	}
	sem, err := semFromString(req.Semantics)
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	a, err := s.repair(r.Context(), name, sem, req.options(), true)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeRepair(w, a)
}

func (s *Service) handleRepairAll(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req RepairRequest
	if err := decodeBody(r, &req); err != nil {
		writeBadRequest(w, err)
		return
	}
	results, version, err := s.RepairAllVersioned(r.Context(), name, req.options())
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := RepairAllResponse{
		Session:     name,
		Version:     version,
		Results:     make(map[string]RepairResponse, len(results)),
		Containment: core.CheckContainment(results),
	}
	for sem, res := range results {
		resp.Results[sem.String()] = repairResponse(name, version, res)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleIsStable(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req RepairRequest
	if err := decodeBody(r, &req); err != nil {
		writeBadRequest(w, err)
		return
	}
	stable, version, err := s.IsStableVersioned(r.Context(), name, req.options())
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"session": name, "version": version, "stable": stable})
}

func (s *Service) handleDeleteViewTuple(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req ViewDeleteRequest
	if err := decodeBody(r, &req); err != nil {
		writeBadRequest(w, err)
		return
	}
	if req.View == "" {
		writeBadRequest(w, fmt.Errorf("missing view source"))
		return
	}
	target, err := jsonValues(req.Values)
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	opts := (&RepairRequest{TimeoutMS: req.TimeoutMS, SolverMaxNodes: req.SolverMaxNodes, Version: req.Version}).options()
	res, err := s.DeleteViewTuple(r.Context(), name, req.View, target, opts)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, viewDeleteResponse(name, res))
}

func viewDeleteResponse(name string, res *sideeffect.Result) ViewDeleteResponse {
	keys := make([]string, len(res.Deleted))
	for i, t := range res.Deleted {
		keys[i] = t.Key()
	}
	return ViewDeleteResponse{
		Session:        name,
		Size:           res.Size(),
		Deleted:        keys,
		Optimal:        res.Optimal,
		ViewRowsBefore: res.ViewRowsBefore,
		ViewRowsAfter:  res.ViewRowsAfter,
		ElapsedUS:      res.Elapsed.Microseconds(),
	}
}
