package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/mas"
	"repro/internal/programs"
	"repro/internal/server"
	"repro/internal/tpch"
)

// Workload names are stable: later issues cite them.
const (
	wlCold    = "cold_repair_all"
	wlStream  = "update_repair_stream"
	wlCached  = "cached_reads"
	wlDurable = "durable_updates"
)

var workloadNames = []string{wlCold, wlStream, wlCached, wlDurable}

// opKind names one latency series. A request's kind decides which service
// method the traced run calls and which answer check applies.
type opKind int

const (
	opRegister opKind = iota
	opRepairAll
	opDeregister
	opUpdate
	opRepairEnd
	opRepairStage
	opRepairStep
	opRepairIndependent
	opRepairsK8
	opIsStable
	opQuery
	numOpKinds
)

var opNames = [numOpKinds]string{
	"register", "repair_all", "deregister", "update",
	"repair_end", "repair_stage", "repair_step", "repair_independent",
	"repairs_k8", "is_stable", "query",
}

func (k opKind) String() string { return opNames[k] }

// repairOps lists the /repair kinds in the order update_repair_stream and
// cached_reads send them.
var repairOps = [4]opKind{opRepairEnd, opRepairStage, opRepairStep, opRepairIndependent}

func (k opKind) semantics() core.Semantics {
	switch k {
	case opRepairEnd:
		return core.SemEnd
	case opRepairStage:
		return core.SemStage
	case opRepairStep:
		return core.SemStep
	default:
		return core.SemIndependent
	}
}

// op is one request: the bytes the load generator sends and the structured
// arguments the traced run and the answer checks need.
type op struct {
	kind   opKind
	method string
	path   string
	body   []byte

	sess *session
	// version is the snapshot version the answer must report: the pinned
	// version of a read, or the version an update mints.
	version uint64
	// inserts and deletes are an update's batch.
	inserts, deletes []engine.Row
	// tag names an extra latency series the request also counts in, e.g.
	// repairs after a batch the program cannot see against the others.
	tag string
}

// session is one registered (schema, program, database) triple plus the
// shadow state the answer checks replay updates on.
type session struct {
	name    string
	schema  string
	program string
	prog    *datalog.Program
	rows    []engine.Row // registration rows, in schema then insertion order
	regBody []byte
	// batch returns update u's rows; nil for sessions that are never updated.
	batch func(u int) (inserts, deletes []engine.Row)
}

// workload is one traffic mix. iteration returns client c's i-th group of
// requests; a client sends a group in order and waits for each reply.
type workload struct {
	name     string
	clients  int
	durable  bool
	sessions []*session
	// registerInSetup: sessions are registered (and primed) before the
	// window; cold_repair_all registers inside its cycles instead.
	registerInSetup bool
	prime           []op
	iteration       func(c, i int) []op
	// primary and secondary name the two latency series reported under the
	// workload-independent names primary_p50_ms and secondary_p50_ms. A
	// cycle is register + repair-all + deregister (cold_repair_all);
	// recovery is the median kill-to-first-read time (durable_updates).
	primary, secondary string
	// traceIters is the traced run's fixed iteration count per client.
	traceIters int
	// prebuild is how many iterations per client are encoded during set-up,
	// so the generator only sends bytes inside the window. Workloads whose
	// iterations reuse set-up bodies need none; past the prebuilt ones a
	// client encodes on the fly.
	prebuild int
	// mainSession indexes the session the single-dataset probes run on.
	mainSession int
	// openLoop adds the fixed-rate diagnostic leg to the traced run.
	openLoop bool
}

// scales fixes dataset sizes; the smoke test shrinks them.
type scales struct {
	masSmall, masLarge, tpch float64
}

var defaultScales = scales{masSmall: 0.1, masLarge: 0.2, tpch: 0.01}

// dataSeed pins the generated datasets. The hub cascades that size every
// repair vary by ±12 % with the generator's seed (MAS-20 at scale 0.2
// deletes 1211 to 1526 tuples over seeds 1-6), and response bytes, encode
// time and solver time follow one to one: ten runs on ten datasets spread
// further than the bound a later change is judged by. --seed therefore
// drives what is sent — the rows of every update batch, where a pass or a
// cycle starts, which answers are re-derived — on data of one fixed shape.
const dataSeed = 1

func datasetRows(db *engine.Database) []engine.Row {
	var rows []engine.Row
	for _, rs := range db.Schema.Relations {
		for _, t := range db.Relation(rs.Name).Tuples() {
			rows = append(rows, engine.Row{Rel: t.Rel, Vals: t.Vals})
		}
	}
	return rows
}

func jsonValue(v engine.Value) any {
	switch v.Kind {
	case engine.KindInt:
		return v.Int
	case engine.KindFloat:
		return v.Flt
	default:
		return v.Str
	}
}

func tupleMap(rows []engine.Row) map[string][][]any {
	if len(rows) == 0 {
		return nil
	}
	out := make(map[string][][]any)
	for _, r := range rows {
		vals := make([]any, len(r.Vals))
		for i, v := range r.Vals {
			vals[i] = jsonValue(v)
		}
		out[r.Rel] = append(out[r.Rel], vals)
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only harness-built values are encoded
	}
	return b
}

// newSession parses the program and pre-encodes the registration body.
// tuplesJSON is the encoded "tuples" object, shared by sessions over the
// same dataset so it is encoded once.
func newSession(name string, schema *engine.Schema, programSrc string, rows []engine.Row, tuplesJSON []byte) (*session, error) {
	prog, err := datalog.ParseAndValidate(programSrc, schema)
	if err != nil {
		return nil, fmt.Errorf("session %s: %w", name, err)
	}
	s := &session{name: name, schema: schema.String(), program: programSrc, prog: prog, rows: rows}
	head := mustJSON(server.RegisterRequest{Name: name, Schema: s.schema, Program: programSrc})
	// Splice the shared tuples object into the encoded request.
	s.regBody = append(append(append([]byte{}, head[:len(head)-1]...), `,"tuples":`...), tuplesJSON...)
	s.regBody = append(s.regBody, '}')
	return s, nil
}

func (s *session) path(endpoint string) string {
	return "/v1/sessions/" + s.name + "/" + endpoint
}

func (s *session) registerOp() op {
	return op{kind: opRegister, method: "POST", path: "/v1/sessions", body: s.regBody, sess: s}
}

func (s *session) repairOp(kind opKind, version uint64, pinned bool, tag string) op {
	req := server.RepairRequest{Semantics: kind.semantics().String()}
	if pinned {
		req.Version = version
	}
	return op{kind: kind, method: "POST", path: s.path("repair"), body: mustJSON(req),
		sess: s, version: version, tag: tag}
}

func (s *session) isStableOp(version uint64, pinned bool) op {
	var req server.RepairRequest
	if pinned {
		req.Version = version
	}
	return op{kind: opIsStable, method: "POST", path: s.path("is-stable"), body: mustJSON(req), sess: s, version: version}
}

func (s *session) repairsOp(version uint64, pinned bool) op {
	req := server.RepairsRequest{K: 8}
	if pinned {
		req.Version = version
	}
	return op{kind: opRepairsK8, method: "POST", path: s.path("repairs"), body: mustJSON(req), sess: s, version: version}
}

func (s *session) updateOp(u int) op {
	ins, del := s.batch(u)
	body := mustJSON(server.UpdateRequest{Inserts: tupleMap(ins), Deletes: tupleMap(del)})
	// Registration is version 1, so update u (0-based) mints version u+2.
	return op{kind: opUpdate, method: "POST", path: s.path("update"), body: body,
		sess: s, version: uint64(u) + 2, inserts: ins, deletes: del}
}

// orgQuery asks for one organisation's (author, paper) pairs: 304 rows on
// MAS at scale 0.2. Not the hub organisation: every repair of MAS-19/20
// deletes all of its authors, which leaves that query no row to classify.
const orgQuery = "Q(a, p) :- Writes(a, p), Author(a, n, o), o = 4."

func (s *session) queryOp(version uint64) op {
	req := server.QueryRequest{Query: orgQuery, K: 4, Version: version}
	return op{kind: opQuery, method: "POST", path: s.path("query"), body: mustJSON(req), sess: s, version: version}
}

// rowRand returns the random stream that chooses update u's rows, so a
// batch is a pure function of (seed, session, u) and later batches can
// name the rows earlier ones inserted.
func rowRand(seed int64, sess string, u int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, sess, u)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// freshID keeps harness-made keys clear of every generated key.
func freshID(client, u, j int) engine.Value {
	return engine.Int(10_000_000 + client*1_000_000 + u*4 + j)
}

func buildWorkload(name string, seed int64, sc scales) (*workload, error) {
	switch name {
	case wlCold:
		return buildCold(seed, sc)
	case wlStream:
		return buildStream(seed, sc)
	case wlCached:
		return buildCached(seed, sc)
	case wlDurable:
		return buildDurable(seed, sc)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// buildCold: the paper's 26 programs as one-shot traffic. An iteration is a
// whole pass, so a window holds whole passes only: cycles cost 5 ms to
// 0.4 s and a time cut would land mid-pass.
func buildCold(seed int64, sc scales) (*workload, error) {
	md := mas.Generate(mas.Config{Scale: sc.masSmall, Seed: dataSeed})
	td := tpch.Generate(tpch.Config{Scale: sc.tpch, Seed: dataSeed})
	masRows, tpchRows := datasetRows(md.DB), datasetRows(td.DB)
	masTuples, tpchTuples := mustJSON(tupleMap(masRows)), mustJSON(tupleMap(tpchRows))
	// The probes' main session is MAS-20, which reads every relation.
	// The median repair-all sits in the gap between two programs' costs and
	// jitters by that gap; 20 of the 26 registrations carry the same MAS
	// body, so the median registration is steady — hence the secondary.
	w := &workload{name: wlCold, clients: 1, primary: "cycle", secondary: "register", traceIters: 1, mainSession: 19}
	for n := 1; n <= 26; n++ {
		var (
			src string
			err error
			s   *session
		)
		if n <= 20 {
			if src, err = programs.MASSource(n, md); err == nil {
				s, err = newSession(fmt.Sprintf("cold-mas%d", n), md.DB.Schema, src, masRows, masTuples)
			}
		} else {
			if src, err = programs.TPCHSource(n-20, td); err == nil {
				s, err = newSession(fmt.Sprintf("cold-tpch%d", n-20), td.DB.Schema, src, tpchRows, tpchTuples)
			}
		}
		if err != nil {
			return nil, err
		}
		w.sessions = append(w.sessions, s)
	}
	// The seed fixes where a pass starts, so the same seed sends the same
	// sequence and another seed a different one even on equal data.
	start := int(rowRand(seed, wlCold, 0).Int63() % 26)
	w.iteration = func(_, _ int) []op {
		ops := make([]op, 0, 3*len(w.sessions))
		for k := range w.sessions {
			s := w.sessions[(start+k)%len(w.sessions)]
			ops = append(ops, s.registerOp(),
				op{kind: opRepairAll, method: "POST", path: s.path("repair-all"), body: []byte("{}"), sess: s, version: 1},
				op{kind: opDeregister, method: "DELETE", path: "/v1/sessions/" + s.name, sess: s})
		}
		return ops
	}
	return w, nil
}

// buildStream: the steady state of PRs 5-8. Each client owns one session;
// iteration i applies batch kind i mod 8 and repairs the new head under all
// four semantics, so every hint chain is one version long.
func buildStream(seed int64, sc scales) (*workload, error) {
	md := mas.Generate(mas.Config{Scale: sc.masSmall, Seed: dataSeed})
	rows := datasetRows(md.DB)
	tuples := mustJSON(tupleMap(rows))
	w := &workload{name: wlStream, clients: 2, registerInSetup: true, primary: "repair_independent", secondary: "update",
		traceIters: 16, prebuild: 1024}
	for c, n := range []int{8, 19} { // MAS-8 is the mixed class, MAS-19 the cascade class
		src, err := programs.MASSource(n, md)
		if err != nil {
			return nil, err
		}
		s, err := newSession(fmt.Sprintf("stream-mas%d", n), md.DB.Schema, src, rows, tuples)
		if err != nil {
			return nil, err
		}
		c, n := c, n
		// rowsOf returns the three rows batch u inserts. Kinds 0-5 land in
		// the program's join neighbourhood (the hub author's papers for
		// MAS-8, a new hub-organisation author for MAS-19); kind 6 adds
		// Author rows no rule binds; kind 7 adds Cite rows, a relation
		// neither program reads.
		rowsOf := func(u int) []engine.Row {
			rng := rowRand(seed, s.name, u)
			switch kind := u % 8; {
			case kind == 6:
				var out []engine.Row
				for j := 0; j < 3; j++ {
					org := 2 + rng.Intn(max(md.NumOrganizations-1, 1))
					out = append(out, engine.Row{Rel: "Author", Vals: []engine.Value{
						freshID(c, u, j), engine.Str(fmt.Sprintf("bench-a%d-%d", u, j)), engine.Int(org)}})
				}
				return out
			case kind == 7:
				var out []engine.Row
				for j := 0; j < 3; j++ {
					out = append(out, engine.Row{Rel: "Cite", Vals: []engine.Value{
						freshID(c, u, j), engine.Int(1 + rng.Intn(md.NumPublications))}})
				}
				return out
			case n == 8:
				pid := freshID(c, u, 0)
				other := 2 + rng.Intn(max(md.NumAuthors-1, 1))
				return []engine.Row{
					{Rel: "Publication", Vals: []engine.Value{pid, engine.Str(fmt.Sprintf("bench-t%d", u))}},
					{Rel: "Writes", Vals: []engine.Value{engine.Int(md.HubAuthor), pid}},
					{Rel: "Writes", Vals: []engine.Value{engine.Int(other), pid}},
				}
			default:
				aid := freshID(c, u, 0)
				p1 := 1 + rng.Intn(md.NumPublications)
				p2 := 1 + (p1+rng.Intn(max(md.NumPublications-1, 1)))%md.NumPublications
				return []engine.Row{
					{Rel: "Author", Vals: []engine.Value{aid, engine.Str(fmt.Sprintf("bench-a%d", u)), engine.Int(md.HubOrg)}},
					{Rel: "Writes", Vals: []engine.Value{aid, engine.Int(p1)}},
					{Rel: "Writes", Vals: []engine.Value{aid, engine.Int(p2)}},
				}
			}
		}
		// Every inserted row is deleted again 3 or 8 batches later, so the
		// database and the repair sizes stay level through a window of any
		// length: kinds 0-2 insert only; kinds 3-5 also delete the rows of
		// batch u-3 (an insert-only batch) and of batch u-8 (their own
		// kind, one round earlier); kinds 6-7 delete the rows of u-8.
		s.batch = func(u int) (ins, del []engine.Row) {
			ins = rowsOf(u)
			kind := u % 8
			if kind >= 3 && kind <= 5 {
				del = rowsOf(u - 3)
			}
			if kind >= 3 && u >= 8 {
				del = append(del, rowsOf(u-8)...)
			}
			return ins, del
		}
		w.sessions = append(w.sessions, s)
	}
	w.iteration = func(c, i int) []op {
		s := w.sessions[c]
		up := s.updateOp(i)
		// Batch kinds 6 and 7 are invisible to the program: the daemon
		// should answer from the previous result.
		tag := "repair_interacting"
		if i%8 >= 6 {
			tag = "repair_replay"
		}
		ops := []op{up}
		for _, k := range repairOps {
			ops = append(ops, s.repairOp(k, up.version, false, tag))
		}
		if i%8 == 0 { // a fresh version after an interacting batch
			ops = append(ops, s.repairsOp(up.version, false))
		}
		return ops
	}
	return w, nil
}

// buildCached: primed sessions, no updates, every read pinned to the head.
func buildCached(seed int64, sc scales) (*workload, error) {
	md := mas.Generate(mas.Config{Scale: sc.masLarge, Seed: dataSeed})
	rows := datasetRows(md.DB)
	tuples := mustJSON(tupleMap(rows))
	src, err := programs.MASSource(20, md)
	if err != nil {
		return nil, err
	}
	w := &workload{name: wlCached, clients: 2, registerInSetup: true, primary: "repair_end", secondary: "query",
		traceIters: 128, openLoop: true}
	for c := 0; c < 2; c++ {
		s, err := newSession(fmt.Sprintf("cached-%d", c), md.DB.Schema, src, rows, tuples)
		if err != nil {
			return nil, err
		}
		w.sessions = append(w.sessions, s)
		for _, k := range repairOps {
			w.prime = append(w.prime, s.repairOp(k, 1, true, ""))
		}
		w.prime = append(w.prime, s.repairsOp(1, true), s.isStableOp(1, true), s.queryOp(1))
	}
	// The seed rotates where a client's cycle starts (see buildCold).
	start := int(rowRand(seed, wlCached, 0).Int63() % 6)
	w.iteration = func(c, _ int) []op {
		s := w.sessions[c]
		cycle := make([]op, 0, 6)
		for _, k := range repairOps {
			cycle = append(cycle, s.repairOp(k, 1, true, ""))
		}
		cycle = append(cycle, s.isStableOp(1, true), s.queryOp(1))
		return append(cycle[start:], cycle[:start]...)
	}
	return w, nil
}

// buildDurable: the write path. An iteration is 8 requests: 7 updates and
// one stability probe at the head.
func buildDurable(seed int64, sc scales) (*workload, error) {
	md := mas.Generate(mas.Config{Scale: sc.masLarge, Seed: dataSeed})
	rows := datasetRows(md.DB)
	tuples := mustJSON(tupleMap(rows))
	src, err := programs.MASSource(20, md)
	if err != nil {
		return nil, err
	}
	w := &workload{name: wlDurable, clients: 2, durable: true, registerInSetup: true, primary: "update", secondary: "recovery",
		traceIters: 32, prebuild: 2048}
	for c := 0; c < 2; c++ {
		s, err := newSession(fmt.Sprintf("durable-%d", c), md.DB.Schema, src, rows, tuples)
		if err != nil {
			return nil, err
		}
		c := c
		rowsOf := func(u int) []engine.Row {
			rng := rowRand(seed, s.name, u)
			pid := freshID(c, u, 0)
			return []engine.Row{
				{Rel: "Publication", Vals: []engine.Value{pid, engine.Str(fmt.Sprintf("bench-t%d", u))}},
				{Rel: "Writes", Vals: []engine.Value{engine.Int(2 + rng.Intn(max(md.NumAuthors-1, 1))), pid}},
				{Rel: "Cite", Vals: []engine.Value{pid, engine.Int(1 + rng.Intn(md.NumPublications))}},
			}
		}
		// Every 4th batch also deletes the rows of the four batches before
		// it, so the database stays level through a window of any length.
		s.batch = func(u int) (ins, del []engine.Row) {
			ins = rowsOf(u)
			if u%4 == 3 {
				for k := max(u-4, 0); k < u; k++ {
					del = append(del, rowsOf(k)...)
				}
			}
			return ins, del
		}
		w.sessions = append(w.sessions, s)
	}
	w.iteration = func(c, i int) []op {
		s := w.sessions[c]
		ops := make([]op, 0, 8)
		for k := 0; k < 7; k++ {
			up := s.updateOp(i*7 + k)
			ops = append(ops, up)
			if k == 3 { // reads beside writes
				ops = append(ops, s.isStableOp(up.version, false))
			}
		}
		return ops
	}
	return w, nil
}

// scheduleHash folds the first n iterations of every client into one hash:
// the same seed must give the same requests, another seed different ones.
func (w *workload) scheduleHash(n int) uint64 {
	h := fnv.New64a()
	for c := 0; c < w.clients; c++ {
		for i := 0; i < n; i++ {
			for _, o := range w.iteration(c, i) {
				fmt.Fprintf(h, "%s %s %d\n", o.method, o.path, len(o.body))
				h.Write(o.body)
			}
		}
	}
	return h.Sum64()
}
