package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cqa"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/server/durability"
	"repro/internal/sideeffect"
)

// The traced run measures layers from outside the program: it times calls
// into each package's public functions. Every request of the workload's
// schedule runs on twin services fed the identical sequence — once through
// the HTTP handler (span "http") and once through the Service method (span
// "server"), whose returned Result.Timing supplies the core.* child spans.
// A layer's self time is its span minus its children. Spans inside the
// program belong to a later change.

// span is one timed interval. Parent is the index of the enclosing span in
// the trace (-1 for a root); spans of one request share Request.
type span struct {
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Parent  int     `json:"parent"`
	Request int     `json:"request"`
}

// phase is one step of the service-side path of a request, with the child
// phases its result reports.
type phase struct {
	name     string
	dur      time.Duration
	children []phase
}

func corePhases(b core.Breakdown) []phase {
	return []phase{
		{name: "core.eval", dur: b.Eval}, {name: "core.processprov", dur: b.ProcessProv},
		{name: "core.solve", dur: b.Solve}, {name: "core.traverse", dur: b.Traverse},
		{name: "core.update", dur: b.Update},
	}
}

func loadRows(schema *engine.Schema, rows []engine.Row) (*engine.Database, error) {
	db := engine.NewDatabase(schema)
	for _, r := range rows {
		if _, err := db.Insert(r.Rel, r.Vals...); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// callService runs one request through the Service method its handler
// calls and returns the phases of that path.
func callService(ctx context.Context, svc *server.Service, o *op) ([]phase, error) {
	s := o.sess
	opts := server.RequestOptions{}
	timed := func(f func() (core.Breakdown, error)) ([]phase, error) {
		start := time.Now()
		b, err := f()
		return []phase{{name: "server", dur: time.Since(start), children: corePhases(b)}}, err
	}
	switch o.kind {
	case opRegister:
		// The handler loads and parses before it registers; time those
		// steps as the layers they belong to.
		t0 := time.Now()
		schema, err := engine.ParseSchema(s.schema)
		if err != nil {
			return nil, err
		}
		db, err := loadRows(schema, s.rows)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		prog, err := datalog.ParseAndValidate(s.program, schema)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		err = svc.Register(s.name, schema, db, prog)
		return []phase{{name: "engine.load", dur: t1.Sub(t0)}, {name: "datalog.parse", dur: t2.Sub(t1)},
			{name: "server", dur: time.Since(t2)}}, err
	case opDeregister:
		return timed(func() (core.Breakdown, error) {
			if !svc.Deregister(s.name) {
				return core.Breakdown{}, fmt.Errorf("session %s not registered", s.name)
			}
			return core.Breakdown{}, nil
		})
	case opRepairAll:
		return timed(func() (core.Breakdown, error) {
			results, _, err := svc.RepairAllVersioned(ctx, s.name, opts)
			var sum core.Breakdown
			for _, r := range results {
				sum.Eval += r.Timing.Eval
				sum.ProcessProv += r.Timing.ProcessProv
				sum.Solve += r.Timing.Solve
				sum.Traverse += r.Timing.Traverse
				sum.Update += r.Timing.Update
			}
			return sum, err
		})
	case opUpdate:
		return timed(func() (core.Breakdown, error) {
			_, err := svc.Update(ctx, s.name, o.inserts, o.deletes, opts)
			return core.Breakdown{}, err
		})
	case opRepairEnd, opRepairStage, opRepairStep, opRepairIndependent:
		return timed(func() (core.Breakdown, error) {
			r, _, _, err := svc.RepairVersioned(ctx, s.name, o.kind.semantics(), opts)
			if err != nil {
				return core.Breakdown{}, err
			}
			return r.Timing, nil
		})
	case opRepairsK8:
		return timed(func() (core.Breakdown, error) {
			sp, _, err := svc.EnumerateRepairs(ctx, s.name, core.EnumerateOptions{K: 8}, opts)
			if err != nil {
				return core.Breakdown{}, err
			}
			return sp.Timing, nil
		})
	case opIsStable:
		return timed(func() (core.Breakdown, error) {
			_, _, err := svc.IsStableVersioned(ctx, s.name, opts)
			return core.Breakdown{}, err
		})
	case opQuery:
		return timed(func() (core.Breakdown, error) {
			_, _, err := svc.Query(ctx, s.name, orgQuery, core.EnumerateOptions{K: 4}, opts)
			return core.Breakdown{}, err
		})
	}
	return nil, fmt.Errorf("no service call for %s", o.kind)
}

// wireTypes returns fresh values of the exported request and response types
// of a request kind, for the decode and encode probes.
func wireTypes(k opKind) (req, resp any) {
	switch k {
	case opRegister:
		return new(server.RegisterRequest), new(map[string]any)
	case opRepairAll:
		return new(server.RepairRequest), new(server.RepairAllResponse)
	case opUpdate:
		return new(server.UpdateRequest), new(map[string]any)
	case opRepairEnd, opRepairStage, opRepairStep, opRepairIndependent:
		return new(server.RepairRequest), new(server.RepairResponse)
	case opRepairsK8:
		return new(server.RepairsRequest), new(server.RepairsResponse)
	case opQuery:
		return new(server.QueryRequest), new(server.QueryResponse)
	default:
		return new(server.RepairRequest), new(map[string]any)
	}
}

// codecProbe times decoding a request body and encoding a response body the
// way the handlers do (numbers kept exact; two-space indent).
func codecProbe(k opKind, reqBody, respBody []byte) (dec, enc time.Duration, err error) {
	req, resp := wireTypes(k)
	if len(reqBody) > 0 {
		start := time.Now()
		d := json.NewDecoder(bytes.NewReader(reqBody))
		d.UseNumber()
		if err := d.Decode(req); err != nil {
			return 0, 0, err
		}
		dec = time.Since(start)
	}
	if err := json.Unmarshal(respBody, resp); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	e := json.NewEncoder(io.Discard)
	e.SetIndent("", "  ")
	if err := e.Encode(resp); err != nil {
		return 0, 0, err
	}
	return dec, time.Since(start), nil
}

// traced is one request's measurements on both twins.
type traced struct {
	kind                      string
	client                    int
	group                     int // requests of one cycle share a group
	http, server, core, other time.Duration
	decode, encode            time.Duration
	reqBytes, respBytes       int
	servedCore, coldCore      time.Duration // repairs only
}

// coldTwin keeps, per session, the engine snapshot at the version the twin
// services stand at, so a repair the service served with hints can be run
// again hint-free on a fork of the same version.
type coldTwin struct {
	prog    *datalog.Program
	prep    *datalog.Prepared
	snap    *engine.Snapshot
	version uint64
	cache   map[core.Semantics]time.Duration // cold cost at the current version
}

func newColdTwin(s *session) (*coldTwin, error) {
	schema, err := engine.ParseSchema(s.schema)
	if err != nil {
		return nil, err
	}
	prog, err := datalog.ParseAndValidate(s.program, schema)
	if err != nil {
		return nil, err
	}
	prep, err := datalog.Prepare(prog, schema)
	if err != nil {
		return nil, err
	}
	db, err := loadRows(schema, s.rows)
	if err != nil {
		return nil, err
	}
	return &coldTwin{prog: prog, prep: prep, snap: db.Freeze(), version: 1, cache: map[core.Semantics]time.Duration{}}, nil
}

func (t *coldTwin) apply(o *op) error {
	next, _, err := t.snap.Apply(o.inserts, o.deletes)
	if err != nil {
		return err
	}
	t.snap, t.version = next, o.version
	t.cache = map[core.Semantics]time.Duration{}
	return nil
}

func (t *coldTwin) cold(sem core.Semantics) (time.Duration, error) {
	if d, ok := t.cache[sem]; ok {
		return d, nil
	}
	res, _, err := core.RunWith(t.snap.Fork(), t.prog, sem, core.Options{Prepared: t.prep})
	if err != nil {
		return 0, err
	}
	t.cache[sem] = res.Timing.Total()
	return t.cache[sem], nil
}

// tracedRun is the in-process half of a traced run. It adds the per-layer
// metrics to res and appends the budget table to res.tables.
func tracedRun(ctx context.Context, cfg *runConfig, w *workload, res *runResult) error {
	var dirs [2]string
	if w.durable {
		for i := range dirs {
			dirs[i] = filepath.Join(cfg.tmpDir, fmt.Sprintf("trace-data-%d", i))
			defer os.RemoveAll(dirs[i])
		}
	}
	var twins [2]*server.Service
	for i := range twins {
		svc, err := server.Open(server.Config{DataDir: dirs[i], DefaultTimeout: 30 * time.Second})
		if err != nil {
			return err
		}
		defer svc.Close()
		twins[i] = svc
	}
	handler := twins[0].Handler()

	t0 := time.Now()
	var spans []span
	addSpan := func(name string, start time.Time, d time.Duration, parent, req int) int {
		spans = append(spans, span{Name: name, StartUS: us(start.Sub(t0)), EndUS: us(start.Add(d).Sub(t0)), Parent: parent, Request: req})
		return len(spans) - 1
	}
	colds := make(map[*session]*coldTwin)
	var all []traced
	request, group := 0, 0

	// exec runs one request on both twins. Set-up requests (keep=false) are
	// executed but leave no spans or measurements.
	exec := func(o *op, client int, keep bool) error {
		request++
		var body io.Reader
		if o.body != nil {
			body = bytes.NewReader(o.body)
		}
		req := httptest.NewRequest(o.method, o.path, body)
		rw := httptest.NewRecorder()
		startA := time.Now()
		handler.ServeHTTP(rw, req.WithContext(ctx))
		httpDur := time.Since(startA)
		if rw.Code/100 != 2 {
			return fmt.Errorf("%s %s: status %d: %s", o.method, o.path, rw.Code, strings.TrimSpace(rw.Body.String()))
		}
		startB := time.Now()
		phases, err := callService(ctx, twins[1], o)
		if err != nil {
			return fmt.Errorf("%s %s on the service: %w", o.method, o.path, err)
		}
		if !keep {
			return nil
		}
		tr := traced{kind: o.kind.String(), client: client, group: group, http: httpDur, reqBytes: len(o.body), respBytes: rw.Body.Len()}
		addSpan("http", startA, httpDur, -1, request)
		at := startB
		for _, p := range phases {
			id := addSpan(p.name, at, p.dur, -1, request)
			inner := at
			for _, c := range p.children {
				if c.dur > 0 {
					addSpan(c.name, inner, c.dur, id, request)
					inner = inner.Add(c.dur)
				}
				tr.core += c.dur
			}
			if p.name == "server" {
				tr.server += p.dur
			} else {
				tr.other += p.dur
			}
			at = at.Add(p.dur)
		}
		if tr.decode, tr.encode, err = codecProbe(o.kind, o.body, rw.Body.Bytes()); err != nil {
			return fmt.Errorf("%s %s: codec probe: %w", o.method, o.path, err)
		}
		// The same request hint-free, for what the warm paths saved.
		if o.kind >= opRepairEnd && o.kind <= opRepairIndependent {
			ct := colds[o.sess]
			if ct != nil && ct.version == o.version {
				if tr.coldCore, err = ct.cold(o.kind.semantics()); err != nil {
					return err
				}
				tr.servedCore = tr.core
			}
		}
		all = append(all, tr)
		return nil
	}

	if w.registerInSetup {
		for _, s := range w.sessions {
			o := s.registerOp()
			if err := exec(&o, 0, false); err != nil {
				return err
			}
			ct, err := newColdTwin(s)
			if err != nil {
				return err
			}
			colds[s] = ct
		}
		for i := range w.prime {
			if err := exec(&w.prime[i], 0, false); err != nil {
				return err
			}
		}
	}
	iters := max(1, w.traceIters/max(cfg.traceScale, 1))
	for i := 0; i < iters && ctx.Err() == nil; i++ {
		for c := 0; c < w.clients; c++ {
			ops := w.iteration(c, i)
			for k := range ops {
				o := &ops[k]
				if err := exec(o, c, true); err != nil {
					return err
				}
				if o.kind == opUpdate {
					if err := colds[o.sess].apply(o); err != nil {
						return err
					}
				}
				if o.kind == opDeregister {
					group++
				}
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	budget(w, res, all)
	if err := probes(cfg, w, res); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return err
		}
		out, err := json.Marshal(spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), out, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// budget reconciles the traced layers with the socket run, per op type:
// the layers' self times add up to the handler's span, and what the socket
// run's median has on top of that is the transport's.
func budget(w *workload, res *runResult, all []traced) {
	byKind := make(map[string][]traced)
	var order []string
	add := func(kind string, t traced) {
		if _, ok := byKind[kind]; !ok {
			order = append(order, kind)
		}
		byKind[kind] = append(byKind[kind], t)
	}
	cycles := make(map[int]*traced)
	var cycleOrder []int
	for _, t := range all {
		add(t.kind, t)
		if w.primary != "cycle" {
			continue
		}
		c := cycles[t.group]
		if c == nil {
			c = &traced{kind: "cycle"}
			cycles[t.group] = c
			cycleOrder = append(cycleOrder, t.group)
		}
		c.http += t.http
		c.server += t.server
		c.core += t.core
		c.other += t.other
		c.decode += t.decode
		c.encode += t.encode
		c.reqBytes += t.reqBytes
		c.respBytes += t.respBytes
	}
	for _, g := range cycleOrder {
		add("cycle", *cycles[g])
	}

	// Medians are taken per client and averaged, as in the socket run.
	med := func(ts []traced, f func(*traced) time.Duration) time.Duration {
		perClient := make([][]time.Duration, w.clients)
		for i := range ts {
			perClient[ts[i].client] = append(perClient[ts[i].client], f(&ts[i]))
		}
		var medians []time.Duration
		for _, d := range perClient {
			if len(d) > 0 {
				medians = append(medians, medianDur(d))
			}
		}
		return meanDur(medians)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "budget %s (traced, in-process, µs; self = span − children; transport.self = socket p50 − http p50)\n", w.name)
	fmt.Fprintf(&b, "%-20s %5s %10s %10s | %10s %11s %10s %12s | %14s\n",
		"op", "n", "socket_p50", "http_p50", "http.self", "server.self", "core", "other_layers", "transport.self")
	for _, kind := range order {
		ts := byKind[kind]
		httpP := med(ts, func(t *traced) time.Duration { return t.http })
		serverP := med(ts, func(t *traced) time.Duration { return t.server })
		coreP := med(ts, func(t *traced) time.Duration { return t.core })
		otherP := med(ts, func(t *traced) time.Duration { return t.other })
		socket := res.socketP50[kind]
		fmt.Fprintf(&b, "%-20s %5d %10.0f %10.0f | %10.0f %11.0f %10.0f %12.0f | %14.0f\n",
			kind, len(ts), us(socket), us(httpP), us(httpP-serverP-otherP), us(serverP-coreP), us(coreP), us(otherP), us(socket-httpP))
		if kind != w.primary {
			continue
		}
		var reqB, respB float64
		for _, t := range ts {
			reqB += float64(t.reqBytes)
			respB += float64(t.respBytes)
		}
		m := &res.metrics
		m.add("transport.self_us", "us", us(socket-httpP), len(ts))
		m.add("http.self_us", "us", us(httpP-serverP-otherP), len(ts))
		m.add("http.decode_us", "us", us(med(ts, func(t *traced) time.Duration { return t.decode })), len(ts))
		m.add("http.encode_us", "us", us(med(ts, func(t *traced) time.Duration { return t.encode })), len(ts))
		m.add("http.request_bytes", "B", reqB/float64(len(ts)), 0)
		m.add("http.response_bytes", "B", respB/float64(len(ts)), 0)
		m.add("server.self_us", "us", us(serverP-coreP), len(ts))
	}
	res.tables = append(res.tables, b.String())

	// What the warm paths saved on the repairs of the schedule.
	var served, cold time.Duration
	for _, t := range all {
		served += t.servedCore
		cold += t.coldCore
	}
	saved := 0.0
	if cold > 0 {
		saved = 1 - float64(served)/float64(cold)
	}
	res.metrics.add("core.warm_saved_share", "share", saved, 0)
}

// probeBatch returns an update batch for the probes: the session's own
// where its workload updates it, three fresh rows elsewhere.
func probeBatch(s *session, u int) (ins, del []engine.Row) {
	if s.batch != nil {
		return s.batch(u)
	}
	pid := freshID(9, u, 0)
	return []engine.Row{
		{Rel: "Publication", Vals: []engine.Value{pid, engine.Str("probe")}},
		{Rel: "Writes", Vals: []engine.Value{engine.Int(2), pid}},
		{Rel: "Cite", Vals: []engine.Value{pid, engine.Int(1)}},
	}, nil
}

// probes times the remaining public entry points stand-alone, on the
// workload's own data: per (dataset, program) pair the load, parse, prepare,
// freeze, index build, fork and the four hint-free executors; on the
// workload's main session also update, snapshot, enumeration, query
// answering and the durability layer.
func probes(cfg *runConfig, w *workload, res *runResult) error {
	m := &res.metrics
	var (
		load, freeze, index, fork, parse, prepare []time.Duration
		coldBySem                                 = map[core.Semantics][]time.Duration{}
		eval, prov, solve, traverse, update       []time.Duration
		rounds, size, clauses, graph, nodes       float64
		truncated, independents                   int
	)
	type built struct {
		schema *engine.Schema
		prog   *datalog.Program
		prep   *datalog.Prepared
		snap   *engine.Snapshot
	}
	var main built
	mainSess := w.sessions[w.mainSession]
	for _, s := range w.sessions {
		schema, err := engine.ParseSchema(s.schema)
		if err != nil {
			return err
		}
		start := time.Now()
		db, err := loadRows(schema, s.rows)
		if err != nil {
			return err
		}
		load = append(load, time.Since(start))
		start = time.Now()
		prog, err := datalog.ParseAndValidate(s.program, schema)
		if err != nil {
			return err
		}
		parse = append(parse, time.Since(start))
		start = time.Now()
		prep, err := datalog.Prepare(prog, schema)
		if err != nil {
			return err
		}
		prepare = append(prepare, time.Since(start))
		start = time.Now()
		snap := db.Freeze()
		freeze = append(freeze, time.Since(start))
		start = time.Now()
		prep.WarmIndexes(snap.Fork())
		index = append(index, time.Since(start))
		start = time.Now()
		for i := 0; i < 256; i++ {
			snap.Fork()
		}
		fork = append(fork, time.Since(start)/256)
		for _, sem := range core.AllSemantics {
			r, _, err := core.RunWith(snap.Fork(), prog, sem, core.Options{Prepared: prep})
			if err != nil {
				return err
			}
			coldBySem[sem] = append(coldBySem[sem], r.Timing.Total())
			eval, prov = append(eval, r.Timing.Eval), append(prov, r.Timing.ProcessProv)
			solve, traverse = append(solve, r.Timing.Solve), append(traverse, r.Timing.Traverse)
			update = append(update, r.Timing.Update)
			rounds += float64(r.Rounds)
			size += float64(r.Size())
			clauses += float64(r.FormulaClauses)
			graph += float64(r.GraphAssignments)
			nodes += float64(r.SolverNodes)
			if sem == core.SemIndependent {
				independents++
				if !r.Optimal {
					truncated++
				}
			}
		}
		if s == mainSess {
			main = built{schema: schema, prog: prog, prep: prep, snap: snap}
		}
	}
	pairs := float64(len(w.sessions))
	m.add("engine.load_ms", "ms", ms(meanDur(load)), len(load))
	m.add("engine.freeze_ms", "ms", ms(meanDur(freeze)), len(freeze))
	m.add("engine.index_build_ms", "ms", ms(meanDur(index)), len(index))
	m.add("engine.fork_us", "us", us(meanDur(fork)), len(fork)*256)
	m.add("datalog.parse_us", "us", us(meanDur(parse)), len(parse))
	m.add("datalog.prepare_us", "us", us(meanDur(prepare)), len(prepare))
	for _, sem := range core.AllSemantics {
		m.add("core.cold_"+sem.String()+"_ms", "ms", ms(meanDur(coldBySem[sem])), len(coldBySem[sem]))
	}
	m.add("core.eval_us", "us", us(meanDur(eval)), len(eval))
	m.add("core.processprov_us", "us", us(meanDur(prov)), len(prov))
	m.add("core.traverse_us", "us", us(meanDur(traverse)), len(traverse))
	m.add("core.update_us", "us", us(meanDur(update)), len(update))
	m.add("core.rounds", "count", rounds/pairs, 0)
	m.add("core.repair_size", "count", size/(4*pairs), 0)
	m.add("provenance.clauses", "count", clauses/pairs, 0)
	m.add("provenance.graph_assignments", "count", graph/pairs, 0)
	m.add("sat.solve_us", "us", us(meanDur(solve))*4, independents) // solve runs under independent only
	m.add("sat.nodes", "count", nodes/pairs, 0)
	m.add("sat.truncated_share", "share", float64(truncated)/float64(independents), 0)

	// Update path on the main session: apply, and how many rows a batch
	// makes the engine re-freeze per row it changes.
	var apply []time.Duration
	var refrozen, changed float64
	snap := main.snap
	for u := 0; u < 32; u++ {
		ins, del := probeBatch(mainSess, u)
		start := time.Now()
		next, info, err := snap.Apply(ins, del)
		if err != nil {
			return err
		}
		apply = append(apply, time.Since(start))
		view := next.Fork()
		for _, rel := range info.Changed {
			refrozen += float64(view.Relation(rel).Len())
		}
		changed += float64(info.Inserted + info.Deleted)
		snap = next
	}
	m.add("engine.apply_us", "us", us(meanDur(apply)), len(apply))
	m.add("engine.apply_rows_refrozen_per_row_changed", "ratio", refrozen/max(changed, 1), 0)

	var buf bytes.Buffer
	start := time.Now()
	if err := main.snap.Fork().Save(&buf); err != nil {
		return err
	}
	m.add("engine.snapshot_save_ms", "ms", ms(time.Since(start)), 1)
	snapshotBytes := buf.Len()
	start = time.Now()
	if _, err := engine.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		return err
	}
	m.add("engine.snapshot_load_ms", "ms", ms(time.Since(start)), 1)

	start = time.Now()
	if _, err := core.EnumerateRepairsWith(main.snap.Fork(), main.prog, core.Options{Prepared: main.prep}, core.EnumerateOptions{K: 8}); err != nil {
		return err
	}
	m.add("sat.enum_k8_ms", "ms", ms(time.Since(start)), 1)

	view, err := sideeffect.ParseView(orgQuery, main.schema)
	if err != nil {
		return err
	}
	space, err := core.EnumerateRepairsWith(main.snap.Fork(), main.prog, core.Options{Prepared: main.prep}, core.EnumerateOptions{K: 4})
	if err != nil {
		return err
	}
	start = time.Now()
	ans, err := cqa.Answer(main.snap.Fork(), view, space)
	if err != nil {
		return err
	}
	m.add("cqa.answer_us", "us", us(time.Since(start)), 1)
	m.add("cqa.certain_rows", "count", float64(len(ans.Certain)), 0)
	m.add("cqa.possible_rows", "count", float64(len(ans.Possible)), 0)

	return durabilityProbe(cfg, mainSess, main.snap, snapshotBytes, m)
}

// durabilityProbe drives the durability layer by hand the way Service.Update
// does: 64 appends with fsync, one compaction, 48 more appends, a recovery
// that replays them; then 64 appends without fsync.
func durabilityProbe(cfg *runConfig, s *session, snap *engine.Snapshot, snapshotBytes int, m *metricSet) error {
	dir := filepath.Join(cfg.tmpDir, "probe-durability")
	defer os.RemoveAll(dir)
	var userBytes, walBytes float64
	for _, policy := range []durability.FsyncPolicy{durability.FsyncAlways, durability.FsyncNever} {
		mgr, err := durability.NewManager(durability.Options{Dir: filepath.Join(dir, fmt.Sprint(policy)), Fsync: policy, SnapshotEvery: -1})
		if err != nil {
			return err
		}
		store, err := mgr.Create(durability.Meta{Name: "probe", Schema: s.schema, Program: s.program}, snap.Fork())
		if err != nil {
			return err
		}
		head, version := snap, uint64(1)
		appendN := func(n int) ([]time.Duration, error) {
			var ds []time.Duration
			for i := 0; i < n; i++ {
				ins, del := probeBatch(s, int(version)-1)
				next, _, err := head.Apply(ins, del)
				if err != nil {
					return nil, err
				}
				rec := &durability.Record{Version: version + 1, Inserts: ins, Deletes: del}
				start := time.Now()
				if err := store.Append(rec); err != nil {
					return nil, err
				}
				ds = append(ds, time.Since(start))
				if policy == durability.FsyncAlways {
					frame, err := durability.EncodeRecord(rec)
					if err != nil {
						return nil, err
					}
					walBytes += float64(len(frame))
					userBytes += float64(len(mustJSON(server.UpdateRequest{Inserts: tupleMap(ins), Deletes: tupleMap(del)})))
				}
				head, version = next, version+1
			}
			return ds, nil
		}
		ds, err := appendN(64)
		if err != nil {
			store.Close()
			return err
		}
		if policy == durability.FsyncNever {
			m.add("durability.append_nofsync_us", "us", us(meanDur(ds)), len(ds))
			store.Close()
			continue
		}
		m.add("durability.append_us", "us", us(meanDur(ds)), len(ds))
		start := time.Now()
		if err := store.Compact(head, version); err != nil {
			store.Close()
			return err
		}
		m.add("durability.compact_ms", "ms", ms(time.Since(start)), 1)
		if _, err := appendN(48); err != nil {
			store.Close()
			return err
		}
		if err := store.Close(); err != nil {
			return err
		}
		start = time.Now()
		rec, err := mgr.Open("probe")
		if err != nil {
			return err
		}
		m.add("durability.recover_ms", "ms", ms(time.Since(start)), 1)
		rec.Store.Close()
		if rec.Version != version || rec.Replayed != 48 {
			return fmt.Errorf("probe recovery reached version %d after %d records, want %d after 48", rec.Version, rec.Replayed, version)
		}
	}
	// One compaction per 64 records: its snapshot is written once for them.
	m.add("durability.bytes_per_user_byte", "ratio", (walBytes+float64(snapshotBytes)*112/64)/max(userBytes, 1), 0)
	return nil
}
