package server

import (
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/cqa"
	"repro/internal/engine"
)

// RepairsRequest is the POST /v1/sessions/{name}/repairs body.
type RepairsRequest struct {
	// K caps the number of repairs returned; clamped to [1, 64]. 0 means 1.
	K int `json:"k,omitempty"`
	// Minimal selects the minimality notion: "set" (default) enumerates the
	// k best set-minimal repairs in nondecreasing cost order;
	// "cardinality" restricts the space to minimum-cost repairs only.
	Minimal        string `json:"minimal,omitempty"`
	TimeoutMS      int64  `json:"timeout_ms,omitempty"`
	SolverMaxNodes int64  `json:"solver_max_nodes,omitempty"`
	Version        uint64 `json:"version,omitempty"`
}

// QueryRequest is the POST /v1/sessions/{name}/query body. The repair-space
// knobs (k, minimal, solver_max_nodes) select the space the query is
// answered against, exactly as for the repairs endpoint.
type QueryRequest struct {
	// Query is a conjunctive query over the session schema, e.g.
	// "Q(a, t) :- Writes(a, p), Pub(p, t).".
	Query          string `json:"query"`
	K              int    `json:"k,omitempty"`
	Minimal        string `json:"minimal,omitempty"`
	TimeoutMS      int64  `json:"timeout_ms,omitempty"`
	SolverMaxNodes int64  `json:"solver_max_nodes,omitempty"`
	Version        uint64 `json:"version,omitempty"`
}

// RepairAlternative is one enumerated repair inside a RepairsResponse.
type RepairAlternative struct {
	Size    int            `json:"size"`
	Cost    int64          `json:"cost"`
	Deleted []string       `json:"deleted"`
	ByRel   map[string]int `json:"deleted_by_relation,omitempty"`
	// Optimal is false when the solver budget ran out during this solve —
	// the repair stabilizes the database but may not be cost-minimal.
	Optimal bool `json:"optimal"`
}

// RepairsResponse reports the k-best repair space of one session version.
type RepairsResponse struct {
	Session string `json:"session"`
	Version uint64 `json:"version"`
	// K is the number of repairs actually enumerated; KRequested echoes the
	// clamped request. K < KRequested with Complete=true means the space
	// holds fewer repairs than asked for.
	K          int                 `json:"k"`
	KRequested int                 `json:"k_requested"`
	Minimal    string              `json:"minimal"`
	Complete   bool                `json:"complete"`
	Optimal    bool                `json:"optimal"`
	Repairs    []RepairAlternative `json:"repairs"`
	// CertainDeleted lists tuples deleted in every enumerated repair;
	// PossiblyDeleted those deleted in at least one.
	CertainDeleted  []string `json:"certain_deleted"`
	PossiblyDeleted []string `json:"possibly_deleted"`
	SolverNodes     int64    `json:"solver_nodes"`
	ElapsedUS       int64    `json:"elapsed_us"`
}

// QueryResponse reports the consistent answers of one query.
type QueryResponse struct {
	Session string `json:"session"`
	Version uint64 `json:"version"`
	Columns int    `json:"columns"`
	// Certain rows hold in every enumerated repair; Possible rows in at
	// least one (certain rows included).
	Certain  [][]any `json:"certain"`
	Possible [][]any `json:"possible"`
	// Repairs is the number of repairs classified against; when Complete is
	// false the space was truncated and Certain/Possible are relative to
	// the enumerated repairs only.
	Complete bool `json:"complete"`
	Optimal  bool `json:"optimal"`
	Repairs  int  `json:"repairs"`
}

// minimalMode maps the JSON "minimal" field to EnumerateOptions.CardinalityOnly.
func minimalMode(s string) (bool, error) {
	switch s {
	case "", "set":
		return false, nil
	case "cardinality", "card":
		return true, nil
	default:
		return false, fmt.Errorf("unknown minimality %q: want set or cardinality", s)
	}
}

// jsonFromValue converts an engine Value to its JSON representation,
// inverting jsonValue.
func jsonFromValue(v engine.Value) any {
	switch v.Kind {
	case engine.KindInt:
		return v.Int
	case engine.KindFloat:
		return v.Flt
	default:
		return v.Str
	}
}

func jsonRows(rows [][]engine.Value) [][]any {
	out := make([][]any, len(rows))
	for i, vals := range rows {
		row := make([]any, len(vals))
		for j, v := range vals {
			row[j] = jsonFromValue(v)
		}
		out[i] = row
	}
	return out
}

func tupleKeys(ts []*engine.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Key()
	}
	return out
}

func repairsResponse(name string, version uint64, eopts core.EnumerateOptions, minimal string, sp *core.RepairSpace) RepairsResponse {
	resp := RepairsResponse{
		Session:         name,
		Version:         version,
		K:               sp.K(),
		KRequested:      core.ClampEnumK(eopts.K),
		Minimal:         minimal,
		Complete:        sp.Complete,
		Optimal:         sp.Optimal,
		Repairs:         make([]RepairAlternative, 0, sp.K()),
		CertainDeleted:  tupleKeys(sp.CertainlyDeleted()),
		PossiblyDeleted: tupleKeys(sp.PossiblyDeleted()),
		SolverNodes:     sp.SolverNodes,
		ElapsedUS:       sp.Timing.Total().Microseconds(),
	}
	for _, res := range sp.Repairs {
		resp.Repairs = append(resp.Repairs, RepairAlternative{
			Size:    res.Size(),
			Cost:    res.RepairCost,
			Deleted: res.Keys(),
			ByRel:   res.ByRelation(),
			Optimal: res.Optimal,
		})
	}
	return resp
}

func (s *Service) handleRepairs(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req RepairsRequest
	if err := decodeBody(r, &req); err != nil {
		writeBadRequest(w, err)
		return
	}
	cardOnly, err := minimalMode(req.Minimal)
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	minimal := "set"
	if cardOnly {
		minimal = "cardinality"
	}
	opts := (&RepairRequest{
		TimeoutMS:      req.TimeoutMS,
		SolverMaxNodes: req.SolverMaxNodes,
		Version:        req.Version,
	}).options()
	eopts := core.EnumerateOptions{K: req.K, CardinalityOnly: cardOnly}
	sp, version, err := s.EnumerateRepairs(r.Context(), name, eopts, opts)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, repairsResponse(name, version, eopts, minimal, sp))
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req QueryRequest
	if err := decodeBody(r, &req); err != nil {
		writeBadRequest(w, err)
		return
	}
	if req.Query == "" {
		writeBadRequest(w, fmt.Errorf("missing query source"))
		return
	}
	cardOnly, err := minimalMode(req.Minimal)
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	opts := (&RepairRequest{
		TimeoutMS:      req.TimeoutMS,
		SolverMaxNodes: req.SolverMaxNodes,
		Version:        req.Version,
	}).options()
	eopts := core.EnumerateOptions{K: req.K, CardinalityOnly: cardOnly}
	body, err := s.queryBody(r.Context(), name, req.Query, eopts, opts)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeBody(w, http.StatusOK, body)
}

func queryResponse(name string, version uint64, ans *cqa.Answers) QueryResponse {
	return QueryResponse{
		Session:  name,
		Version:  version,
		Columns:  ans.Columns,
		Certain:  jsonRows(ans.Certain),
		Possible: jsonRows(ans.Possible),
		Complete: ans.Complete,
		Optimal:  ans.Optimal,
		Repairs:  ans.Repairs,
	}
}
