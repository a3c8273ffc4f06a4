package server

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cqa"
	"repro/internal/engine"
	"repro/internal/sideeffect"
)

// spaceFor returns the session's repair space for (version, k, budget,
// mode), enumerating and storing it on a miss. A miss enumerates on the
// session's derivation of the version, so the space reads the closure
// formula the version's /repair misses share. The caller must hold an
// admission token (begin) and have resolved the version to snap.
func (s *Service) spaceFor(sess *Session, snap *engine.Snapshot, version uint64, eopts core.EnumerateOptions, copts core.Options) (*core.RepairSpace, error) {
	key := spaceKey(version, eopts, copts.Independent.MaxNodes)
	if a, ok := sess.artefacts.get(key); ok {
		return a.space, nil
	}
	d, err := s.derivation(sess, snap, version)
	if err != nil {
		return nil, err
	}
	sp, err := d.Enumerate(copts, eopts)
	if err != nil {
		return nil, err
	}
	sess.artefacts.put(key, artefact{space: sp})
	return sp, nil
}

// EnumerateRepairs computes the k-best independent-semantics repair space
// for the named session — distinct minimal repairs in nondecreasing cost
// order plus the per-tuple certain/possible classification — at the
// session's head, or the version pinned in opts.
// Spaces are stored per (version, k, solver budget, minimality mode) and
// replayed while their version is retained.
func (s *Service) EnumerateRepairs(ctx context.Context, name string, eopts core.EnumerateOptions, opts RequestOptions) (_ *core.RepairSpace, _ uint64, err error) {
	defer s.track("repairs", time.Now(), &err)
	sess, done, err := s.begin(ctx, name)
	if err != nil {
		return nil, 0, err
	}
	defer done()
	snap, version, err := sess.resolve(opts.Version)
	if err != nil {
		return nil, 0, err
	}
	reqCtx, cancel := s.requestCtx(ctx, opts)
	defer cancel()
	sp, err := s.spaceFor(sess, snap, version, eopts, s.coreOptions(sess, reqCtx, opts))
	if err != nil {
		return nil, 0, err
	}
	return sp, version, nil
}

// Query answers a conjunctive query consistently across the session's
// repair space: certain answers hold in every enumerated repair, possible
// answers in at least one. The query source is parsed per request against
// the session schema (same surface as DeleteViewTuple views); the space is
// resolved through the same per-(version, k, budget, mode) store as
// EnumerateRepairs, so repeated queries against one version enumerate
// once.
func (s *Service) Query(ctx context.Context, name, querySrc string, eopts core.EnumerateOptions, opts RequestOptions) (_ *cqa.Answers, _ uint64, err error) {
	defer s.track("query", time.Now(), &err)
	sess, done, err := s.begin(ctx, name)
	if err != nil {
		return nil, 0, err
	}
	defer done()
	snap, version, err := sess.resolve(opts.Version)
	if err != nil {
		return nil, 0, err
	}
	reqCtx, cancel := s.requestCtx(ctx, opts)
	defer cancel()
	ans, err := s.answer(sess, snap, version, querySrc, eopts, s.coreOptions(sess, reqCtx, opts))
	if err != nil {
		return nil, 0, err
	}
	return ans, version, nil
}

// queryBody is Query encoded as the POST /query body, answered from the
// session's artefact store where it can be: a body stored for (version,
// query source, space key) is returned as it is, with no parse, no
// evaluation and no encoding. A miss answers, encodes once and stores the
// body.
func (s *Service) queryBody(ctx context.Context, name, querySrc string, eopts core.EnumerateOptions, opts RequestOptions) (_ []byte, err error) {
	defer s.track("query", time.Now(), &err)
	sess, done, err := s.begin(ctx, name)
	if err != nil {
		return nil, err
	}
	defer done()
	snap, version, err := sess.resolve(opts.Version)
	if err != nil {
		return nil, err
	}
	key := queryKey(version, querySrc, eopts, s.solverBudget(opts))
	stored, ok := sess.artefacts.get(key)
	s.metrics.queryLookups.count(ok)
	if ok {
		return stored.body, nil
	}
	reqCtx, cancel := s.requestCtx(ctx, opts)
	defer cancel()
	ans, err := s.answer(sess, snap, version, querySrc, eopts, s.coreOptions(sess, reqCtx, opts))
	if err != nil {
		return nil, err
	}
	body := encodeJSON(queryResponse(name, version, ans))
	sess.artefacts.put(key, artefact{body: body})
	return body, nil
}

// answer parses querySrc and answers it over the space at version. The
// caller must hold an admission token (begin) and have resolved the
// version to snap.
func (s *Service) answer(sess *Session, snap *engine.Snapshot, version uint64, querySrc string, eopts core.EnumerateOptions, copts core.Options) (*cqa.Answers, error) {
	v, err := sideeffect.ParseView(querySrc, sess.prep.Schema)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	sp, err := s.spaceFor(sess, snap, version, eopts, copts)
	if err != nil {
		return nil, err
	}
	return cqa.Answer(snap.Fork(), v, sp)
}
