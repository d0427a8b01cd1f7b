package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"time"

	"etherm/api"
	"etherm/internal/apiconv"
	"etherm/internal/jobstore"
	"etherm/internal/panicsafe"
	"etherm/internal/scenario"
	"etherm/internal/surrogate"
)

// The surrogate serving path. POST /v1/surrogates accepts a build spec,
// fingerprints it into a content-addressed ID (resubmission of the same
// spec joins the existing build or returns the ready model), persists the
// accepted build before acking, and evaluates the sparse-grid design on
// the shared runner slots — a build competes with batch jobs for FEM
// capacity, never with queries. A query takes the server lock once to
// read the ready model off its record and answers in microseconds;
// anything the surrogate cannot serve redirects to the FEM job path via a
// typed problem+json whose FallbackJob is a ready-to-submit batch.

// surrogateRecord is the in-memory state of one surrogate.
type surrogateRecord struct {
	meta     *api.Surrogate
	spec     *api.SurrogateSpec
	specRaw  json.RawMessage
	scenario scenario.Scenario // validated build scenario
	level    int
	order    int
	modelRaw json.RawMessage // serialized model, set once ready
	// model serves queries; it is set under Server.mu together with the
	// ready status, so a query never sees one without the other.
	model *surrogate.Model
}

// readySurrogates counts the surrogates that serve queries.
func (s *Server) readySurrogates() (n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range s.surr {
		if rec.model != nil {
			n++
		}
	}
	return n
}

// storedSurrogate is the persisted form of one surrogate: metadata always,
// the build spec for requeue/fallback, and the model bytes once ready. The
// model rides as raw JSON so a restart serves bit-identical answers.
type storedSurrogate struct {
	Meta  *api.Surrogate  `json:"meta"`
	Spec  json.RawMessage `json:"spec"`
	Model json.RawMessage `json:"model,omitempty"`
}

// persistSurrogateLocked mirrors persistJobLocked for surrogate records:
// write-through with the degraded latch. Caller holds s.mu.
func (s *Server) persistSurrogateLocked(id string) error {
	rec, ok := s.surr[id]
	if !ok {
		return nil
	}
	data, err := json.Marshal(&storedSurrogate{Meta: rec.meta, Spec: rec.specRaw, Model: rec.modelRaw})
	if err != nil {
		s.logErr("server: persist surrogate %s: %v", id, err)
		return err
	}
	err = s.store.Put(jobstore.KindSurrogate, id, data, jobstore.Counters{})
	s.notePersist(err)
	if err != nil {
		s.logErr("server: persist surrogate %s: %v", id, err)
	}
	return err
}

// recoverSurrogates rebuilds the surrogate table from the store: a ready
// record's model deserializes straight onto it (no FEM work),
// interrupted builds requeue from their retained spec, failed ones come
// back inspectable. Unreadable records are dropped.
func (s *Server) recoverSurrogates() {
	st := s.store.State()
	var requeue []string
	for id, data := range st.Kinds[jobstore.KindSurrogate] {
		var ss storedSurrogate
		if err := json.Unmarshal(data, &ss); err != nil || ss.Meta == nil || len(ss.Spec) == 0 {
			s.logErr("server: dropping unreadable surrogate record %s: %v", id, err)
			_ = s.store.Delete(jobstore.KindSurrogate, id, jobstore.Counters{})
			continue
		}
		rec, err := s.surrogateRecordFromSpec(ss.Spec, json.Unmarshal)
		if err != nil {
			s.logErr("server: dropping surrogate %s with unrecoverable spec: %v", id, err)
			_ = s.store.Delete(jobstore.KindSurrogate, id, jobstore.Counters{})
			continue
		}
		rec.meta = ss.Meta
		s.surr[id] = rec
		s.surrOrder = append(s.surrOrder, id)
		switch ss.Meta.Status {
		case api.SurrogateReady:
			var m surrogate.Model
			if err := json.Unmarshal(ss.Model, &m); err == nil {
				err = m.Validate()
			}
			if err != nil {
				// The metadata says ready but the model bytes do not serve;
				// rebuild from the spec rather than lie.
				s.logErr("server: surrogate %s model unreadable (%v); rebuilding", id, err)
				ss.Meta.Status = api.SurrogateBuilding
				rec.modelRaw = nil
				requeue = append(requeue, id)
				continue
			}
			rec.modelRaw, rec.model = ss.Model, &m
		case api.SurrogateBuilding:
			requeue = append(requeue, id)
		}
	}
	sort.Strings(s.surrOrder)
	sort.Strings(requeue)
	if n := len(s.surrOrder); n > 0 {
		s.logErr("server: recovered %d surrogate(s) (%d requeued, %d serving)",
			n, len(requeue), s.readySurrogates())
	}
	for _, id := range requeue {
		rec := s.surr[id]
		_ = s.persistSurrogateLocked(id)
		ctx, cancel := context.WithCancel(context.Background())
		s.cancels[id] = cancel
		s.runners.Add(1)
		go s.buildSurrogate(ctx, id, rec.scenario, rec.level, rec.order)
	}
}

// surrogateScenario strips campaign-control knobs from a build scenario:
// the collocation design defines the study, so only the physical model and
// the elongation law may influence the fingerprint and the build.
func surrogateScenario(sc scenario.Scenario) scenario.Scenario {
	law := sc.UQ
	sc.UQ = scenario.UQSpec{
		Rho:       law.Rho,
		MeanDelta: law.MeanDelta,
		StdDelta:  law.StdDelta,
		CriticalK: law.CriticalK,
	}
	return sc
}

// surrogateRecordFromSpec parses and validates a raw SurrogateSpec into a
// build-ready record (meta left for the caller). The HTTP boundary decodes
// with apiconv.DecodeStrict, so a typo in a new spec is rejected; recovery
// decodes specs already in the store with json.Unmarshal, as they were
// accepted.
func (s *Server) surrogateRecordFromSpec(raw json.RawMessage, decode func([]byte, any) error) (*surrogateRecord, error) {
	var spec api.SurrogateSpec
	if err := decode(raw, &spec); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sc := surrogateScenario(spec.Scenario)
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &surrogateRecord{
		spec:     &spec,
		specRaw:  raw,
		scenario: sc,
		level:    spec.EffectiveLevel(),
		order:    spec.Order,
	}, nil
}

// handleSurrogateBuild accepts a SurrogateSpec, content-addresses it and
// starts (or joins) the build. 200 returns an already-ready surrogate,
// 202 a building one; persist-before-ack mirrors job submission.
func (s *Server) handleSurrogateBuild(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.maxBody+1))
	if err != nil {
		api.WriteError(w, r, api.NewError(http.StatusBadRequest, api.CodeInvalidBody, err.Error()))
		return
	}
	if int64(len(body)) > s.maxBody {
		api.WriteError(w, r, api.Errorf(http.StatusRequestEntityTooLarge, api.CodeTooLarge,
			"surrogate spec exceeds the %d-byte limit", s.maxBody))
		return
	}
	var syntax any
	if err := json.Unmarshal(body, &syntax); err != nil {
		api.WriteError(w, r, api.NewError(http.StatusBadRequest, api.CodeInvalidBody, err.Error()))
		return
	}
	rec, err := s.surrogateRecordFromSpec(body, apiconv.DecodeStrict)
	if err != nil {
		api.WriteError(w, r, api.NewError(http.StatusUnprocessableEntity, api.CodeValidation, err.Error()))
		return
	}
	id := scenario.SurrogateID(rec.scenario, rec.level, rec.order)

	s.mu.Lock()
	if existing, ok := s.surr[id]; ok {
		switch {
		case existing.meta.Status == api.SurrogateBuilding:
			// Idempotent join: the same content-addressed build is already
			// in flight.
			meta := *existing.meta
			s.mu.Unlock()
			w.Header().Set("Location", api.SurrogatePath(id))
			api.WriteJSON(w, http.StatusAccepted, &meta)
			return
		case existing.meta.Status == api.SurrogateReady && !rec.spec.Rebuild:
			meta := *existing.meta
			s.mu.Unlock()
			w.Header().Set("Location", api.SurrogatePath(id))
			api.WriteJSON(w, http.StatusOK, &meta)
			return
		default:
			// Failed build or forced rebuild: reset in place, below.
			s.surrOrder = removeID(s.surrOrder, id)
		}
	}
	rec.meta = &api.Surrogate{
		ID:          id,
		Status:      api.SurrogateBuilding,
		Scenario:    rec.scenario.Name,
		Level:       rec.level,
		Order:       rec.order,
		SubmittedAt: time.Now().UTC(),
	}
	prev, hadPrev := s.surr[id]
	s.surr[id] = rec
	s.surrOrder = append(s.surrOrder, id)
	// Persist before acking, with full rollback on a failed write —
	// accepting a build the store cannot record would break the restart
	// contract.
	if err := s.persistSurrogateLocked(id); err != nil {
		if hadPrev {
			s.surr[id] = prev
		} else {
			delete(s.surr, id)
		}
		s.surrOrder = removeID(s.surrOrder, id)
		if hadPrev {
			s.surrOrder = append(s.surrOrder, id)
			sort.Strings(s.surrOrder)
		}
		s.mu.Unlock()
		s.mRejected.Inc()
		e := api.Errorf(http.StatusServiceUnavailable, api.CodeDegraded,
			"job store is failing writes (%v); build shed, retry shortly", err)
		e.RetryAfterS = 2
		api.WriteError(w, r, e)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancels[id] = cancel
	s.runners.Add(1)
	meta := *rec.meta
	s.mu.Unlock()
	s.mSubmitted.Inc()

	go s.buildSurrogate(ctx, id, rec.scenario, rec.level, rec.order)

	w.Header().Set("Location", api.SurrogatePath(id))
	api.WriteJSON(w, http.StatusAccepted, &meta)
}

// removeID drops one ID from an order slice, preserving order.
func removeID(order []string, id string) []string {
	for i, v := range order {
		if v == id {
			return append(order[:i], order[i+1:]...)
		}
	}
	return order
}

// buildSurrogate evaluates the design under a runner slot and publishes
// the result. Terminal states persist; the ready model goes onto its
// record.
func (s *Server) buildSurrogate(ctx context.Context, id string, sc scenario.Scenario, level, order int) {
	defer s.runners.Done()
	defer s.release(id)

	fail := func(msg string) {
		now := time.Now().UTC()
		s.mu.Lock()
		if rec, ok := s.surr[id]; ok && rec.meta.Status == api.SurrogateBuilding {
			rec.meta.Status = api.SurrogateFailed
			rec.meta.Error = msg
			rec.meta.BuiltAt = &now
			_ = s.persistSurrogateLocked(id)
		}
		s.mu.Unlock()
	}

	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		fail("canceled before start")
		return
	}
	defer func() { <-s.sem }()

	start := time.Now()
	model, err := s.runSurrogateBuild(ctx, sc, level, order)
	if err != nil {
		if ctx.Err() != nil {
			fail("canceled: " + ctx.Err().Error())
		} else {
			fail(err.Error())
		}
		return
	}
	modelRaw, err := json.Marshal(model)
	if err != nil {
		fail("model serialization failed: " + err.Error())
		return
	}

	now := time.Now().UTC()
	lo, hi := model.DeltaDomain()
	kHot := (model.NTimes-1)*model.NWires + model.HotWire
	s.mu.Lock()
	rec, ok := s.surr[id]
	if !ok || rec.meta.Status != api.SurrogateBuilding {
		s.mu.Unlock()
		return
	}
	rec.modelRaw, rec.model = modelRaw, model
	m := rec.meta
	m.Status = api.SurrogateReady
	m.GeometryKey = model.GeometryKey
	m.Order = model.Order
	m.Dim = model.Dim
	m.NumWires = model.NWires
	m.Evaluations = model.Evaluations
	m.ErrIndicatorK = model.LOLO[kHot]
	m.GermBound = model.GermBound
	m.DeltaLo, m.DeltaHi = lo, hi
	m.TCritK = model.TCritK
	m.MeanK = model.MeanK[kHot]
	m.StdK = model.StdK[kHot]
	m.BuiltAt = &now
	m.BuildS = time.Since(start).Seconds()
	_ = s.persistSurrogateLocked(id)
	s.mu.Unlock()
}

// runSurrogateBuild wraps the build in the job-level panic boundary.
func (s *Server) runSurrogateBuild(ctx context.Context, sc scenario.Scenario, level, order int) (m *surrogate.Model, err error) {
	defer panicsafe.Recover("server: surrogate build", &err)
	return scenario.BuildSurrogate(ctx, s.cache, sc, level, order)
}

// handleSurrogateList returns every known surrogate, submission-ordered.
func (s *Server) handleSurrogateList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	list := &api.SurrogateList{Surrogates: make([]*api.Surrogate, 0, len(s.surrOrder))}
	for _, id := range s.surrOrder {
		if rec, ok := s.surr[id]; ok {
			meta := *rec.meta
			list.Surrogates = append(list.Surrogates, &meta)
		}
	}
	s.mu.Unlock()
	api.WriteJSON(w, http.StatusOK, list)
}

// handleSurrogateGet returns one surrogate's metadata.
func (s *Server) handleSurrogateGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	rec, ok := s.surr[id]
	var meta api.Surrogate
	if ok {
		meta = *rec.meta
	}
	s.mu.Unlock()
	if !ok {
		api.WriteError(w, r, api.Errorf(http.StatusNotFound, api.CodeNotFound, "no such surrogate %s", id))
		return
	}
	api.WriteJSON(w, http.StatusOK, &meta)
}

// surrogateFallback builds the FEM batch that answers a failed query
// exactly: the build scenario re-armed with sparse-grid collocation — or,
// for a what-if δ outside the trained domain, a deterministic solve at
// that elongation.
func surrogateFallback(rec *surrogateRecord, q *api.SurrogateQuery) *api.Batch {
	sc := rec.spec.Scenario
	law := sc.UQ
	sc.UQ = api.UQSpec{
		Method:    api.MethodSmolyak,
		Level:     rec.level,
		Rho:       law.Rho,
		MeanDelta: law.MeanDelta,
		StdDelta:  law.StdDelta,
		CriticalK: law.CriticalK,
	}
	if q != nil {
		if q.TCritK > 0 {
			sc.UQ.CriticalK = q.TCritK
		}
		delta := q.Delta
		if delta == nil && q.Sweep != nil {
			delta = &q.Sweep.To
		}
		if delta != nil && *delta > 0 {
			// Deterministic what-if at the requested elongation.
			sc.Chip.MeanElongation = *delta
			sc.UQ = api.UQSpec{CriticalK: sc.UQ.CriticalK}
		}
	}
	return &api.Batch{
		Name:      "surrogate-fallback-" + rec.meta.ID,
		Scenarios: []api.Scenario{sc},
	}
}

// handleSurrogateQuery answers statistics queries from the ready model on
// the surrogate's record. Misses and out-of-domain queries return typed
// problems carrying the FEM fallback batch.
func (s *Server) handleSurrogateQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := r.PathValue("id")
	body, err := io.ReadAll(io.LimitReader(r.Body, s.maxBody+1))
	if err != nil || int64(len(body)) > s.maxBody {
		api.WriteError(w, r, api.NewError(http.StatusBadRequest, api.CodeInvalidBody, "unreadable or oversized query body"))
		return
	}
	var q api.SurrogateQuery
	if len(body) > 0 {
		if e := apiconv.DecodeRequest(body, &q); e != nil {
			api.WriteError(w, r, e)
			return
		}
	}

	s.mu.Lock()
	rec, ok := s.surr[id]
	var status string
	var model *surrogate.Model
	if ok {
		status, model = rec.meta.Status, rec.model
	}
	s.mu.Unlock()

	if !ok {
		s.mSurrQueries["miss"].Inc()
		api.WriteError(w, r, api.Errorf(http.StatusNotFound, api.CodeNotFound,
			"no such surrogate %s; POST %s to build one", id, api.SurrogatesPath))
		return
	}
	if status != api.SurrogateReady {
		s.mSurrQueries["miss"].Inc()
		detail := "surrogate " + id + " is still building; retry shortly or run the fallback job"
		if status == api.SurrogateFailed {
			detail = "surrogate " + id + " failed to build; run the fallback job or rebuild"
		}
		e := api.NewError(http.StatusConflict, api.CodeSurrogateNotReady, detail)
		if status == api.SurrogateBuilding {
			e.RetryAfterS = 2
		}
		e.FallbackJob = surrogateFallback(rec, &q)
		api.WriteError(w, r, e)
		return
	}
	ans, err := model.Answer(q)
	if err != nil {
		if surrogate.IsDomainError(err) {
			s.mSurrQueries["out_of_domain"].Inc()
			e := api.NewError(http.StatusUnprocessableEntity, api.CodeOutOfDomain, err.Error()+
				"; run the fallback job for a full FEM answer")
			e.FallbackJob = surrogateFallback(rec, &q)
			api.WriteError(w, r, e)
			return
		}
		api.WriteError(w, r, api.NewError(http.StatusUnprocessableEntity, api.CodeValidation, err.Error()))
		return
	}
	s.mSurrQueries["hit"].Inc()
	s.mSurrLatency.Observe(time.Since(start).Seconds())
	api.WriteJSON(w, http.StatusOK, ans)
}
