package fleet

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"etherm/api"
	"etherm/internal/apiconv"
)

// maxBodyBytes bounds worker/client request bodies (shard results carry
// O(blocks × outputs) accumulator state, far below this).
const maxBodyBytes = 64 << 20

// readBody reads a request body, writing the problem+json error itself
// when the body is unreadable or oversized.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		api.WriteError(w, r, api.NewError(http.StatusBadRequest, api.CodeInvalidBody, err.Error()))
		return nil, false
	}
	if len(body) > maxBodyBytes {
		api.WriteError(w, r, api.NewError(http.StatusRequestEntityTooLarge, api.CodeTooLarge,
			"request body exceeds the size limit"))
		return nil, false
	}
	return body, true
}

// readJSON decodes a worker request body into v, writing the problem+json
// error itself when the body is oversized or malformed.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := readBody(w, r)
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		api.WriteError(w, r, api.NewError(http.StatusBadRequest, api.CodeInvalidBody, err.Error()))
		return false
	}
	return true
}

// Register mounts the coordinator's HTTP API on mux under prefix
// (api.FleetPrefix in production):
//
//	POST   {prefix}/jobs        submit a sharded scenario  → 202 api.FleetJob
//	GET    {prefix}/jobs        list fleet jobs            → 200 [api.FleetJob]
//	GET    {prefix}/jobs/{id}   job + shard progress       → 200 api.FleetJob
//	DELETE {prefix}/jobs/{id}   cancel a running job       → 202 | 404 | 409
//	POST   {prefix}/lease       request a shard            → 200 api.FleetLease | 204
//	POST   {prefix}/heartbeat   keep a lease alive         → 204 | 410 gone
//	POST   {prefix}/result      post a shard result        → 204 | 410 | 422
//	POST   {prefix}/fail        report a shard failure     → 204 | 410
//
// Errors are RFC-9457 problem+json bodies (api.Error); the lease-lost
// condition carries api.CodeLeaseLost so workers can abandon their shard.
func (c *Coordinator) Register(mux *http.ServeMux, prefix string) {
	mux.HandleFunc("POST "+prefix+"/jobs", c.handleSubmit)
	mux.HandleFunc("GET "+prefix+"/jobs", c.handleList)
	mux.HandleFunc("GET "+prefix+"/jobs/{id}", c.handleJob)
	mux.HandleFunc("DELETE "+prefix+"/jobs/{id}", c.handleCancel)
	mux.HandleFunc("POST "+prefix+"/lease", c.handleLease)
	mux.HandleFunc("POST "+prefix+"/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST "+prefix+"/result", c.handleResult)
	mux.HandleFunc("POST "+prefix+"/fail", c.handleFail)
}

// handleSubmit decodes the scenario strictly: an unknown field is a 422,
// and a job the store failed to persist is a 503 degraded, as on
// POST /v1/jobs.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var s api.Scenario
	if e := apiconv.DecodeRequest(body, &s); e != nil {
		api.WriteError(w, r, e)
		return
	}
	v, err := c.Submit(s)
	switch {
	case errors.Is(err, errNotPersisted):
		e := api.NewError(http.StatusServiceUnavailable, api.CodeDegraded, err.Error())
		e.RetryAfterS = 2
		api.WriteError(w, r, e)
		return
	case err != nil:
		api.WriteError(w, r, api.NewError(http.StatusUnprocessableEntity, api.CodeValidation, err.Error()))
		return
	}
	api.WriteJSON(w, http.StatusAccepted, v)
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, c.Jobs())
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	v, ok := c.Job(r.PathValue("id"))
	if !ok {
		api.WriteError(w, r, api.NewError(http.StatusNotFound, api.CodeNotFound, "no such fleet job"))
		return
	}
	api.WriteJSON(w, http.StatusOK, v)
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := c.Job(id); !ok {
		api.WriteError(w, r, api.NewError(http.StatusNotFound, api.CodeNotFound, "no such fleet job"))
		return
	}
	if err := c.Cancel(id); err != nil {
		api.WriteError(w, r, api.NewError(http.StatusConflict, api.CodeConflict, err.Error()))
		return
	}
	v, _ := c.Job(id)
	api.WriteJSON(w, http.StatusAccepted, v)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req api.LeaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	a, ok := c.Lease(req.Worker)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	api.WriteJSON(w, http.StatusOK, a)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req api.HeartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := c.Heartbeat(req.LeaseID); err != nil {
		api.WriteError(w, r, api.NewError(http.StatusGone, api.CodeLeaseLost, err.Error()))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req api.ShardResultRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Result == nil {
		api.WriteError(w, r, api.NewError(http.StatusUnprocessableEntity, api.CodeValidation,
			"result request carries no shard result"))
		return
	}
	res, err := apiconv.ShardResultToInternal(req.Result)
	if err != nil {
		api.WriteError(w, r, api.NewError(http.StatusBadRequest, api.CodeInvalidBody, err.Error()))
		return
	}
	err = c.Complete(req.LeaseID, res)
	switch {
	case errors.Is(err, ErrLeaseLost):
		api.WriteError(w, r, api.NewError(http.StatusGone, api.CodeLeaseLost, err.Error()))
	case err != nil:
		api.WriteError(w, r, api.NewError(http.StatusUnprocessableEntity, api.CodeValidation, err.Error()))
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	var req api.ShardFailRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := c.Fail(req.LeaseID, req.Error); err != nil {
		api.WriteError(w, r, api.NewError(http.StatusGone, api.CodeLeaseLost, err.Error()))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
