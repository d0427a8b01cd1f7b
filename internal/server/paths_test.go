package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"etherm/api"
	"etherm/internal/fleet"
	"etherm/internal/jobstore"
)

// Recovery has one policy for every record kind: an unreadable record is
// dropped and logged, and the server starts with the rest. A fleet record
// takes its shard payloads along; an unreadable payload of a readable
// fleet job re-leases its shard.
func TestRecoveryDropsUnreadableRecords(t *testing.T) {
	const bad = "}{"
	fleetID := "fleet-000001"
	cases := []struct {
		name  string
		plant func(t *testing.T, st jobstore.Store)
		check func(t *testing.T, srv *Server, st jobstore.Store)
	}{
		{"job", func(t *testing.T, st jobstore.Store) {
			mustPut(t, st, jobstore.KindJob, "job-000001", bad)
		}, func(t *testing.T, srv *Server, st jobstore.Store) {
			assertGone(t, st, jobstore.KindJob, "job-000001")
			if srv.snapshot("job-000001") != nil {
				t.Error("unreadable job record served")
			}
		}},
		{"surrogate", func(t *testing.T, st jobstore.Store) {
			mustPut(t, st, jobstore.KindSurrogate, "sg-000001", bad)
		}, func(t *testing.T, srv *Server, st jobstore.Store) {
			assertGone(t, st, jobstore.KindSurrogate, "sg-000001")
			if srv.readySurrogates() != 0 || len(srv.surr) != 0 {
				t.Error("unreadable surrogate record served")
			}
		}},
		{"fleet record", func(t *testing.T, st jobstore.Store) {
			mustPut(t, st, jobstore.KindFleet, fleetID, bad)
			mustPut(t, st, jobstore.KindShard, jobstore.ShardID(fleetID, 0), "{}")
			mustPut(t, st, jobstore.KindShard, jobstore.ShardID(fleetID, 2), "{}")
		}, func(t *testing.T, srv *Server, st jobstore.Store) {
			assertGone(t, st, jobstore.KindFleet, fleetID)
			assertGone(t, st, jobstore.KindShard, jobstore.ShardID(fleetID, 0))
			assertGone(t, st, jobstore.KindShard, jobstore.ShardID(fleetID, 2))
			if _, ok := srv.coord.Job(fleetID); ok {
				t.Error("unreadable fleet record served")
			}
		}},
		{"fleet shard payload", func(t *testing.T, st jobstore.Store) {
			// A readable running job whose shard 0 is marked done over an
			// unreadable payload.
			c := fleet.NewCoordinator(nil, 0)
			c.SetStore(st, nil)
			if _, err := c.Submit(*crashScenario()); err != nil {
				t.Fatal(err)
			}
			data, _ := st.State().Get(jobstore.KindFleet, fleetID)
			var rec map[string]any
			if err := json.Unmarshal(data, &rec); err != nil {
				t.Fatal(err)
			}
			rec["shards"].([]any)[0].(map[string]any)["status"] = api.ShardDone
			data, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			mustPut(t, st, jobstore.KindFleet, fleetID, string(data))
			mustPut(t, st, jobstore.KindShard, jobstore.ShardID(fleetID, 0), bad)
		}, func(t *testing.T, srv *Server, st jobstore.Store) {
			v, ok := srv.coord.Job(fleetID)
			if !ok {
				t.Fatal("fleet job with an unreadable payload was dropped")
			}
			if v.Status != api.JobRunning || v.Shards[0].Status != api.ShardPending {
				t.Errorf("job %s, shard 0 %s; want running with shard 0 re-leased", v.Status, v.Shards[0].Status)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := jobstore.NewMem()
			tc.plant(t, st)
			var logged []string
			srv, err := New(Config{Store: st, Logf: func(f string, a ...any) {
				logged = append(logged, f)
			}})
			if err != nil {
				t.Fatalf("New over an unreadable %s: %v", tc.name, err)
			}
			tc.check(t, srv, st)
			if !strings.Contains(strings.Join(logged, "\n"), "unreadable") {
				t.Errorf("no log line names the unreadable record: %q", logged)
			}
		})
	}
}

func mustPut(t *testing.T, st jobstore.Store, kind, id, data string) {
	t.Helper()
	if err := st.Put(kind, id, []byte(data), jobstore.Counters{}); err != nil {
		t.Fatal(err)
	}
}

func assertGone(t *testing.T, st jobstore.Store, kind, id string) {
	t.Helper()
	if _, ok := st.State().Get(kind, id); ok {
		t.Errorf("%s record %s still in the store", kind, id)
	}
}

// Config.MaxHistory (etserver -history) caps finished fleet jobs as it
// caps finished batch jobs.
func TestFleetHistoryFollowsMaxHistory(t *testing.T) {
	_, cl := newTestServer(t, mustNew(t, Config{MaxHistory: 2}))
	ctx := context.Background()
	var ids []string
	for i := 0; i < 3; i++ {
		fj, err := cl.SubmitFleetJob(ctx, crashScenario())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, fj.ID)
		if i < 2 {
			if _, err := cl.CancelFleetJob(ctx, fj.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := cl.GetJob(ctx, ids[0]); !isNotFound(err) {
		t.Errorf("oldest finished fleet job %s beyond the cap: %v, want 404", ids[0], err)
	}
	for _, id := range ids[1:] {
		if _, err := cl.GetFleetJob(ctx, id); err != nil {
			t.Errorf("fleet job %s within the cap: %v", id, err)
		}
	}
}

func isNotFound(err error) bool {
	e, ok := api.AsError(err)
	return ok && e.Status == http.StatusNotFound
}

// filler streams n bytes of whitespace, so a test can send a body past a
// size limit without holding it.
type filler struct{ n int64 }

func (f *filler) Read(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, io.EOF
	}
	k := min(int64(len(p)), f.n)
	for i := range p[:k] {
		p[i] = ' '
	}
	f.n -= k
	return int(k), nil
}

// Every submission and fleet endpoint reads its body through one reader:
// a body past the endpoint's limit is a 413, a malformed one a 400. The
// surrogate query keeps its own reader, where an oversized body is a 400.
func TestOversizedAndMalformedBodies(t *testing.T) {
	srv := mustNew(t, Config{})
	const fleetLimit = 64 << 20
	cases := []struct {
		path   string
		body   io.Reader
		status int
		code   string
	}{
		{"/v1/jobs", &filler{srv.maxBody + 1}, http.StatusRequestEntityTooLarge, api.CodeTooLarge},
		{"/v1/jobs", strings.NewReader(`{"scenarios": [`), http.StatusBadRequest, api.CodeInvalidBody},
		{api.SurrogatesPath, &filler{srv.maxBody + 1}, http.StatusRequestEntityTooLarge, api.CodeTooLarge},
		{api.SurrogatesPath, strings.NewReader(`{"level": 2,}`), http.StatusBadRequest, api.CodeInvalidBody},
		{api.FleetPrefix + "/jobs", &filler{fleetLimit + 1}, http.StatusRequestEntityTooLarge, api.CodeTooLarge},
		{api.FleetPrefix + "/jobs", strings.NewReader(`{"name": "x"`), http.StatusBadRequest, api.CodeInvalidBody},
		{api.FleetPrefix + "/result", &filler{fleetLimit + 1}, http.StatusRequestEntityTooLarge, api.CodeTooLarge},
		{api.FleetPrefix + "/result", strings.NewReader(`{"lease_id": 7}`), http.StatusBadRequest, api.CodeInvalidBody},
		{api.SurrogatePath("sg-000001") + "/query", &filler{srv.maxBody + 1}, http.StatusBadRequest, api.CodeInvalidBody},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, tc.body))
		var e api.Error
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("POST %s: %d with a body that is not a problem: %q", tc.path, rec.Code, rec.Body.String())
		}
		if rec.Code != tc.status || e.Code != tc.code {
			t.Errorf("POST %s: %d %s (%s), want %d %s", tc.path, rec.Code, e.Code, e.Detail, tc.status, tc.code)
		}
	}
}
