// Package api is the public, versioned wire contract of the etherm
// services: every request and response body exchanged with cmd/etserver
// (batch jobs, scenario presets, health) and its fleet coordinator (shard
// leases, heartbeats, shard results) is declared here, together with the
// RFC-9457 problem+json error envelope and the server-sent-event schema of
// the job progress stream.
//
// The package depends only on the standard library and exposes no
// internal/ type in any exported signature, so external programs can
// import it (and the matching Go SDK in package client) directly. It is
// the only definition of the wire format: the engine refers to these
// types by alias, and tests in internal/apiconv fail if a copy is
// declared again. The JSON shape of every type is frozen per API version
// — adding a field is a compatible change, renaming or removing one
// requires a new version.
package api

import "fmt"

// APIVersion is the frozen wire-contract version implemented by this
// package. Servers stamp it on every response via VersionHeader; clients
// may send it to demand a specific version and receive a problem+json
// error (CodeUnsupportedVersion) when the server speaks a different one.
const APIVersion = "v1"

// VersionHeader is the HTTP header carrying the negotiated API version.
const VersionHeader = "ET-API-Version"

// Route is one method + pattern of the HTTP surface, in net/http.ServeMux
// pattern syntax ("{id}" path parameters).
type Route struct {
	Method  string
	Pattern string
}

// String renders the route as a ServeMux registration pattern.
func (r Route) String() string { return r.Method + " " + r.Pattern }

// FleetPrefix is the mount point of the fleet coordinator endpoints.
const FleetPrefix = "/v1/fleet"

// Routes returns the complete v1 HTTP surface. It is the single source of
// truth for the routes a conforming server must register: the server's
// mux is built from it, cmd/openapicheck diffs openapi.yaml against it,
// and the SDK derives its request paths from the same patterns.
func Routes() []Route {
	return []Route{
		{"GET", "/healthz"},
		{"GET", "/metrics"},
		{"POST", "/v1/jobs"},
		{"GET", "/v1/jobs"},
		{"GET", "/v1/jobs/{id}"},
		{"DELETE", "/v1/jobs/{id}"},
		{"GET", "/v1/jobs/{id}/events"},
		{"GET", "/v1/scenarios/presets"},
		{"POST", FleetPrefix + "/jobs"},
		{"GET", FleetPrefix + "/jobs"},
		{"GET", FleetPrefix + "/jobs/{id}"},
		{"DELETE", FleetPrefix + "/jobs/{id}"},
		{"POST", FleetPrefix + "/lease"},
		{"POST", FleetPrefix + "/heartbeat"},
		{"POST", FleetPrefix + "/result"},
		{"POST", FleetPrefix + "/fail"},
		{"POST", "/v1/surrogates"},
		{"GET", "/v1/surrogates"},
		{"GET", "/v1/surrogates/{id}"},
		{"POST", "/v1/surrogates/{id}/query"},
	}
}

// SurrogatesPath is the surrogate collection endpoint.
const SurrogatesPath = "/v1/surrogates"

// SurrogatePath returns the resource path of one surrogate.
func SurrogatePath(id string) string { return SurrogatesPath + "/" + id }

// SurrogateQueryPath returns the query endpoint of one surrogate.
func SurrogateQueryPath(id string) string { return SurrogatePath(id) + "/query" }

// JobPath returns the resource path of one batch or fleet job.
func JobPath(id string) string { return "/v1/jobs/" + id }

// JobEventsPath returns the SSE stream path of one job.
func JobEventsPath(id string) string { return JobPath(id) + "/events" }

// FleetJobPath returns the resource path of one fleet job.
func FleetJobPath(id string) string { return FleetPrefix + "/jobs/" + id }

// CheckVersion validates a client-requested API version; empty means "any"
// and is accepted.
func CheckVersion(requested string) error {
	if requested == "" || requested == APIVersion {
		return nil
	}
	return fmt.Errorf("api: unsupported API version %q (server speaks %s)", requested, APIVersion)
}
