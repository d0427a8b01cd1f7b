// Package apiconv is the strict JSON boundary between the wire and the
// engine. Package api is the only definition of the v1 wire format, and
// the engine packages refer to its types by alias, so no request or
// result is converted on the way in or out. What remains here:
//
//   - DecodeStrict and DecodeRequest decode request bodies with unknown
//     fields rejected, so a typo fails loudly instead of being dropped.
//   - Strict carries the one type pair that is not shared: a shard
//     result, whose accumulator blocks are typed in uq but raw JSON on
//     the wire. Float payloads survive its round trip bit-exactly (Go's
//     encoder emits the shortest decimal that parses back to the same
//     float64), so a fleet campaign merged from converted results stays
//     bit-identical to a single-process run.
//   - Five conversions kept for the benchmark harness (bench/etbench),
//     now plain copies.
package apiconv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"etherm/api"
	"etherm/internal/scenario"
	"etherm/internal/uq"
)

// DecodeStrict decodes the one JSON value in data into v, rejecting
// fields that v does not declare and trailing data.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("apiconv: data after the JSON value")
	}
	return nil
}

// DecodeRequest decodes a request body into v with DecodeStrict. A body
// that json.Unmarshal rejects as well (malformed JSON, a value of the
// wrong type, trailing data) is a 400 invalid-body problem; a body that
// fails only on a field v does not declare is a 422 validation problem,
// the outcome POST /v1/jobs gives the same typo.
func DecodeRequest(body []byte, v any) *api.Error {
	err := DecodeStrict(body, v)
	if err == nil {
		return nil
	}
	if lerr := json.Unmarshal(body, v); lerr != nil {
		return api.NewError(http.StatusBadRequest, api.CodeInvalidBody, lerr.Error())
	}
	return api.NewError(http.StatusUnprocessableEntity, api.CodeValidation, err.Error())
}

// Strict converts src into dst by marshaling src and decoding the JSON
// into dst with unknown fields rejected. src and dst must have the same
// JSON shape; a field mismatch is an error, not data loss.
func Strict(src, dst any) error {
	data, err := json.Marshal(src)
	if err != nil {
		return fmt.Errorf("apiconv: encode %T: %w", src, err)
	}
	if err := DecodeStrict(data, dst); err != nil {
		return fmt.Errorf("apiconv: %T does not fit %T: %w", src, dst, err)
	}
	return nil
}

// ShardResultToAPI converts a computed shard result into its wire form;
// the per-block accumulator state is serialized once here and travels as
// raw JSON from then on.
func ShardResultToAPI(r *uq.ShardResult) (*api.ShardResult, error) {
	var out api.ShardResult
	if err := Strict(r, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ShardResultToInternal decodes a wire shard result (its raw accumulator
// blocks included) into the engine's type, rejecting unknown fields.
func ShardResultToInternal(r *api.ShardResult) (*uq.ShardResult, error) {
	var out uq.ShardResult
	if err := Strict(r, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ScenarioToInternal returns a copy of a wire scenario. Only the benchmark
// harness calls it.
func ScenarioToInternal(s *api.Scenario) (scenario.Scenario, error) {
	return *s, nil
}

// BatchToInternal returns a copy of a wire batch as the engine's batch.
// Only the benchmark harness calls it.
func BatchToInternal(b *api.Batch) (*scenario.Batch, error) {
	out := scenario.Batch(*b)
	return &out, nil
}

// BatchResultToAPI returns a copy of a batch manifest. Only the benchmark
// harness calls it.
func BatchResultToAPI(r *scenario.BatchResult) (*api.BatchResult, error) {
	out := *r
	return &out, nil
}
