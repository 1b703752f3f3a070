package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// Request-size and parameter bounds. The decoder rejects anything outside
// them before a byte of query work happens, so a malformed or adversarial
// request costs parsing only.
const (
	// MaxBodyBytes bounds the request body read by every JSON endpoint.
	MaxBodyBytes = 1 << 20
	// MaxDims bounds the dimensionality of query points and generated
	// datasets (the algorithms are exponential in dimensionality; anything
	// past this is a typo or an attack, not a workload).
	MaxDims = 16
	// MaxGenerateN bounds the size of a generated dataset accepted by
	// /v1/admin/reload.
	MaxGenerateN = 2_000_000
	// MaxK bounds the approximate-store sampling constant.
	MaxK = 4096
	// MaxTimeoutMS bounds the per-request deadline a client may ask for.
	MaxTimeoutMS = 60_000
)

// BadRequestError marks request validation failures (HTTP 400) as opposed to
// execution failures.
type BadRequestError struct{ Msg string }

func (e *BadRequestError) Error() string { return e.Msg }

func badRequestf(format string, args ...any) error {
	return &BadRequestError{Msg: fmt.Sprintf(format, args...)}
}

// WhyNotRequest is the body of POST /v1/whynot: answer the why-not question
// for one customer against query point Q, walking the exact→approx→MWP
// degradation ladder.
type WhyNotRequest struct {
	// Q is the query point (product position), one coordinate per dimension.
	Q []float64 `json:"q"`
	// CustomerID names the why-not customer by dataset ID.
	CustomerID int `json:"customer_id"`
	// TimeoutMS optionally bounds this request's end-to-end deadline in
	// milliseconds; 0 uses the server default. Values above the server cap
	// are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Trace, when true, returns the request's phases in the response: the
	// nodes of its plan below the root, in start order, with durations.
	Trace bool `json:"trace,omitempty"`
}

// RSkylineRequest is the body of POST /v1/rskyline: compute RSL(Q) over the
// current dataset's customers.
type RSkylineRequest struct {
	Q         []float64 `json:"q"`
	TimeoutMS int64     `json:"timeout_ms,omitempty"`
}

// GenerateSpec describes a synthetic dataset (the paper's UN/CO/AC families
// plus CarDB) for /v1/admin/reload and server bootstrap.
type GenerateSpec struct {
	Kind string `json:"kind"`
	N    int    `json:"n"`
	Dims int    `json:"dims"`
	Seed int64  `json:"seed"`
}

// ReloadRequest is the body of POST /v1/admin/reload: replace the serving
// dataset with a freshly built immutable snapshot, atomically and with zero
// downtime. Exactly one of Path and Generate must be set.
type ReloadRequest struct {
	// Path loads a CSV dataset from the server's filesystem.
	Path string `json:"path,omitempty"`
	// Generate builds a synthetic dataset in-process.
	Generate *GenerateSpec `json:"generate,omitempty"`
	// BuildStore additionally precomputes the approximate safe-region store
	// (§VI.B.1) for the new snapshot, enabling the ladder's approx rung.
	BuildStore bool `json:"build_store,omitempty"`
	// K is the approximate-store sampling constant (default 10).
	K int `json:"k,omitempty"`
}

// InsertRequest is the body of POST /v1/admin/insert: durably add one item.
type InsertRequest struct {
	// ID is the new item's dataset ID; must not collide with a present item.
	ID int `json:"id"`
	// Point is the item's position, one coordinate per dimension.
	Point []float64 `json:"point"`
}

// DeleteRequest is the body of POST /v1/admin/delete: durably remove one item
// by ID. Point, when given, must match the stored position (stale-client
// protection); when omitted the ID alone decides.
type DeleteRequest struct {
	ID    int       `json:"id"`
	Point []float64 `json:"point,omitempty"`
}

// decodeStrict parses exactly one JSON value from r, rejecting unknown fields
// and trailing garbage. It is the shared front door of every POST endpoint
// (and the fuzz target's entry point).
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequestf("invalid JSON body: %v", err)
	}
	// A second Decode must hit EOF: two JSON documents in one body is a
	// malformed request, not a batch.
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return badRequestf("trailing data after JSON body")
	}
	return nil
}

// validatePoint checks a query point for serving: present, bounded
// dimensionality, and finite coordinates (NaN/Inf poison every dominance
// comparison downstream).
func validatePoint(q []float64) error {
	if len(q) == 0 {
		return badRequestf("missing query point q")
	}
	if len(q) > MaxDims {
		return badRequestf("q has %d dimensions, limit is %d", len(q), MaxDims)
	}
	for i, v := range q {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return badRequestf("q[%d] is %v; coordinates must be finite", i, v)
		}
	}
	return nil
}

func validateTimeout(ms int64) error {
	if ms < 0 {
		return badRequestf("timeout_ms must be non-negative")
	}
	return nil
}

// DecodeWhyNotRequest parses and validates a /v1/whynot body.
func DecodeWhyNotRequest(r io.Reader) (WhyNotRequest, error) {
	var req WhyNotRequest
	if err := decodeStrict(r, &req); err != nil {
		return WhyNotRequest{}, err
	}
	if err := validatePoint(req.Q); err != nil {
		return WhyNotRequest{}, err
	}
	if req.CustomerID < 0 {
		return WhyNotRequest{}, badRequestf("customer_id must be non-negative")
	}
	if err := validateTimeout(req.TimeoutMS); err != nil {
		return WhyNotRequest{}, err
	}
	return req, nil
}

// DecodeRSkylineRequest parses and validates a /v1/rskyline body.
func DecodeRSkylineRequest(r io.Reader) (RSkylineRequest, error) {
	var req RSkylineRequest
	if err := decodeStrict(r, &req); err != nil {
		return RSkylineRequest{}, err
	}
	if err := validatePoint(req.Q); err != nil {
		return RSkylineRequest{}, err
	}
	if err := validateTimeout(req.TimeoutMS); err != nil {
		return RSkylineRequest{}, err
	}
	return req, nil
}

// DecodeInsertRequest parses and validates a /v1/admin/insert body.
func DecodeInsertRequest(r io.Reader) (InsertRequest, error) {
	var req InsertRequest
	if err := decodeStrict(r, &req); err != nil {
		return InsertRequest{}, err
	}
	if req.ID < 0 {
		return InsertRequest{}, badRequestf("id must be non-negative")
	}
	if err := validatePoint(req.Point); err != nil {
		return InsertRequest{}, err
	}
	return req, nil
}

// DecodeDeleteRequest parses and validates a /v1/admin/delete body.
func DecodeDeleteRequest(r io.Reader) (DeleteRequest, error) {
	var req DeleteRequest
	if err := decodeStrict(r, &req); err != nil {
		return DeleteRequest{}, err
	}
	if req.ID < 0 {
		return DeleteRequest{}, badRequestf("id must be non-negative")
	}
	if len(req.Point) > 0 {
		if err := validatePoint(req.Point); err != nil {
			return DeleteRequest{}, err
		}
	}
	return req, nil
}

// DecodeReloadRequest parses and validates a /v1/admin/reload body.
func DecodeReloadRequest(r io.Reader) (ReloadRequest, error) {
	var req ReloadRequest
	if err := decodeStrict(r, &req); err != nil {
		return ReloadRequest{}, err
	}
	switch {
	case req.Path == "" && req.Generate == nil:
		return ReloadRequest{}, badRequestf("reload needs path or generate")
	case req.Path != "" && req.Generate != nil:
		return ReloadRequest{}, badRequestf("reload takes path or generate, not both")
	}
	if g := req.Generate; g != nil {
		if g.N < 1 || g.N > MaxGenerateN {
			return ReloadRequest{}, badRequestf("generate.n must be in [1, %d]", MaxGenerateN)
		}
		if g.Dims < 1 || g.Dims > MaxDims {
			return ReloadRequest{}, badRequestf("generate.dims must be in [1, %d]", MaxDims)
		}
		if g.Kind == "" {
			return ReloadRequest{}, badRequestf("generate.kind is required")
		}
	}
	if req.K < 0 || req.K > MaxK {
		return ReloadRequest{}, badRequestf("k must be in [0, %d]", MaxK)
	}
	return req, nil
}
