// Package api is the /v1 serving surface shared by the embedding
// server (internal/serve, cmd/gebe-serve) and the scatter/gather
// coordinator (internal/shard, cmd/gebe-coord): the JSON wire schema,
// the request checks that need no model, and the request lifecycle
// every endpoint runs inside (lifecycle.go) with its diagnostics
// (diag.go). Both front ends call it directly, so their requests are
// decoded, rejected, traced and logged by the same code.
package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Cross-process protocol headers.
const (
	// TruncatedHeader marks a 200 response whose batch was only
	// partially answered ("true" when set): a server whose budget
	// expired mid-scoring, or a coordinator missing a shard.
	TruncatedHeader = "X-Gebe-Truncated"
	// DeadlineHeader carries the caller's remaining compute budget in
	// integer milliseconds. The lifecycle folds it into the request
	// deadline (earliest of header and configured budget wins), so a
	// coordinator's deadline bounds the whole scatter no matter how each
	// shard is configured.
	DeadlineHeader = "X-Gebe-Deadline-Ms"
)

// RecommendRequest is the POST /v1/recommend body.
type RecommendRequest struct {
	// Users lists the users to recommend for; User is the single-user
	// convenience form (exactly one of the two must be set).
	Users []int `json:"users"`
	User  *int  `json:"user"`
	// N is the list length; 0 selects the server default.
	N int `json:"n"`
	// MaskTrain excludes the user's training items (requires the server
	// to have been started with a training graph); defaults to true
	// when a training graph is loaded.
	MaskTrain *bool `json:"mask_train"`
	// Mode selects the retrieval path: "exact" (default) scores every
	// item through the GEMM scorer; "approx" prunes candidates through
	// the cluster index (requires the server to have been started with
	// one). The response echoes the choice in X-Retrieval-Mode.
	Mode string `json:"mode"`
	// Nprobe is the cluster count an approx request scans; 0 selects the
	// index default, values above the cluster count clamp to it (a full
	// probe reproduces the exact scorer). Only valid with mode approx.
	Nprobe int `json:"nprobe"`
}

// ScoreRequest is the POST /v1/score body.
type ScoreRequest struct {
	// Pairs lists [u, v] index pairs to score.
	Pairs [][2]int `json:"pairs"`
}

// ScoredItem is one (id, score) pair in a ranked response list.
type ScoredItem struct {
	Item  int     `json:"item"`
	Score float64 `json:"score"`
}

// UserRecommendation is one user's ranked list. Items is null when the
// list was not ranked (a truncated response).
type UserRecommendation struct {
	User   int          `json:"user"`
	Items  []ScoredItem `json:"items"`
	Cached bool         `json:"cached,omitempty"`
}

// RecommendResponse is the /v1/recommend answer.
type RecommendResponse struct {
	N       int                  `json:"n"`
	Results []UserRecommendation `json:"results"`
	// Truncated reports that only a prefix of the batch was ranked:
	// users whose lists were completed carry them, the rest have null
	// items. Absent on complete responses, mirrored by TruncatedHeader
	// so callers can tell without parsing the body.
	Truncated bool `json:"truncated,omitempty"`
}

// ScoreResponse is the /v1/score answer. Only a coordinator missing a
// shard sets the degradation markers; both are omitempty, so a complete
// answer is the same bytes from either front end.
type ScoreResponse struct {
	Scores []float64 `json:"scores"`
	// Missing lists pair indices whose owning shard was down or failed;
	// their scores are 0.
	Missing   []int `json:"missing,omitempty"`
	Truncated bool  `json:"truncated,omitempty"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Limits bound what one request may ask for. The zero value of a field
// selects its default.
type Limits struct {
	// DefaultN is the list length used when a request omits n (default 10).
	DefaultN int
	// MaxN caps the requested list length (default 1000).
	MaxN int
	// MaxBatch caps users per recommend call and pairs per score call
	// (default 1024).
	MaxBatch int
}

// WithDefaults fills unset limits with the package defaults.
func (l Limits) WithDefaults() Limits {
	if l.DefaultN <= 0 {
		l.DefaultN = 10
	}
	if l.MaxN <= 0 {
		l.MaxN = 1000
	}
	if l.MaxBatch <= 0 {
		l.MaxBatch = 1024
	}
	return l
}

// ClampN applies the default and the upper bound to a requested list
// length.
func (l Limits) ClampN(n int) (int, error) {
	if n == 0 {
		return l.DefaultN, nil
	}
	if n < 0 {
		return 0, fmt.Errorf("n must be positive, got %d", n)
	}
	if n > l.MaxN {
		return 0, overLimit(fmt.Sprintf("n %d", n), l.MaxN)
	}
	return n, nil
}

// checkBatch rejects a batch of more than MaxBatch users or pairs.
func (l Limits) checkBatch(size int, unit string) error {
	if size <= l.MaxBatch {
		return nil
	}
	return overLimit(fmt.Sprintf("batch of %d %s", size, unit), l.MaxBatch)
}

// overLimit is the one "exceeds limit" message.
func overLimit(what string, limit int) error {
	return fmt.Errorf("%s exceeds limit %d", what, limit)
}

// Validate applies the recommend checks that need no model and
// normalizes the request in place: on success Users holds the user
// list (the single-user form folded in) and N the effective list
// length. Model-dependent checks (user range, mode, nprobe, mask_train)
// belong to the server holding the model.
func (q *RecommendRequest) Validate(l Limits) error {
	if q.User != nil {
		if len(q.Users) > 0 {
			return errors.New("set either user or users, not both")
		}
		q.Users = []int{*q.User}
	}
	if len(q.Users) == 0 {
		return errors.New("users is required and must be non-empty")
	}
	if err := l.checkBatch(len(q.Users), "users"); err != nil {
		return err
	}
	n, err := l.ClampN(q.N)
	q.N = n
	return err
}

// Validate applies the score checks that need no model; pair ranges
// are checked by whoever knows the matrix shapes.
func (q *ScoreRequest) Validate(l Limits) error {
	if len(q.Pairs) == 0 {
		return errors.New("pairs is required and must be non-empty")
	}
	return l.checkBatch(len(q.Pairs), "pairs")
}

// CheckRange rejects pairs outside a users×items embedding — the score
// check that needs the model's shape.
func (q *ScoreRequest) CheckRange(users, items int) error {
	for i, p := range q.Pairs {
		if p[0] < 0 || p[0] >= users || p[1] < 0 || p[1] >= items {
			return fmt.Errorf("pair %d: (%d,%d) outside %dx%d", i, p[0], p[1], users, items)
		}
	}
	return nil
}

// maxBody bounds request bodies; the largest legitimate payload is
// MaxBatch score pairs, far under a megabyte.
const maxBody = 1 << 20

// Read decodes a JSON request body into req and validates it. Unknown
// fields are rejected, and a body over 1 MiB fails with the reader's
// "request body too large" error, so every front end rejects a bad body
// with the same message. It returns the bytes it read — the JSON value
// and whatever arrived with it — which the coordinator forwards to its
// shards verbatim. Reading stops once the value is complete: a handler
// that reads a request body to EOF makes net/http start a background
// connection read that must be torn down again, a measurable cost per
// request.
func Read(r *http.Request, req interface{ Validate(Limits) error }, l Limits) ([]byte, error) {
	var body bytes.Buffer
	dec := json.NewDecoder(io.TeeReader(http.MaxBytesReader(nil, r.Body, maxBody), &body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	return body.Bytes(), req.Validate(l)
}
