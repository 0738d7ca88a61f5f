package api

import (
	"bytes"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

func read(body string, req interface{ Validate(Limits) error }, l Limits) ([]byte, error) {
	return Read(httptest.NewRequest("POST", "/", strings.NewReader(body)), req, l)
}

func TestReadRecommend(t *testing.T) {
	l := Limits{MaxBatch: 3, MaxN: 50}.WithDefaults()
	for _, tc := range []struct {
		body string
		want string // error substring; "" = accepted
	}{
		{`{"users":[]}`, "users is required and must be non-empty"},
		{`{}`, "users is required and must be non-empty"},
		{`{"user":1,"users":[2]}`, "set either user or users, not both"},
		{`{"users":[1,2,3,4]}`, "batch of 4 users exceeds limit 3"},
		{`{"users":[1],"n":-2}`, "n must be positive, got -2"},
		{`{"users":[1],"n":51}`, "n 51 exceeds limit 50"},
		{`{"users":[1],"bogus":true}`, `bad request body: json: unknown field "bogus"`},
		{`not json`, "bad request body: invalid character"},
		{``, "bad request body: EOF"},
		{`{"users":[1],"n":"5"}`, "bad request body: json: cannot unmarshal string"},
		{`{"users":[1` + strings.Repeat(",1", maxBody/2) + `]}`, "bad request body: http: request body too large"},
		{`{"users":[1,2,3]}`, ""},
		{`{"user":7,"n":50,"mode":"approx","nprobe":2,"mask_train":false}`, ""},
	} {
		var q RecommendRequest
		body, err := read(tc.body, &q, l)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%.40s: rejected: %v", tc.body, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%.40s: error %v, want %q", tc.body, err, tc.want)
		case err == nil && !bytes.Equal(body, []byte(tc.body)):
			t.Errorf("%.40s: returned body %q, want the bytes as received", tc.body, body)
		}
	}

	// Validation normalizes: the single-user form folds into Users and
	// n 0 takes the default.
	var q RecommendRequest
	if _, err := read(`{"user":7}`, &q, l); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(q.Users, []int{7}) || q.N != 10 {
		t.Errorf("normalized request = %+v, want users [7] n 10", q)
	}
}

func TestReadScore(t *testing.T) {
	l := Limits{MaxBatch: 2}.WithDefaults()
	for _, tc := range []struct{ body, want string }{
		{`{"pairs":[]}`, "pairs is required and must be non-empty"},
		{`{"pairs":[[0,1],[1,2],[2,3]]}`, "batch of 3 pairs exceeds limit 2"},
		{`{"pairs":[[0,"x"]]}`, "bad request body"},
		{`{"pairs":[[0,1]]}`, ""},
	} {
		var q ScoreRequest
		_, err := read(tc.body, &q, l)
		if (tc.want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: error %v, want %q", tc.body, err, tc.want)
		}
	}
}

func TestLimitsDefaults(t *testing.T) {
	if got := (Limits{}).WithDefaults(); got != (Limits{DefaultN: 10, MaxN: 1000, MaxBatch: 1024}) {
		t.Errorf("defaults = %+v", got)
	}
	l := Limits{DefaultN: 3, MaxN: 5, MaxBatch: 7}
	if got := l.WithDefaults(); got != l {
		t.Errorf("set limits overridden: %+v", got)
	}
}
