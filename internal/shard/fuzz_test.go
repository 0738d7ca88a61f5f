package shard

import (
	"errors"
	"math"
	"testing"
)

// FuzzParseInfo: whatever a shard's /v1/info says, parseInfo never
// panics, rejects with an *InfoError, and accepts only an identity whose
// rows lie inside the advertised total.
func FuzzParseInfo(f *testing.F) {
	f.Add([]byte(`{"users":20,"items":12,"shard":{"index":1,"count":3,"offset":12,"total":35}}`))
	f.Add([]byte(`{"users":20,"items":35}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		id, err := parseInfo(body)
		if err != nil {
			var ie *InfoError
			if !errors.As(err, &ie) {
				t.Fatalf("untyped rejection %v", err)
			}
			return
		}
		if id.users < 0 || id.rows < 0 || id.count <= 0 || id.index < 0 || id.index >= id.count ||
			id.offset < 0 || id.total < 0 || id.rows > id.total || id.offset > id.total-id.rows {
			t.Fatalf("accepted inconsistent identity %+v from %q", id, body)
		}
	})
}

// FuzzDecodeAnswer: a shard answer the gather accepts lines its results
// up with the asked users, and every remapped item id lands inside the
// shard's slice with a finite score.
func FuzzDecodeAnswer(f *testing.F) {
	f.Add([]byte(`{"n":2,"results":[{"user":0,"items":[{"item":3,"score":0.25}]},{"user":5,"items":null}]}`))
	f.Add([]byte(`{"n":1,"results":[],"truncated":true}`))
	users := []int{0, 5, 7}
	const rows, offset = 10, 20
	f.Fuzz(func(t *testing.T, body []byte) {
		sr, err := decodeAnswer(body, users, rows, offset)
		if err != nil {
			return
		}
		if len(sr.Results) > len(users) {
			t.Fatalf("%d results for %d users", len(sr.Results), len(users))
		}
		for i, ur := range sr.Results {
			if ur.User != users[i] {
				t.Fatalf("result %d is user %d, asked %d", i, ur.User, users[i])
			}
			for _, it := range ur.Items {
				if it.Item < offset || it.Item >= offset+rows || math.IsNaN(it.Score) || math.IsInf(it.Score, 0) {
					t.Fatalf("accepted item %+v outside [%d, %d) or non-finite", it, offset, offset+rows)
				}
			}
		}
	})
}
