package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"
	"unicode/utf8"
)

// fuzzLimits are small so batch and n limits are reachable from short
// inputs.
var fuzzLimits = Limits{DefaultN: 10, MaxN: 50, MaxBatch: 8}

// checkRejection asserts that err, written the way handlers write it,
// is a 400 whose body is an ErrorResponse carrying the message.
func checkRejection(t *testing.T, l *Lifecycle, err error) {
	t.Helper()
	w := httptest.NewRecorder()
	l.Fail(w, http.StatusBadRequest, err)
	dec := json.NewDecoder(w.Body)
	dec.DisallowUnknownFields()
	var e ErrorResponse
	if derr := dec.Decode(&e); derr != nil {
		t.Fatalf("rejection %q is not an ErrorResponse: %v", err, derr)
	}
	if w.Code != http.StatusBadRequest || e.Error == "" {
		t.Fatalf("rejection %q written as %d %+v", err, w.Code, e)
	}
	if utf8.ValidString(err.Error()) && e.Error != err.Error() {
		t.Fatalf("rejection message %q came back as %q", err, e.Error)
	}
}

func fuzzRead(t *testing.T, l *Lifecycle, data []byte, req interface{ Validate(Limits) error }) bool {
	body, err := Read(httptest.NewRequest("POST", "/", bytes.NewReader(data)), req, fuzzLimits)
	if err != nil {
		checkRejection(t, l, err)
		return false
	}
	// The returned bytes are what was read: a prefix of the body that
	// decodes to the same request, so forwarding them is faithful.
	if !bytes.HasPrefix(data, body) {
		t.Fatalf("accepted body %q returned as %q", data, body)
	}
	again := reflect.New(reflect.TypeOf(req).Elem()).Interface().(interface{ Validate(Limits) error })
	if _, err := Read(httptest.NewRequest("POST", "/", bytes.NewReader(body)), again, fuzzLimits); err != nil ||
		!reflect.DeepEqual(again, req) {
		t.Fatalf("returned body %q reads back as %+v (%v), want %+v", body, again, err, req)
	}
	return true
}

// FuzzRecommendRequest and FuzzScoreRequest run arbitrary bodies
// through Read: no input may panic, every rejection must be an
// ErrorResponse message, and every accepted request must sit inside
// the limits. Seed corpora for all targets live under
// testdata/fuzz/<target>.
func FuzzRecommendRequest(f *testing.F) {
	l, _ := newTestLifecycle(f, Settings{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q RecommendRequest
		if !fuzzRead(t, l, data, &q) {
			return
		}
		if len(q.Users) < 1 || len(q.Users) > fuzzLimits.MaxBatch || q.N < 1 || q.N > fuzzLimits.MaxN {
			t.Fatalf("accepted %q as %d users, n %d — outside the limits", data, len(q.Users), q.N)
		}
	})
}

func FuzzScoreRequest(f *testing.F) {
	l, _ := newTestLifecycle(f, Settings{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q ScoreRequest
		if !fuzzRead(t, l, data, &q) {
			return
		}
		if len(q.Pairs) < 1 || len(q.Pairs) > fuzzLimits.MaxBatch {
			t.Fatalf("accepted %q with %d pairs — outside the limits", data, len(q.Pairs))
		}
	})
}

// FuzzDeadlineHeader: a positive X-Gebe-Deadline-Ms never yields a
// deadline at or before now, whatever its size.
func FuzzDeadlineHeader(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw string) {
		now := time.Now()
		dl := requestDeadline(now, 0, raw)
		ms, err := strconv.ParseInt(raw, 10, 64)
		switch {
		case err != nil && !errors.Is(err, strconv.ErrRange):
			if !dl.IsZero() {
				t.Fatalf("malformed header %q gave deadline %v", raw, dl)
			}
		case ms > 0:
			if !dl.After(now) {
				t.Fatalf("positive header %q gave deadline %v, not after now %v", raw, dl, now)
			}
		default:
			if dl.After(now) {
				t.Fatalf("non-positive header %q gave future deadline %v", raw, dl)
			}
		}
	})
}

// FuzzRequestID: whatever the client sends, the id a request carries is
// 1–64 bytes of printable, space-free ASCII.
func FuzzRequestID(f *testing.F) {
	l, _ := newTestLifecycle(f, Settings{})
	f.Fuzz(func(t *testing.T, header string) {
		r := httptest.NewRequest("GET", "/v1/info", nil)
		r.Header.Set("X-Request-ID", header)
		id := l.requestID(r)
		if id == "" || len(id) > 64 {
			t.Fatalf("header %q gave id %q", header, id)
		}
		for i := 0; i < len(id); i++ {
			if id[i] < '!' || id[i] > '~' {
				t.Fatalf("header %q gave id %q with byte %#x", header, id, id[i])
			}
		}
	})
}
