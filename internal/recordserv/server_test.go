package recordserv_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"ricjs/internal/faultinject"
	"ricjs/internal/recordserv"
	"ricjs/internal/ric"
)

// validRecord returns encodable record bytes the server's publish
// validation accepts.
func validRecord(t *testing.T) []byte {
	t.Helper()
	rec := &ric.Record{Script: "lib.js"}
	data := rec.Encode()
	if _, err := ric.Decode(data); err != nil {
		t.Fatalf("fixture record does not decode: %v", err)
	}
	return data
}

func doReq(t *testing.T, h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestServerRecordLifecycle(t *testing.T) {
	srv := recordserv.NewServer()
	data := validRecord(t)

	// Cold fetch: miss.
	if w := doReq(t, srv, "GET", "/v1/records/lib.js", nil); w.Code != http.StatusNotFound {
		t.Fatalf("cold GET = %d, want 404", w.Code)
	}

	// Publish, fetch back byte-identical.
	w := doReq(t, srv, "PUT", "/v1/records/lib.js", data)
	if w.Code != http.StatusNoContent {
		t.Fatalf("PUT = %d (%s)", w.Code, w.Body)
	}
	w = doReq(t, srv, "GET", "/v1/records/lib.js", nil)
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), data) {
		t.Fatalf("GET = %d, body match %v", w.Code, bytes.Equal(w.Body.Bytes(), data))
	}

	// Republishing the same key (two nodes that raced on it) replaces the
	// record; the fleet still holds one.
	if w := doReq(t, srv, "PUT", "/v1/records/lib.js", data); w.Code != http.StatusNoContent {
		t.Fatalf("republish = %d (%s)", w.Code, w.Body)
	}
	if st := srv.Stats(); st.Records != 1 {
		t.Fatalf("records after republish = %d, want 1", st.Records)
	}

	// Invalidate: the record is gone fleet-wide.
	if w := doReq(t, srv, "DELETE", "/v1/records/lib.js", nil); w.Code != http.StatusNoContent {
		t.Fatalf("DELETE = %d", w.Code)
	}
	if w := doReq(t, srv, "GET", "/v1/records/lib.js", nil); w.Code != http.StatusNotFound {
		t.Fatalf("GET after invalidate = %d, want 404", w.Code)
	}

	st := srv.Stats()
	if st.Publishes != 2 || st.Invalidates != 1 || st.FetchHits != 1 || st.FetchMisses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServerRejectsCorruptPublish(t *testing.T) {
	srv := recordserv.NewServer()
	data := validRecord(t)
	corrupt := faultinject.New(1).Apply(faultinject.ModeBitFlip, data)
	if w := doReq(t, srv, "PUT", "/v1/records/lib.js", corrupt); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt PUT = %d, want 422", w.Code)
	}
	if w := doReq(t, srv, "GET", "/v1/records/lib.js", nil); w.Code != http.StatusNotFound {
		t.Fatalf("corrupt publish became fleet state (GET = %d)", w.Code)
	}
	if st := srv.Stats(); st.BadPublishes != 1 || st.Publishes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServerRequestValidation(t *testing.T) {
	srv := recordserv.NewServer()
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{"GET", "/nope", http.StatusNotFound},
		{"GET", "/v1/records/", http.StatusBadRequest},
		{"PATCH", "/v1/records/k", http.StatusMethodNotAllowed},
	} {
		if w := doReq(t, srv, tc.method, tc.path, nil); w.Code != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, w.Code, tc.want)
		}
	}
	if w := doReq(t, srv, "GET", "/v1/health", nil); w.Code != http.StatusOK {
		t.Errorf("health = %d", w.Code)
	}
	if w := doReq(t, srv, "GET", "/v1/stats", nil); w.Code != http.StatusOK {
		t.Errorf("stats = %d", w.Code)
	}
}

func TestServerRejectsOversizedPublish(t *testing.T) {
	srv := recordserv.NewServer()
	big := make([]byte, recordserv.MaxRecordBytes+1)
	if w := doReq(t, srv, "PUT", "/v1/records/k", big); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT = %d, want 413", w.Code)
	}
}

// countingReader is a request body that counts the bytes the server reads
// from it.
type countingReader struct{ n int64 }

func (r *countingReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	r.n += int64(len(p))
	return len(p), nil
}

// TestServerRefusesDeclaredOversizeUnread: a publish whose declared
// length is over the cap is refused with no byte of its body read.
func TestServerRefusesDeclaredOversizeUnread(t *testing.T) {
	srv := recordserv.NewServer()
	body := &countingReader{}
	req := httptest.NewRequest("PUT", "/v1/records/k", body)
	req.ContentLength = recordserv.MaxRecordBytes + 1
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT = %d, want 413", w.Code)
	}
	if body.n != 0 {
		t.Fatalf("server read %d body bytes before refusing, want 0", body.n)
	}
}
