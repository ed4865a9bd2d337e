package recordserv_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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

func doReq(t *testing.T, h http.Handler, method, path string, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestServerRecordLifecycle(t *testing.T) {
	srv := recordserv.NewServer()
	data := validRecord(t)

	// Cold fetch: miss.
	if w := doReq(t, srv, "GET", "/v1/records/lib.js", nil, nil); w.Code != http.StatusNotFound {
		t.Fatalf("cold GET = %d, want 404", w.Code)
	}

	// Publish, fetch back byte-identical, with an ETag.
	w := doReq(t, srv, "PUT", "/v1/records/lib.js", data, nil)
	if w.Code != http.StatusNoContent {
		t.Fatalf("PUT = %d (%s)", w.Code, w.Body)
	}
	etag := w.Header().Get("ETag")
	if etag == "" {
		t.Fatal("publish returned no ETag")
	}
	w = doReq(t, srv, "GET", "/v1/records/lib.js", nil, nil)
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), data) {
		t.Fatalf("GET = %d, body match %v", w.Code, bytes.Equal(w.Body.Bytes(), data))
	}
	if got := w.Header().Get("ETag"); got != etag {
		t.Fatalf("GET ETag = %q, want %q", got, etag)
	}

	// Revalidation: matching If-None-Match is a 304 with no body.
	w = doReq(t, srv, "GET", "/v1/records/lib.js", nil, map[string]string{"If-None-Match": etag})
	if w.Code != http.StatusNotModified || w.Body.Len() != 0 {
		t.Fatalf("revalidate = %d, body %d bytes; want 304 empty", w.Code, w.Body.Len())
	}

	// Republish bumps the version: the old ETag no longer revalidates.
	w = doReq(t, srv, "PUT", "/v1/records/lib.js", data, nil)
	etag2 := w.Header().Get("ETag")
	if etag2 == etag {
		t.Fatalf("republish kept ETag %q; want a version bump", etag)
	}
	w = doReq(t, srv, "GET", "/v1/records/lib.js", nil, map[string]string{"If-None-Match": etag})
	if w.Code != http.StatusOK {
		t.Fatalf("stale revalidate = %d, want 200", w.Code)
	}

	// Invalidate: the record is gone fleet-wide.
	if w := doReq(t, srv, "DELETE", "/v1/records/lib.js", nil, nil); w.Code != http.StatusNoContent {
		t.Fatalf("DELETE = %d", w.Code)
	}
	if w := doReq(t, srv, "GET", "/v1/records/lib.js", nil, nil); w.Code != http.StatusNotFound {
		t.Fatalf("GET after invalidate = %d, want 404", w.Code)
	}

	st := srv.Stats()
	if st.Publishes != 2 || st.Invalidates != 1 || st.NotModified != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServerRejectsCorruptPublish(t *testing.T) {
	srv := recordserv.NewServer()
	data := validRecord(t)
	corrupt := faultinject.New(1).Apply(faultinject.ModeBitFlip, data)
	if w := doReq(t, srv, "PUT", "/v1/records/lib.js", corrupt, nil); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt PUT = %d, want 422", w.Code)
	}
	if w := doReq(t, srv, "GET", "/v1/records/lib.js", nil, nil); w.Code != http.StatusNotFound {
		t.Fatalf("corrupt publish became fleet state (GET = %d)", w.Code)
	}
	if st := srv.Stats(); st.BadPublishes != 1 || st.Publishes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServerClaims(t *testing.T) {
	now := time.Unix(1000, 0)
	srv := recordserv.NewServer()
	srv.Now = func() time.Time { return now }

	// First claimant wins.
	if w := doReq(t, srv, "POST", "/v1/claims/k?owner=a&ttl=10s", nil, nil); w.Code != http.StatusOK {
		t.Fatalf("first claim = %d", w.Code)
	}
	// Same owner re-claims (idempotent under retries).
	if w := doReq(t, srv, "POST", "/v1/claims/k?owner=a&ttl=10s", nil, nil); w.Code != http.StatusOK {
		t.Fatalf("re-claim = %d", w.Code)
	}
	// A second node is told who holds it and when to retry.
	w := doReq(t, srv, "POST", "/v1/claims/k?owner=b&ttl=10s", nil, nil)
	if w.Code != http.StatusConflict || strings.TrimSpace(w.Body.String()) != "a" {
		t.Fatalf("contended claim = %d %q", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("contended claim has no Retry-After hint")
	}

	// The lease expires: a crashed owner cannot wedge the key.
	now = now.Add(11 * time.Second)
	if w := doReq(t, srv, "POST", "/v1/claims/k?owner=b&ttl=10s", nil, nil); w.Code != http.StatusOK {
		t.Fatalf("claim after expiry = %d", w.Code)
	}

	// Release by a non-owner is a no-op; by the owner frees the key.
	doReq(t, srv, "DELETE", "/v1/claims/k?owner=a", nil, nil)
	if w := doReq(t, srv, "POST", "/v1/claims/k?owner=c&ttl=10s", nil, nil); w.Code != http.StatusConflict {
		t.Fatalf("claim after foreign release = %d, want 409 (b still holds)", w.Code)
	}
	doReq(t, srv, "DELETE", "/v1/claims/k?owner=b", nil, nil)
	if w := doReq(t, srv, "POST", "/v1/claims/k?owner=c&ttl=10s", nil, nil); w.Code != http.StatusOK {
		t.Fatalf("claim after owner release = %d", w.Code)
	}
}

func TestServerPublishSettlesClaim(t *testing.T) {
	srv := recordserv.NewServer()
	doReq(t, srv, "POST", "/v1/claims/lib.js?owner=a", nil, nil)
	doReq(t, srv, "PUT", "/v1/records/lib.js", validRecord(t), nil)
	// Publication released the lease: another node can claim freely (it
	// will fetch the published record instead of extracting anyway).
	if w := doReq(t, srv, "POST", "/v1/claims/lib.js?owner=b", nil, nil); w.Code != http.StatusOK {
		t.Fatalf("claim after publish = %d, want 200", w.Code)
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
		{"POST", "/v1/claims/k", http.StatusBadRequest}, // no owner
		{"POST", "/v1/claims/k?owner=a&ttl=bogus", http.StatusBadRequest},
		{"PUT", "/v1/claims/k?owner=a", http.StatusMethodNotAllowed},
	} {
		if w := doReq(t, srv, tc.method, tc.path, nil, nil); w.Code != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, w.Code, tc.want)
		}
	}
	if w := doReq(t, srv, "GET", "/v1/health", nil, nil); w.Code != http.StatusOK {
		t.Errorf("health = %d", w.Code)
	}
	if w := doReq(t, srv, "GET", "/v1/stats", nil, nil); w.Code != http.StatusOK {
		t.Errorf("stats = %d", w.Code)
	}
}

func TestServerRejectsOversizedPublish(t *testing.T) {
	srv := recordserv.NewServer()
	big := make([]byte, recordserv.MaxRecordBytes+1)
	if w := doReq(t, srv, "PUT", "/v1/records/k", big, nil); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT = %d, want 413", w.Code)
	}
}
