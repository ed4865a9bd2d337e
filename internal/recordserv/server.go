// Package recordserv is the distributed record service: a stdlib-only
// HTTP server that lets many engine processes — a fleet — share extracted
// `.ric` records, plus a production-robust client engines layer over
// their local RecordStore as a remote tier.
//
// The design surface is the failure paths. ShareJIT-style cross-process
// cache sharing only pays off if staleness and peer failure are answered
// up front, and the paper's core guarantee — reuse must never be worse
// than falling back to conventional execution — has to survive a network
// in the loop. Concretely:
//
//   - The service has three record operations: fetch, publish and
//     invalidate. Records are immutable and regenerable, so nodes do not
//     coordinate extraction: nodes that race on a cold key each extract
//     once and publish the same bytes, and the last publish wins harmlessly.
//   - The server validates published bytes by decoding them; a corrupt
//     publish is rejected at the door, so one bad node cannot poison the
//     fleet's cache.
//   - The client wraps every request in a deadline, bounded retries with
//     exponential backoff and jitter, and a circuit breaker, so a dead or
//     partitioned server costs a bounded slice of latency and then nothing
//     at all until the breaker half-opens.
//
// The Server is an http.Handler; cmd/ricserved wraps it in a listener.
// Tests mount it on a loopback listener directly.
package recordserv

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"ricjs/internal/ric"
)

// MaxRecordBytes bounds the encoded-record size the server accepts on a
// publish; larger bodies are rejected before they are read, so a confused
// client cannot exhaust server memory.
const MaxRecordBytes = 32 << 20

// ServerStats is a snapshot of the server's request counters, served at
// /v1/stats for operators and asserted by tests.
type ServerStats struct {
	Fetches      uint64 `json:"fetches"`
	FetchHits    uint64 `json:"fetch_hits"`
	FetchMisses  uint64 `json:"fetch_misses"`
	Publishes    uint64 `json:"publishes"`
	BadPublishes uint64 `json:"bad_publishes"`
	Invalidates  uint64 `json:"invalidates"`
	Records      int    `json:"records"`
}

// Server is the in-memory record service. It is safe for concurrent use;
// every handler takes the one mutex briefly (the payloads are byte slices
// shared by reference, never mutated after publish).
type Server struct {
	mu      sync.Mutex
	records map[string][]byte
	stats   ServerStats
}

// NewServer creates an empty record service.
func NewServer() *Server {
	return &Server{records: make(map[string][]byte)}
}

// ServeHTTP implements http.Handler. Routes:
//
//	GET    /v1/records/<key>   fetch
//	PUT    /v1/records/<key>   publish (validated)
//	DELETE /v1/records/<key>   invalidate
//	GET    /v1/stats           counters (JSON)
//	GET    /v1/health          liveness probe
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/v1/health":
		io.WriteString(w, "ok\n")
	case r.URL.Path == "/v1/stats":
		s.serveStats(w)
	case strings.HasPrefix(r.URL.Path, "/v1/records/"):
		s.serveRecord(w, r, strings.TrimPrefix(r.URL.Path, "/v1/records/"))
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

func (s *Server) serveStats(w http.ResponseWriter) {
	st := s.Stats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st) //nolint:errcheck
}

func (s *Server) serveRecord(w http.ResponseWriter, r *http.Request, key string) {
	if key == "" {
		http.Error(w, "empty record key", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.mu.Lock()
		data, ok := s.records[key]
		s.stats.Fetches++
		if !ok {
			s.stats.FetchMisses++
			s.mu.Unlock()
			http.Error(w, "no record", http.StatusNotFound)
			return
		}
		s.stats.FetchHits++
		s.mu.Unlock()
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		w.Write(data) //nolint:errcheck
	case http.MethodPut:
		// A declared length over the cap is refused unread; a body of
		// unknown length is cut off by MaxBytesReader at the cap.
		if r.ContentLength > MaxRecordBytes {
			http.Error(w, "record too large", http.StatusRequestEntityTooLarge)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRecordBytes))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				http.Error(w, "record too large", http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
			return
		}
		// Decode before accepting: the server is the fleet's shared cache,
		// and a record that does not decode must never become fleet state.
		if _, err := ric.Decode(body); err != nil {
			s.mu.Lock()
			s.stats.BadPublishes++
			s.mu.Unlock()
			http.Error(w, "record rejected: "+err.Error(), http.StatusUnprocessableEntity)
			return
		}
		s.mu.Lock()
		s.records[key] = body
		s.stats.Publishes++
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	case http.MethodDelete:
		s.mu.Lock()
		delete(s.records, key)
		s.stats.Invalidates++
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// Stats snapshots the server's counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Records = len(s.records)
	return st
}
