package ricjs

import (
	"errors"

	"ricjs/internal/recordserv"
)

// RemoteTier adapts a recordserv.Client into the SessionPool's top
// storage tier. The pool's degradation ladder is, in order: remote
// service → local RecordStore → local extraction → conventional run.
// Every remote operation is best-effort — a dead, slow, partitioned, or
// lying record server can never fail a session, only push it down the
// ladder; the cost is bounded by the client's deadline/retry/breaker
// budget and visible in PoolStats and the trace.
type RemoteTier struct {
	c *recordserv.Client
}

// NewRemoteTier wraps a record-service client for use as a pool tier.
func NewRemoteTier(client *recordserv.Client) *RemoteTier {
	return &RemoteTier{c: client}
}

// DialRemoteTier is the one-line constructor: a default client for the
// service at baseURL, wrapped as a pool tier.
func DialRemoteTier(baseURL string) (*RemoteTier, error) {
	c, err := recordserv.NewClient(recordserv.Options{BaseURL: baseURL})
	if err != nil {
		return nil, err
	}
	return NewRemoteTier(c), nil
}

// Client returns the underlying record-service client (for its Stats and
// direct fetch/publish/invalidate use outside a pool).
func (r *RemoteTier) Client() *recordserv.Client { return r.c }

// remoteOutcome classifies one remote lookup for the pool's counters.
type remoteOutcome int

const (
	remoteHit remoteOutcome = iota
	remoteMiss
	remoteError
)

// fetch resolves key against the service and decodes the payload. Corrupt
// payloads — bytes that arrived "successfully" but fail the record
// codec's checksum, the wire-corruption case HTTP cannot detect — count
// as errors, and the poisoned fleet-cache entry is invalidated
// best-effort so it cannot keep serving.
func (r *RemoteTier) fetch(key string) (*Record, remoteOutcome) {
	data, err := r.c.Fetch(key)
	if err != nil {
		if errors.Is(err, recordserv.ErrNotFound) {
			return nil, remoteMiss
		}
		return nil, remoteError
	}
	rec, derr := DecodeRecord(data)
	if derr != nil {
		_ = r.c.Invalidate(key)
		return nil, remoteError
	}
	return rec, remoteHit
}

// publishRecord uploads an extracted record, returning false on any
// failure (including server-side rejection).
func (r *RemoteTier) publishRecord(key string, rec *Record) bool {
	return r.c.Publish(key, rec.Encode()) == nil
}
