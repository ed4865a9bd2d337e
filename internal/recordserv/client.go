package recordserv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"
)

// Typed results of client operations. Callers branch on these with
// errors.Is; anything else is a transport- or server-level failure that
// already consumed its retry budget.
var (
	// ErrNotFound means the server answered and has no record for the key
	// (a cache miss, not a failure — the breaker counts it as a success).
	ErrNotFound = errors.New("recordserv: no record for key")
	// ErrUnavailable means the circuit breaker is open: the server has
	// exceeded its failure budget and requests fail fast, without touching
	// the network, until the breaker half-opens.
	ErrUnavailable = errors.New("recordserv: server unavailable (breaker open)")
	// ErrRejected means the server refused a publish (the record failed
	// server-side validation). Not retryable: the bytes are the problem.
	ErrRejected = errors.New("recordserv: record rejected by server")
)

// Options configures a Client. The zero value of every field has a
// production default; tests shrink the time knobs and inject clocks.
type Options struct {
	// BaseURL locates the server, e.g. "http://127.0.0.1:9464".
	BaseURL string
	// Transport performs the HTTP round trips; nil uses a private
	// http.Transport. Fault harnesses inject a faulty one here.
	Transport http.RoundTripper
	// RequestTimeout bounds every attempt (default 2s). A slow peer is a
	// failed peer: past the deadline the attempt is abandoned and the
	// retry/breaker machinery takes over.
	RequestTimeout time.Duration
	// MaxRetries is how many times a failed attempt is retried (default 2,
	// so 3 attempts total). Definitive answers (404, 413, 422) are never
	// retried.
	MaxRetries int
	// BackoffBase is the first retry's backoff (default 10ms); each retry
	// doubles it, capped at BackoffCap (default 250ms). Full jitter is
	// applied: the sleep is uniform in [0, backoff].
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// JitterSeed makes the backoff jitter deterministic for tests; 0 seeds
	// randomly, so a fleet's clients do not retry in lockstep.
	JitterSeed int64
	// BreakerThreshold is how many consecutive failed operations trip the
	// breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before admitting
	// a half-open probe (default 5s).
	BreakerCooldown time.Duration
	// Now and Sleep inject the clock (defaults: time.Now, time.Sleep).
	Now   func() time.Time
	Sleep func(time.Duration)
}

// ClientStats is a snapshot of a client's operation counters.
type ClientStats struct {
	// Ops counts logical operations (Fetch/Publish/Invalidate/Health).
	Ops uint64
	// Attempts counts HTTP attempts, including retries.
	Attempts uint64
	// Retries counts attempts beyond each operation's first.
	Retries uint64
	// Failures counts logical operations that exhausted their retry budget
	// (or were rejected) — the breaker's failure signal.
	Failures uint64
	// ShortCircuits counts operations refused instantly by the open breaker.
	ShortCircuits uint64
	// BreakerOpens counts breaker trips; BreakerState is the current state
	// ("closed", "open", "half-open").
	BreakerOpens uint64
	BreakerState string
	// FetchHits/FetchMisses break down Fetch outcomes.
	FetchHits   uint64
	FetchMisses uint64
	// Publishes/Invalidates count the mutating operations that reached a
	// definitive server answer.
	Publishes   uint64
	Invalidates uint64
}

// Client talks to a record server with per-request deadlines, bounded
// retries with exponential backoff and full jitter, and a circuit
// breaker. All methods are safe for concurrent use. Every failure mode
// maps to an error the caller can degrade on — a Client never panics and
// never blocks longer than (MaxRetries+1) × RequestTimeout plus backoff.
type Client struct {
	base    *url.URL
	http    *http.Client
	timeout time.Duration
	retries int
	backoff time.Duration
	bcap    time.Duration
	breaker *breaker
	sleep   func(time.Duration)

	jmu sync.Mutex
	rng *rand.Rand

	mu    sync.Mutex
	stats ClientStats
}

// NewClient creates a client for the server at opts.BaseURL.
func NewClient(opts Options) (*Client, error) {
	base, err := url.Parse(opts.BaseURL)
	if err != nil || base.Scheme == "" || base.Host == "" {
		return nil, fmt.Errorf("recordserv: bad base URL %q", opts.BaseURL)
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 2 * time.Second
	}
	if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	} else if opts.MaxRetries == 0 {
		opts.MaxRetries = 2
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 10 * time.Millisecond
	}
	if opts.BackoffCap <= 0 {
		opts.BackoffCap = 250 * time.Millisecond
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = 3
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 5 * time.Second
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	sleep := opts.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	transport := opts.Transport
	if transport == nil {
		transport = &http.Transport{}
	}
	seed := opts.JitterSeed
	if seed == 0 {
		seed = rand.Int63()
	}
	return &Client{
		base:    base,
		http:    &http.Client{Transport: transport},
		timeout: opts.RequestTimeout,
		retries: opts.MaxRetries,
		backoff: opts.BackoffBase,
		bcap:    opts.BackoffCap,
		breaker: newBreaker(opts.BreakerThreshold, opts.BreakerCooldown, now),
		sleep:   sleep,
		rng:     rand.New(rand.NewSource(seed)),
	}, nil
}

// Stats snapshots the client's counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	st := c.stats
	c.mu.Unlock()
	state, opens, short := c.breaker.snapshot()
	st.BreakerState = state.String()
	st.BreakerOpens = opens
	st.ShortCircuits = short
	return st
}

func (c *Client) count(f func(*ClientStats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// jitter returns a uniform duration in [0, d] under the client's seeded rng.
func (c *Client) jitter(d time.Duration) time.Duration {
	c.jmu.Lock()
	defer c.jmu.Unlock()
	if d <= 0 {
		return 0
	}
	return time.Duration(c.rng.Int63n(int64(d) + 1))
}

// response is one attempt's definitive answer.
type response struct {
	status int
	body   []byte
}

// transient marks an attempt failure that is worth retrying: transport
// errors, deadline hits, 5xx answers, and torn response bodies.
type transient struct{ err error }

func (t transient) Error() string { return t.err.Error() }
func (t transient) Unwrap() error { return t.err }

// do runs one logical operation: breaker gate, then up to 1+MaxRetries
// attempts with backoff, then a single breaker report.
func (c *Client) do(method, path string, body []byte) (*response, error) {
	c.count(func(s *ClientStats) { s.Ops++ })
	if !c.breaker.allow() {
		c.count(func(s *ClientStats) { s.ShortCircuits++ })
		return nil, ErrUnavailable
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		c.count(func(s *ClientStats) { s.Attempts++ })
		if attempt > 0 {
			c.count(func(s *ClientStats) { s.Retries++ })
		}
		resp, err := c.attempt(method, path, body)
		if err == nil {
			c.breaker.report(true)
			return resp, nil
		}
		lastErr = err
		var tr transient
		if !errors.As(err, &tr) || attempt >= c.retries {
			break
		}
		// Exponential backoff with full jitter: sleep uniform in
		// [0, min(base<<attempt, cap)], so a thundering herd of clients
		// retrying against a recovering server spreads out.
		d := c.backoff << uint(attempt)
		if d > c.bcap || d <= 0 {
			d = c.bcap
		}
		c.sleep(c.jitter(d))
	}
	c.count(func(s *ClientStats) { s.Failures++ })
	c.breaker.report(false)
	return nil, lastErr
}

// attempt performs one HTTP round trip under the per-request deadline and
// classifies the outcome: a *response for definitive answers, a transient
// error for anything retryable, a permanent error otherwise.
func (c *Client) attempt(method, path string, body []byte) (*response, error) {
	u := *c.base
	u.Path = path
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u.String(), rd)
	if err != nil {
		return nil, fmt.Errorf("recordserv: build request: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, transient{fmt.Errorf("recordserv: %s %s: %w", method, path, err)}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxRecordBytes+1))
	if err != nil {
		// A body that dies mid-read is a torn response (partition or
		// crashed peer mid-send); the request as a whole is retryable.
		return nil, transient{fmt.Errorf("recordserv: %s %s: read body: %w", method, path, err)}
	}
	if resp.ContentLength > 0 && int64(len(data)) < resp.ContentLength {
		return nil, transient{fmt.Errorf("recordserv: %s %s: truncated body (%d of %d bytes)",
			method, path, len(data), resp.ContentLength)}
	}
	if resp.StatusCode >= 500 {
		return nil, transient{fmt.Errorf("recordserv: %s %s: server error %d", method, path, resp.StatusCode)}
	}
	return &response{status: resp.StatusCode, body: data}, nil
}

// Fetch retrieves the record published under key. A missing key is
// ErrNotFound; an open breaker is ErrUnavailable.
func (c *Client) Fetch(key string) ([]byte, error) {
	resp, err := c.do(http.MethodGet, "/v1/records/"+url.PathEscape(key), nil)
	if err != nil {
		return nil, err
	}
	switch resp.status {
	case http.StatusOK:
		c.count(func(s *ClientStats) { s.FetchHits++ })
		return resp.body, nil
	case http.StatusNotFound:
		c.count(func(s *ClientStats) { s.FetchMisses++ })
		return nil, ErrNotFound
	default:
		return nil, fmt.Errorf("recordserv: fetch %q: unexpected status %d", key, resp.status)
	}
}

// Publish uploads an encoded record under key. Server-side validation
// failure is ErrRejected.
func (c *Client) Publish(key string, data []byte) error {
	resp, err := c.do(http.MethodPut, "/v1/records/"+url.PathEscape(key), data)
	if err != nil {
		return err
	}
	switch resp.status {
	case http.StatusNoContent:
		c.count(func(s *ClientStats) { s.Publishes++ })
		return nil
	case http.StatusUnprocessableEntity, http.StatusRequestEntityTooLarge:
		return fmt.Errorf("%w: %s", ErrRejected, bytes.TrimSpace(resp.body))
	default:
		return fmt.Errorf("recordserv: publish %q: unexpected status %d", key, resp.status)
	}
}

// Invalidate removes the record published under key fleet-wide.
func (c *Client) Invalidate(key string) error {
	resp, err := c.do(http.MethodDelete, "/v1/records/"+url.PathEscape(key), nil)
	if err != nil {
		return err
	}
	if resp.status != http.StatusNoContent {
		return fmt.Errorf("recordserv: invalidate %q: unexpected status %d", key, resp.status)
	}
	c.count(func(s *ClientStats) { s.Invalidates++ })
	return nil
}

// Health probes the server's liveness endpoint once (no retries beyond
// the standard budget).
func (c *Client) Health() error {
	resp, err := c.do(http.MethodGet, "/v1/health", nil)
	if err != nil {
		return err
	}
	if resp.status != http.StatusOK {
		return fmt.Errorf("recordserv: health: unexpected status %d", resp.status)
	}
	return nil
}
