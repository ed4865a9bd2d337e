package recordserv_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ricjs/internal/faultinject"
	"ricjs/internal/recordserv"
)

// newTestClient builds a client against h with tight, deterministic
// settings: no real sleeping (sleeps are recorded), seeded jitter.
func newTestClient(t *testing.T, url string, mut func(*recordserv.Options)) (*recordserv.Client, *[]time.Duration) {
	t.Helper()
	var sleeps []time.Duration
	opts := recordserv.Options{
		BaseURL:          url,
		RequestTimeout:   200 * time.Millisecond,
		MaxRetries:       2,
		BackoffBase:      8 * time.Millisecond,
		BackoffCap:       32 * time.Millisecond,
		JitterSeed:       7,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Minute,
		Sleep:            func(d time.Duration) { sleeps = append(sleeps, d) },
	}
	if mut != nil {
		mut(&opts)
	}
	c, err := recordserv.NewClient(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, &sleeps
}

func TestClientRoundTrip(t *testing.T) {
	srv := recordserv.NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c, _ := newTestClient(t, ts.URL, nil)

	if _, err := c.Fetch("k"); !errors.Is(err, recordserv.ErrNotFound) {
		t.Fatalf("cold fetch err = %v, want ErrNotFound", err)
	}
	data := validRecord(t)
	if err := c.Publish("k", data); err != nil {
		t.Fatalf("publish: %v", err)
	}
	got, err := c.Fetch("k")
	if err != nil || string(got) != string(data) {
		t.Fatalf("fetch = %d bytes, %v", len(got), err)
	}
	if err := c.Invalidate("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fetch("k"); !errors.Is(err, recordserv.ErrNotFound) {
		t.Fatalf("fetch after invalidate = %v, want ErrNotFound", err)
	}
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.FetchHits != 1 || st.FetchMisses != 2 || st.Publishes != 1 || st.Invalidates != 1 {
		t.Fatalf("client stats = %+v", st)
	}
	if ss := srv.Stats(); ss.Fetches != 3 || ss.Publishes != 1 || ss.Invalidates != 1 {
		t.Fatalf("server stats = %+v", ss)
	}
}

func TestClientRejectedPublish(t *testing.T) {
	ts := httptest.NewServer(recordserv.NewServer())
	defer ts.Close()
	c, _ := newTestClient(t, ts.URL, nil)
	err := c.Publish("k", []byte("not a record"))
	if !errors.Is(err, recordserv.ErrRejected) {
		t.Fatalf("corrupt publish err = %v, want ErrRejected", err)
	}
	// A rejection is a definitive server answer, not a failure: the
	// breaker must not count it toward tripping.
	if st := c.Stats(); st.BreakerState != "closed" {
		t.Fatalf("breaker %s after rejection, want closed", st.BreakerState)
	}
}

func TestClientRetriesTransientServerErrors(t *testing.T) {
	var calls atomic.Uint64
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		recordserv.NewServer().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(flaky)
	defer ts.Close()
	c, sleeps := newTestClient(t, ts.URL, nil)

	// Two 500s then a clean 404: the operation retries through to the
	// definitive answer.
	if _, err := c.Fetch("k"); !errors.Is(err, recordserv.ErrNotFound) {
		t.Fatalf("fetch err = %v, want ErrNotFound after retries", err)
	}
	st := c.Stats()
	if st.Attempts != 3 || st.Retries != 2 || st.Failures != 0 {
		t.Fatalf("attempts/retries/failures = %d/%d/%d, want 3/2/0", st.Attempts, st.Retries, st.Failures)
	}
	// Backoff: one sleep per retry, full jitter within [0, base<<attempt].
	if len(*sleeps) != 2 {
		t.Fatalf("sleeps = %v, want 2 entries", *sleeps)
	}
	for i, d := range *sleeps {
		max := 8 * time.Millisecond << uint(i)
		if d < 0 || d > max {
			t.Fatalf("sleep %d = %v, want within [0, %v]", i, d, max)
		}
	}
}

func TestClientDeterministicJitter(t *testing.T) {
	always500 := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	ts := httptest.NewServer(always500)
	defer ts.Close()
	c1, s1 := newTestClient(t, ts.URL, nil)
	c2, s2 := newTestClient(t, ts.URL, nil)
	c1.Fetch("k") //nolint:errcheck
	c2.Fetch("k") //nolint:errcheck
	if len(*s1) == 0 || len(*s1) != len(*s2) {
		t.Fatalf("sleep counts = %d vs %d", len(*s1), len(*s2))
	}
	for i := range *s1 {
		if (*s1)[i] != (*s2)[i] {
			t.Fatalf("jitter diverged at %d: %v vs %v (same seed)", i, (*s1)[i], (*s2)[i])
		}
	}
}

func TestClientBreakerTripsAndShortCircuits(t *testing.T) {
	// Nothing listens on the base URL: every attempt is conn-refused.
	c, _ := newTestClient(t, "http://127.0.0.1:1", nil)
	for i := 0; i < 3; i++ {
		if _, err := c.Fetch("k"); err == nil {
			t.Fatalf("fetch %d against dead server succeeded", i)
		}
	}
	st := c.Stats()
	if st.BreakerState != "open" || st.BreakerOpens != 1 {
		t.Fatalf("breaker = %s/%d opens, want open/1 (stats %+v)", st.BreakerState, st.BreakerOpens, st)
	}
	if st.Failures != 3 || st.Attempts != 9 {
		t.Fatalf("failures/attempts = %d/%d, want 3/9 (3 ops x 3 attempts)", st.Failures, st.Attempts)
	}

	// Open: instant ErrUnavailable, no attempts spent.
	if _, err := c.Fetch("k"); !errors.Is(err, recordserv.ErrUnavailable) {
		t.Fatalf("open-breaker fetch err = %v, want ErrUnavailable", err)
	}
	st2 := c.Stats()
	if st2.Attempts != st.Attempts || st2.ShortCircuits != 1 {
		t.Fatalf("short circuit spent attempts: %+v", st2)
	}
}

func TestClientBreakerRecovers(t *testing.T) {
	now := time.Unix(0, 0)
	ts := httptest.NewServer(recordserv.NewServer())
	defer ts.Close()
	// A transport that refuses the first 9 requests (3 ops x 3 attempts),
	// then heals: the breaker must trip, half-open after the cooldown, and
	// close on the successful probe.
	c, _ := newTestClient(t, ts.URL, func(o *recordserv.Options) {
		o.BreakerThreshold = 3
		o.BreakerCooldown = time.Second
		o.Now = func() time.Time { return now }
		o.Transport = &faultinject.NetFault{
			Base:      &http.Transport{},
			Mode:      faultinject.NetConnRefused,
			FailFirst: 9,
		}
	})
	for i := 0; i < 3; i++ {
		c.Fetch("k") //nolint:errcheck
	}
	if st := c.Stats(); st.BreakerState != "open" {
		t.Fatalf("breaker = %s, want open", st.BreakerState)
	}
	now = now.Add(time.Second)
	// The probe goes through the healed transport and gets a definitive
	// 404 — a success at the breaker level.
	if _, err := c.Fetch("k"); !errors.Is(err, recordserv.ErrNotFound) {
		t.Fatalf("probe fetch err = %v, want ErrNotFound", err)
	}
	if st := c.Stats(); st.BreakerState != "closed" {
		t.Fatalf("breaker = %s after successful probe, want closed", st.BreakerState)
	}
}

func TestClientTruncatedResponseFails(t *testing.T) {
	srv := recordserv.NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	seeder, _ := newTestClient(t, ts.URL, nil)
	if err := seeder.Publish("k", validRecord(t)); err != nil {
		t.Fatal(err)
	}

	c, _ := newTestClient(t, ts.URL, func(o *recordserv.Options) {
		o.MaxRetries = 1
		o.Transport = &faultinject.NetFault{Base: &http.Transport{}, Mode: faultinject.NetTruncate}
	})
	_, err := c.Fetch("k")
	if err == nil {
		t.Fatal("fetch over truncating transport succeeded; a record prefix must never decode")
	}
	if errors.Is(err, recordserv.ErrNotFound) {
		t.Fatalf("truncation surfaced as a miss: %v", err)
	}
	if st := c.Stats(); st.Retries != 1 || st.Failures != 1 {
		t.Fatalf("retries/failures = %d/%d, want 1/1", st.Retries, st.Failures)
	}
}

func TestClientBadBaseURL(t *testing.T) {
	if _, err := recordserv.NewClient(recordserv.Options{BaseURL: "::not a url"}); err == nil {
		t.Fatal("NewClient accepted a garbage base URL")
	}
}
