package main

import (
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// rng is splitmix64: a fixed, platform-independent stream per seed, owned
// by the benchmark so that no engine change can alter its inputs.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform sample in the open interval (0, 1).
func (r *rng) float() float64 {
	return (float64(r.next()>>11) + 0.5) / float64(uint64(1)<<53)
}

// mix is a traffic mix: Zipf-skewed over the hot keys in rank order, plus
// a churn share drawn uniformly from a cold corpus.
type mix struct {
	hot    []*input
	cdf    []float64
	churn  float64
	corpus []*input
}

func newMix(hot []*input, zipfS, churn float64, corpus []*input) *mix {
	m := &mix{hot: hot, churn: churn, corpus: corpus}
	total := 0.0
	for i := range hot {
		total += 1 / math.Pow(float64(i+1), zipfS)
		m.cdf = append(m.cdf, total)
	}
	return m
}

func (m *mix) draw(r *rng) *input {
	if m.churn > 0 && r.float() < m.churn {
		return m.corpus[int(r.next()%uint64(len(m.corpus)))]
	}
	u := r.float() * m.cdf[len(m.cdf)-1]
	return m.hot[min(sort.SearchFloat64s(m.cdf, u), len(m.hot)-1)]
}

// arrival is one scheduled session of an open loop.
type arrival struct {
	at time.Duration
	in *input
}

// schedule draws Poisson arrivals at rate per second for dur, with keys
// from m. The same seed gives the same schedule.
func schedule(seed uint64, rate float64, dur time.Duration, m *mix) []arrival {
	r := &rng{s: seed}
	var out []arrival
	t := 0.0
	for {
		t += -math.Log(r.float()) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, arrival{at: at, in: m.draw(r)})
	}
}

// sample is one measured session. The session was due at due, a worker
// began it at start and it ended at end; late is how far behind schedule
// the generator released it.
type sample struct {
	class           string
	due, start, end time.Time
	late            time.Duration
}

func (s sample) latency() time.Duration { return s.end.Sub(s.due) }

// job is one session handed to a worker.
type job struct {
	in   *input
	ric  bool // reuse-startup: a RIC Reuse session rather than a Conventional one
	due  time.Time
	late time.Duration
}

// serveFunc runs one session on worker w and returns its sample class.
type serveFunc func(w int, j job) string

// openLoop serves the arrivals on schedule with a fixed set of workers and
// returns one sample per arrival. A free worker takes the next arrival in
// schedule order, sleeping until it is due, so arrivals queue FIFO for the
// first free worker and no dispatcher competes with the workers for the
// two cores. Latency counts from the scheduled arrival, so time a session
// spends queued behind a slow one is charged to it; late is how far an
// idle worker overslept the arrival it was waiting for.
func openLoop(arrivals []arrival, workers int, serve serveFunc) []sample {
	var mu sync.Mutex
	next := 0
	per := make([][]sample, workers)
	origin := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(arrivals) {
					mu.Unlock()
					return
				}
				a := arrivals[next]
				next++
				mu.Unlock()
				j := job{in: a.in, due: origin.Add(a.at)}
				if time.Now().Before(j.due) {
					sleepUntil(j.due)
					j.late = time.Since(j.due)
				}
				start := time.Now()
				class := serve(w, j)
				per[w] = append(per[w], sample{class: class, due: j.due, start: start, end: time.Now(), late: j.late})
			}
		}(w)
	}
	wg.Wait()
	return merge(per)
}

// closedLoop runs clients that each issue their next session as soon as
// the previous one ends, until next reports that the client is done. A
// session is due once next has prepared it, so wait and lateness measure
// the loop's own overhead.
func closedLoop(clients int, next func(client int) (job, bool), serve serveFunc) []sample {
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				j, ok := next(c)
				if !ok {
					return
				}
				j.due = time.Now()
				start := time.Now()
				j.late = start.Sub(j.due)
				class := serve(c, j)
				per[c] = append(per[c], sample{class: class, due: j.due, start: start, end: time.Now(), late: j.late})
			}
		}(c)
	}
	wg.Wait()
	return merge(per)
}

// sleepUntil blocks until t in a nanosleep system call, whose kernel
// high-resolution timer wakes within about 0.1 ms; time.Sleep wakes up
// to a millisecond late here, which would dominate sub-millisecond
// session latencies.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again for what is left
	}
}

func merge(per [][]sample) []sample {
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}
