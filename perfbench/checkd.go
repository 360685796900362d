package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkd"
	"repro/internal/raftmongo"
	"repro/internal/tla"
)

// checkd-jobs: a closed loop of clients over loopback HTTP against a fresh
// supervisor. Each client in turn submits an uncached job, polls until it
// sees "done", resubmits the same request at once without no_cache, and
// only then fetches and checks the first job's result.
//
// Every pair uses a fresh max_states (far above the state count, so the
// verdict is unchanged). max_states is part of the verdict-cache key, so
// the resubmission hits the cache only if the job's own verdict was cached
// by the time "done" became visible — no earlier pair's entry can answer
// it. A miss still returns a correct verdict: it lowers
// checkd.cache_hit_ratio, not the gates.

const (
	checkdSpec     = "raftmongo-v1"
	checkdDistinct = 7599 // raftmongo-v1 at max_term 2, max_log 2
	checkdPoll     = 2 * time.Millisecond
	// checkdMinUncached uncached jobs per window give p90 ten samples
	// beyond it.
	checkdMinUncached = 100
)

var checkdRawConfig = raftmongo.Config{Nodes: 3, MaxTerm: 2, MaxLogLen: 2}

type checkdBench struct {
	root        string
	sup         *checkd.Supervisor
	srv         *http.Server
	served      chan error
	base        string
	client      *http.Client
	clients     int
	minUncached int64
	pairs       atomic.Int64
}

func newCheckd(p params) (instance, error) {
	root, err := os.MkdirTemp(p.dir, "checkd-")
	if err != nil {
		return nil, err
	}
	sup, err := checkd.New(checkd.Config{Root: root, MaxConcurrent: p.workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sup.Drain()
		return nil, err
	}
	b := &checkdBench{
		root:        root,
		sup:         sup,
		srv:         &http.Server{Handler: checkd.NewHandler(sup)},
		served:      make(chan error, 1),
		base:        "http://" + ln.Addr().String(),
		client:      &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: p.workers}, Timeout: time.Minute},
		clients:     p.workers,
		minUncached: checkdMinUncached,
	}
	if p.tiny {
		b.minUncached = 2
	}
	go func() { b.served <- b.srv.Serve(ln) }()
	// Warm-up: one pair, which also proves the service is up.
	if r := b.pair(nil); len(r.failures) > 0 {
		b.close()
		return nil, fmt.Errorf("warm-up: %w", r.failures[0])
	}
	return b, nil
}

func (b *checkdBench) controls() []error { return nil }

func (b *checkdBench) request(maxStates int, noCache bool) checkd.JobRequest {
	return checkd.JobRequest{
		Spec:    checkdSpec,
		Config:  checkd.SpecParams{MaxTerm: 2, MaxLog: 2},
		Options: checkd.JobOptions{Workers: 1, MaxStates: maxStates, NoCache: noCache},
	}
}

// pairResult is what one client's turn did.
type pairResult struct {
	submissions int
	failures    []error
	uncachedMs  float64 // submit until "done" was visible
	submitUs    float64
	queueMs     float64 // submit until "running" was visible; -1 if never seen
	runMs       float64 // "running" until "done"; -1 if running was never seen
	cachedUs    float64 // the resubmission's round trip, when answered from cache
	hit         bool
}

func (b *checkdBench) pair(tr *tracer) pairResult {
	r := pairResult{queueMs: -1, runMs: -1}
	fail := func(err error) pairResult {
		r.failures = append(r.failures, err)
		return r
	}
	maxStates := 1_000_000 + int(b.pairs.Add(1))
	root := tr.begin("checkd.pair", 0)
	defer tr.end(root, nil)

	t0 := time.Now()
	first, code, err := b.submit(b.request(maxStates, true))
	submitted := time.Now()
	r.submissions++
	if err != nil {
		return fail(err)
	}
	if code != http.StatusAccepted {
		return fail(fmt.Errorf("checkd-jobs: no_cache submit answered %d, want 202", code))
	}
	r.submitUs = float64(submitted.Sub(t0)) / 1e3
	tr.record("checkd.submit", root, t0, submitted)
	runningAt, doneAt, err := b.await(first.ID)
	if err != nil {
		return fail(err)
	}
	r.uncachedMs = float64(doneAt.Sub(t0)) / 1e6
	if !runningAt.IsZero() {
		r.queueMs = float64(runningAt.Sub(t0)) / 1e6
		r.runMs = float64(doneAt.Sub(runningAt)) / 1e6
		tr.record("checkd.queued", root, submitted, runningAt)
		tr.record("checkd.running", root, runningAt, doneAt)
	}

	// Resubmit the moment "done" is visible: no sleep, no GET in between.
	t1 := time.Now()
	again, code, err := b.submit(b.request(maxStates, false))
	answered := time.Now()
	r.submissions++
	tr.record("checkd.resubmit", root, t1, answered)
	if err != nil {
		return fail(err)
	}
	if r.hit = code == http.StatusOK && again.Cached; r.hit {
		r.cachedUs = float64(answered.Sub(t1)) / 1e3
	} else if _, _, err := b.await(again.ID); err != nil {
		return fail(err)
	}

	for _, id := range []string{first.ID, again.ID} {
		if err := b.verify(id); err != nil {
			r.failures = append(r.failures, err)
		}
	}
	return r
}

func (b *checkdBench) submit(req checkd.JobRequest) (checkd.JobResult, int, error) {
	var out checkd.JobResult
	body, err := json.Marshal(req)
	if err != nil {
		return out, 0, err
	}
	resp, err := b.client.Post(b.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, 0, fmt.Errorf("checkd-jobs: submit: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return out, resp.StatusCode, fmt.Errorf("checkd-jobs: submit answered %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return out, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&out)
}

func (b *checkdBench) get(path string, into any) error {
	resp, err := b.client.Get(b.base + path)
	if err != nil {
		return fmt.Errorf("checkd-jobs: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("checkd-jobs: GET %s answered %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// await polls a job until it is terminal, returning when "running" was
// first seen (zero if never) and when the terminal state was seen.
func (b *checkdBench) await(id string) (runningAt, doneAt time.Time, err error) {
	for {
		var st checkd.JobStatus
		if err := b.get("/jobs/"+id, &st); err != nil {
			return runningAt, doneAt, err
		}
		now := time.Now()
		if st.State == checkd.JobRunning && runningAt.IsZero() {
			runningAt = now
		}
		if st.State.Terminal() {
			if st.State != checkd.JobDone {
				return runningAt, now, fmt.Errorf("checkd-jobs: job %s ended %s: %s", id, st.State, st.Error)
			}
			return runningAt, now, nil
		}
		time.Sleep(checkdPoll)
	}
}

// verify is the gate: done, verdict ok, the exact state count.
func (b *checkdBench) verify(id string) error {
	var res checkd.JobResult
	if err := b.get("/jobs/"+id+"/result", &res); err != nil {
		return err
	}
	switch o := res.Outcome; {
	case res.State != checkd.JobDone || o == nil:
		return fmt.Errorf("checkd-jobs: job %s is %s without an outcome", id, res.State)
	case o.Verdict != "ok" || o.Distinct != checkdDistinct:
		return fmt.Errorf("checkd-jobs: job %s: verdict %q, %d distinct; want ok, %d", id, o.Verdict, o.Distinct, checkdDistinct)
	}
	return nil
}

func (b *checkdBench) measure(until time.Time, tr *tracer) (*window, error) {
	var before rtSample
	if tr != nil {
		// The engine's cost for the same job, outside the service.
		for i := 0; i < 5; i++ {
			start := time.Now()
			res, err := tla.Check(raftmongo.SpecV1(checkdRawConfig), tla.Options{Workers: 1})
			if err != nil || res.Distinct != checkdDistinct {
				return nil, fmt.Errorf("checkd-jobs: raw check: %v", err)
			}
			tr.layers.sample("checkd.raw_check_ms", float64(time.Since(start))/1e6)
		}
	}
	startOperation()
	if tr != nil {
		before = readRuntime()
	}

	w := &window{}
	var mu sync.Mutex
	var uncached atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) || uncached.Load() < b.minUncached {
				r := b.pair(tr)
				uncached.Add(1)
				mu.Lock()
				b.tallyPair(w, r, tr)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.busy = time.Since(start)
	w.rates = append(w.rates, w.units/w.busy.Seconds())
	w.peakMB = append(w.peakMB, peakRSSMB())
	if tr != nil {
		tr.layers.addRuntime(before, readRuntime(), w.units)
		tr.layers.round()
	}
	return w, nil
}

func (b *checkdBench) tallyPair(w *window, r pairResult, tr *tracer) {
	w.attempted += r.submissions
	w.failures = append(w.failures, r.failures...)
	if len(r.failures) > 0 {
		return
	}
	w.units += float64(r.submissions)
	w.latMs = append(w.latMs, r.uncachedMs)
	if tr == nil {
		return
	}
	acc := tr.layers
	acc.sample("checkd.submit_us", r.submitUs)
	if r.queueMs >= 0 {
		acc.sample("checkd.queue_wait_ms", r.queueMs)
		acc.sample("checkd.run_ms", r.runMs)
	}
	acc.add("raw.resubmits", 1)
	if r.hit {
		acc.add("raw.cache_hits", 1)
		acc.sample("checkd.cached_us", r.cachedUs)
	}
}

func (b *checkdBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.srv.Shutdown(ctx)
	if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	b.client.CloseIdleConnections()
	b.sup.Drain()
	if rerr := os.RemoveAll(b.root); err == nil {
		err = rerr
	}
	return err
}
