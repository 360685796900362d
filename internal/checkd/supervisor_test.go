package checkd

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tla"
)

// TestJobRunsToOracleVerdict: the basic path — submit, run, done — with
// counters identical to a direct engine run of the same spec.
func TestJobRunsToOracleVerdict(t *testing.T) {
	s := newTestSup(t, nil)
	res, err := s.Submit(JobRequest{Spec: "slow", Config: SpecParams{Nodes: 40}})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != JobQueued {
		t.Fatalf("state after submit = %q, want queued", res.State)
	}
	final := waitJob(t, s, res.ID, JobDone)
	assertOutcomeEqual(t, "job", final.Outcome, oracleOutcome(t, "slow", SpecParams{Nodes: 40}))
	if final.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", final.Attempts)
	}
	// The terminal record is persisted for recovery.
	if _, err := os.Stat(filepath.Join(s.cfg.Root, res.ID, "result.json")); err != nil {
		t.Fatalf("result.json: %v", err)
	}
}

// TestViolationIsAVerdict: an invariant violation completes the job as
// "done" with verdict "violation" and a counterexample trace — the checker
// answered the question; nothing failed.
func TestViolationIsAVerdict(t *testing.T) {
	s := newTestSup(t, nil)
	res, err := s.Submit(JobRequest{Spec: "locking", Config: SpecParams{Actors: 2, OmitCompatibilityCheck: true}})
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, s, res.ID, JobDone)
	out := final.Outcome
	if out == nil || out.Verdict != "violation" || out.Violation == nil {
		t.Fatalf("outcome = %+v, want a violation verdict", out)
	}
	if out.Violation.Invariant == "" || len(out.Violation.Trace) == 0 {
		t.Fatalf("violation = %+v, want invariant name and trace", out.Violation)
	}
}

// TestVerdictCache: an identical re-submission answers from the cache
// without a run; NoCache forces a fresh one; different configs miss.
func TestVerdictCache(t *testing.T) {
	s := newTestSup(t, nil)
	req := JobRequest{Spec: "slow", Config: SpecParams{Nodes: 12}}
	first, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, s, first.ID, JobDone)

	hit, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.State != JobDone || hit.Outcome == nil {
		t.Fatalf("re-submission = %+v, want an instant cached verdict", hit.JobStatus)
	}
	assertOutcomeEqual(t, "cached", hit.Outcome, final.Outcome)
	if s.CacheLen() != 1 {
		t.Fatalf("cache len = %d, want 1", s.CacheLen())
	}

	fresh, err := s.Submit(JobRequest{Spec: "slow", Config: SpecParams{Nodes: 12},
		Options: JobOptions{NoCache: true}})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cached {
		t.Fatal("NoCache submission served from cache")
	}
	assertOutcomeEqual(t, "nocache", waitJob(t, s, fresh.ID, JobDone).Outcome, final.Outcome)

	miss, err := s.Submit(JobRequest{Spec: "slow", Config: SpecParams{Nodes: 13}})
	if err != nil {
		t.Fatal(err)
	}
	if miss.Cached {
		t.Fatal("different config served from cache")
	}
	waitJob(t, s, miss.ID, JobDone)
	if s.CacheLen() != 2 {
		t.Fatalf("cache len = %d, want 2", s.CacheLen())
	}
}

// TestResubmitOnDoneHitsCache is the publish-before-cache stress: the
// moment a job reads "done" its result.json, its completion counter and
// its verdict-cache entry must already exist, so a client that polls in a
// tight loop and resubmits at once is always served from the cache.
func TestResubmitOnDoneHitsCache(t *testing.T) {
	s := newTestSup(t, nil)
	done := s.Metrics().Counter(`checkd_jobs_completed_total{state="done"}`)
	const rounds = 20
	for k := 0; k < rounds; k++ {
		req := JobRequest{Spec: "slow", Config: SpecParams{Nodes: 3 + k}}
		first, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			st, err := s.Status(first.ID)
			if err != nil {
				t.Fatal(err)
			}
			if st.State == JobDone {
				break
			}
			if st.State.Terminal() || time.Now().After(deadline) {
				t.Fatalf("round %d: job %s is %q, want done", k, first.ID, st.State)
			}
		}
		hit, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if !hit.Cached {
			t.Fatalf("round %d: resubmission right after done missed the verdict cache", k)
		}
		if _, err := os.Stat(filepath.Join(s.jobDir(first.ID), "result.json")); err != nil {
			t.Fatalf("round %d: job reads done before its result.json exists: %v", k, err)
		}
		if got := done.Value(); got != int64(k+1) {
			t.Fatalf("round %d: done completions = %d, want %d", k, got, k+1)
		}
	}
	if s.CacheLen() != rounds {
		t.Fatalf("cache len = %d, want %d", s.CacheLen(), rounds)
	}
}

// TestPersistentFaultRetriesWithBackoff: a persistent fault on the
// checkpoint manifest fails the attempt (the engine's internal retries
// only absorb transient errors); the supervisor retries with backoff and
// the second attempt converges to the oracle. Injected delay faults are
// served through the FaultFS sleep hook, so the test spends no wall-clock
// on them.
func TestPersistentFaultRetriesWithBackoff(t *testing.T) {
	ffs := tla.NewFaultFS(nil)
	var ffsSlept atomic64
	ffs.Sleep = func(d time.Duration) { ffsSlept.add(int64(d)) }
	ffs.Inject(tla.Fault{Op: tla.FaultCreate, Path: "MANIFEST", Err: errors.New("disk gone"), Times: 1})
	ffs.Inject(tla.Fault{Op: tla.FaultWrite, Path: "arena", Delay: 2 * time.Second, Times: 3})

	var mu sync.Mutex
	var backoffs []time.Duration
	s := newTestSup(t, func(c *Config) {
		c.FS = ffs
		c.CheckpointEvery = 2
		c.Sleep = func(d time.Duration) {
			mu.Lock()
			backoffs = append(backoffs, d)
			mu.Unlock()
		}
	})

	res, err := s.Submit(JobRequest{Spec: "slow", Config: SpecParams{Nodes: 30}})
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, s, res.ID, JobDone)
	if final.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one fault, one clean retry)", final.Attempts)
	}
	mu.Lock()
	got := append([]time.Duration(nil), backoffs...)
	mu.Unlock()
	if len(got) != 1 || got[0] < time.Millisecond {
		t.Fatalf("backoff sleeps = %v, want one of at least BackoffBase", got)
	}
	if slept := time.Duration(ffsSlept.load()); slept != 6*time.Second {
		t.Fatalf("delay faults slept %v through the hook, want 6s (3 × 2s)", slept)
	}
	assertOutcomeEqual(t, "after retry", final.Outcome, oracleOutcome(t, "slow", SpecParams{Nodes: 30}))
}

// TestRunnerCrashRetries: a panic in the job runner is isolated and
// retried like any transient failure, not allowed to kill the worker.
func TestRunnerCrashRetries(t *testing.T) {
	crashyRemaining.Store(1)
	s := newTestSup(t, nil)
	res, err := s.Submit(JobRequest{Spec: "crashy", Config: SpecParams{Nodes: 10}})
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, s, res.ID, JobDone)
	if final.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", final.Attempts)
	}
	if final.Outcome.Distinct != ctrDistinct(10) {
		t.Fatalf("distinct = %d, want %d", final.Outcome.Distinct, ctrDistinct(10))
	}
}

// TestRunnerCrashExhaustsAttempts: a crash on every attempt becomes a
// permanent failure after MaxAttempts, with the cause in the error.
func TestRunnerCrashExhaustsAttempts(t *testing.T) {
	crashyRemaining.Store(100)
	defer crashyRemaining.Store(0)
	s := newTestSup(t, func(c *Config) { c.MaxAttempts = 2 })
	res, err := s.Submit(JobRequest{Spec: "crashy", Config: SpecParams{Nodes: 4}})
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, s, res.ID, JobFailed)
	if final.Attempts != 2 || !strings.Contains(final.Error, "crash") {
		t.Fatalf("attempts = %d, error = %q; want 2 attempts mentioning the crash", final.Attempts, final.Error)
	}
}

// TestSpecPanicFailsPermanently: a panic inside the spec's own callbacks is
// a spec bug — the engine captures it as ErrSpecPanic and the supervisor
// must not burn retries replaying it.
func TestSpecPanicFailsPermanently(t *testing.T) {
	s := newTestSup(t, nil)
	res, err := s.Submit(JobRequest{Spec: "panicky", Config: SpecParams{Nodes: 8}})
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, s, res.ID, JobFailed)
	if final.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry of a spec bug)", final.Attempts)
	}
	if !strings.Contains(final.Error, "panic") || !strings.Contains(final.Error, "Explode") {
		t.Fatalf("error = %q, want the structured panic trace naming the invariant", final.Error)
	}
}

// TestSubmitValidation: unknown specs and invalid options are rejected at
// admission, before anything is queued or persisted.
func TestSubmitValidation(t *testing.T) {
	s := newTestSup(t, nil)
	if _, err := s.Submit(JobRequest{Spec: "no-such-spec"}); !errors.Is(err, ErrUnknownSpec) {
		t.Fatalf("unknown spec: %v", err)
	}
	for _, req := range []JobRequest{
		{Spec: "slow", Config: SpecParams{Nodes: -1}},
		{Spec: "slow", Options: JobOptions{Workers: -2}},
		{Spec: "slow", Options: JobOptions{DeadlineSeconds: -1}},
		{Spec: "raftmongo-v2", Config: SpecParams{Nodes: 9}},
	} {
		if _, err := s.Submit(req); !errors.Is(err, tla.ErrInvalidOptions) {
			t.Fatalf("%+v: err = %v, want ErrInvalidOptions", req, err)
		}
	}
	if entries, _ := os.ReadDir(s.cfg.Root); len(entries) != 0 {
		t.Fatalf("rejected submissions left %d entries in the root", len(entries))
	}
}

// TestQueueFullAndDrainingRejections: the bounded queue rejects the
// overflow submission; a draining supervisor admits nothing.
func TestQueueFullAndDrainingRejections(t *testing.T) {
	s := newTestSup(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.QueueDepth = 1
	})
	// Occupy the single worker with a slow run (~40µs per Next call).
	running, err := s.Submit(JobRequest{Spec: "slow", Config: SpecParams{Nodes: 60, MaxTerm: 40}})
	if err != nil {
		t.Fatal(err)
	}
	waitRunningProgress(t, s, running.ID, 1)
	// Fill the queue's single slot, then overflow it.
	queued, err := s.Submit(JobRequest{Spec: "slow", Config: SpecParams{Nodes: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobRequest{Spec: "slow", Config: SpecParams{Nodes: 4}}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submission: %v, want ErrQueueFull", err)
	}
	s.Drain()
	if _, err := s.Submit(JobRequest{Spec: "slow", Config: SpecParams{Nodes: 5}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submission: %v, want ErrDraining", err)
	}
	// The queued job was never started: it stays persisted for the next
	// startup, and the running one parked with a checkpoint.
	if st, _ := s.Status(queued.ID); st.State != JobQueued {
		t.Fatalf("queued job state after drain = %q, want still queued", st.State)
	}
	if st, _ := s.Status(running.ID); st.State != JobInterrupted {
		t.Fatalf("running job state after drain = %q, want interrupted", st.State)
	}
}

// TestCancel: canceling a running job interrupts it; canceling a queued
// job retires it before it ever runs; both persist terminal records and
// neither enters the verdict cache.
func TestCancel(t *testing.T) {
	s := newTestSup(t, func(c *Config) { c.MaxConcurrent = 1 })
	running, err := s.Submit(JobRequest{Spec: "slow", Config: SpecParams{Nodes: 60, MaxTerm: 40}})
	if err != nil {
		t.Fatal(err)
	}
	waitRunningProgress(t, s, running.ID, 1)
	queued, err := s.Submit(JobRequest{Spec: "slow", Config: SpecParams{Nodes: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, running.ID, JobCanceled)
	waitJob(t, s, queued.ID, JobCanceled)
	if s.CacheLen() != 0 {
		t.Fatalf("cache len = %d after cancellations, want 0", s.CacheLen())
	}
	// Cancel is idempotent on terminal jobs, 404 on unknown ones.
	if err := s.Cancel(running.ID); err != nil {
		t.Fatalf("re-cancel: %v", err)
	}
	if err := s.Cancel("nope"); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("cancel unknown: %v", err)
	}
}

// TestDrainCheckpointsAndRecoveryResumes is the drain half of the
// crash-tolerance story: SIGTERM-style drain parks the running job with a
// committed checkpoint; a new supervisor over the same root re-queues it,
// resumes from the checkpoint, and lands on the oracle verdict.
func TestDrainCheckpointsAndRecoveryResumes(t *testing.T) {
	root := t.TempDir()
	s, err := New(Config{Root: root, CheckpointEvery: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Submit(JobRequest{Spec: "slow", Config: SpecParams{Nodes: 60, MaxTerm: 40}})
	if err != nil {
		t.Fatal(err)
	}
	waitRunningProgress(t, s, res.ID, 50)
	s.Drain()

	st, err := s.Status(res.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobInterrupted {
		t.Fatalf("state after drain = %q, want interrupted", st.State)
	}
	ckManifest := filepath.Join(root, res.ID, "ck", "MANIFEST.json")
	if _, err := os.Stat(ckManifest); err != nil {
		t.Fatalf("drain left no committed checkpoint: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, res.ID, "result.json")); err == nil {
		t.Fatal("interrupted job has a result.json; recovery would skip it")
	}
	info, err := tla.ReadCheckpointInfo(ckManifest[:len(ckManifest)-len("/MANIFEST.json")])
	if err != nil {
		t.Fatalf("reading drain checkpoint: %v", err)
	}
	if info.Distinct == 0 {
		t.Fatal("drain checkpoint holds no states")
	}

	// "Restart the process": a fresh supervisor over the same root.
	s2 := newTestSup(t, func(c *Config) { c.Root = root })
	final := waitJob(t, s2, res.ID, JobDone)
	assertOutcomeEqual(t, "resumed after drain", final.Outcome,
		oracleOutcome(t, "slow", SpecParams{Nodes: 60, MaxTerm: 40}))
	if final.Outcome.Distinct <= info.Distinct {
		t.Fatalf("resumed run re-counted only %d states over a checkpoint of %d", final.Outcome.Distinct, info.Distinct)
	}
}

// TestRecoveryReloadsCompletedJobs: finished jobs survive a restart — their
// results serve from disk and reseed the verdict cache.
func TestRecoveryReloadsCompletedJobs(t *testing.T) {
	root := t.TempDir()
	s, err := New(Config{Root: root, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Submit(JobRequest{Spec: "slow", Config: SpecParams{Nodes: 15}})
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, s, res.ID, JobDone)
	s.Drain()

	s2 := newTestSup(t, func(c *Config) { c.Root = root })
	reloaded, err := s2.Result(res.ID)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.State != JobDone {
		t.Fatalf("reloaded state = %q, want done", reloaded.State)
	}
	assertOutcomeEqual(t, "reloaded", reloaded.Outcome, final.Outcome)
	hit, err := s2.Submit(JobRequest{Spec: "slow", Config: SpecParams{Nodes: 15}})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("restart lost the verdict cache")
	}
}

// TestRecoveryDiscardsTornCheckpoint: a recovered job whose checkpoint is
// torn (kill -9 mid-commit in the worst case) restarts from scratch
// instead of failing — the checkpoint is disposable, the job is not.
func TestRecoveryDiscardsTornCheckpoint(t *testing.T) {
	root := t.TempDir()
	id := "j1234-0001"
	jobDir := filepath.Join(root, id)
	if err := os.MkdirAll(filepath.Join(jobDir, "ck"), 0o755); err != nil {
		t.Fatal(err)
	}
	req := JobRequest{Spec: "slow", Config: SpecParams{Nodes: 10}}
	if err := writeJSON(filepath.Join(jobDir, "job.json"),
		persistedJob{ID: id, Submitted: time.Now(), Request: req}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobDir, "ck", "MANIFEST.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestSup(t, func(c *Config) { c.Root = root })
	final := waitJob(t, s, id, JobDone)
	if final.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (discard consumed one, the fresh run is the second)", final.Attempts)
	}
	if final.Outcome.Distinct != ctrDistinct(10) {
		t.Fatalf("distinct = %d, want %d", final.Outcome.Distinct, ctrDistinct(10))
	}
}

// TestJobDeadline: a job over its wall-clock deadline fails with a
// deadline error rather than running forever or being retried.
func TestJobDeadline(t *testing.T) {
	s := newTestSup(t, nil)
	res, err := s.Submit(JobRequest{Spec: "slow", Config: SpecParams{Nodes: 200, MaxTerm: 200},
		Options: JobOptions{DeadlineSeconds: 1}})
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, s, res.ID, JobFailed)
	if !strings.Contains(final.Error, "deadline") {
		t.Fatalf("error = %q, want a deadline failure", final.Error)
	}
}

// TestProgressReporting: a running job exposes live engine progress with a
// states/sec derivative; terminal jobs do not.
func TestProgressReporting(t *testing.T) {
	s := newTestSup(t, nil)
	res, err := s.Submit(JobRequest{Spec: "slow", Config: SpecParams{Nodes: 60, MaxTerm: 40}})
	if err != nil {
		t.Fatal(err)
	}
	waitRunningProgress(t, s, res.ID, 100)
	st, err := s.Status(res.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Progress == nil || st.Progress.Depth == 0 || st.Progress.Transitions == 0 {
		t.Fatalf("progress = %+v, want live depth and transitions", st.Progress)
	}
	final := waitJob(t, s, res.ID, JobDone)
	if final.Progress != nil {
		t.Fatalf("terminal status still reports progress: %+v", final.Progress)
	}
}

// atomic64 is a tiny atomic accumulator for test hooks.
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
