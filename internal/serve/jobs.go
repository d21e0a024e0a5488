package serve

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/serve/api"
	"repro/internal/wire"
)

// Span names of the job lifecycle stages recorded on every executed job and
// fed into the taserved_job_*_seconds histograms.
const (
	spanQueueWait     = "queue_wait"     // submission → execute goroutine start
	spanAdmissionWait = "admission_wait" // blocked acquiring the CPU/memory grant
	spanCompute       = "compute"        // the job closure (sweep or proxy wait)
	spanReplicate     = "replicate"      // result-cache put + cluster announce
)

// This file is the execution half of the service: a global resource
// admission controller and a bounded job manager. Every analysis job declares
// how many CPU tokens it takes (its workers option) and how many bytes of
// zone memory it may grow to, and must hold that grant — CPU tokens plus a
// memory slice of the server's global budget — for the duration of its
// sweep. k simultaneous analyses therefore never oversubscribe the host's
// cores or its RAM: running sweeps are capped by the token pool, resident
// zone memory by the byte pool, and excess jobs queue FIFO at admission
// instead of thrashing the scheduler. The memory grant doubles as
// the job's core.Options.MaxBytes, so a job that outgrows what it was
// admitted with fails alone (ErrMemoryBudget, partial stats) instead of
// OOM-killing the node and every queued job with it.

// Job states on the wire — aliases of the api contract.
const (
	StateQueued   = api.StateQueued
	StateRunning  = api.StateRunning
	StateDone     = api.StateDone
	StateFailed   = api.StateFailed
	StateCanceled = api.StateCanceled
)

// awaitAbortable blocks for a value on ready unless the job aborts first: its
// cancel channel fires or its deadline (when nonzero) passes. It is the one
// wait of every job stage that is not a sweep — queued for admission, a proxy
// waiting on its owner — and returns the core sentinels, so those aborts
// report exactly like sweep-time ones, with core's precedence: when the
// deadline passed too (both channels ready, select picked randomly), the more
// specific expiry wins so the wire state stays deterministic.
func awaitAbortable[T any](ready <-chan T, cancel <-chan struct{}, deadline time.Time) (v T, err error) {
	var expired <-chan time.Time
	if !deadline.IsZero() {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case v = <-ready:
		return v, nil
	case <-expired:
		return v, core.ErrDeadlineExceeded
	case <-cancel:
		if !deadline.IsZero() && time.Now().After(deadline) {
			return v, core.ErrDeadlineExceeded
		}
		return v, core.ErrCanceled
	}
}

// cpuTokens is the admission controller: a FIFO counting semaphore over the
// host's CPU budget and, when the server configures one, its memory budget.
// A waiter is granted atomically — all its tokens and all its bytes, or
// nothing — and waiters never overtake (head-of-line order), so a wide job
// cannot starve behind a stream of narrow ones.
type cpuTokens struct {
	mu         sync.Mutex
	total      int
	avail      int
	totalBytes int64 // 0 = memory unmetered
	availBytes int64
	waiters    *list.List // of *tokenWait
}

type tokenWait struct {
	n       int
	bytes   int64
	ready   chan struct{}
	granted bool
}

func newCPUTokens(total int, budgetBytes int64) *cpuTokens {
	if total < 1 {
		total = 1
	}
	if budgetBytes < 0 {
		budgetBytes = 0
	}
	return &cpuTokens{total: total, avail: total,
		totalBytes: budgetBytes, availBytes: budgetBytes, waiters: list.New()}
}

// fitsLocked reports whether a grant of (n, bytes) fits the free resources.
func (t *cpuTokens) fitsLocked(n int, bytes int64) bool {
	return t.avail >= n && (t.totalBytes == 0 || t.availBytes >= bytes)
}

// acquire blocks until the (n tokens, bytes) grant lands or the job aborts
// (awaitAbortable). n must already be clamped to [1, total] and bytes to
// [0, totalBytes].
func (t *cpuTokens) acquire(cancel <-chan struct{}, deadline time.Time, n int, bytes int64) error {
	t.mu.Lock()
	if t.waiters.Len() == 0 && t.fitsLocked(n, bytes) {
		t.avail -= n
		t.availBytes -= bytes
		t.mu.Unlock()
		return nil
	}
	w := &tokenWait{n: n, bytes: bytes, ready: make(chan struct{})}
	el := t.waiters.PushBack(w)
	t.mu.Unlock()

	_, aborted := awaitAbortable(w.ready, cancel, deadline)
	if aborted == nil {
		return nil
	}
	t.mu.Lock()
	if w.granted {
		// The grant raced the abort: keep it consistent by returning the
		// resources; the caller sees the abort.
		t.avail += n
		t.availBytes += bytes
		t.grantLocked()
	} else {
		t.waiters.Remove(el)
		t.grantLocked() // the removed waiter may have been blocking smaller ones
	}
	t.mu.Unlock()
	return aborted
}

// release returns a grant and wakes eligible waiters.
func (t *cpuTokens) release(n int, bytes int64) {
	t.mu.Lock()
	t.avail += n
	t.availBytes += bytes
	t.grantLocked()
	t.mu.Unlock()
}

// grantLocked grants waiters FIFO while resources last.
func (t *cpuTokens) grantLocked() {
	for t.waiters.Len() > 0 {
		w := t.waiters.Front().Value.(*tokenWait)
		if !t.fitsLocked(w.n, w.bytes) {
			return
		}
		t.avail -= w.n
		t.availBytes -= w.bytes
		w.granted = true
		close(w.ready)
		t.waiters.Remove(t.waiters.Front())
	}
}

// inUse reports tokens currently held.
func (t *cpuTokens) inUse() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - t.avail
}

// bytesInUse reports memory-budget bytes currently granted.
func (t *cpuTokens) bytesInUse() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totalBytes - t.availBytes
}

// waiting reports the admission queue depth: jobs blocked for a grant.
func (t *cpuTokens) waiting() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.waiters.Len()
}

// job is one submitted analysis. Its id IS the content key of the normalized
// submission (sha256 hex), which is what makes the job table double as the
// result cache: resubmitting identical work lands on the same entry, running
// or finished.
type job struct {
	id        string
	kind      string // "arch" | "ta"
	workers   int    // CPU tokens held while running
	memBytes  int64  // memory-budget bytes held while running (0 = unmetered)
	submitted time.Time
	deadline  time.Time // zero = unbounded
	mon       *core.Monitor

	cancelOnce sync.Once
	cancelCh   chan struct{}

	mu       sync.Mutex
	state    string
	errMsg   string
	started  time.Time
	finished time.Time
	result   []byte            // raw wire JSON, valid when state == done
	traces   map[string]string // captured witness traces, by requirement / query
	spans    []obs.Span        // lifecycle spans, appended as each stage ends
	done     chan struct{}     // closed on any terminal state
}

func newJob(id, kind string, workers int, memBytes int64, deadline time.Time) *job {
	j := &job{
		id: id, kind: kind, workers: workers, memBytes: memBytes,
		submitted: time.Now(), deadline: deadline,
		mon:      &core.Monitor{},
		cancelCh: make(chan struct{}),
		state:    StateQueued,
		done:     make(chan struct{}),
	}
	// Every served job records its sweep profile (phase spans + a sampled
	// series) for GET /v1/jobs/{id}/profile. A run's sample ring grows with
	// its sweep (64 B per sample, at most 32 KB) and is dropped once the
	// series is finalized, so a finished job keeps only that series; jobs
	// that never run a sweep (proxies, adopted results) pay nothing at all.
	j.mon.EnableProfile(core.ProfileConfig{})
	return j
}

// addSpan records one completed lifecycle stage.
func (j *job) addSpan(name string, start, end time.Time) {
	s := obs.NewSpan(name, start, end)
	j.mu.Lock()
	j.spans = append(j.spans, s)
	j.mu.Unlock()
}

// spanSnapshot copies the recorded lifecycle spans in recording order.
func (j *job) spanSnapshot() []obs.Span {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]obs.Span(nil), j.spans...)
}

// cancel requests cooperative cancellation; safe to call repeatedly and
// after completion (a terminal job just ignores the closed channel).
func (j *job) cancel() {
	j.cancelOnce.Do(func() { close(j.cancelCh) })
}

func (j *job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// finish moves the job to its terminal state, code being the failure class
// wire.CodeForError names for err: the canceled class ends the job canceled,
// every other named class (DeadlineExceeded, the budget failures) fails it
// under exactly that name, and unnamed errors fail it under their message.
// execute calls it holding the table's lock.
func (j *job) finish(result []byte, traces map[string]string, err error, code string) {
	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		j.result = result
		j.traces = traces
	case code == wire.CodeCanceled:
		j.state = StateCanceled
		j.errMsg = code
	case code != "":
		j.state = StateFailed
		j.errMsg = code
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	j.mu.Unlock()
	close(j.done)
}

// snapshot reads the job's current state fields consistently.
func (j *job) snapshot() (state, errMsg string, started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg, j.started, j.finished
}

// resultBytes reads a done job's stored wire bytes; they never change once
// the job is done.
func (j *job) resultBytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// terminal reports whether the job reached a final state.
func (j *job) terminal() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// jobManager bounds and executes jobs: at most maxActive jobs queued or
// running (excess submissions are rejected with errBusy), at most
// maxFinished terminal jobs retained as the result cache (evicted LRU).
type jobManager struct {
	tokens *cpuTokens

	// Two hooks observe every executed job's end (adopted cache hits excluded
	// — they were accounted and announced by the node that computed them),
	// both called outside m.mu. onOutcome gets the failure class just before
	// the job turns terminal: the server counts aborts from it, so whoever the
	// job's done channel wakes reads counters that already include it.
	// onFinish gets the terminal job: the server announces its completion to
	// the dispatch backend from it, off the path of anyone waiting on the job.
	onOutcome func(code string)
	onFinish  func(j *job)

	// onSpan observes every recorded lifecycle span — the server's histogram
	// feed. Called outside m.mu.
	onSpan func(name string, d time.Duration)

	mu          sync.Mutex
	jobs        map[string]*job
	finished    *list.List // of job ids, front = most recently finished/hit
	finIndex    map[string]*list.Element
	active      int
	maxActive   int
	maxFinished int
	closed      bool
	wg          sync.WaitGroup
}

var (
	errBusy         = errors.New("serve: job table full, try again later")
	errShuttingDown = errors.New("serve: server is shutting down")
)

func newJobManager(tokens *cpuTokens, maxActive, maxFinished int,
	onOutcome func(string), onFinish func(*job), onSpan func(string, time.Duration)) *jobManager {
	return &jobManager{
		tokens:      tokens,
		onOutcome:   onOutcome,
		onFinish:    onFinish,
		onSpan:      onSpan,
		jobs:        make(map[string]*job),
		finished:    list.New(),
		finIndex:    make(map[string]*list.Element),
		maxActive:   maxActive,
		maxFinished: maxFinished,
	}
}

// runFunc computes one job's result: the raw wire JSON plus any captured
// traces. It must honor the job's cancel channel, deadline, and monitor.
type runFunc func(j *job) ([]byte, map[string]string, error)

// submit returns the job for the given content key, creating and starting it
// when absent. An existing live or successfully-finished job is shared
// (created=false — the singleflight/result-cache path); a failed or canceled
// one is replaced by a fresh attempt.
func (m *jobManager) submit(id, kind string, workers int, memBytes int64, deadline time.Time, run runFunc) (*job, bool, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, false, errShuttingDown
	}
	if j := m.twinLocked(id); j != nil {
		m.mu.Unlock()
		return j, false, nil
	}
	if m.active >= m.maxActive {
		m.mu.Unlock()
		return nil, false, errBusy
	}
	j := newJob(id, kind, workers, memBytes, deadline)
	m.jobs[id] = j
	m.active++
	m.wg.Add(1)
	m.mu.Unlock()

	go m.execute(j, run)
	return j, true, nil
}

// execute is a job's goroutine, and its tail the single place a job turns
// terminal: whichever stage produced the outcome — the admission queue, the
// sweep, a proxy's wait — it is counted, finished and retained here, once.
// The job turns terminal under the table's lock, so its state, its done
// channel and the table's accounts (active, the retained-results LRU) move
// together: whoever done wakes — a status request parked on the job — finds
// the node's numbers already past this job, and a resubmission that sees the
// failed state finds the entry already retained to replace. The abort
// counters are updated just before, from wire.CodeForError; the job's
// announce (onFinish, the replicate span) comes after, off the waiters' path.
func (m *jobManager) execute(j *job, run runFunc) {
	defer m.wg.Done()
	result, traces, err := m.admitAndRun(j, run)
	code := wire.CodeForError(err)
	m.onOutcome(code)
	m.mu.Lock()
	m.active--
	j.finish(result, traces, err, code)
	m.retainLocked(j)
	m.mu.Unlock()
	m.onFinish(j)
}

func (m *jobManager) admitAndRun(j *job, run runFunc) ([]byte, map[string]string, error) {
	entered := time.Now()
	m.span(j, spanQueueWait, j.submitted, entered)
	// A proxy job (workers == 0) holds no grant: the compute — and its
	// admission — happens on the node that owns the content key; this
	// goroutine only waits for the relayed completion.
	if j.workers > 0 {
		err := m.tokens.acquire(j.cancelCh, j.deadline, j.workers, j.memBytes)
		m.span(j, spanAdmissionWait, entered, time.Now())
		if err != nil {
			return nil, nil, err
		}
		defer m.tokens.release(j.workers, j.memBytes)
	}
	j.setRunning()
	computeStart := time.Now()
	result, traces, err := runContained(j, run)
	m.span(j, spanCompute, computeStart, time.Now())
	return result, traces, err
}

// span records one lifecycle stage on the job and feeds the server's
// histogram hook.
func (m *jobManager) span(j *job, name string, start, end time.Time) {
	j.addSpan(name, start, end)
	m.onSpan(name, end.Sub(start))
}

// runContained executes the job closure with panic containment: a crash in
// one analysis — engine bug, malformed compiled model, injected fault —
// fails that job alone instead of killing the process and every queued job
// with it. The grant release, finish, and LRU insertion around it all run
// normally afterwards, so a panicked job leaks neither tokens nor bytes nor
// a table slot. (The exploration's own workers are additionally contained
// inside core; this recover catches everything outside them.)
func runContained(j *job, run runFunc) (result []byte, traces map[string]string, err error) {
	defer func() {
		if r := recover(); r != nil {
			result, traces = nil, nil
			err = fmt.Errorf("serve: job panicked: %v", r)
		}
	}()
	if faultinject.Enabled {
		if ferr := faultinject.Fire("serve/job"); ferr != nil {
			return nil, nil, ferr
		}
	}
	return run(j)
}

// twinLocked returns the live or successfully finished job under id,
// refreshed in the LRU, for a submission to share. A failed or canceled one
// is dropped instead — a fresh attempt (or an adopted result) replaces it —
// and nil is returned, as when there is none.
func (m *jobManager) twinLocked(id string) *job {
	j := m.jobs[id]
	if j == nil {
		return nil
	}
	if state, _, _, _ := j.snapshot(); state == StateFailed || state == StateCanceled {
		m.dropLocked(id)
		return nil
	}
	if el := m.finIndex[id]; el != nil {
		m.finished.MoveToFront(el)
	}
	return j
}

// retainLocked enters a terminal job at the front of the retained-results LRU
// and evicts beyond the bound.
func (m *jobManager) retainLocked(j *job) {
	m.finIndex[j.id] = m.finished.PushFront(j.id)
	for m.finished.Len() > m.maxFinished {
		m.dropLocked(m.finished.Back().Value.(string))
	}
}

func (m *jobManager) dropLocked(id string) {
	if el := m.finIndex[id]; el != nil {
		m.finished.Remove(el)
		delete(m.finIndex, id)
	}
	delete(m.jobs, id)
}

// adopt installs an already-completed result — a replicated-cache hit — as a
// done job, so status/result/trace serve it exactly like a locally computed
// one (no goroutine, no grant, Created=false). A live or successfully
// finished twin is joined instead, same as submit; a failed or canceled twin
// is replaced by the adopted result, same as submit's fresh attempt. Returns
// the job plus whether the cached event was installed (false = joined an
// existing entry), or nil when the server is shutting down.
func (m *jobManager) adopt(id string, ev api.CompletionEvent) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false
	}
	if j := m.twinLocked(id); j != nil {
		return j, false
	}
	j := newJob(id, ev.Kind, 0, 0, time.Time{})
	j.mu.Lock()
	j.state = StateDone
	j.started = j.submitted
	j.finished = time.Now()
	j.result = ev.Result
	j.traces = ev.Traces
	j.mu.Unlock()
	close(j.done)
	m.jobs[id] = j
	m.retainLocked(j)
	return j, true
}

// get looks a job up by id.
func (m *jobManager) get(id string) *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// storedFootprint sums the live explorations' actual passed-store footprint
// (core.Progress.StoredBytes) and the entry-lookup hit/miss totals
// (core.Progress.InternHits/InternMisses) across every non-terminal job. Terminal jobs are skipped — their
// stores are already unreachable and collected; counting them would report
// memory the process no longer holds. Snapshots are taken outside m.mu (a
// Monitor loads the run's counters) so a slow sample never blocks submission.
func (m *jobManager) storedFootprint() (bytes, hits, misses int64) {
	m.mu.Lock()
	live := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		live = append(live, j)
	}
	m.mu.Unlock()
	for _, j := range live {
		if j.terminal() {
			continue
		}
		p := j.mon.Snapshot()
		bytes += p.StoredBytes
		hits += p.InternHits
		misses += p.InternMisses
	}
	return bytes, hits, misses
}

// counts reports active (queued+running) and retained terminal jobs.
func (m *jobManager) counts() (active, retained int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active, m.finished.Len()
}

// close stops intake and cancels every live job.
func (m *jobManager) close() {
	m.mu.Lock()
	m.closed = true
	live := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		live = append(live, j)
	}
	m.mu.Unlock()
	for _, j := range live {
		j.cancel()
	}
}

// wait blocks until every job goroutine has drained or the timeout passes.
func (m *jobManager) wait(timeout time.Duration) error {
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		return errors.New("serve: jobs did not drain before the shutdown timeout")
	}
}
