// Package serve is the experiment service: a long-running HTTP/JSON
// front end over the scenario grid that accepts, queues, deduplicates and
// executes experiment requests, and serves their rendered artifacts.
//
// A request is the same ScenarioSpec JSON list the `experiments grid
// -scenarios` flag reads. Submitting one yields a job whose identity IS
// the run store's SHA-256 spec hash — the service is a content-addressed
// result cache: submitting an identical spec list again returns the
// already-finished (or in-flight) job instead of recomputing, across
// restarts, because the cache is the store root directory itself.
//
// Execution is a bounded job queue feeding a fixed worker pool; each
// worker drives one grid at a time through sim.RunGridContext with the
// job's run store wired in via the durability hooks. Alternatively (or
// additionally) a fleet of external worker processes (internal/work,
// `experiments worker`) drains grids cooperatively: the coordinator
// partitions a job's grid into leasable shards, workers pull shard
// leases over HTTP, execute them against local shard stores, and upload
// their logs, which the coordinator folds back into the job's store
// under exact-agreement conflict checks (see lease.go). Everything
// durable lives in the store root:
//
//	root/
//	├── <spec-hash[:16]>/    one run store per submitted grid
//	│   ├── manifest.json    (written at submission — the durable queue)
//	│   ├── jobs.jsonl       (appended as the grid executes)
//	│   ├── lease.wal        (fleet lease journal, while a fleet drains it)
//	│   ├── summary.csv      (rendered on completion)
//	│   └── report.md        (rendered on completion)
//	└── queue.json           (pending order, written on graceful shutdown)
//
// Crash recovery is therefore discovery: on startup the service scans the
// root; complete stores re-register as cache hits, incomplete ones
// re-enqueue and resume mid-grid (completed jobs short-circuit through
// the store's log). queue.json only preserves submission order — losing
// it (a hard kill) loses no work.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"obm/internal/obs"
	"obm/internal/report"
	"obm/internal/sim"
	"obm/internal/wal"
)

// Options configures a Server.
type Options struct {
	// StoreRoot is the directory holding one run store per job (required).
	StoreRoot string
	// Workers is the number of grids executed concurrently by this
	// process's own pool (default 1). A negative value disables local
	// execution entirely: the server is then a pure coordinator and jobs
	// only progress when fleet workers lease their shards.
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs; a
	// submission beyond it is refused with 429 (default 16).
	QueueDepth int
	// GridWorkers sizes the sim worker pool inside each grid run
	// (default GOMAXPROCS).
	GridWorkers int
	// ChunkSize is the streaming chunk size per grid worker (0 = default).
	ChunkSize int
	// Parallel, when > 1, replays multi-plane jobs (scenario Shards > 1)
	// with that many goroutines each (sim.GridOptions.Parallel). Job
	// outcomes are byte-identical for every value, so it is safe to vary
	// per deployment without invalidating stores or caches.
	Parallel int
	// CurvePoints is the cost-curve checkpoint count recorded per job
	// (default 10; it is part of the spec hash, so changing it changes
	// every job identity).
	CurvePoints int
	// LeaseTTL is how long a fleet worker's shard lease stays valid
	// without a heartbeat before the shard is requeued for another
	// worker (default 30s).
	LeaseTTL time.Duration
	// ShardSize is the target number of grid jobs per leasable shard;
	// a job's grid is partitioned into ceil(total/ShardSize) modulo
	// shards (default 16).
	ShardSize int
	// NoLeaseWAL disables the per-job lease WAL. A coordinator crash then
	// loses lease bookkeeping (every outstanding lease is stranded until
	// the fleet re-claims the job) but never loses results — the store is
	// the durable truth either way. For debugging and comparison only.
	NoLeaseWAL bool
	// Logf, when non-nil, receives one line per job state change.
	Logf func(format string, args ...any)
	// Registry, when non-nil, is where the server registers its
	// obm_serve_* and obm_grid_* metrics (nil gets a private registry).
	// Either way the exposition is served at GET /metrics.
	Registry *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.Workers < 0 {
		o.Workers = 0 // coordinator-only: no local grid execution
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.ShardSize <= 0 {
		o.ShardSize = 16
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.CurvePoints == 0 {
		o.CurvePoints = 10
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// State is a job's lifecycle state.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// queueFile persists pending-job order across graceful restarts.
const queueFile = "queue.json"

// claim records which execution path owns a job's grid: the local worker
// pool runs whole grids; the fleet drains a grid shard by shard through
// leases. The two paths exclude each other per job — whichever claims a
// queued job first owns it to completion (or, for the fleet, until a
// coordinator restart resets in-memory lease state).
type claim string

const (
	claimNone  claim = ""
	claimLocal claim = "local"
	claimFleet claim = "fleet"
)

// job is one submitted grid: a run store plus in-memory execution state.
type job struct {
	id       string // the full spec hash — job identity == result identity
	dir      string
	total    int // full-grid job count, from the manifest
	manifest report.Manifest

	mu         sync.Mutex
	state      State
	claim      claim
	dequeued   bool // the queue-channel entry was consumed (or superseded by a fleet claim)
	done       int  // completed grid jobs (including previously persisted)
	errMsg     string
	createdAt  time.Time
	finishedAt time.Time
	cancel     context.CancelFunc // set while running locally
	dist       *distJob           // lease state, created on the first fleet lease
	wal        *wal.Log           // lease-state journal; nil until the first fleet lease, after an append failure, or with NoLeaseWAL
	hub        *hub

	// absorbMu serializes shard-log absorption into the job's store
	// (open → absorb → close must not interleave between two uploads).
	// Never acquired while holding mu.
	absorbMu sync.Mutex
}

// Status is the JSON shape of a job's state, returned by the status and
// list endpoints and carried by every SSE event.
type Status struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	// Claim says which execution path owns a running job: "local" (this
	// process's pool) or "fleet" (shard leases). Empty while queued.
	Claim      string `json:"claim,omitempty"`
	Error      string `json:"error,omitempty"`
	Cached     bool   `json:"cached,omitempty"`
	CreatedAt  string `json:"created_at,omitempty"`
	FinishedAt string `json:"finished_at,omitempty"`
}

func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Status{
		ID:    j.id,
		State: j.state,
		Done:  j.done,
		Total: j.total,
		Claim: string(j.claim),
		Error: j.errMsg,
	}
	if !j.createdAt.IsZero() {
		s.CreatedAt = j.createdAt.UTC().Format(time.RFC3339)
	}
	if !j.finishedAt.IsZero() {
		s.FinishedAt = j.finishedAt.UTC().Format(time.RFC3339)
	}
	return s
}

// events returns the job's current hub; a failed-and-resubmitted job
// swaps in a fresh hub, so reads go through the lock.
func (j *job) events() *hub {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.hub
}

// publish pushes the job's current status to its SSE subscribers.
func (j *job) publish() { j.events().publish(j.status()) }

// Server is the experiment service. Create with New, mount Handler on an
// http.Server, stop with Shutdown.
type Server struct {
	opt Options
	reg *obs.Registry
	met serverMetrics
	sim *sim.Metrics // obm_grid_* instruments for locally executed grids

	mu       sync.Mutex
	jobs     map[string]*job // by spec hash
	order    []string        // submission order, for the list endpoint
	queue    chan *job
	overflow []*job // jobs the channel had no room for (fleet claims leave ghost slots); workers refill from here
	pending  int    // queued-but-not-dequeued jobs; bounds new submissions
	closed   bool

	stop     chan struct{} // closed by Shutdown: workers stop dequeuing
	wg       sync.WaitGroup
	shutOnce sync.Once

	// crashHook, when non-nil, is invoked at every lease-WAL persistence
	// boundary (see crashPoint). Production servers never set it; the
	// fault-injection harness panics from it to simulate a coordinator
	// dying at exactly that boundary. Set before any request traffic.
	crashHook func(crashPoint)
}

// New builds the service and recovers the store root: finished stores
// become cache entries, interrupted ones are re-enqueued (in queue.json
// order where available) and will resume mid-grid. Workers start
// immediately.
func New(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	if opt.StoreRoot == "" {
		return nil, fmt.Errorf("serve: Options.StoreRoot is required")
	}
	if err := os.MkdirAll(opt.StoreRoot, 0o755); err != nil {
		return nil, err
	}
	reg := opt.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		opt:  opt,
		reg:  reg,
		met:  newServerMetrics(reg),
		sim:  sim.NewMetrics(reg),
		jobs: make(map[string]*job),
		stop: make(chan struct{}),
	}
	reg.Collect(s.collect)
	recovered := s.recover()
	// The queue must hold every recovered job plus QueueDepth new ones —
	// recovery must never be the thing that trips backpressure.
	s.queue = make(chan *job, opt.QueueDepth+len(recovered))
	for _, j := range recovered {
		s.pending++
		s.queue <- j
	}
	for w := 0; w < opt.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recover scans the store root and registers every existing store:
// complete ones as done (cache hits), incomplete ones as queued.
// queue.json, when present and readable, fixes the order of the queued
// ones; stores it does not mention (hard kill, manual drops) follow in
// directory order.
func (s *Server) recover() []*job {
	// Discover is best-effort: a corrupt store must not take the healthy
	// ones (and the whole service) down with it — log and skip.
	infos, err := report.Discover(s.opt.StoreRoot)
	if err != nil {
		s.opt.Logf("serve: store root has unreadable stores (skipped): %v", err)
	}
	byHash := make(map[string]report.StoreInfo, len(infos))
	for _, info := range infos {
		byHash[info.Manifest.SpecHash] = info
	}

	var order []string
	qPath := filepath.Join(s.opt.StoreRoot, queueFile)
	if blob, err := os.ReadFile(qPath); err == nil {
		if err := json.Unmarshal(blob, &order); err != nil {
			// queue.json is only an ordering hint (a crash can tear it);
			// the stores are the truth, so fall back to directory order.
			s.opt.Logf("serve: ignoring unreadable %s, re-enqueueing in directory order: %v", qPath, err)
			order = nil
		}
		os.Remove(qPath) // consumed; from here the stores are the truth
	}

	now := time.Now()
	seen := make(map[string]bool)
	var pendingHashes []string
	for _, h := range order {
		// Only incomplete stores re-enqueue; a store can be complete yet
		// listed in queue.json (shutdown landed between the grid's last
		// Persist and its return) — re-running it would flip a finished
		// job back to running in clients' eyes.
		if info, ok := byHash[h]; ok && !seen[h] && !info.Complete() {
			seen[h] = true
			pendingHashes = append(pendingHashes, h)
		}
	}
	for _, info := range infos { // directory order: deterministic
		h := info.Manifest.SpecHash
		if !info.Complete() && !seen[h] {
			seen[h] = true // two stores can share a hash (hand-placed shards)
			pendingHashes = append(pendingHashes, h)
		}
	}

	var recovered []*job
	for _, info := range infos {
		h := info.Manifest.SpecHash
		j := &job{
			id:        h,
			dir:       info.Dir,
			total:     info.Manifest.TotalJobs,
			manifest:  info.Manifest,
			done:      info.Recorded,
			createdAt: time.Now(),
			hub:       newHub(),
		}
		if info.Complete() {
			j.state = StateDone
			j.finishedAt = time.Now()
			j.publish()
			j.hub.close()
			// A complete store may predate rendering (killed between the
			// last append and Render); rendered artifacts are re-derivable,
			// so artifact handlers re-render on demand instead of blocking
			// startup here.
			// A lease WAL next to a finished store is a stale journal of
			// the run that completed it — never replay it.
			os.Remove(filepath.Join(info.Dir, leaseWALFile))
		} else {
			j.state = StateQueued
			// A lease WAL means a fleet was draining this job when the
			// previous coordinator died; restore the lease table so live
			// workers keep their shards (the job then skips the local
			// queue — the fleet owns it again).
			s.recoverDist(j, now)
		}
		s.jobs[h] = j
		s.order = append(s.order, h)
	}
	for _, h := range pendingHashes {
		j := s.jobs[h]
		if j.state != StateQueued {
			continue // recovered straight into a live fleet claim from its lease WAL
		}
		recovered = append(recovered, j)
		s.opt.Logf("serve: recovered job %.12s (%d/%d done)", h, j.done, j.total)
	}
	return recovered
}

// ErrQueueFull is returned by Submit when the pending queue is at
// capacity; the HTTP layer maps it to 429 Too Many Requests.
var ErrQueueFull = errors.New("serve: job queue is full")

// ErrClosed is returned by Submit after Shutdown has begun.
var ErrClosed = errors.New("serve: server is shutting down")

// ErrStorage marks server-side store failures (disk full, permissions),
// as opposed to invalid specs; the HTTP layer maps it to 500, not 400.
var ErrStorage = errors.New("serve: run-store storage error")

// Submit registers the grid described by specs and returns its job plus
// whether the result was already available (a cache hit: the identical
// spec list was run before, possibly in a previous process). A fresh
// submission creates the job's run store (manifest only) before
// enqueueing, so an accepted job survives any crash. Resubmitting a
// failed grid re-enqueues it — its store is intact, so the retry resumes
// past everything that succeeded before the failure.
func (s *Server) Submit(specs []sim.ScenarioSpec) (Status, error) {
	m, err := report.NewManifest("experiments serve", specs, s.opt.CurvePoints, report.Shard{})
	if err != nil {
		return Status{}, err
	}
	s.met.submissions.Inc()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Status{}, ErrClosed
	}
	if j, ok := s.jobs[m.SpecHash]; ok {
		st := j.status()
		if st.State != StateFailed {
			st.Cached = st.State == StateDone
			s.mu.Unlock()
			if st.Cached {
				s.met.cacheHits.Inc()
			}
			return st, nil
		}
		// Failed jobs must not poison their hash: re-enqueue (the store
		// keeps every job that succeeded, so the retry is a resume).
		if s.pending >= s.opt.QueueDepth {
			s.mu.Unlock()
			return Status{}, ErrQueueFull
		}
		j.mu.Lock()
		j.state = StateQueued
		j.claim = claimNone
		j.dequeued = false
		j.dist = nil // stale lease bookkeeping; a retry re-plans its shards
		j.walDrop()  // and journals from scratch
		j.errMsg = ""
		j.finishedAt = time.Time{}
		j.hub = newHub() // the failed run's hub is closed; subscribers need a live one
		j.mu.Unlock()
		s.pending++
		s.enqueueLocked(j)
		st = j.status()
		s.mu.Unlock()
		s.opt.Logf("serve: re-queued failed job %.12s", m.SpecHash)
		return st, nil
	}
	if s.pending >= s.opt.QueueDepth {
		s.mu.Unlock()
		return Status{}, ErrQueueFull
	}
	// Reserve the hash (so duplicates dedupe onto this job and the
	// pending bound holds), then do the store-creation disk I/O outside
	// the server lock — status/list/health requests must not stall
	// behind a slow filesystem.
	dir := report.DirForHash(s.opt.StoreRoot, m.SpecHash)
	j := &job{
		id:        m.SpecHash,
		dir:       dir,
		total:     m.TotalJobs,
		manifest:  m,
		state:     StateQueued,
		createdAt: time.Now(),
		hub:       newHub(),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.pending++
	s.mu.Unlock()

	store, err := report.Create(dir, m)
	if err == nil {
		err = store.Close()
	}
	s.mu.Lock()
	if err != nil {
		// Roll the reservation back; the hash stays submittable.
		delete(s.jobs, j.id)
		for i, id := range s.order {
			if id == j.id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.pending--
		s.mu.Unlock()
		return Status{}, fmt.Errorf("%w: creating run store: %v", ErrStorage, err)
	}
	s.enqueueLocked(j)
	s.mu.Unlock()
	s.opt.Logf("serve: queued job %.12s (%d grid jobs)", j.id, j.total)
	return j.status(), nil
}

// enqueueLocked hands j to the local pool without ever blocking (the
// caller holds s.mu, which every endpoint needs — a blocked send here
// would freeze the whole service). The channel can be full of ghost
// entries for fleet-claimed jobs, whose pending slots were released at
// claim time; jobs that do not fit are parked on the overflow list,
// which workers refill from after every dequeue. The fleet needs
// neither — it leases straight from the jobs map.
func (s *Server) enqueueLocked(j *job) {
	select {
	case s.queue <- j:
	default:
		s.overflow = append(s.overflow, j)
	}
}

// refill moves overflow jobs into the channel slots freed by dequeues.
func (s *Server) refill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.overflow) > 0 {
		select {
		case s.queue <- s.overflow[0]:
			s.overflow = s.overflow[1:]
		default:
			return
		}
	}
}

// Job returns the status of the job with the given id (the spec hash).
func (s *Server) Job(id string) (Status, bool) {
	j, ok := s.lookup(id)
	if !ok {
		return Status{}, false
	}
	return j.status(), true
}

// Jobs returns every known job's status in submission order.
func (s *Server) Jobs() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	return out
}

func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// worker executes queued jobs until the queue closes or Shutdown begins.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case j, ok := <-s.queue:
			if !ok {
				return
			}
			s.refill() // the dequeue freed a slot for parked overflow jobs
			if !s.claimLocal(j) {
				// The fleet claimed this job while it sat in the queue
				// (or it already finished): the channel entry is a ghost.
				continue
			}
			s.runJob(j)
		}
	}
}

// claimLocal marks the dequeued job as owned by the local pool. The
// pending count is released exactly once per enqueue — at local dequeue
// or at the first fleet lease, whichever came first.
func (s *Server) claimLocal(j *job) bool {
	s.mu.Lock()
	j.mu.Lock()
	if !j.dequeued {
		j.dequeued = true
		s.pending--
	}
	ok := j.claim == claimNone && j.state == StateQueued
	if ok {
		j.claim = claimLocal
	}
	j.mu.Unlock()
	s.mu.Unlock()
	return ok
}

// runJob drives one job's grid to completion (or cancellation/failure),
// resuming from whatever its store already holds.
func (s *Server) runJob(j *job) {
	if j.status().State == StateDone {
		// Defense in depth: a finished job must never regress to running
		// (e.g. a stale queue entry).
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	store, err := report.Open(j.dir)
	if err != nil {
		s.finishJob(j, fmt.Errorf("opening run store: %w", err))
		return
	}
	defer store.Close()

	pre := store.Len()
	j.mu.Lock()
	j.state = StateRunning
	j.done = pre
	j.cancel = cancel
	j.mu.Unlock()
	j.publish()
	s.opt.Logf("serve: running job %.12s (resuming at %d/%d)", j.id, pre, j.total)

	base := sim.GridOptions{
		Workers:   s.opt.GridWorkers,
		ChunkSize: s.opt.ChunkSize,
		Parallel:  s.opt.Parallel,
		Metrics:   s.sim,
		// sim reports every attempt (done counts failures and aborts
		// too); job progress counts persisted successes only, so status
		// never overstates what a resume would find in the store.
		Progress: func(done, total int, gj sim.GridJob, err error) {
			if err != nil {
				return
			}
			j.mu.Lock()
			j.done++
			j.mu.Unlock()
			j.publish()
		},
	}
	_, err = store.RunContext(ctx, base)
	if serr := store.Sync(); err == nil && serr != nil {
		err = serr
	}
	if err != nil && errors.Is(err, context.Canceled) {
		// Shutdown cancelled the grid: the store keeps every persisted
		// job, and the job goes back to queued so a restart resumes it.
		j.mu.Lock()
		j.state = StateQueued
		j.claim = claimNone
		j.cancel = nil
		j.mu.Unlock()
		j.publish()
		s.opt.Logf("serve: interrupted job %.12s at %d/%d (will resume)", j.id, j.done, j.total)
		return
	}
	if err == nil {
		_, _, err = store.Render()
	}
	s.finishJob(j, err)
}

// finishJob moves a job to its terminal state and closes its event hub.
// Finishing an already-done job is a no-op, so racing completion paths
// (an upload's terminal check vs. lease-time finalization) are benign.
func (s *Server) finishJob(j *job, err error) {
	j.mu.Lock()
	if j.state == StateDone {
		j.mu.Unlock()
		return
	}
	j.claim = claimNone
	j.cancel = nil
	j.walDrop() // terminal state: the journal must never be replayed
	j.finishedAt = time.Now()
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
	} else {
		j.state = StateDone
		j.done = j.total
	}
	h := j.hub
	j.mu.Unlock()
	h.publish(j.status())
	h.close()
	if err != nil {
		s.opt.Logf("serve: job %.12s failed: %v", j.id, err)
	} else {
		s.opt.Logf("serve: job %.12s done (%d grid jobs)", j.id, j.total)
	}
}

// openStore opens a job's run store read-only for the artifact endpoints.
// Rendered files may be missing on a store completed by a previous
// process that died before rendering — Render is idempotent, so artifact
// handlers re-render on demand.
func (s *Server) openStore(j *job) (*report.Store, error) {
	return report.Open(j.dir)
}

// Shutdown stops the service gracefully: submissions and new leases are
// refused, workers stop picking up queued jobs, and in-flight grids are
// drained — until ctx expires, at which point they are cancelled at the
// next chunk boundary (their stores stay partial-but-persisted). Event
// hubs of every non-terminal job are closed so SSE subscribers are
// released rather than left waiting on a process that will publish
// nothing more. Pending job order is written to queue.json so a restart
// resumes in submission order.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.shutOnce.Do(func() { close(s.stop) })

	// Drain: wait for in-flight jobs, or cancel them when ctx expires.
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			j.mu.Lock()
			if j.cancel != nil {
				j.cancel()
			}
			j.mu.Unlock()
		}
		s.mu.Unlock()
		<-drained
	}

	// The drain is over: every job that is not terminal — requeued by the
	// cancellation above, never started, or fleet-claimed — will make no
	// further progress in this process, so its hub closes now. Subscribers
	// get their channels closed (after the final snapshot) instead of
	// hanging on a hub nothing will ever publish to again; recovery in the
	// next process builds fresh hubs.
	s.mu.Lock()
	for _, j := range s.jobs {
		j.mu.Lock()
		h, terminal := j.hub, j.state == StateDone || j.state == StateFailed
		if j.wal != nil {
			// Keep the journal (the next process replays it and the fleet
			// carries on) but flush and release the handle.
			j.wal.Sync()
			j.wal.Close()
			j.wal = nil
		}
		j.mu.Unlock()
		if !terminal {
			h.close()
		}
	}
	s.mu.Unlock()

	// Persist pending order: queued jobs still in the channel plus any
	// interrupted in-flight ones (those resume first).
	var pending []string
	s.mu.Lock()
drain:
	for {
		select {
		case j := <-s.queue:
			pending = append(pending, j.id)
		default:
			break drain
		}
	}
	var interrupted []string
	for _, id := range s.order {
		j := s.jobs[id]
		st := j.status()
		if st.State == StateQueued {
			found := false
			for _, p := range pending {
				if p == id {
					found = true
					break
				}
			}
			if !found {
				interrupted = append(interrupted, id)
			}
		}
	}
	pending = append(interrupted, pending...)
	s.mu.Unlock()

	if len(pending) == 0 {
		return nil
	}
	blob, err := json.Marshal(pending)
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(s.opt.StoreRoot, queueFile), append(blob, '\n'))
}

// writeFileAtomic replaces path with data so that a crash at any point
// leaves either the old file or the new one, never a torn mix: it writes
// and fsyncs a temporary file beside path, renames it over path, then
// fsyncs the directory so the rename itself is durable.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
