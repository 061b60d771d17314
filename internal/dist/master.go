package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/runio"
)

// Default lease parameters. A worker heartbeats every interval; the
// master declares it dead when no heartbeat arrives for a full TTL and
// reassigns its uncommitted attempts. The TTL is a small multiple of
// the interval so one dropped beat never kills a healthy worker.
const (
	DefaultHeartbeatInterval = 250 * time.Millisecond
	defaultLeaseMultiple     = 4
)

// MasterOptions configures a Master.
type MasterOptions struct {
	// Addr is the listen address ("127.0.0.1:0" when empty).
	Addr string
	// HeartbeatInterval is the lease-renewal period workers are
	// assigned at registration (DefaultHeartbeatInterval when 0).
	HeartbeatInterval time.Duration
	// LeaseTTL is how long a lease survives without renewal
	// (defaultLeaseMultiple × HeartbeatInterval when 0).
	LeaseTTL time.Duration
	// Log receives operational events (registrations, expiries,
	// degradations) as structured records. Nil falls back to
	// Obs.Logger(), which is slog.Default() when Obs is nil too.
	Log *slog.Logger
	// Obs, when non-nil, enables tracing (dispatch spans per worker,
	// death/reassignment instants), dist.master.* metrics, and the
	// /debug/vars introspection endpoint on the control-plane mux.
	Obs *obs.Observer
	// PProf opts the control-plane mux into net/http/pprof handlers.
	PProf bool
}

// workerState is the master's view of one registered worker.
type workerState struct {
	id       int64
	url      string
	slots    int
	inflight int
	lastBeat time.Time
	// ctx is cancelled when the master declares the worker dead, which
	// aborts every dispatch in flight to it.
	ctx    context.Context
	cancel context.CancelFunc
}

// Master is the distributed runtime's coordinator: it tracks worker
// leases, dispatches task attempts (through per-job Sessions that plug
// into the engine as mapreduce.RemoteDispatcher), and serves its local
// run replicas to reducers so committed map output survives the death
// of the worker that produced it.
type Master struct {
	opts   MasterOptions
	srv    *http.Server
	ln     net.Listener
	client *http.Client
	log    *slog.Logger
	obs    *obs.Observer
	met    masterMetrics

	mu      sync.Mutex
	closed  bool
	nextID  int64
	workers map[int64]*workerState
	// deaths is the reassignment history served by /status: the most
	// recent worker deaths, oldest first, capped at deathHistoryCap.
	deaths []deathRecord
	// changed is closed and replaced whenever worker availability
	// changes (register, death, slot release) — a broadcast that wakes
	// every acquire/AwaitWorkers waiter to re-check.
	changed chan struct{}
	// replicas maps serving tokens to master-local replica paths.
	replicas  map[string]string
	nextToken int64

	serveDone chan struct{}
	monStop   chan struct{}
	monDone   chan struct{}
}

// masterMetrics caches the master's dist.master.* registry handles so
// hot paths never do a name lookup. Every handle is nil when the master
// has no Observer; the obs metric methods are nil-safe, so call sites
// stay unconditional.
type masterMetrics struct {
	workersLive    *obs.Gauge     // dist.master.workers_live
	dispatches     *obs.Counter   // dist.master.dispatch_total
	dispatchErrors *obs.Counter   // dist.master.dispatch_errors_total
	dispatchInfl   *obs.Gauge     // dist.master.dispatch_inflight
	acquireWaiting *obs.Gauge     // dist.master.acquire_waiting
	workerDeaths   *obs.Counter   // dist.master.worker_deaths_total
	reassigned     *obs.Counter   // dist.master.reassigned_attempts_total
	leaseAgeNS     *obs.Histogram // dist.master.lease_age_ns
}

func newMasterMetrics(o *obs.Observer) masterMetrics {
	if o == nil {
		return masterMetrics{}
	}
	r := o.Reg
	return masterMetrics{
		workersLive:    r.Gauge("dist.master.workers_live"),
		dispatches:     r.Counter("dist.master.dispatch_total"),
		dispatchErrors: r.Counter("dist.master.dispatch_errors_total"),
		dispatchInfl:   r.Gauge("dist.master.dispatch_inflight"),
		acquireWaiting: r.Gauge("dist.master.acquire_waiting"),
		workerDeaths:   r.Counter("dist.master.worker_deaths_total"),
		reassigned:     r.Counter("dist.master.reassigned_attempts_total"),
		leaseAgeNS:     r.Histogram("dist.master.lease_age_ns"),
	}
}

// deathRecord is one entry in the reassignment history: which worker
// died, why, and how many attempts were in flight to it (each of those
// is cancelled and reassigned by the supervisor's retry loop).
type deathRecord struct {
	WorkerID        int64     `json:"worker_id"`
	URL             string    `json:"url"`
	Why             string    `json:"why"`
	InflightAtDeath int       `json:"inflight_at_death"`
	At              time.Time `json:"at"`
}

const deathHistoryCap = 64

// NewMaster creates an unstarted Master.
func NewMaster(opts MasterOptions) *Master {
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = defaultLeaseMultiple * opts.HeartbeatInterval
	}
	m := &Master{
		opts:      opts,
		workers:   map[int64]*workerState{},
		changed:   make(chan struct{}),
		replicas:  map[string]string{},
		serveDone: make(chan struct{}),
		monStop:   make(chan struct{}),
		monDone:   make(chan struct{}),
	}
	m.log = opts.Log
	if m.log == nil {
		m.log = opts.Obs.Logger() // slog.Default() when Obs is nil too
	}
	m.obs = opts.Obs
	m.met = newMasterMetrics(opts.Obs)
	m.client = &http.Client{Transport: &http.Transport{}}
	return m
}

// Start binds the listener and begins serving the control plane.
func (m *Master) Start() error {
	addr := m.opts.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("dist: master listen %s: %w", addr, err)
	}
	m.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc(pathRegister, m.handleRegister)
	mux.HandleFunc(pathHeartbeat, m.handleHeartbeat)
	mux.HandleFunc(pathReplica, m.handleReplica)
	// Introspection rides the control-plane mux: /status always (it
	// needs no Observer), /debug/vars and opt-in pprof when observed.
	if m.obs != nil {
		obs.Attach(mux, m.obs, m.statusSnapshot, m.opts.PProf)
	} else {
		mux.Handle(pathStatus, obs.StatusHandler(m.statusSnapshot))
	}
	m.srv = &http.Server{Handler: mux, ReadHeaderTimeout: headerReadTimeout}
	go func() {
		defer close(m.serveDone)
		m.srv.Serve(ln)
	}()
	go m.monitor()
	return nil
}

// URL returns the master's base URL (valid after Start).
func (m *Master) URL() string { return "http://" + m.ln.Addr().String() }

// Close shuts the control plane down: in-flight dispatches are
// aborted, workers are forgotten, and the HTTP server stops. Workers
// notice on their next heartbeat and keep retrying registration (they
// outlive masters by design); Close does not contact them.
func (m *Master) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	for _, w := range m.workers {
		w.cancel()
	}
	m.workers = map[int64]*workerState{}
	m.replicas = map[string]string{}
	m.broadcastLocked()
	m.mu.Unlock()

	close(m.monStop)
	<-m.monDone
	m.srv.Close()
	<-m.serveDone
	m.client.CloseIdleConnections()
}

// AwaitWorkers blocks until at least n workers hold live leases.
func (m *Master) AwaitWorkers(ctx context.Context, n int) error {
	for {
		m.mu.Lock()
		live := len(m.workers)
		ch := m.changed
		closed := m.closed
		m.mu.Unlock()
		if live >= n {
			return nil
		}
		if closed {
			return errors.New("dist: master closed")
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("dist: waiting for %d workers (have %d): %w", n, live, ctx.Err())
		case <-ch:
		}
	}
}

// Workers reports the number of live leases.
func (m *Master) Workers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.workers)
}

// broadcastLocked wakes every waiter; callers hold m.mu.
func (m *Master) broadcastLocked() {
	close(m.changed)
	m.changed = make(chan struct{})
}

func (m *Master) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxControlBody)).Decode(&req); err != nil || req.URL == "" {
		http.Error(w, "bad register request", http.StatusBadRequest)
		return
	}
	if req.Slots < 1 {
		req.Slots = 1
	}
	// The per-worker lease root: it must outlive any single dispatch
	// request, and is cancelled on worker death.
	ctx, cancel := context.WithCancel(context.Background())
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel()
		http.Error(w, "master closed", http.StatusServiceUnavailable)
		return
	}
	m.nextID++
	ws := &workerState{
		id:       m.nextID,
		url:      strings.TrimSuffix(req.URL, "/"),
		slots:    req.Slots,
		lastBeat: time.Now(),
		ctx:      ctx,
		cancel:   cancel,
	}
	m.workers[ws.id] = ws
	m.broadcastLocked()
	n := len(m.workers)
	m.mu.Unlock()
	m.met.workersLive.Set(int64(n))
	m.log.Info("dist master: worker registered",
		"worker", ws.id, "url", ws.url, "slots", ws.slots, "live", n)
	writeJSON(w, RegisterResponse{
		WorkerID:        ws.id,
		HeartbeatMillis: m.opts.HeartbeatInterval.Milliseconds(),
		LeaseTTLMillis:  m.opts.LeaseTTL.Milliseconds(),
	})
}

func (m *Master) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxControlBody)).Decode(&req); err != nil {
		http.Error(w, "bad heartbeat request", http.StatusBadRequest)
		return
	}
	m.mu.Lock()
	ws, ok := m.workers[req.WorkerID]
	if ok {
		ws.lastBeat = time.Now()
	}
	m.mu.Unlock()
	writeJSON(w, HeartbeatResponse{OK: ok})
}

func (m *Master) handleReplica(w http.ResponseWriter, r *http.Request) {
	token := strings.TrimPrefix(r.URL.Path, pathReplica)
	m.mu.Lock()
	path, ok := m.replicas[token]
	m.mu.Unlock()
	if !ok {
		http.NotFound(w, r)
		return
	}
	// ServeFile handles Range requests — runio.SegmentReader range-reads
	// replica segments through this endpoint.
	http.ServeFile(w, r, path)
}

// monitor expires leases: a worker whose last heartbeat is older than
// the TTL is declared dead, which cancels its in-flight dispatches so
// the supervisor's retry loop reassigns those attempts elsewhere.
func (m *Master) monitor() {
	defer close(m.monDone)
	t := time.NewTicker(m.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-m.monStop:
			return
		case <-t.C:
		}
		now := time.Now()
		m.mu.Lock()
		var dead []*workerState
		for _, ws := range m.workers {
			// Lease age of every live worker, sampled once per tick —
			// the /debug/vars view of heartbeat health.
			m.met.leaseAgeNS.Observe(now.Sub(ws.lastBeat).Nanoseconds())
			if now.Sub(ws.lastBeat) > m.opts.LeaseTTL {
				dead = append(dead, ws)
			}
		}
		for _, ws := range dead {
			m.markDeadLocked(ws, "lease expired")
		}
		m.mu.Unlock()
	}
}

// markDeadLocked revokes a worker's lease: cancel its dispatches, drop
// it from the pool, wake waiters. Callers hold m.mu.
func (m *Master) markDeadLocked(ws *workerState, why string) {
	if _, ok := m.workers[ws.id]; !ok {
		return // already dead
	}
	delete(m.workers, ws.id)
	ws.cancel()
	m.broadcastLocked()
	inflight := ws.inflight
	m.deaths = append(m.deaths, deathRecord{
		WorkerID:        ws.id,
		URL:             ws.url,
		Why:             why,
		InflightAtDeath: inflight,
		At:              time.Now(),
	})
	if len(m.deaths) > deathHistoryCap {
		m.deaths = m.deaths[len(m.deaths)-deathHistoryCap:]
	}
	m.met.workersLive.Set(int64(len(m.workers)))
	m.met.workerDeaths.Inc()
	m.met.reassigned.Add(int64(inflight))
	if o := m.obs; o != nil {
		o.Tracer.Record(obs.Event{Type: obs.EvInstant, Kind: obs.KWorkerDeath,
			Task: -1, Worker: int32(ws.id), Arg: int64(inflight)})
		if inflight > 0 {
			o.Tracer.Record(obs.Event{Type: obs.EvInstant, Kind: obs.KReassign,
				Task: -1, Worker: int32(ws.id), Arg: int64(inflight)})
		}
	}
	m.log.Warn("dist master: worker declared dead; reassigning its uncommitted tasks",
		"worker", ws.id, "url", ws.url, "why", why, "inflight", inflight)
}

// markDead is markDeadLocked for callers not holding m.mu.
func (m *Master) markDead(ws *workerState, why string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.markDeadLocked(ws, why)
}

// acquire reserves one task slot on the least-loaded live worker. It
// returns mapreduce.ErrNoWorkers when the pool is empty (the engine
// degrades to local execution) and blocks while workers exist but all
// slots are busy.
func (m *Master) acquire(ctx context.Context) (*workerState, func(), error) {
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return nil, nil, errors.New("dist: master closed")
		}
		if len(m.workers) == 0 {
			m.mu.Unlock()
			return nil, nil, mapreduce.ErrNoWorkers
		}
		var best *workerState
		for _, ws := range m.workers {
			if ws.inflight >= ws.slots {
				continue
			}
			// Least-loaded wins; worker id breaks ties so selection does
			// not depend on map iteration order.
			if best == nil || ws.inflight < best.inflight || (ws.inflight == best.inflight && ws.id < best.id) {
				best = ws
			}
		}
		if best != nil {
			best.inflight++
			m.mu.Unlock()
			var once sync.Once
			release := func() {
				once.Do(func() {
					m.mu.Lock()
					best.inflight--
					m.broadcastLocked()
					m.mu.Unlock()
				})
			}
			return best, release, nil
		}
		ch := m.changed
		m.mu.Unlock()
		// Workers exist but every slot is busy: this acquire queues.
		m.met.acquireWaiting.Add(1)
		select {
		case <-ctx.Done():
			m.met.acquireWaiting.Add(-1)
			return nil, nil, ctx.Err()
		case <-ch:
		}
		m.met.acquireWaiting.Add(-1)
	}
}

// statusSnapshot assembles the /status view: live workers with their
// load and lease age, plus the recent death/reassignment history.
func (m *Master) statusSnapshot() any {
	type workerStatus struct {
		WorkerID     int64  `json:"worker_id"`
		URL          string `json:"url"`
		Slots        int    `json:"slots"`
		Inflight     int    `json:"inflight"`
		LeaseAgeMill int64  `json:"lease_age_millis"`
	}
	now := time.Now()
	m.mu.Lock()
	ws := make([]workerStatus, 0, len(m.workers))
	for _, w := range m.workers {
		ws = append(ws, workerStatus{
			WorkerID:     w.id,
			URL:          w.url,
			Slots:        w.slots,
			Inflight:     w.inflight,
			LeaseAgeMill: now.Sub(w.lastBeat).Milliseconds(),
		})
	}
	deaths := append([]deathRecord(nil), m.deaths...)
	replicas := len(m.replicas)
	closed := m.closed
	m.mu.Unlock()
	sort.Slice(ws, func(i, j int) bool { return ws[i].WorkerID < ws[j].WorkerID })
	return map[string]any{
		"role":     "master",
		"closed":   closed,
		"workers":  ws,
		"deaths":   deaths,
		"replicas": replicas,
	}
}

// registerReplica exposes a master-local replica file over /replica/
// and returns its URL. Idempotence is the caller's concern (Session
// caches per path).
func (m *Master) registerReplica(path string) string {
	m.mu.Lock()
	m.nextToken++
	token := strconv.FormatInt(m.nextToken, 10)
	m.replicas[token] = path
	m.mu.Unlock()
	return m.URL() + pathReplica + token
}

func (m *Master) unregisterReplicas(urls []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, u := range urls {
		if i := strings.LastIndex(u, pathReplica); i >= 0 {
			delete(m.replicas, u[i+len(pathReplica):])
		}
	}
}

// Session binds one job to the master as the engine-facing dispatcher:
// set Engine.Remote to the returned session while running that job,
// and Close it afterwards. name must be a builder registered (via
// RegisterJob) in the worker binary; spec is the opaque job description
// the builder consumes.
func (m *Master) Session(name string, spec []byte) *Session {
	s := &Session{
		m:           m,
		ref:         NewJobRef(name, spec),
		spec:        spec,
		replicaURLs: map[string]string{},
		installs:    map[int64]*jobInstall{},
	}
	if o := m.obs; o != nil {
		s.jobID = o.Tracer.InternJob(name)
	}
	return s
}

// Session implements mapreduce.RemoteDispatcher for one job.
type Session struct {
	m    *Master
	ref  JobRef
	spec []byte
	// jobID is the interned trace name for dispatch spans (0 when the
	// master has no Observer).
	jobID uint32

	mu sync.Mutex
	// replicaURLs caches the /replica/ URL per master-local run path.
	replicaURLs map[string]string
	// installs records, per worker id, how often this session has sent
	// the worker its spec: once, unless the worker forgot it. A worker
	// that re-registers gets a new id and so a fresh entry.
	installs map[int64]*jobInstall
}

// jobInstall serializes one worker's spec sends: dispatches that find
// an install under way wait for it and do not send their own.
type jobInstall struct {
	mu sync.Mutex
	// sends counts completed sends.
	sends int
}

var _ mapreduce.RemoteDispatcher = (*Session)(nil)

// Close releases the session's replica registrations. Workers clean
// their per-job state when told to (Release) or when they exit.
func (s *Session) Close() {
	s.mu.Lock()
	urls := make([]string, 0, len(s.replicaURLs))
	for _, u := range s.replicaURLs {
		urls = append(urls, u)
	}
	s.replicaURLs = map[string]string{}
	s.mu.Unlock()
	s.m.unregisterReplicas(urls)
	s.release()
}

// release asks every live worker to drop the job's cached runnable and
// run files — best effort; a dead worker's files die with its dir.
func (s *Session) release() {
	s.m.mu.Lock()
	urls := make([]string, 0, len(s.m.workers))
	for _, ws := range s.m.workers {
		urls = append(urls, ws.url)
	}
	s.m.mu.Unlock()
	body, _ := json.Marshal(struct {
		JobID string `json:"job_id"`
	}{s.ref.ID})
	for _, u := range urls {
		// A best-effort release broadcast during job teardown: it runs
		// after the job context is done.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u+pathRelease, bytes.NewReader(body))
		if err == nil {
			if resp, err := s.m.client.Do(req); err == nil {
				drain(resp.Body)
			}
		}
		cancel()
	}
}

// RunMapAttempt dispatches one map attempt, then replicates the
// worker's run file to replicaPath and validates it structurally
// (runio.ReadInfo re-reads the trailer and segment index); the
// validated local Info — not the worker's claim — is what the engine
// commits. From commit on, the task's output survives the worker. A map
// response is a header only: one that carries records is from a build
// this one does not speak to, and fails the attempt with ErrFrame.
func (s *Session) RunMapAttempt(ctx context.Context, m, task, attempt int, input []byte, inputCount int, replicaPath string) (*mapreduce.RemoteMapResult, error) {
	var resp TaskResponse
	ws, payload, err := s.dispatch(ctx, &TaskRequest{
		JobID:   s.ref.ID,
		Phase:   "map",
		M:       m,
		Task:    task,
		Attempt: attempt,
		Records: inputCount,
	}, input, &resp)
	if err != nil {
		return nil, err
	}
	if len(payload) != 0 || resp.Records != 0 {
		s.m.markDead(ws, "map response carries a payload")
		return nil, fmt.Errorf("dist: worker %d: map task %d attempt %d: %w: response carries %d records in %d payload bytes, want a header only",
			ws.id, task, attempt, ErrFrame, resp.Records, len(payload))
	}
	if err := s.download(ctx, ws, resp.RunURL, replicaPath); err != nil {
		return nil, fmt.Errorf("replicate map task %d run: %w", task, err)
	}
	info, err := runio.ReadInfo(replicaPath)
	if err != nil {
		os.Remove(replicaPath)
		return nil, fmt.Errorf("validate map task %d replica: %w", task, err)
	}
	return &mapreduce.RemoteMapResult{Info: info, Origin: resp.RunURL, Metrics: resp.Metrics}, nil
}

// RunReduceAttempt dispatches one reduce attempt. Each map task's
// segment is offered to the worker with its replica set in preference
// order: the origin worker's run URL first, the master replica as
// fallback — a reduce outlives the death of any map task's worker.
func (s *Session) RunReduceAttempt(ctx context.Context, m, task, attempt int, runs []mapreduce.RemoteRun) (*mapreduce.RemoteReduceResult, error) {
	refs := make([]SegmentRef, 0, len(runs))
	for _, run := range runs {
		seg := run.Info.Segments[task]
		if seg.Records == 0 {
			continue
		}
		urls := make([]string, 0, 2)
		if run.Origin != "" {
			urls = append(urls, run.Origin)
		}
		urls = append(urls, s.replicaURL(run.Path))
		refs = append(refs, SegmentRef{
			MapTask: run.MapTask,
			URLs:    urls,
			Off:     seg.Off,
			Len:     seg.Len,
			Records: seg.Records,
		})
	}
	var resp TaskResponse
	_, output, err := s.dispatch(ctx, &TaskRequest{
		JobID:   s.ref.ID,
		Phase:   "reduce",
		M:       m,
		Task:    task,
		Attempt: attempt,
		Sources: refs,
	}, nil, &resp)
	if err != nil {
		return nil, err
	}
	return &mapreduce.RemoteReduceResult{
		Output:      output,
		OutputCount: resp.Records,
		Metrics:     resp.Metrics,
	}, nil
}

func (s *Session) replicaURL(path string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if u, ok := s.replicaURLs[path]; ok {
		return u
	}
	u := s.m.registerReplica(path)
	s.replicaURLs[path] = u
	return u
}

// dispatch sends one task attempt to an acquired worker and decodes the
// outcome: the response header into out, the response payload as the
// returned blob. Error taxonomy: transport failure or lease expiry
// mid-task marks the worker dead and fails the attempt (retryable — the
// supervisor reassigns); an ErrorResponse is the attempt's own failure
// with Fatal/Corrupt classification preserved, and says nothing about
// worker health.
func (s *Session) dispatch(ctx context.Context, treq *TaskRequest, payload []byte, out *TaskResponse) (*workerState, []byte, error) {
	ws, release, err := s.m.acquire(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer release()

	// The dispatch span carries Worker — the Chrome exporter turns that
	// into per-worker swimlanes, so a killed worker's attempts visibly
	// migrate to the survivors.
	m := s.m
	m.met.dispatches.Inc()
	m.met.dispatchInfl.Add(1)
	s.recordDispatch(obs.EvBegin, treq, ws, 0)
	blob, err := s.exchange(ctx, ws, treq, payload, out)
	var failed int64
	if err != nil {
		failed = 1
		m.met.dispatchErrors.Inc()
	}
	s.recordDispatch(obs.EvEnd, treq, ws, failed)
	m.met.dispatchInfl.Add(-1)
	if err != nil {
		return nil, nil, err
	}
	return ws, blob, nil
}

func (s *Session) recordDispatch(typ obs.EventType, treq *TaskRequest, ws *workerState, arg int64) {
	o := s.m.obs
	if o == nil {
		return
	}
	phase := obs.PhaseMap
	if treq.Phase == "reduce" {
		phase = obs.PhaseReduce
	}
	o.Tracer.Record(obs.Event{
		Type: typ, Kind: obs.KDispatch, Phase: phase, Job: s.jobID,
		Task: int32(treq.Task), Attempt: int32(treq.Attempt),
		Worker: int32(ws.id), Arg: arg,
	})
}

// errUnknownJob is a worker's statusUnknownJob answer.
var errUnknownJob = errors.New("worker does not hold the job")

// exchange runs one task attempt on one acquired worker: the spec
// first, if this session has not given it to this worker yet, then the
// task frame; dispatch wraps it with the span and counters. A worker
// that answers statusUnknownJob has lost its runnable (a /release from
// a session with the same spec, a restart behind the same lease): it is
// sent the spec again and the task once more.
func (s *Session) exchange(ctx context.Context, ws *workerState, treq *TaskRequest, payload []byte, out *TaskResponse) ([]byte, error) {
	// The dispatch context dies with the attempt or with the worker's
	// lease, whichever goes first — a hung worker cannot hang the task.
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(ws.ctx, cancel)
	defer stop()

	what := fmt.Sprintf("%s task %d attempt %d", treq.Phase, treq.Task, treq.Attempt)
	sends, err := s.install(ctx, dctx, ws, 0)
	if err != nil {
		return nil, err
	}
	blob, err := s.postTask(ctx, dctx, ws, what, treq, payload, out)
	if errors.Is(err, errUnknownJob) {
		if _, err := s.install(ctx, dctx, ws, sends); err != nil {
			return nil, err
		}
		blob, err = s.postTask(ctx, dctx, ws, what, treq, payload, out)
	}
	return blob, err
}

// install makes sure the worker has been sent the job's spec more than
// seen times (0 = at all) and reports how often it has been sent.
func (s *Session) install(ctx, dctx context.Context, ws *workerState, seen int) (int, error) {
	s.mu.Lock()
	in := s.installs[ws.id]
	if in == nil {
		in = &jobInstall{}
		s.installs[ws.id] = in
	}
	s.mu.Unlock()
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.sends > seen {
		return in.sends, nil
	}
	resp, err := s.post(ctx, dctx, ws, pathJob, "install job "+s.ref.Name, &s.ref, s.spec)
	if err != nil {
		return 0, err
	}
	drain(resp.Body)
	in.sends++
	return in.sends, nil
}

// postTask sends the task frame and reads the response frame.
func (s *Session) postTask(ctx, dctx context.Context, ws *workerState, what string, treq *TaskRequest, payload []byte, out *TaskResponse) ([]byte, error) {
	resp, err := s.post(ctx, dctx, ws, pathTask, what, treq, payload)
	if err != nil {
		return nil, err
	}
	defer drain(resp.Body)
	blob, err := readFrame(resp.Body, resp.ContentLength, out)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		s.m.markDead(ws, fmt.Sprintf("bad task response: %v", err))
		return nil, fmt.Errorf("dist: worker %d: %s: response: %w", ws.id, what, err)
	}
	return blob, nil
}

// post sends one frame to a worker endpoint and returns the worker's
// 200 response, body unread. Anything else is the classified error:
// the attempt's context error if it is done, a dead worker on transport
// failure, errUnknownJob, the worker's ErrorResponse, or the status and
// what the worker said.
func (s *Session) post(ctx, dctx context.Context, ws *workerState, path, what string, meta any, payload []byte) (*http.Response, error) {
	head, err := frameHead(meta, len(payload))
	if err != nil {
		return nil, mapreduce.Fatal(err)
	}
	// The payload goes out as it is — no copy into a joined buffer.
	body := func() io.Reader { return io.MultiReader(bytes.NewReader(head), bytes.NewReader(payload)) }
	req, err := http.NewRequestWithContext(dctx, http.MethodPost, ws.url+path, body())
	if err != nil {
		return nil, mapreduce.Fatal(err)
	}
	// What NewRequest works out by itself for a single bytes.Reader.
	req.ContentLength = int64(len(head) + len(payload))
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(body()), nil }
	req.Header.Set("Content-Type", frameContentType)
	resp, err := s.m.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		s.m.markDead(ws, fmt.Sprintf("dispatch failed: %v", err))
		return nil, fmt.Errorf("dist: worker %d: %s: %w", ws.id, what, err)
	}
	if resp.StatusCode == http.StatusOK {
		return resp, nil
	}
	defer drain(resp.Body)
	if resp.StatusCode == statusUnknownJob {
		return nil, fmt.Errorf("dist: worker %d: %s: %w", ws.id, what, errUnknownJob)
	}
	said, _ := io.ReadAll(io.LimitReader(resp.Body, maxControlBody))
	var er ErrorResponse
	if err := json.Unmarshal(said, &er); err == nil && er.Error != "" {
		return nil, fmt.Errorf("dist: worker %d: %s: %w", ws.id, what, er.toError())
	}
	return nil, fmt.Errorf("dist: worker %d: %s: http %s: %s", ws.id, what, resp.Status, bytes.TrimSpace(said))
}

// drain reads a response body to its end and closes it, so the
// connection goes back to the pool.
func drain(body io.ReadCloser) {
	io.Copy(io.Discard, body)
	body.Close()
}

// download fetches a worker's run file to a master-local replica.
func (s *Session) download(ctx context.Context, ws *workerState, url, path string) error {
	if url == "" {
		return errors.New("dist: map response carries no run URL")
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := s.m.client.Do(req)
	if err != nil {
		s.m.markDead(ws, fmt.Sprintf("run download failed: %v", err))
		return err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("download %s: http %s", url, resp.Status)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
