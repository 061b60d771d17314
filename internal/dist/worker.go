package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/runio"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// MasterURL is the master's base URL (required).
	MasterURL string
	// Addr is the listen address for the task/run server
	// ("127.0.0.1:0" when empty). It must be reachable from the master
	// and from the other workers (shuffle reads).
	Addr string
	// Dir is where run files live; the worker creates a private
	// subdirectory per job under it ("" = the system temp dir) and
	// removes everything on graceful Stop.
	Dir string
	// Slots is the advertised concurrent task capacity (1 when < 1).
	Slots int
	// Log receives operational events as structured records. Nil falls
	// back to Obs.Logger(), which is slog.Default() when Obs is nil too.
	Log *slog.Logger
	// Obs, when non-nil, enables worker-side task spans and
	// shuffle-read tracing.
	Obs *obs.Observer
	// TaskStarted, when non-nil, runs at the top of every task attempt
	// — the chaos seam: tests and cmd/erworker use it to stall a
	// chosen phase or mark the moment a kill becomes interesting. The
	// context is the attempt's (cancelled when the master gives up or
	// dies mid-request).
	TaskStarted func(ctx context.Context, phase string, task, attempt int)
}

// Worker executes dispatched task attempts and serves its map runs.
// One Worker per process is the intended shape (cmd/erworker), but
// tests run several in one process.
type Worker struct {
	opts   WorkerOptions
	dir    string
	ownDir bool
	srv    *http.Server
	ln     net.Listener
	client *http.Client
	log    *slog.Logger
	obs    *obs.Observer
	// id is the master-assigned worker id of the current registration
	// (0 before the first one) — stamped on every worker-side span.
	id atomic.Int64

	mu        sync.Mutex
	jobs      map[string]workerJob // installed by /job, by JobRef.ID
	runs      map[string]string    // serving token → path
	jobRuns   map[string][]string  // JobRef.ID → tokens
	nextToken int64

	// fresh holds the server's connections that have not yet carried a
	// request (http.StateNew); see closeFresh.
	freshMu sync.Mutex
	fresh   map[net.Conn]struct{}

	ctx       context.Context
	cancel    context.CancelFunc
	serveDone chan struct{}
	loopDone  chan struct{}
	closeOnce sync.Once
}

// workerJob is one installed job: the runnable its spec built, and the
// builder name its spans are filed under.
type workerJob struct {
	name string
	rr   mapreduce.RemoteRunnable
}

// StartWorker launches a worker: it binds the task server, then keeps a
// registration with the master alive in the background (registering,
// heartbeating, and re-registering as needed) until Stop or Kill.
func StartWorker(opts WorkerOptions) (*Worker, error) {
	if opts.MasterURL == "" {
		return nil, fmt.Errorf("dist: worker: MasterURL is required")
	}
	if opts.Slots < 1 {
		opts.Slots = 1
	}
	w := &Worker{
		opts:      opts,
		jobs:      map[string]workerJob{},
		runs:      map[string]string{},
		jobRuns:   map[string][]string{},
		fresh:     map[net.Conn]struct{}{},
		serveDone: make(chan struct{}),
		loopDone:  make(chan struct{}),
	}
	w.log = opts.Log
	if w.log == nil {
		w.log = opts.Obs.Logger() // slog.Default() when Obs is nil too
	}
	w.obs = opts.Obs
	dir, err := os.MkdirTemp(opts.Dir, "erworker-*")
	if err != nil {
		return nil, fmt.Errorf("dist: worker: create run dir: %w", err)
	}
	w.dir = dir
	w.ownDir = true
	addr := opts.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("dist: worker listen %s: %w", addr, err)
	}
	w.ln = ln
	w.client = &http.Client{Transport: &http.Transport{}}
	// The worker lifecycle root: this context is the serve loop's
	// lifetime, cancelled by Close.
	w.ctx, w.cancel = context.WithCancel(context.Background())
	mux := http.NewServeMux()
	mux.HandleFunc(pathJob, w.handleJob)
	mux.HandleFunc(pathTask, w.handleTask)
	mux.HandleFunc(pathRun, w.handleRun)
	mux.HandleFunc(pathRelease, w.handleRelease)
	w.srv = &http.Server{Handler: mux, ReadHeaderTimeout: headerReadTimeout, ConnState: w.trackFresh}
	w.srv.RegisterOnShutdown(w.closeFresh)
	go func() {
		defer close(w.serveDone)
		w.srv.Serve(ln)
	}()
	go w.registerLoop()
	return w, nil
}

// URL returns the worker's base URL.
func (w *Worker) URL() string { return "http://" + w.ln.Addr().String() }

// Stop shuts the worker down gracefully: deregistration happens by
// lease expiry (the protocol has no unregister — death and shutdown
// look the same to the master), the server drains, and the run
// directory is removed.
func (w *Worker) Stop() {
	w.shutdown(true)
}

// Kill is the chaos shutdown: the listener and every open connection
// close immediately (in-flight task responses are cut mid-stream, like
// a SIGKILL) and the run directory is left behind, exactly as a dead
// process would leave it. Tests clean the directory themselves.
func (w *Worker) Kill() {
	w.shutdown(false)
}

func (w *Worker) shutdown(graceful bool) {
	w.closeOnce.Do(func() {
		w.cancel()
		<-w.loopDone
		if graceful {
			// The graceful-shutdown timeout deliberately outlives the
			// cancelled worker lifecycle context.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			w.srv.Shutdown(ctx)
			cancel()
			w.srv.Close()
		} else {
			w.srv.Close()
		}
		<-w.serveDone
		w.client.CloseIdleConnections()
		if graceful && w.ownDir {
			os.RemoveAll(w.dir)
		}
	})
}

// trackFresh is the server's ConnState hook: it keeps w.fresh, the
// connections that have not yet carried a request.
func (w *Worker) trackFresh(c net.Conn, state http.ConnState) {
	w.freshMu.Lock()
	if state == http.StateNew {
		w.fresh[c] = struct{}{}
	} else {
		delete(w.fresh, c)
	}
	w.freshMu.Unlock()
}

// closeFresh runs when Stop's Shutdown has closed the listener: it
// closes the connections that never carried a request. Shutdown waits
// for every connection to go idle, and it counts a new one as active
// until it is 5 s old (golang/go#22682), so a connection a peer's
// http.Transport dialed but never used would hold Stop for 5 s.
func (w *Worker) closeFresh() {
	w.freshMu.Lock()
	defer w.freshMu.Unlock()
	for c := range w.fresh {
		c.Close()
	}
}

// Dir returns the worker's run directory (left behind by Kill).
func (w *Worker) Dir() string { return w.dir }

// registerLoop keeps the worker leased: register, heartbeat at the
// assigned interval, re-register when the master forgot us (restart,
// expiry), retry with backoff while the master is unreachable.
func (w *Worker) registerLoop() {
	defer close(w.loopDone)
	const retryDelay = 200 * time.Millisecond
	for w.ctx.Err() == nil {
		reg, err := w.register()
		if err != nil {
			w.log.Warn("dist worker: register failed (will retry)",
				"master", w.opts.MasterURL, "err", err)
			if !sleepCtx(w.ctx, retryDelay) {
				return
			}
			continue
		}
		w.id.Store(reg.WorkerID)
		w.log.Info("dist worker: registered",
			"worker", reg.WorkerID, "master", w.opts.MasterURL, "url", w.URL())
		interval := time.Duration(reg.HeartbeatMillis) * time.Millisecond
		if interval <= 0 {
			interval = DefaultHeartbeatInterval
		}
		t := time.NewTicker(interval)
		for ok := true; ok; {
			select {
			case <-w.ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
			hb, err := w.heartbeat(reg.WorkerID)
			switch {
			case err != nil:
				w.log.Warn("dist worker: heartbeat failed (re-registering)",
					"worker", reg.WorkerID, "err", err)
				ok = false
			case !hb.OK:
				w.log.Warn("dist worker: lease lost (re-registering)",
					"worker", reg.WorkerID)
				ok = false
			}
		}
		t.Stop()
	}
}

func (w *Worker) register() (*RegisterResponse, error) {
	body, _ := json.Marshal(RegisterRequest{URL: w.URL(), Slots: w.opts.Slots})
	var resp RegisterResponse
	if err := w.postJSON(w.opts.MasterURL+pathRegister, body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (w *Worker) heartbeat(id int64) (*HeartbeatResponse, error) {
	body, _ := json.Marshal(HeartbeatRequest{WorkerID: id})
	var resp HeartbeatResponse
	if err := w.postJSON(w.opts.MasterURL+pathHeartbeat, body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (w *Worker) postJSON(url string, body []byte, out any) error {
	ctx, cancel := context.WithTimeout(w.ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: http %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// handleJob installs a job: the frame's header names the builder and
// the job's id, its payload is the spec. The runnable is built here,
// once, so a spec the builder rejects fails the install — fatally —
// and not the first task.
func (w *Worker) handleJob(rw http.ResponseWriter, r *http.Request) {
	var ref JobRef
	spec, err := readFrame(http.MaxBytesReader(rw, r.Body, maxFrameBody), r.ContentLength, &ref)
	if err != nil {
		refuseFrame(rw, err)
		return
	}
	build, ok := lookupJob(ref.Name)
	if !ok {
		w.taskError(rw, mapreduce.Fatal(fmt.Errorf("dist: worker: no job builder registered for %q (is the package imported?)", ref.Name)))
		return
	}
	rr, err := build(spec)
	if err != nil {
		w.taskError(rw, mapreduce.Fatal(fmt.Errorf("dist: worker: build job %q: %w", ref.Name, err)))
		return
	}
	w.mu.Lock()
	w.jobs[ref.ID] = workerJob{name: ref.Name, rr: rr}
	w.mu.Unlock()
	rw.WriteHeader(http.StatusOK)
}

// refuseFrame answers a request whose body is not a frame this build
// reads: 413 when it ran past maxFrameBody, 400 otherwise.
func refuseFrame(rw http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(rw, err.Error(), status)
}

// handleTask executes one dispatched attempt. The request context is
// the attempt's lifeline: net/http cancels it when the master hangs up
// (attempt timed out or cancelled, lease revoked, master dead), which stops the
// typed attempt at its usual cancellation points.
func (w *Worker) handleTask(rw http.ResponseWriter, r *http.Request) {
	var req TaskRequest
	input, err := readFrame(http.MaxBytesReader(rw, r.Body, maxFrameBody), r.ContentLength, &req)
	if err != nil {
		refuseFrame(rw, err)
		return
	}
	w.mu.Lock()
	job, ok := w.jobs[req.JobID]
	w.mu.Unlock()
	if !ok {
		http.Error(rw, "unknown job "+req.JobID, statusUnknownJob)
		return
	}
	// Worker-side task span: the worker's own timeline of dispatched
	// attempts (its engine-side obs stays nil — master-side supervision
	// already traces attempts; this is the remote half of the picture).
	w.recordTask(obs.EvBegin, job.name, &req)
	defer w.recordTask(obs.EvEnd, job.name, &req)
	ctx := r.Context()
	if w.opts.TaskStarted != nil {
		w.opts.TaskStarted(ctx, req.Phase, req.Task, req.Attempt)
	}
	switch req.Phase {
	case "map":
		w.execMap(ctx, rw, job.rr, &req, input)
	case "reduce":
		w.execReduce(ctx, rw, job, &req)
	default:
		w.taskError(rw, mapreduce.Fatal(fmt.Errorf("dist: worker: unknown phase %q", req.Phase)))
	}
}

func (w *Worker) recordTask(typ obs.EventType, jobName string, req *TaskRequest) {
	o := w.obs
	if o == nil {
		return
	}
	phase := obs.PhaseMap
	if req.Phase == "reduce" {
		phase = obs.PhaseReduce
	}
	o.Tracer.Record(obs.Event{
		Type: typ, Kind: obs.KTask, Phase: phase,
		Job:  o.Tracer.InternJob(jobName),
		Task: int32(req.Task), Attempt: int32(req.Attempt),
		Worker: int32(w.id.Load()),
	})
}

func (w *Worker) execMap(ctx context.Context, rw http.ResponseWriter, rr mapreduce.RemoteRunnable, req *TaskRequest, input []byte) {
	jobDir := filepath.Join(w.dir, req.JobID)
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		w.taskError(rw, err)
		return
	}
	runPath := filepath.Join(jobDir, fmt.Sprintf("m%04d-a%03d.run", req.Task, req.Attempt))
	// A retried dispatch of the same attempt (master resend after a cut
	// response) may find the file already there; recreate it.
	os.Remove(runPath)
	res, err := rr.ExecRemoteMap(ctx, req.M, req.Task, req.Attempt, input, req.Records, runPath)
	if err != nil {
		w.taskError(rw, err)
		return
	}
	token := w.registerRun(req.JobID, runPath)
	w.respond(rw, &TaskResponse{Metrics: res.Metrics, RunURL: w.URL() + pathRun + token}, nil)
}

func (w *Worker) execReduce(ctx context.Context, rw http.ResponseWriter, job workerJob, req *TaskRequest) {
	srcs := make([]mapreduce.SegmentSource, len(req.Sources))
	for i, ref := range req.Sources {
		ra := &httpReaderAt{client: w.client, ctx: ctx, urls: ref.URLs}
		if o := w.obs; o != nil {
			// Shuffle fetches trace under the reduce task's lane: one
			// span per range read, Arg = bytes fetched.
			ra.obs = o
			ra.job = o.Tracer.InternJob(job.name)
			ra.task = int32(req.Task)
			ra.attempt = int32(req.Attempt)
			ra.worker = int32(w.id.Load())
		}
		srcs[i] = mapreduce.SegmentSource{
			R:    ra,
			Seg:  segmentOf(ref),
			Path: fmt.Sprintf("map task %d run (%v)", ref.MapTask, ref.URLs),
		}
	}
	res, err := job.rr.ExecRemoteReduce(ctx, req.M, req.Task, req.Attempt, srcs)
	if err != nil {
		w.taskError(rw, err)
		return
	}
	w.respond(rw, &TaskResponse{Metrics: res.Metrics, Records: res.OutputCount}, res.Output)
}

// respond writes a completed attempt's response frame. A write error
// means the master hung up; it sees a failed dispatch and retries.
func (w *Worker) respond(rw http.ResponseWriter, resp *TaskResponse, payload []byte) {
	head, err := frameHead(resp, len(payload))
	if err != nil {
		w.taskError(rw, mapreduce.Fatal(err))
		return
	}
	rw.Header().Set("Content-Type", frameContentType)
	rw.Header().Set("Content-Length", strconv.Itoa(len(head)+len(payload)))
	writeFrame(rw, head, payload)
}

func (w *Worker) taskError(rw http.ResponseWriter, err error) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(http.StatusInternalServerError)
	json.NewEncoder(rw).Encode(newErrorResponse(err))
}

func (w *Worker) registerRun(jobID, path string) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.nextToken++
	token := strconv.FormatInt(w.nextToken, 10)
	w.runs[token] = path
	w.jobRuns[jobID] = append(w.jobRuns[jobID], token)
	return token
}

// handleRun serves a map run file to reducers (and to the master's
// replication download). Only registered tokens resolve — the URL space
// carries no paths.
func (w *Worker) handleRun(rw http.ResponseWriter, r *http.Request) {
	token := r.URL.Path[len(pathRun):]
	w.mu.Lock()
	path, ok := w.runs[token]
	w.mu.Unlock()
	if !ok {
		http.NotFound(rw, r)
		return
	}
	http.ServeFile(rw, r, path)
}

// handleRelease drops one job's cached runnable and run files.
func (w *Worker) handleRelease(rw http.ResponseWriter, r *http.Request) {
	var req struct {
		JobID string `json:"job_id"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxControlBody)).Decode(&req); err != nil {
		http.Error(rw, "bad release request", http.StatusBadRequest)
		return
	}
	w.mu.Lock()
	delete(w.jobs, req.JobID)
	for _, token := range w.jobRuns[req.JobID] {
		delete(w.runs, token)
	}
	delete(w.jobRuns, req.JobID)
	w.mu.Unlock()
	os.RemoveAll(filepath.Join(w.dir, req.JobID))
	rw.WriteHeader(http.StatusOK)
}

func segmentOf(ref SegmentRef) runio.Segment {
	return runio.Segment{Off: ref.Off, Len: ref.Len, Records: ref.Records}
}

// sleepCtx sleeps for d, returning false if ctx is done first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
