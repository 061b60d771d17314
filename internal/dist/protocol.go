// Package dist is the distributed master/worker control plane: an HTTP
// protocol that dispatches the engine's task attempts to worker
// processes and ships map output between them as ERN1 runs.
//
// Layering: internal/mapreduce defines the process-agnostic seam
// (RemoteDispatcher on the master side, RemoteRunnable on the worker
// side); this package supplies the network between the two — worker
// registration, heartbeats with lease renewal, task dispatch,
// replica-backed run serving, and dead-worker detection. The executable
// entry points are Master (embedded by driver processes; see
// er.RunDistributedPipeline) and Worker (cmd/erworker).
//
// Wire conventions. The control plane (/register, /heartbeat, /release,
// /status) is small JSON. Everything that carries records or a job spec
// is a frame (frame.go): a 16-byte prefix with magic, version and two
// lengths, the message's metadata as a short JSON header, then the raw
// payload — a mapreduce record blob (EncodeRecords) or a spec — exactly
// as the sender encoded it, so float64 values travel as codec bytes and
// no record byte is ever escaped or scanned. A job's spec crosses to a
// worker once per session (/job); task requests name the job by id, and
// a worker that does not hold that id answers statusUnknownJob, on
// which the master sends the spec again, once. A map response is a
// header only (its output is the run the master then downloads); a
// reduce response's payload is the task's output. Task failures cross the
// wire as ErrorResponse with the engine's two orthogonal
// classifications preserved: Fatal (don't retry) and Corrupt
// (structural ERN1/blob damage, runio.ErrCorrupt).
//
// Bounds: servers give a peer headerReadTimeout to send its request
// header; control bodies stop at maxControlBody and frames at
// maxFrameBody (header ≤ maxFrameHeader, payload ≤ maxFramePayload); a
// frame whose magic, version or lengths are wrong is refused with a 4xx
// before anything is decoded.
package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/runio"
)

// Protocol endpoints. Master serves /register, /heartbeat, /replica/;
// workers serve /job, /task, /run/, /release.
const (
	pathRegister  = "/register"
	pathHeartbeat = "/heartbeat"
	pathReplica   = "/replica/"
	pathJob       = "/job"
	pathTask      = "/task"
	pathRun       = "/run/"
	pathRelease   = "/release"
)

const (
	// statusUnknownJob is a worker's answer to a task whose job id it
	// holds no runnable for: not a failure of the attempt, a request for
	// the spec.
	statusUnknownJob = http.StatusPreconditionFailed
	// headerReadTimeout is how long a peer may take over its request
	// header before the master's and the workers' servers drop it.
	headerReadTimeout = 10 * time.Second
	// maxControlBody bounds the JSON bodies of the control plane.
	maxControlBody = 64 << 10
)

// RegisterRequest announces a worker to the master.
type RegisterRequest struct {
	// URL is the worker's base URL (scheme://host:port), reachable from
	// the master and from other workers.
	URL string `json:"url"`
	// Slots is the worker's concurrent task capacity (≥1).
	Slots int `json:"slots"`
}

// RegisterResponse assigns the worker its identity and lease terms.
type RegisterResponse struct {
	WorkerID int64 `json:"worker_id"`
	// HeartbeatMillis is how often the worker must renew its lease.
	HeartbeatMillis int64 `json:"heartbeat_millis"`
	// LeaseTTLMillis is how long the lease survives without renewal
	// before the master declares the worker dead and reassigns its
	// uncommitted tasks.
	LeaseTTLMillis int64 `json:"lease_ttl_millis"`
}

// HeartbeatRequest renews a worker's lease.
type HeartbeatRequest struct {
	WorkerID int64 `json:"worker_id"`
}

// HeartbeatResponse acknowledges a renewal. Unknown workers (e.g. a
// worker expired and forgotten during a master restart or long pause)
// get OK=false and must re-register.
type HeartbeatResponse struct {
	OK bool `json:"ok"`
}

// JobRef identifies a job to a worker: the registered builder name and
// the content-derived ID that keys the worker's runnable cache. It is
// the header of the /job frame, whose payload is the opaque spec the
// builder turns into a RemoteRunnable.
type JobRef struct {
	Name string `json:"name"`
	ID   string `json:"id"`
}

// NewJobRef builds the JobRef of (name, spec): equal names and specs
// give equal IDs, anything else a different one.
func NewJobRef(name string, spec []byte) JobRef {
	h := sha256.New()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write(spec)
	return JobRef{Name: name, ID: hex.EncodeToString(h.Sum(nil)[:16])}
}

// SegmentRef locates one map task's partition segment for a reduce
// attempt: byte range within the run plus the URLs it can be fetched
// from, in preference order (origin worker first, master replica last —
// the fallback when the origin is dead).
type SegmentRef struct {
	MapTask int      `json:"map_task"`
	URLs    []string `json:"urls"`
	Off     int64    `json:"off"`
	Len     int64    `json:"len"`
	Records int64    `json:"records"`
}

// TaskRequest is the header of a /task request frame: one task attempt
// of a job the worker already holds. A map request's payload is the
// task's input partition as a record blob; a reduce request has none.
type TaskRequest struct {
	JobID string `json:"job_id"`
	Phase string `json:"phase"` // "map" or "reduce"
	// M is the job's input partition count (= number of map tasks).
	M       int `json:"m"`
	Task    int `json:"task"`
	Attempt int `json:"attempt"`
	// Records is the number of records in the payload.
	Records int `json:"records"`
	// Reduce phase: one segment per map task with records for this
	// partition, in map-task order.
	Sources []SegmentRef `json:"sources,omitempty"`
}

// TaskResponse is the header of a /task response frame: a completed
// attempt. A map response has no payload (the attempt's output is its
// run); a reduce response's payload is the attempt's output as a record
// blob.
type TaskResponse struct {
	Metrics mapreduce.TaskMetrics `json:"metrics"`
	// Records is the number of records in the payload.
	Records int `json:"records"`
	// Map phase: the URL the attempt's ERN1 run is served at. The run's
	// segment index travels inside the run file itself (the ERN1
	// trailer) — the master re-reads and re-validates it from its
	// replica rather than trusting a wire copy.
	RunURL string `json:"run_url,omitempty"`
}

// ErrorResponse is a task failure crossing the wire with the engine's
// error classifications intact.
type ErrorResponse struct {
	Error   string `json:"error"`
	Fatal   bool   `json:"fatal,omitempty"`
	Corrupt bool   `json:"corrupt,omitempty"`
}

// toError reconstructs the classified error on the receiving side.
func (e *ErrorResponse) toError() error {
	err := errors.New(e.Error)
	if e.Corrupt {
		err = fmt.Errorf("%w: %w", runio.ErrCorrupt, err)
	}
	if e.Fatal {
		err = mapreduce.Fatal(err)
	}
	return err
}

// newErrorResponse classifies err for the wire.
func newErrorResponse(err error) ErrorResponse {
	return ErrorResponse{
		Error:   err.Error(),
		Fatal:   mapreduce.IsFatal(err),
		Corrupt: mapreduce.IsCorrupt(err),
	}
}
