package dist

// Data-plane tests over real sockets: a session's spec reaches a worker
// once, a worker that lost its runnable (a /release, a restart) is sent
// it again exactly once, and a peer that does not speak the frame — a
// JSON client on the worker's side, a JSON worker on the master's —
// costs a refused request or a failed attempt, nothing more.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/runio"
)

const wordsJobName = "dist/test-words"

// wordBuilds counts how often a worker in this process built the test
// job from its spec — once per /job frame that arrived.
var wordBuilds atomic.Int64

func init() {
	mapreduce.RegisterPairCodec[string, int]()
	RegisterJob(wordsJobName, func(spec []byte) (mapreduce.RemoteRunnable, error) {
		if string(spec) == "reject" {
			return nil, errors.New("spec says reject")
		}
		wordBuilds.Add(1)
		return mapreduce.NewRemoteRunnable(wordsJob())
	})
}

func wordsJob() *mapreduce.Job[string, string, int, mapreduce.Pair[string, int]] {
	return &mapreduce.Job[string, string, int, mapreduce.Pair[string, int]]{
		Name:           "words",
		NumReduceTasks: 2,
		NewMapper: func() mapreduce.Mapper[string, string, int] {
			return &mapreduce.MapperFunc[string, string, int]{
				OnMap: func(ctx *mapreduce.MapContext[string, string, int], line string) {
					for _, w := range strings.Fields(line) {
						ctx.Emit(w, 1)
					}
				},
			}
		},
		NewReducer: func() mapreduce.Reducer[string, int, mapreduce.Pair[string, int]] {
			return &mapreduce.ReducerFunc[string, int, mapreduce.Pair[string, int]]{
				OnReduce: func(ctx *mapreduce.ReduceContext[mapreduce.Pair[string, int]], key string, values []mapreduce.Rec[string, int]) {
					ctx.Emit(mapreduce.Pair[string, int]{Key: strings.Clone(key), Value: len(values)})
				},
			}
		},
		Partition: mapreduce.HashPartition,
		Compare:   strings.Compare,
	}
}

func startTestWorker(t *testing.T, m *Master) *Worker {
	t.Helper()
	w, err := StartWorker(WorkerOptions{MasterURL: m.URL(), Dir: t.TempDir(), Slots: 1,
		Log: testLog(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	return w
}

func awaitWorkers(t *testing.T, m *Master, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.Workers() != n {
		if time.Now().After(deadline) {
			t.Fatalf("master has %d workers, want %d", m.Workers(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runWordMap dispatches one map attempt of the two-task word job.
func runWordMap(t *testing.T, s *Session, task, attempt int, dir string) *mapreduce.RemoteMapResult {
	t.Helper()
	lines := []string{"a b c a", "b a"}
	sc, _ := runio.Lookup[string]()
	res, err := s.RunMapAttempt(context.Background(), 2, task, attempt,
		mapreduce.EncodeRecords(sc, lines), len(lines), filepath.Join(dir, "m.run"))
	if err != nil {
		t.Fatalf("map task %d attempt %d: %v", task, attempt, err)
	}
	return res
}

func TestSpecCrossesOncePerWorkerAndAgainWhenForgotten(t *testing.T) {
	m := testMaster(t) // 20 ms heartbeats, 100 ms lease
	a := startTestWorker(t, m)
	awaitWorkers(t, m, 1)
	s := m.Session(wordsJobName, []byte("spec"))
	defer s.Close()
	base := wordBuilds.Load()
	builds := func() int64 { return wordBuilds.Load() - base }

	// Both map tasks and both reduce tasks: one install.
	runs := make([]mapreduce.RemoteRun, 2)
	for task := range runs {
		res := runWordMap(t, s, task, 1, t.TempDir())
		runs[task] = mapreduce.RemoteRun{MapTask: task, Path: res.Info.Path, Origin: res.Origin, Info: res.Info}
	}
	pc, _ := runio.Lookup[mapreduce.Pair[string, int]]()
	counts := map[string]int{}
	for task := 0; task < 2; task++ {
		res, err := s.RunReduceAttempt(context.Background(), 2, task, 1, runs)
		if err != nil {
			t.Fatal(err)
		}
		out, err := mapreduce.DecodeRecords(pc, res.Output, res.OutputCount)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range out {
			counts[p.Key] += p.Value
		}
	}
	if counts["a"] != 6 || counts["b"] != 4 || counts["c"] != 2 || len(counts) != 3 {
		t.Fatalf("word counts over the wire = %v, want a:6 b:4 c:2", counts)
	}
	if n := builds(); n != 1 {
		t.Fatalf("four attempts on one worker built the job %d times, want 1", n)
	}

	// The worker forgets the job mid-session; the next task is answered
	// statusUnknownJob, the spec is sent again — once — and the task runs.
	resp, err := http.Post(a.URL()+pathRelease, "application/json", strings.NewReader(`{"job_id":"`+s.ref.ID+`"}`))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("release: %v %v", resp, err)
	}
	resp.Body.Close()
	runWordMap(t, s, 0, 2, t.TempDir())
	runWordMap(t, s, 1, 2, t.TempDir())
	if n := builds(); n != 2 {
		t.Fatalf("after a release mid-session the job was built %d times in all, want 2", n)
	}

	// The worker restarts: its lease expires, its successor registers
	// under a new id, and that id is sent the spec with its first task.
	a.Stop()
	awaitWorkers(t, m, 0)
	startTestWorker(t, m)
	awaitWorkers(t, m, 1)
	runWordMap(t, s, 0, 3, t.TempDir())
	runWordMap(t, s, 1, 3, t.TempDir())
	if n := builds(); n != 3 {
		t.Fatalf("after a worker restart the job was built %d times in all, want 3", n)
	}
}

func TestRejectedSpecFailsTheAttemptFatally(t *testing.T) {
	m := testMaster(t)
	startTestWorker(t, m)
	awaitWorkers(t, m, 1)
	s := m.Session(wordsJobName, []byte("reject"))
	defer s.Close()
	_, err := s.RunMapAttempt(context.Background(), 2, 0, 1, nil, 0, filepath.Join(t.TempDir(), "m.run"))
	if err == nil || !mapreduce.IsFatal(err) || !strings.Contains(err.Error(), "spec says reject") {
		t.Fatalf("err = %v, want the builder's error, fatal", err)
	}
	if m.Workers() != 1 {
		t.Fatal("a rejected spec cost the worker its lease")
	}
}

// postTaskBody posts a raw body to the worker's /task.
func postTaskBody(t *testing.T, w *Worker, contentType string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(w.URL()+pathTask, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	said, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(said)
}

func TestWorkerRefusesWhatIsNotAFrame(t *testing.T) {
	m := testMaster(t)
	w := startTestWorker(t, m)
	good := buildFrame(t, &TaskRequest{JobID: "nobody-installed-this", Phase: "map", M: 1}, nil)
	otherBuild := bytes.Clone(good)
	otherBuild[3] = frameVersion - 1 // a peer whose run records still carry key codes
	hugeHeader := bytes.Clone(good)
	hugeHeader[6] = 0xff // header length ≥ 0xff0000 > maxFrameHeader
	cases := []struct {
		name   string
		body   []byte
		status int
		says   string
	}{
		{"the old JSON protocol", []byte(`{"job":{"name":"er/match","spec":"e30=","id":"x"},"phase":"map","input":"AAAA"}`), http.StatusBadRequest, "bad magic"},
		{"a frame from another build", otherBuild, http.StatusBadRequest, "frame version"},
		{"an oversize header claim", hugeHeader, http.StatusBadRequest, "header length"},
		{"a body shorter than its frame", good[:len(good)-3], http.StatusBadRequest, "-byte body"},
		{"a job nobody installed", good, statusUnknownJob, "unknown job"},
	}
	for _, tc := range cases {
		status, said := postTaskBody(t, w, frameContentType, tc.body)
		if status != tc.status || !strings.Contains(said, tc.says) {
			t.Errorf("%s: %d %q, want %d mentioning %q", tc.name, status, said, tc.status, tc.says)
		}
	}
}

func TestMasterFailsTheAttemptOnAWorkerThatAnswersJSON(t *testing.T) {
	m := testMaster(t)
	// A worker from before the frame: takes anything, answers JSON.
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"metrics":{},"side":"AAAA","side_count":1,"run_url":"http://x/run/1"}`)
	}))
	defer old.Close()
	registerRaw(t, m, old.URL)
	s := m.Session(wordsJobName, []byte("spec"))
	defer s.Close()
	_, err := s.RunMapAttempt(context.Background(), 2, 0, 1, nil, 0, filepath.Join(t.TempDir(), "m.run"))
	if !errors.Is(err, ErrFrame) || mapreduce.IsFatal(err) {
		t.Fatalf("err = %v, want a retryable ErrFrame", err)
	}
	if m.Workers() != 0 {
		t.Fatal("a worker that answers garbage kept its lease")
	}
}

// TestMasterRefusesAMapResponseWithAPayload: a map response is a header
// only. A worker that answers a map task with records — a build from
// before that rule — fails the attempt with a retryable ErrFrame and
// loses its lease; nothing it sent is read as the task's output.
func TestMasterRefusesAMapResponseWithAPayload(t *testing.T) {
	for _, tc := range []struct {
		name    string
		records int
		payload []byte
	}{
		{"records and a payload", 1, []byte("x")},
		{"a payload alone", 0, []byte("x")},
		{"a record count alone", 2, nil},
	} {
		m := testMaster(t)
		fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			if r.URL.Path != pathTask {
				return // the spec install: 200, nothing said
			}
			w.Header().Set("Content-Type", frameContentType)
			w.Write(buildFrame(t, &TaskResponse{Records: tc.records, RunURL: "http://x/run/1"}, tc.payload))
		}))
		registerRaw(t, m, fake.URL)
		s := m.Session(wordsJobName, []byte("spec"))
		_, err := s.RunMapAttempt(context.Background(), 2, 0, 1, nil, 0, filepath.Join(t.TempDir(), "m.run"))
		s.Close()
		fake.Close()
		if !errors.Is(err, ErrFrame) || mapreduce.IsFatal(err) {
			t.Errorf("%s: err = %v, want a retryable ErrFrame", tc.name, err)
		}
		if m.Workers() != 0 {
			t.Errorf("%s: the worker kept its lease", tc.name)
		}
	}
}
