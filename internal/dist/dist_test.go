package dist

// Control-plane unit tests: lease expiry through the heartbeat monitor
// (a silent worker is declared dead and leaves the pool), ErrNoWorkers
// from an empty pool, and worker registration/await plumbing. The
// end-to-end dispatch paths are covered by the er-level distributed
// differential suite.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/testleak"
)

// testLog routes a debug-level slog.TextHandler into the test log.
func testLog(t testing.TB) *slog.Logger {
	return slog.New(slog.NewTextHandler(logWriter{t}, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// logWriter writes each line the handler renders to t.Log.
type logWriter struct{ t testing.TB }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

func testMaster(t *testing.T) *Master {
	t.Helper()
	m := NewMaster(MasterOptions{
		HeartbeatInterval: 20 * time.Millisecond,
		LeaseTTL:          100 * time.Millisecond,
		Log:               testLog(t),
	})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// registerRaw registers a (possibly fictitious) worker URL directly
// over the wire, standing in for a worker that dies right after
// registering.
func registerRaw(t *testing.T, m *Master, workerURL string) RegisterResponse {
	t.Helper()
	body, _ := json.Marshal(RegisterRequest{URL: workerURL, Slots: 1})
	resp, err := http.Post(m.URL()+pathRegister, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: http %s", resp.Status)
	}
	var reg RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestMasterExpiresSilentWorker(t *testing.T) {
	before := testleak.Snapshot()
	m := testMaster(t)
	// A dead-on-arrival worker: registered, never heartbeats.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()
	reg := registerRaw(t, m, deadURL)
	if reg.WorkerID == 0 || reg.HeartbeatMillis <= 0 || reg.LeaseTTLMillis <= reg.HeartbeatMillis {
		t.Fatalf("register response %+v: want nonzero id and lease > heartbeat", reg)
	}
	if n := m.Workers(); n != 1 {
		t.Fatalf("Workers() = %d after register, want 1", n)
	}
	// The monitor must revoke the lease within a few TTLs.
	deadline := time.Now().Add(2 * time.Second)
	for m.Workers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("silent worker still leased after 2s (TTL 100ms)")
		}
		time.Sleep(10 * time.Millisecond)
	}
	m.Close()
	testleak.Check(t, before)
}

func TestSessionEmptyPoolReturnsErrNoWorkers(t *testing.T) {
	m := testMaster(t)
	s := m.Session("er/test-none", []byte(`{}`))
	defer s.Close()
	_, err := s.RunMapAttempt(context.Background(), 2, 0, 1, nil, 0, t.TempDir()+"/m0.run")
	if !errors.Is(err, mapreduce.ErrNoWorkers) {
		t.Fatalf("map dispatch on empty pool: err = %v, want ErrNoWorkers", err)
	}
	_, err = s.RunReduceAttempt(context.Background(), 2, 0, 1, nil)
	if !errors.Is(err, mapreduce.ErrNoWorkers) {
		t.Fatalf("reduce dispatch on empty pool: err = %v, want ErrNoWorkers", err)
	}
}

func TestAwaitWorkersTimesOutAndSatisfies(t *testing.T) {
	m := testMaster(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.AwaitWorkers(ctx, 1); err == nil {
		t.Fatal("AwaitWorkers returned without any worker")
	}
	registerRaw(t, m, "http://127.0.0.1:1") // liveness comes from heartbeats, not dial
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	if err := m.AwaitWorkers(ctx2, 1); err != nil {
		t.Fatalf("AwaitWorkers after register: %v", err)
	}
}

func TestHeartbeatUnknownWorkerRejected(t *testing.T) {
	m := testMaster(t)
	body, _ := json.Marshal(HeartbeatRequest{WorkerID: 999})
	resp, err := http.Post(m.URL()+pathHeartbeat, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hb HeartbeatResponse
	if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	if hb.OK {
		t.Fatal("heartbeat for an unknown worker id reported OK (worker would never re-register)")
	}
}

func TestJobRefIDStableAndSpecSensitive(t *testing.T) {
	a := NewJobRef("er/match", []byte(`{"r":4}`))
	b := NewJobRef("er/match", []byte(`{"r":4}`))
	c := NewJobRef("er/match", []byte(`{"r":8}`))
	d := NewJobRef("er/bdm", []byte(`{"r":4}`))
	if a.ID != b.ID {
		t.Fatal("identical name+spec produced different job IDs")
	}
	if a.ID == c.ID || a.ID == d.ID {
		t.Fatal("different spec or name collided on job ID")
	}
}
