package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/obs"
)

// httpReaderAt adapts HTTP range requests to io.ReaderAt so
// runio.SegmentReader can merge a remote run segment exactly as it
// merges a local file. The segment reader's io.SectionReader guarantees
// every ReadAt stays inside the segment's validated bounds, so a plain
// Range request per read is always satisfiable; the buffered reader
// above it keeps the request count low (one per buffer fill).
//
// urls is a preference-ordered replica set: the origin worker first,
// the master's replica last. A failed read moves down the list — this
// is how a reduce attempt survives the death of the worker that
// produced the run without failing the attempt.
type httpReaderAt struct {
	client *http.Client
	ctx    context.Context
	urls   []string

	// Observability identity (all zero when the worker runs unobserved):
	// every range read becomes a KShuffleFetch span under the reduce
	// task's lane with Arg = bytes fetched. The obs pointer gates
	// recording.
	obs     *obs.Observer
	job     uint32
	task    int32
	attempt int32
	worker  int32
}

func (r *httpReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if o := r.obs; o != nil {
		o.Tracer.Record(obs.Event{Type: obs.EvBegin, Kind: obs.KShuffleFetch,
			Phase: obs.PhaseReduce, Job: r.job, Task: r.task,
			Attempt: r.attempt, Worker: r.worker, Arg: int64(len(p))})
		defer func() {
			o.Tracer.Record(obs.Event{Type: obs.EvEnd, Kind: obs.KShuffleFetch,
				Phase: obs.PhaseReduce, Job: r.job, Task: r.task,
				Attempt: r.attempt, Worker: r.worker, Arg: int64(len(p))})
		}()
	}
	var firstErr error
	for _, u := range r.urls {
		n, err := r.readRange(u, p, off)
		if err == nil {
			return n, nil
		}
		if r.ctx.Err() != nil {
			return 0, r.ctx.Err()
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("range read %s: %w", u, err)
		}
	}
	if firstErr == nil {
		firstErr = errors.New("no replica URLs")
	}
	return 0, firstErr
}

func (r *httpReaderAt) readRange(url string, p []byte, off int64) (int, error) {
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+int64(len(p))-1))
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusPartialContent {
		return 0, fmt.Errorf("status %s (want 206 Partial Content)", resp.Status)
	}
	return io.ReadFull(resp.Body, p)
}
