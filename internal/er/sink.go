package er

import (
	"encoding/csv"
	"io"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
)

// MatchSink consumes a pipeline's emitted matches as a stream: the
// matching job's reduce phase hands every emitted pair to Consume. When
// a sink is installed (RunOptions.Sink) nothing is accumulated in
// Result.Matches, so peak memory is independent of the match count —
// the output half of the out-of-core story.
//
// Contract:
//   - Consume is never called concurrently (the engine serializes
//     streamed emissions), but the order across reduce tasks is the
//     tasks' completion interleaving — deterministic only at
//     Parallelism 1. Within one reduce task, emission order holds.
//   - The stream carries raw emissions, not deduplicated or sorted.
//     The in-tree strategies emit each pair at most once; Canonical
//     restores set semantics when needed.
//   - Flush is called once after a successful run. It is not called on
//     error.
//   - A non-nil error from Consume or Flush fails the run.
type MatchSink interface {
	Consume(p core.MatchPair, similarity float64) error
	Flush() error
}

// Canonical deduplicates the streamed matches and, at Flush, sorts them
// into the canonical order. A run without a sink streams into one, and
// its matches are Result.Matches. (Every pair is compared exactly once,
// so duplicates arise only from duplicate entity IDs; deduplication
// keeps the result a set regardless.) Memory is O(distinct matches).
type Canonical struct {
	seen    map[core.MatchPair]bool
	matches []core.MatchPair
}

// Consume implements MatchSink.
func (c *Canonical) Consume(p core.MatchPair, _ float64) error {
	if c.seen == nil {
		c.seen = make(map[core.MatchPair]bool)
	}
	if !c.seen[p] {
		c.seen[p] = true
		c.matches = append(c.matches, p)
	}
	return nil
}

// Flush implements MatchSink: it establishes the canonical sort.
func (c *Canonical) Flush() error {
	SortMatches(c.matches)
	return nil
}

// Matches returns the deduplicated matches. Canonically sorted after
// Flush — i.e., after the pipeline run that streamed into the sink.
func (c *Canonical) Matches() []core.MatchPair { return c.matches }

// CSVSink streams matches as CSV rows "a,b,similarity" with a header,
// writing through a buffered csv.Writer — constant memory in the match
// count.
type CSVSink struct {
	w          *csv.Writer
	n          atomic.Int64
	headerDone bool
}

// NewCSVSink returns a CSVSink writing to w. The header row is written
// lazily — by the first Consume, or by Flush for a zero-match run — so
// every successful run produces at least the header; only an erroring
// run can leave an empty file.
func NewCSVSink(w io.Writer) *CSVSink {
	return &CSVSink{w: csv.NewWriter(w)}
}

func (s *CSVSink) header() error {
	if s.headerDone {
		return nil
	}
	s.headerDone = true
	return s.w.Write([]string{"a", "b", "similarity"})
}

// Consume implements MatchSink.
func (s *CSVSink) Consume(p core.MatchPair, sim float64) error {
	if err := s.header(); err != nil {
		return err
	}
	s.n.Add(1)
	return s.w.Write([]string{p.A, p.B, strconv.FormatFloat(sim, 'g', -1, 64)})
}

// Flush implements MatchSink.
func (s *CSVSink) Flush() error {
	if err := s.header(); err != nil {
		return err
	}
	s.w.Flush()
	return s.w.Error()
}

// Count returns the number of matches consumed so far.
func (s *CSVSink) Count() int64 { return s.n.Load() }
