// Package core implements the paper's primary contribution: the three
// entity-redistribution strategies for MapReduce-based entity resolution
// with blocking —
//
//   - Basic (Section III): the straightforward one-block-per-reduce-call
//     dataflow, vulnerable to data skew;
//   - BlockSplit (Section IV): splits above-average blocks into
//     per-input-partition sub-blocks and greedily assigns the resulting
//     match tasks to reduce tasks;
//   - PairRange (Section V): globally enumerates all entity pairs and
//     assigns each reduce task an (almost) equal-sized contiguous range
//     of pair indexes.
//
// Each strategy can produce an executable mapreduce.Job (Job 2 of the
// paper's workflow, consuming the annotated input the BDM is counted
// from) and an analytic Plan that computes the identical per-task
// workloads directly from the BDM without materializing any pairs. Plans make cluster-scale
// experiments (Figures 13/14) tractable on one machine; tests assert that
// executed workloads and planned workloads agree exactly.
//
// Two-source matching (Appendix I) is BlockSplit and PairRange over a
// BDM whose partitions carry source tags (bdm.Matrix.WithSources): the
// matrix decides which pairs count, and only R×S pairs are compared.
//
// Every strategy's reducers compare through one contract: a Matcher
// hands out a Block per reduce group, the reducer loads the texts of the
// group's rows into it and probes each text against the rows loaded so
// far (kernel.go). PairFunc makes any per-pair function a Matcher. Job 2's
// records carry entity.Rows — an entity's ID and the text of the
// attribute it is matched on — never an entity.
package core

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/bdm"
	"repro/internal/cluster"
	"repro/internal/mapreduce"
)

// Matcher decides the pairs of a reduce group. AcquireBlock is called
// once per group, from the group's goroutine; the reducer loads the
// group's texts into the returned Block as rows and Releases it when
// the group ends (see kernel.go). A nil Matcher is valid everywhere and
// means "count the comparisons but do not compare" — used by runs that
// only measure redistribution behaviour. Reduce tasks run concurrently,
// so AcquireBlock must be safe for concurrent use; a Block is used by
// one goroutine only.
//
// match.EditDistance, the paper's match rule, supplies a native block;
// PairFunc turns any per-pair function into a Matcher.
type Matcher interface {
	AcquireBlock() Block
}

// MatchPair is one entry of the match result: the IDs of two entities
// considered the same, with A < B lexicographically for canonical form.
type MatchPair struct {
	A, B string
}

// NewMatchPair returns the canonical (ordered) pair for two entity IDs.
// The IDs are copied: match pairs are retained in job output long after
// the reduce call, and on the external dataflow's arena read path an
// entity ID aliases a ~32KB decode block — a retained alias would pin
// the whole block. Copying only on match (not per comparison) keeps the
// cost proportional to the result size; both IDs share one allocation.
func NewMatchPair(id1, id2 string) MatchPair {
	if id1 > id2 {
		id1, id2 = id2, id1
	}
	joined := id1 + id2
	return MatchPair{A: joined[:len(id1)], B: joined[len(id1):]}
}

func (p MatchPair) String() string { return p.A + "|" + p.B }

// CompareMatchPairs orders pairs lexicographically (A, then B) — the
// canonical match-result order used by every pipeline.
func CompareMatchPairs(a, b MatchPair) int {
	if c := strings.Compare(a.A, b.A); c != 0 {
		return c
	}
	return strings.Compare(a.B, b.B)
}

// ComparisonsCounter is the user-counter name under which every
// strategy's reduce function records the number of pair comparisons it
// performed. The cluster simulator keys its cost model off it. It
// aliases the engine's constant, which gives it an allocation-free fast
// path in the contexts' Inc.
const ComparisonsCounter = mapreduce.ComparisonsCounter

// AnnotatedEntity is one input record of a matching job: an entity's
// row annotated with its block id (bdm.Annotate), the record whose id
// the BDM counts (Algorithm 3's "additionalOutput").
type AnnotatedEntity = bdm.Annotated

// blockOf returns rec's block: its id, which must index x.
func blockOf(x *bdm.Matrix, rec AnnotatedEntity, strategy string) int {
	k := int(rec.Key)
	if k < 0 || k >= x.NumBlocks() {
		panic(fmt.Sprintf("core: %s: block id %d outside the BDM's %d blocks", strategy, k, x.NumBlocks()))
	}
	return k
}

// MatchOutput is one emitted match: the canonical pair and its
// similarity.
type MatchOutput = mapreduce.Pair[MatchPair, float64]

// MatchJob is a runnable matching job (Job 2 of the paper's workflow)
// with the strategy's intermediate key/value types erased: all
// strategies consume block-id-annotated rows and emit match
// pairs, but each redistributes through its own composite key type.
type MatchJob = mapreduce.JobRunner[AnnotatedEntity, MatchOutput]

// MatchJobResult is the result of executing a MatchJob.
type MatchJobResult = mapreduce.Result[AnnotatedEntity, MatchOutput]

// matchCtx is the reduce-side context type shared by all strategy
// reducers.
type matchCtx = mapreduce.ReduceContext[MatchOutput]

// Strategy is a redistribution strategy. Implementations: Basic,
// BlockSplit, PairRange; the two that need the BDM also match two
// sources when its partitions carry source tags.
type Strategy interface {
	// Name returns the paper's name for the strategy.
	Name() string
	// NeedsBDM reports whether the strategy requires the block
	// distribution matrix (true for BlockSplit and PairRange; Basic runs
	// as a single job without the preprocessing step).
	NeedsBDM() bool
	// Job builds the executable MR Job 2. Input records must be the BDM
	// job's input (block-id-annotated rows). x may be nil
	// iff !NeedsBDM(); match may be nil (count comparisons only).
	Job(x *bdm.Matrix, r int, match Matcher) (MatchJob, error)
	// Plan computes the exact per-task workloads Job would produce for m
	// input partitions and r reduce tasks, without executing anything.
	Plan(x *bdm.Matrix, m, r int) (*Plan, error)
}

// Plan holds the exact per-task workloads a strategy's Job 2 produces.
// It is the analytic twin of an executed job's metrics.
type Plan struct {
	Strategy string
	M, R     int
	// MapRecords[i] is the number of input records map task i reads;
	// MapEmits[i] the number of key-value pairs it emits.
	MapRecords []int64
	MapEmits   []int64
	// ReduceRecords[j] is the number of key-value pairs reduce task j
	// receives; ReduceComparisons[j] the number of pair comparisons it
	// performs.
	ReduceRecords     []int64
	ReduceComparisons []int64
}

// TotalMapEmits sums the emitted map-output key-value pairs (the metric
// of Figure 12).
func (p *Plan) TotalMapEmits() int64 {
	var t int64
	for _, e := range p.MapEmits {
		t += e
	}
	return t
}

// MaxReduceComparisons returns the heaviest reduce-task workload, the
// quantity that lower-bounds the reduce-phase makespan.
func (p *Plan) MaxReduceComparisons() int64 {
	var mx int64
	for _, c := range p.ReduceComparisons {
		if c > mx {
			mx = c
		}
	}
	return mx
}

// Workload converts the plan into the cluster simulator's job workload.
func (p *Plan) Workload(name string) cluster.JobWorkload {
	return cluster.JobWorkload{
		Name:              name,
		MapRecords:        p.MapRecords,
		MapEmits:          p.MapEmits,
		ReduceRecords:     p.ReduceRecords,
		ReduceComparisons: p.ReduceComparisons,
	}
}

func newPlan(strategy string, m, r int) *Plan {
	return &Plan{
		Strategy:          strategy,
		M:                 m,
		R:                 r,
		MapRecords:        make([]int64, m),
		MapEmits:          make([]int64, m),
		ReduceRecords:     make([]int64, r),
		ReduceComparisons: make([]int64, r),
	}
}

func validateJobParams(name string, r int) error {
	if r <= 0 {
		return fmt.Errorf("core: %s: number of reduce tasks must be > 0, got %d", name, r)
	}
	return nil
}

// keyLimits refuses a job whose indexes its strategy's key cannot hold:
// BSKey and PRKey store block and reduce (range) indexes as int32, and
// BSKey stores a split component, a partition index, as int16, so
// maxPartitions is math.MaxInt16 for BlockSplit. Below the limits every
// key field is exact, and so is its key coding.
func keyLimits(name string, blocks, m, r, maxPartitions int) error {
	if blocks > math.MaxInt32 || r > math.MaxInt32 || m > maxPartitions {
		return fmt.Errorf("core: %s: %d blocks, %d reduce tasks or %d partitions exceed the key's limits (%d, %d, %d)",
			name, blocks, r, m, math.MaxInt32, math.MaxInt32, maxPartitions)
	}
	return nil
}

func validatePlanParams(name string, m, r int) error {
	if m <= 0 {
		return fmt.Errorf("core: %s: number of map tasks must be > 0, got %d", name, m)
	}
	return validateJobParams(name, r)
}

// The frozen benchmark harness (benchmark/trace.go) still names the
// prepared-matcher API that the one Matcher contract replaced. These
// aliases keep it compiling and retire with it (ROADMAP item 1d); no
// other code uses them.

// PreparedMatcher is Matcher.
type PreparedMatcher = Matcher

// PreparedStrategy is Strategy with JobPrepared.
type PreparedStrategy interface {
	Strategy
	JobPrepared(x *bdm.Matrix, r int, m Matcher) (MatchJob, error)
}

// JobPrepared is Job.
func (s Basic) JobPrepared(x *bdm.Matrix, r int, m Matcher) (MatchJob, error) { return s.Job(x, r, m) }

// JobPrepared is Job.
func (s BlockSplit) JobPrepared(x *bdm.Matrix, r int, m Matcher) (MatchJob, error) {
	return s.Job(x, r, m)
}

// JobPrepared is Job.
func (s PairRange) JobPrepared(x *bdm.Matrix, r int, m Matcher) (MatchJob, error) {
	return s.Job(x, r, m)
}
