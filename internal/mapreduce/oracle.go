package mapreduce

import "context"

// The boxing adapter: runs a typed Job[I, K, V, O] on the boxed
// any-based engine (the original dataflow, untouched since it was
// differentially validated) and converts the result back. This is the
// oracle path behind Engine.Dataflow == DataflowBoxed — every typed job
// can be re-executed with per-record interface boxing and compared
// byte-for-byte against the typed engine, which is exactly what the
// dataflow differential tests do.
//
// The adapter is deliberately thin: user mapper/reducer logic runs
// unchanged; only record representation and the comparator/
// partition/group functions are bridged. Binary key codes are not used
// on this path (the boxed engine predates them), so the oracle also
// cross-checks the codes' order/group behaviour against the plain
// comparators.
//
// Fault tolerance needs no bridging: attempts, retry, speculation, and
// the fault hook live in the engine-level task supervisor (attempt.go),
// which the boxed dataflow shares with the typed one, so the oracle
// exercises the same supervision code the typed dataflow does.

func (j *Job[I, K, V, O]) runBoxed(ctx context.Context, e *Engine, input [][]I, sink *outputSink[O]) (*Result[I, O], error) {
	bj := &BoxedJob{
		Name:           j.Name,
		NumReduceTasks: j.NumReduceTasks,
		NewMapper: func() BoxedMapper {
			return &oracleMapper[I, K, V]{inner: j.NewMapper()}
		},
		NewReducer: func() BoxedReducer {
			return &oracleReducer[K, V, O]{inner: j.NewReducer()}
		},
		Partition: func(key any, r int) int { return j.Partition(key.(K), r) },
		Compare:   func(a, b any) int { return j.Compare(a.(K), b.(K)) },
	}
	if j.Group != nil {
		bj.Group = func(a, b any) int { return j.Group(a.(K), b.(K)) }
	}

	binput := make([][]KeyValue, len(input))
	for i, part := range input {
		binput[i] = make([]KeyValue, len(part))
		for k, rec := range part {
			binput[i][k] = KeyValue{Key: rec}
		}
	}
	// The typed sink streams unboxed records; bridge it so the boxed
	// engine's reduce contexts can feed it directly.
	var bsink *outputSink[KeyValue]
	if sink != nil {
		bsink = &outputSink[KeyValue]{fn: func(kv KeyValue) error { return sink.fn(kv.Key.(O)) }}
	}
	bres, err := e.runBoxed(ctx, bj, binput, bsink)
	if err != nil {
		return nil, err
	}

	res := &Result[I, O]{
		Metrics:    bres.Metrics,
		Output:     make([]O, 0, len(bres.Output)),
		SideOutput: make([][]I, len(bres.SideOutput)),
	}
	for _, kv := range bres.Output {
		res.Output = append(res.Output, kv.Key.(O))
	}
	for i, side := range bres.SideOutput {
		if side == nil {
			continue
		}
		s := make([]I, len(side))
		for k, kv := range side {
			s[k] = kv.Key.(I)
		}
		res.SideOutput[i] = s
	}
	return res, nil
}

// oracleMapper feeds unboxed input records to the typed mapper while
// routing its emissions through the boxed context.
type oracleMapper[I, K, V any] struct {
	inner Mapper[I, K, V]
	ctx   MapContext[I, K, V]
}

func (o *oracleMapper[I, K, V]) Configure(m, r, partitionIndex int) {
	o.inner.Configure(m, r, partitionIndex)
}

func (o *oracleMapper[I, K, V]) Map(bctx *BoxedContext, kv KeyValue) {
	o.ctx.boxed = bctx
	o.inner.Map(&o.ctx, kv.Key.(I))
}

// Close forwards the end-of-input call to a typed mapper that has one.
func (o *oracleMapper[I, K, V]) Close(bctx *BoxedContext) {
	if closer, ok := o.inner.(MapCloser[I, K, V]); ok {
		o.ctx.boxed = bctx
		closer.Close(&o.ctx)
	}
}

// oracleReducer unboxes each group into a reused []Rec and hands it to
// the typed reducer, emissions flowing through the boxed context.
type oracleReducer[K, V, O any] struct {
	inner Reducer[K, V, O]
	ctx   ReduceContext[O]
	vals  []Rec[K, V]
}

func (o *oracleReducer[K, V, O]) Configure(m, r, taskIndex int) {
	o.inner.Configure(m, r, taskIndex)
}

func (o *oracleReducer[K, V, O]) Reduce(bctx *BoxedContext, key any, values []KeyValue) {
	o.ctx.boxed = bctx
	o.vals = o.vals[:0]
	for _, kv := range values {
		o.vals = append(o.vals, Rec[K, V]{Key: kv.Key.(K), Value: kv.Value.(V)})
	}
	o.inner.Reduce(&o.ctx, key.(K), o.vals)
}
