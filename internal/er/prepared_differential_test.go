package er

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/mapreduce"
	"repro/internal/match"
	"repro/internal/similarity"
)

// randEntities builds a dataset of random short titles over a small
// alphabet, so blocks collide and near-duplicates occur naturally.
func randEntities(rng *rand.Rand, n int) []entity.Entity {
	es := make([]entity.Entity, n)
	for i := range es {
		ln := 3 + rng.Intn(10)
		var b strings.Builder
		for j := 0; j < ln; j++ {
			if rng.Intn(7) == 0 {
				b.WriteByte(' ')
			} else {
				b.WriteByte(byte('a' + rng.Intn(4)))
			}
		}
		es[i] = entity.New(idFor(i), "title", b.String())
	}
	return es
}

func idFor(i int) string {
	return string([]byte{'e', byte('0' + i/100), byte('0' + (i/10)%10), byte('0' + i%10)})
}

// plainEditDistance is the hand-written plain Matcher semantically
// equivalent to match.EditDistance: same decisions, same similarity
// floats (both sides compute 1 - dist/longest in float64).
func plainEditDistance(attr string, threshold float64) core.Matcher {
	return func(a, b entity.Entity) (float64, bool) {
		if sim := similarity.LevenshteinSimilarity(a.Attr(attr), b.Attr(attr)); sim >= threshold {
			return sim, true
		}
		return 0, false
	}
}

// TestPreparedMatcherDifferential proves the tentpole's correctness
// claim: the prepared comparison kernel produces bit-identical Matches
// and Comparisons to the plain matcher on random datasets across all
// three strategies and several (m, r) shapes.
func TestPreparedMatcherDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	strategies := []core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}}
	for trial := 0; trial < 6; trial++ {
		es := randEntities(rng, 60+rng.Intn(120))
		m := 1 + rng.Intn(4)
		r := 1 + rng.Intn(8)
		th := []float64{0.5, 0.8, 0.6}[trial%3]
		parts := entity.SplitRoundRobin(es, m)
		key := blocking.NormalizedPrefix(2)

		serial, serialComps := SerialMatch(es, "title", key, plainEditDistance("title", th))
		for _, strat := range strategies {
			base := Config{
				Strategy: strat,
				Attr:     "title",
				BlockKey: key,
				R:        r,
			}
			plainCfg := base
			plainCfg.Matcher = plainEditDistance("title", th)
			preparedCfg := base
			preparedCfg.PreparedMatcher = match.EditDistance("title", th)

			plainRes, err := RunPipeline(context.Background(), FromPartitions(parts), plainCfg)
			if err != nil {
				t.Fatalf("%s plain: %v", strat.Name(), err)
			}
			preparedRes, err := RunPipeline(context.Background(), FromPartitions(parts), preparedCfg)
			if err != nil {
				t.Fatalf("%s prepared: %v", strat.Name(), err)
			}
			if !reflect.DeepEqual(plainRes.Matches, preparedRes.Matches) {
				t.Fatalf("%s m=%d r=%d th=%v: prepared Matches differ from plain\nplain:    %v\nprepared: %v",
					strat.Name(), m, r, th, plainRes.Matches, preparedRes.Matches)
			}
			if plainRes.Comparisons != preparedRes.Comparisons {
				t.Fatalf("%s m=%d r=%d th=%v: prepared Comparisons = %d, plain = %d",
					strat.Name(), m, r, th, preparedRes.Comparisons, plainRes.Comparisons)
			}
			if !reflect.DeepEqual(preparedRes.Matches, serial) || preparedRes.Comparisons != serialComps {
				t.Fatalf("%s m=%d r=%d th=%v: prepared result disagrees with serial reference",
					strat.Name(), m, r, th)
			}
		}
	}
}

// TestPreparedMatcherDualDifferential covers both strategies over two
// sources.
func TestPreparedMatcherDualDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7777))
	es := randEntities(rng, 150)
	rsrc, ssrc := es[:90], es[90:]
	key := blocking.NormalizedPrefix(2)
	for _, strat := range []core.Strategy{core.BlockSplit{}, core.PairRange{}} {
		plainRes, err := RunDualPipeline(context.Background(), FromPartitions(entity.SplitRoundRobin(rsrc, 2)), FromPartitions(entity.SplitRoundRobin(ssrc, 3)),
			Config{
				Strategy: strat, Attr: "title", BlockKey: key,
				Matcher: plainEditDistance("title", 0.6), R: 4,
			})
		if err != nil {
			t.Fatalf("%s plain: %v", strat.Name(), err)
		}
		preparedRes, err := RunDualPipeline(context.Background(), FromPartitions(entity.SplitRoundRobin(rsrc, 2)), FromPartitions(entity.SplitRoundRobin(ssrc, 3)),
			Config{
				Strategy: strat, Attr: "title", BlockKey: key,
				PreparedMatcher: match.EditDistance("title", 0.6), R: 4,
			})
		if err != nil {
			t.Fatalf("%s prepared: %v", strat.Name(), err)
		}
		if !reflect.DeepEqual(plainRes.Matches, preparedRes.Matches) ||
			plainRes.Comparisons != preparedRes.Comparisons {
			t.Fatalf("%s: prepared dual result differs from plain", strat.Name())
		}
	}
}

// plainOnlyStrategy hides the PreparedStrategy implementation of the
// wrapped strategy, forcing er.Run's transparent PlainMatcher fallback.
type plainOnlyStrategy struct{ core.Strategy }

// TestPreparedMatcherFallback: a strategy without JobPrepared still
// works with a PreparedMatcher via the per-pair adapter, identically.
func TestPreparedMatcherFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	es := randEntities(rng, 80)
	parts := entity.SplitRoundRobin(es, 2)
	key := blocking.NormalizedPrefix(2)
	if _, ok := any(plainOnlyStrategy{core.PairRange{}}).(core.PreparedStrategy); ok {
		t.Fatal("plainOnlyStrategy must not implement PreparedStrategy")
	}
	want, err := RunPipeline(context.Background(), FromPartitions(parts), Config{
		Strategy: core.PairRange{}, Attr: "title", BlockKey: key,
		PreparedMatcher: match.EditDistance("title", 0.7), R: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunPipeline(context.Background(), FromPartitions(parts), Config{
		Strategy: plainOnlyStrategy{core.PairRange{}}, Attr: "title", BlockKey: key,
		PreparedMatcher: match.EditDistance("title", 0.7), R: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Matches, got.Matches) || want.Comparisons != got.Comparisons {
		t.Fatal("fallback path result differs from prepared path")
	}
}

// perPairOnly hides a matcher's native core.Block (and nothing else),
// forcing the reducers' adapter-over-PreparedMatcher path.
type perPairOnly struct{ core.PreparedMatcher }

func (m perPairOnly) ReleasePrepared(p core.PreparedEntity) {
	m.PreparedMatcher.(core.PreparedReleaser).ReleasePrepared(p)
}

// mixedEntities is randEntities with accented and CJK runes mixed into
// some titles, so reduce groups hold ASCII and non-ASCII rows side by
// side and the native block's rune fallback decides real pairs.
func mixedEntities(rng *rand.Rand, n int) []entity.Entity {
	alphabet := []rune("aabbccdd  é日")
	es := make([]entity.Entity, n)
	for i := range es {
		rs := make([]rune, 3+rng.Intn(10))
		for j := range rs {
			rs[j] = alphabet[rng.Intn(len(alphabet))]
		}
		rs[0] = rune('a' + rng.Intn(3)) // the blocking prefix stays ASCII
		es[i] = entity.New(idFor(i), "title", string(rs))
	}
	return es
}

// blockKernelEngines lists the dataflows the block differential covers;
// the external engine spills every few records.
func blockKernelEngines(t *testing.T) map[string]func() *mapreduce.Engine {
	return map[string]func() *mapreduce.Engine{
		"typed": func() *mapreduce.Engine { return &mapreduce.Engine{Parallelism: 3} },
		"external": func() *mapreduce.Engine {
			return &mapreduce.Engine{Parallelism: 3, SpillBudget: 128, TmpDir: t.TempDir()}
		},
	}
}

// TestBlockKernelDifferential proves the one reduce-side comparison
// path is the same path for every matcher form: the native
// structure-of-arrays block of match.EditDistance, the adapter block
// over the same matcher's per-pair MatchPrepared, and the adapter block
// over a hand-written plain Matcher produce identical full Results —
// matches, similarities in emit order, and every TaskMetrics field —
// for every strategy over one source and, where it uses the BDM, two,
// on the typed and the external dataflow.
func TestBlockKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1313))
	es := mixedEntities(rng, 220)
	key := blocking.NormalizedPrefix(1)
	const th = 0.6
	type form struct {
		name     string
		plain    core.Matcher
		prepared core.PreparedMatcher
	}
	forms := []form{
		{name: "native block", prepared: match.EditDistance("title", th)},
		{name: "adapter over PreparedMatcher", prepared: perPairOnly{match.EditDistance("title", th)}},
		{name: "adapter over plain Matcher", plain: plainEditDistance("title", th)},
	}
	if _, ok := forms[0].prepared.(core.BlockMatcher); !ok {
		t.Fatal("match.EditDistance must implement core.BlockMatcher")
	}
	if _, ok := forms[1].prepared.(core.BlockMatcher); ok {
		t.Fatal("perPairOnly must hide the native block")
	}
	inputs := map[string]func(cfg Config) (*Result, error){
		"one source": func(cfg Config) (*Result, error) {
			return RunPipeline(context.Background(), FromPartitions(entity.SplitRoundRobin(es, 4)), cfg)
		},
		"two sources": func(cfg Config) (*Result, error) {
			return RunDualPipeline(context.Background(),
				FromPartitions(entity.SplitRoundRobin(es[:130], 2)), FromPartitions(entity.SplitRoundRobin(es[130:], 3)), cfg)
		},
	}
	for ename, newEngine := range blockKernelEngines(t) {
		for _, strat := range []core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}} {
			for iname, run := range inputs {
				if iname == "two sources" && !strat.NeedsBDM() {
					continue
				}
				var want *Result
				for _, f := range forms {
					cfg := Config{Strategy: strat, Attr: "title", BlockKey: key, R: 5,
						Matcher: f.plain, PreparedMatcher: f.prepared}
					cfg.Engine = newEngine()
					got, err := run(cfg)
					if err != nil {
						t.Fatalf("%s/%s/%s/%s: %v", ename, strat.Name(), iname, f.name, err)
					}
					if want == nil {
						if want = got; len(want.Matches) == 0 {
							t.Fatalf("%s/%s/%s: differential vacuous, no matches", ename, strat.Name(), iname)
						}
					} else if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s/%s: %s diverges from %s", ename, strat.Name(), iname, f.name, forms[0].name)
					}
				}
			}
		}
	}
}

// TestBlockKernelChaos: reduce attempts that die mid-group abandon
// their acquired block; under a seeded fault schedule the native block
// still produces the fault-free Result (attempt counters aside).
func TestBlockKernelChaos(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	parts := entity.SplitRoundRobin(mixedEntities(rng, 200), 3)
	run := func(hook mapreduce.FaultHook) (*Result, int64) {
		cfg := Config{Strategy: core.PairRange{}, Attr: "title", BlockKey: blocking.NormalizedPrefix(1), R: 4,
			PreparedMatcher: match.EditDistance("title", 0.6)}
		cfg.Engine = &mapreduce.Engine{Parallelism: 3, FaultHook: hook, Retry: mapreduce.RetryPolicy{BaseBackoff: 1}}
		res, err := RunPipeline(context.Background(), FromPartitions(parts), cfg)
		if err != nil {
			t.Fatal(err)
		}
		reduceRetries := res.MatchResult.Retries
		for _, m := range []*mapreduce.Metrics{&res.BDMResult.Metrics, &res.MatchResult.Metrics} {
			m.Attempts, m.Retries = 0, 0
		}
		return res, reduceRetries
	}
	want, _ := run(nil)
	if len(want.Matches) == 0 {
		t.Fatal("differential vacuous, no matches")
	}
	got, retries := run(mapreduce.ChaosHook(17, 0.3, 0))
	if retries == 0 {
		t.Fatal("chaos seed never failed a match-job attempt")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("chaotic run diverges from the fault-free run")
	}
}
