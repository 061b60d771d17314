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

// plainEditDistance is the serial reference's matcher: the DP
// Levenshtein similarity, written out without any of the kernels' filters.
// Its decisions and similarity floats equal match.EditDistance's (both
// compute 1 - dist/longest in float64).
func plainEditDistance(threshold float64) core.PairFunc {
	return func(a, b string) (float64, bool) {
		if sim := similarity.LevenshteinSimilarity(a, b); sim >= threshold {
			return sim, true
		}
		return 0, false
	}
}

// thresholderPairs is the per-pair row of the differentials: a
// core.PairFunc over similarity.Thresholder.Match, the kernel
// match.EditDistance's block decides a column at a time.
func thresholderPairs(threshold float64) core.PairFunc {
	th := similarity.NewThresholder(threshold)
	return func(a, b string) (float64, bool) {
		return th.Match(similarity.Prepare(a), similarity.Prepare(b))
	}
}

// TestPreparedMatcherDifferential: match.EditDistance's native block
// produces bit-identical Matches and Comparisons to the per-pair
// Thresholder row and to the serial reference on random datasets across
// all three strategies and several (m, r) shapes.
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

		serial, serialComps := SerialMatch(es, "title", key, plainEditDistance(th))
		for _, strat := range strategies {
			base := Config{
				Strategy: strat,
				Attr:     "title",
				BlockKey: key,
				R:        r,
			}
			plainCfg := base
			plainCfg.Matcher = thresholderPairs(th)
			blockCfg := base
			blockCfg.Matcher = match.EditDistance("title", th)

			plainRes, err := RunPipeline(context.Background(), FromPartitions(parts), plainCfg)
			if err != nil {
				t.Fatalf("%s per-pair: %v", strat.Name(), err)
			}
			blockRes, err := RunPipeline(context.Background(), FromPartitions(parts), blockCfg)
			if err != nil {
				t.Fatalf("%s block: %v", strat.Name(), err)
			}
			if !reflect.DeepEqual(plainRes.Matches, blockRes.Matches) {
				t.Fatalf("%s m=%d r=%d th=%v: block Matches differ from per-pair\nper-pair: %v\nblock:    %v",
					strat.Name(), m, r, th, plainRes.Matches, blockRes.Matches)
			}
			if plainRes.Comparisons != blockRes.Comparisons {
				t.Fatalf("%s m=%d r=%d th=%v: block Comparisons = %d, per-pair = %d",
					strat.Name(), m, r, th, blockRes.Comparisons, plainRes.Comparisons)
			}
			if !reflect.DeepEqual(blockRes.Matches, serial) || blockRes.Comparisons != serialComps {
				t.Fatalf("%s m=%d r=%d th=%v: block result disagrees with serial reference",
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
				Matcher: thresholderPairs(0.6), R: 4,
			})
		if err != nil {
			t.Fatalf("%s per-pair: %v", strat.Name(), err)
		}
		blockRes, err := RunDualPipeline(context.Background(), FromPartitions(entity.SplitRoundRobin(rsrc, 2)), FromPartitions(entity.SplitRoundRobin(ssrc, 3)),
			Config{
				Strategy: strat, Attr: "title", BlockKey: key,
				Matcher: match.EditDistance("title", 0.6), R: 4,
			})
		if err != nil {
			t.Fatalf("%s block: %v", strat.Name(), err)
		}
		if !reflect.DeepEqual(plainRes.Matches, blockRes.Matches) ||
			plainRes.Comparisons != blockRes.Comparisons {
			t.Fatalf("%s: block dual result differs from per-pair", strat.Name())
		}
	}
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
// path is the same path for both kinds of core.Matcher: the native
// structure-of-arrays block of match.EditDistance and a core.PairFunc
// over similarity.Thresholder.Match produce the serial reference's
// matches and comparisons and identical full Results — similarities in
// emit order and every TaskMetrics field — for every strategy over one
// source and, where it uses the BDM, two, on the typed and the external
// dataflow.
func TestBlockKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1313))
	es := mixedEntities(rng, 220)
	key := blocking.NormalizedPrefix(1)
	const th = 0.6
	forms := []struct {
		name string
		m    core.Matcher
	}{
		{"native block", match.EditDistance("title", th)},
		{"PairFunc over Thresholder.Match", thresholderPairs(th)},
	}
	type input struct {
		run    func(cfg Config) (*Result, error)
		serial func() ([]core.MatchPair, int64)
	}
	inputs := map[string]input{
		"one source": {
			run: func(cfg Config) (*Result, error) {
				return RunPipeline(context.Background(), FromPartitions(entity.SplitRoundRobin(es, 4)), cfg)
			},
			serial: func() ([]core.MatchPair, int64) {
				return SerialMatch(es, "title", key, plainEditDistance(th))
			},
		},
		"two sources": {
			run: func(cfg Config) (*Result, error) {
				return RunDualPipeline(context.Background(),
					FromPartitions(entity.SplitRoundRobin(es[:130], 2)), FromPartitions(entity.SplitRoundRobin(es[130:], 3)), cfg)
			},
			serial: func() ([]core.MatchPair, int64) {
				return SerialMatchDual(es[:130], es[130:], "title", key, plainEditDistance(th))
			},
		},
	}
	for ename, newEngine := range blockKernelEngines(t) {
		for _, strat := range []core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}} {
			for iname, in := range inputs {
				if iname == "two sources" && !strat.NeedsBDM() {
					continue
				}
				serial, serialComps := in.serial()
				if len(serial) == 0 {
					t.Fatalf("%s/%s/%s: differential vacuous, no matches", ename, strat.Name(), iname)
				}
				var want *Result
				for _, f := range forms {
					cfg := Config{Strategy: strat, Attr: "title", BlockKey: key, R: 5, Matcher: f.m}
					cfg.Engine = newEngine()
					got, err := in.run(cfg)
					if err != nil {
						t.Fatalf("%s/%s/%s/%s: %v", ename, strat.Name(), iname, f.name, err)
					}
					if !reflect.DeepEqual(got.Matches, serial) || got.Comparisons != serialComps {
						t.Fatalf("%s/%s/%s: %s disagrees with the serial reference", ename, strat.Name(), iname, f.name)
					}
					if want == nil {
						want = got
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
			Matcher: match.EditDistance("title", 0.6)}
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
