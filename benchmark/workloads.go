package main

// The flags every workload shares: four map tasks, sixteen reduce
// tasks, the paper's match rule and blocking key, CSV output.
const (
	mapTasks    = 4
	reduceTasks = 16
	threshold   = 0.8
	prefixLen   = 3
	titleAttr   = "title"
	distWorkers = 2
	// spillBudgetBytes is flat-spill's -spill-budget, 256k: small enough
	// that every map task writes several runs.
	spillBudgetBytes = 256 << 10
)

// workload is one named way of running ermatch over one dataset.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same line).
	why string
	// dataset is "skew" or "flat".
	dataset string
	// strategy is ermatch's -strategy value.
	strategy    string
	parallelism int
	// spillBudget is ermatch's -spill-budget in bytes; 0 runs in memory.
	spillBudget int64
	// dist runs ermatch as a master with two erworker children.
	dist bool
}

// workloads lists the seven in the order they are reported. Each pair
// that shares a dataset differs in one thing, so a change that moves
// one and not the other names its layer.
var workloads = []workload{
	{
		name: "skew-blocksplit", dataset: "skew", strategy: "blocksplit", parallelism: 1,
		why: "single-thread baseline on DS1-like skew: 20 M pairs, kernel and pair enumeration dominate",
	},
	{
		name: "skew-pairrange", dataset: "skew", strategy: "pairrange", parallelism: 1,
		why: "same kernel, other planner and reducer: a kernel gain shows on both, a strategy gain on one",
	},
	{
		name: "skew-basic-par", dataset: "skew", strategy: "basic", parallelism: 2,
		why: "the paper's baseline: no BDM job, one reduce task holds 71 % of the pairs and is the critical path",
	},
	{
		name: "skew-blocksplit-par", dataset: "skew", strategy: "blocksplit", parallelism: 2,
		why: "the paper's result set against skew-basic-par: the only pair a balance change can show on",
	},
	{
		name: "flat-mem", dataset: "flat", strategy: "blocksplit", parallelism: 1,
		why: "many records, few pairs: ingest, the BDM job and the engine's sort and merge do most of the work, not the kernel",
	},
	{
		name: "flat-spill", dataset: "flat", strategy: "blocksplit", parallelism: 1, spillBudget: spillBudgetBytes,
		why: "flat-mem forced out of core: several ERN1 runs per map task, so runio and the external merge do the work",
	},
	{
		name: "flat-dist", dataset: "flat", strategy: "blocksplit", parallelism: 2, dist: true,
		why: "flat-mem through a master and two worker processes: dist dispatch, input shipping, ERN1 over HTTP Range",
	},
}

// findWorkload returns the named workload, or nil.
func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
