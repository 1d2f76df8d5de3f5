package cluster

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"kanon/internal/fault"
	"kanon/internal/obs"
	"kanon/internal/par"
	"kanon/internal/table"
)

// Observability phases of the engine (obs.KindPhaseStart/End); the
// partitioned pipeline re-enters them once per chunk.
const (
	// PhaseInit is singleton construction plus the initial O(n²)
	// nearest-neighbour build.
	PhaseInit = "cluster.init"
	// PhaseMerge is the main merge loop, including nearest-neighbour repair.
	PhaseMerge = "cluster.merge"
	// PhaseAbsorb is the final leftover-absorption pass.
	PhaseAbsorb = "cluster.absorb"
)

// Fault-injection sites of the engine (see internal/fault). Each doubles as
// a cancellation checkpoint: the engine polls its context at exactly these
// boundaries, so an injected Cancel at a site proves the corresponding
// check.
const (
	// SiteInitScan fires once per record of the initial O(n²)
	// nearest-neighbour build.
	SiteInitScan = "cluster.agglo.init"
	// SiteInitTile fires once per (record-block, candidate-tile) cell of the
	// tiled initial build on the lazy heap path (DESIGN.md §17); the
	// reference path never reaches it.
	SiteInitTile = "cluster.agglo.init_tile"
	// SiteMerge fires once per merge iteration of the main loop.
	SiteMerge = "cluster.agglo.merge"
	// SiteHeapRepair fires once per lazy pop-time heal: a heap entry popped
	// fresh whose cached nearest neighbour has since died, forcing its
	// owner's list to prune, possibly rescan, and re-push (DESIGN.md §17).
	// Like every site it doubles as a cancellation poll.
	SiteHeapRepair = "cluster.agglo.heap_repair"
	// SiteAbsorb fires once per leftover record absorbed in the final pass.
	SiteAbsorb = "cluster.agglo.absorb"
)

// AggloOptions configures the agglomerative engine.
type AggloOptions struct {
	// K is the minimum final cluster size (the anonymity parameter).
	K int
	// Distance is the inter-cluster distance; one of the Section V-A.2
	// functions, typically D3 or D4.
	Distance Distance
	// Modified enables the Algorithm 2 refinement: ripe clusters are shrunk
	// back to exactly K members, re-seeding the removed records as
	// singletons.
	Modified bool

	// Constraints, when non-empty, additionally requires every final
	// cluster to satisfy each constraint over the Sensitive column —
	// distinct/entropy/recursive ℓ-diversity or t-closeness (constraint.go),
	// which Section II of the paper marks as natural extensions of the
	// framework. Sensitive must then hold one value per record (a
	// non-negative value id). Nil and Trivial() entries are ignored.
	Constraints []Constraint
	Sensitive   []int

	// Workers caps the engine's worker pool: 1 forces the purely sequential
	// path, 0 (the default) sizes the pool to runtime.NumCPU(). Sharding is
	// deterministic and every tie is broken toward the lowest cluster id,
	// so any worker count produces the identical clustering.
	Workers int

	// NoKernel disables the flat distance kernel (the precomputed LCA-cost
	// tables, the closure arena and the devirtualized distance switch of
	// kernel.go), forcing the reference per-cluster evaluation path. The
	// clustering is byte-identical either way; the flag is the escape
	// hatch exposed as `-kernel=off` on the CLIs and the reference side of
	// the kernel equivalence harness.
	NoKernel bool
}

// AggloStats reports the work an engine run performed and where its wall
// time went, so speedups are measurable rather than anecdotal.
type AggloStats struct {
	// Workers is the resolved worker-pool size of the run.
	Workers int `json:"workers"`
	// DistEvals counts inter-cluster distance evaluations, the engine's
	// unit of work; it is identical at every worker count.
	DistEvals int64 `json:"dist_evals"`
	// Merges counts cluster merges (iterations of the main loop).
	Merges int64 `json:"merges"`
	// RepairScans counts full nearest-neighbour rescans — a cluster
	// re-deriving its cached neighbours over every live cluster, the
	// engine's rare slow path. On the reference path these are the
	// both-neighbours-died sweeps; on the lazy path RepairScans equals
	// DeadNNRescans.
	RepairScans int64 `json:"repair_scans"`
	// HeapPushes counts candidate entries pushed onto the lazy selection
	// heap (DESIGN.md §17): one per initial row list, two per newborn
	// (row + column), one per pop-time heal. Zero on the reference
	// (NoKernel) path. Worker-invariant.
	HeapPushes int64 `json:"heap_pushes"`
	// StalePops counts heap entries discarded at pop because their
	// generation tag no longer matched the owning list's — the lazy path's
	// deferred invalidation work. Worker-invariant.
	StalePops int64 `json:"stale_pops"`
	// DeadNNRescans counts pop-time full rescans: a fresh heap entry whose
	// cached neighbour died with the rest of its list dead or undercut by
	// the list's discard bound. Worker-invariant.
	DeadNNRescans int64 `json:"dead_nn_rescans"`
	// TilesScanned counts fixed-size candidate tiles walked by the tiled
	// initial build, the newborn-offer pass and single-cluster rescans.
	// Worker-invariant (tile geometry depends only on sizes, not sharding).
	TilesScanned int64 `json:"tiles_scanned"`
	// InitNanos is the wall time of singleton construction plus the initial
	// O(n²) nearest-neighbour build.
	InitNanos int64 `json:"init_ns"`
	// SelectNanos is the wall time of best-pair selection and merge/shrink
	// bookkeeping across all iterations.
	SelectNanos int64 `json:"select_ns"`
	// RepairNanos is the wall time of nearest-neighbour repair across all
	// iterations.
	RepairNanos int64 `json:"repair_ns"`
	// AbsorbNanos is the wall time of the final leftover-absorption pass.
	AbsorbNanos int64 `json:"absorb_ns"`
}

// TotalNanos returns the summed phase wall time.
func (st AggloStats) TotalNanos() int64 {
	return st.InitNanos + st.SelectNanos + st.RepairNanos + st.AbsorbNanos
}

// AgglomerateCtx runs the basic agglomerative algorithm (Algorithm 1) —
// or, when opt.Modified is set, the modified agglomerative algorithm
// (Algorithm 2) — and returns the final clustering γ: disjoint clusters
// covering all records, each of size ≥ K (exactly K for all but the
// leftover-absorbing clusters in the modified variant), together with the
// engine's work counters and phase timings.
//
// The engine polls ctx at every scan, merge and absorb boundary (the Site*
// constants); once ctx is done it stops promptly, drains its worker pool,
// and returns ctx.Err() with a nil clustering — never partial output. A nil
// ctx disables cancellation.
func AgglomerateCtx(ctx context.Context, s *Space, tbl *table.Table, opt AggloOptions) ([]*Cluster, AggloStats, error) {
	stats := AggloStats{Workers: par.Workers(opt.Workers)}
	n := tbl.Len()
	if opt.Distance == nil {
		return nil, stats, fmt.Errorf("cluster: nil distance")
	}
	if opt.K > n {
		return nil, stats, fmt.Errorf("cluster: k=%d exceeds table size n=%d", opt.K, n)
	}
	active := opt.Constraints[:0:0]
	for _, c := range opt.Constraints {
		if c != nil && !c.Trivial() {
			active = append(active, c)
		}
	}
	var bound []Bound
	if len(active) > 0 {
		if len(opt.Sensitive) != n {
			return nil, stats, fmt.Errorf("cluster: %d sensitive values for %d records", len(opt.Sensitive), n)
		}
		bound = make([]Bound, len(active))
		for i, c := range active {
			b, err := c.Bind(opt.Sensitive)
			if err != nil {
				return nil, stats, err
			}
			bound[i] = b
		}
	}
	if n == 0 {
		return nil, stats, nil
	}
	if opt.K <= 1 && len(bound) == 0 {
		// Every singleton already satisfies the size constraint; the optimal
		// clustering is the identity.
		out := make([]*Cluster, n)
		for i := 0; i < n; i++ {
			out[i] = s.NewSingleton(tbl, i)
		}
		return out, stats, nil
	}

	if par.Done(ctx) {
		return nil, stats, ctx.Err()
	}
	e := &aggloEngine{s: s, tbl: tbl, opt: opt, ctx: ctx, o: obs.From(ctx), cons: bound}
	for _, b := range bound {
		if !b.AdditionSafe() {
			e.guardAbsorb = true
		}
	}
	if !opt.NoKernel {
		e.kern = newKernel(s, opt.Distance)
	}
	if err := e.run(); err != nil {
		e.stats.Workers = stats.Workers
		return nil, e.stats, err
	}
	e.stats.Workers = stats.Workers
	return e.final, e.stats, nil
}

// Work-sharding grains: the minimum number of items per span before a loop
// is handed to the pool. Items of the initial build are whole O(n) scans
// (always worth sharding); repair-sweep and wide-scan items are a handful
// of distance evaluations; selection items are single float compares.
// Grains only trade dispatch overhead against parallelism — the result is
// identical either way.
const (
	initScanGrain = 1
	repairGrain   = 192
	wideScanGrain = 384
	selectGrain   = 2048
)

// aggloEngine maintains, for every live cluster, its exact nearest live
// neighbour (nn1) plus a cached second-nearest (nn2) that is either exact
// or marked unknown. Cluster closures are immutable once formed, so
// distances between untouched clusters never change; on a merge only the
// two dead clusters and the newborn affect the structure:
//
//   - a cluster whose nn1 died promotes its nn2 (the exact runner-up),
//     leaving nn2 unknown;
//   - a cluster whose nn1 survived but whose nn2 died just forgets nn2;
//   - a cluster that lost both rescans — the rare case;
//   - the newborn is then offered to everyone as a candidate nn1/nn2.
//
// This keeps every merge at O(live·r) even when one cluster is the nearest
// neighbour of everyone (the typical regime under distances (10) and (11)),
// for the paper's O(n²) total.
//
// Parallel execution shards three loops over the worker pool, all with
// deterministic lowest-id tie-breaking so any worker count reproduces the
// sequential clustering exactly:
//
//   - the initial nearest-neighbour build (one scan per record);
//   - the per-merge repair sweep (per-cluster fix-ups, writes confined to
//     each cluster's own nn slots);
//   - single-cluster rescans and best-pair selection, which are
//     min-reductions: every span reports its local best(s) and the spans
//     are folded in ascending id order with strict-< comparisons,
//     reproducing the sequential left-to-right scan.
//
// With the kernel armed the engine instead runs the lazy NN-heap of
// lazynn.go (DESIGN.md §17): every cluster carries fixed-depth
// nearest-neighbour caches built once at birth, selection pops a
// (d, row, wit)-keyed min-heap with generation-tagged staleness checks and
// pop-time healing, and a merge touches no cluster beyond its newborns —
// whose caches are built by one tiled pass over the dense live list. The
// clustering is byte-identical to the reference path: both select the same
// lexicographic (d1, id, nn) minimum at every step.
type aggloEngine struct {
	s   *Space
	tbl *table.Table
	opt AggloOptions

	// ctx, when non-nil, is polled at scan/merge/absorb boundaries; a done
	// context makes run return ctx.Err() with no partial output.
	ctx context.Context

	// o is the run's observability handle, extracted once at entry; nil
	// (the common case) disables every emission at the cost of one branch.
	o *obs.Run

	pool *par.Pool

	// kern, when non-nil, is the flat distance kernel (kernel.go): cluster
	// closures live in its arena instead of nodes[i].Closure, membership is
	// tracked by the mHead/mTail/mNext chains, and nodes[i] stays nil until
	// a cluster is materialized as final. When nil (AggloOptions.NoKernel)
	// the engine runs the reference per-cluster path unchanged.
	kern *kernel

	nodes []*Cluster
	alive []bool
	nLive int

	// Member chains (kernel mode): cluster id's members are the record
	// indices mHead[id], mNext[mHead[id]], … through mTail[id]. Merging
	// concatenates chains in O(1) with no allocation, preserving the exact
	// a-then-b member order of the reference Space.Merge.
	mHead, mTail []int32
	mNext        []int32

	nn1, nn2 []int // -1: none/unknown
	d1, d2   []float64

	// Per-span scratch, reused across pool calls (one call in flight at a
	// time): fold inputs for wide scans and selection, and per-span
	// distance-evaluation counts.
	spanCand  []nnCand
	spanBest  []int
	spanBestD []float64
	spanEvals []int64
	needScan  []bool

	// Lazy NN-heap selection state (kernel mode only; DESIGN.md §17).
	// rowNN[i]/colNN[i] are cluster i's birth-time nearest-neighbour caches
	// (lazynn.go); rowGen/colGen are their generation tags, bumped on every
	// heal-and-repush and on kill so stale heap entries discard O(1) at
	// pop. nnHeap holds at most one fresh entry per list under the total
	// key (d, row, wit, kind, gen). liveList is the dense list of live ids
	// (livePos its inverse, swap-remove on kill): the tiled passes iterate
	// it instead of scanning the whole arena past dead slots.
	lazy     bool
	nnHeap   []heapEnt
	rowNN    []nnList
	colNN    []nnList
	rowGen   []uint32
	colGen   []uint32
	liveList []int32
	livePos  []int32

	// Per-span scratch of the lazy path's sharded list builds: the initial
	// build's cross-span partial rows, and one row/column partial list per
	// span for newborn passes and rescans.
	spanInitPart [][]nnList
	spanRowList  []nnList
	spanColList  []nnList

	// Kernel-mode scratch, reused across merges: the newborn-id list of
	// each merge and the shrink prefix/suffix closure slabs.
	addedScratch []int
	shrinkPre    []int32
	shrinkSuf    []int32

	// cons holds the run's bound privacy constraints (empty when
	// unconstrained). Constraint state is mutated only on the driving
	// goroutine — merge validity checks, shrink eviction gates and absorb
	// admissibility all run between pool calls — so pool workers never see
	// it. guardAbsorb is set when any bound is not addition-safe, arming
	// the constraint-aware absorb path.
	cons        []Bound
	guardAbsorb bool

	distEvals atomic.Int64
	// shrinkEvals counts the distance evaluations of the Algorithm 2
	// shrink step, which evaluate no LCAs; subtracting them from DistEvals
	// yields the kernel's per-attribute resolution count for the
	// table-hit/fallback-walk counters. Driving goroutine only.
	shrinkEvals int64
	stats       AggloStats

	final []*Cluster
}

// nnCand is an exact top-2 nearest-neighbour result over some id range.
type nnCand struct {
	nn1, nn2 int
	d1, d2   float64
}

// cancelled reports whether the engine's context is done.
func (e *aggloEngine) cancelled() bool {
	return par.Done(e.ctx)
}

func (e *aggloEngine) run() error {
	n := e.tbl.Len()
	e.pool = par.New(e.opt.Workers)
	defer e.pool.Close()
	w := e.pool.Size()
	e.spanCand = make([]nnCand, w)
	e.spanBest = make([]int, w)
	e.spanBestD = make([]float64, w)
	e.spanEvals = make([]int64, w)
	// The lazy heap path rides on the kernel arena's flat closures; the
	// reference (NoKernel) engine keeps the legacy sweep so the equivalence
	// matrix retains an independent oracle.
	e.lazy = e.kern != nil
	if e.lazy {
		e.spanInitPart = make([][]nnList, w)
		e.spanRowList = make([]nnList, w)
		e.spanColList = make([]nnList, w)
	}

	t0 := time.Now() //kanon:allow determinism -- phase wall-clock feeds Stats timing only, never engine output
	endInit := e.o.Phase(PhaseInit)
	e.nodes = make([]*Cluster, 0, 2*n)
	e.alive = make([]bool, 0, 2*n)
	e.nn1 = make([]int, 0, 2*n)
	e.nn2 = make([]int, 0, 2*n)
	e.d1 = make([]float64, 0, 2*n)
	e.d2 = make([]float64, 0, 2*n)
	if e.lazy {
		e.rowNN = make([]nnList, 0, 2*n)
		e.colNN = make([]nnList, 0, 2*n)
		e.rowGen = make([]uint32, 0, 2*n)
		e.colGen = make([]uint32, 0, 2*n)
		e.livePos = make([]int32, 0, 2*n)
		e.liveList = make([]int32, 0, n)
		e.nnHeap = make([]heapEnt, 0, 2*n)
	}
	if e.kern != nil {
		e.kern.reserve(2*n, n)
		e.mHead = make([]int32, 0, 2*n)
		e.mTail = make([]int32, 0, 2*n)
		e.mNext = make([]int32, n)
		for i := 0; i < n; i++ {
			e.pushSingletonK(i)
		}
	} else {
		for i := 0; i < n; i++ {
			e.push(e.s.NewSingleton(e.tbl, i))
		}
	}
	// Initial nearest-neighbour build. The lazy path blocks it into
	// cache-sized tiles over the kernel arena and seeds the selection heap;
	// the reference path runs one independent scan per cluster. Either way
	// every record is a cancellation checkpoint, bounding the engine's
	// reaction latency to one block or scan per worker.
	var err error
	if e.lazy {
		err = e.buildNNTiled(n)
	} else {
		_, err = e.pool.ForSpansCtx(e.ctx, n, initScanGrain, func(lo, hi, _ int) {
			evals := int64(0)
			for i := lo; i < hi; i++ {
				if e.cancelled() {
					break
				}
				fault.Inject(SiteInitScan)
				ev := e.scanNN(i)
				evals += ev
				e.o.Event(obs.KindScan, PhaseInit, ev)
			}
			e.distEvals.Add(evals)
		})
	}
	e.stats.InitNanos = time.Since(t0).Nanoseconds()
	endInit()
	if err != nil {
		return err
	}

	endMerge := e.o.Phase(PhaseMerge)
	e.o.Peak("cluster.live_peak", int64(e.nLive))
	for e.nLive > 1 {
		if e.cancelled() {
			endMerge()
			return e.ctx.Err()
		}
		fault.Inject(SiteMerge)
		tSel := time.Now() //kanon:allow determinism -- phase wall-clock feeds Stats timing only, never engine output
		var best int
		if e.lazy {
			best = e.selectPairHeap()
			if e.cancelled() {
				endMerge()
				return e.ctx.Err()
			}
		} else {
			best = e.bestLive()
		}
		if best < 0 {
			break // defensive: cannot happen with nLive > 1
		}
		a, b := best, e.nn1[best]
		added := e.addedScratch[:0]
		var mergedSize int
		if e.kern != nil {
			added, mergedSize = e.mergeK(a, b, added)
		} else {
			merged := e.s.Merge(e.nodes[a], e.nodes[b])
			mergedSize = merged.Size()
			e.kill(a)
			e.kill(b)
			if merged.Size() >= e.opt.K && e.constraintsOK(merged.Members) {
				if e.opt.Modified && merged.Size() > e.opt.K {
					removed := e.shrink(merged)
					for _, ri := range removed {
						added = append(added, e.push(e.s.NewSingleton(e.tbl, ri)))
					}
				}
				e.final = append(e.final, merged)
			} else {
				added = append(added, e.push(merged))
			}
		}
		e.addedScratch = added[:0]
		tRep := time.Now() //kanon:allow determinism -- phase wall-clock feeds Stats timing only, never engine output
		e.stats.SelectNanos += tRep.Sub(tSel).Nanoseconds()
		if e.lazy {
			e.repairHeap(added)
		} else {
			e.repairNN(a, b, added)
		}
		e.stats.RepairNanos += time.Since(tRep).Nanoseconds()
		e.stats.Merges++
		e.o.Event(obs.KindMerge, PhaseMerge, int64(mergedSize))
		e.o.Peak("cluster.live_peak", int64(e.nLive))
	}
	endMerge()

	// At most one undersized cluster remains; distribute its records to the
	// nearest final clusters (Algorithm 1, line 10).
	tAbs := time.Now() //kanon:allow determinism -- phase wall-clock feeds Stats timing only, never engine output
	endAbsorb := e.o.Phase(PhaseAbsorb)
	absorbed := int64(0)
	for i, ok := range e.alive {
		if !ok {
			continue
		}
		if e.kern != nil {
			for ri := e.mHead[i]; ri >= 0; ri = e.mNext[ri] {
				if e.cancelled() {
					endAbsorb()
					return e.ctx.Err()
				}
				fault.Inject(SiteAbsorb)
				e.absorbK(int(ri))
				absorbed++
			}
		} else {
			for _, ri := range e.nodes[i].Members {
				if e.cancelled() {
					endAbsorb()
					return e.ctx.Err()
				}
				fault.Inject(SiteAbsorb)
				e.absorb(ri)
				absorbed++
			}
		}
	}
	e.stats.AbsorbNanos = time.Since(tAbs).Nanoseconds()
	e.stats.DistEvals = e.distEvals.Load()
	endAbsorb()
	if e.o.Enabled() {
		e.o.Counter("cluster.dist_evals", e.stats.DistEvals)
		e.o.Counter("cluster.merges", e.stats.Merges)
		e.o.Counter("cluster.repair_scans", e.stats.RepairScans)
		e.o.Counter("cluster.absorbs", absorbed)
		if e.lazy {
			// Lazy-heap work counters (DESIGN.md §17); all maintained on the
			// driving goroutine over worker-invariant quantities.
			e.o.Counter(obs.CounterHeapPushes, e.stats.HeapPushes)
			e.o.Counter(obs.CounterStalePops, e.stats.StalePops)
			e.o.Counter(obs.CounterDeadNNRescans, e.stats.DeadNNRescans)
			e.o.Counter(obs.CounterTilesScanned, e.stats.TilesScanned)
		}
		if k := e.kern; k != nil {
			// Every non-shrink distance evaluation resolves r per-attribute
			// LCA costs, each served by a fused table or a fallback walk;
			// both derived counts are worker-count invariant because
			// DistEvals is.
			lcaEvals := e.stats.DistEvals - e.shrinkEvals
			e.o.Counter(obs.CounterKernelTableHits, lcaEvals*int64(k.tabled))
			e.o.Counter(obs.CounterKernelFallbackWalks, lcaEvals*int64(k.walked))
			e.o.Counter(obs.CounterKernelArenaReuses, k.reuses)
			e.o.Peak(obs.PeakKernelArenaRows, int64(k.peakRows))
		}
		ps := e.pool.Stats()
		e.o.Sched("pool.size", int64(e.pool.Size()))
		e.o.Sched("pool.spans", ps.Spans)
		e.o.Sched("pool.helper_tasks", ps.HelperTasks)
		e.o.Sched("pool.inline_tasks", ps.InlineTasks)
	}
	if e.cancelled() {
		return e.ctx.Err()
	}
	return nil
}

// push appends a cluster to the arena as live and returns its id.
func (e *aggloEngine) push(c *Cluster) int {
	id := len(e.nodes)
	e.nodes = append(e.nodes, c)
	e.alive = append(e.alive, true)
	e.nn1 = append(e.nn1, -1)
	e.nn2 = append(e.nn2, -1)
	e.d1 = append(e.d1, math.Inf(1))
	e.d2 = append(e.d2, math.Inf(1))
	e.nLive++
	if e.lazy {
		e.rowNN = append(e.rowNN, nnList{})
		e.colNN = append(e.colNN, nnList{})
		e.rowNN[id].reset()
		e.colNN[id].reset()
		e.rowGen = append(e.rowGen, 0)
		e.colGen = append(e.colGen, 0)
		e.livePos = append(e.livePos, int32(len(e.liveList)))
		e.liveList = append(e.liveList, int32(id))
	}
	return id
}

func (e *aggloEngine) kill(id int) {
	if e.alive[id] {
		e.alive[id] = false
		e.nLive--
		if e.lazy {
			// The gen bumps stale both of id's heap entries in O(1); the dense
			// live list drops it by swap-remove (order is irrelevant — every
			// fold over the list uses explicit lexicographic comparisons).
			e.rowGen[id]++
			e.colGen[id]++
			p := e.livePos[id]
			last := int32(len(e.liveList) - 1)
			moved := e.liveList[last]
			e.liveList[p] = moved
			e.livePos[moved] = p
			e.liveList = e.liveList[:last]
			e.livePos[id] = -1
		}
		if e.kern != nil {
			e.kern.kill(id)
		}
	}
}

// dist evaluates dist(A, B) for clusters a, b without allocating. It reads
// only immutable state (closures, hierarchies, cost tables) and is safe to
// call from pool workers. With the kernel armed it streams two arena rows
// through the fused LCA-cost tables; the reference path below walks the
// per-cluster GenRecords and dispatches through the Distance interface.
func (e *aggloEngine) dist(a, b int) float64 {
	if e.kern != nil {
		return e.kern.dist(a, b)
	}
	ca, cb := e.nodes[a], e.nodes[b]
	r := e.s.NumAttrs()
	sum := 0.0
	for j := 0; j < r; j++ {
		node := e.s.Hiers[j].LCA(ca.Closure[j], cb.Closure[j])
		sum += e.s.CostAt(j, node)
	}
	dU := sum / float64(r)
	return e.opt.Distance.Eval(ca.Size(), cb.Size(), ca.Size()+cb.Size(), ca.Cost, cb.Cost, dU)
}

// bestLive returns the live cluster minimizing d1, ties broken toward the
// lowest id — exactly the left-to-right sequential argmin.
func (e *aggloEngine) bestLive() int {
	m := len(e.nodes)
	if e.pool.Size() <= 1 || m < 2*selectGrain {
		best, bestDist := -1, math.Inf(1)
		for i := 0; i < m; i++ {
			if e.alive[i] && e.nn1[i] >= 0 && e.d1[i] < bestDist {
				best, bestDist = i, e.d1[i]
			}
		}
		return best
	}
	spans, _ := e.pool.ForSpansCtx(nil, m, selectGrain, func(lo, hi, w int) {
		best, bestDist := -1, math.Inf(1)
		for i := lo; i < hi; i++ {
			if e.alive[i] && e.nn1[i] >= 0 && e.d1[i] < bestDist {
				best, bestDist = i, e.d1[i]
			}
		}
		e.spanBest[w], e.spanBestD[w] = best, bestDist
	})
	// Fold in ascending span order with strict < so ties keep the lowest id.
	best, bestDist := -1, math.Inf(1)
	for w := 0; w < spans; w++ {
		if e.spanBest[w] >= 0 && e.spanBestD[w] < bestDist {
			best, bestDist = e.spanBest[w], e.spanBestD[w]
		}
	}
	return best
}

// scanRange computes i's exact top-2 nearest neighbours among live clusters
// with ids in [lo, hi), excluding i itself, plus the number of distance
// evaluations spent. Ties go to the lowest id: the top-2 are minimal under
// the lexicographic order (distance, id).
func (e *aggloEngine) scanRange(i, lo, hi int) (nnCand, int64) {
	c := nnCand{nn1: -1, nn2: -1, d1: math.Inf(1), d2: math.Inf(1)}
	evals := int64(0)
	for j := lo; j < hi; j++ {
		if !e.alive[j] || j == i {
			continue
		}
		d := e.dist(i, j)
		evals++
		switch {
		case d < c.d1:
			c.nn2, c.d2 = c.nn1, c.d1
			c.nn1, c.d1 = j, d
		case d < c.d2:
			c.nn2, c.d2 = j, d
		}
	}
	return c, evals
}

// scanNN rescans all live clusters to find i's nearest and second-nearest
// neighbours exactly, sequentially, returning the distance evaluations
// spent. It writes only i's nn slots.
func (e *aggloEngine) scanNN(i int) int64 {
	if !e.alive[i] {
		e.nn1[i], e.d1[i] = -1, math.Inf(1)
		e.nn2[i], e.d2[i] = -1, math.Inf(1)
		return 0
	}
	c, evals := e.scanRange(i, 0, len(e.nodes))
	e.nn1[i], e.d1[i] = c.nn1, c.d1
	e.nn2[i], e.d2[i] = c.nn2, c.d2
	return evals
}

// scanNNWide is scanNN with the id range sharded across the pool. Each span
// reports its local top-2; the spans are folded in ascending order, so for
// equal distances the candidate with the lowest id is inserted first and
// strict-< comparisons reproduce the sequential scan bit for bit.
func (e *aggloEngine) scanNNWide(i int) {
	m := len(e.nodes)
	if e.pool.Size() <= 1 || m < 2*wideScanGrain {
		ev := e.scanNN(i)
		e.distEvals.Add(ev)
		e.o.Event(obs.KindScan, PhaseMerge, ev)
		return
	}
	if !e.alive[i] {
		e.nn1[i], e.d1[i] = -1, math.Inf(1)
		e.nn2[i], e.d2[i] = -1, math.Inf(1)
		e.o.Event(obs.KindScan, PhaseMerge, 0)
		return
	}
	spans, _ := e.pool.ForSpansCtx(nil, m, wideScanGrain, func(lo, hi, w int) {
		e.spanCand[w], e.spanEvals[w] = e.scanRange(i, lo, hi)
	})
	best := nnCand{nn1: -1, nn2: -1, d1: math.Inf(1), d2: math.Inf(1)}
	evals := int64(0)
	for w := 0; w < spans; w++ {
		evals += e.spanEvals[w]
		sc := e.spanCand[w]
		for _, cand := range [2]struct {
			j int
			d float64
		}{{sc.nn1, sc.d1}, {sc.nn2, sc.d2}} {
			if cand.j < 0 {
				continue
			}
			switch {
			case cand.d < best.d1:
				best.nn2, best.d2 = best.nn1, best.d1
				best.nn1, best.d1 = cand.j, cand.d
			case cand.d < best.d2:
				best.nn2, best.d2 = cand.j, cand.d
			}
		}
	}
	e.nn1[i], e.d1[i] = best.nn1, best.d1
	e.nn2[i], e.d2[i] = best.nn2, best.d2
	e.distEvals.Add(evals)
	e.o.Event(obs.KindScan, PhaseMerge, evals)
}

// repairNN restores the nearest-neighbour invariant after clusters a and b
// died and the clusters in added were born. The per-cluster fix-up sweep is
// sharded across the pool — each cluster's update reads shared immutable
// state and writes only its own nn slots — and the full rescans that
// double-loss clusters and newborns require run afterwards in ascending id
// order, each itself sharded when the arena is large.
func (e *aggloEngine) repairNN(a, b int, added []int) {
	isAdded := func(id int) bool {
		for _, x := range added {
			if x == id {
				return true
			}
		}
		return false
	}
	dead := func(id int) bool { return id == a || id == b }

	m := len(e.nodes)
	if cap(e.needScan) < m {
		e.needScan = make([]bool, 2*m)
	}
	needScan := e.needScan[:m]

	e.pool.ForSpansCtx(nil, m, repairGrain, func(lo, hi, _ int) {
		evals := int64(0)
		for i := lo; i < hi; i++ {
			if !e.alive[i] || isAdded(i) {
				continue
			}
			if dead(e.nn1[i]) {
				if e.nn2[i] >= 0 && !dead(e.nn2[i]) {
					// The exact runner-up becomes the nearest; the new
					// runner-up is unknown.
					e.nn1[i], e.d1[i] = e.nn2[i], e.d2[i]
					e.nn2[i], e.d2[i] = -1, math.Inf(1)
				} else {
					needScan[i] = true
					continue
				}
			} else if dead(e.nn2[i]) {
				e.nn2[i], e.d2[i] = -1, math.Inf(1)
			}
			// Offer each newborn as a candidate.
			for _, nb := range added {
				d := e.dist(i, nb)
				evals++
				switch {
				case d < e.d1[i]:
					e.nn2[i], e.d2[i] = e.nn1[i], e.d1[i]
					e.nn1[i], e.d1[i] = nb, d
				case e.nn2[i] >= 0 && d < e.d2[i]:
					e.nn2[i], e.d2[i] = nb, d
				}
			}
		}
		e.distEvals.Add(evals)
	})
	for i := 0; i < m; i++ {
		if needScan[i] {
			needScan[i] = false
			e.stats.RepairScans++
			e.scanNNWide(i)
		}
	}
	for _, nb := range added {
		e.scanNNWide(nb)
	}
}

// constraintsOK reports whether a cluster with the given member list
// satisfies every bound constraint. Each bound accumulates the members in
// order, stopping early once the constraint is Decided (monotone
// constraints only). Driving goroutine only.
func (e *aggloEngine) constraintsOK(members []int) bool {
	for _, b := range e.cons {
		b.Reset()
		sat := false
		for _, ri := range members {
			b.Add(ri)
			if b.Decided() {
				sat = true
				break
			}
		}
		if !sat && !b.Satisfied() {
			return false
		}
	}
	return true
}

// beginShrink loads the ripe cluster's members into every bound, arming
// the canEvict/commitEvict gates of the Algorithm 2 shrink. The bounds
// then track the shrinking member set incrementally across rounds.
func (e *aggloEngine) beginShrink(members []int) {
	for _, b := range e.cons {
		b.Reset()
		for _, ri := range members {
			b.Add(ri)
		}
	}
}

// canEvict reports whether evicting ri keeps every constraint satisfied.
func (e *aggloEngine) canEvict(ri int) bool {
	for _, b := range e.cons {
		if !b.CanEvict(ri) {
			return false
		}
	}
	return true
}

// commitEvict records ri's eviction in every bound.
func (e *aggloEngine) commitEvict(ri int) {
	for _, b := range e.cons {
		b.Evict(ri)
	}
}

// absorbAllowed reports whether adding record ri to final cluster f keeps
// every non-addition-safe constraint satisfied. Addition-safe constraints
// (distinct ℓ-diversity) need no check — a satisfying cluster stays
// satisfying under any addition — which keeps the legacy absorb path, and
// its byte-exact absorption order, untouched for them.
func (e *aggloEngine) absorbAllowed(f *Cluster, ri int) bool {
	for _, b := range e.cons {
		if b.AdditionSafe() {
			continue
		}
		b.Reset()
		for _, mi := range f.Members {
			b.Add(mi)
		}
		if !b.SatisfiedWithAdd(ri) {
			return false
		}
	}
	return true
}

// shrink implements Algorithm 2: repeatedly evict from the ripe cluster c
// the member R̂_i maximizing dist(Ŝ, Ŝ\{R̂_i}) until |c| = K. Evictions
// that would violate a privacy constraint are skipped; if none is
// admissible the cluster is left larger than K, which remains valid. c is
// mutated in place and the evicted record indices returned.
func (e *aggloEngine) shrink(c *Cluster) []int {
	var removed []int
	e.beginShrink(c.Members)
	// Constrained runs admit K ≤ 1 (the constraint carries the privacy
	// guarantee); a cluster still needs one member, so the shrink target is
	// floored at a singleton.
	for c.Size() > max(e.opt.K, 1) {
		bestIdx, bestD := -1, math.Inf(-1)
		var bestRest *Cluster
		evals := int64(0)
		for mi := range c.Members {
			if !e.canEvict(c.Members[mi]) {
				continue
			}
			rest := make([]int, 0, c.Size()-1)
			rest = append(rest, c.Members[:mi]...)
			rest = append(rest, c.Members[mi+1:]...)
			restCl := e.s.NewCluster(e.tbl, rest)
			// dist(Ŝ, Ŝ\{R̂_i}): the union of the two sets is Ŝ itself.
			d := e.opt.Distance.Eval(c.Size(), restCl.Size(), c.Size(), c.Cost, restCl.Cost, c.Cost)
			evals++
			if d > bestD {
				bestIdx, bestD, bestRest = mi, d, restCl
			}
		}
		e.distEvals.Add(evals)
		if bestIdx < 0 {
			break // every eviction would break a constraint
		}
		evicted := c.Members[bestIdx]
		removed = append(removed, evicted)
		e.commitEvict(evicted)
		c.Members = bestRest.Members
		c.Closure = bestRest.Closure
		c.Cost = bestRest.Cost
	}
	return removed
}

// absorb adds record ri to the final cluster minimizing dist({R_ri}, S),
// updating that cluster's closure and cost. Absorption order matters (each
// absorption widens a final closure), so this stays sequential. Under a
// non-addition-safe constraint the nearest cluster that stays satisfying
// wins instead; if none does, the unconstrained nearest takes the record —
// absorption is best-effort (ConstraintReport on the facade audits the
// final release).
func (e *aggloEngine) absorb(ri int) {
	single := e.s.NewSingleton(e.tbl, ri)
	bestIdx, bestD := -1, math.Inf(1)
	okIdx, okD := -1, math.Inf(1)
	r := e.s.NumAttrs()
	for fi, f := range e.final {
		sum := 0.0
		for j := 0; j < r; j++ {
			node := e.s.Hiers[j].LCA(single.Closure[j], f.Closure[j])
			sum += e.s.CostAt(j, node)
		}
		dU := sum / float64(r)
		d := e.opt.Distance.Eval(1, f.Size(), 1+f.Size(), single.Cost, f.Cost, dU)
		if d < bestD {
			bestIdx, bestD = fi, d
		}
		if e.guardAbsorb && d < okD && e.absorbAllowed(f, ri) {
			okIdx, okD = fi, d
		}
	}
	e.distEvals.Add(int64(len(e.final)))
	if okIdx >= 0 {
		bestIdx = okIdx
	}
	if bestIdx < 0 {
		// No final cluster exists (n < 2k and everything stayed unripe is
		// excluded by the k ≤ n guard, but stay safe): promote the singleton.
		e.final = append(e.final, single)
		return
	}
	f := e.final[bestIdx]
	f.Members = append(f.Members, ri)
	e.s.MergeInto(f.Closure, single.Closure)
	f.Cost = e.s.Cost(f.Closure)
}
