package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"kanon"
	"kanon/internal/anonymity"
	"kanon/internal/attack"
	"kanon/internal/bipartite"
	"kanon/internal/cluster"
	"kanon/internal/core"
	"kanon/internal/dataio"
	"kanon/internal/hierarchy"
	"kanon/internal/loss"
	"kanon/internal/obs"
	"kanon/internal/resilient"
	"kanon/internal/risk"
	"kanon/internal/table"
)

// span is one traced call into a layer's public function, or one stage of
// a job, or the job itself (Parent -1).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Job    int     `json:"job"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Stage spans carry the Go runtime's allocation and GC cycles.
	AllocMB  float64 `json:"alloc_mb,omitempty"`
	GCCycles uint32  `json:"gc_cycles,omitempty"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// tracer keeps spans in memory; the harness is single-goroutine, so the
// open spans form a stack and the top is every new span's parent.
type tracer struct {
	epoch time.Time
	job   int
	spans []span
	open  []int
}

func (t *tracer) now() float64 { return time.Since(t.epoch).Seconds() }

func (t *tracer) begin(name string) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: t.job, Name: name, Start: t.now()})
	t.open = append(t.open, id)
}

func (t *tracer) end() {
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = t.now()
}

// call runs f inside a span named after the layer function it calls.
func (t *tracer) call(name string, f func() error) error {
	t.begin(name)
	defer t.end()
	return f()
}

// run is call for a function that cannot fail, in the form checkRelease
// takes.
func (t *tracer) run(name string, f func()) {
	_ = t.call(name, func() error { f(); return nil })
}

// stage runs f inside a stage span and records the allocation and GC
// cycles of the stage (read outside the span, so they cost it nothing).
func (t *tracer) stage(name string, f func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := len(t.spans)
	err := t.call("stage."+name, f)
	runtime.ReadMemStats(&after)
	t.spans[id].AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.spans[id].GCCycles = after.NumGC - before.NumGC
	return err
}

// layerCounts are the per-layer figures of one traced job that are not span
// durations.
type layerCounts struct {
	stats      obs.RunStats
	shardGaps  []float64        // ms between consecutive shard completions
	graph      *bipartite.Graph // the verifier's consistency graph
	gen        *table.GenTable
	bytesIn    int
	bytesOut   int
	vulnerable float64
}

// tracedJob reproduces runJob by driving the layers directly, with the
// options the facade passes them, inside spans. It starts from the ingested
// table, as the facade does.
func tracedJob(ctx context.Context, cfg config, in *inputs, ref *reference, led *ledger, tr *tracer) (*release, *layerCounts) {
	w := cfg.w
	lc := &layerCounts{bytesIn: len(in.csv) + len(in.hier)}
	tr.begin("job")
	defer tr.end()

	var tbl *table.Table
	var hiers []*hierarchy.Hierarchy
	err := tr.stage("ingest", func() error {
		err := tr.call("dataio.ReadCSVOptions", func() (err error) {
			tbl, err = dataio.ReadCSVOptions(bytes.NewReader(in.csv), dataio.ReadOptions{Header: true})
			return err
		})
		if err != nil {
			return err
		}
		return tr.call("dataio.LoadHierarchies", func() (err error) {
			hiers, err = dataio.LoadHierarchies(bytes.NewReader(in.hier), tbl.Schema)
			return err
		})
	})
	if !led.op("trace.ingest", err) {
		return nil, nil
	}

	var m *loss.Entropy
	var s *cluster.Space
	var g *table.GenTable
	err = tr.stage("anonymize", func() error {
		err := tr.call("loss.NewEntropy", func() (err error) {
			m, err = loss.NewEntropy(tbl, hiers)
			return err
		})
		if err != nil {
			return err
		}
		if err := tr.call("cluster.NewSpace", func() (err error) {
			s, err = cluster.NewSpace(hiers, m)
			return err
		}); err != nil {
			return err
		}
		met := obs.NewMetrics()
		actx := obs.WithRun(ctx, obs.NewRun(met))
		defer func() { lc.stats = met.Snapshot() }()
		g, err = anonymizeLayers(actx, w, cfg.workers, s, tbl, lc, tr)
		return err
	})
	if !led.op("trace.anonymize", err) {
		return nil, nil
	}

	var buf bytes.Buffer
	err = tr.stage("encode", func() error {
		return tr.call("dataio.WriteGenCSV", func() error { return dataio.WriteGenCSV(&buf, g, hiers) })
	})
	if !led.op("trace.encode", err) {
		return nil, nil
	}
	rel := &release{csv: buf.Bytes()}
	lc.gen, lc.bytesOut = g, len(rel.csv)

	var parsed *table.GenTable
	_ = tr.stage("parse", func() error {
		tr.run("relbench.readRelease", func() { parsed = ref.readRelease(rel.csv, led) })
		return nil
	})
	_ = tr.stage("verify", func() error {
		ref.checkRelease(parsed, benchK, w.notion == kanon.NotionK, led, tr.run)
		tr.run("loss.TableLoss", func() { rel.loss = loss.TableLoss(m, g) })
		if w.audit {
			rel.report = verifyLayers(s, tbl, g, lc, tr)
			checkReport(w, rel.report, led)
		}
		return nil
	})

	err = tr.stage("attack", func() error { return attackLayers(w, s, tbl, g, rel, lc, led, tr) })
	led.op("trace.attack", err)
	lc.vulnerable = rel.score
	return rel, lc
}

// anonymizeLayers is the facade's notion dispatch, one span per core call.
func anonymizeLayers(ctx context.Context, w workload, workers int, s *cluster.Space, tbl *table.Table, lc *layerCounts, tr *tracer) (*table.GenTable, error) {
	var g *table.GenTable
	var err error
	switch {
	case w.notion == kanon.NotionGlobal1K:
		err = tr.call("core.K1ExpandCtx", func() (err error) {
			g, err = core.K1ExpandCtx(ctx, s, tbl, benchK, workers)
			return err
		})
		if err == nil {
			err = tr.call("core.Make1KCtx", func() (err error) {
				g, err = core.Make1KCtx(ctx, s, tbl, g, benchK)
				return err
			})
		}
		if err == nil {
			err = tr.call("core.MakeGlobal1KCtx", func() (err error) {
				g, _, err = core.MakeGlobal1KCtx(ctx, s, tbl, g, benchK)
				return err
			})
		}
	case w.maxChunk > 0:
		var last time.Time
		popt := core.PartitionedOptions{
			K: benchK, Distance: cluster.DistanceByName("d3"), MaxChunk: w.maxChunk, Workers: workers,
			// Shard completions are spaced by the shards' run times: the
			// supervisor runs shards one after another.
			OnShard: func(resilient.ShardCheckpoint) {
				now := time.Now()
				if !last.IsZero() {
					lc.shardGaps = append(lc.shardGaps, float64(now.Sub(last))/float64(time.Millisecond))
				}
				last = now
			},
		}
		err = tr.call("core.KAnonymizePartitionedReportCtx", func() (err error) {
			g, _, _, err = core.KAnonymizePartitionedReportCtx(ctx, s, tbl, popt)
			return err
		})
	default:
		kopt := core.KAnonOptions{K: benchK, Distance: cluster.DistanceByName("d3"), Workers: workers}
		err = tr.call("core.KAnonymizeCtx", func() (err error) {
			g, _, err = core.KAnonymizeCtx(ctx, s, tbl, kopt)
			return err
		})
	}
	return g, err
}

// verifyLayers is anonymity.Check with one span per verifier call.
func verifyLayers(s *cluster.Space, tbl *table.Table, g *table.GenTable, lc *layerCounts, tr *tracer) anonymity.Report {
	rep := anonymity.Report{K: benchK}
	each := tr.run
	each("anonymity.IsGeneralizationOf", func() { rep.Generalization = anonymity.IsGeneralizationOf(s, tbl, g) })
	each("anonymity.IsKAnonymous", func() { rep.KAnonymous = anonymity.IsKAnonymous(g, benchK) })
	each("anonymity.Is1K", func() { rep.OneK = anonymity.Is1K(s, tbl, g, benchK) })
	each("anonymity.IsK1", func() { rep.KOne = anonymity.IsK1(s, tbl, g, benchK) })
	rep.KK = rep.OneK && rep.KOne
	each("anonymity.BuildGraph", func() { lc.graph = anonymity.BuildGraph(s, tbl, g) })
	var counts []int
	each("bipartite.AllowedCounts", func() { counts, _ = bipartite.AllowedCounts(lc.graph) })
	rep.MinMatches = counts[0]
	for _, c := range counts {
		rep.MinMatches = min(rep.MinMatches, c)
	}
	rep.Global1K = rep.MinMatches >= benchK
	return rep
}

// attackLayers is the attack stage: the class risk model, then on audit
// workloads risk.EvaluateAttacks unrolled into its attacks plus the
// neighbours and matches risk models.
func attackLayers(w workload, s *cluster.Space, tbl *table.Table, g *table.GenTable, rel *release, lc *layerCounts, led *ledger, tr *tracer) error {
	var classRep, matches *risk.Report
	err := tr.call("risk.Assess(class)", func() (err error) {
		classRep, err = risk.Assess(s, tbl, g, risk.ByClass)
		return err
	})
	if err != nil {
		return err
	}
	if w.notion == kanon.NotionK {
		led.check("attack.class_risk", classRep.AtRiskCount(benchK) == 0, "class risk model finds records in classes below k")
	}
	if !w.audit {
		return nil
	}
	n := tbl.Len()
	vulnerable := make([]bool, n)
	mark := func(i, candidates int) {
		if candidates < benchK {
			vulnerable[i] = true
		}
	}
	var outcomes []attack.Outcome
	if err := tr.call("attack.Simulate", func() (err error) {
		outcomes, err = attack.Simulate(s, tbl, g, nil)
		return err
	}); err != nil {
		return err
	}
	matchingVulnerable := 0
	for i, o := range outcomes {
		mark(i, o.Candidates2)
		if o.Candidates2 < benchK {
			matchingVulnerable++
		}
	}
	var refined [][]int
	if err := tr.call("attack.RefinementCandidates", func() (err error) {
		refined, err = attack.RefinementCandidates(s.Hiers, g)
		return err
	}); err != nil {
		return err
	}
	for i, c := range refined {
		mark(i, len(c))
	}
	var rels []attack.Release
	if err := tr.call("attack.OverlappingWindows", func() (err error) {
		rels, err = attack.OverlappingWindows(s, tbl, g)
		return err
	}); err != nil {
		return err
	}
	var inter []attack.IntersectionOutcome
	if err := tr.call("attack.SimulateIntersection", func() (err error) {
		inter, err = attack.SimulateIntersection(rels, nil)
		return err
	}); err != nil {
		return err
	}
	for _, o := range inter {
		if o.ID >= 0 && o.ID < n {
			mark(o.ID, o.Candidates)
		}
	}
	union := 0
	for _, v := range vulnerable {
		if v {
			union++
		}
	}
	rel.score = 100 * float64(union) / float64(n)
	if err := tr.call("risk.Assess(neighbors)", func() error {
		_, err := risk.Assess(s, tbl, g, risk.ByNeighbors)
		return err
	}); err != nil {
		return err
	}
	if err := tr.call("risk.Assess(matches)", func() (err error) {
		matches, err = risk.Assess(s, tbl, g, risk.ByMatches)
		return err
	}); err != nil {
		return err
	}
	checkAttacks(rel.report, matchingVulnerable, matches.AtRiskCount(benchK), led)
	return nil
}

// runTraced is the per-layer run: pairs of an untraced facade job and a
// traced job on the same inputs until the measured seconds are spent. The
// traced job must release the same bytes, loss, verifier report and attack
// score as the facade job. Successive pairs swap which job runs first, so
// that over an even number of pairs an order effect cancels out of
// trace.overhead_frac.
func runTraced(ctx context.Context, cfg config, in *inputs, ref *reference, led *ledger, out io.Writer) map[string]metric {
	start := time.Now()
	tr := &tracer{epoch: start}
	var plainWalls, tracedWalls []float64
	var jobs []*layerCounts
	var pairWalls []float64
	for more(start, cfg, pairWalls) {
		pairStart := time.Now()
		var st stageTimes
		var want, got *release
		var lc *layerCounts
		var rootID int
		facade := func() bool {
			led.op("host.reset_peak_rss", quiesce())
			st, want = runJob(ctx, cfg.w, in, ref, cfg.workers, led)
			return want != nil
		}
		traced := func() bool {
			led.op("host.reset_peak_rss", quiesce())
			tr.job = len(jobs)
			rootID = len(tr.spans)
			got, lc = tracedJob(ctx, cfg, in, ref, led, tr)
			return got != nil
		}
		order := "facade_first"
		first, second := facade, traced
		if len(jobs)%2 == 1 {
			order, first, second = "traced_first", traced, facade
		}
		if !first() || !second() {
			return nil
		}
		root := tr.spans[rootID]
		// Probe: time the matching alone on the verifier's graph. It runs
		// outside the job, so it does not count towards the job's wall.
		if lc.graph != nil {
			tr.run("probe.bipartite.HopcroftKarp", func() { bipartite.HopcroftKarp(lc.graph) })
		}
		led.check("trace.reproduces_release", bytes.Equal(got.csv, want.csv) && got.loss == want.loss &&
			got.report == want.report && got.score == want.score,
			fmt.Sprintf("traced release %s differs from the facade's %s", digest(got.csv), digest(want.csv)))
		fmt.Fprintf(out, "pair %d %s digest=%s traced_digest=%s untraced_s=%.4f traced_s=%.4f\n",
			len(jobs), order, digest(want.csv), digest(got.csv), st.total.Seconds(), root.seconds())
		if len(jobs) == 0 {
			printGuard(out, got)
		}
		plainWalls = append(plainWalls, st.total.Seconds())
		tracedWalls = append(tracedWalls, root.seconds())
		jobs = append(jobs, lc)
		pairWalls = append(pairWalls, time.Since(pairStart).Seconds())
	}
	led.op("trace.write_spans", writeSpans(cfg.traceOut, tr.spans))
	fmt.Fprintf(out, "spans %d written to %s\n", len(tr.spans), cfg.traceOut)
	return layerMetrics(tr.spans, jobs, plainWalls, tracedWalls, out)
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// module is the layer a span belongs to: the package of the function it
// wraps ("job" and "stage" spans are the harness's glue).
func module(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfModules are the modules whose self times are reported.
var selfModules = []string{"dataio", "loss", "cluster", "core", "table", "anonymity", "bipartite", "attack", "risk", "relbench"}

// layerMetrics derives the per-layer metrics. Times are medians over the
// traced jobs; counts come from the first job (they repeat exactly).
func layerMetrics(spans []span, jobs []*layerCounts, plainWalls, tracedWalls []float64, out io.Writer) map[string]metric {
	perJob := make([]map[string]float64, len(jobs))
	for j := range perJob {
		perJob[j] = map[string]float64{}
	}
	// Self time: a span's duration minus its children's (children never
	// overlap: the harness calls one layer at a time).
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.seconds()
		if s.Parent >= 0 {
			self[s.Parent] -= s.seconds()
		}
	}
	for i, s := range spans {
		v := perJob[s.Job]
		v["span."+s.Name] += s.seconds()
		if strings.HasPrefix(s.Name, "probe.") {
			continue
		}
		v["self."+module(s.Name)] += self[i]
		if strings.HasPrefix(s.Name, "stage.") {
			stage := strings.TrimPrefix(s.Name, "stage.")
			v["runtime.alloc_mb."+stage] = s.AllocMB
			v["runtime.gc_cycles."+stage] = float64(s.GCCycles)
			v["runtime.alloc_mb"] += s.AllocMB
			v["runtime.gc_cycles"] += float64(s.GCCycles)
		}
	}

	m := map[string]metric{}
	put := func(name, unit string, v float64) {
		m[name] = metric{Value: v, Unit: unit}
		fmt.Fprintf(out, "%s %.6g %s\n", name, v, unit)
	}
	med := func(key string) float64 {
		vals := make([]float64, len(perJob))
		for j, v := range perJob {
			vals[j] = v[key]
		}
		return quantile(vals, 0.5)
	}
	spanSum := func(metricName string, calls ...string) {
		sum := 0.0
		for _, c := range calls {
			sum += med("span." + c)
		}
		put(metricName, "s", sum)
	}
	first := jobs[0]
	st := first.stats
	phase := func(name string) float64 {
		vals := make([]float64, len(jobs))
		for j, lc := range jobs {
			vals[j] = float64(lc.stats.Phase(name).WallNanos) / 1e9
		}
		return quantile(vals, 0.5)
	}
	count := func(name, unit string, v int64) { put(name, unit, float64(v)) }

	spanSum("dataio.read_csv_s", "dataio.ReadCSVOptions")
	spanSum("dataio.load_hierarchies_s", "dataio.LoadHierarchies")
	spanSum("dataio.encode_s", "dataio.WriteGenCSV")
	count("dataio.bytes_in", "B", int64(first.bytesIn))
	count("dataio.bytes_out", "B", int64(first.bytesOut))
	spanSum("cluster.space_s", "loss.NewEntropy", "cluster.NewSpace")

	put("core.partition_s", "s", phase(core.PhasePartition))
	count("core.partition.chunks", "count", st.Counter("core.partition.chunks"))
	count("resilient.shards", "count", st.Counter(obs.CounterResilientShards))
	count("resilient.retries", "count", st.Counter(obs.CounterResilientRetries))
	count("resilient.degraded", "count", st.Counter(obs.CounterResilientDegraded))
	gaps := func(q float64) float64 {
		vals := make([]float64, len(jobs))
		for j, lc := range jobs {
			vals[j] = quantile(lc.shardGaps, q)
		}
		return quantile(vals, 0.5)
	}
	put("resilient.shard_p50_ms", "ms", gaps(0.50))
	put("resilient.shard_p98_ms", "ms", gaps(0.98))

	put("cluster.init_s", "s", phase(cluster.PhaseInit))
	put("cluster.merge_s", "s", phase(cluster.PhaseMerge))
	count("cluster.dist_evals", "count", st.Counter("cluster.dist_evals"))
	count("cluster.merges", "count", st.Counter("cluster.merges"))
	pushes, stale := st.Counter(obs.CounterHeapPushes), st.Counter(obs.CounterStalePops)
	count("cluster.heap.pushes", "count", pushes)
	count("cluster.heap.stale_pops", "count", stale)
	useful := 0.0
	if pushes > 0 {
		useful = 1 - float64(stale)/float64(pushes)
	}
	put("cluster.heap.useful_pop_ratio", "ratio", useful)
	count("cluster.heap.dead_nn_rescans", "count", st.Counter(obs.CounterDeadNNRescans))
	count("cluster.kernel.fallback_walks", "count", st.Counter(obs.CounterKernelFallbackWalks))

	spanSum("core.k1_s", "core.K1ExpandCtx")
	count("core.k1.scan_evals", "count", st.Counter("core.k1.scan_evals"))
	spanSum("core.make1k_s", "core.Make1KCtx")
	count("core.make1k.augments", "count", st.Counter("core.make1k.augments"))
	count("core.make1k.deficient", "count", st.Counter("core.make1k.deficient"))
	spanSum("core.global_s", "core.MakeGlobal1KCtx")
	count("core.global.matchings", "count", st.Counter("core.global.matchings"))
	count("core.global.steps", "count", st.Counter("core.global.steps"))

	spanSum("anonymity.build_graph_s", "anonymity.BuildGraph")
	edges := 0
	if first.graph != nil {
		edges = first.graph.NumEdges()
	}
	count("anonymity.graph_edges", "count", int64(edges))
	count("anonymity.distinct_rows", "count", int64(len(first.gen.GroupSizes())))
	spanSum("bipartite.matching_s", "probe.bipartite.HopcroftKarp")
	spanSum("bipartite.allowed_s", "bipartite.AllowedCounts")

	spanSum("attack.matching_s", "attack.Simulate")
	spanSum("attack.refinement_s", "attack.RefinementCandidates")
	spanSum("attack.intersection_s", "attack.OverlappingWindows", "attack.SimulateIntersection")
	spanSum("risk.class_s", "risk.Assess(class)")
	spanSum("risk.neighbors_s", "risk.Assess(neighbors)")
	spanSum("risk.matches_s", "risk.Assess(matches)")
	put("attack.vulnerable_pct", "%", first.vulnerable)

	for _, stage := range []string{"ingest", "anonymize", "encode", "parse", "verify", "attack"} {
		put("runtime.alloc_mb."+stage, "MB", med("runtime.alloc_mb."+stage))
		put("runtime.gc_cycles."+stage, "count", med("runtime.gc_cycles."+stage))
	}
	put("runtime.alloc_mb", "MB", med("runtime.alloc_mb"))
	put("runtime.gc_cycles", "count", med("runtime.gc_cycles"))

	for _, mod := range selfModules {
		put("self."+mod+"_s", "s", med("self."+mod))
	}
	traced, plain := quantile(tracedWalls, 0.5), quantile(plainWalls, 0.5)
	put("trace.job_s", "s", traced)
	put("trace.untraced_job_s", "s", plain)
	put("trace.overhead_frac", "ratio", traced/plain-1)
	put("trace.unattributed_frac", "ratio", (med("self.job")+med("self.stage"))/traced)
	return m
}
