// Package core implements the algorithms of "k-Anonymization Revisited"
// (Gionis, Mazza, Tassa; ICDE 2008):
//
//   - Algorithm 1, the basic agglomerative k-anonymizer, and Algorithm 2,
//     its modified variant (KAnonymizeCtx, delegating to internal/cluster),
//     plus its scalable partitioned form (KAnonymizePartitionedReportCtx);
//   - the forest algorithm of Aggarwal et al. (ICDT'05), the 3k−3
//     approximation baseline the paper compares against (ForestCtx), and
//     the full-domain global-recoding baseline (FullDomainCtx);
//   - Algorithm 3, (k,1)-anonymization by nearest neighbours (K1NearestCtx);
//   - Algorithm 4, (k,1)-anonymization by greedy expansion (K1ExpandCtx);
//   - Algorithm 5, the (1,k)-anonymizer post-pass (Make1KCtx), whose
//     coupling with Algorithm 3 or 4 yields a (k,k)-anonymizer
//     (KKAnonymizeCtx);
//   - Algorithm 6, upgrading a (k,k)-anonymization to a global
//     (1,k)-anonymization via perfect-matching tests (MakeGlobal1KCtx);
//   - brute-force optimal k- and (k,1)-anonymizers for tiny inputs, used
//     as test oracles (OptimalKAnonymize, OptimalK1).
//
// Every pipeline has exactly one exported entry point. It takes a context
// first (nil disables cancellation, see par.Done) and returns everything
// any caller reads.
package core

import (
	"context"
	"fmt"

	"kanon/internal/cluster"
	"kanon/internal/par"
	"kanon/internal/table"
)

// Fault-injection sites of the core pipelines (see internal/fault). Each
// doubles as a cancellation checkpoint of the corresponding entry point.
const (
	// SiteK1Record fires once per record of Algorithms 3 and 4.
	SiteK1Record = "core.k1.record"
	// SiteMake1KRecord fires once per record of Algorithm 5.
	SiteMake1KRecord = "core.make1k.record"
	// SiteForestRound fires once per Borůvka round of the forest baseline.
	SiteForestRound = "core.forest.round"
	// SiteGlobalStep fires once per widening step of Algorithm 6.
	SiteGlobalStep = "core.global.step"
	// SitePartitionChunk fires at the start of every primary attempt of a
	// partitioned-pipeline shard, inside the shard supervisor's containment
	// scope (see internal/resilient): a rule armed here exercises
	// retry/quarantine/degraded handling rather than aborting the run.
	SitePartitionChunk = "core.partition.chunk"
)

// Observability phases of the core pipelines (obs.KindPhaseStart/End).
const (
	// PhaseK1 is the per-record (k,1) stage (Algorithms 3 and 4).
	PhaseK1 = "core.k1"
	// PhaseMake1K is the Algorithm 5 widening post-pass.
	PhaseMake1K = "core.make1k"
	// PhaseGlobal is the Algorithm 6 matching-and-widening loop.
	PhaseGlobal = "core.global"
	// PhaseForest is the forest baseline (Borůvka rounds + tree partition).
	PhaseForest = "core.forest"
	// PhaseFullDomain is the full-domain lattice search.
	PhaseFullDomain = "core.fulldomain"
	// PhasePartition is the chunking driver of the partitioned pipeline.
	PhasePartition = "core.partition"
)

// ctxDone reports whether a (possibly nil) context has been cancelled. It
// delegates to par.Done, the stack's single nil-context check.
func ctxDone(ctx context.Context) bool { return par.Done(ctx) }

// KAnonOptions configures the agglomerative k-anonymizers.
type KAnonOptions struct {
	// K is the anonymity parameter; every equivalence class of the output
	// has size ≥ K.
	K int
	// Distance selects the inter-cluster distance of Section V-A.2;
	// defaults to D3 (eq. 10) when nil.
	Distance cluster.Distance
	// Modified selects Algorithm 2 (shrink ripe clusters to exactly K).
	Modified bool
	// Workers caps the clustering engine's worker pool: 1 forces the
	// sequential path, 0 sizes the pool to the machine. Any worker count
	// produces the identical output.
	Workers int
	// NoKernel disables the engine's flat distance kernel, forcing the
	// reference evaluation path (see cluster.AggloOptions.NoKernel). The
	// output is identical either way.
	NoKernel bool
	// Constraints, when non-empty, requires every equivalence class of the
	// output to satisfy each privacy constraint over Sensitive (see
	// cluster.Constraint: distinct/entropy/recursive ℓ-diversity,
	// t-closeness). Sensitive must then hold one value id per record.
	Constraints []cluster.Constraint
	Sensitive   []int
}

// KAnonymizeCtx runs the (basic or modified) agglomerative algorithm and
// returns the k-anonymized table together with the underlying clustering.
// The engine stops at its next scan/merge boundary once ctx is done and
// returns ctx.Err() with no partial output. A nil ctx disables
// cancellation. Callers wanting the engine's work counters call
// cluster.AgglomerateCtx and cluster.ToGenTable directly.
func KAnonymizeCtx(ctx context.Context, s *cluster.Space, tbl *table.Table, opt KAnonOptions) (*table.GenTable, []*cluster.Cluster, error) {
	if opt.K < 1 {
		return nil, nil, fmt.Errorf("core: k must be ≥ 1, got %d", opt.K)
	}
	dist := opt.Distance
	if dist == nil {
		dist = cluster.D3{}
	}
	clusters, _, err := cluster.AgglomerateCtx(ctx, s, tbl, cluster.AggloOptions{
		K:           opt.K,
		Distance:    dist,
		Modified:    opt.Modified,
		Workers:     opt.Workers,
		NoKernel:    opt.NoKernel,
		Constraints: opt.Constraints,
		Sensitive:   opt.Sensitive,
	})
	if err != nil {
		return nil, nil, err
	}
	return cluster.ToGenTable(tbl.Schema, tbl.Len(), clusters), clusters, nil
}

// pairCost returns d({R_i, R_j}): the generalization cost of the closure of
// the two records, the edge weight used by the forest algorithm and by
// Algorithm 3.
func pairCost(s *cluster.Space, tbl *table.Table, i, j int) float64 {
	ri, rj := tbl.Records[i], tbl.Records[j]
	r := s.NumAttrs()
	sum := 0.0
	for a := 0; a < r; a++ {
		h := s.Hiers[a]
		node := h.LCA(h.LeafOf(ri[a]), h.LeafOf(rj[a]))
		sum += s.CostAt(a, node)
	}
	return sum / float64(r)
}
