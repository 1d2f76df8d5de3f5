package core

import (
	"context"
	"fmt"
	"math"

	"kanon/internal/anonymity"
	"kanon/internal/bipartite"
	"kanon/internal/cluster"
	"kanon/internal/fault"
	"kanon/internal/obs"
	"kanon/internal/table"
)

// Global1KStats reports what Algorithm 6 had to do, feeding the paper's
// observation that "in almost all of our experiments, one such step was
// sufficient" (Section V-C) and the future-work question of how close
// (k,k)-anonymizations already are to global (1,k)-anonymity.
type Global1KStats struct {
	// DeficientRecords is the number of original records whose initial
	// match count was below k.
	DeficientRecords int
	// GeneralizationSteps is the total number of R̄_i ← R̄_i + R_jh updates
	// performed.
	GeneralizationSteps int
	// MaxStepsPerRecord is the largest number of updates any single record
	// required.
	MaxStepsPerRecord int
	// InitialMinMatches is the smallest match count before the upgrade.
	InitialMinMatches int
}

// MakeGlobal1KCtx runs Algorithm 6: it upgrades a (k,k)-anonymization g of
// tbl into a global (1,k)-anonymization. For every original record R_i whose
// number of matches (edges of the consistency graph completable to a
// perfect matching, Definition 4.6) is below k, the algorithm selects the
// non-match neighbour R̄_jh minimizing c(R̄_i + R_jh) − c(R̄_i), where R_jh
// is the neighbour's *original* record, and widens R̄_i ← R̄_i + R_jh. The
// swap through the identity matching (see DESIGN.md) shows each such update
// turns R̄_jh into a match of R_i, so the loop terminates.
//
// g must be a positional generalization of tbl (R̄_i generalizes R_i); this
// is verified. g is modified in place and returned alongside the stats.
//
// Cancellation is checked before every record and every widening step (the
// matching rebuild is the expensive unit of work), returning ctx.Err().
// Like Make1KCtx, a cancelled call leaves g partially widened — discard g
// on error. A nil ctx disables cancellation.
func MakeGlobal1KCtx(ctx context.Context, s *cluster.Space, tbl *table.Table, g *table.GenTable, k int) (*table.GenTable, Global1KStats, error) {
	var stats Global1KStats
	n := tbl.Len()
	if g.Len() != n {
		return nil, stats, fmt.Errorf("core: generalized table has %d records, original has %d", g.Len(), n)
	}
	if err := checkK1Args(n, k); err != nil {
		return nil, stats, err
	}
	for i := 0; i < n; i++ {
		if !s.Consistent(tbl.Records[i], g.Records[i]) {
			return nil, stats, fmt.Errorf("core: record %d: R̄_i does not generalize R_i; Algorithm 6 requires a positional generalization", i)
		}
	}
	if ctxDone(ctx) {
		return nil, stats, ctx.Err()
	}

	o := obs.From(ctx)
	defer o.Phase(PhaseGlobal)()
	r := s.NumAttrs()
	// Widening R̄_i only adds consistencies, so the graph gains edges into
	// column i in place after every step.
	gr := anonymity.BuildGraph(s, tbl, g)
	allowed, err := bipartite.AllowedEdges(gr)
	if err != nil {
		return nil, stats, fmt.Errorf("core: consistency graph has no perfect matching: %w", err)
	}
	o.Counter("core.global.matchings", 1)
	stats.InitialMinMatches = math.MaxInt
	for i := 0; i < n; i++ {
		if len(allowed[i]) < stats.InitialMinMatches {
			stats.InitialMinMatches = len(allowed[i])
		}
		if len(allowed[i]) < k {
			stats.DeficientRecords++
		}
	}
	if n == 0 {
		stats.InitialMinMatches = 0
	}

	for i := 0; i < n; i++ {
		steps := 0
		for len(allowed[i]) < k {
			if ctxDone(ctx) {
				return nil, stats, ctx.Err()
			}
			fault.Inject(SiteGlobalStep)
			// Non-match neighbours of R_i.
			isMatch := make(map[int]bool, len(allowed[i]))
			for _, v := range allowed[i] {
				isMatch[v] = true
			}
			// The minimum (delta, j) in lexicographic order: adjacency
			// lists gain edges out of order, so ties go to the smaller j
			// explicitly.
			bestJ, bestDelta := -1, math.Inf(1)
			gi := g.Records[i]
			for _, j := range gr.Neighbors(i) {
				if isMatch[j] {
					continue
				}
				// Widen R̄_i to also cover the neighbour's original R_j.
				sum := 0.0
				for a := 0; a < r; a++ {
					h := s.Hiers[a]
					widened := h.LCA(gi[a], h.LeafOf(tbl.Records[j][a]))
					sum += s.CostAt(a, widened) - s.CostAt(a, gi[a])
				}
				if delta := sum / float64(r); delta < bestDelta || delta == bestDelta && j < bestJ {
					bestJ, bestDelta = j, delta
				}
			}
			if bestJ < 0 {
				return nil, stats, fmt.Errorf("core: record %d has no non-match neighbour to widen towards (matches %d < k=%d)", i, len(allowed[i]), k)
			}
			for a := 0; a < r; a++ {
				h := s.Hiers[a]
				gi[a] = h.LCA(gi[a], h.LeafOf(tbl.Records[bestJ][a]))
			}
			// Column i of the consistency graph may gain edges.
			for u := 0; u < n; u++ {
				if s.Consistent(tbl.Records[u], gi) && !gr.HasEdge(u, i) {
					gr.AddEdge(u, i)
				}
			}
			steps++
			stats.GeneralizationSteps++
			o.Event(obs.KindAugment, PhaseGlobal, 1)
			allowed, err = bipartite.AllowedEdges(gr)
			if err != nil {
				return nil, stats, fmt.Errorf("core: perfect matching lost after widening (impossible for positional generalizations): %w", err)
			}
			o.Counter("core.global.matchings", 1)
		}
		if steps > stats.MaxStepsPerRecord {
			stats.MaxStepsPerRecord = steps
		}
	}
	if o.Enabled() {
		o.Counter("core.global.deficient", int64(stats.DeficientRecords))
		o.Counter("core.global.steps", int64(stats.GeneralizationSteps))
		o.Counter("core.global.min_matches", int64(stats.InitialMinMatches))
		o.Peak("core.global.max_steps", int64(stats.MaxStepsPerRecord))
	}
	return g, stats, nil
}
