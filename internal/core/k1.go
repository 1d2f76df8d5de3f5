package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"kanon/internal/cluster"
	"kanon/internal/fault"
	"kanon/internal/obs"
	"kanon/internal/par"
	"kanon/internal/table"
)

// K1NearestCtx runs Algorithm 3: (k,1)-anonymization by nearest
// neighbours. Every record R_i is replaced by the closure of {R_i} together
// with the k−1 records closest to it under the pair cost d({R_i, R_j}). The
// output approximates the optimal (k,1)-anonymization within a factor of
// k−1 (Proposition 5.1). Records are processed independently on a pool of
// par.Workers(workers) workers, so the worker count never changes the
// output. Record scans stop at the next record boundary once ctx is done
// and ctx.Err() is returned with no partial output. A nil ctx disables
// cancellation.
func K1NearestCtx(ctx context.Context, s *cluster.Space, tbl *table.Table, k, workers int) (*table.GenTable, error) {
	n := tbl.Len()
	if err := checkK1Args(n, k); err != nil {
		return nil, err
	}
	o := obs.From(ctx)
	defer o.Phase(PhaseK1)()
	g := table.NewGen(tbl.Schema, n)
	p := par.New(workers)
	defer p.Close()
	err := p.EachCtx(ctx, n, func(i int) {
		fault.Inject(SiteK1Record)
		// One neighbourhood scan per record: n−1 pair-cost evaluations.
		o.Event(obs.KindScan, PhaseK1, int64(n-1))
		// Find the k−1 smallest pair costs; ties broken by lower index.
		type cand struct {
			j int
			w float64
		}
		cands := make([]cand, 0, n-1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			cands = append(cands, cand{j, pairCost(s, tbl, i, j)})
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].w != cands[b].w {
				return cands[a].w < cands[b].w
			}
			return cands[a].j < cands[b].j
		})
		members := make([]int, 0, k)
		members = append(members, i)
		for _, c := range cands[:k-1] {
			members = append(members, c.j)
		}
		copy(g.Records[i], s.ClosureOf(tbl, members))
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// K1ExpandCtx runs Algorithm 4: (k,1)-anonymization by greedy expansion.
// For every record R_i, a cluster S_i = {R_i} is grown by repeatedly adding
// the record R_j ∉ S_i minimizing dist(S_i, R_j) = d(S_i ∪ {R_j}) − d(S_i),
// until |S_i| = k; R̄_i is the closure of S_i. In the paper's experiments
// this consistently beats Algorithm 3 despite lacking its approximation
// guarantee. Records are processed independently on a pool of
// par.Workers(workers) workers, so the worker count never changes the
// output. Record scans stop at the next record boundary once ctx is done
// and ctx.Err() is returned with no partial output. A nil ctx disables
// cancellation.
func K1ExpandCtx(ctx context.Context, s *cluster.Space, tbl *table.Table, k, workers int) (*table.GenTable, error) {
	n := tbl.Len()
	if err := checkK1Args(n, k); err != nil {
		return nil, err
	}
	o := obs.From(ctx)
	defer o.Phase(PhaseK1)()
	g := table.NewGen(tbl.Schema, n)
	r := s.NumAttrs()
	p := par.New(workers)
	defer p.Close()
	err := p.EachCtx(ctx, n, func(i int) {
		fault.Inject(SiteK1Record)
		// One greedy-growth scan per record: (k−1) sweeps over the
		// out-of-cluster records.
		evals := int64(0)
		inS := make([]bool, n)
		inS[i] = true
		closure := s.LeafClosure(tbl.Records[i])
		scratch := make(table.GenRecord, r)
		for size := 1; size < k; size++ {
			bestJ, bestD := -1, math.Inf(1)
			for j := 0; j < n; j++ {
				if inS[j] {
					continue
				}
				// d(S ∪ {R_j}) − d(S): the subtrahend is constant over j,
				// so minimizing d(S ∪ {R_j}) suffices.
				sum := 0.0
				for a := 0; a < r; a++ {
					h := s.Hiers[a]
					scratch[a] = h.LCA(closure[a], h.LeafOf(tbl.Records[j][a]))
					sum += s.CostAt(a, scratch[a])
				}
				if d := sum / float64(r); d < bestD {
					bestJ, bestD = j, d
				}
				evals++
			}
			inS[bestJ] = true
			for a := 0; a < r; a++ {
				h := s.Hiers[a]
				closure[a] = h.LCA(closure[a], h.LeafOf(tbl.Records[bestJ][a]))
			}
		}
		copy(g.Records[i], closure)
		o.Event(obs.KindScan, PhaseK1, evals)
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

func checkK1Args(n, k int) error {
	if k < 1 {
		return fmt.Errorf("core: k must be ≥ 1, got %d", k)
	}
	if k > n {
		return fmt.Errorf("core: k=%d exceeds table size n=%d", k, n)
	}
	return nil
}
