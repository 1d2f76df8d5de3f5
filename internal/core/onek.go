package core

import (
	"context"
	"fmt"
	"math"
	"strings"

	"kanon/internal/cluster"
	"kanon/internal/fault"
	"kanon/internal/obs"
	"kanon/internal/table"
)

// Make1KCtx runs Algorithm 5, the (1,k)-anonymizer: it further generalizes
// records of g until every original record R_i is consistent with at least
// k generalized records. For each deficient R_i (consistent with ℓ < k
// generalized records), the k−ℓ non-consistent generalized records R̄_j
// minimizing the marginal cost c(R_i + R̄_j) − c(R̄_j) are replaced by
// R_i + R̄_j, the minimal generalized record covering both.
//
// Applied to a (k,1)-anonymization (Algorithm 3 or 4), the result is a
// (k,k)-anonymization: further generalization cannot reduce the number of
// original records a generalized record is consistent with, so the (k,1)
// property is preserved while (1,k) is established. g is modified in place
// and also returned.
//
// The per-record widening loop stops at the next record boundary once ctx
// is done and ctx.Err() is returned. Because Algorithm 5 widens g in place,
// a cancelled call leaves g partially widened — callers wanting
// all-or-nothing semantics (such as KKAnonymizeCtx) must discard g on
// error. A nil ctx disables cancellation.
func Make1KCtx(ctx context.Context, s *cluster.Space, tbl *table.Table, g *table.GenTable, k int) (*table.GenTable, error) {
	return make1K(ctx, s, tbl, g, k, nil, nil)
}

// make1K is the one body of Algorithm 5, optionally extended with privacy
// constraints on candidate sets: after the pass, every original record R_i
// is consistent with at least k generalized records whose sensitive values
// satisfy every constraint in cons. This bounds what the first adversary
// of Section IV-A learns about the target's sensitive attribute — for
// distinct ℓ-diversity her candidate set is never homogeneous, for
// t-closeness it stays within EMD t of the table distribution.
//
// Records are widened one at a time, cheapest first, recounting after each
// widening. Without constraints this selects exactly the k−ℓ cheapest
// records in (marginal cost, index) order: widening R̄_j changes neither
// the other records' consistency nor their marginal costs.
//
// Termination: every iteration of a record's widening loop makes one more
// generalized record consistent with it, and each Bind proved the whole
// table satisfies its constraint, so the loop converges in at most n
// widenings per record.
func make1K(ctx context.Context, s *cluster.Space, tbl *table.Table, g *table.GenTable, k int, cons []cluster.Constraint, sensitive []int) (*table.GenTable, error) {
	n := tbl.Len()
	if g == nil || g.Len() != n {
		return nil, fmt.Errorf("core: generalized table missing or wrong length (original has %d records)", n)
	}
	if err := checkK1Args(n, k); err != nil {
		return nil, err
	}
	active := activeConstraints(cons)
	var bound []cluster.Bound
	if len(active) > 0 {
		if len(sensitive) != n {
			return nil, fmt.Errorf("core: %d sensitive values for %d records", len(sensitive), n)
		}
		bound = make([]cluster.Bound, len(active))
		for i, c := range active {
			b, err := c.Bind(sensitive)
			if err != nil {
				return nil, err
			}
			bound[i] = b
		}
	}

	o := obs.From(ctx)
	defer o.Phase(PhaseMake1K)()
	r := s.NumAttrs()
	// violated collects, per round, the bounds the current candidate set
	// fails; improvesAny asks whether widening record j would strictly
	// improve any of them.
	violated := make([]cluster.Bound, 0, len(bound))
	improvesAny := func(j int) bool {
		for _, b := range violated {
			if b.Improves(j) {
				return true
			}
		}
		return false
	}
	for i := 0; i < n; i++ {
		if ctxDone(ctx) {
			return nil, ctx.Err()
		}
		fault.Inject(SiteMake1KRecord)
		ri := tbl.Records[i]
		widened := int64(0)
		for {
			consistent := 0
			for _, b := range bound {
				b.Reset()
			}
			for j := 0; j < n; j++ {
				if s.Consistent(ri, g.Records[j]) {
					consistent++
					for _, b := range bound {
						b.Add(j)
					}
				}
			}
			needCount := consistent < k
			violated = violated[:0]
			for _, b := range bound {
				if !b.Satisfied() {
					violated = append(violated, b)
				}
			}
			if !needCount && len(violated) == 0 {
				break
			}
			// Pick the cheapest widening among admissible candidates: while a
			// constraint is violated, restrict to records that improve one,
			// and prefer them (the −1e9 bias) even when counts are also
			// short. For DistinctLDiversity, Improves(j) ⟺ the candidate
			// carries a new sensitive value.
			bestJ, bestDelta := -1, math.Inf(1)
			for j := 0; j < n; j++ {
				gj := g.Records[j]
				if s.Consistent(ri, gj) {
					continue
				}
				if len(violated) > 0 && !needCount && !improvesAny(j) {
					continue
				}
				sum := 0.0
				for a := 0; a < r; a++ {
					h := s.Hiers[a]
					w := h.LCA(gj[a], h.LeafOf(ri[a]))
					sum += s.CostAt(a, w) - s.CostAt(a, gj[a])
				}
				delta := sum / float64(r)
				if len(violated) > 0 && improvesAny(j) {
					delta -= 1e9
				}
				if delta < bestDelta {
					bestJ, bestDelta = j, delta
				}
			}
			if bestJ < 0 && len(violated) > 0 && !needCount {
				// No single widening improves a violated constraint (possible
				// for the non-monotone notions — entropy, recursive,
				// t-closeness). Fall back to the cheapest widening of any
				// non-consistent record: the candidate set still grows toward
				// the whole table, which satisfies every bound constraint.
				// Unreachable for distinct ℓ-diversity, where a missing value
				// always has a non-consistent, improving carrier.
				for j := 0; j < n; j++ {
					gj := g.Records[j]
					if s.Consistent(ri, gj) {
						continue
					}
					sum := 0.0
					for a := 0; a < r; a++ {
						h := s.Hiers[a]
						w := h.LCA(gj[a], h.LeafOf(ri[a]))
						sum += s.CostAt(a, w) - s.CostAt(a, gj[a])
					}
					if delta := sum / float64(r); delta < bestDelta {
						bestJ, bestDelta = j, delta
					}
				}
			}
			if bestJ < 0 {
				return nil, fmt.Errorf("core: record %d cannot reach (k=%d, constraints=%s): no admissible widening",
					i, k, constraintNames(active))
			}
			gj := g.Records[bestJ]
			for a := 0; a < r; a++ {
				h := s.Hiers[a]
				gj[a] = h.LCA(gj[a], h.LeafOf(ri[a]))
			}
			widened++
		}
		if widened > 0 {
			o.Event(obs.KindAugment, PhaseMake1K, widened)
			o.Counter("core.make1k.deficient", 1)
		}
	}
	return g, nil
}

// activeConstraints drops nil and trivially-satisfied constraints,
// mirroring the engine's own filtering so the pipelines agree on whether a
// run is constrained at all.
func activeConstraints(cons []cluster.Constraint) []cluster.Constraint {
	out := cons[:0:0]
	for _, c := range cons {
		if c != nil && !c.Trivial() {
			out = append(out, c)
		}
	}
	return out
}

// constraintNames renders a constraint list for error messages.
func constraintNames(cons []cluster.Constraint) string {
	names := make([]string, len(cons))
	for i, c := range cons {
		names[i] = c.String()
	}
	return strings.Join(names, ",")
}

// K1Algorithm selects which (k,1)-anonymizer seeds the (k,k) pipeline.
type K1Algorithm int

const (
	// K1ByExpansion is Algorithm 4, the paper's empirically better choice.
	K1ByExpansion K1Algorithm = iota
	// K1ByNearest is Algorithm 3, the (k−1)-approximation.
	K1ByNearest
)

// String implements fmt.Stringer.
func (a K1Algorithm) String() string {
	switch a {
	case K1ByExpansion:
		return "expansion"
	case K1ByNearest:
		return "nearest"
	default:
		return fmt.Sprintf("K1Algorithm(%d)", int(a))
	}
}

// KKAnonymizeCtx produces a (k,k)-anonymization by coupling a
// (k,1)-anonymizer (Algorithm 3 or 4, selected by alg) with the
// (1,k)-anonymizer (Algorithm 5), as prescribed in Section V-B. Non-empty
// cons additionally requires every record's candidate set to satisfy each
// constraint over sensitive (one value id per record); nil cons is the
// plain pipeline.
//
// The (k,1) stage runs on a pool of par.Workers(workers) workers; the
// Algorithm 5 post-pass is sequential (its in-place widenings are
// order-dependent), so the output is identical at any worker count. Both
// stages check for cancellation at record boundaries and return ctx.Err()
// with no partial output. A nil ctx disables cancellation.
func KKAnonymizeCtx(ctx context.Context, s *cluster.Space, tbl *table.Table, k int, alg K1Algorithm, cons []cluster.Constraint, sensitive []int, workers int) (*table.GenTable, error) {
	g, err := runK1Ctx(ctx, s, tbl, k, alg, workers)
	if err != nil {
		return nil, err
	}
	return make1K(ctx, s, tbl, g, k, cons, sensitive)
}

// runK1Ctx dispatches to the selected (k,1)-anonymizer.
func runK1Ctx(ctx context.Context, s *cluster.Space, tbl *table.Table, k int, alg K1Algorithm, workers int) (*table.GenTable, error) {
	switch alg {
	case K1ByNearest:
		return K1NearestCtx(ctx, s, tbl, k, workers)
	case K1ByExpansion:
		return K1ExpandCtx(ctx, s, tbl, k, workers)
	default:
		return nil, fmt.Errorf("core: unknown (k,1) algorithm %d", alg)
	}
}
