// Package anonymity implements definition-level verifiers for the five
// k-type anonymity notions of "k-Anonymization Revisited" — k-anonymity
// (Definition 4.1), (1,k)-, (k,1)- and (k,k)-anonymity (Definition 4.4),
// and global (1,k)-anonymity (Definition 4.6) — plus distinct and entropy
// ℓ-diversity (Machanavajjhala et al.), which Section II marks as a natural
// extension of the framework.
//
// Every algorithm in internal/core certifies its output against these
// verifiers in tests; the CLI exposes them via `kanon verify`.
package anonymity

import (
	"fmt"
	"math"

	"kanon/internal/bipartite"
	"kanon/internal/cluster"
	"kanon/internal/loss"
	"kanon/internal/table"
)

// BuildGraph constructs the bipartite consistency graph V_{D,g(D)}: left
// nodes are original records, right nodes are generalized records, and an
// edge connects R_i to R̄_j iff they are consistent (Definition 3.3), listed
// in ascending j. Every consumer of a fixed release's consistency reads it.
func BuildGraph(s *cluster.Space, tbl *table.Table, g *table.GenTable) *bipartite.Graph {
	gr := bipartite.New(tbl.Len(), g.Len())
	for i, r := range tbl.Records {
		for j, gj := range g.Records {
			if s.Consistent(r, gj) {
				gr.AddEdge(i, j)
			}
		}
	}
	return gr
}

// IsGeneralizationOf reports whether g is a valid generalization of tbl in
// the positional sense of Definition 3.2: R̄_i generalizes R_i for every i.
func IsGeneralizationOf(s *cluster.Space, tbl *table.Table, g *table.GenTable) bool {
	if tbl.Len() != g.Len() {
		return false
	}
	for i, r := range tbl.Records {
		if !s.Consistent(r, g.Records[i]) {
			return false
		}
	}
	return true
}

// IsKAnonymous reports whether g satisfies k-anonymity (Definition 4.1):
// every generalized record is identical to at least k−1 other generalized
// records.
func IsKAnonymous(g *table.GenTable, k int) bool {
	if g.Len() == 0 {
		return true
	}
	for _, size := range g.GroupSizes() {
		if size < k {
			return false
		}
	}
	return true
}

// Is1K reports whether g is a (1,k)-anonymization of tbl: every original
// record is consistent with at least k generalized records.
func Is1K(s *cluster.Space, tbl *table.Table, g *table.GenTable, k int) bool {
	return is1K(BuildGraph(s, tbl, g), k)
}

// IsK1 reports whether g is a (k,1)-anonymization of tbl: every generalized
// record is consistent with at least k original records.
func IsK1(s *cluster.Space, tbl *table.Table, g *table.GenTable, k int) bool {
	return isK1(BuildGraph(s, tbl, g), k)
}

// IsKK reports whether g is a (k,k)-anonymization of tbl: both (1,k) and
// (k,1).
func IsKK(s *cluster.Space, tbl *table.Table, g *table.GenTable, k int) bool {
	gr := BuildGraph(s, tbl, g)
	return is1K(gr, k) && isK1(gr, k)
}

// is1K reports whether every left node of the consistency graph has degree
// at least k.
func is1K(gr *bipartite.Graph, k int) bool {
	for u := 0; u < gr.NLeft(); u++ {
		if len(gr.Neighbors(u)) < k {
			return false
		}
	}
	return true
}

// isK1 reports whether every right node of the consistency graph has degree
// at least k.
func isK1(gr *bipartite.Graph, k int) bool {
	deg := make([]int, gr.NRight())
	for u := 0; u < gr.NLeft(); u++ {
		for _, v := range gr.Neighbors(u) {
			deg[v]++
		}
	}
	return atLeast(deg, k)
}

// MatchCounts returns, for every original record, the number of its matches
// in g: consistent generalized records whose edge extends to a perfect
// matching of V_{D,g(D)}. If the graph has no perfect matching every count
// is zero.
func MatchCounts(s *cluster.Space, tbl *table.Table, g *table.GenTable) []int {
	counts, _ := bipartite.AllowedCounts(BuildGraph(s, tbl, g))
	return counts
}

// IsGlobal1K reports whether g is a global (1,k)-anonymization of tbl
// (Definition 4.6): every original record has at least k matches.
func IsGlobal1K(s *cluster.Space, tbl *table.Table, g *table.GenTable, k int) bool {
	return atLeast(MatchCounts(s, tbl, g), k)
}

// atLeast reports whether every count is at least k; it holds vacuously for
// no counts (an empty table).
func atLeast(counts []int, k int) bool {
	for _, c := range counts {
		if c < k {
			return false
		}
	}
	return true
}

// IsDistinctLDiverse reports whether every equivalence class of g contains
// at least l distinct sensitive values. sensitive[i] is the sensitive
// attribute value of record i.
func IsDistinctLDiverse(g *table.GenTable, sensitive []int, l int) (bool, error) {
	if len(sensitive) != g.Len() {
		return false, fmt.Errorf("anonymity: %d sensitive values for %d records", len(sensitive), g.Len())
	}
	for _, grp := range loss.GroupsOf(g) {
		distinct := make(map[int]bool)
		for _, i := range grp {
			distinct[sensitive[i]] = true
		}
		if len(distinct) < l {
			return false, nil
		}
	}
	return true, nil
}

// IsEntropyLDiverse reports whether every equivalence class of g has
// sensitive-value entropy at least log2(l) — entropy ℓ-diversity.
func IsEntropyLDiverse(g *table.GenTable, sensitive []int, l int) (bool, error) {
	if len(sensitive) != g.Len() {
		return false, fmt.Errorf("anonymity: %d sensitive values for %d records", len(sensitive), g.Len())
	}
	threshold := math.Log2(float64(l))
	for _, grp := range loss.GroupsOf(g) {
		counts := make(map[int]int)
		for _, i := range grp {
			counts[sensitive[i]]++
		}
		h := 0.0
		total := float64(len(grp))
		for _, c := range counts {
			p := float64(c) / total
			h -= p * math.Log2(p)
		}
		if h < threshold-1e-12 {
			return false, nil
		}
	}
	return true, nil
}

// Report summarizes which anonymity notions a generalization satisfies for
// a given k, as produced by Check.
type Report struct {
	K              int
	Generalization bool // positional validity (Definition 3.2)
	KAnonymous     bool // Definition 4.1
	OneK           bool // (1,k), Definition 4.4
	KOne           bool // (k,1), Definition 4.4
	KK             bool // (k,k), Definition 4.4
	Global1K       bool // Definition 4.6
	MinMatches     int  // min over records of the number of matches
}

// Check runs every verifier and returns the combined report. The (1,k),
// (k,1) and global (1,k) verdicts all read one consistency graph.
// MinMatches is 0 on an empty table.
func Check(s *cluster.Space, tbl *table.Table, g *table.GenTable, k int) Report {
	gr := BuildGraph(s, tbl, g)
	counts, _ := bipartite.AllowedCounts(gr)
	rep := Report{
		K:              k,
		Generalization: IsGeneralizationOf(s, tbl, g),
		KAnonymous:     IsKAnonymous(g, k),
		OneK:           is1K(gr, k),
		KOne:           isK1(gr, k),
		Global1K:       atLeast(counts, k),
	}
	rep.KK = rep.OneK && rep.KOne
	for i, c := range counts {
		if i == 0 || c < rep.MinMatches {
			rep.MinMatches = c
		}
	}
	return rep
}

// String renders the report for CLI output.
func (r Report) String() string {
	yn := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	return fmt.Sprintf(
		"k=%d: generalization=%s k-anonymous=%s (1,k)=%s (k,1)=%s (k,k)=%s global(1,k)=%s (min matches %d)",
		r.K, yn(r.Generalization), yn(r.KAnonymous), yn(r.OneK), yn(r.KOne), yn(r.KK), yn(r.Global1K), r.MinMatches)
}
