package anonymity_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"kanon/internal/anonymity"
	"kanon/internal/bipartite"
	"kanon/internal/cluster"
	"kanon/internal/hierarchy"
	"kanon/internal/loss"
	"kanon/internal/table"
)

// This file is the definition-level oracle of the verifiers: on tiny random
// tables and releases it recomputes every notion from pairwise consistency
// (Definition 3.3: R_i ∈ R̄_j attribute by attribute) and compares Check,
// the individual predicates, MatchCounts and VerifyClaim against it. The
// global reference runs bipartite.AllowedEdgesNaive, the paper's per-edge
// formulation, on a graph the test builds itself.

// oracleSpace is a three-attribute space mixing an interval, a subset and a
// flat hierarchy.
func oracleSpace(t testing.TB) (*cluster.Space, *table.Schema) {
	t.Helper()
	schema := table.MustSchema(
		table.MustAttribute("a", []string{"0", "1", "2", "3"}),
		table.MustAttribute("b", []string{"x", "y", "z"}),
		table.MustAttribute("c", []string{"p", "q"}),
	)
	ha, err := hierarchy.Intervals(4, []int{2}, "*")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := hierarchy.FromSubsets(3, []hierarchy.Subset{{Values: []int{0, 1}}}, "*")
	if err != nil {
		t.Fatal(err)
	}
	hiers := []*hierarchy.Hierarchy{ha, hb, hierarchy.Flat(2)}
	s, err := cluster.NewSpace(hiers, loss.NewLM(hiers))
	if err != nil {
		t.Fatal(err)
	}
	return s, schema
}

// oracleCase draws a table of n records over few values (so duplicates are
// common) and a release derived from a random positional generalization by
// random widenings, narrowings and row swaps. Narrowing and swapping break
// positionality and consistency on purpose, so every notion both holds and
// fails across draws.
func oracleCase(s *cluster.Space, schema *table.Schema, rng *rand.Rand, n int) (*table.Table, *table.GenTable) {
	tbl := table.New(schema)
	for i := 0; i < n; i++ {
		r := make(table.Record, len(s.Hiers))
		for a, h := range s.Hiers {
			r[a] = rng.Intn(h.NumValues())
		}
		tbl.MustAppend(r)
	}
	g := table.NewGen(schema, n)
	for i, r := range tbl.Records {
		copy(g.Records[i], s.LeafClosure(r))
	}
	if n == 0 {
		return tbl, g
	}
	for ops := rng.Intn(4 * n); ops > 0; ops-- {
		i, a := rng.Intn(n), rng.Intn(len(s.Hiers))
		h := s.Hiers[a]
		switch op := rng.Intn(10); {
		case op < 6: // widen one cell
			if u := g.Records[i][a]; u != h.Root() {
				g.Records[i][a] = h.Parent(u)
			}
		case op < 8: // narrow one cell to a random child
			if ch := h.Children(g.Records[i][a]); len(ch) > 0 {
				g.Records[i][a] = ch[rng.Intn(len(ch))]
			}
		default: // swap two released rows
			j := rng.Intn(n)
			g.Records[i], g.Records[j] = g.Records[j], g.Records[i]
		}
	}
	return tbl, g
}

// definitionReport is the oracle: every notion recomputed from the
// consistency matrix, plus the per-record match counts.
type definitionReport struct {
	rep    anonymity.Report
	counts []int
}

func byDefinition(t testing.TB, s *cluster.Space, tbl *table.Table, g *table.GenTable, k int) definitionReport {
	t.Helper()
	n, m := tbl.Len(), g.Len()
	cons := make([][]bool, n)
	for i, r := range tbl.Records {
		cons[i] = make([]bool, m)
		for j, gj := range g.Records {
			in := true
			for a, h := range s.Hiers {
				member := false
				for _, v := range h.Leaves(gj[a]) {
					member = member || v == r[a]
				}
				in = in && member
			}
			if in != s.Consistent(r, gj) {
				t.Fatalf("Space.Consistent(R_%d, R̄_%d) = %v, set membership says %v", i, j, !in, in)
			}
			cons[i][j] = in
		}
	}

	rep := anonymity.Report{K: k, Generalization: n == m, KAnonymous: true, OneK: true, KOne: true}
	for i := 0; i < n && rep.Generalization; i++ {
		rep.Generalization = cons[i][i]
	}
	for j, gj := range g.Records {
		same := 0
		for _, gl := range g.Records {
			if gj.Equal(gl) {
				same++
			}
		}
		rep.KAnonymous = rep.KAnonymous && same >= k
		col := 0
		for i := 0; i < n; i++ {
			if cons[i][j] {
				col++
			}
		}
		rep.KOne = rep.KOne && col >= k
	}
	gr := bipartite.New(n, m)
	for i := 0; i < n; i++ {
		row := 0
		for j := 0; j < m; j++ {
			if cons[i][j] {
				row++
				gr.AddEdge(i, j)
			}
		}
		rep.OneK = rep.OneK && row >= k
	}
	rep.KK = rep.OneK && rep.KOne

	counts := make([]int, n)
	if allowed, err := bipartite.AllowedEdgesNaive(gr); err == nil {
		for i, vs := range allowed {
			counts[i] = len(vs)
		}
	}
	rep.Global1K = true
	for i, c := range counts {
		rep.Global1K = rep.Global1K && c >= k
		if i == 0 || c < rep.MinMatches {
			rep.MinMatches = c
		}
	}
	return definitionReport{rep: rep, counts: counts}
}

// compareWithDefinition checks every verifier entry point on one release
// against the oracle and returns the oracle's report.
func compareWithDefinition(t testing.TB, s *cluster.Space, tbl *table.Table, g *table.GenTable, k int) anonymity.Report {
	t.Helper()
	want := byDefinition(t, s, tbl, g, k)
	if got := anonymity.Check(s, tbl, g, k); got != want.rep {
		t.Fatalf("k=%d: Check = %+v, definition says %+v", k, got, want.rep)
	}
	preds := []struct {
		name      string
		got, want bool
	}{
		{"IsGeneralizationOf", anonymity.IsGeneralizationOf(s, tbl, g), want.rep.Generalization},
		{"IsKAnonymous", anonymity.IsKAnonymous(g, k), want.rep.KAnonymous},
		{"Is1K", anonymity.Is1K(s, tbl, g, k), want.rep.OneK},
		{"IsK1", anonymity.IsK1(s, tbl, g, k), want.rep.KOne},
		{"IsKK", anonymity.IsKK(s, tbl, g, k), want.rep.KK},
		{"IsGlobal1K", anonymity.IsGlobal1K(s, tbl, g, k), want.rep.Global1K},
	}
	for _, p := range preds {
		if p.got != p.want {
			t.Fatalf("k=%d: %s = %v, definition says %v", k, p.name, p.got, p.want)
		}
	}
	got := anonymity.MatchCounts(s, tbl, g)
	if len(got) != len(want.counts) {
		t.Fatalf("MatchCounts has %d entries, want %d", len(got), len(want.counts))
	}
	for i := range got {
		if got[i] != want.counts[i] {
			t.Fatalf("MatchCounts[%d] = %d, definition says %d", i, got[i], want.counts[i])
		}
	}

	claims := []struct {
		claim anonymity.Claim
		holds bool
	}{
		{anonymity.ClaimK, want.rep.KAnonymous},
		{anonymity.Claim1K, want.rep.OneK},
		{anonymity.ClaimK1, want.rep.KOne},
		{anonymity.ClaimKK, want.rep.KK},
		{anonymity.ClaimGlobal1K, want.rep.Global1K},
	}
	for _, c := range claims {
		err := anonymity.VerifyClaim(s, tbl, g, k, c.claim)
		if holds := want.rep.Generalization && c.holds; (err == nil) != holds {
			t.Fatalf("k=%d: VerifyClaim(%s) = %v, definition says holds=%v", k, c.claim, err, holds)
		}
		if err == nil || c.claim != anonymity.ClaimKK || !want.rep.Generalization {
			continue
		}
		// The (k,k) claim names the half that fails first.
		half := fmt.Sprintf("not (1,%d)-anonymous, so", k)
		if want.rep.OneK {
			half = fmt.Sprintf("not (%d,1)-anonymous, so", k)
		}
		if !strings.Contains(err.Error(), half) {
			t.Fatalf("k=%d: VerifyClaim(kk) = %q, want it to say %q", k, err, half)
		}
	}
	return want.rep
}

// TestVerifiersMatchDefinitions compares every verifier with the oracle on
// seeded random releases, and requires each notion to be seen both holding
// and failing so the draws exercise both outcomes.
func TestVerifiersMatchDefinitions(t *testing.T) {
	s, schema := oracleSpace(t)
	rng := rand.New(rand.NewSource(31))
	seen := map[string][2]bool{}
	note := func(name string, v bool) {
		o := seen[name]
		if v {
			o[1] = true
		} else {
			o[0] = true
		}
		seen[name] = o
	}
	for trial := 0; trial < 400; trial++ {
		tbl, g := oracleCase(s, schema, rng, 1+rng.Intn(12))
		for k := 1; k <= 4; k++ {
			rep := compareWithDefinition(t, s, tbl, g, k)
			note("generalization", rep.Generalization)
			note("k-anonymous", rep.KAnonymous)
			note("(1,k)", rep.OneK)
			note("(k,1)", rep.KOne)
			note("(k,k)", rep.KK)
			note("global (1,k)", rep.Global1K)
			if rep.Generalization {
				note("global (1,k) of a positional generalization", rep.Global1K)
			}
		}
	}
	for name, o := range seen {
		if !o[0] || !o[1] {
			t.Errorf("%s: draws only produced holds=%v; the oracle does not exercise both outcomes", name, o[1])
		}
	}
}

// FuzzVerifiersMatchDefinitions is the open-ended form of the oracle test:
// the fuzzer picks the draw seed, the table size (≤ 12) and k.
func FuzzVerifiersMatchDefinitions(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed+3), uint8(seed%4+1))
	}
	s, schema := oracleSpace(f)
	f.Fuzz(func(t *testing.T, seed int64, n, k uint8) {
		tbl, g := oracleCase(s, schema, rand.New(rand.NewSource(seed)), 1+int(n)%12)
		compareWithDefinition(t, s, tbl, g, 1+int(k)%5)
	})
}

// TestVerifiersOnNamedReleases runs the oracle comparison on hand-built
// edge cases.
func TestVerifiersOnNamedReleases(t *testing.T) {
	s, schema := oracleSpace(t)
	rows := func(recs ...table.Record) *table.Table {
		tbl := table.New(schema)
		for _, r := range recs {
			tbl.MustAppend(r)
		}
		return tbl
	}
	leaves := func(tbl *table.Table) *table.GenTable {
		g := table.NewGen(schema, tbl.Len())
		for i, r := range tbl.Records {
			copy(g.Records[i], s.LeafClosure(r))
		}
		return g
	}
	suppressed := func(n int) *table.GenTable {
		g := table.NewGen(schema, n)
		for i := range g.Records {
			for a, h := range s.Hiers {
				g.Records[i][a] = h.Root()
			}
		}
		return g
	}
	distinct := rows(table.Record{0, 0, 0}, table.Record{1, 1, 1}, table.Record{3, 2, 0})
	swapped := leaves(distinct)
	swapped.Records[0], swapped.Records[1] = swapped.Records[1], swapped.Records[0]
	cases := []struct {
		name string
		tbl  *table.Table
		g    *table.GenTable
	}{
		{"full suppression", distinct, suppressed(3)},
		{"identity of distinct records", distinct, leaves(distinct)},
		{"identity of duplicates", rows(table.Record{2, 1, 1}, table.Record{2, 1, 1}), leaves(rows(table.Record{2, 1, 1}, table.Record{2, 1, 1}))},
		{"swapped rows", distinct, swapped},
		{"no perfect matching", distinct, leaves(rows(table.Record{0, 0, 0}, table.Record{0, 0, 0}, table.Record{0, 0, 0}))},
		{"fewer released rows than records", distinct, suppressed(2)},
		{"empty table", rows(), suppressed(0)},
	}
	for _, c := range cases {
		for k := 0; k <= 3; k++ {
			t.Run(fmt.Sprintf("%s/k=%d", c.name, k), func(t *testing.T) {
				compareWithDefinition(t, s, c.tbl, c.g, k)
			})
		}
	}
}
