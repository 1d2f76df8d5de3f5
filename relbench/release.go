package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"

	"kanon/internal/anonymity"
	"kanon/internal/cluster"
	"kanon/internal/dataio"
	"kanon/internal/loss"
	"kanon/internal/table"
)

// reference is the benchmark's own reading of the inputs. Released bytes
// are checked against it, so a check never trusts the program's in-memory
// result.
type reference struct {
	tbl   *table.Table
	space *cluster.Space
	// labels maps, per attribute, the rendering of each hierarchy node to
	// the node; -1 marks a rendering shared by two nodes.
	labels []map[string]int
}

func newReference(in *inputs) (*reference, error) {
	tbl, err := dataio.ReadCSVOptions(bytes.NewReader(in.csv), dataio.ReadOptions{Header: true})
	if err != nil {
		return nil, fmt.Errorf("reading input csv: %w", err)
	}
	hiers, err := dataio.LoadHierarchies(bytes.NewReader(in.hier), tbl.Schema)
	if err != nil {
		return nil, fmt.Errorf("reading hierarchy spec: %w", err)
	}
	m, err := loss.NewEntropy(tbl, hiers)
	if err != nil {
		return nil, fmt.Errorf("building entropy measure: %w", err)
	}
	space, err := cluster.NewSpace(hiers, m)
	if err != nil {
		return nil, fmt.Errorf("building space: %w", err)
	}
	labels := make([]map[string]int, len(hiers))
	for j, h := range hiers {
		labels[j] = make(map[string]int, h.NumNodes())
		for u := 0; u < h.NumNodes(); u++ {
			s := dataio.GenValueString(tbl.Schema.Attrs[j], h, u)
			if _, dup := labels[j][s]; dup {
				labels[j][s] = -1
			} else {
				labels[j][s] = u
			}
		}
	}
	return &reference{tbl: tbl, space: space, labels: labels}, nil
}

// parseRelease reads released CSV bytes back into a generalized table over
// the reference hierarchies.
func (ref *reference) parseRelease(data []byte) (*table.GenTable, error) {
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("release is not csv: %w", err)
	}
	schema := ref.tbl.Schema
	if len(rows) == 0 {
		return nil, fmt.Errorf("release is empty")
	}
	for j, a := range schema.Attrs {
		if len(rows[0]) != schema.NumAttrs() || rows[0][j] != a.Name {
			return nil, fmt.Errorf("release header %q does not match the input schema", rows[0])
		}
	}
	rows = rows[1:]
	if len(rows) != ref.tbl.Len() {
		return nil, fmt.Errorf("release has %d records, input has %d", len(rows), ref.tbl.Len())
	}
	g := table.NewGen(schema, len(rows))
	for i, row := range rows {
		if len(row) != schema.NumAttrs() {
			return nil, fmt.Errorf("release row %d has %d fields", i+1, len(row))
		}
		for j, v := range row {
			u, ok := ref.labels[j][v]
			if !ok || u < 0 {
				return nil, fmt.Errorf("release row %d, attribute %q: value is not one node of the hierarchy", i+1, schema.Attrs[j].Name)
			}
			g.Records[i][j] = u
		}
	}
	return g, nil
}

// readRelease parses released bytes for the release checks. Parsing is the
// harness's own work, so jobs time it apart from the verify stage. A
// release that does not parse is one failed operation of led, and nil is
// returned.
func (ref *reference) readRelease(data []byte, led *ledger) *table.GenTable {
	g, err := ref.parseRelease(data)
	if !led.op("release.parse", err) {
		return nil
	}
	return g
}

// checkRelease runs the release checks on a parsed release: every released
// record generalizes its original, and, when kClasses is set, every
// equivalence class holds at least k records. Each check is one operation
// of led; a nil release (it did not parse) is not checked. The checks are
// the program's own functions, and each runs through call under its
// function's name, so that the traced run can give each a span.
func (ref *reference) checkRelease(g *table.GenTable, k int, kClasses bool, led *ledger, call func(name string, f func())) {
	if g == nil {
		return
	}
	var ok bool
	call("anonymity.IsGeneralizationOf", func() { ok = anonymity.IsGeneralizationOf(ref.space, ref.tbl, g) })
	led.check("release.generalizes", ok, "a released record does not generalize its original")
	if kClasses {
		var sizes []int
		call("table.GroupSizes", func() { sizes = g.GroupSizes() })
		smallest := sizes[0] // a parsed release holds ≥ 1 record
		led.check("release.k_classes", smallest >= k,
			fmt.Sprintf("smallest class has %d records, k=%d", smallest, k))
	}
}

// direct is the untraced call: it runs f.
func direct(_ string, f func()) { f() }

// digest is a short fingerprint of released bytes, printed with every run
// so byte-identity between runs can be read off.
func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}
