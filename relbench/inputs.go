package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"kanon"
	"kanon/internal/datagen"
	"kanon/internal/dataio"
	"kanon/internal/table"
)

// benchK is the anonymity level every workload requests.
const benchK = 10

// workload is one release the benchmark runs end to end.
type workload struct {
	name   string
	n      int
	notion kanon.Notion
	// maxChunk > 0 selects the partitioned (sharded) pipeline.
	maxChunk int
	// audit adds the verifier and attack stages.
	audit bool
	why   string
}

var workloads = []workload{
	{
		name: "k-sharded-200k", n: 200000, notion: kanon.NotionK, maxChunk: 512,
		why: "partition, shard supervisor and many small cluster arenas; no consistency sweep, no k1",
	},
	{
		name: "kk-global-4k", n: 4000, notion: kanon.NotionGlobal1K, audit: true,
		why: "the paper's (k,k) + global (1,k): Algorithms 4-6 dominate, then verify and attack",
	},
	{
		name: "k-audit-10k", n: 10000, notion: kanon.NotionK, audit: true,
		why: "one large cluster arena, then consistency sweeps of verify and attack on <= n/k distinct rows",
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// options is what the custodian passes to kanon.AnonymizeContext.
func (w workload) options(workers int) kanon.Options {
	opt := kanon.Options{
		K:       benchK,
		Notion:  w.notion,
		Measure: kanon.MeasureEntropy,
		Workers: workers,
	}
	if w.notion == kanon.NotionK {
		opt.Distance = "d3"
		opt.MaxChunk = w.maxChunk
	}
	return opt
}

// inputs are the bytes a custodian hands the program: the microdata CSV and
// the hierarchy specification.
type inputs struct {
	csv, hier []byte
}

// makeInputs generates the Adult census table of w.n records from seed and
// serializes it the way a custodian would store it.
func makeInputs(w workload, seed int64) (*inputs, error) {
	ds := datagen.Adult(w.n, seed)
	var csvBuf, specBuf bytes.Buffer
	if err := dataio.WriteCSV(&csvBuf, ds.Table); err != nil {
		return nil, fmt.Errorf("encoding input csv: %w", err)
	}
	if err := dataio.SaveHierarchies(&specBuf, ds.Table.Schema, ds.Hiers); err != nil {
		return nil, fmt.Errorf("encoding hierarchy spec: %w", err)
	}
	var spec dataio.HierarchySpec
	if err := json.Unmarshal(specBuf.Bytes(), &spec); err != nil {
		return nil, fmt.Errorf("decoding hierarchy spec: %w", err)
	}
	pruneSpec(&spec, ds.Table)
	hier, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encoding hierarchy spec: %w", err)
	}
	return &inputs{csv: csvBuf.Bytes(), hier: hier}, nil
}

// pruneSpec drops from a hierarchy specification the values the records do
// not contain: the program takes each attribute's domain from the CSV and
// rejects a specification naming a value outside it, which a small sample
// of a wide domain (an age of 90, say) would otherwise hit. A subset left
// with fewer than two values, with the whole domain, or equal to a subset
// listed before it is dropped as well.
func pruneSpec(spec *dataio.HierarchySpec, tbl *table.Table) {
	for ai := range spec.Attributes {
		as := &spec.Attributes[ai]
		j := tbl.Schema.AttrIndex(as.Attribute)
		present := map[string]bool{}
		for id, c := range tbl.ValueCounts(j) {
			if c > 0 {
				present[tbl.Schema.Attrs[j].Value(id)] = true
			}
		}
		seen := map[string]bool{}
		kept := as.Subsets[:0]
		for _, ss := range as.Subsets {
			var values []string
			for _, v := range ss.Values {
				if present[v] {
					values = append(values, v)
				}
			}
			sorted := append([]string(nil), values...)
			sort.Strings(sorted)
			key := strings.Join(sorted, "\x00")
			if len(values) < 2 || len(values) == len(present) || seen[key] {
				continue
			}
			seen[key] = true
			ss.Values = values
			kept = append(kept, ss)
		}
		as.Subsets = kept
	}
}
