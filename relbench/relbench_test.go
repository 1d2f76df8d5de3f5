package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"kanon"
	"kanon/internal/dataio"
	"kanon/internal/table"
)

// small shrinks a workload so that a test runs it in a second.
func small(notion kanon.Notion, n, maxChunk int, audit bool) workload {
	return workload{name: "test", n: n, notion: notion, maxChunk: maxChunk, audit: audit}
}

func setup(t *testing.T, w workload, seed int64) (*inputs, *reference) {
	t.Helper()
	in, err := makeInputs(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(in)
	if err != nil {
		t.Fatal(err)
	}
	return in, ref
}

func encode(t *testing.T, ref *reference, g *table.GenTable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dataio.WriteGenCSV(&buf, g, ref.space.Hiers); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// lastResult runs finish and decodes the result line it prints.
func lastResult(t *testing.T, led *ledger) (int, result) {
	t.Helper()
	var out bytes.Buffer
	code := finish(&out, led, map[string]metric{"setup_s": {Value: 1, Unit: "s"}})
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	return code, res
}

// wantOnlyFailure asserts that exactly the named check failed and that the
// run reports it: a non-zero failed share, correct=false and exit code 1.
func wantOnlyFailure(t *testing.T, led *ledger, name string) {
	t.Helper()
	if led.failed != 1 || !strings.HasPrefix(led.failures[0], name+":") {
		t.Fatalf("failures = %q, want exactly %s", led.failures, name)
	}
	if led.failedFrac() <= 0 {
		t.Fatalf("failed_ops_frac = %v, want > 0", led.failedFrac())
	}
	code, res := lastResult(t, led)
	if code != 1 || res.Correct || res.Failed != 1 || res.Attempted != led.attempted {
		t.Fatalf("exit %d, result %+v; want exit 1 and correct=false with one failure", code, res)
	}
}

func TestValidReleasePasses(t *testing.T) {
	w := small(kanon.NotionK, 200, 0, true)
	in, ref := setup(t, w, 3)
	led := &ledger{}
	if _, rel := runJob(context.Background(), w, in, ref, 2, led); rel == nil || led.failed != 0 {
		t.Fatalf("valid release failed: %q", led.failures)
	}
	if code, res := lastResult(t, led); code != 0 || !res.Correct || res.Failed != 0 {
		t.Fatalf("exit %d, result %+v; want exit 0 and correct=true", code, res)
	}
}

// TestCheckCatchesSmallClass feeds the checks a release, otherwise valid,
// whose smallest class holds k-1 records.
func TestCheckCatchesSmallClass(t *testing.T) {
	w := small(kanon.NotionK, 200, 0, false)
	_, ref := setup(t, w, 3)
	// Keep attribute j of k-1 records sharing one value; suppress the rest.
	j, v := -1, -1
	for a := 0; a < ref.tbl.Schema.NumAttrs() && j < 0; a++ {
		for val, c := range ref.tbl.ValueCounts(a) {
			if c >= benchK {
				j, v = a, val
				break
			}
		}
	}
	if j < 0 {
		t.Fatal("no value shared by k records")
	}
	g := table.NewGen(ref.tbl.Schema, ref.tbl.Len())
	kept := 0
	for i, r := range ref.tbl.Records {
		for a, h := range ref.space.Hiers {
			g.Records[i][a] = h.Root()
		}
		if r[j] == v && kept < benchK-1 {
			g.Records[i][j] = ref.space.Hiers[j].LeafOf(v)
			kept++
		}
	}
	led := &ledger{}
	ref.checkRelease(ref.readRelease(encode(t, ref, g), led), benchK, true, led, direct)
	wantOnlyFailure(t, led, "release.k_classes")
}

// TestCheckCatchesNonGeneralization swaps two released rows of a valid
// release: class sizes stay the same, but a record no longer generalizes
// its original.
func TestCheckCatchesNonGeneralization(t *testing.T) {
	w := small(kanon.NotionK, 200, 0, false)
	in, ref := setup(t, w, 3)
	led := &ledger{}
	_, rel := runJob(context.Background(), w, in, ref, 2, led)
	if rel == nil || led.failed != 0 {
		t.Fatalf("valid release failed: %q", led.failures)
	}
	g, err := ref.parseRelease(rel.csv)
	if err != nil {
		t.Fatal(err)
	}
	swapped := false
	for i := 1; i < g.Len() && !swapped; i++ {
		if !ref.space.Consistent(ref.tbl.Records[0], g.Records[i]) {
			g.Records[0], g.Records[i] = g.Records[i], g.Records[0]
			swapped = true
		}
	}
	if !swapped {
		t.Fatal("every released row covers record 0")
	}
	led = &ledger{}
	ref.checkRelease(ref.readRelease(encode(t, ref, g), led), benchK, true, led, direct)
	wantOnlyFailure(t, led, "release.generalizes")
}

// TestTracedJobReproducesFacade runs each workload shape small: the traced
// path, which drives the layers directly, must release the facade's bytes,
// loss, verifier report and attack score.
func TestTracedJobReproducesFacade(t *testing.T) {
	for _, w := range []workload{
		small(kanon.NotionK, 600, 64, false),
		small(kanon.NotionGlobal1K, 150, 0, true),
		small(kanon.NotionK, 300, 0, true),
	} {
		in, ref := setup(t, w, 5)
		led := &ledger{}
		_, want := runJob(context.Background(), w, in, ref, 2, led)
		tr := &tracer{epoch: time.Now()}
		got, lc := tracedJob(context.Background(), config{w: w, workers: 2}, in, ref, led, tr)
		if want == nil || got == nil || led.failed != 0 {
			t.Fatalf("%s/%d: failures %q", w.notion, w.n, led.failures)
		}
		if !bytes.Equal(got.csv, want.csv) || got.loss != want.loss || got.report != want.report || got.score != want.score {
			t.Fatalf("%s/%d: traced release %s differs from facade release %s", w.notion, w.n, digest(got.csv), digest(want.csv))
		}
		if w.maxChunk > 0 && len(lc.shardGaps) == 0 {
			t.Fatalf("%s/%d: no shard completions observed", w.notion, w.n)
		}
		if len(tr.open) != 0 || tr.spans[0].Name != "job" || tr.spans[0].Parent != -1 {
			t.Fatalf("%s/%d: spans not closed under one job root: %+v", w.notion, w.n, tr.spans[0])
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "k-audit-10k", "--trace", "2"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Fatalf("%q: exit %d, want 2", args, code)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{4, 1, 3, 2}
	if got := quantile(s, 0.5); got != 2.5 {
		t.Fatalf("quantile(0.5) = %v", got)
	}
	if got := quantile(s, 1); got != 4 {
		t.Fatalf("quantile(1) = %v", got)
	}
}
