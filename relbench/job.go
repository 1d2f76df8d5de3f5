package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"kanon"
	"kanon/internal/anonymity"
)

// ledger counts the operations of a run: every facade call and every
// correctness check is one operation, and an error or a failed check is one
// failure.
type ledger struct {
	attempted, failed int
	failures          []string
}

func (l *ledger) op(name string, err error) bool {
	l.attempted++
	if err != nil {
		l.failed++
		l.failures = append(l.failures, fmt.Sprintf("%s: %v", name, err))
		return false
	}
	return true
}

func (l *ledger) check(name string, ok bool, detail string) bool {
	var err error
	if !ok {
		err = errors.New(detail)
	}
	return l.op(name, err)
}

func (l *ledger) failedFrac() float64 {
	if l.attempted == 0 {
		return 1
	}
	return float64(l.failed) / float64(l.attempted)
}

// stageTimes are the walls of one job's stages; total runs from ingest to
// the last check. parse is the harness reading the release back for the
// release checks; it is no stage of the program.
type stageTimes struct {
	ingest, anonymize, encode, parse, verify, attack, total time.Duration
}

// release is what one job produced: the encoded bytes plus the guards that
// later runs and the traced path are compared on.
type release struct {
	csv  []byte
	loss float64
	// Audit workloads only.
	report anonymity.Report
	score  float64
}

// printGuard prints the release's digest and the guards that are a pure
// function of the seed, so that two runs can be compared exactly.
func printGuard(out io.Writer, rel *release) {
	fmt.Fprintf(out, "guard digest=%s loss_per_record=%v vulnerable_pct=%v\n", digest(rel.csv), rel.loss, rel.score)
}

// ingest is the custodian's load: CSV plus hierarchy JSON from bytes.
func ingest(in *inputs, led *ledger) *kanon.Table {
	t, err := kanon.LoadCSV(bytes.NewReader(in.csv), true)
	if !led.op("kanon.LoadCSV", err) {
		return nil
	}
	if !led.op("Table.SetHierarchiesJSON", t.SetHierarchiesJSON(bytes.NewReader(in.hier))) {
		return nil
	}
	return t
}

// runJob runs one release through the public facade, untraced. It returns
// nil when a call failed so that the job could not go on; failed checks
// are recorded in led and the job continues.
func runJob(ctx context.Context, w workload, in *inputs, ref *reference, workers int, led *ledger) (stageTimes, *release) {
	var st stageTimes
	start := time.Now()
	lap := func(d *time.Duration, t0 time.Time) { *d = time.Since(t0) }

	t0 := time.Now()
	tbl := ingest(in, led)
	lap(&st.ingest, t0)
	if tbl == nil {
		return st, nil
	}

	t0 = time.Now()
	res, err := kanon.AnonymizeContext(ctx, tbl, w.options(workers))
	lap(&st.anonymize, t0)
	if !led.op("kanon.AnonymizeContext", err) {
		return st, nil
	}

	t0 = time.Now()
	var buf bytes.Buffer
	err = res.WriteCSV(&buf)
	lap(&st.encode, t0)
	if !led.op("Result.WriteCSV", err) {
		return st, nil
	}
	rel := &release{csv: buf.Bytes()}

	t0 = time.Now()
	g := ref.readRelease(rel.csv, led)
	lap(&st.parse, t0)

	// Verify: the release checks, plus the full verifier where the
	// workload audits.
	t0 = time.Now()
	ref.checkRelease(g, benchK, w.notion == kanon.NotionK, led, direct)
	rel.loss = res.Loss()
	if w.audit {
		rel.report = res.Verify(benchK)
		checkReport(w, rel.report, led)
	}
	lap(&st.verify, t0)

	// Attack: the equivalence-class risk model everywhere, plus the attack
	// suite and the two consistency-graph risk models where the workload
	// audits.
	t0 = time.Now()
	class, err := res.Risk("class", benchK)
	if led.op("Result.Risk(class)", err) && w.notion == kanon.NotionK {
		led.check("attack.class_risk", class.AtRisk == 0,
			fmt.Sprintf("class risk model finds %d records in classes below k", class.AtRisk))
	}
	if w.audit {
		sum, errA := res.AttackEvaluation(benchK)
		_, errN := res.Risk("neighbors", benchK)
		matches, errM := res.Risk("matches", benchK)
		okA := led.op("Result.AttackEvaluation", errA)
		led.op("Result.Risk(neighbors)", errN)
		okM := led.op("Result.Risk(matches)", errM)
		if okA && okM {
			rel.score = sum.Score
			checkAttacks(rel.report, sum.Matching.Vulnerable, matches.AtRisk, led)
		}
	}
	lap(&st.attack, t0)
	st.total = time.Since(start)
	return st, rel
}

// checkReport checks that the verifier certifies the notion the workload
// requested.
func checkReport(w workload, rep anonymity.Report, led *ledger) {
	led.check("verify.generalization", rep.Generalization, "verifier: not a generalization of the input")
	switch w.notion {
	case kanon.NotionK:
		led.check("verify.k_anonymous", rep.KAnonymous, "verifier: release is not k-anonymous")
	case kanon.NotionGlobal1K:
		led.check("verify.kk", rep.KK, "verifier: release is not (k,k)-anonymous")
		led.check("verify.global_1k", rep.Global1K, "verifier: release is not global (1,k)-anonymous")
	}
}

// checkAttacks checks the attack layer against the verifier: on a global
// (1,k)-anonymous release no record has fewer than k matches, so neither
// the matching attack nor the matches risk model may find one.
func checkAttacks(rep anonymity.Report, matchingVulnerable, matchesAtRisk int, led *ledger) {
	led.check("attack.agrees_with_verifier",
		!rep.Global1K || (matchingVulnerable == 0 && matchesAtRisk == 0),
		fmt.Sprintf("verifier reports %d min matches but the matching attack finds %d and the matches model %d records below k",
			rep.MinMatches, matchingVulnerable, matchesAtRisk))
}
