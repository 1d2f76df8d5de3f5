package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"
)

// setupSeconds is the least time spent on the stand-alone ingest
// repetitions (at least five) that set setup_s; every job's own ingest adds
// a sample as well.
const setupSeconds = 1.0

// runPlain is the untraced run: set-up repetitions, then whole jobs until
// the measured seconds are spent. Every timing is the median over its
// samples.
func runPlain(ctx context.Context, cfg config, in *inputs, ref *reference, led *ledger, out io.Writer) map[string]metric {
	start := time.Now()
	var setup []float64
	for len(setup) < 5 || time.Since(start).Seconds() < setupSeconds {
		// Each sample starts from a collected heap, as each job's ingest
		// does, so that no sample pays for its predecessor's garbage.
		runtime.GC()
		t0 := time.Now()
		if ingest(in, led) == nil {
			return nil
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	var jobs []stageTimes
	var walls, peaks []float64
	var first *release
	for more(start, cfg, walls) {
		led.op("host.reset_peak_rss", quiesce())
		st, rel := runJob(ctx, cfg.w, in, ref, cfg.workers, led)
		if rel == nil {
			return nil
		}
		peak, err := peakRSSMB()
		if led.op("host.peak_rss", err) {
			peaks = append(peaks, peak)
		}
		fmt.Fprintf(out, "job %d digest=%s total_s=%.4f ingest_s=%.4f anonymize_s=%.4f encode_s=%.4f parse_s=%.4f verify_s=%.4f attack_s=%.4f\n",
			len(jobs), digest(rel.csv), st.total.Seconds(), st.ingest.Seconds(), st.anonymize.Seconds(),
			st.encode.Seconds(), st.parse.Seconds(), st.verify.Seconds(), st.attack.Seconds())
		if first == nil {
			first = rel
		} else {
			led.check("release.repeatable", bytes.Equal(rel.csv, first.csv) && rel.score == first.score,
				"a repeated job released different bytes or a different attack score")
		}
		setup = append(setup, st.ingest.Seconds())
		jobs = append(jobs, st)
		walls = append(walls, st.total.Seconds())
	}

	stage := func(f func(stageTimes) time.Duration) []float64 {
		v := make([]float64, len(jobs))
		for i, st := range jobs {
			v[i] = f(st).Seconds()
		}
		return v
	}
	m := map[string]metric{}
	report := func(name, unit string, samples []float64) {
		m[name] = metric{Value: quantile(samples, 0.5), Unit: unit}
		fmt.Fprintf(out, "%s %.6g %s (median of %d)\n", name, m[name].Value, unit, len(samples))
	}
	report("setup_s", "s", setup)
	report("anonymize_s", "s", stage(func(st stageTimes) time.Duration { return st.anonymize }))
	report("verify_s", "s", stage(func(st stageTimes) time.Duration { return st.verify }))
	report("attack_s", "s", stage(func(st stageTimes) time.Duration { return st.attack }))
	rates := make([]float64, len(walls))
	for i, t := range walls {
		rates[i] = float64(cfg.w.n) / t
	}
	report("records_per_s", "rec/s", rates)
	report("peak_rss_mb", "MB", peaks)
	report("loss_per_record", "bits", []float64{first.loss})
	printGuard(out, first)
	return m
}
