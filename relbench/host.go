package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of samples by linear interpolation
// between closest ranks (0 for none).
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// procStatus returns a field of /proc/self/status ("" when unavailable).
func procStatus(field string) string {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// quiesce collects garbage and returns freed memory to the system, then
// restarts the kernel's resident-set high-water mark from the current
// resident set, so that every job starts from the same heap and the next
// peakRSSMB covers that job only. An error means the mark could not be
// restarted, so the next peakRSSMB would not be the job's own.
func quiesce() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB since the last
// quiesce.
func peakRSSMB() (float64, error) {
	v := procStatus("VmHWM")
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("reading VmHWM: %w", err)
	}
	return kb / 1024, nil
}

// cpuModel names the processor, as /proc/cpuinfo gives it.
func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
		}
	}
	return ""
}

// cpuTicks reads the machine's CPU time from the first line of /proc/stat:
// all ticks, and the ticks the hypervisor gave to other guests (steal)
// while this one had work to run.
func cpuTicks() (total, steal uint64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// probeSeconds times a fixed piece of work that calls no code of the
// program: sorting the same 2^20 pseudo-random integers (8 MB), five
// times; it returns the median. The program and its inputs are the same in
// every run of a seed, so when two runs' stage times differ and the probe
// moved with them, the host changed speed.
func probeSeconds() float64 {
	src := make([]uint64, 1<<20)
	x := uint64(1)
	for i := range src { // splitmix64
		x += 0x9e3779b97f4a7c15
		z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src[i] = z ^ (z >> 31)
	}
	buf := make([]uint64, len(src))
	var samples []float64
	for range 5 {
		copy(buf, src)
		t0 := time.Now()
		slices.Sort(buf)
		samples = append(samples, time.Since(t0).Seconds())
	}
	return quantile(samples, 0.5)
}
