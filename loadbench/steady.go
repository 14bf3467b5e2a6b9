package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadiness runs a workload n times, each run in a fresh process with
// seeds seed, seed+1, ... (or seed every time when same is set, so the
// spread is run-to-run noise alone), and prints every metric's median, quartiles
// and relative spread (interquartile distance over median), with the
// hypervisor steal time the host accumulated during each run.
func steadiness(wl *workloadDef, seed int64, seconds, trace, procs, n int, same bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed
		if !same {
			s += int64(i)
		}
		steal0, err := hostSteal()
		if err != nil {
			return err
		}
		cmd := exec.Command(self, "-workload", wl.name, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-procs", strconv.Itoa(procs))
		var errBuf bytes.Buffer
		cmd.Stderr = &errBuf
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w\n%s", s, err, errBuf.String())
		}
		steal1, err := hostSteal()
		if err != nil {
			return err
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d (%.4f failed share) host steal %.2fs\n",
			s, res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), steal1-steal0)
		if !res.Correct {
			fmt.Print(errBuf.String())
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	var names []string
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %-6s %12s %12s %12s %8s\n", "metric", "unit", "median", "q1", "q3", "spread")
	for _, name := range names {
		v := values[name]
		q1, q3 := quartiles(v)
		med := median(v)
		fmt.Printf("%-34s %-6s %12.4f %12.4f %12.4f %7.1f%%\n", name, units[name], med, q1, q3, 100*(q3-q1)/math.Abs(med))
	}
	return nil
}

// quartiles computes the first and third quartiles as Python's
// statistics.quantiles(values, n=4) does (the exclusive method).
func quartiles(xs []float64) (float64, float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) < 2 {
		return d[0], d[0]
	}
	m := len(d) + 1
	q := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		j = max(1, min(j, len(d)-1))
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// hostSteal reads the host's accumulated steal time, in seconds, from
// the cpu line of /proc/stat (USER_HZ ticks, 100 per second).
func hostSteal() (float64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0, err
	}
	return ticks / 100, nil
}
