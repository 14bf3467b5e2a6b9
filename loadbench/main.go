// Command loadbench is the repository's end-to-end benchmark: a
// single-process load generator that builds a world from a seed, serves
// it with transport.NewServer (or three cluster nodes) on loopback, and
// replays a generated query log at it with closed-loop clients, checking
// every answer. With -trace 1 it instead calls each layer's public
// function in turn and reports per-layer figures. See README.md.
//
//	loadbench -workload cold-extract -seed 1 -seconds 10 -trace 0
//	loadbench -workload cold-extract -steady 10     (steadiness report over seeds 1..10)
//	loadbench -workload cold-extract -steady 10 -same-seed   (the same seed ten times)
//	loadbench -selftest                             (checks reject corrupted answers)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

var stderr io.Writer = os.Stderr

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("loadbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed of the generated world and query log")
	seconds := fs.Int("seconds", 10, "length of the measured phase in seconds (whole rounds of the log)")
	trace := fs.Int("trace", 0, "1 runs the traced layer-by-layer run and reports per-layer metrics")
	steady := fs.Int("steady", 0, "run the workload this many times, each in a fresh process with seeds seed, seed+1, ..., and report each metric's spread")
	procs := fs.Int("procs", -1, "GOMAXPROCS of the run; 0 keeps every processor; the default is 1 for load runs and 0 for traced runs")
	sameSeed := fs.Bool("same-seed", false, "with -steady, rerun the one seed instead of stepping through seeds")
	selftest := fs.Bool("selftest", false, "only show that the answer checks reject corrupted answers")
	spans := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *selftest {
		if err := selfTest(); err != nil {
			fmt.Fprintln(stderr, "selftest:", err)
			return 1
		}
		fmt.Fprintln(stderr, "selftest: every corrupted answer was rejected")
		return 0
	}
	wl, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *steady > 0 {
		if err := steadiness(wl, *seed, *seconds, *trace, *procs, *steady, *sameSeed); err != nil {
			fmt.Fprintln(stderr, "steady:", err)
			return 1
		}
		return 0
	}
	// The checks must be live before their verdict means anything.
	if err := selfTest(); err != nil {
		fmt.Fprintln(stderr, "selftest:", err)
		return 1
	}
	var res *result
	if *procs < 0 {
		// Load runs put clients and servers on one processor. On a
		// 2-vCPU VM whose host steals time, keeping both vCPUs busy drew
		// several times the steal and spread cold-extract's time metrics
		// 33-43 % from run to run (README.md). Parallel work inside a
		// query is therefore measured by the traced run, which keeps
		// every processor.
		*procs = 1
		if *trace == 1 {
			*procs = 0
		}
	}
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}
	if *trace == 1 {
		res, err = runTraced(context.Background(), wl, *seed, *seconds, *spans)
	} else {
		res, err = runLoad(context.Background(), wl, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, wl.name+":", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const (
	// setups is how many times a run sets its workload up; setup_s is
	// the median.
	setups = 5
)

// runLoad sets the workload up (keeping the last set-up), runs the
// measured phase and checks what it could not check on the way.
func runLoad(ctx context.Context, wl *workloadDef, seed int64, seconds int) (*result, error) {
	var (
		e        *env
		chk      *checker
		verified map[string]uint64
		wrong    []string
		setupS   []float64
	)
	for i := 0; i < setups; i++ {
		if e != nil {
			e.stop()
		}
		runtime.GC()
		start := time.Now()
		var err error
		e, chk, verified, wrong, err = setUp(ctx, wl, seed)
		if err != nil {
			if e != nil {
				e.stop()
			}
			return nil, err
		}
		setupS = append(setupS, (time.Since(start) - chk.spent).Seconds())
	}
	defer e.stop()

	ph, err := measure(ctx, e, verified, seconds)
	if err != nil {
		return nil, err
	}
	for _, p := range ph.unverified {
		if err := chk.verify(ctx, p.o, p.r); err != nil {
			wrong = append(wrong, err.Error())
		}
	}
	report(wl.name, ph, wrong)
	// Every figure is computed per round (a whole pass over the log) and
	// reported as the median round, so a burst of host steal that slows
	// a few rounds does not move it.
	per := func(f func(r *round) float64) float64 { return median(ph.perRound(f)) }
	m := map[string]metric{
		"setup_s":          {median(setupS), "s"},
		"throughput_ops_s": {per(func(r *round) float64 { return float64(r.completed) / r.cost.wall.Seconds() }), "1/s"},
		"latency_p50_ms":   {per(func(r *round) float64 { return quantile(r.latency, 0.5) }), "ms"},
		"latency_p90_ms":   {per(func(r *round) float64 { return quantile(r.latency, 0.9) }), "ms"},
		"ttfb_p50_ms":      {per(func(r *round) float64 { return quantile(r.ttfb, 0.5) }), "ms"},
		"ttfb_p90_ms":      {per(func(r *round) float64 { return quantile(r.ttfb, 0.9) }), "ms"},
		"cpu_ms_per_op":    {per(func(r *round) float64 { return float64(r.cost.cpu) / 1e6 / float64(r.completed) }), "ms"},
		"alloc_kb_per_op":  {per(func(r *round) float64 { return float64(r.cost.alloc) / 1024 / float64(r.completed) }), "KiB"},
		"heap_peak_mb":     {per(func(r *round) float64 { return float64(r.peak) / (1 << 20) }), "MiB"},
	}
	return &result{Correct: len(wrong) == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: m}, nil
}

// setUp is one set-up: world generation, servers, registration over
// HTTP and a verified warm-up round.
func setUp(ctx context.Context, wl *workloadDef, seed int64) (*env, *checker, map[string]uint64, []string, error) {
	e, err := newEnv(wl, seed)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if err := e.start(ctx); err != nil {
		return e, nil, nil, nil, err
	}
	chk, err := newChecker(e)
	if err != nil {
		return e, nil, nil, nil, err
	}
	verified, wrong, err := warmup(ctx, e, chk)
	if err != nil {
		return e, nil, nil, nil, err
	}
	return e, chk, verified, wrong, nil
}

// report prints the run's bookkeeping on stderr.
func report(name string, ph *phase, wrong []string) {
	var total usage
	for _, r := range ph.rounds {
		total = total.add(r.cost)
	}
	fmt.Fprintf(stderr, "%s: %d rounds, %d operations, %d failed, %.2fs measured, %d GC cycles, %d replies checked after the phase\n",
		name, len(ph.rounds), ph.attempted, ph.failed, total.wall.Seconds(), total.gcs, len(ph.unverified))
	for i, msg := range ph.errors {
		if i == 5 {
			fmt.Fprintf(stderr, "  ... %d more failures\n", len(ph.errors)-5)
			break
		}
		fmt.Fprintln(stderr, "  failed:", msg)
	}
	for _, msg := range wrong {
		fmt.Fprintln(stderr, "  wrong answer:", msg)
	}
	var keys []string
	for k := range ph.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stderr, "  latency %8.3f ms, ttfb %8.3f ms (medians of %4d): %s\n",
			median(ph.byKey[k]), median(ph.ttfbByKey[k]), len(ph.byKey[k]), k)
	}
}

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
