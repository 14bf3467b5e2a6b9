package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// dispenser hands the query log to the closed-loop clients in whole
// rounds. A round starts only while the measuring time lasts, and only
// after every operation of the previous round has finished, so each run
// attempts whole rounds. An exclusive item waits for the operations in
// flight and runs alone.
type dispenser struct {
	mu        sync.Mutex
	cond      *sync.Cond
	items     []item
	next      int
	rounds    int
	inflight  int
	exclusive bool
	done      bool
	deadline  time.Time
	// between runs at each round start with nothing in flight; its cost
	// is kept out of the measurements.
	between func() error
	// costs holds each finished round's cost, measured from its first
	// operation's dispatch to its last operation's end.
	costs      []usage
	roundStart usage
	err        error
}

func newDispenser(items []item, seconds int, between func() error) *dispenser {
	d := &dispenser{items: items, next: len(items), deadline: time.Now().Add(time.Duration(seconds) * time.Second), between: between}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// get returns the index of the next item and its round, or false when
// the run is over.
func (d *dispenser) get() (int, int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		switch {
		case d.done:
			return 0, 0, false
		case d.next == len(d.items):
			if d.inflight > 0 {
				d.cond.Wait()
				continue
			}
			if d.rounds > 0 {
				d.costs = append(d.costs, readUsage().sub(d.roundStart))
				if !time.Now().Before(d.deadline) {
					d.done = true
					d.cond.Broadcast()
					return 0, 0, false
				}
			}
			if d.between != nil {
				if err := d.between(); err != nil {
					d.err, d.done = err, true
					d.cond.Broadcast()
					return 0, 0, false
				}
			}
			d.roundStart = readUsage()
			d.rounds++
			d.next = 0
		case d.exclusive || (d.items[d.next].exclusive && d.inflight > 0):
			d.cond.Wait()
		default:
			i := d.next
			d.next++
			d.inflight++
			d.exclusive = d.items[i].exclusive
			return i, d.rounds - 1, true
		}
	}
}

func (d *dispenser) finish(i int) {
	d.mu.Lock()
	d.inflight--
	if d.items[i].exclusive {
		d.exclusive = false
	}
	d.mu.Unlock()
	d.cond.Broadcast()
}

// usage is the process-wide cost counters the run reports per operation.
type usage struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	gcs   uint64
}

var usageSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	s := make([]metrics.Sample, len(usageSamples))
	copy(s, usageSamples)
	metrics.Read(s)
	return usage{
		wall:  time.Duration(time.Now().UnixNano()),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: s[0].Value.Uint64(),
		gcs:   s[1].Value.Uint64(),
	}
}

func (u usage) sub(v usage) usage {
	return usage{u.wall - v.wall, u.cpu - v.cpu, u.alloc - v.alloc, u.gcs - v.gcs}
}

func (u usage) add(v usage) usage {
	return usage{u.wall + v.wall, u.cpu + v.cpu, u.alloc + v.alloc, u.gcs + v.gcs}
}

var digestSeed = maphash.MakeSeed()

// digest fingerprints a reply body, so the measured phase can match each
// reply against the one verified during warm-up without parsing it.
func digest(o *op, body []byte) uint64 {
	if o.kind == opCluster {
		// The dispatch summary (hedges fired) may vary; the answer may not.
		if i := bytes.LastIndex(body, []byte(`"cluster":`)); i >= 0 {
			body = body[:i]
		}
	}
	return maphash.Bytes(digestSeed, body)
}

// warmup runs one round of the log in order on one client, verifies
// every reply in full and records its fingerprint.
func warmup(ctx context.Context, e *env, chk *checker) (map[string]uint64, []string, error) {
	verified := map[string]uint64{}
	var wrong []string
	for _, it := range e.items {
		for _, o := range it.ops {
			r, err := e.exec(ctx, o, nil)
			if err != nil {
				return nil, nil, err
			}
			if err := chk.verify(ctx, o, r); err != nil {
				wrong = append(wrong, "warm-up: "+err.Error())
				continue
			}
			if o.kind != opRegSource && o.kind != opRegMapping {
				verified[o.key] = digest(o, r.body)
			}
		}
	}
	return verified, wrong, nil
}

// round is what one round of the measured phase observed.
type round struct {
	latency, ttfb []float64 // ms, one per completed operation
	completed     int
	peak          uint64 // largest live heap sampled after an operation
	cost          usage
}

// phase is what the measured phase observed.
type phase struct {
	attempted, failed int
	rounds            []*round
	byKey, ttfbByKey  map[string][]float64 // latency and ttfb by request
	errors            []string
	// unverified are replies whose fingerprint matched no verified reply;
	// they are checked in full after the phase.
	unverified []pendingReply
}

type pendingReply struct {
	o *op
	r response
}

// perRound lists one figure per round.
func (ph *phase) perRound(f func(*round) float64) []float64 {
	out := make([]float64, len(ph.rounds))
	for i, r := range ph.rounds {
		out[i] = f(r)
	}
	return out
}

// measure runs the closed-loop clients over whole rounds of the log for
// the given time.
func measure(ctx context.Context, e *env, verified map[string]uint64, seconds int) (*phase, error) {
	var between func() error
	if e.wl.reset {
		between = e.reset
	}
	d := newDispenser(e.items, seconds, between)
	var (
		mu   sync.Mutex
		ph   = &phase{byKey: map[string][]float64{}, ttfbByKey: map[string][]float64{}}
		seen = map[string]bool{}
		wg   sync.WaitGroup
	)
	roundAt := func(i int) *round {
		for len(ph.rounds) <= i {
			ph.rounds = append(ph.rounds, &round{})
		}
		return ph.rounds[i]
	}
	runtime.GC()
	for c := 0; c < e.wl.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := new(scratch)
			heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
			for {
				i, n, ok := d.get()
				if !ok {
					break
				}
				for _, o := range d.items[i].ops {
					r, err := e.exec(ctx, o, sc)
					if err == nil {
						err = failure(o, r)
					}
					metrics.Read(heap)
					mu.Lock()
					ph.attempted++
					if err != nil {
						ph.failed++
						ph.errors = append(ph.errors, err.Error())
						mu.Unlock()
						continue
					}
					rd := roundAt(n)
					rd.completed++
					rd.latency = append(rd.latency, float64(r.latency)/1e6)
					rd.ttfb = append(rd.ttfb, float64(r.ttfb)/1e6)
					rd.peak = max(rd.peak, heap[0].Value.Uint64())
					ph.byKey[o.key] = append(ph.byKey[o.key], float64(r.latency)/1e6)
					ph.ttfbByKey[o.key] = append(ph.ttfbByKey[o.key], float64(r.ttfb)/1e6)
					if o.kind != opRegSource && o.kind != opRegMapping {
						if h := digest(o, r.body); h != verified[o.key] {
							if k := fmt.Sprintf("%s|%x", o.key, h); !seen[k] {
								seen[k] = true
								r.body = append([]byte(nil), r.body...)
								ph.unverified = append(ph.unverified, pendingReply{o, r})
							}
						}
					}
					mu.Unlock()
				}
				d.finish(i)
			}
		}()
	}
	wg.Wait()
	if d.err != nil {
		return nil, fmt.Errorf("between rounds: %w", d.err)
	}
	for i, c := range d.costs {
		roundAt(i).cost = c
	}
	return ph, nil
}
