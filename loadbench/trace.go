package main

// trace.go is the traced run. It replays the same query log, but for
// every operation it calls each layer's public function in turn —
// s2sql.ParseAndPlan, mapping.Repository.Schema, planner.Rewrite and
// ProveMergeFree, extract.Manager.ExtractQuery (whole and per source
// kind), instance.Generator generation and serialization, the streaming
// and batch entry points of core.Middleware, the HTTP endpoints and the
// cluster — timing each call from outside as a span. Spans stay in
// memory and are written out when the run ends.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/datasource"
	"repro/internal/extract"
	"repro/internal/instance"
	"repro/internal/planner"
	"repro/internal/s2sql"
	"repro/internal/transport"
)

// span is one timed call. Spans of one operation share a trace ID.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps the spans of a single-threaded run.
type tracer struct {
	t0    time.Time
	spans []span
	// counts are per-operation counts recorded at the same boundaries
	// as the spans.
	counts map[string][]float64
}

func (t *tracer) start(trace, parent int, name string) int {
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: len(t.spans), Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	t.spans[id].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

func (t *tracer) count(name string, v float64) { t.counts[name] = append(t.counts[name], v) }

// selfTimes sets each span's self time: its duration minus the part of
// it its children cover.
func (t *tracer) selfTimes() {
	children := map[int][]int{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, reach), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// durations lists the durations of the spans with a name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// firstWrite records when the first byte reached it.
type firstWrite struct {
	start time.Time
	first time.Duration
}

func (f *firstWrite) Write(p []byte) (int, error) {
	if f.first == 0 && len(p) > 0 {
		f.first = time.Since(f.start)
	}
	return len(p), nil
}

var formats = []string{"owl", "turtle", "ntriples", "json", "xml"}

// runTraced sets the workload up once, runs whole traced rounds of its
// log for the given time, and reports the per-layer metrics.
func runTraced(ctx context.Context, wl *workloadDef, seed int64, seconds int, dir string) (*result, error) {
	e, chk, _, wrong, err := setUp(ctx, wl, seed)
	if e != nil {
		defer e.stop()
	}
	if err != nil {
		return nil, err
	}
	// Workloads without a cluster measure the cluster layer on a side
	// cluster over the same world and settings.
	ce := e
	if !wl.cluster {
		cwl := *wl
		cwl.cluster, cwl.reset, cwl.spare = true, false, nil
		ce, err = newEnv(&cwl, seed)
		if err != nil {
			return nil, err
		}
		defer ce.stop()
		if err := ce.start(ctx); err != nil {
			return nil, err
		}
	}
	tr := &tracer{t0: time.Now(), counts: map[string][]float64{}}
	tc := &tracedRun{e: e, ce: ce, chk: chk, tr: tr}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	rounds := 0
	for rounds == 0 || time.Now().Before(deadline) {
		if err := tc.round(ctx); err != nil {
			return nil, err
		}
		rounds++
	}
	if err := tc.registerProbe(ctx); err != nil {
		return nil, err
	}
	tr.selfTimes()
	if err := writeSpans(tr, dir, fmt.Sprintf("%s-seed%d", wl.name, seed)); err != nil {
		return nil, err
	}
	wrong = append(wrong, tc.wrong...)
	for _, msg := range wrong {
		fmt.Fprintln(stderr, "  wrong answer:", msg)
	}
	http := tr.durations("transport.http")
	fmt.Fprintf(stderr, "%s traced: %d rounds, %d operations, %d spans; end-to-end operations under tracing: latency p50 %.3f ms, p90 %.3f ms\n",
		wl.name, rounds, tc.ops, len(tr.spans), quantile(http, 0.5), quantile(http, 0.9))
	return &result{Correct: len(wrong) == 0, Attempted: tc.ops, Failed: tc.failed, Metrics: tc.metrics()}, nil
}

// tracedRun is the state of one traced run.
type tracedRun struct {
	e, ce *env
	chk   *checker
	tr    *tracer
	// mgr is an extractor manager over the serving middleware's mapping
	// repository, so extraction is timed apart from the rest of the
	// pipeline; it is rebuilt whenever the catalog changes.
	mgr     *extract.Manager
	version int
	// refill is set when the next extraction is the first since the
	// catalog (and with it every cache) changed.
	refill      bool
	ops, failed int
	trace       int
	hits, rules int
	gcs         uint64
	wrong       []string
}

func (tc *tracedRun) newManager() {
	tc.mgr = extract.NewManager(tc.e.mw.Mappings(), tc.e.backends, tc.e.wl.opts)
	tc.refill = true
}

// round runs the log once. Every round starts from flushed caches, as
// the measured rounds of a resetting workload do.
func (tc *tracedRun) round(ctx context.Context) error {
	if tc.e.wl.reset {
		if err := tc.e.reset(); err != nil {
			return err
		}
	}
	tc.version = 0
	tc.newManager()
	probed := false
	for _, it := range tc.e.items {
		for _, o := range it.ops {
			if err := tc.op(ctx, o); err != nil {
				return err
			}
			if o.kind == opBatch {
				probed = true
			}
		}
		if it.exclusive {
			tc.version++
		}
	}
	if !probed {
		return tc.batchProbe(ctx, -1, constrained(tc.e.values))
	}
	return nil
}

var gcSample = []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}

func gcCycles() uint64 {
	metrics.Read(gcSample)
	return gcSample[0].Value.Uint64()
}

// op traces one operation of the log.
func (tc *tracedRun) op(ctx context.Context, o *op) error {
	tr := tc.tr
	tc.trace++
	tc.ops++
	root := tr.start(tc.trace, -1, "op."+o.kind.String())
	defer tr.end(root)

	// The end-to-end request itself, as the untraced run sends it.
	g0 := gcCycles()
	h := tr.start(tc.trace, root, "transport.http")
	r, err := tc.e.exec(ctx, o, nil)
	httpTime := tr.end(h)
	tc.gcs += gcCycles() - g0
	if err == nil {
		err = failure(o, r)
	}
	if err != nil {
		tc.failed++
		fmt.Fprintln(stderr, "  failed:", err)
		return nil
	}
	if o.kind == opRegSource || o.kind == opRegMapping {
		tr.count("transport.register_ms", float64(httpTime)/1e6)
		tc.newManager()
		return nil
	}
	c := tr.start(tc.trace, root, "check")
	if err := tc.chk.verify(ctx, o, r); err != nil {
		tc.wrong = append(tc.wrong, err.Error())
	}
	tr.end(c)

	queries := []*queryDef{o.query}
	if o.kind == opBatch {
		queries = o.batch
	}
	for _, q := range queries {
		plan, err := tc.pipeline(ctx, root, q)
		if err != nil {
			return err
		}
		if err := tc.byKind(ctx, root, q, plan); err != nil {
			return err
		}
	}
	switch o.kind {
	case opQuery, opStream, opCluster:
		if err := tc.overhead(ctx, root, o); err != nil {
			return err
		}
	case opBatch:
		if err := tc.batchProbe(ctx, root, o.batch); err != nil {
			return err
		}
	}
	if err := tc.streams(ctx, root, queries[0]); err != nil {
		return err
	}
	if o.kind == opCluster || tc.trace%4 == 0 {
		return tc.cluster(ctx, root, queries[0])
	}
	return nil
}

// pipeline calls the query pipeline's layers one by one and returns the
// query's plan.
func (tc *tracedRun) pipeline(ctx context.Context, root int, q *queryDef) (*s2sql.Plan, error) {
	tr, mw := tc.tr, tc.e.mw
	ont, repo := mw.Ontology(), mw.Mappings()
	p := tr.start(tc.trace, root, "pipeline")
	defer tr.end(p)

	s := tr.start(tc.trace, p, "s2sql.plan")
	plan, err := s2sql.ParseAndPlan(q.text, ont)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("planning %s: %w", q.text, err)
	}
	s = tr.start(tc.trace, p, "mapping.schema")
	plans, _, err := repo.Schema(plan.AttributeIDs())
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("schema for %s: %w", q.text, err)
	}
	s = tr.start(tc.trace, p, "planner.rewrite")
	rw := planner.Rewrite(ont, repo.ClassKeys(), plan, plans)
	verdict := planner.ProveMergeFree(ont, repo.ClassKeys(), plans)
	tr.end(s)
	pruned, rules := 0, 0
	for _, d := range rw.Decisions {
		if d.Action == planner.ActionPrune {
			pruned++
		}
	}
	for _, sp := range rw.Plans {
		rules += len(sp.Entries)
	}
	tr.count("planner.groups_pruned_per_op", float64(pruned))

	s = tr.start(tc.trace, p, "extract.query")
	rs, err := tc.mgr.ExtractQuery(ctx, plan)
	d := tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("extracting %s: %w", q.text, err)
	}
	if tc.refill {
		tr.count("extract.refill_ms", float64(d)/1e6)
		tc.refill = false
	}
	tr.count("extract.values_per_op", float64(rs.Stats.ValuesExtracted))
	tc.hits += rs.Stats.CacheHits
	tc.rules += rules

	s = tr.start(tc.trace, p, "instance.generate")
	res, err := mw.Generator().GenerateContextOpts(ctx, plan, rs, instance.GenOptions{MergeFree: verdict.OK})
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", q.text, err)
	}
	var buf bytes.Buffer
	for _, name := range formats {
		f, err := instance.ParseFormat(name)
		if err != nil {
			return nil, err
		}
		buf.Reset()
		s = tr.start(tc.trace, p, "instance.serialize_"+name)
		err = mw.Generator().SerializeContext(ctx, &buf, res, f)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("serializing %s as %s: %w", q.text, name, err)
		}
	}
	return plan, nil
}

// byKind times extraction restricted to one source kind at a time.
func (tc *tracedRun) byKind(ctx context.Context, root int, q *queryDef, plan *s2sql.Plan) error {
	byKind := map[datasource.Kind][]string{}
	reg := tc.e.registeredAt(tc.version)
	for _, def := range tc.e.world.Definitions {
		if reg[def.ID] {
			byKind[def.Kind] = append(byKind[def.Kind], def.ID)
		}
	}
	for _, k := range []struct {
		kind datasource.Kind
		name string
	}{{datasource.KindDatabase, "sql"}, {datasource.KindXML, "xpath"}, {datasource.KindWeb, "webl"}, {datasource.KindText, "regex"}} {
		s := tc.tr.start(tc.trace, root, "extract."+k.name)
		_, err := tc.mgr.ExtractQuerySources(ctx, plan, byKind[k.kind])
		tc.tr.end(s)
		if err != nil {
			return fmt.Errorf("extracting %s from %s sources: %w", q.text, k.name, err)
		}
	}
	return nil
}

// streams times the first write of the eager (JSON) and barrier (OWL)
// streaming paths.
func (tc *tracedRun) streams(ctx context.Context, root int, q *queryDef) error {
	for _, m := range []struct {
		format instance.Format
		name   string
	}{{instance.FormatJSON, "instance.eager_first_write_ms"}, {instance.FormatOWL, "instance.barrier_first_write_ms"}} {
		fw := &firstWrite{start: time.Now()}
		s := tc.tr.start(tc.trace, root, "core.query_to_stream")
		_, st, err := tc.e.mw.QueryToStream(ctx, fw, q.text, m.format)
		tc.tr.end(s)
		if err != nil {
			return fmt.Errorf("streaming %s: %w", q.text, err)
		}
		tc.tr.count(m.name, float64(fw.first)/1e6)
		tc.tr.count("instance.chunk_high_water_kb", float64(st.HighWater)/1024)
	}
	return nil
}

// cluster times a cluster query, the same query on one node, and one
// member's extraction of the plan.
func (tc *tracedRun) cluster(ctx context.Context, root int, q *queryDef) error {
	tr, ce := tc.tr, tc.ce
	o := prepared(&op{kind: opCluster, format: "json", query: q})
	s := tr.start(tc.trace, root, "cluster.query")
	r, err := ce.exec(ctx, o, nil)
	clusterTime := tr.end(s)
	if err == nil {
		err = failure(o, r)
	}
	if err != nil {
		return fmt.Errorf("cluster query: %w", err)
	}
	single := prepared(&op{kind: opQuery, format: "json", query: q})
	s = tr.start(tc.trace, root, "cluster.single_node")
	r, err = ce.exec(ctx, single, nil)
	singleTime := tr.end(s)
	if err == nil {
		err = failure(single, r)
	}
	if err != nil {
		return fmt.Errorf("single-node query: %w", err)
	}
	tr.count("cluster.query_ms", float64(clusterTime)/1e6)
	tr.count("cluster.scatter_overhead_ms", float64(clusterTime-singleTime)/1e6)

	member := ce.members[0]
	plan, err := member.Plan(ctx, q.text)
	if err != nil {
		return err
	}
	var ids []string
	for _, def := range member.Sources().All() {
		ids = append(ids, def.ID)
	}
	s = tr.start(tc.trace, root, "cluster.member_extract")
	_, err = member.ExtractPlanSources(ctx, plan, ids)
	d := tr.end(s)
	if err != nil {
		return fmt.Errorf("member extraction: %w", err)
	}
	tr.count("cluster.member_extract_ms", float64(d)/1e6)
	return nil
}

// overhead times the operation's request once more over HTTP and its
// in-process equivalent (QueryTo, QueryToStream, or QueryCluster and
// SerializeContext) in the same format. Both run after the operation
// itself, so both find its plan in the caches, and they take turns
// going first.
func (tc *tracedRun) overhead(ctx context.Context, root int, o *op) error {
	tr := tc.tr
	f, err := instance.ParseFormat(o.format)
	if err != nil {
		return err
	}
	var httpTime, inTime time.Duration
	viaHTTP := func() error {
		h := tr.start(tc.trace, root, "transport.http_again")
		r, err := tc.e.exec(ctx, o, nil)
		httpTime = tr.end(h)
		if err == nil {
			err = failure(o, r)
		}
		return err
	}
	inProcess := func() error {
		in := tr.start(tc.trace, root, "core.query_to")
		var err error
		switch o.kind {
		case opQuery:
			_, err = tc.e.mw.QueryTo(ctx, io.Discard, o.query.text, f)
		case opStream:
			_, _, err = tc.e.mw.QueryToStream(ctx, io.Discard, o.query.text, f)
		case opCluster:
			var res *instance.Result
			if res, _, err = tc.e.coord.QueryCluster(ctx, o.query.text); err == nil {
				err = tc.e.mw.Generator().SerializeContext(ctx, io.Discard, res, f)
			}
		}
		inTime = tr.end(in)
		return err
	}
	sides := []func() error{viaHTTP, inProcess}
	if tc.trace%2 == 1 {
		sides[0], sides[1] = sides[1], sides[0]
	}
	for _, side := range sides {
		if err := side(); err != nil {
			return fmt.Errorf("overhead of %s: %w", o.key, err)
		}
	}
	tr.count("transport.overhead_ms", float64(httpTime-inTime)/1e6)
	return nil
}

// batchProbe answers the same queries as one core batch and one by one,
// under the given span (a new trace when parent is -1). An untimed pass
// first fills the plan, schema and rule caches, so neither side finds
// them filled by the other, and the two sides take turns going first.
func (tc *tracedRun) batchProbe(ctx context.Context, parent int, qs []*queryDef) error {
	if parent < 0 {
		tc.trace++
	}
	root := tc.tr.start(tc.trace, parent, "batch_probe")
	defer tc.tr.end(root)
	var texts []string
	for _, q := range qs {
		texts = append(texts, q.text)
	}
	for _, t := range texts {
		if _, err := tc.e.mw.Query(ctx, t); err != nil {
			return fmt.Errorf("warming %s: %w", t, err)
		}
	}
	batch := func() error {
		s := tc.tr.start(tc.trace, root, "core.batch")
		_, errs := tc.e.mw.QueryBatch(ctx, texts)
		d := tc.tr.end(s)
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("batch: %w", err)
			}
		}
		tc.tr.count("core.batch_ms_per_query", float64(d)/1e6/float64(len(texts)))
		return nil
	}
	sequential := func() error {
		s := tc.tr.start(tc.trace, root, "core.sequential")
		for _, t := range texts {
			if _, err := tc.e.mw.Query(ctx, t); err != nil {
				return fmt.Errorf("sequential: %w", err)
			}
		}
		d := tc.tr.end(s)
		tc.tr.count("core.sequential_ms_per_query", float64(d)/1e6/float64(len(texts)))
		return nil
	}
	sides := []func() error{batch, sequential}
	if tc.trace%2 == 1 {
		sides[0], sides[1] = sides[1], sides[0]
	}
	for _, side := range sides {
		if err := side(); err != nil {
			return err
		}
	}
	return nil
}

// registerProbe onboards copies of the first source of each kind under
// new IDs over HTTP, after every other measurement, so every workload
// reports registration time.
func (tc *tracedRun) registerProbe(ctx context.Context) error {
	tc.trace++
	root := tc.tr.start(tc.trace, -1, "register_probe")
	defer tc.tr.end(root)
	done := map[datasource.Kind]bool{}
	for _, def := range tc.e.world.Definitions {
		if done[def.Kind] || !tc.e.registered[def.ID] {
			continue
		}
		done[def.Kind] = true
		ws := transport.FromDefinition(def)
		ws.ID += "_probe"
		reqs := []any{ws}
		for _, en := range tc.e.world.Entries {
			if en.SourceID == def.ID {
				wm := transport.FromEntry(en)
				wm.Source = ws.ID
				reqs = append(reqs, wm)
			}
		}
		for i, v := range reqs {
			path := "/mappings"
			if i == 0 {
				path = "/sources"
			}
			s := tc.tr.start(tc.trace, root, "transport.register")
			err := tc.e.post(ctx, path, v)
			d := tc.tr.end(s)
			if err != nil {
				return err
			}
			tc.tr.count("transport.register_ms", float64(d)/1e6)
		}
	}
	return nil
}

// metrics reduces the spans and counts to the per-layer metrics:
// medians per operation, except counts (means per operation) and the
// cache hit ratio (over the run).
func (tc *tracedRun) metrics() map[string]metric {
	tr := tc.tr
	med := func(name string) float64 { return median(tr.durations(name)) }
	cnt := func(name string) float64 { return median(tr.counts[name]) }
	mean := func(name string) float64 {
		sum := 0.0
		for _, v := range tr.counts[name] {
			sum += v
		}
		return sum / float64(len(tr.counts[name]))
	}
	ratio := 0.0
	if tc.rules > 0 {
		ratio = float64(tc.hits) / float64(tc.rules)
	}
	m := map[string]metric{
		"s2sql.plan_us":                   {med("s2sql.plan") * 1000, "us"},
		"planner.rewrite_us":              {med("planner.rewrite") * 1000, "us"},
		"planner.groups_pruned_per_op":    {mean("planner.groups_pruned_per_op"), "count"},
		"mapping.schema_us":               {med("mapping.schema") * 1000, "us"},
		"extract.query_ms":                {med("extract.query"), "ms"},
		"extract.sql_ms":                  {med("extract.sql"), "ms"},
		"extract.xpath_ms":                {med("extract.xpath"), "ms"},
		"extract.webl_ms":                 {med("extract.webl"), "ms"},
		"extract.regex_ms":                {med("extract.regex"), "ms"},
		"extract.values_per_op":           {mean("extract.values_per_op"), "count"},
		"extract.rule_cache_hit_ratio":    {ratio, "ratio"},
		"extract.refill_ms":               {cnt("extract.refill_ms"), "ms"},
		"instance.generate_ms":            {med("instance.generate"), "ms"},
		"instance.eager_first_write_ms":   {cnt("instance.eager_first_write_ms"), "ms"},
		"instance.barrier_first_write_ms": {cnt("instance.barrier_first_write_ms"), "ms"},
		"instance.chunk_high_water_kb":    {cnt("instance.chunk_high_water_kb"), "KiB"},
		"core.batch_ms_per_query":         {cnt("core.batch_ms_per_query"), "ms"},
		"core.sequential_ms_per_query":    {cnt("core.sequential_ms_per_query"), "ms"},
		"transport.overhead_ms":           {cnt("transport.overhead_ms"), "ms"},
		"transport.register_ms":           {cnt("transport.register_ms"), "ms"},
		"cluster.query_ms":                {cnt("cluster.query_ms"), "ms"},
		"cluster.member_extract_ms":       {cnt("cluster.member_extract_ms"), "ms"},
		"cluster.scatter_overhead_ms":     {cnt("cluster.scatter_overhead_ms"), "ms"},
		"runtime.gc_cycles_per_op":        {float64(tc.gcs) / float64(tc.ops), "count"},
	}
	for _, f := range formats {
		m["instance.serialize_"+f+"_ms"] = metric{med("instance.serialize_" + f), "ms"}
	}
	return m
}

// writeSpans writes every span as a JSON line, then a summary of
// median duration and self time per span name.
func writeSpans(tr *tracer, dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			return errors.Join(err, f.Close())
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	type row struct {
		Name     string  `json:"name"`
		Count    int     `json:"count"`
		MedianMS float64 `json:"median_ms"`
		SelfMS   float64 `json:"median_self_ms"`
	}
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for _, s := range tr.spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e6)
		selfs[s.Name] = append(selfs[s.Name], float64(s.Self)/1e6)
	}
	var rows []row
	for n, d := range durs {
		rows = append(rows, row{n, len(d), median(d), median(selfs[n])})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+"-summary.json"), append(out, '\n'), 0o644)
}
