package main

// check.go verifies answers. Ground truth comes from the generated
// records filtered by the benchmark's own evaluation of each query
// (queryDef.matches); answers are parsed by readers written here. What
// cannot be computed from the records is checked as an invariant:
// streamed and batched bodies equal the /query body, the three RDF
// formats carry one graph, and a cluster answers what a single node
// answers.

import (
	"bytes"
	"context"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/instance"
)

// instanceValues is one answer instance as the checks read it.
type instanceValues struct {
	classes []string
	values  map[string]string // attribute (any spelling) → first value
}

func (iv instanceValues) isProduct() bool {
	for _, c := range iv.classes {
		if i := strings.LastIndexAny(c, "."); i >= 0 {
			c = c[i+1:]
		}
		if c == "product" || c == "watch" {
			return true
		}
	}
	return false
}

// value finds an attribute by its last name segment, whatever the
// format's spelling (thing.product.brand, thing_product_brand).
func (iv instanceValues) value(name string) string {
	for k, v := range iv.values {
		k = strings.ReplaceAll(k, ".", "_")
		if k == name || strings.HasSuffix(k, "_"+name) {
			return v
		}
	}
	return ""
}

// tuple renders a product instance for comparison with ground truth.
func (iv instanceValues) tuple() string {
	price := iv.value("price")
	if f, err := strconv.ParseFloat(price, 64); err == nil {
		price = strconv.FormatFloat(f, 'f', 2, 64)
	}
	return strings.Join([]string{iv.value("brand"), iv.value("model"), iv.value("case"), price, iv.value("water_resistance")}, "|")
}

// expectation is what a correct answer holds.
type expectation struct {
	tuples  []string // sorted product tuples
	related int
}

// expect computes the answer to q over the sources registered at a
// catalog version: one product per matching record, carrying the values
// its source maps, and (when the ontology has the product→provider
// relation) one provider per source that contributed a product.
func (e *env) expect(q *queryDef, version int) expectation {
	reg := e.registeredAt(version)
	var ex expectation
	sources := map[string]bool{}
	for _, r := range e.world.Records {
		hasWater := e.mappedAttrs[r.SourceID+"|thing.product.watch.water_resistance"]
		if !reg[r.SourceID] || !q.matches(r, hasWater) {
			continue
		}
		water := ""
		if hasWater {
			water = strconv.Itoa(r.WaterResistance)
		}
		ex.tuples = append(ex.tuples, strings.Join([]string{r.Brand, r.Model, r.Case, strconv.FormatFloat(r.Price, 'f', 2, 64), water}, "|"))
		sources[r.SourceID] = true
	}
	sort.Strings(ex.tuples)
	if !e.wl.spec.FlatOntology {
		ex.related = len(sources)
	}
	return ex
}

// readInstances parses an answer body of any format into instances.
func readInstances(format string, body []byte) ([]instanceValues, error) {
	switch format {
	case "json":
		var doc struct {
			Matched []struct {
				Class  string              `json:"class"`
				Values map[string][]string `json:"values"`
			} `json:"matched"`
			Related []struct {
				Class  string              `json:"class"`
				Values map[string][]string `json:"values"`
			} `json:"related"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return nil, fmt.Errorf("json answer: %w", err)
		}
		var out []instanceValues
		for _, in := range append(doc.Matched, doc.Related...) {
			iv := instanceValues{classes: []string{in.Class}, values: map[string]string{}}
			for k, vs := range in.Values {
				if len(vs) > 0 {
					iv.values[k] = vs[0]
				}
			}
			out = append(out, iv)
		}
		return out, nil
	case "xml":
		var doc struct {
			Instances []struct {
				Class string `xml:"class,attr"`
				Attrs []struct {
					ID    string `xml:"id,attr"`
					Value string `xml:",chardata"`
				} `xml:"attribute"`
			} `xml:"instance"`
		}
		if err := xml.Unmarshal(body, &doc); err != nil {
			return nil, fmt.Errorf("xml answer: %w", err)
		}
		var out []instanceValues
		for _, in := range doc.Instances {
			iv := instanceValues{classes: []string{in.Class}, values: map[string]string{}}
			for _, a := range in.Attrs {
				if _, seen := iv.values[a.ID]; !seen {
					iv.values[a.ID] = a.Value
				}
			}
			out = append(out, iv)
		}
		return out, nil
	case "text":
		var out []instanceValues
		for _, line := range strings.Split(string(body), "\n") {
			switch {
			case strings.HasPrefix(line, "- "):
				// "- watch_1 (thing.product.watch) from web_000"
				open, close := strings.IndexByte(line, '('), strings.IndexByte(line, ')')
				if open < 0 || close < open {
					return nil, fmt.Errorf("text answer: bad instance line %q", line)
				}
				out = append(out, instanceValues{classes: []string{line[open+1 : close]}, values: map[string]string{}})
			case strings.HasPrefix(line, "    ") && strings.Contains(line, " = ") && len(out) > 0:
				k, v, _ := strings.Cut(strings.TrimSpace(line), " = ")
				if _, seen := out[len(out)-1].values[k]; !seen {
					out[len(out)-1].values[k] = v
				}
			}
		}
		return out, nil
	}
	g, err := parseRDF(format, body)
	if err != nil {
		return nil, err
	}
	return graphInstances(g), nil
}

// compareAnswer checks instances read from an answer against the
// expectation.
func compareAnswer(ins []instanceValues, ex expectation) error {
	var tuples []string
	related := 0
	for _, iv := range ins {
		if iv.isProduct() {
			tuples = append(tuples, iv.tuple())
		} else {
			related++
		}
	}
	sort.Strings(tuples)
	if len(tuples) != len(ex.tuples) {
		return fmt.Errorf("%d matched instances, ground truth has %d", len(tuples), len(ex.tuples))
	}
	for i := range tuples {
		if tuples[i] != ex.tuples[i] {
			return fmt.Errorf("instance %q differs from ground truth %q", tuples[i], ex.tuples[i])
		}
	}
	if related != ex.related {
		return fmt.Errorf("%d related instances, expected %d", related, ex.related)
	}
	return nil
}

// envelope is the JSON reply of /query and /cluster/query.
type envelope struct {
	Matched  int             `json:"matched"`
	Related  int             `json:"related"`
	Errors   []string        `json:"errors"`
	Degraded []string        `json:"degraded"`
	Body     string          `json:"body"`
	Cluster  json.RawMessage `json:"cluster"`
}

// checker verifies replies, caching the references it fetched.
type checker struct {
	e *env
	// refs are /query bodies by format, version and query; graphs the
	// cross-format reference graph by version and query.
	refs   map[string][]byte
	graphs map[string]graph
	// single answers cluster queries on one node over the same world.
	single *core.Middleware
	// spent is the wall time spent checking, kept out of set-up time.
	spent time.Duration
}

func newChecker(e *env) (*checker, error) {
	start := time.Now()
	c := &checker{e: e, refs: map[string][]byte{}, graphs: map[string]graph{}}
	defer func() { c.spent += time.Since(start) }()
	if e.wl.cluster {
		mw, err := e.newMiddleware()
		if err != nil {
			return nil, err
		}
		if err := e.applyBase(mw); err != nil {
			return nil, err
		}
		c.single = mw
	}
	return c, nil
}

// verify checks one successful reply of o.
func (c *checker) verify(ctx context.Context, o *op, r response) error {
	start := time.Now()
	defer func() { c.spent += time.Since(start) }()
	if err := failure(o, r); err != nil {
		return err
	}
	switch o.kind {
	case opRegSource, opRegMapping:
		return nil
	case opQuery, opCluster:
		var env envelope
		if err := json.Unmarshal(r.body, &env); err != nil {
			return fmt.Errorf("%s: envelope: %w", o.key, err)
		}
		if len(env.Errors) > 0 || len(env.Degraded) > 0 {
			return fmt.Errorf("%s: errors %v degraded %v", o.key, env.Errors, env.Degraded)
		}
		if o.kind == opCluster {
			var info struct {
				Degraded bool `json:"degraded"`
			}
			if err := json.Unmarshal(env.Cluster, &info); err != nil || info.Degraded {
				return fmt.Errorf("%s: cluster info %s", o.key, env.Cluster)
			}
			want, err := c.singleNode(ctx, o)
			if err != nil {
				return err
			}
			if env.Body != string(want) {
				return fmt.Errorf("%s: cluster body differs from a single node's", o.key)
			}
		}
		ex := c.e.expect(o.query, o.version)
		if env.Matched != len(ex.tuples) || env.Related != ex.related {
			return fmt.Errorf("%s: envelope counts %d/%d, expected %d/%d", o.key, env.Matched, env.Related, len(ex.tuples), ex.related)
		}
		return c.checkBody(ctx, o.query, o.format, o.version, []byte(env.Body))
	case opStream:
		if n := r.trailer.Get("X-S2s-Stream-Errors"); n != "0" {
			return fmt.Errorf("%s: %s source errors", o.key, n)
		}
		matched := r.header.Get("X-S2s-Matched")
		if matched == "" {
			matched = r.trailer.Get("X-S2s-Matched")
		}
		if ex := c.e.expect(o.query, o.version); matched != strconv.Itoa(len(ex.tuples)) {
			return fmt.Errorf("%s: matched %q, expected %d", o.key, matched, len(ex.tuples))
		}
		return c.sameAsQuery(ctx, o.query, o.format, o.version, r.body)
	case opBatch:
		parts, err := demux(r.body)
		if err != nil {
			return fmt.Errorf("%s: %w", o.key, err)
		}
		if len(parts) != len(o.batch) {
			return fmt.Errorf("%s: %d results for %d queries", o.key, len(parts), len(o.batch))
		}
		for i, q := range o.batch {
			tr := parts[i].trailer
			ex := c.e.expect(q, o.version)
			if tr["error"] != "" || tr["errors"] != "0" || tr["matched"] != strconv.Itoa(len(ex.tuples)) {
				return fmt.Errorf("%s: query %d trailer %v, expected %d matched", o.key, i, tr, len(ex.tuples))
			}
			if err := c.sameAsQuery(ctx, q, o.format, o.version, parts[i].body); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown operation %v", o.kind)
}

// checkBody checks a serialized answer against ground truth and, for
// RDF formats, against the graph the other RDF formats carry.
func (c *checker) checkBody(ctx context.Context, q *queryDef, format string, version int, body []byte) error {
	ins, err := readInstances(format, body)
	if err != nil {
		return fmt.Errorf("%s (%s): %w", q.text, format, err)
	}
	if err := compareAnswer(ins, c.e.expect(q, version)); err != nil {
		return fmt.Errorf("%s (%s, v%d): %w", q.text, format, version, err)
	}
	if format != "owl" && format != "turtle" && format != "ntriples" {
		return nil
	}
	g, err := parseRDF(format, body)
	if err != nil {
		return err
	}
	ref, err := c.refGraph(ctx, q, version)
	if err != nil {
		return err
	}
	if !g.equal(ref) {
		return fmt.Errorf("%s (%s): graph differs from the other RDF formats' graph", q.text, format)
	}
	typed := 0
	for t := range g {
		if t.p == rdfType && t.o == owlInd {
			typed++
		}
	}
	if ex := c.e.expect(q, version); typed != len(ex.tuples)+ex.related {
		return fmt.Errorf("%s (%s): %d typed individuals, expected %d", q.text, format, typed, len(ex.tuples)+ex.related)
	}
	return nil
}

// refGraph fetches the query in all three RDF formats once per catalog
// version and requires them to parse to one graph.
func (c *checker) refGraph(ctx context.Context, q *queryDef, version int) (graph, error) {
	key := fmt.Sprintf("v%d|%s", version, q.text)
	if g, ok := c.graphs[key]; ok {
		return g, nil
	}
	var ref graph
	for _, format := range []string{"ntriples", "turtle", "owl"} {
		body, err := c.ref(ctx, q, format, version)
		if err != nil {
			return nil, err
		}
		g, err := parseRDF(format, body)
		if err != nil {
			return nil, fmt.Errorf("%s (%s): %w", q.text, format, err)
		}
		if ref == nil {
			ref = g
		} else if !g.equal(ref) {
			return nil, fmt.Errorf("%s: %s graph differs from the N-Triples graph", q.text, format)
		}
	}
	c.graphs[key] = ref
	return ref, nil
}

// ref is the /query body for a query, format and catalog version,
// fetched while the catalog is at that version (during the warm-up
// round) and kept for later checks.
func (c *checker) ref(ctx context.Context, q *queryDef, format string, version int) ([]byte, error) {
	key := fmt.Sprintf("%s|v%d|%s", format, version, q.text)
	if b, ok := c.refs[key]; ok {
		return b, nil
	}
	o := prepared(&op{kind: opQuery, format: format, query: q, version: version})
	r, err := c.e.exec(ctx, o, nil)
	if err != nil {
		return nil, err
	}
	if err := failure(o, r); err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(r.body, &env); err != nil {
		return nil, fmt.Errorf("reference %s: %w", key, err)
	}
	body := []byte(env.Body)
	c.refs[key] = body
	ins, err := readInstances(format, body)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", key, err)
	}
	if err := compareAnswer(ins, c.e.expect(q, version)); err != nil {
		return nil, fmt.Errorf("reference %s: %w", key, err)
	}
	return body, nil
}

// sameAsQuery requires a streamed or batched body to equal the /query
// body byte for byte.
func (c *checker) sameAsQuery(ctx context.Context, q *queryDef, format string, version int, body []byte) error {
	want, err := c.ref(ctx, q, format, version)
	if err != nil {
		return err
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("%s (%s): body of %d bytes differs from the /query body of %d bytes", q.text, format, len(body), len(want))
	}
	return nil
}

func (c *checker) singleNode(ctx context.Context, o *op) ([]byte, error) {
	key := "single|" + o.format + "|" + o.query.text
	if b, ok := c.refs[key]; ok {
		return b, nil
	}
	f, err := instance.ParseFormat(o.format)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := c.single.QueryTo(ctx, &buf, o.query.text, f); err != nil {
		return nil, fmt.Errorf("single node %s: %w", o.key, err)
	}
	c.refs[key] = buf.Bytes()
	return buf.Bytes(), nil
}

// batchPart is one query's slice of a batch reply.
type batchPart struct {
	body    []byte
	trailer map[string]string
}

// demux splits a /query/batch body: "=n N" header, then per query
// "=b i", "=c i size" chunks and one "=t i k=v ..." trailer line.
func demux(body []byte) ([]batchPart, error) {
	var parts []batchPart
	rest := body
	line := func() (string, error) {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			return "", fmt.Errorf("batch: unterminated frame")
		}
		l := string(rest[:i])
		rest = rest[i+1:]
		return l, nil
	}
	head, err := line()
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(strings.TrimPrefix(head, "=n "))
	if err != nil || !strings.HasPrefix(head, "=n ") {
		return nil, fmt.Errorf("batch: bad header %q", head)
	}
	parts = make([]batchPart, n)
	for len(rest) > 0 {
		l, err := line()
		if err != nil {
			return nil, err
		}
		f := strings.Fields(l)
		if len(f) < 2 {
			return nil, fmt.Errorf("batch: bad frame %q", l)
		}
		i, err := strconv.Atoi(f[1])
		if err != nil || i < 0 || i >= n {
			return nil, fmt.Errorf("batch: bad frame index %q", l)
		}
		switch f[0] {
		case "=b":
		case "=c":
			size, err := strconv.Atoi(f[len(f)-1])
			if err != nil || len(f) != 3 || size > len(rest) {
				return nil, fmt.Errorf("batch: bad chunk frame %q", l)
			}
			parts[i].body = append(parts[i].body, rest[:size]...)
			rest = rest[size:]
		case "=t":
			parts[i].trailer = map[string]string{}
			for _, kv := range f[2:] {
				k, v, _ := strings.Cut(kv, "=")
				uv, err := url.QueryUnescape(v)
				if err != nil {
					return nil, fmt.Errorf("batch: bad trailer %q", kv)
				}
				parts[i].trailer[k] = uv
			}
		default:
			return nil, fmt.Errorf("batch: unknown frame %q", l)
		}
	}
	return parts, nil
}
