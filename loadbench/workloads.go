package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/datasource"
	"repro/internal/extract"
	"repro/internal/workload"
)

// cond is one WHERE condition of a generated S2SQL query. The benchmark
// renders it into the query text and evaluates it itself against the
// generated records (ground truth), never through s2sql.
type cond struct {
	attr string  // "brand", "case", "price" or "water_resistance"
	op   string  // "=", "<" or ">="
	str  string  // string operand (brand, case)
	num  float64 // numeric operand (price, water_resistance)
}

// queryDef is one generated S2SQL query.
type queryDef struct {
	conds []cond
	text  string
}

func newQuery(conds ...cond) *queryDef {
	var b strings.Builder
	b.WriteString("SELECT product")
	for i, c := range conds {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		b.WriteString(c.attr)
		b.WriteString(c.op)
		if c.str == "" {
			b.WriteString(strconv.FormatFloat(c.num, 'f', -1, 64))
		} else {
			b.WriteString("'" + c.str + "'")
		}
	}
	return &queryDef{conds: conds, text: b.String()}
}

// matches evaluates the query's conditions on one ground-truth record;
// hasWater tells whether the record's source maps water resistance (an
// unmapped attribute satisfies no condition).
func (q *queryDef) matches(r workload.Record, hasWater bool) bool {
	for _, c := range q.conds {
		ok := false
		switch c.attr {
		case "brand":
			ok = r.Brand == c.str
		case "case":
			ok = r.Case == c.str
		case "price":
			switch c.op {
			case "<":
				ok = r.Price < c.num
			case ">=":
				ok = r.Price >= c.num
			}
		case "water_resistance":
			ok = hasWater && float64(r.WaterResistance) >= c.num
		}
		if !ok {
			return false
		}
	}
	return true
}

// Operation kinds: every one is a single HTTP request.
type opKind int

const (
	opQuery      opKind = iota // POST /query
	opStream                   // GET /query/stream
	opBatch                    // POST /query/batch
	opCluster                  // GET /cluster/query
	opRegSource                // POST /sources
	opRegMapping               // POST /mappings
)

var opKindNames = [...]string{"query", "stream", "batch", "cluster", "register_source", "register_mapping"}

func (k opKind) String() string { return opKindNames[k] }

// op is one request of the query log.
type op struct {
	kind   opKind
	format string
	query  *queryDef   // opQuery, opStream, opCluster
	batch  []*queryDef // opBatch
	body   []byte      // request body of POST operations, encoded once
	path   string      // request path and query string
	// version is the number of partner onboardings that completed before
	// this operation in its round: the catalog state its answer reflects.
	version int
	// key names the distinct request (kind, format, query text and
	// version); answers are verified once per key.
	key string
}

// item is what one client takes from the log at a time. An exclusive
// item (a partner onboarding: its registrations and the full query that
// checks them) runs alone, so every read sees a whole catalog state.
type item struct {
	ops       []*op
	exclusive bool
}

// workloadDef describes one workload: its world, its server settings and
// the generator of its query log. Why each exists is in BENCHMARK.json
// and README.md.
type workloadDef struct {
	name    string
	clients int
	spec    workload.Spec
	// spare lists the generated sources left unregistered at start; the
	// query log onboards them in this order, one exclusive item each.
	spare   []string
	opts    extract.Options
	latency func(def datasource.Definition) time.Duration
	cluster bool
	// reset starts every round from the registered-at-start catalog, so
	// every round performs the same onboardings.
	reset bool
	log   func(v values, partners []partner) []item
}

// values are the operands of the query log: the brands and cases of
// the seed's world ranked by how many start-up records carry them (ties
// by name). Naming operands by rank gives every seed's log the same
// selectivity profile, while the seed still chooses the names.
type values struct {
	brands []string
	cases  []string
}

func valuesFor(records []workload.Record, registered map[string]bool) values {
	brands, cases := map[string]int{}, map[string]int{}
	for _, b := range []string{"Seiko", "Casio", "Citizen", "Orient", "Pulsar", "Timex", "Swatch", "Fossil"} {
		brands[b] = 0
	}
	for _, c := range []string{"stainless-steel", "gold", "resin", "titanium", "ceramic"} {
		cases[c] = 0
	}
	for _, r := range records {
		if registered[r.SourceID] {
			brands[r.Brand]++
			cases[r.Case]++
		}
	}
	ranked := func(counts map[string]int) []string {
		var out []string
		for v := range counts {
			out = append(out, v)
		}
		sort.Slice(out, func(i, j int) bool {
			if counts[out[i]] != counts[out[j]] {
				return counts[out[i]] > counts[out[j]]
			}
			return out[i] < out[j]
		})
		return out
	}
	return values{brands: ranked(brands), cases: ranked(cases)}
}

func brandIs(b string) cond       { return cond{attr: "brand", op: "=", str: b} }
func caseIs(c string) cond        { return cond{attr: "case", op: "=", str: c} }
func priceBelow(p float64) cond   { return cond{attr: "price", op: "<", num: p} }
func priceAtLeast(p float64) cond { return cond{attr: "price", op: ">=", num: p} }
func waterAtLeast(m float64) cond { return cond{attr: "water_resistance", op: ">=", num: m} }

// constrained is the shared set of selective queries: the paper query
// shape (brand and case) and brand, case, price and water-resistance
// variants (web sources map no water resistance, so the planner prunes
// them for that query).
func constrained(v values) []*queryDef {
	b, c := v.brands, v.cases
	return []*queryDef{
		newQuery(brandIs(b[0]), caseIs(c[0])),
		newQuery(brandIs(b[1])),
		newQuery(brandIs(b[2]), caseIs(c[1])),
		newQuery(caseIs(c[2]), priceBelow(100)),
		newQuery(waterAtLeast(150), priceBelow(150)),
		newQuery(brandIs(b[3]), priceAtLeast(300)),
		newQuery(brandIs(b[4]), caseIs(c[3]), priceBelow(250)),
		newQuery(caseIs(c[4]), brandIs(b[5])),
	}
}

func read(kind opKind, format string, q *queryDef) item {
	return item{ops: []*op{{kind: kind, format: format, query: q}}}
}

var workloads = []*workloadDef{
	{
		name:    "cold-extract",
		clients: 1,
		spec:    workload.Spec{DBSources: 1, XMLSources: 1, WebSources: 1, TextSources: 1, RecordsPerSource: 1000},
		log: func(v values, _ []partner) []item {
			qs := constrained(v)
			var items []item
			for i, q := range qs {
				items = append(items, read(opQuery, []string{"json", "xml"}[i%2], q))
			}
			for i, q := range qs {
				items = append(items, read(opQuery, []string{"xml", "json"}[i%2], q))
			}
			return items
		},
	},
	{
		name:    "warm-owl-writes",
		clients: 2,
		spec:    workload.Spec{DBSources: 2, XMLSources: 2, WebSources: 2, TextSources: 3, RecordsPerSource: 50},
		spare:   []string{"txt_002"},
		opts:    extract.Options{CacheTTL: time.Hour},
		reset:   true,
		log: func(v values, partners []partner) []item {
			full := newQuery()
			// A pass of reads asks for everything, then for each brand
			// (about 1/8 of the products each) and each case (1/5), so
			// answers are large enough for RDF work to dominate and a
			// pass covers every product three times whatever the seed's
			// world. Formats rotate from pass to pass, OWL first among
			// them. Each catalog version gets its own operations: an
			// operation carries the version its answer is checked
			// against.
			rotation := []string{"owl", "turtle", "owl", "ntriples", "owl", "json", "owl", "xml", "owl", "text"}
			pass := func(n int) []item {
				qs := []*queryDef{full}
				for _, b := range v.brands {
					qs = append(qs, newQuery(brandIs(b)))
				}
				for _, c := range v.cases {
					qs = append(qs, newQuery(caseIs(c)))
				}
				var items []item
				for i, q := range qs {
					items = append(items, read(opQuery, rotation[(i+3*n)%len(rotation)], q))
				}
				return items
			}
			// One onboarding among 84 reads (six passes): its
			// registrations are about one operation in thirteen, so most
			// reads find warm caches. The share is an assumption (there
			// is no partner traffic to take it from), recorded as such
			// in README.md.
			var items []item
			for n := 0; n < 2; n++ {
				items = append(items, pass(n)...)
			}
			for _, p := range partners {
				items = append(items, p.onboard(full))
			}
			for n := 2; n < 6; n++ {
				items = append(items, pass(n)...)
			}
			return items
		},
	},
	{
		name:    "remote-stream-batch",
		clients: 2,
		spec:    workload.Spec{DBSources: 1, XMLSources: 1, WebSources: 1, TextSources: 1, RecordsPerSource: 50, FlatOntology: true},
		// Partner delays follow the repository's own benchmarks: 5 ms per
		// fetch, as in BenchmarkE22Batch, and 20 ms for the XML source,
		// the delay of BenchmarkE21FirstInstance's slow source.
		latency: func(def datasource.Definition) time.Duration {
			if def.Kind == datasource.KindXML {
				return 20 * time.Millisecond
			}
			return 5 * time.Millisecond
		},
		log: func(v values, _ []partner) []item {
			qs := constrained(v)
			var brands []*queryDef
			for _, b := range v.brands {
				brands = append(brands, newQuery(brandIs(b)))
			}
			// Streams select one brand or one case, so the first window
			// of every source holds matches and first-byte time does not
			// hinge on where a rare match happens to sit.
			b, c := v.brands, v.cases
			return []item{
				read(opStream, "json", brands[0]),
				read(opStream, "xml", newQuery(caseIs(c[0]))),
				read(opStream, "owl", brands[1]),
				{ops: []*op{{kind: opBatch, format: "json", batch: brands}}},
				read(opStream, "json", newQuery(caseIs(c[1]))),
				read(opStream, "xml", newQuery(brandIs(b[2]))),
				read(opStream, "owl", newQuery(caseIs(c[2]))),
				{ops: []*op{{kind: opBatch, format: "xml", batch: qs}}},
			}
		},
	},
	{
		name:    "cluster-scatter",
		clients: 1,
		spec:    workload.Spec{DBSources: 2, XMLSources: 2, WebSources: 2, TextSources: 2, RecordsPerSource: 100},
		cluster: true,
		log: func(v values, _ []partner) []item {
			var items []item
			for _, q := range append(constrained(v), newQuery()) {
				items = append(items, read(opCluster, "json", q))
			}
			return items
		},
	},
}

func workloadByName(name string) (*workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// finishLog numbers the log's operations: each gets the catalog version
// it observes and its verification key.
func finishLog(items []item) {
	version := 0
	for _, it := range items {
		for _, o := range it.ops {
			if it.exclusive && o.kind == opQuery {
				// The check query of an onboarding runs after its
				// registrations.
				o.version = version + 1
			} else {
				o.version = version
			}
			o.key = opKey(o)
		}
		if it.exclusive {
			version++
		}
	}
}

func opKey(o *op) string {
	switch o.kind {
	case opRegSource, opRegMapping:
		return o.kind.String()
	case opBatch:
		var texts []string
		for _, q := range o.batch {
			texts = append(texts, q.text)
		}
		return fmt.Sprintf("%s|%s|v%d|%s", o.kind, o.format, o.version, strings.Join(texts, ";"))
	}
	return fmt.Sprintf("%s|%s|v%d|%s", o.kind, o.format, o.version, o.query.text)
}
