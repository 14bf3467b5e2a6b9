package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/faultinject"
	"repro/internal/transport"
	"repro/internal/workload"
)

// partner is a generated source left unregistered at start, onboarded
// over HTTP by the query log.
type partner struct {
	source   transport.WireSource
	mappings []transport.WireMapping
}

// onboard is the exclusive item that registers the partner (one POST
// /sources and one POST /mappings per mapping) and then checks the full
// query against the grown catalog.
func (p partner) onboard(full *queryDef) item {
	it := item{exclusive: true}
	it.ops = append(it.ops, &op{kind: opRegSource, body: mustJSON(p.source)})
	for _, m := range p.mappings {
		it.ops = append(it.ops, &op{kind: opRegMapping, body: mustJSON(m)})
	}
	it.ops = append(it.ops, &op{kind: opQuery, format: "json", query: full})
	return it
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// server is one loopback HTTP server.
type server struct {
	srv *http.Server
	url string
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, url: "http://" + ln.Addr().String()}
	go func() {
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "server:", err)
		}
	}()
	return s, nil
}

// swapHandler lets a round start over on a fresh middleware behind the
// same listener.
type swapHandler struct {
	h atomic.Pointer[transport.Server]
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.h.Load().ServeHTTP(w, r) }

// env is one set-up workload: its world, its servers and the client
// side of the load generator.
type env struct {
	wl       *workloadDef
	world    *workload.World
	backends extract.Backends
	// registered holds the IDs of the sources registered at start.
	registered map[string]bool
	partners   []partner
	// mappedAttrs records which (source, attribute) pairs the world
	// maps, so ground truth knows which values each record can carry.
	mappedAttrs map[string]bool
	values      values
	items       []item

	base    string // URL the clients talk to
	swap    *swapHandler
	servers []*server
	nodes   []*cluster.Node
	// coord is the cluster coordinator node and members the member
	// middlewares, kept for the traced run.
	coord   *cluster.Node
	members []*core.Middleware
	// mw is the middleware behind base (the coordinator's in a cluster).
	mw *core.Middleware
	hc *http.Client
}

// newEnv generates the world and query log for a workload and seed; it
// starts nothing.
func newEnv(wl *workloadDef, seed int64) (*env, error) {
	spec := wl.spec
	spec.Seed = seed
	world, err := workload.Generate(spec)
	if err != nil {
		return nil, fmt.Errorf("generating world: %w", err)
	}
	e := &env{wl: wl, world: world, registered: map[string]bool{}, mappedAttrs: map[string]bool{}}
	spare := map[string]bool{}
	for _, id := range wl.spare {
		spare[id] = true
	}
	for _, def := range world.Definitions {
		if !spare[def.ID] {
			e.registered[def.ID] = true
		}
	}
	for _, id := range wl.spare {
		p := partner{}
		for _, def := range world.Definitions {
			if def.ID == id {
				p.source = transport.FromDefinition(def)
			}
		}
		if p.source.ID == "" {
			return nil, fmt.Errorf("spare source %s not generated", id)
		}
		for _, en := range world.Entries {
			if en.SourceID == id {
				p.mappings = append(p.mappings, transport.FromEntry(en))
			}
		}
		e.partners = append(e.partners, p)
	}
	for _, en := range world.Entries {
		e.mappedAttrs[en.SourceID+"|"+en.AttributeID] = true
	}
	e.backends = extract.FromCatalog(world.Catalog)
	if wl.latency != nil {
		plan := faultinject.Plan{}
		for _, def := range world.Definitions {
			plan[faultinject.Key(def)] = faultinject.Fault{AddLatency: wl.latency(def)}
		}
		e.backends = faultinject.New(seed, plan).WrapBackends(e.backends)
	}
	if wl.log != nil {
		e.values = valuesFor(world.Records, e.registered)
		e.items = wl.log(e.values, e.partners)
	}
	finishLog(e.items)
	for _, it := range e.items {
		for _, o := range it.ops {
			prepared(o)
		}
	}
	return e, nil
}

// prepared encodes the operation's request path and, for the POST
// queries, its body.
func prepared(o *op) *op {
	query := func(path string) string {
		return path + "?" + url.Values{"q": {o.query.text}, "format": {o.format}}.Encode()
	}
	switch o.kind {
	case opQuery:
		o.path = "/query"
		o.body = mustJSON(transport.QueryRequest{Query: o.query.text, Format: o.format})
	case opStream:
		o.path = query("/query/stream")
	case opCluster:
		o.path = query("/cluster/query")
	case opBatch:
		var texts []string
		for _, q := range o.batch {
			texts = append(texts, q.text)
		}
		o.path = "/query/batch"
		o.body = mustJSON(transport.BatchRequest{Queries: texts, Format: o.format})
	case opRegSource:
		o.path = "/sources"
	case opRegMapping:
		o.path = "/mappings"
	}
	return o
}

// newMiddleware builds a middleware over the world's backends with the
// workload's extraction options and nothing registered.
func (e *env) newMiddleware() (*core.Middleware, error) {
	return core.New(core.Config{Ontology: e.world.Ontology, Backends: e.backends, Extract: e.wl.opts})
}

// applyBase registers the start-up sources in process.
func (e *env) applyBase(mw *core.Middleware) error {
	for _, def := range e.world.Definitions {
		if e.registered[def.ID] {
			if err := mw.RegisterSource(def); err != nil {
				return err
			}
		}
	}
	for _, en := range e.world.Entries {
		if e.registered[en.SourceID] {
			if err := mw.RegisterMapping(en); err != nil {
				return err
			}
		}
	}
	return nil
}

// start brings the servers up and registers the start-up sources over
// HTTP, as a partner-facing deployment would.
func (e *env) start(ctx context.Context) error {
	e.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: e.wl.clients,
		MaxConnsPerHost:     e.wl.clients,
		DisableCompression:  true,
	}}
	mw, err := e.newMiddleware()
	if err != nil {
		return err
	}
	e.mw = mw
	if e.wl.cluster {
		return e.startCluster(ctx)
	}
	e.swap = &swapHandler{}
	e.swap.h.Store(transport.NewServer(mw))
	s, err := startServer(e.swap)
	if err != nil {
		return err
	}
	e.servers = append(e.servers, s)
	e.base = s.url
	return e.registerBase(ctx)
}

func (e *env) registerBase(ctx context.Context) error {
	for _, def := range e.world.Definitions {
		if e.registered[def.ID] {
			if err := e.post(ctx, "/sources", transport.FromDefinition(def)); err != nil {
				return err
			}
		}
	}
	for _, en := range e.world.Entries {
		if e.registered[en.SourceID] {
			if err := e.post(ctx, "/mappings", transport.FromEntry(en)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *env) post(ctx context.Context, path string, v any) error {
	r, err := e.exec(ctx, &op{kind: opRegMapping, path: path, body: mustJSON(v)}, nil)
	if err != nil {
		return err
	}
	if r.status != http.StatusCreated {
		return fmt.Errorf("POST %s: status %d: %s", path, r.status, r.body)
	}
	return nil
}

// startCluster runs three nodes (rf=2): the coordinator takes the
// registrations, the two members join and pull the catalog.
func (e *env) startCluster(ctx context.Context) error {
	coord, err := cluster.NewNode(transport.NewServer(e.mw), cluster.Options{ID: "n1"})
	if err != nil {
		return err
	}
	cs, err := startServer(coord)
	if err != nil {
		return err
	}
	coord.SetAddr(cs.url)
	e.servers = append(e.servers, cs)
	// Start is a no-op on the coordinator, but Stop waits for it.
	if err := coord.Start(ctx); err != nil {
		return err
	}
	e.nodes = append(e.nodes, coord)
	e.coord = coord
	e.base = cs.url
	if err := e.registerBase(ctx); err != nil {
		return err
	}
	for _, id := range []string{"n2", "n3"} {
		mw, err := e.newMiddleware()
		if err != nil {
			return err
		}
		node, err := cluster.NewNode(transport.NewServer(mw), cluster.Options{ID: id, CoordinatorURL: cs.url})
		if err != nil {
			return err
		}
		s, err := startServer(node)
		if err != nil {
			return err
		}
		node.SetAddr(s.url)
		e.servers = append(e.servers, s)
		if err := node.Start(ctx); err != nil {
			return err
		}
		e.nodes = append(e.nodes, node)
		e.members = append(e.members, mw)
	}
	return nil
}

// reset puts a fresh middleware with only the start-up sources behind
// the listener.
func (e *env) reset() error {
	mw, err := e.newMiddleware()
	if err != nil {
		return err
	}
	if err := e.applyBase(mw); err != nil {
		return err
	}
	e.mw = mw
	e.swap.h.Store(transport.NewServer(mw))
	return nil
}

// stop shuts every server and node down and waits for them.
func (e *env) stop() {
	for _, n := range e.nodes {
		n.Stop()
	}
	for _, s := range e.servers {
		if err := s.srv.Close(); err != nil {
			fmt.Fprintln(stderr, "closing server:", err)
		}
	}
	if e.hc != nil {
		e.hc.CloseIdleConnections()
	}
}

// registeredAt is the set of sources registered at a catalog version:
// the start-up sources plus the first version partners.
func (e *env) registeredAt(version int) map[string]bool {
	out := make(map[string]bool, len(e.registered)+version)
	for id := range e.registered {
		out[id] = true
	}
	for _, p := range e.partners[:version] {
		out[p.source.ID] = true
	}
	return out
}
