package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/instance"
	"repro/internal/workload"
)

// selfTest shows that the answer checks are live: real answers in every
// format pass, and each one with an instance dropped or a price altered
// is rejected.
func selfTest() error {
	ctx := context.Background()
	wl := &workloadDef{name: "selftest", spec: workload.Spec{DBSources: 1, XMLSources: 1, WebSources: 1, TextSources: 1, RecordsPerSource: 30}}
	e, err := newEnv(wl, 7)
	if err != nil {
		return err
	}
	mw, err := e.newMiddleware()
	if err != nil {
		return err
	}
	if err := e.applyBase(mw); err != nil {
		return err
	}
	q := newQuery(priceBelow(300))
	ex := e.expect(q, 0)
	if len(ex.tuples) < 2 {
		return fmt.Errorf("self-test world too small (%d matches)", len(ex.tuples))
	}
	graphs := map[string]graph{}
	for _, format := range []string{"json", "xml", "text", "owl", "turtle", "ntriples"} {
		f, err := instance.ParseFormat(format)
		if err != nil {
			return err
		}
		s, err := mw.QueryString(ctx, q.text, f)
		if err != nil {
			return err
		}
		body := []byte(s)
		if err := accept(format, body, ex); err != nil {
			return fmt.Errorf("%s: a correct answer was rejected: %w", format, err)
		}
		if g, err := parseRDF(format, body); err == nil {
			graphs[format] = g
		}
		for _, c := range []struct {
			name string
			fn   func(string, []byte) ([]byte, error)
		}{{"one instance dropped", dropInstance}, {"one price altered", alterPrice}} {
			bad, err := c.fn(format, body)
			if err != nil {
				return fmt.Errorf("%s: corrupting (%s): %w", format, c.name, err)
			}
			if bytes.Equal(bad, body) {
				return fmt.Errorf("%s: corruption (%s) changed nothing", format, c.name)
			}
			if accept(format, bad, ex) == nil {
				return fmt.Errorf("%s: an answer with %s was accepted", format, c.name)
			}
			if g, err := parseRDF(format, bad); err == nil && g.equal(graphs[format]) {
				return fmt.Errorf("%s: graph with %s equals the correct graph", format, c.name)
			}
		}
	}
	if !graphs["owl"].equal(graphs["turtle"]) || !graphs["owl"].equal(graphs["ntriples"]) {
		return fmt.Errorf("the RDF formats of one correct answer parse to different graphs")
	}
	return nil
}

func accept(format string, body []byte, ex expectation) error {
	ins, err := readInstances(format, body)
	if err != nil {
		return err
	}
	return compareAnswer(ins, ex)
}

// alterPrice replaces the first occurrence of the first product's price.
func alterPrice(format string, body []byte) ([]byte, error) {
	ins, err := readInstances(format, body)
	if err != nil {
		return nil, err
	}
	for _, iv := range ins {
		if p := iv.value("price"); iv.isProduct() && p != "" {
			return bytes.Replace(body, []byte(p), []byte("1.23"), 1), nil
		}
	}
	return nil, fmt.Errorf("no priced product")
}

// dropInstance removes the first instance of the answer.
func dropInstance(format string, body []byte) ([]byte, error) {
	s := string(body)
	cut := func(start, end string, keepEnd bool) ([]byte, error) {
		i := strings.Index(s, start)
		if i < 0 {
			return nil, fmt.Errorf("no %q", start)
		}
		j := strings.Index(s[i+len(start):], end)
		if j < 0 {
			return nil, fmt.Errorf("no %q after %q", end, start)
		}
		j += i + len(start)
		if !keepEnd {
			j += len(end)
		}
		return []byte(s[:i] + s[j:]), nil
	}
	switch format {
	case "json":
		var doc map[string]any
		if err := json.Unmarshal(body, &doc); err != nil {
			return nil, err
		}
		matched, _ := doc["matched"].([]any)
		if len(matched) == 0 {
			return nil, fmt.Errorf("no matched instances")
		}
		doc["matched"] = matched[1:]
		return json.Marshal(doc)
	case "xml":
		return cut("<instance ", "</instance>", false)
	case "owl":
		return cut("<rdf:Description", "</rdf:Description>", false)
	case "text":
		return cut("\n- ", "\n- ", true)
	case "turtle":
		return cut("\nont:", " .\n", false)
	case "ntriples":
		subject, _, ok := strings.Cut(s, " ")
		if !ok {
			return nil, fmt.Errorf("no triple")
		}
		var keep []string
		for _, line := range strings.SplitAfter(s, "\n") {
			if !strings.HasPrefix(line, subject+" ") {
				keep = append(keep, line)
			}
		}
		return []byte(strings.Join(keep, "")), nil
	}
	return nil, fmt.Errorf("no corruption for %s", format)
}
