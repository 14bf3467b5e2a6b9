package main

// rdf.go holds small RDF readers written for the checks: N-Triples,
// the Turtle subset a serializer emits (prefixes, `a`, `;` and `,`
// lists, typed literals) and RDF/XML node and property elements. They
// are written apart from the program's own RDF code, so a fault in that
// code cannot hide a wrong answer from the checks.

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

const (
	rdfNS   = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
	rdfType = "<" + rdfNS + "type>"
	owlInd  = "<http://www.w3.org/2002/07/owl#NamedIndividual>"
)

// triple is one statement; IRIs are written <iri> and literals
// "lexical"^^<datatype> (plain literals without a datatype).
type triple struct{ s, p, o string }

// graph is a set of triples.
type graph map[triple]bool

func (g graph) equal(h graph) bool {
	if len(g) != len(h) {
		return false
	}
	for t := range g {
		if !h[t] {
			return false
		}
	}
	return true
}

func literal(lex, datatype string) string {
	if datatype == "" {
		return strconv.Quote(lex)
	}
	return strconv.Quote(lex) + "^^" + datatype
}

func parseRDF(format string, body []byte) (graph, error) {
	switch format {
	case "ntriples":
		return parseNTriples(body)
	case "turtle":
		return parseTurtle(body)
	case "owl":
		return parseRDFXML(body)
	}
	return nil, fmt.Errorf("no RDF reader for %s", format)
}

// rdfLexer tokenizes N-Triples and Turtle.
type rdfLexer struct {
	s   string
	pos int
}

func (l *rdfLexer) skip() {
	for l.pos < len(l.s) {
		c := l.s[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '#':
			for l.pos < len(l.s) && l.s[l.pos] != '\n' {
				l.pos++
			}
		default:
			return
		}
	}
}

// next returns the next token: <iri>, a quoted literal with its suffix
// kept raw, a punctuation mark, or a bare word (prefixed name, `a`,
// @prefix).
func (l *rdfLexer) next() (string, error) {
	l.skip()
	if l.pos >= len(l.s) {
		return "", io.EOF
	}
	start := l.pos
	switch c := l.s[l.pos]; c {
	case '<':
		end := strings.IndexByte(l.s[l.pos:], '>')
		if end < 0 {
			return "", fmt.Errorf("unterminated IRI at %d", start)
		}
		l.pos += end + 1
		return l.s[start:l.pos], nil
	case '"':
		l.pos++
		for l.pos < len(l.s) && l.s[l.pos] != '"' {
			if l.s[l.pos] == '\\' {
				l.pos++
			}
			l.pos++
		}
		if l.pos >= len(l.s) {
			return "", fmt.Errorf("unterminated literal at %d", start)
		}
		l.pos++
		if strings.HasPrefix(l.s[l.pos:], "^^") {
			l.pos += 2
			tok, err := l.next()
			if err != nil {
				return "", err
			}
			return l.s[start:l.pos-len(tok)] + tok, nil
		}
		if l.pos < len(l.s) && l.s[l.pos] == '@' {
			for l.pos < len(l.s) && !isSpace(l.s[l.pos]) && l.s[l.pos] != ';' && l.s[l.pos] != ',' {
				l.pos++
			}
		}
		return l.s[start:l.pos], nil
	case '.', ';', ',':
		l.pos++
		return l.s[start:l.pos], nil
	}
	for l.pos < len(l.s) && !isSpace(l.s[l.pos]) && l.s[l.pos] != ';' && l.s[l.pos] != ',' {
		l.pos++
	}
	word := l.s[start:l.pos]
	// A statement's final dot may touch a prefixed name.
	if strings.HasSuffix(word, ".") && (l.pos >= len(l.s) || isSpace(l.s[l.pos])) {
		l.pos--
		word = word[:len(word)-1]
	}
	return word, nil
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// term normalizes a token to the graph's term syntax, expanding prefixed
// names and unescaping literals.
func term(tok string, prefixes map[string]string) (string, error) {
	switch {
	case tok == "a":
		return rdfType, nil
	case strings.HasPrefix(tok, "<"):
		return tok, nil
	case strings.HasPrefix(tok, `"`):
		end := strings.LastIndexByte(tok, '"')
		lex, err := unescape(tok[1:end])
		if err != nil {
			return "", err
		}
		rest := tok[end+1:]
		if strings.HasPrefix(rest, "^^") {
			dt, err := term(rest[2:], prefixes)
			if err != nil {
				return "", err
			}
			return literal(lex, dt), nil
		}
		return literal(lex, ""), nil
	}
	prefix, local, ok := strings.Cut(tok, ":")
	ns, known := prefixes[prefix]
	if !ok || !known {
		return "", fmt.Errorf("unknown term %q", tok)
	}
	return "<" + ns + local + ">", nil
}

func unescape(s string) (string, error) {
	if !strings.Contains(s, `\`) {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' || i+1 == len(s) {
			b.WriteByte(s[i])
			continue
		}
		i++
		switch s[i] {
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 't':
			b.WriteByte('\t')
		case 'u', 'U':
			n := 4
			if s[i] == 'U' {
				n = 8
			}
			if i+n >= len(s) {
				return "", fmt.Errorf("short escape in %q", s)
			}
			r, err := strconv.ParseUint(s[i+1:i+1+n], 16, 32)
			if err != nil {
				return "", fmt.Errorf("bad escape in %q", s)
			}
			b.WriteRune(rune(r))
			i += n
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String(), nil
}

func parseNTriples(body []byte) (graph, error) {
	g := graph{}
	l := &rdfLexer{s: string(body)}
	for {
		var toks [4]string
		for i := range toks {
			tok, err := l.next()
			if err == io.EOF && i == 0 {
				return g, nil
			}
			if err != nil {
				return nil, fmt.Errorf("ntriples: %w", err)
			}
			toks[i] = tok
		}
		if toks[3] != "." {
			return nil, fmt.Errorf("ntriples: statement not ended by a dot: %q", toks)
		}
		var t [3]string
		for i := range t {
			v, err := term(toks[i], nil)
			if err != nil {
				return nil, fmt.Errorf("ntriples: %w", err)
			}
			t[i] = v
		}
		g[triple{t[0], t[1], t[2]}] = true
	}
}

func parseTurtle(body []byte) (graph, error) {
	g := graph{}
	prefixes := map[string]string{}
	l := &rdfLexer{s: string(body)}
	need := func() (string, error) {
		tok, err := l.next()
		if err == io.EOF {
			return "", fmt.Errorf("turtle: unexpected end")
		}
		return tok, err
	}
	for {
		tok, err := l.next()
		if err == io.EOF {
			return g, nil
		}
		if err != nil {
			return nil, fmt.Errorf("turtle: %w", err)
		}
		if tok == "@prefix" {
			name, err := need()
			if err != nil {
				return nil, err
			}
			iri, err := need()
			if err != nil {
				return nil, err
			}
			if dot, err := need(); err != nil || dot != "." {
				return nil, fmt.Errorf("turtle: bad prefix line for %s", name)
			}
			prefixes[strings.TrimSuffix(name, ":")] = strings.Trim(iri, "<>")
			continue
		}
		subj, err := term(tok, prefixes)
		if err != nil {
			return nil, fmt.Errorf("turtle: %w", err)
		}
		for done := false; !done; {
			ptok, err := need()
			if err != nil {
				return nil, err
			}
			pred, err := term(ptok, prefixes)
			if err != nil {
				return nil, fmt.Errorf("turtle: %w", err)
			}
			for {
				otok, err := need()
				if err != nil {
					return nil, err
				}
				obj, err := term(otok, prefixes)
				if err != nil {
					return nil, fmt.Errorf("turtle: %w", err)
				}
				g[triple{subj, pred, obj}] = true
				sep, err := need()
				if err != nil {
					return nil, err
				}
				if sep == "," {
					continue
				}
				if sep == "." {
					done = true
				} else if sep != ";" {
					return nil, fmt.Errorf("turtle: unexpected %q", sep)
				}
				break
			}
		}
	}
}

func parseRDFXML(body []byte) (graph, error) {
	g := graph{}
	dec := xml.NewDecoder(bytes.NewReader(body))
	iri := func(n xml.Name) string { return "<" + n.Space + n.Local + ">" }
	attr := func(se xml.StartElement, local string) (string, bool) {
		for _, a := range se.Attr {
			if a.Name.Space == rdfNS && a.Name.Local == local {
				return a.Value, true
			}
		}
		return "", false
	}
	depth := 0
	var subj string
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			if depth != 0 {
				return nil, fmt.Errorf("rdf/xml: truncated document")
			}
			return g, nil
		}
		if err != nil {
			return nil, fmt.Errorf("rdf/xml: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			switch depth {
			case 1:
				if t.Name.Space != rdfNS || t.Name.Local != "RDF" {
					return nil, fmt.Errorf("rdf/xml: root is %s", t.Name.Local)
				}
			case 2:
				about, ok := attr(t, "about")
				if !ok {
					return nil, fmt.Errorf("rdf/xml: node without rdf:about")
				}
				subj = "<" + about + ">"
				if t.Name.Space != rdfNS || t.Name.Local != "Description" {
					g[triple{subj, rdfType, iri(t.Name)}] = true
				}
			case 3:
				pred := iri(t.Name)
				if res, ok := attr(t, "resource"); ok {
					g[triple{subj, pred, "<" + res + ">"}] = true
					continue
				}
				var text string
				if err := dec.DecodeElement(&text, &t); err != nil {
					return nil, fmt.Errorf("rdf/xml: %w", err)
				}
				depth--
				dt, _ := attr(t, "datatype")
				if dt != "" {
					dt = "<" + dt + ">"
				}
				g[triple{subj, pred, literal(text, dt)}] = true
			default:
				return nil, fmt.Errorf("rdf/xml: nesting deeper than property elements")
			}
		case xml.EndElement:
			depth--
		}
	}
}

// graphInstances reads the instances out of an answer graph: every
// subject typed owl:NamedIndividual, with its classes and values.
func graphInstances(g graph) []instanceValues {
	byS := map[string]*instanceValues{}
	var order []string
	get := func(s string) *instanceValues {
		iv := byS[s]
		if iv == nil {
			iv = &instanceValues{values: map[string]string{}}
			byS[s] = iv
			order = append(order, s)
		}
		return iv
	}
	typed := map[string]bool{}
	for t := range g {
		iv := get(t.s)
		if t.p == rdfType {
			if t.o == owlInd {
				typed[t.s] = true
			} else {
				iv.classes = append(iv.classes, localName(t.o))
			}
			continue
		}
		if strings.HasPrefix(t.o, `"`) {
			lex := t.o
			if i := strings.LastIndex(lex, `"^^`); i >= 0 {
				lex = lex[:i+1]
			}
			v, err := strconv.Unquote(lex)
			if err == nil {
				iv.values[localName(t.p)] = v
			}
		}
	}
	sort.Strings(order)
	var out []instanceValues
	for _, s := range order {
		if typed[s] {
			out = append(out, *byS[s])
		}
	}
	return out
}

// localName is the part of an <iri> after its last '#', '/' or '_':
// ont:thing_product_brand → brand, ont:watch → watch.
func localName(term string) string {
	term = strings.Trim(term, "<>")
	if i := strings.LastIndexAny(term, "#/"); i >= 0 {
		term = term[i+1:]
	}
	return term
}
