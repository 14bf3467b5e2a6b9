package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"
)

// response is what the client kept of one exchange.
type response struct {
	status  int
	body    []byte
	header  http.Header
	trailer http.Header
	// latency runs from just before the request is sent to the last body
	// byte; ttfb to the first body byte (the end of the body when it is
	// empty).
	latency time.Duration
	ttfb    time.Duration
}

// scratch is one client's reusable read buffers.
type scratch struct {
	buf   bytes.Buffer
	chunk [16 << 10]byte
}

// exec sends one operation and reads the whole reply. sc, when given,
// holds the body until its next use (the caller copies what it keeps).
func (e *env) exec(ctx context.Context, o *op, sc *scratch) (response, error) {
	method := http.MethodGet
	var body io.Reader
	if o.body != nil {
		method = http.MethodPost
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, method, e.base+o.path, body)
	if err != nil {
		return response{}, fmt.Errorf("building %s request: %w", o.kind, err)
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sc == nil {
		sc = new(scratch)
	}
	buf := &sc.buf
	buf.Reset()
	start := time.Now()
	res, err := e.hc.Do(req)
	if err != nil {
		return response{}, fmt.Errorf("%s %s: %w", method, o.path, err)
	}
	defer res.Body.Close()
	r := response{status: res.StatusCode, header: res.Header}
	for {
		n, rerr := res.Body.Read(sc.chunk[:])
		if n > 0 {
			if r.ttfb == 0 {
				r.ttfb = time.Since(start)
			}
			buf.Write(sc.chunk[:n])
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return response{}, fmt.Errorf("%s %s: reading body: %w", method, o.path, rerr)
		}
	}
	r.latency = time.Since(start)
	if r.ttfb == 0 {
		r.ttfb = r.latency
	}
	r.body = buf.Bytes()
	r.trailer = res.Trailer
	return r, nil
}

// failure reports why a reply is not a successful completion of its
// operation (a wrong answer is judged separately, by the checks).
func failure(o *op, r response) error {
	want := http.StatusOK
	if o.kind == opRegSource || o.kind == opRegMapping {
		want = http.StatusCreated
	}
	if r.status != want {
		return fmt.Errorf("%s %s: status %d: %.200s", o.kind, o.key, r.status, r.body)
	}
	if o.kind == opStream || o.kind == opBatch {
		if r.trailer.Get("X-S2s-Stream-Complete") != "true" {
			return fmt.Errorf("%s %s: stream incomplete (trailers %v)", o.kind, o.key, r.trailer)
		}
	}
	return nil
}
