package server

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"milpjoin/joinorder/cache"
)

// This file is the one spelling of an OptimizeResponse on the wire. The
// bytes are what encoding/json writes for the struct — the table test in
// render_test.go holds them to that — but they are appended, not reflected,
// and a response answered by the same cache entry as the request before it
// is assembled from the bytes that request rendered (keptResponse).

// MarshalJSON renders the response through appendJSON, so the batch and
// SSE front ends, which reach it through encoding/json, write the same
// bytes as the unary one.
func (r *OptimizeResponse) MarshalJSON() ([]byte, error) {
	return r.appendJSON(nil)
}

// appendJSON appends the response as one compact JSON document (no trailing
// newline): from the kept bytes when runSolve found them current, in full
// otherwise.
func (r *OptimizeResponse) appendJSON(dst []byte) ([]byte, error) {
	if r.kept != nil {
		return r.kept.appendJSON(dst, r.Result.Elapsed.Seconds(), r.QueueMillis, r.TotalMillis)
	}
	dst, _, err := r.render(dst)
	return dst, err
}

// renderMarks locates, in one full render, what a keptResponse is cut at:
// the result document and the values of queue_ms and total_ms, as [start,
// end) offsets into the rendered slice.
type renderMarks struct {
	result, queue, total [2]int
}

// render appends the result's own document and then the envelope around it,
// member by member in OptimizeResponse's field order with the omitempty
// flags left out when false.
func (r *OptimizeResponse) render(dst []byte) ([]byte, renderMarks, error) {
	var m renderMarks
	dst = append(dst, `{"result":`...)
	m.result[0] = len(dst)
	if r.Result == nil {
		dst = append(dst, "null"...)
	} else {
		doc, err := r.Result.MarshalJSON()
		if err != nil {
			return dst, m, fmt.Errorf("encoding result: %w", err)
		}
		dst = append(dst, doc...)
	}
	m.result[1] = len(dst)
	if r.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	if r.CacheHit {
		dst = append(dst, `,"cache_hit":true`...)
	}
	if r.Coalesced {
		dst = append(dst, `,"coalesced":true`...)
	}
	var err error
	dst = append(dst, `,"queue_ms":`...)
	m.queue[0] = len(dst)
	if dst, err = appendJSONFloat(dst, r.QueueMillis); err != nil {
		return dst, m, err
	}
	m.queue[1] = len(dst)
	dst = append(dst, `,"total_ms":`...)
	m.total[0] = len(dst)
	if dst, err = appendJSONFloat(dst, r.TotalMillis); err != nil {
		return dst, m, err
	}
	m.total[1] = len(dst)
	return append(dst, '}'), m, nil
}

// appendJSONFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in 'f' form unless the magnitude is below 1e-6
// or at least 1e21, where it is 'e' form with a two-digit negative exponent
// cut to one ("e-07" → "e-7"). Like encoding/json it refuses NaN and ±Inf.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// keptResponse is one rendered response with its three per-request numbers
// cut out. Everything else in the body of a plain cache hit is a function
// of the request text and the cache entry that answered it, so the bytes
// stay valid for that text exactly as long as lookups keep returning entry.
// A keptResponse is immutable once published.
type keptResponse struct {
	entry cache.EntryID
	// body is the response without the values of elapsed_sec, queue_ms and
	// total_ms; cut[i] is the offset in body where the i-th of them goes. A
	// nil body records that entry's response was rendered and not kept.
	body []byte
	cut  [3]int
}

// appendJSON writes the kept bytes around the three numbers.
func (k *keptResponse) appendJSON(dst []byte, elapsedSec, queueMs, totalMs float64) ([]byte, error) {
	at := 0
	for i, f := range [3]float64{elapsedSec, queueMs, totalMs} {
		dst = append(dst, k.body[at:k.cut[i]]...)
		var err error
		if dst, err = appendJSONFloat(dst, f); err != nil {
			return dst, err
		}
		at = k.cut[i]
	}
	return append(dst, k.body[at:]...), nil
}

// keepResponse renders r in full and cuts it for reuse by later hits on
// entry. The three numbers are located by structure — elapsed_sec as a
// top-level member of the result document, the other two where render put
// them — and the cut is accepted only if reassembling it reproduces the
// render byte for byte; a body over maxBytes, or one the cutter cannot
// account for, yields a keptResponse without a body, and the ordinary render
// answers.
func keepResponse(r *OptimizeResponse, entry cache.EntryID, maxBytes int) *keptResponse {
	declined := &keptResponse{entry: entry}
	full, m, err := r.render(nil)
	if err != nil || len(full) > maxBytes {
		return declined
	}
	es, ee, ok := memberValue(full[m.result[0]:m.result[1]], "elapsed_sec")
	if !ok {
		return declined
	}
	es, ee = es+m.result[0], ee+m.result[0]
	k := &keptResponse{entry: entry, body: make([]byte, 0, len(full))}
	at := 0
	for i, span := range [3][2]int{{es, ee}, m.queue, m.total} {
		k.body = append(k.body, full[at:span[0]]...)
		k.cut[i] = len(k.body)
		at = span[1]
	}
	k.body = append(k.body, full[at:]...)
	again, err := k.appendJSON(nil, r.Result.Elapsed.Seconds(), r.QueueMillis, r.TotalMillis)
	if err != nil || !bytes.Equal(again, full) {
		return declined
	}
	return k
}

// memberValue returns the span of the value of the top-level member named
// key in obj, a JSON object in encoding/json's compact form. Strings are
// skipped as strings, so a key's spelling inside a value never matches.
func memberValue(obj []byte, key string) (start, end int, ok bool) {
	if len(obj) == 0 || obj[0] != '{' {
		return 0, 0, false
	}
	for i := 1; i < len(obj); {
		nameEnd := skipString(obj, i)
		if nameEnd < 0 || nameEnd >= len(obj) || obj[nameEnd] != ':' {
			return 0, 0, false
		}
		valEnd := skipValue(obj, nameEnd+1)
		if valEnd < 0 {
			return 0, 0, false
		}
		if string(obj[i+1:nameEnd-1]) == key {
			return nameEnd + 1, valEnd, true
		}
		if obj[valEnd] != ',' {
			return 0, 0, false
		}
		i = valEnd + 1
	}
	return 0, 0, false
}

// skipString returns the offset after the string literal opening at b[i],
// or -1 when there is none.
func skipString(b []byte, i int) int {
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	for i++; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return -1
}

// skipValue returns the offset of the ',' or closing bracket that ends the
// value starting at b[i], or -1 when the value does not end.
func skipValue(b []byte, i int) int {
	for depth := 0; i < len(b); i++ {
		switch b[i] {
		case '"':
			if i = skipString(b, i) - 1; i < 0 {
				return -1
			}
		case '{', '[':
			depth++
		case ',':
			if depth == 0 {
				return i
			}
		case '}', ']':
			if depth == 0 {
				return i
			}
			depth--
		}
	}
	return -1
}
