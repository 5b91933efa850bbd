package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
)

// This file is the wire format of /v1/query and /v1/join: a one-pass
// reader for their request bodies and appenders for their responses.
//
// The reader takes only the canonical subset of JSON that clients send
// (exact key spelling, each key once, plain ASCII strings, numbers in the
// shapes the request fields expect, no null) and parses it straight into
// the request structs. Any other body is handed, byte for byte, to
// encoding/json, which stays the authority: every body the reader takes
// decodes to the value encoding/json would produce, and every body it
// declines gets encoding/json's answer and error message. The fuzz
// targets in wire_test.go hold the reader to that.
//
// The appenders write exactly the bytes writeJSON's indented
// encoding/json output has for the same response.

// maxPresize caps how much of a body's Content-Length is reserved before
// its bytes arrive. A bench-shaped 64-ring join body (about 45 KB) fits
// in one allocation; a larger body grows only as it is read, so a client
// that announces a large body and then stalls holds little memory.
const maxPresize = 256 << 10

// decodeWire reads a /v1/query or /v1/join body once and parses it with
// read. size is the request's Content-Length (-1 when unknown), used only
// to presize the read. When the read fails or read declines,
// encoding/json decodes the same bytes (followed by the same read error)
// into a fresh zero value, never the half-filled one.
func decodeWire[T any](body io.Reader, size int64, read func(*T, *wireReader) bool) (T, error) {
	var buf bytes.Buffer
	buf.Grow(int(min(max(size, 0), maxPresize)) + bytes.MinRead)
	_, rerr := buf.ReadFrom(body)
	b := buf.Bytes()
	if rerr == nil {
		var v T
		p := wireReader{b: b}
		if read(&v, &p) && p.end() {
			return v, nil
		}
	}
	src := io.Reader(bytes.NewReader(b))
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	var v T
	err := json.NewDecoder(src).Decode(&v)
	return v, err
}

// errReader replays a failed read to the fallback decoder.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

var queryFields = []string{"dataset", "polygon", "rect", "polygons", "aggs", "max_error", "workers", "no_cache"}

// readWire parses the canonical /v1/query body into q, or declines.
func (q *queryRequest) readWire(p *wireReader) bool {
	return p.object(queryFields, func(field string) (ok bool) {
		switch field {
		case "dataset":
			q.Dataset, ok = p.str()
		case "polygon":
			q.Polygon, ok = p.ring()
		case "rect":
			q.Rect = new([4]float64)
			ok = p.floats(q.Rect[:])
		case "polygons":
			q.Polygons, ok = p.rings()
		case "aggs":
			q.Aggs, ok = p.aggs()
		case "max_error":
			q.MaxError, ok = p.float()
		case "workers":
			q.Workers, ok = p.integer()
		case "no_cache":
			q.NoCache, ok = p.boolean()
		}
		return ok
	})
}

var joinFields = []string{"dataset", "polygons", "window", "aggs", "max_error", "no_cache"}

var windowFields = []string{"rect", "nx", "ny"}

// readWire parses the canonical /v1/join body into j, or declines.
func (j *joinRequest) readWire(p *wireReader) bool {
	return p.object(joinFields, func(field string) (ok bool) {
		switch field {
		case "dataset":
			j.Dataset, ok = p.str()
		case "polygons":
			j.Polygons, ok = p.rings()
		case "window":
			jw := new(joinWindow)
			j.Window = jw
			ok = p.object(windowFields, func(wf string) (ok bool) {
				switch wf {
				case "rect":
					ok = p.floats(jw.Rect[:])
				case "nx":
					jw.NX, ok = p.integer()
				case "ny":
					jw.NY, ok = p.integer()
				}
				return ok
			})
		case "aggs":
			j.Aggs, ok = p.aggs()
		case "max_error":
			j.MaxError, ok = p.float()
		case "no_cache":
			j.NoCache, ok = p.boolean()
		}
		return ok
	})
}

// wireReader scans one request body. Every method reports false to
// decline: on anything outside the canonical subset, including input
// that is valid JSON.
type wireReader struct {
	b []byte
	i int
	// pts is the vertex scratch ring() fills before copying out an
	// exactly sized ring.
	pts [][2]float64
}

// skipSpace skips JSON whitespace.
func (p *wireReader) skipSpace() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, if c is next.
func (p *wireReader) consume(c byte) bool {
	p.skipSpace()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left. Bytes after the value are
// declined: encoding/json's Decode would ignore them.
func (p *wireReader) end() bool {
	p.skipSpace()
	return p.i == len(p.b)
}

// object reads an object whose keys are all in fields, each at most
// once, calling value after each key's colon.
func (p *wireReader) object(fields []string, value func(field string) bool) bool {
	if !p.consume('{') {
		return false
	}
	if p.consume('}') {
		return true
	}
	var seen uint32
	for {
		key, ok := p.stringBytes()
		if !ok {
			return false
		}
		k := 0
		for k < len(fields) && string(key) != fields[k] {
			k++
		}
		if k == len(fields) || seen&(1<<k) != 0 {
			return false
		}
		seen |= 1 << k
		if !p.consume(':') || !value(fields[k]) {
			return false
		}
		if !p.consume(',') {
			return p.consume('}')
		}
	}
}

// stringBytes reads a string of printable ASCII with no escapes and
// returns its contents, aliasing the body.
func (p *wireReader) stringBytes() ([]byte, bool) {
	if !p.consume('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20, c == '\\', c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

func (p *wireReader) str() (string, bool) {
	s, ok := p.stringBytes()
	return string(s), ok
}

// number reads one token of the JSON number grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (p *wireReader) number() ([]byte, bool) {
	p.skipSpace()
	b, start := p.b, p.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	p.i = i
	return b[start:i], true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// float reads a number into a float64 with the call encoding/json makes,
// so the bits match; out-of-range values are declined.
func (p *wireReader) float() (float64, bool) {
	s, ok := p.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(s), 64)
	return f, err == nil
}

// integer reads an integer-valued number into an int; a fraction, an
// exponent or overflow is declined, as encoding/json rejects them.
func (p *wireReader) integer() (int, bool) {
	s, ok := p.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(s), 10, strconv.IntSize)
	return int(n), err == nil
}

func (p *wireReader) boolean() (bool, bool) {
	p.skipSpace()
	switch rest := p.b[p.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		p.i += len("true")
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		p.i += len("false")
		return false, true
	}
	return false, false
}

// floats reads an array of exactly len(dst) numbers into dst.
func (p *wireReader) floats(dst []float64) bool {
	if !p.consume('[') {
		return false
	}
	for k := range dst {
		if k > 0 && !p.consume(',') {
			return false
		}
		f, ok := p.float()
		if !ok {
			return false
		}
		dst[k] = f
	}
	return p.consume(']')
}

// array reads an array, calling elem once per element. An empty array
// calls nothing.
func (p *wireReader) array(elem func() bool) bool {
	if !p.consume('[') {
		return false
	}
	if p.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !p.consume(',') {
			return p.consume(']')
		}
	}
}

// ring reads [[x,y],...] with exactly two numbers per vertex into an
// exactly sized slice; [] gives an empty, non-nil ring.
func (p *wireReader) ring() ([][2]float64, bool) {
	pts := p.pts[:0]
	ok := p.array(func() bool {
		var v [2]float64
		if !p.floats(v[:]) {
			return false
		}
		pts = append(pts, v)
		return true
	})
	p.pts = pts
	if !ok {
		return nil, false
	}
	return append(make([][2]float64, 0, len(pts)), pts...), true
}

// rings reads an array of rings; [] gives an empty, non-nil slice.
func (p *wireReader) rings() ([][][2]float64, bool) {
	rings := [][][2]float64{}
	ok := p.array(func() bool {
		rg, ok := p.ring()
		rings = append(rings, rg)
		return ok
	})
	return rings, ok
}

var aggFields = []string{"func", "col"}

// aggs reads an array of {"func": ..., "col": ...} objects.
func (p *wireReader) aggs() ([]aggJSON, bool) {
	aggs := []aggJSON{}
	ok := p.array(func() bool {
		var a aggJSON
		ok := p.object(aggFields, func(field string) (ok bool) {
			if field == "func" {
				a.Func, ok = p.str()
			} else {
				a.Col, ok = p.str()
			}
			return ok
		})
		aggs = append(aggs, a)
		return ok
	})
	return aggs, ok
}

// writeAppended writes an appended response with status 200 and the
// headers writeJSON sets.
func writeAppended(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// appendQueryResponse appends resp exactly as writeJSON encodes it:
// indented by two spaces, with a trailing newline.
func appendQueryResponse(b []byte, resp *queryResponse) []byte {
	b = slices.Grow(b, 256*(len(resp.Results)+1))
	b = appendKey(append(b, "{\n"...), "  ", "dataset")
	b = appendJSONString(b, resp.Dataset)
	if resp.Result != nil {
		b = nextKey(b, "  ", "result")
		b = appendResult(b, resp.Result, "    ")
	}
	if len(resp.Results) > 0 {
		b = nextKey(b, "  ", "results")
		b = appendResults(b, resp.Results)
	}
	b = nextKey(b, "  ", "elapsed_us")
	b = strconv.AppendInt(b, resp.ElapsedUS, 10)
	return append(b, "\n}\n"...)
}

// appendJoinResponse appends resp exactly as writeJSON encodes it.
func appendJoinResponse(b []byte, resp *joinResponse) []byte {
	b = slices.Grow(b, 256*(len(resp.Results)+1))
	b = appendKey(append(b, "{\n"...), "  ", "dataset")
	b = appendJSONString(b, resp.Dataset)
	b = nextKey(b, "  ", "results")
	switch {
	case resp.Results == nil:
		b = append(b, "null"...)
	case len(resp.Results) == 0:
		b = append(b, "[]"...)
	default:
		b = appendResults(b, resp.Results)
	}
	st := &resp.Stats
	b = nextKey(b, "  ", "stats")
	b = appendKey(append(b, "{\n"...), "    ", "polygons")
	b = strconv.AppendInt(b, int64(st.Polygons), 10)
	b = nextKey(b, "    ", "unique_polygons")
	b = strconv.AppendInt(b, int64(st.UniquePolygons), 10)
	b = nextKey(b, "    ", "level")
	b = strconv.AppendInt(b, int64(st.Level), 10)
	b = nextKey(b, "    ", "interior_pairs")
	b = strconv.AppendInt(b, int64(st.InteriorPairs), 10)
	b = nextKey(b, "    ", "boundary_pairs")
	b = strconv.AppendInt(b, int64(st.BoundaryPairs), 10)
	b = nextKey(b, "    ", "interior_fraction")
	b = appendJSONFloat64(b, st.InteriorFraction)
	b = nextKey(b, "    ", "cache_hits")
	b = strconv.AppendInt(b, int64(st.CacheHits), 10)
	b = nextKey(b, "    ", "cache_misses")
	b = strconv.AppendInt(b, int64(st.CacheMisses), 10)
	b = append(b, "\n  }"...)
	b = nextKey(b, "  ", "elapsed_us")
	b = strconv.AppendInt(b, resp.ElapsedUS, 10)
	return append(b, "\n}\n"...)
}

// appendKey appends an indented object key and its ": ".
func appendKey(b []byte, indent, key string) []byte {
	b = append(b, indent...)
	b = append(b, '"')
	b = append(b, key...)
	return append(b, `": `...)
}

// nextKey ends the previous member and appends the next key.
func nextKey(b []byte, indent, key string) []byte {
	return appendKey(append(b, ",\n"...), indent, key)
}

// appendResults appends a non-empty result list as a top-level member.
func appendResults(b []byte, rs []resultJSON) []byte {
	b = append(b, "[\n"...)
	for i := range rs {
		if i > 0 {
			b = append(b, ",\n"...)
		}
		b = append(b, "    "...)
		b = appendResult(b, &rs[i], "      ")
	}
	return append(b, "\n  ]"...)
}

// appendResult appends r as an object whose members sit at indent; its
// closing brace sits two spaces less deep.
func appendResult(b []byte, r *resultJSON, indent string) []byte {
	b = appendKey(append(b, "{\n"...), indent, "count")
	b = strconv.AppendUint(b, r.Count, 10)
	b = nextKey(b, indent, "values")
	switch {
	case r.Values == nil:
		b = append(b, "null"...)
	case len(r.Values) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, "[\n"...)
		for i, v := range r.Values {
			if i > 0 {
				b = append(b, ",\n"...)
			}
			b = append(b, indent...)
			b = appendNullableFloat(append(b, "  "...), float64(v))
		}
		b = append(append(append(b, '\n'), indent...), ']')
	}
	b = nextKey(b, indent, "cells_visited")
	b = strconv.AppendInt(b, int64(r.CellsVisited), 10)
	b = nextKey(b, indent, "level")
	b = strconv.AppendInt(b, int64(r.Level), 10)
	b = nextKey(b, indent, "error_bound")
	b = appendNullableFloat(b, float64(r.ErrorBound))
	b = append(append(b, '\n'), indent[:len(indent)-2]...)
	return append(b, '}')
}

// appendNullableFloat appends a jsonFloat's encoding: NaN and ±Inf as
// null, anything else in the shortest 'g' form.
func appendNullableFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendJSONFloat64 appends a finite float64 as encoding/json encodes
// one: 'f' form, or 'e' form below 1e-6 and from 1e21 on with a
// single-digit negative exponent unpadded (1e-07 becomes 1e-7).
func appendJSONFloat64(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendJSONString appends s quoted. Printable ASCII that encoding/json
// leaves alone is copied; anything else (quotes, backslashes, control
// bytes, the HTML-escaped <, > and &, non-ASCII) is encoded by
// encoding/json itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
