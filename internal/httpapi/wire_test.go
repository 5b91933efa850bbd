package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// checkDecode holds a wire decode to encoding/json's: both fail with the
// same message, or both succeed with deeply equal values (a nil and an
// empty slice differ).
func checkDecode[T any](t *testing.T, b []byte, read func(*T, *wireReader) bool) {
	t.Helper()
	got, gotErr := decodeWire(bytes.NewReader(b), int64(len(b)), read)
	var want T
	wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("decode %q: error %v, encoding/json error %v", b, gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("decode %q: error %q, encoding/json error %q", b, gotErr, wantErr)
	case gotErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("decode %q:\n got %#v\nwant %#v", b, got, want)
	}
}

// wireEdgeSeeds are bodies at the edges of the reader's canonical subset:
// trailing bytes, folded and repeated keys, short and long vertices,
// null, out-of-range numbers, escapes, non-ASCII and malformed numbers,
// where a naive parser and encoding/json part ways, beside accepted
// spellings such as -0, 1E+2, empty arrays and extra whitespace.
var wireEdgeSeeds = []string{
	`{"dataset":"taxi","rect":[0,0,1,1],"aggs":[{"func":"count"}]} trailing`,
	`{"dataset":"taxi","rect":[0,0,1,1],"aggs":[{"func":"count"}]}{}`,
	`{"DataSet":"taxi","rect":[0,0,1,1],"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi","dataset":"nope","polygons":[[[0,0],[1,0],[1,1]]],"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi","aggs":[{"func":"count","func":"sum","col":"fare_amount"}],"polygons":[[[0,0],[1,0],[1,1]]]}`,
	`{"dataset":"taxi","polygon":[[0,0],[1,2,3],[1,1]],"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi","polygons":[[[0,0],[1,2,3],[1,1]]],"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi","polygon":[[0,0],[4],[1,1]],"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi","polygons":[[[0,0],[4],[1,1]]],"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi","rect":[0,0,1],"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi","window":{"rect":[0,0,1,1,2],"nx":1,"ny":1},"aggs":[{"func":"count"}]}`,
	`{"dataset":null,"polygons":null,"polygon":null,"rect":null,"window":null,"aggs":null,"max_error":null,"no_cache":null}`,
	`{"dataset":"taxi","polygons":[null,[[0,0],[1,0],[1,1]]],"aggs":[null]}`,
	`{"dataset":"taxi","polygons":[[[0,0],[1,0],[1,1e400]]],"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi","polygon":[[0,0],[1,0],[1,1]],"max_error":1e400,"aggs":[{"func":"count"}]}`,
	`{"dataset":"ta\u0078i","polygons":[[[0,0],[1,0],[1,1]]],"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi\n","polygons":[[[0,0],[1,0],[1,1]]],"aggs":[{"func":"count"}]}`,
	`{"dataset":"täxi","polygons":[[[0,0],[1,0],[1,1]]],"aggs":[{"func":"count","col":"färe"}]}`,
	"{\"dataset\":\"taxi\xff\",\"polygons\":[[[0,0],[1,0],[1,1]]],\"aggs\":[{\"func\":\"count\"}]}",
	`{"dataset":"taxi","polygons":[[[-0,0],[1E+2,0],[1,1e-2]]],"max_error":-0,"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi","polygons":[[[01,0],[1,0],[1,1]]],"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi","polygons":[[[.5,0],[1,0],[1,1]]],"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi","polygons":[[[1.,0],[1,0],[1,1]]],"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi","polygons":[[[1e,0],[1,0],[1,1]]],"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi","polygons":[[[+1,0],[1,0],[1,1]]],"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi","polygons":[[[0,0],[1,0],[1,1],]],"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi","polygons":[],"polygon":[],"aggs":[]}`,
	`{"dataset":"taxi","polygons":[[]],"aggs":[{}]}`,
	`{"dataset":"taxi","window":{},"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi","window":{"rect":[0,0,1,1],"nx":1.0,"ny":1e2},"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi","window":{"rect":[0,0,1,1],"nx":99999999999999999999,"ny":-0},"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi","rect":[0,0,1,1],"workers":4.5,"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi","rect":[0,0,1,1],"workers":-0,"no_cache":false,"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi","rect":[0,0,1,1],"no_cache":tru,"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi","rect":[0,0,1,1],"no_cache":1,"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi","rect":[0,0,1,1],"unknown":1,"aggs":[{"func":"count"}]}`,
	`{"dataset":"taxi","rect":[0,0,1,1],"aggs":[{"func":"count","extra":"x"}]}`,
	" \t\r\n{ \"dataset\" : \"taxi\" , \"rect\" : [ 0 , 0 , 1 , 1 ] , \"aggs\" : [ { \"func\" : \"count\" } ] } \n",
	`[]`, `null`, ``, `{`, `{}`, `{"dataset":"taxi",}`, `"taxi"`,
}

// wireErrorBodies are the /v1/query and /v1/join bodies of
// TestQueryErrors and TestJoinEndpointErrors. Their oversized-batch body
// (10 001 rings, 200 KB) is seeded at 100 rings: the decoders take the
// shape alike at any length, and the fuzzer stalls minimising an input
// that large. The over-cap bodies are left to those tests.
func wireErrorBodies() []string {
	batch := `{"dataset":"taxi","polygons":[` + strings.Repeat(`[[0,0],[1,0],[1,1]],`, 99) +
		`[[0,0],[1,0],[1,1]]],"aggs":[{"func":"count"}]}`
	return []string{
		`{"dataset":`,
		`{"rect":[0,0,1,1],"aggs":[{"func":"count"}]}`,
		`{"dataset":"nope","rect":[0,0,1,1],"aggs":[{"func":"count"}]}`,
		`{"dataset":"taxi","aggs":[{"func":"count"}]}`,
		`{"dataset":"taxi","rect":[0,0,1,1],"polygon":[[0,0],[1,0],[0,1]],"aggs":[{"func":"count"}]}`,
		`{"dataset":"taxi","rect":[0,0,1,1]}`,
		`{"dataset":"taxi","rect":[0,0,1,1],"aggs":[{"func":"median","col":"fare_amount"}]}`,
		`{"dataset":"taxi","rect":[0,0,1,1],"aggs":[{"func":"sum"}]}`,
		`{"dataset":"taxi","rect":[-74.05,40.60,-73.85,40.85],"aggs":[{"func":"sum","col":"nope"}]}`,
		`{"dataset":"taxi","rect":[1,1,0,0],"aggs":[{"func":"count"}]}`,
		`{"dataset":"taxi","polygon":[[0,0],[1,1]],"aggs":[{"func":"count"}]}`,
		`{"dataset":"taxi","polygons":[[[0,0],[1,1]]],"aggs":[{"func":"count"}]}`,
		`{"dataset":"taxi","polygons":[],"aggs":[{"func":"count"}]}`,
		batch,
		`{"dataset":"taxi","rect":[0,0,1,1],"max_error":-0.5,"aggs":[{"func":"count"}]}`,
		`{"dataset":"taxi","rect":[0,0,1,1],"max_error":"NaN","aggs":[{"func":"count"}]}`,
		`{"dataset":"taxi","rect":[0,0,1,1],"max_error":"+Inf","aggs":[{"func":"count"}]}`,
		`{"dataset":"taxi","rect":[0,0,1,1],"workers":-1,"aggs":[{"func":"count"}]}`,
		`{"dataset":"taxi","rect":[0,0,1,1],"workers":100000,"aggs":[{"func":"count"}]}`,
		`{"dataset":"taxi","polygons":[[[0,0],[1,0],[1,1],[0,1]]],"max_error":-1,"aggs":[{"func":"count"}]}`,
		`{"dataset":"taxi","polygons":[[[0,0],[1,0],[1,1],[0,1]]],"workers":-7,"aggs":[{"func":"count"}]}`,
		`{"polygons":[[[0,0],[1,0],[1,1]]],"aggs":[{"func":"count"}]}`,
		`{"dataset":"nope","polygons":[[[0,0],[1,0],[1,1]]],"aggs":[{"func":"count"}]}`,
		`{"dataset":"taxi","polygons":[[[0,0],[1,0],[1,1]]],"window":{"rect":[0,0,1,1],"nx":1,"ny":1},"aggs":[{"func":"count"}]}`,
		`{"dataset":"taxi","polygons":[[[0,0],[1,0],[1,1]]]}`,
		`{"dataset":"taxi","polygons":[[[0,0],[1,0],[1,1]]],"aggs":[{"func":"median","col":"fare_amount"}]}`,
		`{"dataset":"taxi","polygons":[[[-74.05,40.60],[-73.85,40.60],[-73.85,40.85]]],"aggs":[{"func":"sum","col":"nope"}]}`,
		`{"dataset":"taxi","polygons":[[[0,0],[1,0]]],"aggs":[{"func":"count"}]}`,
		`{"dataset":"taxi","window":{"rect":[1,1,0,0],"nx":1,"ny":1},"aggs":[{"func":"count"}]}`,
		`{"dataset":"taxi","window":{"rect":[0,0,1,1],"nx":0,"ny":3},"aggs":[{"func":"count"}]}`,
		`{"dataset":"taxi","window":{"rect":[0,0,1,1],"nx":200,"ny":200},"aggs":[{"func":"count"}]}`,
		`{"dataset":"taxi","polygons":[[[0,0],[1,0],[1,1]]],"aggs":[{"func":"count"}],"max_error":-2}`,
	}
}

// addWireSeeds seeds a fuzz target with the error-table bodies, the edge
// cases, the documented bodies and bench-shaped query and join bodies.
func addWireSeeds(f *testing.F) {
	seeds := append(wireErrorBodies(), wireEdgeSeeds...)
	for _, body := range docBodies(f) {
		seeds = append(seeds, body.body)
	}
	pool := wireRingPool(1)
	seeds = append(seeds, string(wireQueryBody(pool[0], 0)),
		string(wireJoinBody(wireZipfDraws(pool, wireJoinPolys, 1), wireMaxError)))
	for _, s := range seeds {
		f.Add([]byte(s))
	}
}

func FuzzDecodeQueryRequest(f *testing.F) {
	addWireSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) { checkDecode(t, b, (*queryRequest).readWire) })
}

func FuzzDecodeJoinRequest(f *testing.F) {
	addWireSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) { checkDecode(t, b, (*joinRequest).readWire) })
}

// docBody is one request body shown in the documentation.
type docBody struct{ path, body string }

// docCurl matches a documented `curl ... /v1/query -d '{...}'` call.
var docCurl = regexp.MustCompile(`(?s)curl -s \S*(/v1/(?:query|join)) -d '(\{.*?\})'`)

// docBodies extracts the /v1/query and /v1/join bodies of the operations
// reference and the README, skipping elided ones.
func docBodies(tb testing.TB) []docBody {
	tb.Helper()
	var out []docBody
	for _, name := range []string{"../../docs/OPERATIONS.md", "../../README.md"} {
		doc, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		for _, m := range docCurl.FindAllStringSubmatch(string(doc), -1) {
			if !strings.Contains(m[2], "...") { // an elided placeholder
				out = append(out, docBody{path: m[1], body: m[2]})
			}
		}
	}
	return out
}

// TestWireReaderTakesCanonicalBodies pins that the one-pass reader, not
// the encoding/json fallback, decodes the bodies clients are shown and
// the bodies the serving-tier benchmark sends, to encoding/json's value.
func TestWireReaderTakesCanonicalBodies(t *testing.T) {
	bodies := docBodies(t)
	counts := map[string]int{}
	for _, b := range bodies {
		counts[b.path]++
	}
	// OPERATIONS.md shows four query and two join bodies, the README two
	// more queries.
	if counts["/v1/query"] < 6 || counts["/v1/join"] < 2 {
		t.Fatalf("found %v documented bodies, want at least 6 query and 2 join", counts)
	}
	pool := wireRingPool(7)
	bodies = append(bodies,
		docBody{"/v1/query", string(wireQueryBody(pool[3], 0))},
		docBody{"/v1/query", string(wireQueryBody(pool[4], 0.002))},
		docBody{"/v1/join", string(wireJoinBody(wireZipfDraws(pool, wireJoinPolys, 7), wireMaxError))},
	)
	for _, b := range bodies {
		p := wireReader{b: []byte(b.body)}
		var took bool
		if b.path == "/v1/query" {
			var q queryRequest
			took = q.readWire(&p) && p.end()
			checkDecode(t, []byte(b.body), (*queryRequest).readWire)
		} else {
			var j joinRequest
			took = j.readWire(&p) && p.end()
			checkDecode(t, []byte(b.body), (*joinRequest).readWire)
		}
		if !took {
			t.Errorf("%s body declined at byte %d: %s", b.path, p.i, b.body)
		}
	}
}

// TestDecodePresizeIsCapped pins that Content-Length is only a hint: a
// body that announces maxBodyBytes and breaks off after a few bytes
// reserves at most maxPresize for the read, not the announced size.
func TestDecodePresizeIsCapped(t *testing.T) {
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		body := io.MultiReader(strings.NewReader(`{"dataset":"taxi","polygons":[`), errReader{io.ErrUnexpectedEOF})
		if _, err := decodeWire(body, maxBodyBytes, (*joinRequest).readWire); err == nil {
			t.Fatal("a broken-off body decoded without error")
		}
	}
	runtime.ReadMemStats(&after)
	// About maxPresize plus the fallback's decoder; the margin absorbs
	// the race detector, which doubles the buffer's allocation.
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 4*maxPresize {
		t.Fatalf("a broken-off body announcing %d bytes allocated %d bytes, want at most %d", maxBodyBytes, per, 4*maxPresize)
	}
}

// TestResponseAppendMatchesWriteJSON holds the response appenders to
// writeJSON's bytes on random responses of every form.
func TestResponseAppendMatchesWriteJSON(t *testing.T) {
	r := rand.New(rand.NewPCG(35, 1))
	floats := func() float64 {
		switch r.IntN(12) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		case 3:
			return math.Copysign(0, -1)
		case 4:
			return r.NormFloat64() * 1e-9
		case 5:
			return (1 + r.Float64()) * 1e21 * math.Pow(10, float64(r.IntN(200)))
		case 6:
			return float64(r.Int64N(1 << 53))
		case 7:
			return math.Float64frombits(r.Uint64())
		case 8:
			return 0
		default:
			return r.NormFloat64() * math.Pow(10, float64(r.IntN(40)-20))
		}
	}
	fraction := func() float64 {
		switch r.IntN(6) {
		case 0:
			return 0
		case 1:
			return 1
		case 2:
			return r.Float64() * 1e-6
		case 3:
			return 1e-6
		case 4:
			return float64(r.IntN(7)+1) * math.Pow(10, -float64(7+r.IntN(300)))
		default:
			return r.Float64()
		}
	}
	names := []string{"taxi", "", "a<b", "b>a", "R&D", `q"uote\`, "tab\tnew\nline", "dél", "\x7f", "\u2028", "bad\xffutf8", "x.y-z_0"}
	result := func() resultJSON {
		rj := resultJSON{
			Count:        r.Uint64() >> r.IntN(64),
			Values:       make([]jsonFloat, r.IntN(5)),
			CellsVisited: int(r.Int64N(1<<40)) - 5,
			Level:        r.IntN(31),
			ErrorBound:   jsonFloat(floats()),
		}
		for i := range rj.Values {
			rj.Values[i] = jsonFloat(floats())
		}
		if r.IntN(20) == 0 {
			rj.Values = nil
		}
		return rj
	}
	results := func() []resultJSON {
		var rs []resultJSON
		switch r.IntN(8) {
		case 0:
		case 1:
			rs = []resultJSON{}
		default:
			rs = make([]resultJSON, 1+r.IntN(4))
			for i := range rs {
				rs[i] = result()
			}
		}
		return rs
	}
	check := func(v any, got []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		if want := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("appended\n%s\nwriteJSON\n%s", got, want)
		}
	}
	for i := 0; i < 3000; i++ {
		q := queryResponse{Dataset: names[r.IntN(len(names))], ElapsedUS: r.Int64N(1<<40) - 3}
		switch i % 3 {
		case 0:
			rj := result()
			q.Result = &rj
		case 1:
			q.Results = results()
		}
		check(q, appendQueryResponse(nil, &q))

		j := joinResponse{
			Dataset: names[r.IntN(len(names))],
			Results: results(),
			Stats: joinStatsJSON{
				Polygons:         r.IntN(10_001),
				UniquePolygons:   r.IntN(10_001),
				Level:            r.IntN(31),
				InteriorPairs:    int(r.Int64N(1 << 40)),
				BoundaryPairs:    int(r.Int64N(1 << 40)),
				InteriorFraction: fraction(),
				CacheHits:        r.IntN(100),
				CacheMisses:      r.IntN(100),
			},
			ElapsedUS: r.Int64N(1 << 40),
		}
		check(j, appendJoinResponse(nil, &j))
	}
}
