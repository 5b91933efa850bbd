package cluster

import (
	"fmt"
	"strings"

	"geoblocks"
	"geoblocks/internal/cellid"
)

// CodecVersion is the accumulator frame version this build speaks
// (internal/core wire codec). It rides in every partial request so a
// mixed-version cluster fails loudly at the envelope instead of deep in
// frame parsing.
const CodecVersion = 1

// AggJSON is the wire form of one aggregate request, mirroring the
// public query API's spelling ("count", "sum", "min", "max", "avg" over
// a named column).
type AggJSON struct {
	Func string `json:"func"`
	Col  string `json:"col,omitempty"`
}

// ToRequest resolves the wire form into an AggRequest.
func (a AggJSON) ToRequest() (geoblocks.AggRequest, error) {
	switch a.Func {
	case "count":
		return geoblocks.Count(), nil
	case "sum":
		return geoblocks.Sum(a.Col), nil
	case "min":
		return geoblocks.Min(a.Col), nil
	case "max":
		return geoblocks.Max(a.Col), nil
	case "avg":
		return geoblocks.Avg(a.Col), nil
	}
	return geoblocks.AggRequest{}, fmt.Errorf("unknown aggregate function %q", a.Func)
}

// AggsFromRequests converts resolved requests back to wire form for the
// coordinator side. It relies on AggRequest.String()'s canonical
// spelling ("count", "sum(col)").
func AggsFromRequests(reqs []geoblocks.AggRequest) []AggJSON {
	out := make([]AggJSON, len(reqs))
	for i, r := range reqs {
		s := r.String()
		if open := strings.IndexByte(s, '('); open >= 0 {
			out[i] = AggJSON{Func: s[:open], Col: s[open+1 : len(s)-1]}
		} else {
			out[i] = AggJSON{Func: s}
		}
	}
	return out
}

// ShardReq is one scatter unit on the wire: a shard prefix cell and the
// sub-covering it must answer, as hex cell tokens. A request repeats a
// shard once per region routed there.
type ShardReq struct {
	Cell  string   `json:"cell"`
	Cover []string `json:"cover"`
}

// PartialRequest is the body of POST /internal/v1/partial: answer these
// shards' sub-coverings at this grid level as accumulator partials. The
// epoch pins the assignment generation the coordinator planned under.
type PartialRequest struct {
	Dataset      string     `json:"dataset"`
	CodecVersion int        `json:"codec_version"`
	Epoch        uint64     `json:"epoch"`
	Level        int        `json:"level"`
	Aggs         []AggJSON  `json:"aggs"`
	Shards       []ShardReq `json:"shards"`
	// NoCache propagates the query's DisableCache option so a
	// measurement query bypasses caches cluster-wide.
	NoCache bool `json:"no_cache,omitempty"`
}

// ShardPartialResp carries one shard's serialized accumulator frame
// (base64 via encoding/json's []byte rule).
type ShardPartialResp struct {
	Cell    string `json:"cell"`
	Partial []byte `json:"partial"`
}

// PartialResponse is the success body of POST /internal/v1/partial.
// Shards echo the request order; Level echoes the executed grid level.
// The coordinator derives each region's error bound from its own
// covering.
type PartialResponse struct {
	Dataset string             `json:"dataset"`
	Epoch   uint64             `json:"epoch"`
	Level   int                `json:"level"`
	Shards  []ShardPartialResp `json:"shards"`
}

// Error codes carried in peer error bodies (httpapi errorResponse.Code),
// the machine-readable half of typed 4xx/5xx answers.
const (
	CodeBadRequest     = "bad_request"
	CodeCodecMismatch  = "codec_version_mismatch"
	CodeUnknownDataset = "unknown_dataset"
	CodeUnknownShard   = "unknown_shard"
	CodeStaleEpoch     = "stale_assignment_epoch"
	CodeBadLevel       = "unservable_level"
	CodeUnavailable    = "shards_unavailable"
)

// EncodeCells formats a sub-covering as wire tokens.
func EncodeCells(cells []cellid.ID) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = CellToken(c)
	}
	return out
}

// DecodeCells parses wire tokens into cell ids, enforcing the covering
// contract the accumulator kernel assumes: every id valid, strictly
// ascending (which implies disjoint for a well-formed covering).
func DecodeCells(toks []string) ([]cellid.ID, error) {
	out := make([]cellid.ID, len(toks))
	for i, tok := range toks {
		id, err := ParseCell(tok)
		if err != nil {
			return nil, err
		}
		if i > 0 && id <= out[i-1] {
			return nil, fmt.Errorf("covering not strictly ascending at %q", tok)
		}
		out[i] = id
	}
	return out, nil
}
