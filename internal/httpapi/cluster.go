package httpapi

import (
	"encoding/json"
	"errors"
	"net/http"

	"geoblocks"
	"geoblocks/internal/cluster"
	"geoblocks/internal/store"
)

// This file is the serving half of cluster mode: the internal
// partial-query endpoint peers answer (POST /internal/v1/partial). A
// coordinator serves /v1/query and /v1/join through the same handlers
// as a single node. Validation on the partial endpoint is strict and
// typed — a peer that cannot answer exactly what was asked must say so
// in a machine-readable way, because the coordinator's merge
// correctness depends on every shard answering its precise sub-covering
// at the planned level under the agreed assignment epoch.

// handlePartial answers a peer partial request: one serialized
// accumulator per entry, in request order. A shard may repeat, once per
// region the coordinator routed there; Dataset.ShardPartials answers
// every entry through the same per-shard tasks as a local join (one pin
// per shard: pyramid level block, then the ingest delta, in fixed
// order).
func (s *server) handlePartial(w http.ResponseWriter, r *http.Request) {
	s.reqPartial.Add(1)
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req cluster.PartialRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeTypedError(w, http.StatusBadRequest, cluster.CodeBadRequest, nil, "malformed request body: %v", err)
		return
	}
	if req.CodecVersion != cluster.CodecVersion {
		writeTypedError(w, http.StatusBadRequest, cluster.CodeCodecMismatch, nil,
			"partial codec version %d (this node speaks %d)", req.CodecVersion, cluster.CodecVersion)
		return
	}
	if req.Dataset == "" {
		writeTypedError(w, http.StatusBadRequest, cluster.CodeBadRequest, nil, "missing dataset")
		return
	}
	d, ok := s.store.Get(req.Dataset)
	if !ok {
		writeTypedError(w, http.StatusNotFound, cluster.CodeUnknownDataset, nil, "unknown dataset %q", req.Dataset)
		return
	}
	// Epoch agreement: a request planned under a different assignment
	// generation may scatter shards differently than this node expects;
	// refuse it so a half-rolled-out assignment change fails loudly.
	if epoch := s.cfg.Cluster.Epoch(); req.Epoch != epoch {
		writeTypedError(w, http.StatusConflict, cluster.CodeStaleEpoch, nil,
			"request assignment epoch %d, this node serves epoch %d", req.Epoch, epoch)
		return
	}
	if len(req.Aggs) == 0 {
		writeTypedError(w, http.StatusBadRequest, cluster.CodeBadRequest, nil, "missing aggs")
		return
	}
	reqs := make([]geoblocks.AggRequest, len(req.Aggs))
	for i, a := range req.Aggs {
		ar, err := a.ToRequest()
		if err != nil {
			writeTypedError(w, http.StatusBadRequest, cluster.CodeBadRequest, nil, "aggs[%d]: %v", i, err)
			return
		}
		reqs[i] = ar
	}
	if !d.ServesLevel(req.Level) {
		writeTypedError(w, http.StatusUnprocessableEntity, cluster.CodeBadLevel, nil,
			"dataset %q serves no grid level %d", req.Dataset, req.Level)
		return
	}
	if len(req.Shards) == 0 {
		writeTypedError(w, http.StatusBadRequest, cluster.CodeBadRequest, nil, "missing shards")
		return
	}
	subs := make([]store.ShardSub, len(req.Shards))
	for i, sh := range req.Shards {
		cell, err := cluster.ParseCell(sh.Cell)
		if err != nil {
			writeTypedError(w, http.StatusBadRequest, cluster.CodeBadRequest, nil, "shards[%d]: %v", i, err)
			return
		}
		if !d.HasShard(cell) {
			writeTypedError(w, http.StatusUnprocessableEntity, cluster.CodeUnknownShard, []string{sh.Cell},
				"dataset %q has no shard %s", req.Dataset, sh.Cell)
			return
		}
		sub, err := cluster.DecodeCells(sh.Cover)
		if err != nil {
			writeTypedError(w, http.StatusBadRequest, cluster.CodeBadRequest, nil, "shards[%d] cover: %v", i, err)
			return
		}
		// The accumulator kernel assumes no covering cell finer than the
		// executing grid level.
		for _, c := range sub {
			if c.Level() > req.Level {
				writeTypedError(w, http.StatusBadRequest, cluster.CodeBadRequest, nil,
					"shards[%d] cover cell %s is finer than level %d", i, cluster.CellToken(c), req.Level)
				return
			}
		}
		subs[i] = store.ShardSub{Cell: cell, Sub: sub}
	}

	accs, err := d.ShardPartials(subs, req.Level, geoblocks.QueryOptions{DisableCache: req.NoCache}, reqs)
	if err != nil {
		if errors.Is(err, geoblocks.ErrUnknownColumn) {
			writeTypedError(w, http.StatusBadRequest, cluster.CodeBadRequest, nil, "partial: %v", err)
		} else {
			writeError(w, http.StatusInternalServerError, "partial: %v", err)
		}
		return
	}
	resp := cluster.PartialResponse{
		Dataset: req.Dataset,
		Epoch:   req.Epoch,
		Level:   req.Level,
		Shards:  make([]cluster.ShardPartialResp, len(accs)),
	}
	for i, acc := range accs {
		resp.Shards[i] = cluster.ShardPartialResp{Cell: req.Shards[i].Cell, Partial: acc.EncodePartial()}
	}
	writeJSON(w, http.StatusOK, resp)
}
