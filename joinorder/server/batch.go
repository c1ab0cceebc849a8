package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"milpjoin/joinorder/cluster"
)

// maxBatchItems bounds one batch request; larger workloads should be
// split client-side so no single batch monopolizes the worker pool.
const maxBatchItems = 256

// BatchRequest is the JSON body of POST /v1/optimize/batch: many
// optimize requests answered as one JSON document. The endpoint is
// JSON-only — streaming belongs to /v1/optimize/stream, one query per
// connection.
type BatchRequest struct {
	// Queries are the individual optimize requests, answered in order.
	Queries []OptimizeRequest `json:"queries"`
	// Tenant names the rate-limiting bucket for items that name none
	// themselves; the X-Tenant header wins over both.
	Tenant string `json:"tenant,omitempty"`
}

// BatchItem is one query's outcome inside a BatchResponse: exactly one
// of Response and Error is set. Items fail independently — one malformed
// or rate-limited query never poisons its neighbors.
type BatchItem struct {
	// Index is the item's position in the request's queries array.
	Index int `json:"index"`
	// Response is the successful outcome, identical to a single
	// /v1/optimize answer.
	Response *OptimizeResponse `json:"response,omitempty"`
	// Error is the per-query error envelope payload, with the same
	// stable codes as top-level errors.
	Error *ErrorDetail `json:"error,omitempty"`
}

// BatchResponse is the JSON body answering a batch: one item per query,
// in request order.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// decodeBatch reads and validates the batch document as a whole; the
// queries inside are gated one by one afterwards.
func decodeBatch(w http.ResponseWriter, r *http.Request) (*BatchRequest, error) {
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		return nil, fmt.Errorf("the batch endpoint is JSON-only; for streaming answers use /v1/optimize/stream, one query per connection")
	}
	var breq BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&breq); err != nil {
		return nil, fmt.Errorf("parsing batch: %v", err)
	}
	if len(breq.Queries) == 0 {
		return nil, fmt.Errorf("batch carries no queries")
	}
	if len(breq.Queries) > maxBatchItems {
		return nil, fmt.Errorf("batch carries %d queries, limit %d; split it client-side", len(breq.Queries), maxBatchItems)
	}
	return &breq, nil
}

// handleBatch is POST /v1/optimize/batch: the batch front end of the
// request pipeline. Every item passes the same gate as a single request
// and fails independently; items another node owns travel there as one
// sub-batch per peer (failing open to local on peer errors); the rest
// are answered by plain serve calls, each with its own admission ticket,
// deadline and queue time. At most MaxWorkers of them are in flight at
// once, so a lone batch on an idle server never saturates the queue and
// sheds itself. The answer is always one JSON document with a per-query
// envelope; asking for a stream is a structured bad_request.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.ctr.batches.Add(1)
	if rt := s.cfg.Cluster; rt != nil {
		w.Header().Set(NodeHeader, rt.Self().ID)
	}
	if s.draining.Load() {
		s.ctr.drainReject.Add(1)
		writeError(w, errDraining())
		return
	}
	breq, err := decodeBatch(w, r)
	if err != nil {
		s.ctr.badRequest.Add(1)
		writeError(w, errBadRequest(err.Error()))
		return
	}
	n := len(breq.Queries)
	s.ctr.batchItems.Add(int64(n))
	s.ctr.requests.Add(int64(n))

	// Sub-batch forwarding happens outside serve; keep Drain waiting.
	s.inflight.Add(1)
	defer s.inflight.Done()

	forwarded := r.Header.Get(cluster.ForwardHeader) != ""
	results := make([]BatchItem, n)
	prs := make([]*prepared, n) // nil: resolved by the gate
	for i := range breq.Queries {
		req := &breq.Queries[i]
		tenant := req.tenant(r)
		if tenant == "" {
			tenant = breq.Tenant
		}
		pr, herr := s.gate(req, nil, tenant, forwarded)
		prs[i], results[i] = pr, BatchItem{Index: i, Error: herr.detail()}
	}
	s.forwardSubBatches(r.Context(), prs, results)

	slots := make(chan struct{}, s.cfg.MaxWorkers)
	var wg sync.WaitGroup
	for i, pr := range prs {
		if pr == nil || results[i].Response != nil || results[i].Error != nil {
			continue
		}
		slots <- struct{}{}
		wg.Add(1)
		go func(res *BatchItem, pr *prepared) {
			defer wg.Done()
			resp, herr := s.serve(r.Context(), pr, nil)
			res.Response, res.Error = resp, herr.detail()
			<-slots
		}(&results[i], pr)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}

// forwardSubBatches groups gated items by owning peer and ships each
// remote group as one sub-batch. Items whose forward fails (or whose
// sub-answer is malformed) stay unresolved and are served locally — the
// same fail-open rule as single-request forwarding.
func (s *Server) forwardSubBatches(ctx context.Context, prs []*prepared, results []BatchItem) {
	groups := map[cluster.Peer][]int{} // owner → item indices
	for i, pr := range prs {
		if pr == nil {
			continue
		}
		if owner, remote := s.remoteOwner(pr); remote {
			groups[owner] = append(groups[owner], i)
		}
	}
	var wg sync.WaitGroup
	for peer, group := range groups {
		wg.Add(1)
		go func(peer cluster.Peer, group []int) {
			defer wg.Done()
			s.forwardOneSubBatch(ctx, peer, group, prs, results)
		}(peer, group)
	}
	wg.Wait()
}

func (s *Server) forwardOneSubBatch(ctx context.Context, peer cluster.Peer, group []int, prs []*prepared, results []BatchItem) {
	sub := BatchRequest{Queries: make([]OptimizeRequest, len(group))}
	for j, i := range group {
		sub.Queries[j] = *prs[i].req
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return // items stay unresolved; local serve picks them up
	}
	hdr := http.Header{}
	hdr.Set("Content-Type", "application/json")
	resp, err := s.cfg.Cluster.Forward(ctx, peer, "/v1/optimize/batch", hdr, body)
	if err != nil {
		s.log.Warn("cluster sub-batch forward failed; solving locally",
			"peer", peer.ID, "items", len(group), "err", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var bresp BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&bresp); err != nil || len(bresp.Results) != len(group) {
		return
	}
	for j, res := range bresp.Results {
		results[group[j]].Response, results[group[j]].Error = res.Response, res.Error
	}
}
