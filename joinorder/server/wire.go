package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"milpjoin/internal/sql"
	"milpjoin/joinorder"
)

// maxRequestBytes bounds a request body; a catalog plus query for even a
// thousand-table join fits comfortably.
const maxRequestBytes = 8 << 20

// OptimizeRequest is the JSON body of POST /v1/optimize and
// /v1/optimize/stream. The query arrives either pre-modeled ("query", the
// joinorder.Query JSON the CLI's -query flag reads) or as SQL text plus a
// catalog of table statistics ("sql" + "catalog", the -sql/-catalog
// formats). The remaining knobs mirror the CLI flags and map onto
// joinorder.Options.
type OptimizeRequest struct {
	// Query is the pre-modeled form: tables with cardinalities and
	// predicates with selectivities.
	Query *joinorder.Query `json:"query,omitempty"`
	// SQL is a select-project-join statement; requires Catalog.
	SQL string `json:"sql,omitempty"`
	// Catalog maps table names to statistics for SQL translation.
	Catalog map[string]sql.TableStats `json:"catalog,omitempty"`

	// Strategy names the optimizer to run (default "milp"). "auto" races
	// a portfolio of strategies over a shared incumbent bus and answers
	// with the winner.
	Strategy string `json:"strategy,omitempty"`
	// Portfolio overrides the member list raced by strategy "auto";
	// invalid with any other strategy. Empty means the default portfolio.
	Portfolio []string `json:"portfolio,omitempty"`
	// Metric is the cost model: cout, hash, smj, bnl, or choose
	// (default hash).
	Metric string `json:"metric,omitempty"`
	// Precision is the MILP cardinality approximation: high, medium, or
	// low (default medium).
	Precision string `json:"precision,omitempty"`
	// Budget bundles the run's resource limits as one object. Each
	// non-zero field wins over the corresponding flat request field
	// (timeout, gap_tol, threads) — the same precedence rule as
	// joinorder.Options.Budget over its deprecated flat aliases.
	Budget *BudgetRequest `json:"budget,omitempty"`
	// Timeout is the solve budget as a Go duration string ("500ms",
	// "5s"); defaulted and capped by the server config.
	//
	// Deprecated: set budget.timeout. When both are set, budget wins.
	Timeout string `json:"timeout,omitempty"`
	// GapTol is the relative optimality gap at which to stop (default
	// 1e-6).
	//
	// Deprecated: set budget.gap_tol. When both are set, budget wins.
	GapTol float64 `json:"gap_tol,omitempty"`
	// Threads is the solver's parallel worker count (default 1).
	//
	// Deprecated: set budget.threads. When both are set, budget wins.
	Threads int `json:"threads,omitempty"`
	// Seed drives randomized strategies.
	Seed int64 `json:"seed,omitempty"`

	// PartitionCap bounds partition sizes for the hybrid strategy
	// (default 15; above 24 taken as 24).
	PartitionCap int `json:"partition_cap,omitempty"`
	// SeamBudgetFrac is the hybrid strategy's budget share reserved for
	// seam re-optimization, in [0, 1) (default 0.25).
	SeamBudgetFrac float64 `json:"seam_budget_frac,omitempty"`

	// Tenant names the rate-limiting bucket; the X-Tenant header wins
	// when both are set.
	Tenant string `json:"tenant,omitempty"`
	// AllowDegraded permits a fallback-strategy answer when the server
	// is saturated (default true). Requests that must have the asked-for
	// strategy set it to false and accept 429s instead.
	AllowDegraded *bool `json:"allow_degraded,omitempty"`
}

// BudgetRequest is the wire form of joinorder.Budget: the run's resource
// limits as one object. Zero fields fall back to the flat request fields,
// then to the server defaults.
type BudgetRequest struct {
	// Timeout is the solve budget as a Go duration string ("500ms", "5s").
	Timeout string `json:"timeout,omitempty"`
	// GapTol is the relative optimality gap at which to stop.
	GapTol float64 `json:"gap_tol,omitempty"`
	// MaxNodes bounds explored branch-and-bound nodes.
	MaxNodes int `json:"max_nodes,omitempty"`
	// Threads is the solver's parallel worker count.
	Threads int `json:"threads,omitempty"`
}

// allowDegraded resolves the tri-state flag (default true).
func (r *OptimizeRequest) allowDegraded() bool {
	return r.AllowDegraded == nil || *r.AllowDegraded
}

// query materializes the request's query, validating exactly one source
// was provided.
func (r *OptimizeRequest) query() (*joinorder.Query, error) {
	switch {
	case r.Query != nil && r.SQL != "":
		return nil, fmt.Errorf("request carries both query and sql; send one")
	case r.Query != nil:
		return r.Query, r.Query.Validate()
	case r.SQL != "":
		if len(r.Catalog) == 0 {
			return nil, fmt.Errorf("sql requires a catalog")
		}
		stmt, err := sql.Parse(r.SQL)
		if err != nil {
			return nil, err
		}
		cat := sql.NewCatalog()
		cat.Tables = r.Catalog
		q, _, err := cat.Translate(stmt)
		return q, err
	default:
		return nil, fmt.Errorf("request carries neither query nor sql")
	}
}

// options maps the request knobs onto joinorder.Options, applying the
// server's default and maximum budgets. The cost-model names go through
// joinorder.CostModel, as the CLI's flags do, so a request body and a
// joinopt invocation describe the same solve.
func (r *OptimizeRequest) options(cfg Config) (joinorder.Options, error) {
	opts, err := joinorder.CostModel(r.Precision, r.Metric)
	if err != nil {
		return opts, err
	}
	opts.Strategy = r.Strategy
	opts.Portfolio = r.Portfolio
	opts.Budget = joinorder.Budget{GapTol: r.GapTol, Threads: r.Threads}
	opts.Seed = r.Seed
	opts.PartitionCap = r.PartitionCap
	opts.SeamBudgetFrac = r.SeamBudgetFrac
	// The budget object wins over the flat aliases field-by-field.
	timeout := r.Timeout
	if r.Budget != nil {
		if r.Budget.Timeout != "" {
			timeout = r.Budget.Timeout
		}
		if r.Budget.GapTol != 0 {
			opts.Budget.GapTol = r.Budget.GapTol
		}
		if r.Budget.MaxNodes != 0 {
			opts.Budget.MaxNodes = r.Budget.MaxNodes
		}
		if r.Budget.Threads != 0 {
			opts.Budget.Threads = r.Budget.Threads
		}
	}
	opts.Budget.TimeLimit = cfg.DefaultTimeLimit
	if timeout != "" {
		d, err := time.ParseDuration(timeout)
		if err != nil {
			return opts, fmt.Errorf("bad timeout: %v", err)
		}
		if d <= 0 {
			return opts, fmt.Errorf("timeout %v must be positive", d)
		}
		opts.Budget.TimeLimit = d
	}
	if cfg.MaxTimeLimit > 0 && opts.Budget.TimeLimit > cfg.MaxTimeLimit {
		opts.Budget.TimeLimit = cfg.MaxTimeLimit
	}
	return opts, opts.Validate()
}

// bodyBufs recycles request body buffers between requests. Buffers above
// maxMemoBody are left to the collector, so a rare large request does not
// pin its size in the pool.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// readBody reads one optimize request body. When the client sent a
// Content-Length that a pooled buffer may hold, the bytes live in one, and
// the second result is what the front end hands back (prepared.releaseBody)
// once nothing reads them any more; otherwise it is nil. A request that
// fails before a front end owns it leaves its buffer to the collector.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, *[]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	var data []byte
	var buf *[]byte
	var err error
	if n := r.ContentLength; n >= 0 && n <= maxRequestBytes {
		if n <= maxMemoBody {
			buf = bodyBufs.Get().(*[]byte)
			if int64(cap(*buf)) < n {
				*buf = make([]byte, n)
			}
			data = (*buf)[:n]
		} else {
			data = make([]byte, n)
		}
		// net/http ends the body at Content-Length, so this reads all of it.
		_, err = io.ReadFull(body, data)
	} else {
		data, err = io.ReadAll(body)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("reading request: %v", err)
	}
	return data, buf, nil
}

// tenant resolves the rate-limiting bucket name: header, then body field,
// then the shared anonymous bucket.
func (r *OptimizeRequest) tenant(hr *http.Request) string {
	if t := hr.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return r.Tenant
}

// OptimizeResponse is the JSON body of a successful POST /v1/optimize,
// and the payload of the final "result" SSE event on the stream endpoint.
type OptimizeResponse struct {
	// Result is the optimization outcome: plan, cost, proven bound, gap,
	// status, and (for the MILP strategy) per-phase solver stats.
	Result *joinorder.Result `json:"result"`
	// Degraded marks an answer served by the fallback strategy — under a
	// saturated queue or a budget below the cache's degrade threshold —
	// while a background refine warms the cache for a retry.
	Degraded bool `json:"degraded,omitempty"`
	// CacheHit marks an answer served from the plan cache without a solve.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Coalesced marks a request that shared an identical in-flight solve.
	Coalesced bool `json:"coalesced,omitempty"`
	// QueueMillis is time spent in the admission queue.
	QueueMillis float64 `json:"queue_ms"`
	// TotalMillis is time from arrival to response.
	TotalMillis float64 `json:"total_ms"`

	// kept, when non-nil, is this response already rendered but for its
	// three numbers (see runSolve and render.go).
	kept *keptResponse
}

// Error codes carried by the ErrorEnvelope of every non-2xx /v1 answer.
// They partition the error space by what the client should do next:
// retry later (draining, rate_limited, saturated, timeout), fix the
// request (bad_request, infeasible), or give up (internal). client_closed
// is only ever observed by in-process handler tests — the connection that
// would carry it is gone.
const (
	CodeDraining     = "draining"
	CodeBadRequest   = "bad_request"
	CodeRateLimited  = "rate_limited"
	CodeSaturated    = "saturated"
	CodeTimeout      = "timeout"
	CodeClientClosed = "client_closed"
	CodeInfeasible   = "infeasible"
	CodeInternal     = "internal"
)

// ErrorDetail is the payload of an ErrorEnvelope: a stable machine code,
// a human message, and — for retryable codes — how long to back off.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMillis mirrors the Retry-After header for retryable
	// errors; zero means no backoff hint.
	RetryAfterMillis int64 `json:"retry_after_ms,omitempty"`
}

// ErrorEnvelope is the JSON body of every non-2xx /v1 answer:
//
//	{"error": {"code": "rate_limited", "message": "...", "retry_after_ms": 1000}}
type ErrorEnvelope struct {
	Err ErrorDetail `json:"error"`
}

// Error makes the envelope usable as a Go error by clients.
func (e *ErrorEnvelope) Error() string { return e.Err.Code + ": " + e.Err.Message }

// jsonBufs recycles response encoding buffers between requests.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON answers with v as one compact JSON document, encoded in full
// before the status line goes out so the response carries Content-Length
// and costs one write.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	writeBuffered(w, status, buf, json.NewEncoder(buf).Encode(v))
}

// writeResponse is writeJSON for a 200 OptimizeResponse, the one body on
// the hit path: the response appends itself to the pooled buffer — the
// bytes Encode would write, newline included, without Encode's reflective
// pass and its re-scan of what MarshalJSON returned.
func writeResponse(w http.ResponseWriter, resp *OptimizeResponse) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	doc, err := resp.appendJSON(buf.AvailableBuffer())
	buf.Write(doc) // in place while doc fits the buffer; grows the pooled buffer when not
	buf.WriteByte('\n')
	writeBuffered(w, http.StatusOK, buf, err)
}

// writeBuffered sends an encoded body, or the 500 its encoding error maps to.
func writeBuffered(w http.ResponseWriter, status int, buf *bytes.Buffer, err error) {
	if err != nil {
		// The envelope is strings and an integer, so this cannot recurse.
		writeError(w, &httpError{status: http.StatusInternalServerError, code: CodeInternal, msg: "encoding response: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes()) //nolint:errcheck // client gone; nothing to do
}

// httpError is a terminal non-2xx outcome of the request pipeline. code
// is the stable machine-readable error code of the ErrorDetail every
// front end reports it as.
type httpError struct {
	status     int
	code       string
	msg        string
	retryAfter time.Duration
}

func errBadRequest(msg string) *httpError {
	return &httpError{status: http.StatusBadRequest, code: CodeBadRequest, msg: msg}
}

func errDraining() *httpError {
	return &httpError{status: http.StatusServiceUnavailable, code: CodeDraining, msg: "server is draining", retryAfter: time.Second}
}

// detail is the one mapping from a pipeline error to its wire payload,
// shared by the unary envelope, the SSE "error" event and batch items.
// A nil error maps to nil.
func (e *httpError) detail() *ErrorDetail {
	if e == nil {
		return nil
	}
	return &ErrorDetail{Code: e.code, Message: e.msg, RetryAfterMillis: e.retryAfter.Milliseconds()}
}

// writeError answers with e's status and envelope; retryable errors
// mirror their backoff hint in the Retry-After header.
func writeError(w http.ResponseWriter, e *httpError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", retryAfterSeconds(e.retryAfter))
	}
	writeJSON(w, e.status, ErrorEnvelope{Err: *e.detail()})
}
