package dlsim

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Job statuses reported by the service. A job is terminal once it is
// done, failed, or cancelled.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// TerminalStatus reports whether a job status is final.
func TerminalStatus(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusCancelled
}

// JobRequest is the POST /v1/jobs body: the scenario spec plus the run
// parameters. Zero values select the service's defaults.
type JobRequest struct {
	Spec *Spec `json:"spec"`
	// Scale is a named scale: "tiny", "quick", or "paper".
	Scale string `json:"scale,omitempty"`
	// Seed overrides the scale's base seed (0 keeps the preset).
	Seed int64 `json:"seed,omitempty"`
	// Workers bounds the job's worker goroutines in the service's own
	// process (0 = one per CPU): the arms it executes itself when no
	// worker fleet is connected, the goroutines inside each of them, and
	// its audits. It does not bound how many fleet slots the job keeps
	// busy — the service keeps two arms on offer per live slot. Worker
	// count never affects results, so it is excluded from the dedup key.
	Workers int `json:"workers,omitempty"`
}

// JobStatus describes one submitted job.
type JobStatus struct {
	ID string `json:"id"`
	// Key is the job's dedup key: the content hash of the spec's
	// expanded arms together with the scale fingerprint (seed
	// included, workers excluded). Identical submissions share a key —
	// and, through the service's result cache, a single execution.
	Key    string `json:"key"`
	Status string `json:"status"`
	// Deduped marks a submission that was answered by an existing job
	// with the same key instead of a new execution.
	Deduped bool   `json:"deduped,omitempty"`
	Error   string `json:"error,omitempty"`
	Spec    string `json:"spec"`
	Scale   string `json:"scale"`
	Seed    int64  `json:"seed"`
	Workers int    `json:"workers"`
	// Events counts the round records streamed so far.
	Events      int    `json:"events"`
	SubmittedAt string `json:"submittedAt"`
	StartedAt   string `json:"startedAt,omitempty"`
	FinishedAt  string `json:"finishedAt,omitempty"`
	// Result carries the full per-arm outcome once Status is "done".
	Result *Result `json:"result,omitempty"`
	// WorkerFailures aggregates the per-worker error history of arms
	// that kept failing on the fleet and were contained (executed
	// locally or failed for good) instead of cycling forever.
	WorkerFailures []WorkerFailure `json:"workerFailures,omitempty"`
}

// WorkerFailure is one failed remote execution attempt of an arm,
// attributed to the worker that held its lease.
type WorkerFailure struct {
	Worker string `json:"worker"`
	Arm    string `json:"arm"`
	Reason string `json:"reason"`
}

// APIError is the typed form of a non-2xx service response: the HTTP
// status, the server's error message, and the parsed Retry-After hint
// when the server sent one. Callers distinguish retryable congestion
// (429, 503) from fatal errors with Retryable, or errors.As for the
// details; errors.Is against ErrJobQueueFull and ErrNotFound keeps
// working on top.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error envelope text (may be empty).
	Message string
	// RetryAfter is the server's Retry-After hint, 0 when absent.
	RetryAfter time.Duration
	// Method and Path identify the failed call.
	Method, Path string
}

// Error implements error.
func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("dlsim: %s %s: %s (HTTP %d)", e.Method, e.Path, e.Message, e.Status)
	}
	return fmt.Sprintf("dlsim: %s %s: HTTP %d", e.Method, e.Path, e.Status)
}

// Retryable reports whether the failure is congestion that a backoff
// can outwait (503 queue full or draining; 429, 502 or 504 from a
// gateway in front of the service) rather than a property of the
// request.
func (e *APIError) Retryable() bool {
	switch e.Status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Is maps the typed error onto the package's sentinel errors, so
// errors.Is(err, ErrJobQueueFull) and errors.Is(err, ErrNotFound) hold
// for the statuses those sentinels describe.
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrJobQueueFull:
		return e.Status == http.StatusServiceUnavailable
	case ErrNotFound:
		return e.Status == http.StatusNotFound
	case ErrLeaseExpired:
		return e.Status == http.StatusGone
	case ErrWorkerQuarantined:
		return e.Status == http.StatusForbidden
	}
	return false
}

// RetryPolicy bounds the client's retries: MaxAttempts total tries per
// call with exponential backoff from BaseDelay capped at maxRetryDelay,
// deterministically jittered. The server's Retry-After hint, when
// present and longer, wins over the computed backoff.
type RetryPolicy struct {
	// MaxAttempts is the total tries per call (first included). <= 1
	// disables retries.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff. Default 200ms.
	BaseDelay time.Duration
}

// maxRetryDelay caps the client's backoff.
const maxRetryDelay = 10 * time.Second

// withDefaults resolves unset fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 200 * time.Millisecond
	}
	return p
}

// backoff returns the wait before retry attempt k (k >= 1) with
// deterministic jitter in [50%, 100%] of the exponential step.
func (p RetryPolicy) backoff(k int) time.Duration {
	d := p.BaseDelay << (k - 1)
	if d > maxRetryDelay || d <= 0 {
		d = maxRetryDelay
	}
	z := uint64(k) * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return time.Duration(float64(d) * (0.5 + 0.5*float64(z%1024)/1024))
}

// Client talks to a `dlsim serve` instance over its HTTP/JSON v1 API.
// The zero Client is not usable; build one with NewClient.
type Client struct {
	base  string
	hc    *http.Client
	token string
	retry RetryPolicy

	// next holds, per worker name, the orders the service chained onto
	// that worker's result uploads and ClaimWork has not handed out yet.
	nextMu sync.Mutex
	next   map[string][]*WorkOrder
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying HTTP client (timeouts,
// transports, test doubles). The default client has no timeout: event
// streams are long-lived, so deadlines belong on the per-call context.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithToken attaches a bearer token to every request — required against
// a service started with DLSIM_TOKEN set. An empty token sends none.
func WithToken(token string) ClientOption {
	return func(c *Client) { c.token = token }
}

// WithClientRetry retries failed calls under p: transport errors and
// retryable statuses (429, 502, 503, 504) back off exponentially with
// deterministic jitter, honoring the server's Retry-After hint when it
// is longer. Every v1 call is safe to retry — GET/DELETE by HTTP
// semantics, and Submit because the service dedups identical
// submissions onto one job, so a retried POST whose first try actually
// landed converges onto the same execution. Events additionally
// auto-reconnects dropped streams under the same budget, resuming from
// the replay offset already consumed.
func WithClientRetry(p RetryPolicy) ClientOption {
	return func(c *Client) { c.retry = p.withDefaults() }
}

// NewClient builds a client for a service base URL such as
// "http://127.0.0.1:8080".
func NewClient(baseURL string, opts ...ClientOption) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: &http.Client{}}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// apiError is the service's error envelope.
type apiError struct {
	Error string `json:"error"`
}

// ErrJobQueueFull is returned by Submit when the service's bounded job
// queue cannot accept another submission (or the service is draining);
// retry later or raise the service's -queue depth.
var ErrJobQueueFull = errors.New("dlsim: job queue full")

// ErrNotFound is returned when the service does not know the requested
// job — never created, or already evicted by the service's bounded
// job retention.
var ErrNotFound = errors.New("dlsim: not found")

// newRequest assembles one API request with auth attached.
func (c *Client) newRequest(ctx context.Context, method, path string, raw []byte) (*http.Request, error) {
	var rd io.Reader
	if raw != nil {
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("dlsim: %w", err)
	}
	if raw != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	return req, nil
}

// maxDrain bounds what drainClose reads of a body nobody wants.
const maxDrain = 64 << 10

// drainClose reads what is left of a response body, up to maxDrain,
// and closes it. The transport keeps a connection for the next call
// only once its body was read to the end; a body closed early closes
// the connection, and every call that does not read its body (an
// answer without a value, an error envelope) would open a new one.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, maxDrain))
	_ = body.Close()
}

// errorOf translates a non-2xx response into a typed *APIError.
func errorOf(resp *http.Response, method, path string) *APIError {
	ae := &APIError{Status: resp.StatusCode, Method: method, Path: path}
	var env apiError
	if err := json.NewDecoder(resp.Body).Decode(&env); err == nil {
		ae.Message = env.Error
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

// shouldRetry decides whether err is worth another attempt under the
// client's policy, and how long to wait before it.
func (c *Client) shouldRetry(err error, attempt int, ctx context.Context) (time.Duration, bool) {
	if c.retry.MaxAttempts <= 1 || attempt >= c.retry.MaxAttempts || ctx.Err() != nil {
		return 0, false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		if !ae.Retryable() {
			return 0, false
		}
		wait := c.retry.backoff(attempt)
		if ae.RetryAfter > wait {
			wait = ae.RetryAfter
		}
		return wait, true
	}
	// Anything else at this layer is a transport-level failure
	// (connection refused/reset, unexpected EOF): retryable.
	return c.retry.backoff(attempt), true
}

// sleep waits for d, cancellably.
func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// do issues one JSON request and decodes the response into out (when
// non-nil), translating non-2xx responses into *APIError and retrying
// under the client's retry policy.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var raw []byte
	if body != nil {
		var err error
		raw, err = json.Marshal(body)
		if err != nil {
			return fmt.Errorf("dlsim: encode request: %w", err)
		}
	}
	for attempt := 1; ; attempt++ {
		err := c.doOnce(ctx, method, path, raw, out)
		if err == nil {
			return nil
		}
		wait, retry := c.shouldRetry(err, attempt, ctx)
		if !retry {
			return err
		}
		sleep(ctx, wait)
	}
}

// doOnce is a single request/response cycle.
func (c *Client) doOnce(ctx context.Context, method, path string, raw []byte, out any) error {
	req, err := c.newRequest(ctx, method, path, raw)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("dlsim: %s %s: %w", method, path, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return errorOf(resp, method, path)
	}
	if out == nil || resp.StatusCode == http.StatusNoContent {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("dlsim: decode %s %s response: %w", method, path, err)
	}
	return nil
}

// Submit posts a scenario spec as a job. The spec is validated locally
// first so structural errors surface without a round trip. An
// identical in-flight or completed submission (same dedup key) is
// answered by the existing job with Deduped set.
func (c *Client) Submit(ctx context.Context, req JobRequest) (*JobStatus, error) {
	if req.Spec == nil {
		return nil, fmt.Errorf("dlsim: submit: nil spec")
	}
	if err := req.Spec.Validate(); err != nil {
		return nil, err
	}
	var job JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Job fetches one job's status (including its result once done).
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var job JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// JobPage is one window of the service's job table, newest first.
// Total counts every job the service retains, so offset+len(Jobs) vs
// Total tells a pager whether more windows remain.
type JobPage struct {
	Jobs   []*JobStatus `json:"jobs"`
	Total  int          `json:"total"`
	Offset int          `json:"offset"`
	Limit  int          `json:"limit"`
}

// JobsPage lists one window of the job table, newest first: limit jobs
// (0 = no limit) starting offset jobs from the newest. Use a limit
// against services retaining more jobs than one response should carry.
func (c *Client) JobsPage(ctx context.Context, limit, offset int) (*JobPage, error) {
	if limit < 0 || offset < 0 {
		return nil, fmt.Errorf("dlsim: jobs page: limit and offset must be >= 0, got %d, %d", limit, offset)
	}
	q := url.Values{}
	q.Set("limit", strconv.Itoa(limit))
	q.Set("offset", strconv.Itoa(offset))
	var page JobPage
	if err := c.do(ctx, http.MethodGet, "/v1/jobs?"+q.Encode(), nil, &page); err != nil {
		return nil, err
	}
	return &page, nil
}

// Cancel stops a queued or running job and frees its queue slot. It
// returns the job's post-cancel status; cancelling a terminal job is a
// no-op returning its final state.
func (c *Client) Cancel(ctx context.Context, id string) (*JobStatus, error) {
	var job JobStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// errStreamDropped marks a stream that ended without the job being
// terminal — the retryable failure mode of Events.
type errStreamDropped struct{ err error }

func (e *errStreamDropped) Error() string { return e.err.Error() }
func (e *errStreamDropped) Unwrap() error { return e.err }

// Events streams a job's round records: every event already produced
// is replayed in order, then the stream follows the job live until it
// reaches a terminal status, fn returns an error, or ctx is cancelled.
// fn runs on the calling goroutine.
//
// With WithClientRetry configured, a dropped stream (transport error or
// a connection an intermediary closed while the job was still live)
// reconnects automatically under the retry budget, resuming from the
// replay offset already consumed via the server's ?offset parameter.
// The server's log holds each round of an arm once, so fn sees each
// record once, in round order per arm, across reconnects too.
func (c *Client) Events(ctx context.Context, id string, fn func(Event) error) error {
	offset := 0
	for attempt := 1; ; attempt++ {
		err := c.streamEvents(ctx, id, &offset, fn)
		if err == nil {
			return nil
		}
		var dropped *errStreamDropped
		retryable := errors.As(err, &dropped)
		var ae *APIError
		if errors.As(err, &ae) {
			retryable = ae.Retryable()
		}
		if !retryable {
			return err
		}
		wait, retry := c.shouldRetry(err, attempt, ctx)
		if !retry {
			if dropped != nil {
				return dropped.err
			}
			return err
		}
		sleep(ctx, wait)
	}
}

// streamEvents consumes one events connection from *offset, advancing
// the offset per line, so a resumed stream picks up where this one
// stopped.
func (c *Client) streamEvents(ctx context.Context, id string, offset *int, fn func(Event) error) error {
	path := "/v1/jobs/" + url.PathEscape(id) + "/events"
	if *offset > 0 {
		path += "?offset=" + strconv.Itoa(*offset)
	}
	req, err := c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return &errStreamDropped{fmt.Errorf("dlsim: events: %w", err)}
	}
	if resp.StatusCode != http.StatusOK {
		defer drainClose(resp.Body)
		return errorOf(resp, http.MethodGet, path)
	}
	// A live stream is closed, not drained: its end is the job's.
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		*offset++
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("dlsim: events: bad line %q: %w", line, err)
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return &errStreamDropped{fmt.Errorf("dlsim: events: %w", err)}
	}
	// The server ends the stream only when the job is terminal; a clean
	// EOF on a still-live job means an intermediary dropped the
	// connection, which must not masquerade as completion.
	job, err := c.Job(ctx, id)
	if errors.Is(err, ErrNotFound) {
		// The stream itself existed, so the job did too: it has since
		// been evicted by job retention — only terminal jobs are.
		return nil
	}
	if err != nil {
		return fmt.Errorf("dlsim: events: stream ended, status check failed: %w", err)
	}
	if !TerminalStatus(job.Status) {
		return &errStreamDropped{fmt.Errorf("dlsim: events: stream for job %s ended while the job is still %s (connection dropped?)", id, job.Status)}
	}
	return nil
}

// Await polls a job until it reaches a terminal status, returning its
// final state. poll <= 0 defaults to 200ms.
func (c *Client) Await(ctx context.Context, id string, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		job, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if TerminalStatus(job.Status) {
			return job, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
}

// Catalog fetches the service's scenario catalog.
func (c *Client) Catalog(ctx context.Context) ([]CatalogEntry, error) {
	var out struct {
		Scenarios []CatalogEntry `json:"scenarios"`
		Scales    []string       `json:"scales"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/catalog", nil, &out); err != nil {
		return nil, err
	}
	return out.Scenarios, nil
}

// Version fetches the service build's identity.
func (c *Client) Version(ctx context.Context) (*VersionInfo, error) {
	var v VersionInfo
	if err := c.do(ctx, http.MethodGet, "/v1/version", nil, &v); err != nil {
		return nil, err
	}
	return &v, nil
}

// Health probes /v1/healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil)
}
