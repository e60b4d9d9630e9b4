// Package middleware is the request-hardening layer of the dlsim job
// service: small, composable http.Handler interceptors assembled into
// one chain wrapped around every /v1 endpoint. The canonical order is
//
//	Recover → RequestID → Log → BodyLimit → Auth
//
// outermost first: panic recovery must observe everything (including a
// panicking logger), identity must exist before logging, and logging
// sits outside Auth so rejected requests are logged too. Each
// middleware is independent and testable on its own; the service
// composes them with Chain.
package middleware

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
)

// Middleware wraps an http.Handler with one concern.
type Middleware func(http.Handler) http.Handler

// Chain composes middlewares into one. Chain(a, b, c) applies a
// outermost: the request traverses a, then b, then c, then the handler.
func Chain(mws ...Middleware) Middleware {
	return func(next http.Handler) http.Handler {
		for i := len(mws) - 1; i >= 0; i-- {
			next = mws[i](next)
		}
		return next
	}
}

// writeError emits the service's JSON error envelope. It is shared by
// every middleware so interceptor rejections are indistinguishable in
// shape from handler rejections.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// statusWriter records the status code and first-byte fact of a
// response while passing Flush through — event streams must keep
// flushing NDJSON lines through the wrapped writer.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wrote {
		sw.status = code
		sw.wrote = true
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if !sw.wrote {
		sw.status = http.StatusOK
		sw.wrote = true
	}
	return sw.ResponseWriter.Write(b)
}

// Flush implements http.Flusher when the underlying writer does.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// BodyLimit bounds every request body to n bytes using the standard
// MaxBytesReader, so an oversized submission fails with a decode error
// the handler maps to 413 instead of buffering without limit.
func BodyLimit(n int64) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Body != nil && n > 0 {
				r.Body = http.MaxBytesReader(w, r.Body, n)
			}
			next.ServeHTTP(w, r)
		})
	}
}

// RetryAfter sets h's Retry-After header to wait in the integral
// seconds the header requires, rounding up so "retry after 0s" never
// invites an immediate re-spin. Every 503 carries one.
func RetryAfter(h http.Header, wait time.Duration) {
	h.Set("Retry-After", strconv.FormatInt(max(1, int64(math.Ceil(wait.Seconds()))), 10))
}
