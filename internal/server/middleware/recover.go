package middleware

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Recover is the outermost middleware: a panic anywhere below it —
// handler, sibling middleware, logger — is caught, logged with its
// stack, and answered with a 500 error envelope instead of tearing down
// the connection (Go's default re-panic) or worse. If the response has
// already started streaming, nothing more can be sent; the connection
// is simply closed and the panic stays contained to the request
// goroutine.
func Recover(log *slog.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			defer func() {
				if rec := recover(); rec != nil {
					log.Error("panic in request handler",
						"requestID", RequestIDFrom(r.Context()),
						"method", r.Method, "path", r.URL.Path,
						"panic", rec, "stack", string(debug.Stack()))
					if !sw.wrote {
						writeError(sw, http.StatusInternalServerError,
							"internal error (request %s)", RequestIDFrom(r.Context()))
					}
				}
			}()
			next.ServeHTTP(sw, r)
		})
	}
}

// requestIDKey keys the request ID on the context.
type requestIDKey struct{}

// reqSeq numbers requests process-wide; monotonic and deterministic, so
// logs and error envelopes correlate without a randomness source.
var reqSeq atomic.Int64

// RequestID assigns every request a sequential ID, exposes it to
// handlers via the context and to clients via the X-Request-Id header.
func RequestID() Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := fmt.Sprintf("req-%08d", reqSeq.Add(1))
			w.Header().Set("X-Request-Id", id)
			ctx := context.WithValue(r.Context(), requestIDKey{}, id)
			next.ServeHTTP(w, r.WithContext(ctx))
		})
	}
}

// RequestIDFrom returns the request's assigned ID, or "" outside the
// chain.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// Log emits one structured line per request: method, path, status,
// duration, and request ID. It sits inside RequestID and outside Auth,
// so unauthenticated rejections are logged too.
func Log(log *slog.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw, ok := w.(*statusWriter)
			if !ok {
				sw = &statusWriter{ResponseWriter: w}
			}
			start := time.Now()
			next.ServeHTTP(sw, r)
			log.Info("request",
				"requestID", RequestIDFrom(r.Context()),
				"method", r.Method, "path", r.URL.Path,
				"status", sw.status, "durationMS", time.Since(start).Milliseconds())
		})
	}
}
