package middleware

import (
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// discard is a quiet structured logger for the chain under test.
var discard = slog.New(slog.NewTextHandler(io.Discard, nil))

// TestChainOrder: Chain(a, b) runs a outermost.
func TestChainOrder(t *testing.T) {
	var trace []string
	mark := func(name string) Middleware {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				trace = append(trace, name)
				next.ServeHTTP(w, r)
			})
		}
	}
	h := Chain(mark("outer"), mark("inner"))(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace = append(trace, "handler")
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	if got := strings.Join(trace, ","); got != "outer,inner,handler" {
		t.Fatalf("traversal = %s", got)
	}
}

// TestRecoverContainsPanic: a panicking handler produces a 500 error
// envelope and the process survives.
func TestRecoverContainsPanic(t *testing.T) {
	h := Chain(Recover(discard), RequestID())(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	var env map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || env["error"] == "" {
		t.Fatalf("body = %q, want error envelope", rr.Body.String())
	}
}

// TestRecoverAfterFirstByte: once the response started, Recover must
// not write a second status line.
func TestRecoverAfterFirstByte(t *testing.T) {
	h := Recover(discard)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("partial"))
		panic("mid-stream")
	}))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/", nil))
	if rr.Code != http.StatusOK || rr.Body.String() != "partial" {
		t.Fatalf("post-panic response mutated: %d %q", rr.Code, rr.Body.String())
	}
}

// TestRequestID: the ID lands on the header and in the context.
func TestRequestID(t *testing.T) {
	var seen string
	h := RequestID()(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestIDFrom(r.Context())
	}))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/", nil))
	if seen == "" || rr.Header().Get("X-Request-Id") != seen {
		t.Fatalf("context ID %q, header %q", seen, rr.Header().Get("X-Request-Id"))
	}
}

// reached records whether the chain let a request through.
type reached struct{ n int }

func (h *reached) ServeHTTP(http.ResponseWriter, *http.Request) { h.n++ }

// TestAuth: an open service is the handler itself; a locked one admits
// the right bearer token and answers everything else 401 with a
// challenge, never reaching the handler.
func TestAuth(t *testing.T) {
	open := &reached{}
	if Auth("")(open) != http.Handler(open) {
		t.Fatal("Auth(\"\") wrapped the handler; an open service must get next unchanged")
	}
	for _, tc := range []struct {
		name, token, header string
		want                int
	}{
		{"open", "", "", http.StatusOK},
		{"right token", "sekrit", "Bearer sekrit", http.StatusOK},
		{"wrong token", "sekrit", "Bearer wrong", http.StatusUnauthorized},
		{"missing header", "sekrit", "", http.StatusUnauthorized},
		{"basic header", "sekrit", "Basic sekrit", http.StatusUnauthorized},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := &reached{}
			req := httptest.NewRequest("GET", "/", nil)
			if tc.header != "" {
				req.Header.Set("Authorization", tc.header)
			}
			rr := httptest.NewRecorder()
			Auth(tc.token)(h).ServeHTTP(rr, req)
			if rr.Code != tc.want || (h.n == 1) != (tc.want == http.StatusOK) {
				t.Fatalf("status %d, handler reached %d times; want %d", rr.Code, h.n, tc.want)
			}
			if tc.want == http.StatusUnauthorized && rr.Header().Get("WWW-Authenticate") == "" {
				t.Fatal("401 without WWW-Authenticate")
			}
		})
	}
}

// TestBodyLimit: a body beyond the bound surfaces http.MaxBytesError
// to the reading handler.
func TestBodyLimit(t *testing.T) {
	var readErr error
	h := BodyLimit(8)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, readErr = io.ReadAll(r.Body)
	}))
	req := httptest.NewRequest("POST", "/", strings.NewReader(strings.Repeat("x", 64)))
	h.ServeHTTP(httptest.NewRecorder(), req)
	var tooBig *http.MaxBytesError
	if !errors.As(readErr, &tooBig) {
		t.Fatalf("read error = %v, want MaxBytesError", readErr)
	}
}
