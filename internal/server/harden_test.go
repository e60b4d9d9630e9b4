package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// hardened is a Server with no job workers, for driving harden alone.
func hardened(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{cfg: cfg, log: cfg.Log}
}

// TestRecoverContainsPanic: a panicking handler produces a 500 error
// envelope naming the request, and the process survives.
func TestRecoverContainsPanic(t *testing.T) {
	h := hardened(Config{}).harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	var env map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || !strings.Contains(env["error"], rr.Header().Get("X-Request-Id")) {
		t.Fatalf("body = %q, want an error envelope naming request %s", rr.Body.String(), rr.Header().Get("X-Request-Id"))
	}
}

// TestRecoverAfterFirstByte: once the response started, a panic must
// not write a second status line.
func TestRecoverAfterFirstByte(t *testing.T) {
	h := hardened(Config{}).harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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

// TestRequestID: the ID lands on the header and in the context, and
// each request gets its own.
func TestRequestID(t *testing.T) {
	var seen string
	h := hardened(Config{}).harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = requestIDFrom(r.Context())
	}))
	var ids []string
	for range 2 {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/", nil))
		if seen == "" || rr.Header().Get("X-Request-Id") != seen {
			t.Fatalf("context ID %q, header %q", seen, rr.Header().Get("X-Request-Id"))
		}
		ids = append(ids, seen)
	}
	if ids[0] == ids[1] {
		t.Fatalf("two requests share ID %s", ids[0])
	}
}

// TestBodyLimit: a body beyond MaxBodyBytes surfaces
// http.MaxBytesError to the reading handler.
func TestBodyLimit(t *testing.T) {
	var readErr error
	h := hardened(Config{MaxBodyBytes: 8}).harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, readErr = io.ReadAll(r.Body)
	}))
	req := httptest.NewRequest("POST", "/", strings.NewReader(strings.Repeat("x", 64)))
	h.ServeHTTP(httptest.NewRecorder(), req)
	var tooBig *http.MaxBytesError
	if !errors.As(readErr, &tooBig) {
		t.Fatalf("read error = %v, want MaxBytesError", readErr)
	}
}

// TestHardenAuth: an open service checks no token; a locked one admits
// the right bearer token and answers everything else 401 with a
// challenge, never reaching the route.
func TestHardenAuth(t *testing.T) {
	for _, tc := range []struct {
		name, token, header string
		want                int
	}{
		{"open", "", "", http.StatusNoContent},
		{"open ignores a header", "", "Bearer wrong", http.StatusNoContent},
		{"right token", "sekrit", "Bearer sekrit", http.StatusNoContent},
		{"wrong token", "sekrit", "Bearer wrong", http.StatusUnauthorized},
		{"missing header", "sekrit", "", http.StatusUnauthorized},
		{"basic header", "sekrit", "Basic sekrit", http.StatusUnauthorized},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reached := 0
			h := hardened(Config{Token: tc.token}).harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				reached++
				w.WriteHeader(http.StatusNoContent)
			}))
			req := httptest.NewRequest("GET", "/v1/healthz", nil)
			if tc.header != "" {
				req.Header.Set("Authorization", tc.header)
			}
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			if rr.Code != tc.want || (reached == 1) != (tc.want == http.StatusNoContent) {
				t.Fatalf("status %d, route reached %d times; want %d", rr.Code, reached, tc.want)
			}
			if tc.want == http.StatusUnauthorized && rr.Header().Get("WWW-Authenticate") == "" {
				t.Fatal("401 without WWW-Authenticate")
			}
		})
	}
}

// TestHardenOrder: the token check sits inside the request ID, the log
// and the body limit. Every answer of a locked service, a rejection
// included, carries an X-Request-Id and leaves one "request" line naming
// that ID and the status; an admitted route reads the same ID from its
// context and its body through the limit.
func TestHardenOrder(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   int
	}{
		{"Bearer sekrit", http.StatusNoContent},
		{"Bearer wrong", http.StatusUnauthorized},
		{"", http.StatusUnauthorized},
	} {
		var logged bytes.Buffer
		var seen string
		var readErr error
		cfg := Config{Token: "sekrit", MaxBodyBytes: 8, Log: slog.New(slog.NewTextHandler(&logged, nil))}
		h := hardened(cfg).harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			seen = requestIDFrom(r.Context())
			_, readErr = io.ReadAll(r.Body)
			w.WriteHeader(http.StatusNoContent)
		}))
		req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(strings.Repeat("x", 64)))
		if tc.header != "" {
			req.Header.Set("Authorization", tc.header)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != tc.want {
			t.Fatalf("%q: status %d, want %d", tc.header, rr.Code, tc.want)
		}
		id := rr.Header().Get("X-Request-Id")
		line := logged.String()
		if id == "" || strings.Count(line, "msg=request") != 1 || !strings.Contains(line, "requestID="+id) ||
			!strings.Contains(line, fmt.Sprintf("status=%d", tc.want)) {
			t.Fatalf("%q: answer with X-Request-Id %q logged:\n%s", tc.header, id, line)
		}
		if tc.want == http.StatusNoContent {
			var tooBig *http.MaxBytesError
			if seen != id || !errors.As(readErr, &tooBig) {
				t.Fatalf("admitted route saw ID %q (header %q), read error %v", seen, id, readErr)
			}
		} else if seen != "" {
			t.Fatalf("%q: rejected request reached the route", tc.header)
		}
	}
}
