package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gossipmia/pkg/dlsim"
)

// fuzzBodyLimit is the body limit FuzzWorkBodies and FuzzSubmitBody
// decode under, small enough that a seed can run into it.
const fuzzBodyLimit = 4 << 10

// FuzzWorkBodies feeds one byte string to the three decoders of the
// worker protocol — the server's decodeBody as a claim request and as a
// work result, and the SDK client's as the receipt of a result upload —
// and holds each to its contract: no panic; decodeBody either accepts and
// writes nothing, or answers 400 (413 past the body limit) itself; what
// it accepts survives a re-encode; and a receipt's `next` order is what
// the named worker's next ClaimWork returns, without a request.
func FuzzWorkBodies(f *testing.F) {
	order := dlsim.WorkOrder{
		Lease: "L00000002-92cb89e5", Job: "job-000001", Spec: "service e2e", Label: "b", Index: 1,
		Key:   strings.Repeat("9", 64),
		Arm:   dlsim.Arm{Label: "b", Corpus: "cifar10", Protocol: "base", ViewSize: 2, SeedOffset: 2},
		Scale: "tiny", Seed: 1, LeaseSeconds: 15, Worker: "w1", Chained: true,
	}
	arm := &dlsim.ArmResult{
		Label:        "a",
		Records:      []dlsim.RoundRecord{{Round: 1, TestAcc: 0.25, MIAAcc: 0.5, TPRAt1FPR: 0.01, GenError: 0.125}},
		MessagesSent: 24, BytesSent: 4096,
	}
	for _, shape := range []any{
		dlsim.ClaimRequest{Worker: "w1", WaitSeconds: 15},
		dlsim.WorkResult{Arm: arm, Sum: arm.Checksum(), ElapsedSeconds: 0.002},
		dlsim.WorkResult{Error: "arm failed"},
		dlsim.WorkReceipt{Stale: true},
		dlsim.WorkReceipt{Next: &order},
	} {
		raw, err := json.Marshal(shape)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2]) // cut off mid-value
	}
	f.Add([]byte(`{"worker":"w1","bogus":1}`))                               // an unknown field
	f.Add([]byte(`{"worker":"` + strings.Repeat("w", fuzzBodyLimit) + `"}`)) // over the limit
	f.Add([]byte(`{"next":{"worker":"","lease":"L1"}}`))                     // an order for nobody
	f.Add([]byte(`null`))
	f.Add([]byte(``))

	// One loopback service answers every upload with the input under test.
	var mu sync.Mutex
	var body []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/result") || r.URL.Query().Get("next") != "1" {
			http.Error(w, "only asking result uploads are expected", http.StatusTeapot)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	f.Cleanup(ts.Close)

	f.Fuzz(func(t *testing.T, raw []byte) {
		decode := func(v any) bool {
			t.Helper()
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/work/claim", strings.NewReader(string(raw)))
			req.Body = http.MaxBytesReader(rec, req.Body, fuzzBodyLimit)
			ok := decodeBody(rec, req, v, "fuzzed body")
			switch {
			case ok && rec.Body.Len() != 0:
				t.Fatalf("decodeBody accepted %q and still wrote %q", raw, rec.Body)
			case !ok && rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge:
				t.Fatalf("decodeBody refused %q with status %d", raw, rec.Code)
			case !ok && len(raw) <= fuzzBodyLimit && rec.Code != http.StatusBadRequest:
				t.Fatalf("decodeBody refused %d bytes, under the limit, with status %d", len(raw), rec.Code)
			}
			return ok
		}
		reencoded := func(v, back any) {
			t.Helper()
			again, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("accepted body %q does not re-encode: %v", raw, err)
			}
			if err := json.Unmarshal(again, back); err != nil || !reflect.DeepEqual(v, back) {
				t.Fatalf("accepted body %q changed across a re-encode: %s (%v)", raw, again, err)
			}
		}
		var claim dlsim.ClaimRequest
		if decode(&claim) {
			reencoded(&claim, new(dlsim.ClaimRequest))
		}
		var res dlsim.WorkResult
		if decode(&res) {
			reencoded(&res, new(dlsim.WorkResult))
			if res.Arm != nil && len(res.Arm.Checksum()) != 64 {
				t.Fatalf("checksum of accepted arm %+v is not a sha256", res.Arm)
			}
		}

		mu.Lock()
		body = raw
		mu.Unlock()
		client := dlsim.NewClient(ts.URL)
		receipt, err := client.CompleteWork(t.Context(), "L1", dlsim.WorkResult{Error: "x"})
		if err != nil {
			return // not a receipt; the worker sees the upload fail and the lease lapses
		}
		if next := receipt.Next; next != nil && next.Worker != "" {
			// Served from what the client kept: the loopback service
			// answers a claim with 418.
			got, err := client.ClaimWork(t.Context(), next.Worker, 0)
			if err != nil || !reflect.DeepEqual(got, next) {
				t.Fatalf("claim after receipt %q = (%+v, %v), want the chained order %+v", raw, got, err, next)
			}
		}
	})
}

// FuzzSubmitBody feeds one byte string to POST /v1/jobs and holds the
// answer to its contract: no panic; the only answers are 202, 200, 400,
// 413, 422 and 503; and a job it accepts runs what was sent — its spec
// re-encodes to an equal spec (decoding the encoding gives one that
// validates, encodes to the same bytes and has the same content hash),
// and the same body again is 200, deduplicated onto that job. The
// service's job slot is stopped before the first input, so an accepted
// job stays queued until the target cancels it.
func FuzzSubmitBody(f *testing.F) {
	arm := `{"label":"a","corpus":"cifar10","protocol":"samo","viewSize":2}`
	for _, seed := range []string{
		`{"spec":{"name":"x","arms":[` + arm + `]}}`,
		`{"spec":{"name":"x","arms":[` + arm + `]},"scale":"tiny","seed":7,"workers":2}`,
		`{"spec":{"name":"x","sweep":{"base":` + arm + `,"axes":[{"field":"beta","values":[0.1,0.2]}]}}}`,
		`{"spec":{"name":"x","arms":[` + arm + `]},"scale":"galactic"}`,
		`{"spec":{"name":"x","arms":[` + arm + `]},"workers":-1}`,
		`{"spec":{"name":"x","arms":[{"label":"a","corpus":"nope","protocol":"samo","viewSize":2}]}}`,
		`{"spec":{"name":"x","arms":[],"sweep":{"base":` + arm + `,"axes":[{"field":"churnFraction","values":[0,0.25]}]}}}`,
		`{"spec":{"name":"x","arms":[` + arm + `]},"bogus":1}`,
		`{"spec":null}`,
		`{"scale":"tiny"}`,
		`{"spec":{"name":"` + strings.Repeat("n", fuzzBodyLimit) + `","arms":[` + arm + `]}}`,
		`{"spec":{"name":"x","arms":[` + arm,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "specs", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range examples {
		sp, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(`{"scale":"tiny","spec":` + string(sp) + `}`))
	}

	svc := New(Config{DefaultScale: "tiny", MaxBodyBytes: fuzzBodyLimit, QueueDepth: 1})
	svc.baseCancel()
	svc.wg.Wait()
	f.Cleanup(svc.Close)

	submit := func(t *testing.T, raw []byte) (int, dlsim.JobStatus) {
		t.Helper()
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(raw)))
		var st dlsim.JobStatus
		switch rec.Code {
		case http.StatusAccepted, http.StatusOK:
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.ID == "" {
				t.Fatalf("body %q accepted with status %q (%v)", raw, rec.Body, err)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity, http.StatusServiceUnavailable:
		default:
			t.Fatalf("body %q answered %d: %s", raw, rec.Code, rec.Body)
		}
		return rec.Code, st
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		code, st := submit(t, raw)
		if code != http.StatusAccepted {
			if code == http.StatusOK {
				t.Fatalf("body %q deduplicated onto %s, but every earlier job was cancelled", raw, st.ID)
			}
			return
		}
		svc.mu.Lock()
		j := svc.jobs[st.ID]
		svc.mu.Unlock()
		defer svc.cancelJob(j)

		enc, err := json.Marshal(j.spec)
		if err != nil {
			t.Fatalf("accepted spec of %q does not encode: %v", raw, err)
		}
		var back dlsim.Spec
		if err := json.Unmarshal(enc, &back); err != nil || back.Validate() != nil {
			t.Fatalf("accepted spec %s does not decode to a valid spec: %v, %v", enc, err, back.Validate())
		}
		again, err := json.Marshal(&back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("accepted spec %s re-encodes to %s (%v)", enc, again, err)
		}
		h1, err1 := j.spec.Hash()
		h2, err2 := back.Hash()
		if err1 != nil || err2 != nil || h1 != h2 {
			t.Fatalf("accepted spec %s hashes to %s (%v), its re-encoding to %s (%v)", enc, h1, err1, h2, err2)
		}
		if code, dup := submit(t, raw); code != http.StatusOK || dup.ID != st.ID || !dup.Deduped {
			t.Fatalf("body %q again answered %d for %s, want 200 for %s", raw, code, dup.ID, st.ID)
		}
	})
}
