package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gossipmia/pkg/dlsim"
)

// fuzzBodyLimit is the body limit FuzzWorkBodies decodes under, small
// enough that a seed can run into it.
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
