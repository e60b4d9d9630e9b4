#!/bin/sh
# ci.sh — the tier-1 gate plus gofmt cleanliness, vet, an arm64
# cross-build (the kernels' pure-Go tier), the race
# detector over the parallelized packages, the fuzz-corpus smoke (fuzz
# targets run once over their seed corpus; the arm cache's reader and
# the RNG are fuzzed, for 10 s each), the one-generator gates (math/rand
# only in tests, and no fused multiply-add in the samplers on arm64), the
# one-way-in layout gate (cmd/ holds dlsim, examples/ holds specs), a
# declarative-spec end-to-end smoke at tiny scale, the whole catalog
# and two overlaid runs twice under the race detector (workers 1 and 4,
# compared), a race-enabled service smoke (serve + submit + stream +
# cancel over HTTP), the pkg/dlsim API gate (no internal types in exported
# signatures), and the one-schema import gate (internal/spec is
# benchmark/'s shim only).
set -eu
cd "$(dirname "$0")/.."

# gofmt cleanliness: the build must be formatting-clean.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go build ./...
# vet's asmdecl pass holds the frame sizes and argument offsets of
# internal/tensor's assembly to their Go declarations.
go vet ./...
# The AVX2 kernels have a pure-Go tier that is the only one off amd64;
# cross-compiling (offline, ~30 s cold) keeps its files building.
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/tensor
# staticcheck is advisory-but-enforced where available: the container
# image may not ship it, so the gate activates only when installed.
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
    echo "staticcheck ok"
else
    echo "staticcheck not installed; skipping"
fi
# The benchmark harness runs without the race detector: its speed probe
# (benchmark/calib.go) keeps per-slot buffers in package variables,
# which is sound in dlbench's one-workload-per-process runs and races
# only between the smoke test's parallel subtests.
go test -race $(go list ./... | grep -v '/benchmark$')
# One -race pass samples one goroutine interleaving of the tick engine;
# the determinism matrix, first-error parity and dense-wake tests run
# three more.
go test -race -count=3 -run 'IntraArm|FirstError|DenseWake' ./internal/gossip
go test ./benchmark
# (FuzzParse fuzzes pkg/dlsim/spec; it sits in internal/spec with the
# rest of that package's black-box tests until the directory goes.)
go test -run='^Fuzz' ./internal/spec ./internal/store ./internal/tensor ./internal/server ./internal/experiment
# The arm cache's reader is hand-written (result.ReadCanonical): a short
# real fuzzing run holds it to the decode-and-re-encode oracle on inputs
# no seed lists.
go test -run=NONE -fuzz=FuzzArmRecord -fuzztime=10s ./internal/experiment
# tensor.RNG runs math/rand's samplers on its own lazily filled source:
# a short real fuzzing run holds byte-coded call sequences on it to
# rand.New(rand.NewSource(seed)) beyond the seed corpus.
go test -run=NONE -fuzz=FuzzRNGMatchesMathRand -fuzztime=10s ./internal/tensor

# One generator family: every stream in the program comes from
# tensor.RNG, which runs the Go 1 samplers on its own source and is held
# to math/rand's stream by its tests; math/rand is their oracle and
# nothing else. A non-test import of it would bring back a stream no
# golden covers behind the tests' back. benchmark/ is the measuring
# harness, not the program, and is exempt.
strays=$(grep -rlE --include='*.go' --exclude='*_test.go' '"math/rand(/v2)?"' . |
    grep -v '^\./benchmark/' || true)
if [ -n "$strays" ]; then
    echo "math/rand imported by a non-test file of the program:" >&2
    echo "$strays" >&2
    exit 1
fi
echo "rng import gate ok"
# The same samplers on arm64: the compiler may fuse a*b + c there, and
# every product in rng*.go that feeds an add is rounded explicitly so it
# cannot. A fused multiply-add attributed to those files moves arm64's
# stream off amd64's.
fused=$(GOARCH=arm64 go build -a -gcflags='gossipmia/internal/tensor=-S' ./internal/tensor 2>&1 |
    grep -E 'FMADD|FMSUB|FNMADD|FNMSUB' | grep -E '/rng[a-z_]*\.go:' || true)
if [ -n "$fused" ]; then
    echo "arm64 fuses multiply-adds in the samplers:" >&2
    echo "$fused" >&2
    exit 1
fi
echo "rng arm64 rounding gate ok"

# One scenario schema: the language lives in pkg/dlsim/spec, and
# internal/spec is an alias file kept for benchmark/ until a benchmark
# PR repoints its imports. Nothing else may import it — so pkg/dlsim
# cannot leak an internal spec type, because it cannot import one.
strays=$(grep -rl --include='*.go' '"gossipmia/internal/spec"' . |
    grep -v '^\./benchmark/' || true)
if [ -n "$strays" ]; then
    echo "gossipmia/internal/spec imported outside benchmark/:" >&2
    echo "$strays" >&2
    exit 1
fi
echo "spec import gate ok"

# One way in: an experiment is an entry of the catalog `dlsim list`
# prints, and a scenario of one's own is a spec file. A second binary,
# or an example program that assembles studies from internal/ packages,
# is an index nothing checks and an API the engine cannot move under.
strays=$( (ls cmd | grep -vx dlsim; ls examples | grep -vx specs; find examples -name '*.go') || true)
if [ -n "$strays" ]; then
    echo "cmd/ holds more than dlsim, or examples/ more than specs/:" >&2
    echo "$strays" >&2
    exit 1
fi
echo "layout gate ok"

# pkg/dlsim API gate: the public SDK and its scenario package must not
# leak internal types into their exported signatures (the stability
# promise of both). The grep matches qualified references to internal
# packages in the documented API surface.
api=$(go doc -all ./pkg/dlsim; go doc -all ./pkg/dlsim/spec)
leaks=$(echo "$api" | grep -nE 'internal/|\b(experiment|metrics|sink|core|gossip|netmodel|par|data|nn|mia|server)\.[A-Z]' || true)
if [ -n "$leaks" ]; then
    echo "pkg/dlsim leaks internal types into its exported API:" >&2
    echo "$leaks" >&2
    exit 1
fi
echo "pkg/dlsim api gate ok"

# start_serve LOG ARGS… starts the race-enabled `dlsim serve` on an
# ephemeral port at tiny scale with ARGS, logging to LOG, waits for it
# to print its address, and sets serve_pid and base. stop_serve sends
# it SIGTERM (a graceful drain) and waits for it to exit.
start_serve() {
    serve_log=$1
    shift
    "$specout/dlsim" serve -addr 127.0.0.1:0 -scale tiny "$@" >"$serve_log" 2>&1 &
    serve_pid=$!
    i=0
    while [ $i -lt 100 ]; do
        base=$(sed -n 's|^dlsim: serving on \(http://[^ ]*\).*|\1|p' "$serve_log")
        [ -n "$base" ] && return 0
        kill -0 "$serve_pid" 2>/dev/null || { cat "$serve_log" >&2; exit 1; }
        sleep 0.1
        i=$((i + 1))
    done
    echo "serve never printed its address" >&2
    cat "$serve_log" >&2
    exit 1
}
stop_serve() {
    kill "$serve_pid"
    wait "$serve_pid" 2>/dev/null || true
    serve_pid=""
}

# Spec-engine smoke: run one example spec end-to-end at tiny scale,
# exercising the manifest, arm store, event streams, and resume.
specout=$(mktemp -d)
cleanup() {
    [ -n "${serve_pid:-}" ] && kill "$serve_pid" 2>/dev/null || true
    rm -rf "$specout"
}
trap cleanup EXIT
go run ./cmd/dlsim sweep -spec examples/specs/latency_churn_dp.json -scale tiny -out "$specout/run"
test -f "$specout/run/manifest.json"
test -f "$specout/run/results.csv"
go run ./cmd/dlsim sweep -spec examples/specs/latency_churn_dp.json -scale tiny -out "$specout/run" -resume
echo "spec smoke ok"

# Catalog smoke, race-enabled: everything `dlsim list` prints runs at
# tiny scale, and prints the same bytes serially and on four workers —
# the determinism claim checked over the whole index, not over the
# figures that have a test of their own.
go build -race -o "$specout/dlsim" ./cmd/dlsim
"$specout/dlsim" run -figure all -scale tiny -workers 1 >"$specout/catalog-w1.txt"
"$specout/dlsim" run -figure all -scale tiny -workers 4 >"$specout/catalog-w4.txt"
cmp "$specout/catalog-w1.txt" "$specout/catalog-w4.txt" || {
    echo "dlsim run -figure all: 4 workers diverge from the serial run" >&2
    exit 1
}
# The catalog runs every entry bare; an overlaid run — a run-wide network
# filled into the entry's spec, and the attack comparison's own arm —
# goes through the node-parallel engine here and nowhere else.
overlaid() {
    out=$1
    shift
    "$specout/dlsim" run -scale tiny -workers 1 "$@" >"$specout/$out-w1.txt"
    "$specout/dlsim" run -scale tiny -workers 4 "$@" >"$specout/$out-w4.txt"
    cmp "$specout/$out-w1.txt" "$specout/$out-w4.txt" || {
        echo "dlsim run $*: 4 workers diverge from the serial run" >&2
        exit 1
    }
}
overlaid overlay-8 -figure 8 -latency 20 -churn 0.3
overlaid overlay-attacks -figure attacks -drop 0.2
echo "catalog smoke ok"

# Service smoke, race-enabled: start serve on an ephemeral port, submit
# a tiny example spec through the CLI thin client (streams NDJSON
# events), then submit a second job over raw HTTP and cancel it.
start_serve "$specout/serve.log"

"$specout/dlsim" run -spec examples/specs/latency_churn_dp.json -scale tiny -remote "$base" >"$specout/remote.log"
grep -q '^event ' "$specout/remote.log" || { echo "remote run streamed no events" >&2; cat "$specout/remote.log" >&2; exit 1; }

# Version endpoints agree between the local build and the service.
"$specout/dlsim" version >"$specout/ver-local.log"
"$specout/dlsim" version -addr "$base" >"$specout/ver-remote.log"
cmp -s "$specout/ver-local.log" "$specout/ver-remote.log" || { echo "local and service version reports diverge" >&2; exit 1; }

# Cancel flow over raw HTTP: a quick-scale job is slow enough to catch.
printf '{"scale":"quick","spec":%s}' "$(cat examples/specs/latency_churn_dp.json)" >"$specout/jobreq.json"
job=$(curl -sf -X POST -H 'Content-Type: application/json' --data-binary @"$specout/jobreq.json" "$base/v1/jobs")
job_id=$(echo "$job" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -n 1)
[ -n "$job_id" ] || { echo "no job id in: $job" >&2; exit 1; }
curl -sf -X DELETE "$base/v1/jobs/$job_id" >/dev/null
status=$(curl -sf "$base/v1/jobs/$job_id" | sed -n 's/.*"status": *"\([^"]*\)".*/\1/p' | head -n 1)
case "$status" in
    cancelled|running) ;; # running = cancel delivered, worker about to observe it
    *) echo "job after DELETE has status '$status'" >&2; exit 1 ;;
esac
curl -sf "$base/v1/healthz" >/dev/null
stop_serve
echo "service smoke ok"

# Chaos smoke, race-enabled: serve with injected transient faults (the
# engine re-runs the failed arm) and a checkpoint directory; submit the
# example spec;
# SIGTERM mid-run (graceful drain checkpoints at an arm boundary);
# restart clean and resubmit. The resumed run must finish and its
# results.csv must be byte-identical to the fault-free sweep's from the
# spec smoke above (same spec, scale, and seed).
ckpt="$specout/ckpt"
start_serve "$specout/chaos1.log" -checkpoint "$ckpt" -inject "arm-error=3,errors=1" -drain 50ms
printf '{"scale":"tiny","spec":%s}' "$(cat examples/specs/latency_churn_dp.json)" >"$specout/chaosreq.json"
curl -sf -X POST -H 'Content-Type: application/json' --data-binary @"$specout/chaosreq.json" "$base/v1/jobs" >/dev/null
sleep 0.5
stop_serve

start_serve "$specout/chaos2.log" -checkpoint "$ckpt"
# The CLI thin client blocks until the resubmitted job is terminal.
"$specout/dlsim" run -spec examples/specs/latency_churn_dp.json -scale tiny -remote "$base" >"$specout/chaos-run.log"
chaos_csv=$(find "$ckpt" -name results.csv | head -n 1)
[ -n "$chaos_csv" ] || { echo "chaos run left no results.csv in the checkpoint dir" >&2; exit 1; }
cmp -s "$chaos_csv" "$specout/run/results.csv" || {
    echo "chaos-resumed results.csv diverges from the fault-free run:" >&2
    diff "$chaos_csv" "$specout/run/results.csv" >&2 || true
    exit 1
}
stop_serve
echo "chaos smoke ok"

# Store smoke: a multi-thousand-arm tiny sweep killed hard mid-run
# (SIGKILL — no drain, no handlers), reopened, resumed to completion,
# and compared byte-for-byte against the results.csv of an
# uninterrupted run of the same build and spec. This proves the arm
# store's claims end-to-end: crash consistency (a torn log recovers to
# the last durable arm), resume serves durable arms from cache, and the
# crash leaves no trace in the results.
storespec="$specout/store-sweep.json"
awk 'BEGIN {
    printf "{\"name\":\"store smoke\",\"sweep\":{\"base\":{\"label\":\"b\",\"corpus\":\"cifar10\",\"protocol\":\"samo\",\"viewSize\":2},\"axes\":[{\"field\":\"beta\",\"values\":["
    for (i = 0; i < 2000; i++) printf "%s0.%04d", (i ? "," : ""), 1000 + i
    printf "]}]}}\n"
}' > "$storespec"
go build -o "$specout/dlsim-store" ./cmd/dlsim
"$specout/dlsim-store" sweep -spec "$storespec" -scale tiny -out "$specout/store-ref" -events none >/dev/null

"$specout/dlsim-store" sweep -spec "$storespec" -scale tiny -out "$specout/store-run" -events none >"$specout/store-kill.log" 2>&1 &
sweep_pid=$!
rows=0
i=0
while [ $i -lt 600 ]; do
    # The redirection itself fails until the sweep creates the file,
    # and a failed redirection bypasses wc's 2>/dev/null — test first.
    rows=$([ -f "$specout/store-run/results.csv" ] && wc -l < "$specout/store-run/results.csv" || echo 0)
    [ "$rows" -ge 300 ] && break
    kill -0 "$sweep_pid" 2>/dev/null || { echo "store sweep died before the kill point" >&2; cat "$specout/store-kill.log" >&2; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
[ "$rows" -ge 300 ] || { echo "store sweep never reached the kill threshold" >&2; exit 1; }
kill -9 "$sweep_pid"
wait "$sweep_pid" 2>/dev/null || true

"$specout/dlsim-store" sweep -spec "$storespec" -scale tiny -out "$specout/store-run" -events none -resume >"$specout/store-resume.log"
grep -Eq '\([1-9][0-9]* from cache\)' "$specout/store-resume.log" || {
    echo "store resume served nothing from cache:" >&2
    cat "$specout/store-resume.log" >&2
    exit 1
}
cmp -s "$specout/store-run/results.csv" "$specout/store-ref/results.csv" || {
    echo "killed-and-resumed results.csv diverges from the uninterrupted run:" >&2
    diff "$specout/store-run/results.csv" "$specout/store-ref/results.csv" | head >&2
    exit 1
}
"$specout/dlsim-store" list -store "$specout/store-run/store" -limit 5 | head -n 1 | grep -q '^2000 cached arms' || {
    echo "list -store does not report 2000 cached arms" >&2
    exit 1
}
# The log is the whole store: a kill -9 and a resume leave no other file.
[ "$(ls -A "$specout/store-run/store" | tr '\n' ' ')" = "LOCK wal.log " ] || {
    echo "store directory holds more than LOCK and wal.log:" >&2
    ls -A "$specout/store-run/store" >&2
    exit 1
}
echo "store smoke ok"

# Distributed smoke, race-enabled: serve with a checkpoint directory
# (the shared result store sits inside it) and a short lease window,
# attach a two-worker pull fleet, submit a sweep, and SIGKILL one
# worker mid-run — the lease expires, the arm is reclaimed, and the job
# must still complete with a results.csv byte-identical to the
# single-process sweep, and /v1/statz must show that result uploads
# carried claims (chained > 0): with four slots live the job keeps all
# six arms on offer, so the first slot to finish finds one queued. Then
# restart the server over the same store with no workers and resubmit:
# every arm must be served from the cluster-shared store with zero
# re-execution (no events streamed, all-hits cache counters). The
# service is locked with DLSIM_TOKEN throughout, which serve, both
# workers, list -jobs and run -remote read; a bare request gets 401.
distspec=examples/specs/protocol_latency_grid.json
"$specout/dlsim-store" sweep -spec "$distspec" -scale tiny -out "$specout/dist-file" -events none >/dev/null
dckpt="$specout/dist-ckpt"
export DLSIM_TOKEN=ci-dist-token
start_serve "$specout/dist.log" -checkpoint "$dckpt" -lease 2s
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/statz")
[ "$code" = 401 ] || { echo "locked service answered a tokenless request with $code, want 401" >&2; exit 1; }
"$specout/dlsim" worker -server "$base" -name w1 -parallel 2 >"$specout/dist-w1.log" 2>&1 &
w1_pid=$!
"$specout/dlsim" worker -server "$base" -name w2 -parallel 2 >"$specout/dist-w2.log" 2>&1 &
w2_pid=$!
# The job sizes its offer from the slots live when it starts an arm:
# submit once all four have registered.
i=0
while [ $i -lt 100 ]; do
    "$specout/dlsim" list -jobs -addr "$base" | grep -q ' workers=4 ' && break
    sleep 0.05
    i=$((i + 1))
done
"$specout/dlsim" run -spec "$distspec" -scale tiny -workers 4 -remote "$base" >"$specout/dist-run.log" 2>&1 &
run_pid=$!
# Kill w2 the moment it has an arm on lease: a mid-run worker loss.
i=0
while [ $i -lt 300 ]; do
    grep -q 'claimed arm' "$specout/dist-w2.log" 2>/dev/null && break
    kill -0 "$run_pid" 2>/dev/null || break
    sleep 0.05
    i=$((i + 1))
done
kill -9 "$w2_pid" 2>/dev/null || true
wait "$run_pid" || { echo "distributed run failed after worker kill" >&2; cat "$specout/dist-run.log" >&2; exit 1; }
dist_csv=$(find "$dckpt" -name results.csv | head -n 1)
[ -n "$dist_csv" ] || { echo "distributed run left no results.csv" >&2; exit 1; }
cmp -s "$dist_csv" "$specout/dist-file/results.csv" || {
    echo "worker-fleet results.csv diverges from the single-process sweep:" >&2
    diff "$dist_csv" "$specout/dist-file/results.csv" | head >&2
    exit 1
}
grep -q 'arm done' "$specout/dist-w1.log" || { echo "surviving worker executed no arms" >&2; cat "$specout/dist-w1.log" >&2; exit 1; }
"$specout/dlsim" list -jobs -addr "$base" >"$specout/dist-chain.log"
grep -Eq '^work: .* chained=[1-9]' "$specout/dist-chain.log" || {
    echo "no claim rode on a result upload (statz chained=0):" >&2
    cat "$specout/dist-chain.log" >&2
    exit 1
}
kill "$w1_pid" 2>/dev/null || true
wait "$w1_pid" 2>/dev/null || true
stop_serve

# Restart over the same store, no fleet: the resubmission is served
# entirely from the cluster-shared cache.
start_serve "$specout/dist2.log" -checkpoint "$dckpt"
"$specout/dlsim" run -spec "$distspec" -scale tiny -remote "$base" >"$specout/dist-cached.log"
if grep -q '^event ' "$specout/dist-cached.log"; then
    echo "store-served resubmission re-executed arms (streamed events)" >&2
    exit 1
fi
"$specout/dlsim" list -jobs -addr "$base" >"$specout/dist-statz.log"
grep -q 'cache: 6 hits / 0 misses' "$specout/dist-statz.log" || {
    echo "statz does not report an all-hit cache after the store-served rerun:" >&2
    cat "$specout/dist-statz.log" >&2
    exit 1
}
stop_serve
unset DLSIM_TOKEN
echo "distributed smoke ok"

# Self-healing fleet smoke, race-enabled: a three-worker fleet where
# one worker corrupts every upload after checksumming it (`-inject
# upload-corrupt`). The server must reject the corrupt bytes and
# quarantine the rogue on its first one, for good: the rogue's next
# claim is refused and it must stop on its own, before the smoke's
# final SIGTERM. One healthy worker is SIGTERM'd mid-run and must
# finish its leased arm, upload it, and deregister cleanly, and the
# sweep's results.csv must still be byte-identical to the
# single-process baseline. statz must show the rejection counters and
# the per-worker table with the rogue quarantined.
hckpt="$specout/heal-ckpt"
start_serve "$specout/heal.log" -checkpoint "$hckpt" -lease 2s
"$specout/dlsim" worker -server "$base" -name good1 >"$specout/heal-good1.log" 2>&1 &
hw1_pid=$!
"$specout/dlsim" worker -server "$base" -name good2 >"$specout/heal-good2.log" 2>&1 &
hw2_pid=$!
"$specout/dlsim" worker -server "$base" -name rogue \
    -inject "upload-corrupt=1,corruptions=99" >"$specout/heal-rogue.log" 2>&1 &
hw3_pid=$!
"$specout/dlsim" run -spec "$distspec" -scale tiny -workers 4 -remote "$base" >"$specout/heal-run.log" 2>&1 &
run_pid=$!
# SIGTERM good2 the moment it holds an arm: a graceful drain mid-run.
# Unlike the SIGKILL in the distributed smoke, the worker must finish
# the leased arm, upload it, and say goodbye — no lease expiry.
i=0
while [ $i -lt 300 ]; do
    grep -q 'claimed arm' "$specout/heal-good2.log" 2>/dev/null && break
    kill -0 "$run_pid" 2>/dev/null || break
    sleep 0.05
    i=$((i + 1))
done
kill -TERM "$hw2_pid" 2>/dev/null || true
wait "$run_pid" || { echo "self-heal run failed" >&2; cat "$specout/heal-run.log" >&2; exit 1; }
heal_csv=$(find "$hckpt" -name results.csv | head -n 1)
[ -n "$heal_csv" ] || { echo "self-heal run left no results.csv" >&2; exit 1; }
cmp -s "$heal_csv" "$specout/dist-file/results.csv" || {
    echo "self-heal fleet results.csv diverges from the single-process sweep:" >&2
    diff "$heal_csv" "$specout/dist-file/results.csv" | head >&2
    exit 1
}
wait "$hw2_pid" 2>/dev/null || true
grep -q 'arm done' "$specout/heal-good2.log" || { echo "drained worker never finished its leased arm" >&2; cat "$specout/heal-good2.log" >&2; exit 1; }
grep -q 'deregistered' "$specout/heal-good2.log" || { echo "drained worker never deregistered" >&2; cat "$specout/heal-good2.log" >&2; exit 1; }
"$specout/dlsim" list -jobs -addr "$base" >"$specout/heal-statz.log"
grep -q 'health: .*rejected=' "$specout/heal-statz.log" || {
    echo "statz shows no rejected-upload counters:" >&2
    cat "$specout/heal-statz.log" >&2
    exit 1
}
grep -E 'rogue +quarantined' "$specout/heal-statz.log" >/dev/null || {
    echo "statz does not show the rogue worker quarantined:" >&2
    cat "$specout/heal-statz.log" >&2
    exit 1
}
# The quarantine is permanent, so the rogue stops by itself.
i=0
while [ $i -lt 200 ] && kill -0 "$hw3_pid" 2>/dev/null; do
    sleep 0.05
    i=$((i + 1))
done
if kill -0 "$hw3_pid" 2>/dev/null || ! grep -q 'worker is quarantined; stopping' "$specout/heal-rogue.log"; then
    echo "quarantined rogue worker did not stop on its own:" >&2
    cat "$specout/heal-rogue.log" >&2
    exit 1
fi
kill -TERM "$hw1_pid" "$hw3_pid" 2>/dev/null || true
wait "$hw1_pid" 2>/dev/null || true
wait "$hw3_pid" 2>/dev/null || true
"$specout/dlsim" list -jobs -addr "$base" >"$specout/heal-statz2.log"
grep -q 'workers=0' "$specout/heal-statz2.log" || {
    echo "deregistered fleet still counted in statz:" >&2
    cat "$specout/heal-statz2.log" >&2
    exit 1
}
stop_serve
echo "self-heal smoke ok"

# Every sweep, checkpoint, and fleet run above cached its arms in an
# embedded store: nothing may have left a per-arm file directory.
legacy=$(find "$specout" -type d -name arms)
if [ -n "$legacy" ]; then
    echo "a run created a per-arm file directory:" >&2
    echo "$legacy" >&2
    exit 1
fi

# Intra-arm scaling smoke: BenchmarkHostParallel (what two busy threads
# buy over one on this host) beside BenchmarkIntraArmSpeedup at workers
# 1 vs min(2, GOMAXPROCS), so the engine is asked only for what the host
# can give. Advisory, not a gate — single-run ns/op on a shared host is
# too noisy to fail CI on — but both numbers are always logged, and the
# warning fires only on ROADMAP item 8's two thresholds together: the
# host overlapped (>= 1.6x) and the engine did not (< 1.3x). The numbers
# that gate a PR are the repo benchmark's (bash benchmark/run.sh,
# BENCHMARK.json).
procs=${GOMAXPROCS:-$(nproc 2>/dev/null || echo 1)}
par=2
[ "$procs" -ge 2 ] || par=1
go test -run=NONE -bench="BenchmarkHostParallel\$|BenchmarkIntraArmSpeedup/workers=(1|$par)\$" \
    -benchtime=5x . >"$specout/scaling.log" 2>&1 || { cat "$specout/scaling.log" >&2; exit 1; }
awk -v procs="$procs" -v par="$par" '
/^BenchmarkHostParallel/ { host = $5 }
/^BenchmarkIntraArmSpeedup\/workers=/ { split($1, name, /[=-]/); ns[name[2]] = $3 }
END {
    if (host == "" || ns[1] == "" || ns[par] == "") { print "ci: scaling smoke ran no benchmarks"; exit 1 }
    ratio = ns[1] / ns[par]
    printf "intra-arm scaling smoke: workers=%d speedup %.2fx over workers=1, host factor %.2fx for two threads (GOMAXPROCS=%s)\n", par, ratio, host, procs
    if (host >= 1.6 && ratio < 1.3)
        printf "ci: WARNING: the host overlaps two threads (%.2fx) and the tick engine does not (%.2fx < 1.3x)\n", host, ratio
}' "$specout/scaling.log"
echo "scaling smoke ok"
