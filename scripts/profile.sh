#!/bin/sh
# profile.sh — capture pprof CPU + allocation profiles for the four
# workloads the perf work steers by: the figure2 end-to-end run at quick
# scale and default workers, the shape dlbench's figure2_quick measures
# (via dlsim's -cpuprofile/-memprofile flags; five seeds merged for each,
# since one run is little over a second of samples), the dense-wake arm (via the
# IntraArmSpeedup benchmark), a sweep of sub-millisecond arms (via
# the LightArmSweep benchmark, which also prints KiB and collections
# per arm) and a resume pass over a finished directory of them (via the
# ResumePass benchmark, CPU only). Writes raw profiles plus plain-text
# top-20 summaries under profiles/ — the summaries are what DESIGN.md's
# "Where the time goes" section is built from.
#
# Usage: scripts/profile.sh [outdir]   (default: profiles/)
set -eu
cd "$(dirname "$0")/.."

OUT=${1:-profiles}
mkdir -p "$OUT"

echo "== figure2 (quick scale, default workers, seeds 1-5) =="
go build -o "$OUT/dlsim" ./cmd/dlsim
for seed in 1 2 3 4 5; do
    "$OUT/dlsim" run -figure 2 -scale quick -seed "$seed" \
        -cpuprofile "$OUT/figure2_cpu_$seed.pprof" \
        -memprofile "$OUT/figure2_mem_$seed.pprof" >/dev/null
done
for p in cpu mem; do
    go tool pprof -proto "$OUT"/figure2_${p}_[1-5].pprof >"$OUT/figure2_$p.pprof" 2>/dev/null
done
rm -f "$OUT/dlsim" "$OUT"/figure2_cpu_[1-5].pprof "$OUT"/figure2_mem_[1-5].pprof

echo "== dense-wake arm (IntraArmSpeedup benchmark, workers sweep) =="
go test -run=NONE -bench='BenchmarkIntraArmSpeedup' -benchtime=5x \
    -cpuprofile "$OUT/intraarm_cpu.pprof" \
    -memprofile "$OUT/intraarm_mem.pprof" \
    -o "$OUT/bench.test" . >/dev/null

echo "== light-arm sweep (LightArmSweep benchmark, 64 arms per iteration) =="
go test -run=NONE -bench='BenchmarkLightArmSweep' -benchtime=100x \
    -cpuprofile "$OUT/lightarm_cpu.pprof" \
    -memprofile "$OUT/lightarm_mem.pprof" \
    -o "$OUT/bench.test" . | grep '^Benchmark'

echo "== resume pass (ResumePass benchmark, 256 cached light arms per pass) =="
go test -run=NONE -bench='BenchmarkResumePass' -benchtime=1000x \
    -cpuprofile "$OUT/resume_cpu.pprof" \
    -o "$OUT/bench.test" ./internal/experiment | grep '^Benchmark'

for p in figure2_cpu figure2_mem intraarm_cpu intraarm_mem lightarm_cpu lightarm_mem resume_cpu; do
    case "$p" in
        *_mem) sample="-sample_index=alloc_space" ;;
        *) sample="" ;;
    esac
    go tool pprof $sample -top -nodecount=20 "$OUT/$p.pprof" \
        >"$OUT/$p.txt" 2>/dev/null || echo "pprof summary failed for $p" >&2
done
rm -f "$OUT/bench.test"

echo "profiles and top-20 summaries written to $OUT/"
grep -m4 'flat%' -A6 "$OUT/intraarm_cpu.txt" | head -8 || true
# The heavy arm outside its GEMMs, the table of DESIGN.md §4: the fused
# step, what is left of clearing and scaling the gradient, the ReLU and
# its mask, and memmove by caller. One of them climbing back is a
# regression.
echo "heavy arm (figure2, quick scale), flat share of samples:"
go tool pprof -top -nodecount=400 "$OUT/figure2_cpu.pprof" 2>/dev/null |
    grep -E 'flat%|Total samples|gemm[A-Za-z]+AVX2$|\(\*SGD\)|sgdStepAVX2|Vector\.Fill|memclr|scaleAVX2|Vector\.Scale$|relu|ReLU|MLP\)\.(batchForward|batchGradSum)$|runtime\.memmove$' || true
echo "runtime.memmove by caller:"
go tool pprof -peek 'runtime\.memmove$' "$OUT/figure2_cpu.pprof" 2>/dev/null |
    awk '/\| +runtime\.memmove$/ { exit } /\|/ && !/calls%/ { print }' || true
# What the heavy arm holds: the bytes its arenas hand out (the oversize
# vectors the arena passes to the heap included), by the caller that
# asked for them.
echo "heavy arm, bytes allocated by caller of tensor.(*Arena).Vector:"
go tool pprof -sample_index=alloc_space -peek 'tensor\.\(\*Arena\)\.Vector$' "$OUT/figure2_mem.pprof" 2>/dev/null |
    awk '/\| +gossipmia\/internal\/tensor\.\(\*Arena\)\.Vector$/ { exit } /\|/ && !/calls%/ { print }' || true
# The light arm's two shares DESIGN.md §4 quotes: seeding, and the
# generalization-error passes, which have no line while evalNode scores
# each split once (PR 16) — one reappearing here is a regression.
echo "light arm, cumulative under (*Study).run:"
go tool pprof -top -cum -nodecount=400 "$OUT/lightarm_cpu.pprof" 2>/dev/null |
    grep -E 'flat%|\(\*Study\)\.run$|rngSource\)\.Seed|metrics\.GenError' || true
# The resume pass's table of DESIGN.md §4: of the samples the passes
# take (the benchmark labels them on every goroutine a pass starts; the
# cold run that builds the directory is unlabelled), the cumulative
# shares of the strict read of each cached record, the results.csv row,
# the arm keys, the spec hash and the manifest encode.
echo "resume pass, cumulative share of its samples:"
go tool pprof -top -cum -unit=ms -nodecount=100000 -tagfocus=bench=resume-pass "$OUT/resume_cpu.pprof" 2>/dev/null |
    awk '
    /^Showing nodes accounting for/ { total = $5; sub(/ms,?$/, "", total) }
    { name = $NF; ms = $4; sub(/ms$/, "", ms) }
    name ~ /experiment\.(decodeArmRecord|appendResultsCSVRow|armKeys)$|spec\.\(\*Spec\)\.Hash$|json\.MarshalIndent$/ { row[name] = ms }
    END {
        if (total + 0 == 0) { print "  no resume-pass samples"; exit }
        printf "  %-52s %8.0f ms\n", "all", total
        for (n in row) printf "  %-52s %8.1f %%\n", n, 100 * row[n] / total
    }' || true
