#!/bin/sh
# profile.sh — capture pprof CPU + allocation profiles for the
# workloads the perf work steers by: the figure2 end-to-end run at quick
# scale and default workers, the shape dlbench's figure2_quick measures
# (via dlsim's -cpuprofile/-memprofile flags; five seeds merged for each,
# since one run is little over a second of samples), its two
# Purchase100-like arms alone (the sparse first layer's workload, CPU
# only, five seeds merged), the dense-wake arm (via the
# IntraArmSpeedup benchmark), a sweep of sub-millisecond arms (via
# the LightArmSweep benchmark, which also prints KiB, heap objects and
# collections per arm) and a resume pass over a finished directory of them (via the
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
rm -f "$OUT"/figure2_cpu_[1-5].pprof "$OUT"/figure2_mem_[1-5].pprof

echo "== Purchase100-like arms (Figure 2's purchase100/*, quick scale, seeds 1-5) =="
# The two arms as a spec of their own, with the labels and seed offsets
# Figure 2 gives them, so they run what the figure runs.
cat >"$OUT/purchase100.json" <<'EOF'
{"name": "Figure 2, Purchase100-like arms", "caption": "the sparse first layer's workload",
 "arms": [
  {"label": "purchase100/base/k=5/static", "corpus": "purchase100", "protocol": "base", "viewSize": 5, "seedOffset": 6},
  {"label": "purchase100/samo/k=5/static", "corpus": "purchase100", "protocol": "samo", "viewSize": 5, "seedOffset": 7}]}
EOF
for seed in 1 2 3 4 5; do
    "$OUT/dlsim" run -spec "$OUT/purchase100.json" -scale quick -seed "$seed" \
        -cpuprofile "$OUT/purchase100_cpu_$seed.pprof" >/dev/null
done
go tool pprof -proto "$OUT"/purchase100_cpu_[1-5].pprof >"$OUT/purchase100_cpu.pprof" 2>/dev/null
rm -f "$OUT/dlsim" "$OUT/purchase100.json" "$OUT"/purchase100_cpu_[1-5].pprof

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

for p in figure2_cpu figure2_mem purchase100_cpu intraarm_cpu intraarm_mem lightarm_cpu lightarm_mem resume_cpu; do
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
# its mask, the softmax (its exp kernel, math.Exp where the kernel hands
# a group back or does not run, and the loss's math.Log), and memmove by
# caller. One of them climbing back is a regression.
echo "heavy arm (figure2, quick scale), flat share of samples:"
go tool pprof -top -nodecount=400 "$OUT/figure2_cpu.pprof" 2>/dev/null |
    grep -E 'flat%|Total samples|gemm[A-Za-z]+AVX(2|512)$|\(\*SGD\)|sgdStepAVX2|Vector\.Fill|memclr|scaleAVX2|Vector\.Scale$|relu|ReLU|MLP\)\.(batchForward|batchGradSum)$|expAVX2$|tensor\.Exp$|math\.arch(Exp|Log)$|nn\.softmaxRows$|runtime\.memmove$' || true
# The Purchase100-like arms' first layer: the GEMMs its dense form ran
# (gemmNT forward; gemmTN and gemmTNStore, the weight gradient) and the
# sparse form's kernels (the products, the transposes of W0 and its
# velocity, the finiteness check, and the column index in Go), the cost
# of the rows' lists of ones — written as the generator writes the rows
# (BasketGenerator.Sample) and copied into each batch's row index
# (sparseL0.index; pprof may mark it inline) — and memmove beside them.
# The GEMMs keep a share for the deeper layers; a layer-0 share
# climbing back means the sparse path stopped being taken.
echo "Purchase100-like arms, flat share of samples:"
go tool pprof -top -nodecount=400 "$OUT/purchase100_cpu.pprof" 2>/dev/null |
    grep -E 'flat%|Total samples|gemm(NT|TN|TNStore)AVX(2|512)$|sparseRowsAVX(2|512)$|(transpose|finite)AVX2$|data\.\(\*BasketGenerator\)\.Sample$|sparseL0\)\.(index|columns)( \(inline\))?$|runtime\.memmove$' || true
echo "heavy arm, cumulative share of the softmax:"
go tool pprof -top -cum -nodecount=400 "$OUT/figure2_cpu.pprof" 2>/dev/null |
    grep -E 'nn\.softmaxRows$' || true
echo "runtime.memmove by caller:"
go tool pprof -peek 'runtime\.memmove$' "$OUT/figure2_cpu.pprof" 2>/dev/null |
    awk '/\| +runtime\.memmove$/ { exit } /\|/ && !/calls%/ { print }' || true
# What the heavy arm holds: the bytes its arenas hand out (the oversize
# vectors the arena passes to the heap included), by the caller that
# asked for them.
echo "heavy arm, bytes allocated by caller of tensor.(*Arena).Vector:"
go tool pprof -sample_index=alloc_space -peek 'tensor\.\(\*Arena\)\.Vector$' "$OUT/figure2_mem.pprof" 2>/dev/null |
    awk '/\| +gossipmia\/internal\/tensor\.\(\*Arena\)\.Vector$/ { exit } /\|/ && !/calls%/ { print }' || true
# The light arm's shares DESIGN.md §4 quotes, of the samples under
# (*Study).run: data synthesis (FillNormal), the generators' lazy register
# fill and the topology (graph.NewRegular); and the generalization-error
# passes, which have no line while evalNode scores each split once — one
# reappearing here is a regression.
echo "light arm, cumulative share of (*Study).run:"
go tool pprof -top -cum -unit=ms -nodecount=100000 -focus='core\.\(\*Study\)\.run$' "$OUT/lightarm_cpu.pprof" 2>/dev/null |
    awk '
    { name = $NF; ms = $4; sub(/ms$/, "", ms) }
    name ~ /core\.\(\*Study\)\.run$/ { total = ms }
    name ~ /tensor\.\(\*RNG\)\.FillNormal$|tensor\.\(\*rngSource\)\.fill$|graph\.NewRegular$|metrics\.GenError/ { row[name] = ms }
    END {
        if (total + 0 == 0) { print "  no (*Study).run samples"; exit }
        printf "  %-52s %8.0f ms\n", "(*Study).run", total
        for (n in row) printf "  %-52s %8.1f %%\n", n, 100 * row[n] / total
    }' || true
# The light arm's evaluation pass (DESIGN.md §4, "The light arm"): the
# cumulative share, of all the sweep's samples, of evaluateRound, and
# inside it of the GEMM kernel the narrow layers run on, the log kernel
# beside math's own archLog (a per-row log path brings it back), the
# argmax (ArgMaxRows' kernel; Vector.Max on a per-row path), the chunk
# softmax, and the attack's one sort with the sweeps over it (sort.Sort
# is a per-side sort come back). One climbing back is a regression.
echo "light arm, the evaluation pass, cumulative share of all samples:"
go tool pprof -top -cum -nodecount=100000 -focus='core\.\(\*Study\)\.evaluateRound$' "$OUT/lightarm_cpu.pprof" 2>/dev/null |
    awk '$6 ~ /core\.\(\*Study\)\.evaluateRound$|tensor\.(gemmNTAVX(2|512)|logAVX2|argMaxRowsAVX2|Vector\.Max)$|math\.archLog$|nn\.(softmaxRows|SoftmaxRows)$|^sort\.Sort$|mia\.\(\*Scratch\)\.(sortScores|bestThresholdAccuracy|tprAtFPR)$/ {
        printf "  %-52s %8s\n", $6, $5 }' || true
# What the light arms' garbage costs: the cumulative shares, of all the
# sweep's samples, of the allocator and of the collector's background
# and assist work. The arms allocate almost nothing, so each sits near
# its floor; one climbing back means per-arm or per-tick state has gone
# back to the heap.
echo "light-arm sweep, cumulative share of the allocator and the collector:"
go tool pprof -top -cum -nodecount=100000 "$OUT/lightarm_cpu.pprof" 2>/dev/null |
    awk '$NF ~ /^runtime\.(mallocgc|gcBgMarkWorker|gcAssistAlloc)$/ { printf "  %-52s %8s\n", $NF, $5 }' || true
# The resume pass's table of DESIGN.md §4: of the samples the passes
# take (the benchmark labels them on every goroutine a pass starts; the
# cold run that builds the directory is unlabelled), the cumulative
# shares of the strict read of each cached record, the results.csv row
# and its one write, the key loop (each arm encoded once for its key and
# the spec hash), the manifest appender and the atomic file writes.
echo "resume pass, cumulative share of its samples:"
go tool pprof -top -cum -unit=ms -nodecount=100000 -tagfocus=bench=resume-pass "$OUT/resume_cpu.pprof" 2>/dev/null |
    awk '
    /^Showing nodes accounting for/ { total = $5; sub(/ms,?$/, "", total) }
    { name = $NF; ms = $4; sub(/ms$/, "", ms) }
    name ~ /experiment\.(decodeArmRecord|appendResultsCSVRow|\(\*csvStream\)\.writeCarved|hashArms|appendManifest|writeFileAtomic)$/ { row[name] = ms }
    END {
        if (total + 0 == 0) { print "  no resume-pass samples"; exit }
        printf "  %-52s %8.0f ms\n", "all", total
        for (n in row) printf "  %-52s %8.1f %%\n", n, 100 * row[n] / total
    }' || true
