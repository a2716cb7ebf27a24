#!/usr/bin/env bash
# Full CI pass: configure, build, unit tests, golden-result
# regression, the benchmark's self-test, a ThreadSanitizer smoke of
# the parallel sweep engine, an ASan+UBSan property-fuzzing smoke
# (every property on every config, plus a widest-lane pass on AVX-512
# hosts), an ASan+UBSan serve-daemon round trip (cache
# resubmission + SIGTERM drain), and a clean-work-tree check. Run
# from the repository root:
#
#   tools/ci.sh [build-dir]
#
# Exits nonzero on the first failing stage.
set -euo pipefail

BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== configure + build (${BUILD_DIR}) =="
# The tree must build without google-benchmark: perfbench/ is the
# one benchmark, so refuse the package if a find_package comes back.
# The Release build is warning-free; any new warning fails it.
cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_DISABLE_FIND_PACKAGE_benchmark=TRUE \
      -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "== tier-1: unit + CLI tests =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" \
      -LE golden

echo "== tier-2: golden-result regression (jobs=4 and jobs=1) =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L golden

echo "== bench: perfbench self-test =="
# The benchmark builds its own Release tree (.bench_build/, ignored)
# and, at a tiny size, checks that every workload prints every metric
# named in BENCHMARK.json and that each of its gates can fail.
python3 perfbench/selftest.py

echo "== TSan smoke: parallel sweep engine =="
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "${TSAN_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DVSMOOTH_SANITIZE=thread
cmake --build "${TSAN_DIR}" -j "${JOBS}" --target vsmooth_tests
"${TSAN_DIR}/tests/vsmooth_tests" --gtest_filter='Parallel*'

echo "== ASan+UBSan fuzz smoke: 2000 random configs, run twice =="
# Every property is checked on every config, and a failure does not
# stop the pass, so this covers each (config, property) pair a
# single-property pass at the same seed would: configs come only from
# the seed, whatever the property selection. The sanitizers watch the
# block kernels (blocked_vs_scalar), lane gather/scatter and repack
# (laned_vs_scalar), the sampler's window accounting and fast-forward
# (sampled_within_bounds), the margin controller and fault injector
# (adaptive_margin_invariants, fault_injection_determinism). The same
# seed must produce a byte-identical per-property summary — the
# determinism guarantee the repro/corpus workflow depends on.
FUZZ_DIR="${BUILD_DIR}-asan"
cmake -B "${FUZZ_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DVSMOOTH_SANITIZE=address,undefined
cmake --build "${FUZZ_DIR}" -j "${JOBS}" --target vsmooth_cli

echo "== ASan+UBSan alloc audit: steady-state blocks never allocate =="
# The interposed operator new/delete counters must read zero across
# warm System::run and LaneGroup drains, with the sanitizers watching
# the same paths (ASan intercepts at the malloc layer beneath the
# interposer, so poisoning still applies). The detector-bank tests
# ride along so UBSan sees the word path's shift edge cases (a full
# 64-sample word, an event open at bit 63), and the dsp tests so ASan
# sees every level's helper kernels on ragged blocks that end exactly
# at their buffers' ends. The block-identity tests put the sanitizers
# on the step planner and on a finite schedule finishing mid-block.
cmake --build "${FUZZ_DIR}" -j "${JOBS}" --target vsmooth_tests
"${FUZZ_DIR}/tests/vsmooth_tests" \
      --gtest_filter='AllocAudit*:DroopDetectorBank*:Dsp.*:BlockIdentity.*'

"${FUZZ_DIR}/src/tools/vsmooth" fuzz --seed 1 --iters 2000 \
      --summary "${FUZZ_DIR}/fuzz-summary-a.json"
"${FUZZ_DIR}/src/tools/vsmooth" fuzz --seed 1 --iters 2000 \
      --summary "${FUZZ_DIR}/fuzz-summary-b.json"
cmp "${FUZZ_DIR}/fuzz-summary-a.json" "${FUZZ_DIR}/fuzz-summary-b.json"
"${FUZZ_DIR}/src/tools/vsmooth" fuzz --corpus tests/corpus \
      --summary "${FUZZ_DIR}/fuzz-corpus-summary.json"

# Host-gated widest-lane pass: on AVX-512 machines, pin every config
# to the full 16-lane width so the 8-wide mask-register kernels, the
# 8x8 register transpose, and the pad-lane tail all run under the
# sanitizers on every iteration (seed-derived widths only reach 16 on
# a fraction of draws). Skipped silently on narrower hosts, where the
# avx512 dispatch level is unreachable anyway.
if grep -q avx512f /proc/cpuinfo 2>/dev/null; then
    echo "== ASan+UBSan fuzz: laned at 16 lanes (AVX-512 host), 2000 configs =="
    VSMOOTH_SIMD=avx512 "${FUZZ_DIR}/src/tools/vsmooth" fuzz \
          --seed 1 --iters 2000 --lanes 16 \
          --properties laned_vs_scalar \
          --summary "${FUZZ_DIR}/fuzz-laned16-summary.json"
else
    echo "== skip: AVX-512 16-lane fuzz (host lacks avx512f) =="
fi

echo "== ASan+UBSan serve: cached oracle batch, SIGTERM drain =="
# Boot the daemon on a Unix socket, submit an oracle-matrix batch
# twice, and require the second pass to be answered entirely from the
# content-addressed cache with byte-identical results; then SIGTERM
# must drain and exit 0 with the sanitizers watching the executor,
# cache, and connection teardown paths.
SERVE_DIR="${FUZZ_DIR}/serve-stage"
rm -rf "${SERVE_DIR}"
mkdir -p "${SERVE_DIR}"
cat > "${SERVE_DIR}/batch.json" <<'EOF'
[{"kind": "oracle_cell", "bench_a": "mcf",   "bench_b": "lbm",  "cycles_per_pair": 30000},
 {"kind": "oracle_cell", "bench_a": "mcf",   "bench_b": "mcf",  "cycles_per_pair": 30000},
 {"kind": "oracle_cell", "bench_a": "hmmer", "bench_b": "milc", "cycles_per_pair": 30000}]
EOF
"${FUZZ_DIR}/src/tools/vsmooth" serve --socket "${SERVE_DIR}/s.sock" \
      --workers 2 --ready-file "${SERVE_DIR}/ready" \
      > "${SERVE_DIR}/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -f "${SERVE_DIR}/ready" ] && break
    sleep 0.1
done
[ -f "${SERVE_DIR}/ready" ]
"${FUZZ_DIR}/src/tools/vsmooth" client --socket "${SERVE_DIR}/s.sock" \
      --batch "${SERVE_DIR}/batch.json" --results-only \
      > "${SERVE_DIR}/pass1.txt"
"${FUZZ_DIR}/src/tools/vsmooth" client --socket "${SERVE_DIR}/s.sock" \
      --batch "${SERVE_DIR}/batch.json" > "${SERVE_DIR}/pass2-full.txt"
if grep -q '"cache": "miss"' "${SERVE_DIR}/pass2-full.txt"; then
    echo "error: cache miss on resubmission" >&2
    exit 1
fi
[ "$(grep -c '"cache": "hit"' "${SERVE_DIR}/pass2-full.txt")" -eq 3 ]
"${FUZZ_DIR}/src/tools/vsmooth" client --socket "${SERVE_DIR}/s.sock" \
      --batch "${SERVE_DIR}/batch.json" --results-only \
      > "${SERVE_DIR}/pass2.txt"
cmp "${SERVE_DIR}/pass1.txt" "${SERVE_DIR}/pass2.txt"
"${FUZZ_DIR}/src/tools/vsmooth" client --local \
      --batch "${SERVE_DIR}/batch.json" --results-only \
      > "${SERVE_DIR}/local.txt"
cmp "${SERVE_DIR}/pass1.txt" "${SERVE_DIR}/local.txt"

# An adaptive-margin scenario through the same daemon: resubmission
# must be answered from the cache with byte-identical controller
# metrics (the canonical key reflects the coerced controller-on
# config, so both submissions hash to the same entry).
cat > "${SERVE_DIR}/batch-margin.json" <<'EOF'
[{"kind": "adaptive_margin",
  "config": {"seed": 5, "cycles": 20000, "coreBench": [1, 26],
             "decapFraction": 0.12,
             "ctrlInitialMargin": 0.06, "ctrlMinMargin": 0.03,
             "ctrlMaxMargin": 0.1, "ctrlRecoveryCost": 600}}]
EOF
"${FUZZ_DIR}/src/tools/vsmooth" client --socket "${SERVE_DIR}/s.sock" \
      --batch "${SERVE_DIR}/batch-margin.json" --results-only \
      > "${SERVE_DIR}/margin1.txt"
"${FUZZ_DIR}/src/tools/vsmooth" client --socket "${SERVE_DIR}/s.sock" \
      --batch "${SERVE_DIR}/batch-margin.json" \
      > "${SERVE_DIR}/margin2-full.txt"
if grep -q '"cache": "miss"' "${SERVE_DIR}/margin2-full.txt"; then
    echo "error: cache miss on adaptive_margin resubmission" >&2
    exit 1
fi
[ "$(grep -c '"cache": "hit"' "${SERVE_DIR}/margin2-full.txt")" -eq 1 ]
"${FUZZ_DIR}/src/tools/vsmooth" client --socket "${SERVE_DIR}/s.sock" \
      --batch "${SERVE_DIR}/batch-margin.json" --results-only \
      > "${SERVE_DIR}/margin2.txt"
cmp "${SERVE_DIR}/margin1.txt" "${SERVE_DIR}/margin2.txt"
kill -TERM "${SERVE_PID}"
wait "${SERVE_PID}"

echo "== work tree must be clean after a full build+test cycle =="
# Everything CI produces belongs in the ignored build*/ trees; a
# leftover means a stage wrote into the source tree (or .gitignore
# lost coverage of a local build directory).
if [ -n "$(git status --porcelain)" ]; then
    echo "error: work tree dirty after CI:" >&2
    git status --porcelain >&2
    exit 1
fi

echo "CI: all stages passed"
