#!/usr/bin/env bash
# Tier-1 gate: configure, build and run the full test suite — first in
# the normal configuration (followed by the serving replays and one
# short run of each perfbench workload), then (unless
# SKIP_SANITIZERS=1) again under
# ASan+UBSan, and finally the parallel-layer tests under TSan (the
# thread mode of the TSAD_SANITIZE cmake option; TSan cannot coexist
# with ASan, so it gets its own pass and build tree). Run from anywhere:
#
#   tools/check.sh                 # all passes
#   SKIP_SANITIZERS=1 tools/check.sh
#
# Each pass uses its own build directory so an instrumented build never
# poisons the normal one.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 2)"

run_pass() {
  local build_dir="$1"
  shift
  echo "==> configuring ${build_dir} ($*)"
  cmake -B "${build_dir}" -S "${repo_root}" "$@"
  echo "==> building ${build_dir}"
  cmake --build "${build_dir}" -j "${jobs}"
  echo "==> testing ${build_dir}"
  (cd "${build_dir}" && ctest --output-on-failure -j "${jobs}")
}

run_pass "${repo_root}/build"

# Serving smoke: replay a generated series through the sharded engine
# and require byte-identity with the batch detector (serve exits 2 on a
# verification mismatch, non-zero on any engine failure).
echo "==> serving replay smoke (tsad serve --replay)"
serve_work="$(mktemp -d)"
trap 'rm -rf "${serve_work}"' EXIT
"${repo_root}/build/tools/tsad" generate taxi --out "${serve_work}"
"${repo_root}/build/tools/tsad" serve \
  --replay "${serve_work}/nyc_taxi.csv" \
  --streams 4 --detector zscore:w=96 --threads 4
"${repo_root}/build/tools/tsad" serve \
  --replay "${serve_work}/nyc_taxi.csv" \
  --streams 2 --detector streaming:m=64 --threads 2
# A one-byte memory budget cold-evicts every idle stream after each
# pump and thaws it on its next point: the evict/thaw path, end to end.
"${repo_root}/build/tools/tsad" serve \
  --replay "${serve_work}/nyc_taxi.csv" \
  --streams 4 --detector zscore:w=96 --mem-budget 1 --threads 4 |
  grep 'byte-identical'
"${repo_root}/build/tools/tsad" serve \
  --replay "${serve_work}/nyc_taxi.csv" \
  --streams 4 --detector floss:16:128 --threads 4
# The largest --deadline-ms the CLI accepts never expires, and a batch
# whose queue floor overflows a size_t saturates it instead of shedding
# replay's own input.
"${repo_root}/build/tools/tsad" serve \
  --replay "${serve_work}/nyc_taxi.csv" \
  --streams 2 --detector zscore:w=96 --deadline-ms 9223372036854 \
  --threads 2 | grep 'byte-identical'
"${repo_root}/build/tools/tsad" serve \
  --replay "${serve_work}/nyc_taxi.csv" \
  --streams 4 --batch 4611686018427387904 --policy shed \
  --detector zscore:w=96 --threads 2 | grep 'byte-identical'
# NASA channel G-1 holds a 120-point frozen segment, so this replay runs
# FLOSS's flat-run path and its evictions through the engine.
"${repo_root}/build/tools/tsad" generate nasa --out "${serve_work}"
"${repo_root}/build/tools/tsad" serve \
  --replay "${serve_work}/G-1.csv" \
  --streams 4 --detector floss:16:128 --threads 4
"${repo_root}/build/tools/tsad" serve \
  --replay "${serve_work}/G-1.csv" \
  --streams 4 --detector floss:16:128 --mem-budget 1 --threads 4 |
  grep 'byte-identical'
# G-1 carries a 1500-point training prefix, so the reference-statistics
# detectors (which refuse to serve without one) run here too.
for spec in cusum ewma pagehinkley oneliner:u=1,k=7,c=2; do
  "${repo_root}/build/tools/tsad" serve \
    --replay "${serve_work}/G-1.csv" \
    --streams 4 --detector "${spec}" --threads 4
done
# With recovery on, a thawed stream keeps its saved state as its
# recovery checkpoint instead of freeing it: evict/thaw under recovery.
"${repo_root}/build/tools/tsad" serve \
  --replay "${serve_work}/nyc_taxi.csv" \
  --streams 4 --detector zscore:w=96 --mem-budget 1 --recover 2 \
  --threads 4 | grep 'byte-identical'
"${repo_root}/build/tools/tsad" serve \
  --replay "${serve_work}/G-1.csv" \
  --streams 4 --detector floss:16:128 --mem-budget 1 --recover 2 \
  --threads 4 | grep 'byte-identical'

# perfbench, the repository benchmark, builds the library from this
# checkout and checks each workload's results in-run, but no ctest
# compiles it: build it and run every workload once, briefly, so a
# deleted symbol it links or a result its gates reject fails here.
perf_dir="${repo_root}/build-perfbench"
echo "==> configuring ${perf_dir} (perfbench)"
cmake -S "${repo_root}/perfbench" -B "${perf_dir}"
echo "==> building ${perf_dir}"
cmake --build "${perf_dir}" -j "${jobs}" --target perfbench
for workload in leaderboard table1 serve discovery; do
  echo "==> perfbench --workload ${workload}"
  "${perf_dir}/perfbench" --workload "${workload}" --seed 1 --seconds 1 \
    --trace 0 --out "${serve_work}/perfbench"
done

if [[ "${SKIP_SANITIZERS:-0}" != "1" ]]; then
  run_pass "${repo_root}/build-sanitize" \
    -DTSAD_SANITIZE=address,undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo

  # Multi-metric leaderboard smoke under ASan+UBSan: the full detector
  # construction / scoring / JSON path at CI size (ctest -L leaderboard
  # = the CLI and bench --smoke boards, including the board whose
  # resilient: rows reuse their inner rows' scores).
  echo "==> leaderboard smoke under ASan+UBSan (ctest -L leaderboard)"
  (cd "${repo_root}/build-sanitize" && ctest --output-on-failure -L leaderboard)

  # Reproduction gate under ASan+UBSan: the default-seed board's JSON,
  # the stdout of the 20 paper and ablation benches, and the audit's
  # stdout and Markdown report must match their files under
  # tests/golden/ byte for byte, serial and at 4 threads.
  echo "==> reproduction gate under ASan+UBSan (ctest -L repro)"
  (cd "${repo_root}/build-sanitize" && ctest --output-on-failure -L repro)

  # Streaming-MPX + FLOSS suite under ASan+UBSan: the ring-buffer
  # eviction, serialization and arc-curve paths are all pointer/index
  # arithmetic over reused buffers — exactly what ASan is for.
  echo "==> streaming MPX / FLOSS suite under ASan+UBSan (ctest -L floss)"
  (cd "${repo_root}/build-sanitize" && ctest --output-on-failure -L floss)

  # SIMD dispatch suite under ASan+UBSan: every supported ISA tier's
  # strip buffers, partial-group tails and unaligned track loads,
  # forced one tier at a time on the same build.
  echo "==> SIMD dispatch suite under ASan+UBSan (ctest -L simd)"
  (cd "${repo_root}/build-sanitize" && ctest --output-on-failure -L simd)

  # MERLIN / join-kernel suite under ASan+UBSan: the search's carried
  # neighbour indices, per-batch refinement scratch rows and the
  # cross-join blocks are all raw-pointer windows over caller buffers.
  echo "==> MERLIN / join-kernel suite under ASan+UBSan (ctest -L panprofile)"
  (cd "${repo_root}/build-sanitize" && ctest --output-on-failure -L panprofile)

  # TSan pass: the parallel layer, the serving engine, the MPX tile
  # workers, the leaderboard sweep (one job writes the result slots of
  # a row and of every resilient: row riding on it), the Yahoo
  # generator (pool workers fork one shared master generator) and the
  # harnesses whose pool workers score one shared detector instance (the
  # resilient wrapper, the robustness matrix, EvaluateOnArchive) are
  # the thread-touching subsystems, so build just their test binaries
  # (examples/tools off; benches stay configured for the chaos harness
  # below) and run the corresponding suites — determinism, error
  # containment, concurrent producers, engine replays — under the race
  # detector. (The ASan+UBSan pass above already runs both
  # chaos sizes via the full suite.)
  tsan_dir="${repo_root}/build-tsan"
  echo "==> configuring ${tsan_dir} (TSAD_SANITIZE=thread)"
  cmake -B "${tsan_dir}" -S "${repo_root}" \
    -DTSAD_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTSAD_BUILD_EXAMPLES=OFF -DTSAD_BUILD_TOOLS=OFF
  # One list feeds both the log line and the build, so they cannot drift.
  tsan_targets=(parallel_test serving_engine_test
                matrix_profile_test mpx_kernel_test streaming_mpx_test
                simd_dispatch_test cpu_features_test
                merlin_test join_kernels_test leaderboard_test
                resilient_test robustness_matrix_test ucr_archive_test
                dataset_fingerprint_test floss_test bench_chaos_serving)
  echo "==> building ${tsan_dir} (${tsan_targets[*]})"
  cmake --build "${tsan_dir}" -j "${jobs}" --target "${tsan_targets[@]}"
  echo "==> testing ${tsan_dir} (Parallel* + ShardedEngine* + ReplayTest*" \
       "+ MPX diagonal kernel + Leaderboard* + Resilient*" \
       "+ RobustnessMatrix* + EvaluateOnArchive* + DatasetFingerprint*)"
  tsan_suites='Parallel|ShardedEngine|ReplayTest|MatrixProfileTest|MpxKernel'
  tsan_suites+='|Leaderboard|ResilientDetectorTest|ResilientReuseTest'
  tsan_suites+='|RobustnessMatrixTest|EvaluateOnArchiveTest|DatasetFingerprint'
  (cd "${tsan_dir}" && ctest --output-on-failure -R "${tsan_suites}")
  # The floss serving tests drive the engine's quarantine/recovery and
  # per-type memory rollup from floss streams; run the whole label so
  # the equivalence harness's thread sweep also executes under TSan.
  echo "==> streaming MPX / FLOSS suite under TSan (ctest -L floss)"
  (cd "${tsan_dir}" && ctest --output-on-failure -L floss)
  # SIMD dispatch under TSan: the CPUID probe / override atomics and
  # the per-worker tile partition race nobody should ever win — thread
  # sweeps re-run the dispatched kernels at 1/2/hw threads. (The CLI
  # simd tests are skipped here: tools are off in this tree.)
  echo "==> SIMD dispatch suite under TSan (ctest -L simd)"
  (cd "${tsan_dir}" && ctest --output-on-failure -L simd)
  # MERLIN suite under TSan: the re-measure pass writes disjoint chunks
  # of the carried neighbours from pool workers, and each refinement
  # batch fills one scratch row per worker — the thread sweeps re-run
  # both at 1/2/hw.
  echo "==> MERLIN / join-kernel suite under TSan (ctest -L panprofile)"
  (cd "${tsan_dir}" && ctest --output-on-failure -L panprofile)
  # Chaos harness under the race detector: every survival path —
  # admission, shed, eviction/thaw, quarantine/recovery, failover —
  # multi-threaded (ctest -L chaos = the --smoke run and the full
  # 5000-stream run of the same binary).
  echo "==> chaos harness under TSan (ctest -L chaos)"
  (cd "${tsan_dir}" && ctest --output-on-failure -L chaos)
fi

echo "==> all checks passed"
