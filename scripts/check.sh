#!/usr/bin/env bash
# Full verification gate: three build trees plus a static-analysis stage,
# printed as stages [1/7]..[7/7] with sub-stages 2b-2e and 6b-6h.
#
#   1. Configure + build the -O2 Release tree (build-check-release).
#   2. ctest: the complete suite on the Release tree, then standalone reruns:
#      2b. the crash-injection harness (kill the CLI at every checkpoint
#          stage boundary: 'mining' and 'final' for ASG and NSG, 'final' for
#          AG, NG and JIG; --resume must be byte-identical in its output
#          and in its stage files);
#      2c. the serve-runtime chaos suite;
#      2d. the pipeline chaos harness (_Exit rp_pipeline at every interval
#          boundary; the resumed journal must be byte-identical at several
#          thread counts);
#      2e. a smoke run of the benchmark (python3 perfbench/run.py --smoke:
#          every workload for one op, untraced and traced), which fails if
#          the traced eigensolve replay drifts from Embed by a single bit or
#          a deterministic ledger value (fingerprints, counts, ANS bits)
#          drifts between runs of the same sources. It writes only the
#          git-ignored .bench_* directories.
#   3. Configure + build the TSan+UBSan tree (build-check-tsan, Debug).
#   4. ctest under ThreadSanitizer: the parallel/determinism/lanczos/eigen/
#      serve differential suites (the ones that exercise the deterministic
#      parallel runtime), plus the mining component-count and dual-graph
#      oracle suites. Set RP_CHECK_TSAN_ALL=1 to run the *entire* suite
#      under TSan (slow: TSan costs ~5-15x). scripts/tsan.supp suppresses
#      one sanitizer-runtime report (UBSan's vptr memory probe); see there.
#   5. Configure + build the ASan+UBSan tree (build-check-asan, Debug) —
#      TSan and ASan cannot be combined, hence the separate tree.
#   6. ctest: the complete suite under AddressSanitizer (heap/stack
#      overflows, use-after-free, leaks), then standalone verbose reruns:
#      6b fault injection, 6c serving read path, 6d pipeline fault soak,
#      6e keyed-state codec, 6f serve text path, 6g mining component counts
#      (grouped union-find walks, winner labelling, thread sweep) and dual
#      graph, 6h Lanczos solver (Chebyshev filter and pathological
#      spectra). Every injected fault path (corrupted densities,
#      forced non-convergence, degenerate embeddings, torn snapshots,
#      corrupt checkpoints) must be memory-clean, not just Status-clean.
#   7. Static analysis: tools/rp_analyze over src/, tools/, bench/, tests/ —
#      the token-level analyzer (the six project rules, include-graph
#      layering against tools/analyze/layers.txt, header guards/
#      self-containment, capture-aware ParallelFor audit). The
#      machine-readable report is archived at
#      ${RELEASE_DIR}/analyze_findings.json; any non-baselined finding
#      fails the gate. A doc-citation guard then fails if README.md,
#      DESIGN.md, EXPERIMENTS.md or a file under src/, bench/ or tools/ names
#      a bench_* program or a results/ file that is not in the tree, and a
#      snapshot version guard fails unless the rpsnap version in kMagic
#      (serve/snapshot.cc), the envelope version Snapshot::Save writes and
#      DESIGN.md's "rpsnap snapshot format (vN)" heading agree.
#      clang-tidy (driven by .clang-tidy) runs when the binary is available
#      and is skipped with a notice otherwise.
#
# Usage: scripts/check.sh [jobs]        (default: nproc)

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

RELEASE_DIR=build-check-release
TSAN_DIR=build-check-tsan
ASAN_DIR=build-check-asan

echo "==> [1/7] Configure + build Release tree (${RELEASE_DIR})"
cmake -B "${RELEASE_DIR}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${RELEASE_DIR}" -j "${JOBS}"

echo "==> [2/7] ctest: full suite (Release)"
ctest --test-dir "${RELEASE_DIR}" --output-on-failure -j "${JOBS}"

# Standalone reruns write their scratch files where ctest's runs of the same
# tree do (tests/CMakeLists.txt sets TEST_TMPDIR per tree), never into a
# directory another tree's suite shares.
export TEST_TMPDIR="${RELEASE_DIR}/tests/tmp"

echo "==> [2b/7] crash-injection suite (Release, verbose)"
# Part of the full Release run above, but re-run on its own so a durability
# regression (torn output, stale checkpoint served, resume divergence) is
# attributed unambiguously: this binary kills the CLI at every checkpoint
# stage boundary ('mining' and 'final' for ASG and NSG; 'final' for AG, NG
# and JIG) and demands --resume reproduce the run's output and stage files
# byte for byte.
"${RELEASE_DIR}/tests/checkpoint_crash_test"

echo "==> [2c/7] serve-runtime chaos suite (Release, verbose)"
# Same attribution rationale for the serving runtime: this suite byte-flips
# every candidate-snapshot byte, injects swap corruption / shed overflow /
# query timeouts, and demands the soak session stay byte-identical across
# thread counts with no torn snapshot and no dropped answer line.
"${RELEASE_DIR}/tests/serve_runtime_test"

echo "==> [2d/7] pipeline chaos suite (Release, verbose)"
# The continuous-operation pipeline's end-to-end gate: _Exit(42) the
# rp_pipeline binary after every interval boundary of a 20-interval series
# and demand the resumed journal be byte-identical at --threads 1/2/8;
# fire every registered pipeline/serve/repartition fault site during a
# served soak and check the published/degraded/quarantined ledger plus the
# !health line after every interval.
"${RELEASE_DIR}/tests/pipeline_chaos_test"

echo "==> [2e/7] benchmark smoke run (perfbench, Release)"
# perfbench builds its own Release tree (.bench_build/) from src/ and runs
# every workload once, untraced and traced. The traced cut workloads replay
# the eigensolve behind an apply-counting operator and fail unless it matches
# Embed bit for bit; every run checks its deterministic values against the
# ledger that earlier runs of the same sources recorded (.bench_ledger/).
python3 perfbench/run.py --smoke

echo "==> [3/7] Configure + build TSan+UBSan tree (${TSAN_DIR})"
cmake -B "${TSAN_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread,undefined -fno-omit-frame-pointer -O1" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread,undefined" >/dev/null
cmake --build "${TSAN_DIR}" -j "${JOBS}"

echo "==> [4/7] ctest under ThreadSanitizer"
# halt_on_error makes any race fail the test run instead of just logging.
# The suppressions file is absolute because the tests (and the rp_pipeline
# children they start) run from the build tree.
export TSAN_OPTIONS="halt_on_error=1:suppressions=${PWD}/scripts/tsan.supp${TSAN_OPTIONS:+:${TSAN_OPTIONS}}"
export UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:${UBSAN_OPTIONS}}"
if [[ "${RP_CHECK_TSAN_ALL:-0}" == "1" ]]; then
  ctest --test-dir "${TSAN_DIR}" --output-on-failure -j "${JOBS}"
else
  # 'mining' keeps the supergraph-mining differential suite in the TSan net
  # even if its binary is ever renamed away from the determinism pattern;
  # 'serve' covers the serving read path and runtime (threaded batch
  # fan-out with order-fixed output, plus hot snapshot swaps under load,
  # must be race-free at any thread count); 'distributed' and 'tracker'
  # cover the incremental repartitioner (per-region ParallelForTasks
  # fan-out with per-slot outcomes) and the interval label tracker it
  # feeds; 'temporal' covers the interval driver over snapshot series;
  # 'pipeline' covers the supervised refresh->publish->serve loop (threaded
  # refreshes hot-swapped into the serving runtime mid-soak); 'eigen' covers
  # the shared QL routine and the inverse iteration behind the Lanczos Ritz
  # vectors (linalg_eigen_test), run under UBSan as well;
  # 'core_component_count' covers the union-find component counts that
  # Phase B of mining fans out per kappa, and 'network_dual_graph' the
  # dual-graph CSR build every partition starts from; 'graph_test' and
  # 'linalg_sparse' cover the one CSR store (a CsrGraph is its adjacency
  # SparseMatrix) under the parallel Multiply/RowSums kernels.
  ctest --test-dir "${TSAN_DIR}" --output-on-failure -j "${JOBS}" \
    -R 'parallel|determinism|lanczos|eigen|mining|serve|distributed|tracker|temporal|pipeline|core_component_count|network_dual_graph|graph_test|linalg_sparse'
fi

echo "==> [5/7] Configure + build ASan+UBSan tree (${ASAN_DIR})"
cmake -B "${ASAN_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer -O1" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" >/dev/null
cmake --build "${ASAN_DIR}" -j "${JOBS}"

echo "==> [6/7] ctest under AddressSanitizer"
# Death tests fork and abort by design; keep ASan from treating the abort
# exit path as a leak-check failure inside the forked child.
export ASAN_OPTIONS="halt_on_error=1${ASAN_OPTIONS:+:${ASAN_OPTIONS}}"
ctest --test-dir "${ASAN_DIR}" --output-on-failure -j "${JOBS}"

export TEST_TMPDIR="${ASAN_DIR}/tests/tmp"

echo "==> [6b/7] fault-injection suite under AddressSanitizer (verbose)"
# Part of the full ASan run above, but re-run on its own so a fault-path
# memory bug is attributed unambiguously and its output is always shown.
"${ASAN_DIR}/tests/fault_injection_test"

echo "==> [6c/7] serving read path under AddressSanitizer (verbose)"
# The serving layer hands out reinterpret_cast views into one relocatable
# buffer, so its property and corruption suites are the tests most likely
# to hide an out-of-bounds read; rerun them standalone under ASan.
"${ASAN_DIR}/tests/serve_property_test"
"${ASAN_DIR}/tests/serve_snapshot_test"
"${ASAN_DIR}/tests/serve_runtime_test"

echo "==> [6d/7] pipeline fault soak under AddressSanitizer (verbose)"
# Every quarantine, gate rejection, refused hot swap and journal cold
# restart exercises an error-recovery path (partial state teardown, retry
# loops, snapshot rollback) — exactly where memory bugs hide; rerun the
# in-process pipeline suite standalone under ASan. (The subprocess chaos
# harness runs in the Release stage 2d; its _Exit children are exercised
# there where leak checking does not misfire on the deliberate crash.)
"${ASAN_DIR}/tests/pipeline_test"

echo "==> [6e/7] keyed-state codec under AddressSanitizer (verbose)"
# The keyed checkpoint stages, the rpinc cache and the pipeline journal all
# decode through the one tag-line codec in common/durable_io, so a
# parser overrun there would hide under every keyed format; rerun the suites
# that feed it torn, bit-flipped and trailing-data payloads standalone.
"${ASAN_DIR}/tests/checkpoint_test"
"${ASAN_DIR}/tests/artifact_corruption_test"

echo "==> [6f/7] serve text path under AddressSanitizer (verbose)"
# Query lines are tokenized into a fixed array of string_views over the
# input and plain decimals are scanned in place by from_chars; the
# differential corpus feeds overlong tokens and lines with more tokens than
# the span array holds.
"${ASAN_DIR}/tests/serve_text_test"

echo "==> [6g/7] mining component counts + dual graph under AddressSanitizer (verbose)"
# Both index flat arrays by computed positions. The component counter walks
# its rank-space edges once per group of up to four cut vectors, each with
# its own parent array (back to back in one buffer) and its own bucket
# cursor, and labels the winner from one more walk; the dual graph writes
# rows straight into CSR. Their oracle suites feed every group width and
# remainder, empty buckets, isolated nodes, hubs and empty networks, and
# mining_determinism_test runs the grouped count tasks at 1, 2 and 8
# threads.
"${ASAN_DIR}/tests/core_component_count_test"
"${ASAN_DIR}/tests/mining_determinism_test"
"${ASAN_DIR}/tests/network_dual_graph_test"

echo "==> [6h/7] Lanczos solver under AddressSanitizer (verbose)"
# A solve that misses its 120-row checkpoint drops its plain basis and
# grows a fresh one of the Chebyshev filter, whose recurrence runs in two
# scratch vectors, then accepts pairs by Rayleigh-Ritz on k x n blocks;
# the filtered tests and the pathological spectra cover each of them.
"${ASAN_DIR}/tests/linalg_lanczos_test"
"${ASAN_DIR}/tests/lanczos_pathological_test"

echo "==> [7/7] Static analysis: rp_analyze + clang-tidy"
# JSON report is archived next to the build so CI and humans can diff runs;
# rp_analyze exits 1 on any non-baselined finding, which (set -e) fails the
# gate. On failure, rerun in text mode so the findings land in the log.
if ! "${RELEASE_DIR}/tools/rp_analyze" --root . --format=json \
    src tools bench tests > "${RELEASE_DIR}/analyze_findings.json"; then
  echo "    rp_analyze found non-baselined findings:"
  "${RELEASE_DIR}/tools/rp_analyze" --root . src tools bench tests || true
  echo "    full JSON report: ${RELEASE_DIR}/analyze_findings.json"
  exit 1
fi
echo "    clean; JSON report at ${RELEASE_DIR}/analyze_findings.json"

# Doc-citation guard: every bench_* program (brace lists expanded) and every
# results/ path that the docs or sources name must exist in the tree.
# CHANGES.md and ROADMAP.md are history and are not scanned.
cited=(README.md DESIGN.md EXPERIMENTS.md src bench tools)
stale=0
while IFS=: read -r file line token; do
  token="bench_${token#*bench_}"
  for name in $(eval "echo ${token}"); do  # token is [a-z0-9_{},] only
    [[ -e "bench/${name}.cc" || -e "bench/${name}.h" ]] && continue
    echo "    ${file}:${line}: names ${name}, which is not in bench/"
    stale=1
  done
done < <(grep -rnoIE '(^|[^A-Za-z0-9_.])bench_[a-z0-9_]+(\{[a-z0-9_,]+\}[a-z0-9_]*)?' "${cited[@]}")
while IFS=: read -r file line path; do
  path="results/${path#*results/}"
  path="${path%.}"  # a sentence-ending period
  compgen -G "${path}" >/dev/null && continue
  echo "    ${file}:${line}: names ${path}, which is not in the tree"
  stale=1
done < <(grep -rnoIE '(^|[^A-Za-z0-9_.])results/[A-Za-z0-9_.*-]+' "${cited[@]}")
if [[ "${stale}" != 0 ]]; then
  echo "    doc-citation guard: the lines above cite files that do not exist"
  exit 1
fi
echo "    doc-citation guard: every cited bench program and results file exists"

# Snapshot version guard: the rpsnap version is written in three places that
# must move together: the magic in serve/snapshot.cc, the envelope version
# Snapshot::Save passes to WriteArtifact, and DESIGN.md's format heading.
magic_version=$(sed -nE "s/^constexpr char kMagic\[8\] = \{'r', 'p', 's', 'n', 'a', 'p', '([0-9])', '([0-9])'\};$/\1\2/p" src/serve/snapshot.cc)
envelope_version=$(sed -nE 's/^ *return WriteArtifact\(path, "rpsnap", ([0-9]+), buffer_, retry\);$/\1/p' src/serve/snapshot.cc)
design_version=$(sed -nE 's/^### `?rpsnap`? snapshot format \(v([0-9]+)\)$/\1/p' DESIGN.md)
if [[ -z "${magic_version}" || -z "${envelope_version}" || -z "${design_version}" ||
      "$((10#${magic_version}))" != "${envelope_version}" ||
      "${envelope_version}" != "${design_version}" ]]; then
  echo "    snapshot version guard: kMagic says '${magic_version}', Snapshot::Save"
  echo "    writes envelope version '${envelope_version}', DESIGN.md says" \
    "'v${design_version}'; they must agree"
  exit 1
fi
echo "    snapshot version guard: rpsnap v${design_version} in kMagic, Save and DESIGN.md"

if command -v clang-tidy >/dev/null 2>&1; then
  # clang-tidy needs a compilation database; the Release tree exports one.
  cmake -B "${RELEASE_DIR}" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  git ls-files 'src/*.cc' 'tools/*.cc' 'bench/*.cc' |
    xargs -P "${JOBS}" -n 8 clang-tidy -p "${RELEASE_DIR}" --quiet
else
  echo "    clang-tidy not found on PATH; skipping (rp_analyze still ran)."
fi

echo "==> check.sh: all green"
