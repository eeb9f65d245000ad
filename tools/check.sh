#!/usr/bin/env bash
# tools/check.sh — the one entry point for every correctness gate.
#
# Runs, in order:
#   format      clang-format --dry-run over src/ tests/ bench/ examples/
#   tidy        clang-tidy over src/ with the checked-in .clang-tidy
#   lint        tools/lint.py banned-construct scan (no throw, no naked
#               new/delete, no TSA suppressions, ... — DESIGN.md §12)
#   tsa         clang -Werror=thread-safety over the whole tree plus the
#               tests/tsa_negative negative-compilation harness (each
#               bad_*.cc must FAIL to compile)
#   werror      full build with AEETES_WERROR=ON (hardened warning set)
#   release     Release build + ctest
#   smoke       Release aeetes_cli --stats=json over data/institutions,
#               validating the metrics snapshot is well-formed JSON and
#               that, for each of the four filter strategies, --threads=4
#               output (TSV rows + stats counters) is identical to the
#               --threads=1 run; also validates the
#               --stats=prom Prometheus exposition (line grammar, TYPE
#               declarations, cumulative le buckets, +Inf == _count)
#   bench-smoke Release bench_fig9_end_to_end on data/institutions
#               (AEETES_BENCH_CORPUS_DIR mode), compared against the
#               committed bench/baselines blob with
#               tools/bench_compare.py: count columns must be bit-exact,
#               timing columns only gate order-of-magnitude blowups
#   alloc       Release bench_micro_ops --assert-steady-state-allocs:
#               fails if a steady-state Extract call (second call on a
#               warm scratch) performs any heap allocation, for any
#               filter strategy (DESIGN.md §10); also asserts the v2
#               snapshot load allocates nothing per entity
#   snapshot    Release aeetes_cli build -> --save-snapshot ->
#               --load-snapshot: the TSV rows served from the mmapped
#               engine image must equal the directly built run, and a
#               deliberately corrupted snapshot must fail cleanly
#               (DESIGN.md §11)
#   serve-smoke Release aeetes_server end to end over real TCP: snapshot
#               built with aeetes_cli, served from an mmap cold start,
#               extract + healthz + list exercised with
#               tools/serve_client.py, the metrics verb validated with
#               tools/validate_prometheus.py (server.* families must be
#               present), then SIGTERM must drain gracefully (exit 0)
#   asan-ubsan  Debug + ASan/UBSan build + ctest
#   tsan        Debug + TSan build + ctest (includes the runtime hammer
#               test) + the --threads CLI smoke under TSan
#   fuzz        AEETES_FUZZ=ON + ASan/UBSan build of the fuzz/ harnesses;
#               with clang each target fuzzes its seed corpus for
#               FUZZ_SECONDS (default 30) seconds, otherwise the corpus
#               and regression inputs are replayed through the
#               standalone driver
#
# Usage:
#   tools/check.sh                 # run everything available
#   tools/check.sh format tidy     # run a subset (CI runs one per job)
#
# Steps whose tool is not installed (clang-format / clang-tidy) are
# SKIPPED with a notice rather than failed, so the script is usable on
# minimal containers; CI images are expected to have them.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"
FAILED=0
declare -a SUMMARY=()

note()  { printf '\n== %s ==\n' "$*"; }
skip()  { printf 'SKIP %s: %s\n' "$1" "${*:2}"; SUMMARY+=("SKIP $1"); }
pass()  { SUMMARY+=("PASS $1"); }
fail()  { printf 'FAIL: %s\n' "$*"; SUMMARY+=("FAIL $1"); FAILED=1; }

cxx_sources() {
  find src tests bench examples \
    \( -name '*.cc' -o -name '*.h' -o -name '*.cpp' \) -type f | sort
}

configure_and_test() {
  # configure_and_test <preset-name> <extra cmake args...>
  local name="$1"; shift
  local bindir="build/$name"
  cmake -S . -B "$bindir" "$@" >"$bindir.configure.log" 2>&1 || {
    cat "$bindir.configure.log"; return 1; }
  cmake --build "$bindir" -j "$JOBS" >"$bindir.build.log" 2>&1 || {
    tail -n 60 "$bindir.build.log"; return 1; }
  ctest --test-dir "$bindir" --output-on-failure -j "$JOBS"
}

step_format() {
  note "clang-format (diff check)"
  if ! command -v clang-format >/dev/null 2>&1; then
    skip format "clang-format not installed"
    return
  fi
  if cxx_sources | xargs clang-format --dry-run --Werror; then
    pass format
  else
    fail format "run: $(printf 'cxx_sources | xargs clang-format -i')"
  fi
}

step_tidy() {
  note "clang-tidy over src/"
  if ! command -v clang-tidy >/dev/null 2>&1; then
    skip tidy "clang-tidy not installed"
    return
  fi
  local bindir=build/tidy-db
  cmake -S . -B "$bindir" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >"$bindir.configure.log" 2>&1
  local srcs
  srcs=$(find src -name '*.cc' | sort)
  if command -v run-clang-tidy >/dev/null 2>&1; then
    # shellcheck disable=SC2086
    run-clang-tidy -p "$bindir" -quiet $srcs && pass tidy || fail tidy
  else
    # shellcheck disable=SC2086
    clang-tidy -p "$bindir" --quiet $srcs && pass tidy || fail tidy
  fi
}

step_lint() {
  note "banned-construct lint (tools/lint.py)"
  if ! command -v python3 >/dev/null 2>&1; then
    skip lint "python3 not installed"
    return
  fi
  if python3 tools/lint.py; then
    pass lint
  else
    fail lint "banned construct in src/ (fix or allowlist with a reason)"
  fi
}

step_tsa() {
  note "clang thread safety analysis (-Werror=thread-safety)"
  if ! command -v clang++ >/dev/null 2>&1; then
    skip tsa "clang++ not installed (TSA is a clang analysis)"
    return
  fi
  local bindir=build/tsa
  if ! cmake -S . -B "$bindir" -DCMAKE_BUILD_TYPE=Release \
       -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ \
       -DAEETES_THREAD_SAFETY=ON >"$bindir.configure.log" 2>&1 \
     || ! cmake --build "$bindir" -j "$JOBS" >"$bindir.build.log" 2>&1; then
    tail -n 60 "$bindir.build.log" 2>/dev/null || cat "$bindir.configure.log"
    fail tsa "-Werror=thread-safety build failed"
    return
  fi
  # The annotations must also reject misuse: every bad_*.cc in the
  # negative harness has to FAIL to compile, or a macro went no-op.
  if tests/tsa_negative/run.sh; then
    pass tsa
  else
    fail tsa "negative-compilation harness (see output above)"
  fi
}

step_fuzz() {
  note "fuzz firewall (untrusted-input harnesses + seed corpora)"
  local bindir=build/fuzz
  local -a cmake_args=(-DCMAKE_BUILD_TYPE=Debug -DAEETES_FUZZ=ON
                       "-DAEETES_SANITIZE=address,undefined")
  local -a targets=(snapshot tokenizer tsv server_frame)
  local libfuzzer=0
  if command -v clang++ >/dev/null 2>&1; then
    cmake_args+=(-DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++)
    libfuzzer=1
  fi
  if ! cmake -S . -B "$bindir" "${cmake_args[@]}" \
        >"$bindir.configure.log" 2>&1 \
     || ! cmake --build "$bindir" -j "$JOBS" \
          --target "${targets[@]/#/fuzz_}" \
          >"$bindir.build.log" 2>&1; then
    tail -n 60 "$bindir.build.log" 2>/dev/null || cat "$bindir.configure.log"
    fail fuzz "harness build failed"
    return
  fi
  local budget="${FUZZ_SECONDS:-30}"
  local t
  for t in "${targets[@]}"; do
    local bin="$bindir/fuzz_build/fuzz_$t"
    if [ "$libfuzzer" = 1 ]; then
      # Coverage-guided from the seeds, bounded; crash artifacts land in
      # the current directory (CI uploads crash-*/leak-*/timeout-*).
      if ! "$bin" "fuzz/corpus/$t" fuzz/corpus/regressions \
            -max_total_time="$budget" -print_final_stats=1 \
            >"$bindir.$t.log" 2>&1; then
        tail -n 40 "$bindir.$t.log"
        fail fuzz "fuzz_$t found a crash (log above)"
        return
      fi
    else
      # No libFuzzer on this toolchain: replay every checked-in seed and
      # regression input through the standalone driver instead.
      if ! "$bin" "fuzz/corpus/$t" fuzz/corpus/regressions \
            >"$bindir.$t.log" 2>&1; then
        tail -n 40 "$bindir.$t.log"
        fail fuzz "fuzz_$t corpus replay crashed"
        return
      fi
    fi
  done
  pass fuzz
}

step_werror() {
  note "warning-hardened build (AEETES_WERROR=ON)"
  local bindir=build/werror
  if cmake -S . -B "$bindir" -DCMAKE_BUILD_TYPE=Release \
       -DAEETES_WERROR=ON >"$bindir.configure.log" 2>&1 \
     && cmake --build "$bindir" -j "$JOBS" >"$bindir.build.log" 2>&1; then
    pass werror
  else
    tail -n 60 "$bindir.build.log" 2>/dev/null || cat "$bindir.configure.log"
    fail werror
  fi
}

step_release() {
  note "Release build + ctest"
  if configure_and_test release -DCMAKE_BUILD_TYPE=Release \
       -DAEETES_WERROR=ON; then
    pass release
  else
    fail release
  fi
}

threads_smoke() {
  # threads_smoke <aeetes_cli binary>
  # The concurrent runtime must not change results: for every filter
  # strategy, the TSV match rows and the stats counters of a --threads=4
  # run must equal the --threads=1 run. The strategy is set on the engine
  # at build time, so this also checks that it reaches the pool workers.
  # (Histograms and build-time gauges are timing-dependent, so only the
  # counters section is compared.)
  local cli="$1"
  local data=data/institutions
  local strategy out1 out4
  for strategy in simple skip dynamic lazy; do
    out1=$("$cli" "$data/entities.txt" "$data/rules.txt" \
          "$data/documents.txt" 0.8 "$strategy" --stats=json --threads=1 \
          2>/dev/null) || { echo "$strategy --threads=1 run failed"; return 1; }
    out4=$("$cli" "$data/entities.txt" "$data/rules.txt" \
          "$data/documents.txt" 0.8 "$strategy" --stats=json --threads=4 \
          2>/dev/null) || { echo "$strategy --threads=4 run failed"; return 1; }
    if [ "$(printf '%s\n' "$out1" | head -n -1)" \
         != "$(printf '%s\n' "$out4" | head -n -1)" ]; then
      echo "$strategy: TSV rows differ between --threads=1 and --threads=4"
      return 1
    fi
    if command -v python3 >/dev/null 2>&1; then
      python3 - "$strategy" "$(printf '%s\n' "$out1" | tail -n 1)" \
                "$(printf '%s\n' "$out4" | tail -n 1)" <<'EOF' || return 1
import json, sys
strategy = sys.argv[1]
a = json.loads(sys.argv[2])["counters"]
b = json.loads(sys.argv[3])["counters"]
assert a == b, f"{strategy}: counters diverge between thread counts:\n{a}\n{b}"
assert a.get("extract.calls", 0) > 0, f"{strategy}: no extract calls recorded"
EOF
    else
      # Counters are the first JSON section; byte-compare it.
      local c1 c4
      c1=$(printf '%s' "$out1" | tail -n 1 | sed 's/.*"counters"://;s/}.*/}/')
      c4=$(printf '%s' "$out4" | tail -n 1 | sed 's/.*"counters"://;s/}.*/}/')
      [ -n "$c1" ] && [ "$c1" = "$c4" ] || {
        echo "$strategy: stats counters diverge between thread counts"
        return 1; }
    fi
  done
}

step_smoke() {
  note "CLI metrics smoke (aeetes_cli --stats=json)"
  local bindir=build/release
  local data=data/institutions
  if [ ! -f "$data/entities.txt" ]; then
    skip smoke "$data corpus not found"
    return
  fi
  if ! cmake -S . -B "$bindir" -DCMAKE_BUILD_TYPE=Release \
        >"$bindir.configure.log" 2>&1 \
     || ! cmake --build "$bindir" -j "$JOBS" --target aeetes_cli \
        >"$bindir.build.log" 2>&1; then
    tail -n 60 "$bindir.build.log" 2>/dev/null || cat "$bindir.configure.log"
    fail smoke "aeetes_cli build failed"
    return
  fi
  # The JSON snapshot is the last stdout line (after the TSV match rows).
  local blob
  if ! blob=$("$bindir/examples/aeetes_cli" "$data/entities.txt" \
        "$data/rules.txt" "$data/documents.txt" 0.8 lazy --stats=json \
        2>/dev/null | tail -n 1); then
    fail smoke "aeetes_cli --stats=json exited non-zero"
    return
  fi
  if command -v python3 >/dev/null 2>&1; then
    if ! printf '%s' "$blob" | python3 -c '
import json, sys
snap = json.load(sys.stdin)
for key in ("counters", "gauges", "histograms"):
    assert key in snap, f"missing top-level key: {key}"
assert snap["counters"].get("extract.calls", 0) > 0, "no extract calls"
assert "index.bytes" in snap["gauges"], "index gauges not published"
'; then
      fail smoke "metrics snapshot failed JSON validation"
      return
    fi
  else
    # Minimal structural check when python3 is unavailable.
    case "$blob" in
      '{"counters":{'*'"gauges":{'*'"histograms":{'*'}') : ;;
      *) fail smoke "metrics snapshot missing expected sections"; return ;;
    esac
  fi
  if ! threads_smoke "$bindir/examples/aeetes_cli"; then
    fail smoke "--threads=4 output diverged from --threads=1"
    return
  fi
  # Prometheus exposition: exposition lines follow the TSV rows; validate
  # the text-format grammar, not just "something printed".
  if command -v python3 >/dev/null 2>&1; then
    local prom
    if ! prom=$("$bindir/examples/aeetes_cli" "$data/entities.txt" \
          "$data/rules.txt" "$data/documents.txt" 0.8 lazy --stats=prom \
          2>/dev/null); then
      fail smoke "aeetes_cli --stats=prom exited non-zero"
      return
    fi
    if ! printf '%s\n' "$prom" | python3 tools/validate_prometheus.py; then
      fail smoke "--stats=prom output failed exposition validation"
      return
    fi
  fi
  pass smoke
}

step_bench_smoke() {
  note "bench regression smoke (fig9 corpus mode vs committed baseline)"
  local bindir=build/release
  local data=data/institutions
  if [ ! -f "$data/entities.txt" ]; then
    skip bench-smoke "$data corpus not found"
    return
  fi
  if ! command -v python3 >/dev/null 2>&1; then
    skip bench-smoke "python3 not installed"
    return
  fi
  if [ ! -f bench/baselines/BENCH_fig9_end_to_end.json ]; then
    fail bench-smoke "bench/baselines/BENCH_fig9_end_to_end.json missing"
    return
  fi
  if ! cmake -S . -B "$bindir" -DCMAKE_BUILD_TYPE=Release \
        >"$bindir.configure.log" 2>&1 \
     || ! cmake --build "$bindir" -j "$JOBS" \
        --target bench_fig9_end_to_end bench_serve_load \
        >"$bindir.build.log" 2>&1; then
    tail -n 60 "$bindir.build.log" 2>/dev/null || cat "$bindir.configure.log"
    fail bench-smoke "bench build failed"
    return
  fi
  local outdir
  outdir=$(mktemp -d /tmp/aeetes_bench_smoke.XXXXXX)
  if ! AEETES_BENCH_CORPUS_DIR="$data" AEETES_BENCH_JSON_DIR="$outdir" \
       "$bindir/bench/bench_fig9_end_to_end" >/dev/null; then
    rm -rf "$outdir"
    fail bench-smoke "bench_fig9_end_to_end run failed"
    return
  fi
  # The closed-loop serving bench: a real aeetes_server process, mmap
  # cold start, N TCP connections (baseline gates QPS/latency/RSS drift).
  if ! AEETES_BENCH_CORPUS_DIR="$data" AEETES_BENCH_JSON_DIR="$outdir" \
       "$bindir/bench/bench_serve_load" >/dev/null; then
    rm -rf "$outdir"
    fail bench-smoke "bench_serve_load run failed"
    return
  fi
  if python3 tools/bench_compare.py bench/baselines "$outdir"; then
    rm -rf "$outdir"
    pass bench-smoke
  else
    rm -rf "$outdir"
    fail bench-smoke "regression vs bench/baselines (see rows above)"
  fi
}

step_alloc() {
  note "steady-state allocation check (bench_micro_ops)"
  local bindir=build/release
  if ! cmake -S . -B "$bindir" -DCMAKE_BUILD_TYPE=Release \
        >"$bindir.configure.log" 2>&1 \
     || ! cmake --build "$bindir" -j "$JOBS" --target bench_micro_ops \
        >"$bindir.build.log" 2>&1; then
    tail -n 60 "$bindir.build.log" 2>/dev/null || cat "$bindir.configure.log"
    fail alloc "bench_micro_ops build failed"
    return
  fi
  # Fails unless the second Extract call on a warm scratch performs zero
  # heap allocations, for every filter strategy (DESIGN.md §10).
  if ! "$bindir/bench/bench_micro_ops" --assert-steady-state-allocs; then
    fail alloc "steady-state Extract allocated on the hot path"
    return
  fi
  # The v2 snapshot load must allocate a fixed set of wrapper objects —
  # nothing proportional to entity count (DESIGN.md §11).
  if "$bindir/bench/bench_micro_ops" --assert-snapshot-load-allocs; then
    pass alloc
  else
    fail alloc "v2 snapshot load allocates per entity"
  fi
}

step_snapshot() {
  note "snapshot round trip (save -> mmap load -> diff, corrupt must fail)"
  local bindir=build/release
  local data=data/institutions
  if [ ! -f "$data/entities.txt" ]; then
    skip snapshot "$data corpus not found"
    return
  fi
  if ! cmake -S . -B "$bindir" -DCMAKE_BUILD_TYPE=Release \
        >"$bindir.configure.log" 2>&1 \
     || ! cmake --build "$bindir" -j "$JOBS" --target aeetes_cli \
        >"$bindir.build.log" 2>&1; then
    tail -n 60 "$bindir.build.log" 2>/dev/null || cat "$bindir.configure.log"
    fail snapshot "aeetes_cli build failed"
    return
  fi
  local cli="$bindir/examples/aeetes_cli"
  local snap tsv_built tsv_loaded
  snap=$(mktemp /tmp/aeetes_check_snap.XXXXXX)
  # Build, save the engine image, and keep the TSV rows as the reference.
  if ! tsv_built=$("$cli" "$data/entities.txt" "$data/rules.txt" \
        "$data/documents.txt" 0.8 lazy "--save-snapshot=$snap" \
        2>/dev/null); then
    rm -f "$snap"
    fail snapshot "build + save run failed"
    return
  fi
  # Serve from the mmapped snapshot; rows must be byte-identical.
  if ! tsv_loaded=$("$cli" "$data/entities.txt" "$data/rules.txt" \
        "$data/documents.txt" 0.8 lazy "--load-snapshot=$snap" \
        2>/dev/null); then
    rm -f "$snap"
    fail snapshot "load run failed"
    return
  fi
  if [ "$tsv_built" != "$tsv_loaded" ]; then
    rm -f "$snap"
    fail snapshot "snapshot-served TSV rows differ from direct build"
    return
  fi
  # A corrupted image must be rejected with a clean error, not served.
  printf '\377' | dd of="$snap" bs=1 seek=100 count=1 conv=notrunc \
    >/dev/null 2>&1
  if "$cli" "$data/entities.txt" "$data/rules.txt" "$data/documents.txt" \
       0.8 lazy "--load-snapshot=$snap" >/dev/null 2>&1; then
    rm -f "$snap"
    fail snapshot "corrupted snapshot loaded without error"
    return
  fi
  rm -f "$snap"
  pass snapshot
}

step_serve_smoke() {
  note "serving daemon smoke (aeetes_server over TCP, drain on SIGTERM)"
  local bindir=build/release
  local data=data/institutions
  if [ ! -f "$data/entities.txt" ]; then
    skip serve-smoke "$data corpus not found"
    return
  fi
  if ! command -v python3 >/dev/null 2>&1; then
    skip serve-smoke "python3 not installed"
    return
  fi
  if ! cmake -S . -B "$bindir" -DCMAKE_BUILD_TYPE=Release \
        >"$bindir.configure.log" 2>&1 \
     || ! cmake --build "$bindir" -j "$JOBS" \
        --target aeetes_cli aeetes_server >"$bindir.build.log" 2>&1; then
    tail -n 60 "$bindir.build.log" 2>/dev/null || cat "$bindir.configure.log"
    fail serve-smoke "aeetes_cli / aeetes_server build failed"
    return
  fi
  local workdir
  workdir=$(mktemp -d /tmp/aeetes_serve_smoke.XXXXXX)
  # Offline build once, then serve from the mmapped snapshot — the cold
  # start the daemon is designed around.
  if ! "$bindir/examples/aeetes_cli" "$data/entities.txt" \
        "$data/rules.txt" "$data/documents.txt" 0.8 lazy \
        "--save-snapshot=$workdir/inst.snap" >/dev/null 2>&1; then
    rm -rf "$workdir"
    fail serve-smoke "snapshot build failed"
    return
  fi
  "$bindir/src/aeetes_server" --snapshot="$workdir/inst.snap" \
    --collection=institutions --port=0 --port-file="$workdir/port" \
    >"$workdir/server.log" 2>&1 &
  local server_pid=$!
  local tries=0
  while [ ! -s "$workdir/port" ] && [ "$tries" -lt 100 ]; do
    if ! kill -0 "$server_pid" 2>/dev/null; then break; fi
    sleep 0.1; tries=$((tries + 1))
  done
  if [ ! -s "$workdir/port" ]; then
    tail -n 20 "$workdir/server.log"
    rm -rf "$workdir"
    fail serve-smoke "server did not come up"
    return
  fi
  # Data-plane round trips: healthz, list, a real extraction.
  if ! python3 tools/serve_client.py --port-file "$workdir/port" \
        '{"verb":"healthz"}' \
        '{"verb":"list"}' \
        '{"verb":"extract","collection":"institutions","tenant":"smoke","docs":["she studied at uc berkeley"],"tau":0.8}' \
        >"$workdir/responses.jsonl" 2>&1 \
     || ! python3 - "$workdir/responses.jsonl" <<'EOF'
import json, sys
health, listing, extraction = [
    json.loads(line) for line in open(sys.argv[1], encoding="utf-8")
]
assert health["status"] == "serving", health
assert health["collections"] == 1, health
assert listing["collections"][0]["name"] == "institutions", listing
assert extraction["results"][0]["matches"], "extract returned no matches"
EOF
  then
    cat "$workdir/responses.jsonl" 2>/dev/null
    kill "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
    fail serve-smoke "extract/healthz/list round trips failed"
    return
  fi
  # The metrics verb must expose valid Prometheus text including the
  # server.* families (requests, batch_size, rate_limited, collections)
  # and the three per-stage latency histograms.
  if ! python3 tools/serve_client.py --port-file "$workdir/port" \
        '{"verb":"metrics"}' \
      | python3 -c \
        'import json,sys; print(json.loads(sys.stdin.read())["text"])' \
        >"$workdir/metrics.prom" \
     || ! python3 tools/validate_prometheus.py <"$workdir/metrics.prom"; then
    kill "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
    fail serve-smoke "metrics verb failed Prometheus validation"
    return
  fi
  local family
  for family in aeetes_server_requests_total aeetes_server_batch_size \
                aeetes_server_rate_limited_total \
                aeetes_server_active_collections \
                aeetes_server_stage_queue_wait_us \
                aeetes_server_stage_fanout_us \
                aeetes_server_stage_serialize_us; do
    if ! grep -q "^$family" "$workdir/metrics.prom"; then
      kill "$server_pid" 2>/dev/null || true
      rm -rf "$workdir"
      fail serve-smoke "metrics missing family $family"
      return
    fi
  done
  # Live update: upsert a brand-new entity, see it match immediately from
  # the delta overlay, compact, wait for the swapped image (version 2),
  # and see the same match from the compacted frozen index.
  if ! python3 tools/serve_client.py --port-file "$workdir/port" \
        '{"verb":"upsert_entities","collection":"institutions","entities":["zyzzyva polytechnic institute"]}' \
        '{"verb":"extract","collection":"institutions","docs":["enrolled at zyzzyva polytechnic institute"],"tau":0.8}' \
        '{"verb":"compact","collection":"institutions"}' \
        --wait-version institutions=2 \
        >"$workdir/live.jsonl" 2>&1 \
     || ! python3 tools/serve_client.py --port-file "$workdir/port" \
        '{"verb":"extract","collection":"institutions","docs":["enrolled at zyzzyva polytechnic institute"],"tau":0.8}' \
        >>"$workdir/live.jsonl" 2>&1 \
     || ! python3 - "$workdir/live.jsonl" <<'EOF'
import json, sys
upsert, before, compact, waited, after = [
    json.loads(line) for line in open(sys.argv[1], encoding="utf-8")
]
assert upsert["upserted"] == 1, upsert
assert before["results"][0]["matches"], "delta upsert did not match"
assert compact["scheduled"] and compact["target_version"] == 2, compact
assert waited["version"] >= 2 and waited["delta_entities"] == 0, waited
assert after["results"][0]["matches"] == before["results"][0]["matches"], (
    before, after)
EOF
  then
    cat "$workdir/live.jsonl" 2>/dev/null
    kill "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
    fail serve-smoke "live upsert -> compact -> re-extract failed"
    return
  fi
  # The compaction metrics families must now be live too.
  if ! python3 tools/serve_client.py --port-file "$workdir/port" \
        '{"verb":"metrics"}' \
      | python3 -c \
        'import json,sys; print(json.loads(sys.stdin.read())["text"])' \
        >"$workdir/metrics2.prom" \
     || ! grep -q '^aeetes_collection_compactions_total 1' \
        "$workdir/metrics2.prom" \
     || ! grep -q '^aeetes_collection_delta_entities 0' \
        "$workdir/metrics2.prom"; then
    kill "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
    fail serve-smoke "compaction metrics families missing"
    return
  fi
  # Graceful drain: SIGTERM must finish in-flight work and exit 0.
  kill -TERM "$server_pid"
  local rc=0
  wait "$server_pid" || rc=$?
  if [ "$rc" -ne 0 ]; then
    tail -n 20 "$workdir/server.log"
    rm -rf "$workdir"
    fail serve-smoke "server exited $rc on SIGTERM (want 0)"
    return
  fi
  rm -rf "$workdir"
  pass serve-smoke
}

step_asan_ubsan() {
  note "ASan+UBSan build + ctest"
  if ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
     configure_and_test asan-ubsan -DCMAKE_BUILD_TYPE=Debug \
       "-DAEETES_SANITIZE=address,undefined"; then
    pass asan-ubsan
  else
    fail asan-ubsan
  fi
}

step_tsan() {
  note "TSan build + ctest (runtime hammer) + --threads CLI smoke"
  local bindir=build/tsan
  if ! configure_and_test tsan -DCMAKE_BUILD_TYPE=Debug \
       "-DAEETES_SANITIZE=thread"; then
    fail tsan
    return
  fi
  # The concurrent CLI path under TSan: races in the pool or the shared
  # read-only extraction state surface here even when ctest missed them.
  if [ -f data/institutions/entities.txt ]; then
    if ! cmake --build "$bindir" -j "$JOBS" --target aeetes_cli \
          >"$bindir.cli.build.log" 2>&1; then
      tail -n 60 "$bindir.cli.build.log"
      fail tsan "aeetes_cli TSan build failed"
      return
    fi
    if ! threads_smoke "$bindir/examples/aeetes_cli"; then
      fail tsan "--threads smoke failed under TSan"
      return
    fi
  fi
  pass tsan
}

run_step() {
  case "$1" in
    format)     step_format ;;
    tidy)       step_tidy ;;
    lint)       step_lint ;;
    tsa)        step_tsa ;;
    werror)     step_werror ;;
    release)    step_release ;;
    smoke)      step_smoke ;;
    bench-smoke) step_bench_smoke ;;
    alloc)      step_alloc ;;
    snapshot)   step_snapshot ;;
    serve-smoke) step_serve_smoke ;;
    asan-ubsan) step_asan_ubsan ;;
    tsan)       step_tsan ;;
    fuzz)       step_fuzz ;;
    *) echo "unknown step: $1 (expected format|tidy|lint|tsa|werror|" \
            "release|smoke|bench-smoke|alloc|snapshot|serve-smoke|" \
            "asan-ubsan|tsan|fuzz)" >&2
       exit 2 ;;
  esac
}

STEPS=("$@")
if [ ${#STEPS[@]} -eq 0 ]; then
  STEPS=(format tidy lint tsa werror release smoke bench-smoke alloc
         snapshot serve-smoke asan-ubsan tsan fuzz)
fi

mkdir -p build
for s in "${STEPS[@]}"; do
  run_step "$s"
done

note "summary"
printf '%s\n' "${SUMMARY[@]}"
exit "$FAILED"
