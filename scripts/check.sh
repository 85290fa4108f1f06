#!/usr/bin/env bash
# Pre-PR verification gate. Run from the repository root:
#
#   ./scripts/check.sh
#
# Everything runs offline (--offline; external deps resolve to the
# in-tree stand-ins under crates/compat/). A PR is ready when all
# stages pass.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> no sleep-polls on the serve paths"
# Every serve wait blocks until its event arrives (DESIGN.md §11): a socket
# read with a stop-check timeout, a self-connect that wakes the listener,
# and condvars or channels everywhere else. A thread::sleep in these files
# puts a sleep-poll back on a request's path.
if grep -n 'thread::sleep' crates/serve/src/*.rs src/bin/snails.rs; then
    echo "error: thread::sleep on a serve path; block on the event instead" >&2
    exit 1
fi

echo "==> cargo build --release (workspace, offline)"
cargo build --release --workspace --offline

echo "==> cargo test -q (workspace, offline)"
cargo test -q --workspace --offline

echo "==> cargo clippy --workspace --all-targets -- -D warnings (offline)"
# Every target: libraries, binaries, tests and examples.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> perfbench: build and self-test the frozen benchmark (offline)"
# The benchmark under perfbench/ reaches the system only through public
# APIs, so building it here fails fast when a change removes or renames one
# it uses. Same target directory as perfbench/run.py.
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench grid (one pass at the held-out seed against the frozen reference digest)"
# One full grid pass (12,072 cells) at seed 90210 must reproduce the manifest
# digest frozen in perfbench, and 384 of its cells must match their
# re-derivation through the AST interpreter. The last stdout line is the
# JSON result; perfbench counts a mismatched pass or cell there as failed.
grid_result=$(python3 perfbench/run.py --workload grid --seed 90210 --seconds 1 --trace 0 | tail -n 1)
python3 - "$grid_result" <<'PY'
import json, sys
result = json.loads(sys.argv[1])
assert result["correct"] is True and result["failed"] == 0, (
    f"perfbench grid at seed 90210 is not correct: {sys.argv[1]}")
print(f"    {result['attempted']} cells, 0 failed: reference digest and "
      "interpreter re-derivations match")
PY

echo "==> snails bench --telemetry (smoke: deterministic report, full key coverage)"
# Telemetry smoke: the report must parse, the deterministic section must
# be byte-identical across thread counts (the bench exits non-zero
# otherwise), and every registered metric key must appear exactly once.
telemetry_out=$(mktemp)
trap 'rm -f "$telemetry_out"' EXIT
cargo run -q --release --offline --bin snails -- bench --telemetry "$telemetry_out" > /dev/null
python3 - "$telemetry_out" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["clock"] == "sim", "benchmark telemetry must use the simulated clock"
seen = []
for section in (report["deterministic"], report["assembly"], report["volatile"]):
    for kind in ("counters", "gauges", "histograms"):
        seen.extend(section[kind])
assert len(seen) == len(set(seen)), "duplicate metric key in report"
for key in ("engine.plan.compile", "engine.op.scan.rows", "engine.exec.steps",
            "engine.vec.batches", "engine.vec.selectivity_pct",
            "engine.vec.dict.entries",
            "llm.cells.planned", "llm.resilience.attempts",
            "core.scheduler.items", "core.scheduler.workers"):
    assert key in seen, f"metric key {key} missing from report"
# Fused-pipeline telemetry must land in the *deterministic* section (it is
# byte-compared across thread counts by the bench itself), never volatile.
det_counters = report["deterministic"]["counters"]
for key in ("engine.vec.fused_pipelines", "engine.vec.pool.hits",
            "engine.vec.pool.allocs", "engine.vec.dict_kernel_rows"):
    assert key in det_counters, (
        f"fusion metric {key} missing from the deterministic section")
hit = report["assembly"]["counters"]["engine.plan.cache_hit"]
miss = report["assembly"]["counters"]["engine.plan.cache_miss"]
assert hit + miss > 0, "grid run recorded no plan-cache lookups"
spans = report["deterministic"]["spans"]
assert spans["cell"]["count"] > 0, "no cell spans recorded"
print(f"    {len(seen)} metric keys, plan-cache hit rate "
      f"{hit / (hit + miss):.3f}, {spans['cell']['count']} cell spans")
PY

echo "==> checkpoint kill/resume smoke (SIGKILL mid-grid, resume, byte-compare)"
# Crash-recovery smoke: run the grid with a deterministic abort injected
# after 200 checkpoint writes, resume from the surviving store on a
# different worker count (the restore runs inside the parallel pass), and
# byte-compare the resumed manifest against an uninterrupted run. Every run
# carries --telemetry, so the compares also cover the telemetry lines the
# cell files store, their restore, and the shard merge's section fold. A
# second resume over the completed store must restore every cell and write
# none. Also merges a 2-way shard split into the same bytes.
ckpt_dir=$(mktemp -d)
manifest_dir=$(mktemp -d)
trap 'rm -f "$telemetry_out"; rm -rf "$ckpt_dir" "$manifest_dir"' EXIT
snails=./target/release/snails
"$snails" grid --telemetry --threads 4 --out "$manifest_dir/clean.txt" 2> /dev/null
if "$snails" grid --telemetry --threads 4 --ckpt "$ckpt_dir" --kill-after 200 \
        --out "$manifest_dir/killed.txt" 2> /dev/null; then
    echo "error: --kill-after 200 run was expected to abort mid-grid" >&2
    exit 1
fi
[ ! -f "$manifest_dir/killed.txt" ] || {
    echo "error: killed run should not have produced a manifest" >&2
    exit 1
}
"$snails" grid --telemetry --threads 2 --ckpt "$ckpt_dir" --out "$manifest_dir/resumed.txt" 2> /dev/null
cmp -s "$manifest_dir/clean.txt" "$manifest_dir/resumed.txt" || {
    echo "error: resumed manifest differs from the uninterrupted run" >&2
    exit 1
}
"$snails" grid --telemetry --threads 2 --ckpt "$ckpt_dir" --out "$manifest_dir/restored.txt" \
    2> "$manifest_dir/restored.log"
cmp -s "$manifest_dir/clean.txt" "$manifest_dir/restored.txt" || {
    echo "error: fully restored manifest differs from the uninterrupted run" >&2
    exit 1
}
python3 - "$manifest_dir/restored.log" <<'PY'
import json, sys
done = json.loads(next(l for l in open(sys.argv[1]) if l.startswith('{"grid":"done"')))
ckpt = done["checkpoint"]
assert ckpt["hits"] == done["cells"] and ckpt["misses"] == ckpt["corrupt"] == ckpt["written"] == 0, (
    f"a resume over the completed store did not restore every cell: {done}")
PY
"$snails" grid --telemetry --threads 2 --shard 0/2 --out "$manifest_dir/s0.txt" 2> /dev/null
"$snails" grid --telemetry --threads 8 --shard 1/2 --out "$manifest_dir/s1.txt" 2> /dev/null
"$snails" merge --out "$manifest_dir/merged.txt" \
    "$manifest_dir/s1.txt" "$manifest_dir/s0.txt" 2> /dev/null
cmp -s "$manifest_dir/clean.txt" "$manifest_dir/merged.txt" || {
    echo "error: 2-way shard merge differs from the single-process run" >&2
    exit 1
}
echo "    kill@200 resume, full restore and 2-way shard merge all byte-identical"

echo "==> snails grid --fault-profile flaky (every cell a record; 1 and 8 threads byte-identical)"
# The flaky profile drives the resilience layer: retries, breaker trips,
# corrupted completions and injected panics. Every planned cell must end
# in a record (the done line's records equal its cells), and the manifest
# (records, fault summary and deterministic telemetry) must be the same
# bytes at 1 and 8 threads.
for t in 1 8; do
    "$snails" grid --fault-profile flaky --telemetry --threads "$t" \
        --out "$manifest_dir/flaky$t.txt" 2> "$manifest_dir/flaky$t.log"
done
cmp -s "$manifest_dir/flaky1.txt" "$manifest_dir/flaky8.txt" || {
    echo "error: the flaky grid's manifest differs between 1 and 8 threads" >&2
    exit 1
}
python3 - "$manifest_dir" <<'PY'
import json, sys
root = sys.argv[1]
for t in (1, 8):
    lines = [l for l in open(f"{root}/flaky{t}.log") if l.startswith('{"grid":"done"')]
    assert len(lines) == 1, f"threads {t}: no done line from snails grid"
    done = json.loads(lines[0])
    assert done["records"] == done["cells"], (
        f"threads {t}: {done['records']} records for {done['cells']} cells")
manifest = open(f"{root}/flaky1.txt").read().splitlines()
assert "profile flaky" in manifest, "the manifest is not a flaky run"
faults = next(l for l in manifest if l.startswith("F ")).split()
assert int(faults[3]) > 0, "the flaky profile caused no retries"
assert any(l.startswith("TC ") for l in manifest), "the manifest carries no telemetry"
print(f"    {done['cells']} cells, {faults[3]} retries, {faults[5]} failure kinds; "
      "manifests identical at 1 and 8 threads")
PY

echo "==> BENCH_engine.json artifact (exists, well-formed, plan stage present)"
# `snails bench` writes the artifact as its last act; it must exist, be
# valid JSON, and carry the vector_exec stage with identical results.
[ -f BENCH_engine.json ] || {
    echo "error: snails bench did not write BENCH_engine.json (re-run" \
         "'cargo run --release --bin snails -- bench' to regenerate it)" >&2
    exit 1
}
python3 - <<'PY'
import json, sys
try:
    doc = json.load(open("BENCH_engine.json"))
except ValueError as exc:
    sys.exit(f"error: BENCH_engine.json is not valid JSON ({exc}); "
             "re-run 'cargo run --release --bin snails -- bench'")
stages = {s["bench"]: s for s in doc["stages"]}
assert "vector_exec" in stages, "vector_exec stage missing"
vec = stages["vector_exec"]
assert vec["results_identical"], "compiled plans diverged"
assert stages["grid_determinism"]["identical"], "grid not thread-deterministic"
print(f"    vector_exec speedup {vec['speedup_vs_interpreter']}x, "
      f"{vec['rows_per_s']} rows/s, telemetry overhead "
      f"{vec['telemetry_overhead_pct']}%")
# Compiled plans: the fused pipelines must beat the interpreter on the
# gold workload by the floor (the earlier 4.5x floor over row-at-a-time
# plans, times those plans' 4.32x over the interpreter), keep the gold
# suite's hot-loop allocations per batch bounded, return byte-identical
# results everywhere, and sustain the million-row synthetic join at the
# 9M rows/s floor with steady-state allocations pooled away.
assert vec["speedup_vs_interpreter"] >= 19.4, (
    f"fused pipelines below the 19.4x floor over the interpreter "
    f"({vec['speedup_vs_interpreter']}x)")
assert vec["allocs_per_batch"] <= 50, (
    f"gold suite allocates {vec['allocs_per_batch']} times per batch "
    "in its hot loop (ceiling: 50)")
join = stages["synthetic_join"]
assert join["results_identical"], "synthetic join results diverged"
assert join["rows"] >= 1_000_000, "synthetic join below the 1M-row scale"
assert join["rows_per_s"] >= 9_000_000, (
    f"synthetic join below the 9M rows/s floor ({join['rows_per_s']})")
assert join["allocs_per_batch"] <= 2.0, (
    f"steady-state allocations not pooled: {join['allocs_per_batch']} "
    "allocs per batch in the synthetic join hot loop (floor: 2)")
# Guarded subqueries: the gold statements that nest a SELECT, on a warm
# plan cache under the guarded budgets and with every budget off. The
# per-execution subquery memo must have replayed blocks under the budgets,
# and the budgets must cost at most 2x. Both sides are timed in one
# process, so host drift cancels out of the ratio.
sub = stages["guarded_subqueries"]
assert sub["results_identical"], "guarded subquery results diverged"
assert sub["replays"] > 0, "no uncorrelated subquery replayed from the memo"
assert sub["guarded_ms_median"] <= 2 * sub["unlimited_ms_median"], (
    f"guarded subqueries {sub['guarded_ms_median']}ms vs "
    f"{sub['unlimited_ms_median']}ms unbudgeted: over the 2x gate")
print(f"    guarded_subqueries {sub['statements']} statements: guarded "
      f"{sub['guarded_ms_median']}ms vs unbudgeted {sub['unlimited_ms_median']}ms "
      f"(median of {sub['reps']}), {sub['replays']} replays")
# Tokenizer training: every process that scores naturalness measures trains
# the GPT-like BPE tokenizer once. Five cold trainings of each profile must
# learn the same merges and vocabulary ids, and the GPT-like median must stay
# under the ceiling (the recounting trainer took 640-830 ms on 2 vCPUs).
tok = stages["tokenizer_train"]["profiles"]
for name, leg in tok.items():
    assert leg["identical"], f"{name} trainings learned different merges or vocabularies"
gpt = tok["gpt-bpe"]
assert gpt["ms_median"] <= 200, (
    f"GPT-like tokenizer training median {gpt['ms_median']}ms over the 200ms ceiling")
print(f"    tokenizer_train gpt-bpe median {gpt['ms_median']}ms "
      f"({gpt['merges']} merges, vocabulary {gpt['vocab']}), identical across trainings")
ckpt = stages["checkpoint_resume"]
assert ckpt["identical"], "resume / shard-merge diverged from the cold run"
assert ckpt["resume_hits"] > 0, "50% resume restored no checkpointed cells"
print(f"    checkpoint_resume cold {ckpt['cold_ms']}ms, 50%-resume "
      f"{ckpt['resume50_ms']}ms ({ckpt['resume_speedup']}x), 4-shard "
      f"{ckpt['shard4_ms']}ms + merge {ckpt['merge_ms']}ms")
print(f"    vector_exec {vec['speedup_vs_interpreter']}x vs interpreter, "
      f"{vec['allocs_per_batch']} allocs/batch; synthetic_join "
      f"{join['rows_per_s']} rows/s, {join['allocs_per_batch']} allocs/batch")
PY

echo "==> snails load (serve suite: >=1000 clients, deterministic replay, overload)"
# The in-process serving load suite exits non-zero on any violated gate
# (dropped requests, diverging serial transcripts, unbounded queue); the
# validator then re-checks the BENCH_serve.json artifact it wrote so a
# malformed artifact fails fast even if the run "passed".
"$snails" load --clients 1024 --requests 2 --out BENCH_serve.json
python3 - <<'PY'
import json, sys
try:
    doc = json.load(open("BENCH_serve.json"))
except ValueError as exc:
    sys.exit(f"error: BENCH_serve.json is not valid JSON ({exc}); "
             "re-run './target/release/snails load'")
stages = {s["serve"]: s for s in doc["stages"]}
for name in ("load", "serial_replay", "fault_soak", "overload"):
    assert name in stages, f"serve stage {name} missing from BENCH_serve.json"
load = stages["load"]
assert load["clients"] >= 1000, f"load stage ran only {load['clients']} clients"
assert load["dropped"] == 0, f"{load['dropped']} requests never resolved"
assert load["ok"] + load["errors"] + load["shed"] == load["requests"], \
    "load accounting does not add up"
assert isinstance(load["throughput_rps"], (int, float)), "load stage lacks throughput_rps"
replay = stages["serial_replay"]
assert replay["identical"], "serial replay transcripts or telemetry diverged"
assert replay["transcripts"] == 1 and replay["telemetries"] == 1
assert replay["shed"] > 0, "replay burst never exercised the shed path"
soak = stages["fault_soak"]
assert soak["dropped"] == 0, "fault soak dropped requests"
assert soak["faults_injected"] > 0, "flaky profile injected nothing"
assert soak["tenants_reconciled"], "per-tenant counters leaked under faults"
over = stages["overload"]
assert over["shed_exact"] and over["bounded"] and over["complete"] \
    and over["drain_complete"], f"overload invariants violated: {over}"
print(f"    {load['clients']} clients at {load['throughput_rps']} rps; replay "
      f"identical across threads 1/2/8; overload shed {over['shed']} of 64 at "
      f"depth {over['queue_depth']}")
PY

echo "==> snails serve smoke (unix socket, lockstep load, shutdown frame)"
# A serial server on a real unix socket, driven by a short seeded lockstep
# load, then shut down over its own wire. Gates: zero dropped requests and
# a truthful Goodbye.
serve_sock="$manifest_dir/serve.sock"
serve_log="$manifest_dir/serve.log"
"$snails" serve --socket "$serve_sock" --serial --dbs CWO --tenants alpha,beta \
    > "$serve_log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 200); do [ -S "$serve_sock" ] && break; sleep 0.1; done
[ -S "$serve_sock" ] || {
    echo "error: snails serve never bound its socket" >&2
    cat "$serve_log" >&2
    kill "$serve_pid" 2> /dev/null || true
    exit 1
}
load_out=$("$snails" load --socket "$serve_sock" --dbs CWO --tenants alpha,beta \
    --clients 6 --requests 3 --shutdown)
echo "$load_out" | grep -q '"dropped":0' || {
    echo "error: socket load smoke dropped requests: $load_out" >&2
    exit 1
}
echo "$load_out" | grep -q '"load":"shutdown","responses":18' || {
    echo "error: shutdown Goodbye did not report all 18 responses: $load_out" >&2
    exit 1
}
wait "$serve_pid" || {
    echo "error: snails serve exited non-zero" >&2
    cat "$serve_log" >&2
    exit 1
}
grep -q '"serve":"goodbye","responses":18' "$serve_log" || {
    echo "error: server goodbye line missing or wrong: $(cat "$serve_log")" >&2
    exit 1
}
echo "    6 clients x 3 requests over the socket, 0 dropped, clean goodbye"

echo "==> snails sql (compiled plans: a gold join both ways, then a too-deep statement)"
# The NTSB q27 gold join must answer, and answer the same bytes when its ON
# predicate is rewritten as `(p) OR 1 = 0`, which keeps p's truth value but
# runs the join as a nested loop instead of a hash join. A statement nesting
# 5,000 parentheses must be refused with exit 1 (a parse error), not abort.
q27_select="SELECT e.MODELCAT, COUNT(*) FROM VHMD e JOIN CRASHCASE o ON"
q27_hash=$("$snails" sql NTSB "$q27_select e.MODELCD = o.MODELCD GROUP BY e.MODELCAT")
q27_nested=$("$snails" sql NTSB "$q27_select (e.MODELCD = o.MODELCD) OR 1 = 0 GROUP BY e.MODELCAT")
[ -n "$q27_hash" ] || {
    echo "error: snails sql printed nothing for the q27 gold join" >&2
    exit 1
}
[ "$q27_hash" = "$q27_nested" ] || {
    echo "error: the q27 join differs between its hash and nested-loop forms" >&2
    exit 1
}
deep_sql="SELECT $(printf '(%.0s' $(seq 1 5000))1$(printf ')%.0s' $(seq 1 5000))"
deep_status=0
"$snails" sql CWO "$deep_sql" > /dev/null 2>&1 || deep_status=$?
[ "$deep_status" -eq 1 ] || {
    echo "error: snails sql exited $deep_status on 5,000 nested parentheses (want 1)" >&2
    exit 1
}
echo "    q27 join $(echo "$q27_hash" | wc -l) lines, identical both ways; 5,000-deep statement refused"

echo "==> all checks passed"
