#!/usr/bin/env bash
# Offline CI gate: formatting, lints, release build, full test suite.
#
# The workspace has zero third-party dependencies, so everything here
# runs with --offline and must pass on a machine with no network access.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo clippy --offline --workspace --all-targets -- -D warnings
# Rustdoc gate: a broken or private intra-doc link (say, to a deleted
# item) fails the build.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Doc-drift gate: every `--bin <name>` and `scripts/<name>.sh` that
# README.md, DESIGN.md or EXPERIMENTS.md tells a reader to run must
# exist, so a deleted or renamed tool cannot linger in the docs.
DOCS=(README.md DESIGN.md EXPERIMENTS.md)
for bin in $(grep -ohE -e '--bin [A-Za-z0-9_-]+' "${DOCS[@]}" | awk '{print $2}' | sort -u); do
    [ -f "crates/bench/src/bin/$bin.rs" ] || {
        echo "docs name --bin $bin, but crates/bench/src/bin/$bin.rs does not exist" >&2
        exit 1
    }
done
for script in $(grep -ohE 'scripts/[A-Za-z0-9_-]+\.sh' "${DOCS[@]}" | sort -u); do
    [ -f "$script" ] || {
        echo "docs name $script, but it does not exist" >&2
        exit 1
    }
done
# Every CamelCase name those docs put in backticks must be a `struct`,
# `enum`, `trait`, `type` or enum variant that `crates/*/src` or
# `perfbench/src` defines (or a std type, or the paper's
# `GetAllocation`), so a deleted or renamed type cannot linger either.
python3 - "${DOCS[@]}" <<'PY'
import glob, re, sys
ALLOWED = {
    "Arc", "AtomicBool", "AtomicU64", "AtomicUsize", "BTreeMap", "BTreeSet",
    "BinaryHeap", "Box", "Cell", "Clone", "Debug", "Default", "Display",
    "Duration", "Err", "FromStr", "HashMap", "HashSet", "Instant", "Iterator",
    "Mutex", "None", "Ok", "Option", "PartialEq", "Rc", "RefCell", "Result",
    "RwLock", "Send", "Some", "String", "Sync", "TcpListener", "TcpStream",
    "Vec", "VecDeque", "GetAllocation",
}
def top_level(body):
    # `body` with every nested (), [] and {} group dropped.
    out, depth = [], 0
    for ch in body:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)
defined = set(ALLOWED)
sources = glob.glob("crates/*/src/**/*.rs", recursive=True)
sources += glob.glob("perfbench/src/**/*.rs", recursive=True)
for path in sources:
    src = "\n".join(line.split("//", 1)[0] for line in open(path))
    defined.update(re.findall(r'\b(?:struct|enum|trait|type)\s+([A-Z]\w*)', src))
    for m in re.finditer(r'\benum\s+\w+[^{;]*\{', src):
        depth, end = 1, m.end()
        while depth:
            depth += {"{": 1, "}": -1}.get(src[end], 0)
            end += 1
        for variant in top_level(src[m.end():end - 1]).split(","):
            name = re.match(r'\s*([A-Z]\w*)', variant)
            if name:
                defined.add(name.group(1))
stale = []
for doc in sys.argv[1:]:
    # Inline code only: fenced blocks go, and a span ends at a blank line.
    text = re.sub(r'^\s*```.*?^\s*```', '', open(doc).read(), flags=re.M | re.S)
    for span in re.findall(r'`((?:[^`\n]|\n(?!\s*\n))+)`', text):
        for name in re.findall(r'(?<![\w+-])[A-Z][a-z]\w*', span):
            if name not in defined:
                stale.append(f"{doc}: `{span}` names {name}, which no crate defines")
if stale:
    sys.exit("\n".join(stale))
PY

# Crate-graph gate: every workspace crate that a package's
# `[dependencies]` names must be used by that package's `src/`
# (`name::` or `use name`) outside comments, so an edge no code needs
# cannot linger in the layering (DESIGN §3). Test-only uses belong in
# `[dev-dependencies]`, which this does not check.
python3 - Cargo.toml crates/*/Cargo.toml <<'PY'
import os, re, sys
pkgs = {}
for toml in sys.argv[1:]:
    text = open(toml).read()
    name = re.search(r'^name = "([^"]+)"', text, re.M).group(1)
    pkgs[name] = (os.path.dirname(toml) or ".", text)
unused = []
for name, (root, text) in sorted(pkgs.items()):
    section = re.search(r'^\[dependencies\]\n(.*?)(?=^\[|\Z)', text, re.M | re.S)
    deps = re.findall(r'^([A-Za-z0-9_-]+)\s*[.=]', section.group(1) if section else "", re.M)
    for dep in (d for d in deps if d in pkgs):
        ident = dep.replace("-", "_")
        use = re.compile(rf'\b{ident}\s*::|\buse\s+{ident}\b')
        code = (line.split("//", 1)[0]
                for dirpath, _, files in os.walk(os.path.join(root, "src"))
                for f in files if f.endswith(".rs")
                for line in open(os.path.join(dirpath, f)))
        if not any(use.search(c) for c in code):
            unused.append(f"{root}/Cargo.toml: [dependencies] names {dep}, "
                          f"but {root}/src never uses it")
if unused:
    sys.exit("\n".join(unused))
PY

cargo build --workspace --release --offline
cargo test --workspace -q --offline

# Observability smoke: one sampled + traced sweep, then validate every
# emitted JSONL line and trace document through the strict parser.
# hetmem-trace here and below is the release binary the workspace build
# above produced.
OBS_DIR=target/ci-obs
rm -rf "$OBS_DIR"
cargo run --release --offline -q -p hetmem-bench --bin fig3 -- \
    --quick --workloads lbm --quiet \
    --out "$OBS_DIR" --sample-cycles 20000 \
    --trace "$OBS_DIR/trace" --trace-budget 20000
target/release/hetmem-trace check "$OBS_DIR/fig3.jsonl" "$OBS_DIR"/trace/*.json
target/release/hetmem-trace summary "$OBS_DIR/fig3.jsonl" --top 3
# The same sweep at sampled fidelity, traced too: its interval lines
# must carry both the measured (`detail`) windows and the
# `extrapolated` tail, and its traces come from the tracer riding
# behind the sampled engine's own model observer.
OBS_SAMPLED="$OBS_DIR/sampled"
cargo run --release --offline -q -p hetmem-bench --bin fig3 -- \
    --quick --workloads lbm --quiet --fidelity sampled \
    --out "$OBS_SAMPLED" --sample-cycles 20000 \
    --trace "$OBS_SAMPLED/trace" --trace-budget 20000
for mode in detail extrapolated; do
    grep -qF "\"mode\":\"$mode\"" "$OBS_SAMPLED/fig3.jsonl" || {
        echo "sampled fig3 wrote no \"mode\":\"$mode\" interval line" >&2
        exit 1
    }
done
target/release/hetmem-trace check "$OBS_SAMPLED/fig3.jsonl" "$OBS_SAMPLED"/trace/*.json
# Interval windows tile: within each run (one `config_hash`), every
# `interval` line of both sweeps starts where the previous one ended,
# and the last one ends on the run line's `cycles`.
python3 - "$OBS_DIR/fig3.jsonl" "$OBS_SAMPLED/fig3.jsonl" <<'PY'
import json, sys
for path in sys.argv[1:]:
    cycles, ends = {}, {}
    with open(path) as f:
        for n, line in enumerate(f, 1):
            rec = json.loads(line)
            run = rec["config_hash"]
            if rec["record"] == "run":
                cycles[run] = rec["cycles"]
                continue
            start, end = rec["start_cycle"], rec["end_cycle"]
            if run in ends and start != ends[run]:
                sys.exit(f"{path}:{n}: interval starts at cycle {start}, "
                         f"but the run's previous one ended at {ends[run]}")
            if end < start:
                sys.exit(f"{path}:{n}: interval ends at {end} before its start {start}")
            ends[run] = end
    if not ends or ends.keys() != cycles.keys():
        sys.exit(f"{path}: not every run wrote interval lines")
    for run, end in ends.items():
        if end != cycles[run]:
            sys.exit(f"{path}: run {run} ends at cycle {cycles[run]}, its last interval at {end}")
PY
# Run lines carry the `estimated` block exactly when the run was
# sampled: never at full fidelity, always at sampled fidelity.
if grep -qE '^\{"record":"run".*"estimated":' "$OBS_DIR/fig3.jsonl"; then
    echo "full-fidelity fig3 wrote a run line with an \"estimated\" block" >&2
    exit 1
fi
if grep -E '^\{"record":"run"' "$OBS_SAMPLED/fig3.jsonl" | grep -vF '"estimated":' >/dev/null; then
    echo "sampled fig3 wrote a run line without an \"estimated\" block" >&2
    exit 1
fi

# Ablations smoke: the design-choice ablations (DESIGN §5) must print
# one table each for L2 MSHRs, L2 slice size and random-draw vs exact
# placement.
ABLATIONS=$(cargo run --release --offline -q -p hetmem-bench --bin ablations -- \
    --quick --quiet)
for title in "L2 MSHRs per slice" "L2 slice capacity" "random-draw vs exact 30C-70B"; do
    grep -qF "Ablation — $title" <<< "$ABLATIONS" || {
        echo "ablations printed no '$title' table" >&2
        exit 1
    }
done

# Figure determinism smoke: every figure grid prints and writes the same
# bytes at one worker thread as at two. `ext_reactive`, which `run_all`
# does not run, covers a grid's own profiling sweep (its Oracle cells);
# the observed fig5 covers the order of its two sweeps' interval lines
# and the names of their trace files.
DET_DIR=target/ci-determinism
rm -rf "$DET_DIR"
for threads in 1 2; do
    mkdir -p "$DET_DIR/t$threads"
    for bin in run_all ext_energy ext_reactive; do
        "target/release/$bin" --quick --quiet --threads "$threads" \
            --out "$DET_DIR/t$threads/$bin" > "$DET_DIR/t$threads-$bin.stdout"
    done
    FIG5_DIR="$DET_DIR/t$threads/fig5-observed"
    target/release/fig5 --quick --quiet --threads "$threads" --out "$FIG5_DIR" \
        --sample-cycles 20000 --trace "$FIG5_DIR/trace" \
        > "$DET_DIR/t$threads-fig5-observed.stdout"
done
for run in run_all ext_energy ext_reactive fig5-observed; do
    cmp "$DET_DIR/t1-$run.stdout" "$DET_DIR/t2-$run.stdout"
done
diff -r "$DET_DIR/t1" "$DET_DIR/t2"

# hetmem-serve smoke: boot the service on an ephemeral loopback port,
# drive it with the line client (whose exit code already implies a
# strict parse of each response), check that a repeated simulate is a
# byte-identical cache hit, shut down cleanly, and strict-validate the
# captured responses plus the server's own telemetry.
SERVE_DIR=target/ci-serve
rm -rf "$SERVE_DIR"
mkdir -p "$SERVE_DIR"
cargo build --release --offline -q -p hetmem-bench \
    --bin hetmem-serve --bin hetmem-client
target/release/hetmem-serve \
    --addr 127.0.0.1:0 --port-file "$SERVE_DIR/port" --out "$SERVE_DIR" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    [ -s "$SERVE_DIR/port" ] && break
    sleep 0.1
done
ADDR="127.0.0.1:$(cat "$SERVE_DIR/port")"
client() { target/release/hetmem-client "$ADDR" "$@"; }

client place workload=bfs capacity_pct=10 > "$SERVE_DIR/place.jsonl"
grep -q '"hints":\[' "$SERVE_DIR/place.jsonl"
client simulate workload=hotspot policy=LOCAL mem_ops=4000 sms=2 \
    > "$SERVE_DIR/sim1.jsonl"
client simulate workload=hotspot policy=LOCAL mem_ops=4000 sms=2 \
    > "$SERVE_DIR/sim2.jsonl"
cmp "$SERVE_DIR/sim1.jsonl" "$SERVE_DIR/sim2.jsonl"  # cache hit: same bytes
client stats > "$SERVE_DIR/stats.jsonl"
grep -q '"hits":1' "$SERVE_DIR/stats.jsonl"

# Sampled-fidelity smoke: fidelity=sampled must return a run record
# with an estimated block (cached under its own content address);
# fidelity=full must be byte-identical to omitting the field — same
# cache entry, same bytes; any other value is the stable
# invalid-fidelity code.
client --fidelity sampled simulate workload=hotspot policy=LOCAL \
    mem_ops=4000 sms=2 > "$SERVE_DIR/sim-sampled.jsonl"
grep -q '"estimated":{' "$SERVE_DIR/sim-sampled.jsonl"
client --fidelity full simulate workload=hotspot policy=LOCAL \
    mem_ops=4000 sms=2 > "$SERVE_DIR/sim-full.jsonl"
cmp "$SERVE_DIR/sim-full.jsonl" "$SERVE_DIR/sim1.jsonl"
if client --fidelity approximate simulate workload=hotspot policy=LOCAL \
    mem_ops=4000 sms=2 > "$SERVE_DIR/sim-badfid.jsonl"; then
    echo "server accepted an invalid fidelity" >&2
    exit 1
fi
grep -q '"code":"invalid-fidelity"' "$SERVE_DIR/sim-badfid.jsonl"

# Pipelined + batch traffic against the poll(2) front end (the default
# core): 20 request lines written before a single response is read must
# all be answered on the same connection, and a protocol-v2 batch
# envelope must fan its sub-requests through one dispatch with each
# sub-response byte-identical to the bare request's.
exec 3<>"/dev/tcp/127.0.0.1/$(cat "$SERVE_DIR/port")"
for i in $(seq 1 20); do
    printf '{"id":%d,"op":"stats"}\n' "$i" >&3
done
for _ in $(seq 1 20); do
    IFS= read -r line <&3
    printf '%s\n' "$line"
done > "$SERVE_DIR/pipelined.jsonl"
exec 3<&- 3>&-
[ "$(grep -c '"ok":true' "$SERVE_DIR/pipelined.jsonl")" -eq 20 ]
client --batch 8 simulate workload=hotspot policy=LOCAL mem_ops=4000 sms=2 \
    > "$SERVE_DIR/batch.jsonl"
[ "$(wc -l < "$SERVE_DIR/batch.jsonl")" -eq 8 ]
cmp <(head -1 "$SERVE_DIR/batch.jsonl") "$SERVE_DIR/sim1.jsonl"

# Metrics/tracing smoke: a traced request's id must be echoed on both
# the success and error paths, the metrics op must serve JSON and a
# valid Prometheus exposition whose per-op histogram counts conserve
# (hetmem-top --check), and the span log must render to a Chrome trace.
cargo build --release --offline -q -p hetmem-bench --bin hetmem-top
client --request-id ci-trace-1 --trace simulate \
    workload=hotspot policy=LOCAL mem_ops=4000 sms=2 > "$SERVE_DIR/sim3.jsonl"
grep -q '"request_id":"ci-trace-1"' "$SERVE_DIR/sim3.jsonl"
client --request-id ci-err-1 simulate workload=no-such-app \
    > "$SERVE_DIR/err.jsonl" || true
grep -q '"request_id":"ci-err-1"' "$SERVE_DIR/err.jsonl"
grep -q '"code":"unknown-workload"' "$SERVE_DIR/err.jsonl"
client metrics > "$SERVE_DIR/metrics.json"
grep -q 'hm_requests_total' "$SERVE_DIR/metrics.json"
client metrics format=prometheus > "$SERVE_DIR/metrics-prom.json"
target/release/hetmem-trace promcheck "$SERVE_DIR/metrics-prom.json"
target/release/hetmem-top "$ADDR" --once --json --check > "$SERVE_DIR/top.json"
grep -q '"p99_us"' "$SERVE_DIR/top.json"

client shutdown | grep -q '"draining":true'
wait "$SERVE_PID"  # graceful drain: the server must exit 0 on its own
trap - EXIT
target/release/hetmem-trace spans "$SERVE_DIR/serve.jsonl" --request ci-trace-1 \
    --out "$SERVE_DIR/spans.json"
target/release/hetmem-trace check "$SERVE_DIR"/*.jsonl "$SERVE_DIR/spans.json"

# Chaos smoke: the loopback test injects seeded worker panics, stalls,
# torn writes, and cache corruption, and asserts every request ends
# byte-correct or with a stable error code.
cargo test --release --offline -q -p hetmem-bench --test chaos

# Crash-safe resume smoke: run a checkpointed sweep, SIGKILL it
# mid-flight (latency faults widen the kill window), resume from the
# checkpoint, and require the merged output to be byte-identical to an
# uninterrupted run.
SWEEP_DIR=target/ci-sweep
rm -rf "$SWEEP_DIR"
mkdir -p "$SWEEP_DIR"
cargo build --release --offline -q -p hetmem-bench --bin hetmem-sweep
SWEEP_ARGS=(--workloads bfs,hotspot --policies LOCAL,INTERLEAVE,BW-AWARE
    --mem-ops 3000 --sms 2 --threads 2)
target/release/hetmem-sweep "${SWEEP_ARGS[@]}" --out "$SWEEP_DIR/clean.jsonl"
target/release/hetmem-sweep "${SWEEP_ARGS[@]}" \
    --checkpoint "$SWEEP_DIR/sweep.ckpt" --out "$SWEEP_DIR/resumed.jsonl" \
    --faults seed=5,latency=1,latency-ms=400 &
SWEEP_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SWEEP_DIR/sweep.ckpt" ] && break
    sleep 0.05
done
kill -9 "$SWEEP_PID" 2>/dev/null || true
wait "$SWEEP_PID" 2>/dev/null || true
[ -s "$SWEEP_DIR/sweep.ckpt" ]  # the kill must land after >=1 checkpointed point
[ "$(wc -l < "$SWEEP_DIR/sweep.ckpt")" -lt 6 ]  # ...but before the sweep finished
target/release/hetmem-sweep "${SWEEP_ARGS[@]}" \
    --checkpoint "$SWEEP_DIR/sweep.ckpt" --out "$SWEEP_DIR/resumed.jsonl" \
    2> "$SWEEP_DIR/resume.log"
grep -q resuming "$SWEEP_DIR/resume.log"
cmp "$SWEEP_DIR/clean.jsonl" "$SWEEP_DIR/resumed.jsonl"  # resume: same bytes
target/release/hetmem-trace check "$SWEEP_DIR/clean.jsonl"

# Online-migration smoke: a capacity-constrained MIGRATE sweep must
# actually move pages, the LOCAL point next to it must carry no
# migration block (zero cost when disabled), and the whole sweep must
# be byte-identical at 1 and 4 worker threads. ('+' separates the
# MIGRATE keys because --policies splits its list on commas.)
MIG_DIR=target/ci-migrate
rm -rf "$MIG_DIR"
mkdir -p "$MIG_DIR"
MIG_ARGS=(--workloads hotspot --policies "LOCAL,MIGRATE:epoch=2000+hot=2"
    --mem-ops 4000 --sms 2 --capacity-pct 10)
target/release/hetmem-sweep "${MIG_ARGS[@]}" --threads 1 \
    --out "$MIG_DIR/t1.jsonl"
target/release/hetmem-sweep "${MIG_ARGS[@]}" --threads 4 \
    --out "$MIG_DIR/t4.jsonl"
cmp "$MIG_DIR/t1.jsonl" "$MIG_DIR/t4.jsonl"  # engine determinism
grep -q '"pages_migrated":[1-9]' "$MIG_DIR/t1.jsonl"  # pages moved
if grep '"config":"LOCAL"' "$MIG_DIR/t1.jsonl" | grep -q '"migration"'; then
    echo "non-MIGRATE run leaked a migration block" >&2
    exit 1
fi
target/release/hetmem-trace check "$MIG_DIR/t1.jsonl"

# perfbench gates. `perfbench <workload> <seed>` runs one 5 s untraced
# benchmark, echoes its result line (the last stdout line) to stderr,
# fails unless it reports `"failed":0`, and prints the line for the
# caller to read metrics from.
perfbench() {
    local result
    result=$(python3 perfbench/run.py --workload "$1" --seed "$2" \
        --seconds 5 --trace 0 | tail -1)
    echo "$result" >&2
    python3 -c 'import json, sys; sys.exit(json.loads(sys.argv[1])["failed"] != 0)' \
        "$result" || {
        echo "perfbench $1 (seed $2) reported failed operations" >&2
        return 1
    }
    printf '%s\n' "$result"
}

# Digest gate: sim-full at seed 1 checks each 100k-op point's digest
# against perfbench/reference.txt, so a change to simulator output fails
# here at 8x the golden suite's scale.
FULL_RESULT=$(perfbench sim-full 1)

# Sampled determinism and accuracy gate: sim-sampled fails a point whose
# repeats disagree on its digest or whose extrapolated bandwidth is more
# than 15% off the full-fidelity bandwidth. At seed 7 every trace seed
# differs, so the repeat-digest check exercises the skip_ops drain on
# other streams and the 15% bound holds on other points. The tighter 5%
# bound on sgemm and lbm at 200k ops is
# tests/sampled_fidelity.rs::sampled_bandwidth_tracks_full_on_steady_state_workloads,
# which `cargo test --workspace` above runs.
SAMPLED_RESULT=$(perfbench sim-sampled 1)
perfbench sim-sampled 7 > /dev/null

# Sampled speed gate: the fast-forward engine must simulate at least 5x
# the memory ops per host second of full fidelity. Both rates come from
# the seed-1 runs above, rescaled to the same reference host speed.
python3 - "$FULL_RESULT" "$SAMPLED_RESULT" <<'PY'
import json, sys
full, sampled = (json.loads(a)["metrics"]["mem_ops_per_s"]["value"] for a in sys.argv[1:])
print(f"sampled vs full mem_ops_per_s: {sampled:.3g} / {full:.3g} = {sampled / full:.1f}x")
if sampled < 5 * full:
    sys.exit("sampled fidelity is less than 5x faster than full fidelity")
PY

# Reactor traffic gate: fleet-mix drives a hetmem-fleet router and its
# hetmem-serve backends, both on the shared poll(2) reactor, with
# open-loop place/simulate/batch traffic.
perfbench fleet-mix 1 > /dev/null

# Fleet smoke: consistent-hash router + 3 supervised hetmem-serve
# backends. The same sweep runs against one single process and against
# the fleet with one backend SIGKILL'd mid-sweep; the router's failover
# (ring successor + supervised respawn) must keep every response line
# byte-identical. 20 `place` lines pipelined down one connection must
# come back from the router, sorted by id, with the single server's
# bytes. hetmem-top's conservation gate must hold against the router,
# and `shutdown` must drain the whole fleet, children included.
FLEET_DIR=target/ci-fleet
rm -rf "$FLEET_DIR"
mkdir -p "$FLEET_DIR"
cargo build --release --offline -q -p hetmem-bench --bin hetmem-fleet

sweep_half1() { # $@: client command; appends one response line per call
    "$@" simulate workload=hotspot policy=LOCAL mem_ops=3000 sms=2
    "$@" simulate workload=hotspot policy=INTERLEAVE mem_ops=3000 sms=2
    "$@" simulate workload=bfs policy=BW-AWARE mem_ops=3000 sms=2
}
sweep_half2() {
    "$@" simulate workload=bfs policy=LOCAL mem_ops=4500 sms=2
    "$@" simulate workload=hotspot policy=BW-AWARE mem_ops=4500 sms=2
    "$@" place workload=bfs capacity_pct=20
    "$@" --batch 4 simulate workload=hotspot policy=LOCAL mem_ops=3000 sms=2
}
pipeline_place() { # $1: port; answers to 20 pipelined lines, sorted by id
    exec 3<>"/dev/tcp/127.0.0.1/$1"
    for i in $(seq 1 20); do
        printf '{"id":%d,"op":"place","params":{"workload":"bfs","capacity_pct":%d}}\n' \
            "$i" "$((i * 5))" >&3
    done
    for _ in $(seq 1 20); do
        IFS= read -r line <&3
        printf '%s\n' "$line"
    done | sort -t: -k2,2n
    exec 3<&- 3>&-
}

target/release/hetmem-serve --addr 127.0.0.1:0 \
    --port-file "$FLEET_DIR/single.port" &
SINGLE_PID=$!
trap 'kill "$SINGLE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    [ -s "$FLEET_DIR/single.port" ] && break
    sleep 0.1
done
SADDR="127.0.0.1:$(cat "$FLEET_DIR/single.port")"
sclient() { target/release/hetmem-client "$SADDR" "$@"; }
{ sweep_half1 sclient; sweep_half2 sclient; } > "$FLEET_DIR/single.jsonl"
pipeline_place "$(cat "$FLEET_DIR/single.port")" > "$FLEET_DIR/single-pipelined.jsonl"
[ "$(grep -c '"hints":\[' "$FLEET_DIR/single-pipelined.jsonl")" -eq 20 ]
sclient shutdown > /dev/null
wait "$SINGLE_PID"
trap - EXIT

target/release/hetmem-fleet --addr 127.0.0.1:0 --backends 3 --seed 7 \
    --max-batch 16 --conn-buf 131072 \
    --serve-bin target/release/hetmem-serve \
    --port-file "$FLEET_DIR/fleet.port" &
FLEET_PID=$!
trap 'kill "$FLEET_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    [ -s "$FLEET_DIR/fleet.port" ] && break
    sleep 0.1
done
FADDR="127.0.0.1:$(cat "$FLEET_DIR/fleet.port")"
fclient() { target/release/hetmem-client --retries 8 "$FADDR" "$@"; }
sweep_half1 fclient > "$FLEET_DIR/fleet.jsonl"
BACKEND_PID=$(pgrep -P "$FLEET_PID" | head -1)
kill -9 "$BACKEND_PID"  # SIGKILL one backend mid-sweep
sweep_half2 fclient >> "$FLEET_DIR/fleet.jsonl"
cmp "$FLEET_DIR/single.jsonl" "$FLEET_DIR/fleet.jsonl"  # failover: same bytes
pipeline_place "$(cat "$FLEET_DIR/fleet.port")" > "$FLEET_DIR/fleet-pipelined.jsonl"
cmp "$FLEET_DIR/single-pipelined.jsonl" "$FLEET_DIR/fleet-pipelined.jsonl"
# The router's front end reads the serving flags it shares with
# hetmem-serve: a 17-slot batch is over its --max-batch 16, so the
# router itself refuses the envelope and nothing is forwarded.
if fclient --batch 17 simulate workload=hotspot policy=LOCAL mem_ops=3000 sms=2 \
    > "$FLEET_DIR/batch17.jsonl"; then
    echo "fleet accepted a batch over its --max-batch" >&2
    exit 1
fi
grep -q '"code":"batch-too-large"' "$FLEET_DIR/batch17.jsonl"
grep -qF 'batch carries 17 sub-requests, server accepts at most 16' "$FLEET_DIR/batch17.jsonl"
target/release/hetmem-top "$FADDR" --once --json --check \
    > "$FLEET_DIR/top.json"
grep -q '"p99_us"' "$FLEET_DIR/top.json"
fclient metrics format=prometheus > "$FLEET_DIR/metrics-prom.json"
target/release/hetmem-trace promcheck "$FLEET_DIR/metrics-prom.json"
fclient stats > "$FLEET_DIR/stats.jsonl"
grep -q '"worker_restarts":1' "$FLEET_DIR/stats.jsonl"  # the kill was supervised
fclient shutdown | grep -q '"draining":true'
wait "$FLEET_PID"  # graceful drain: router and children exit on their own
trap - EXIT
