#!/usr/bin/env bash
# Tier-1 gate: everything here must pass offline (no network, no
# registry) on a clean checkout. ROADMAP.md points at this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== tests (offline) =="
cargo test -q --offline --workspace

echo "== clippy (deny warnings) =="
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "clippy not installed; skipping lint step"
fi

echo "== benchmark build + self-test (offline) =="
# perfbench is its own workspace over the program's crates, so the
# workspace steps above do not compile it.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== CLI smoke =="
EV=target/release/easyview
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
printf 'main;work;inner 40\nmain;idle 10\n' > "$SMOKE_DIR/smoke.folded"
"$EV" info "$SMOKE_DIR/smoke.folded" > /dev/null
# Determinism contract: identical rendering regardless of thread count.
# (Cache *hits* on repeated identical requests are per-process and are
# asserted by the ev-cli unit tests; `stats` below checks the view-cache
# surface.)
"$EV" view "$SMOKE_DIR/smoke.folded" --threads 1 > "$SMOKE_DIR/seq.txt"
for threads in 2 4; do
    "$EV" view "$SMOKE_DIR/smoke.folded" --threads "$threads" > "$SMOKE_DIR/par.txt"
    if ! diff "$SMOKE_DIR/seq.txt" "$SMOKE_DIR/par.txt" > /dev/null; then
        echo "FAIL: view output differs between --threads 1 and --threads $threads" >&2
        exit 1
    fi
done
# Plain-text labels start right after their frame's boundary pipe.
for label in main work inner idle; do
    grep -qF "|$label " "$SMOKE_DIR/seq.txt" \
        || { echo "FAIL: plain view does not show the label $label whole" >&2; exit 1; }
done
"$EV" diff "$SMOKE_DIR/smoke.folded" "$SMOKE_DIR/smoke.folded" --threads 4 > /dev/null
"$EV" aggregate "$SMOKE_DIR/smoke.folded" "$SMOKE_DIR/smoke.folded" --threads 4 > /dev/null
# The same contract for the multi-profile commands, on two profiles
# that differ (added, deleted, grown and shrunk contexts).
printf 'main;work;inner 25\nmain;idle 10\nmain;fresh 5\n' > "$SMOKE_DIR/smoke2.folded"
for cmd in diff aggregate; do
    "$EV" "$cmd" "$SMOKE_DIR/smoke.folded" "$SMOKE_DIR/smoke2.folded" --threads 1 \
        > "$SMOKE_DIR/${cmd}_seq.txt"
    "$EV" "$cmd" "$SMOKE_DIR/smoke.folded" "$SMOKE_DIR/smoke2.folded" --threads 4 \
        > "$SMOKE_DIR/${cmd}_par.txt"
    if ! diff "$SMOKE_DIR/${cmd}_seq.txt" "$SMOKE_DIR/${cmd}_par.txt" > /dev/null; then
        echo "FAIL: $cmd output differs between --threads 1 and --threads 4" >&2
        exit 1
    fi
done

echo "== trace smoke (self-profiling) =="
# Dogfood loop: a traced flame run over a gzip'd pprof input must emit
# an EasyView profile that easyview itself renders.
"$EV" convert "$SMOKE_DIR/smoke.folded" "$SMOKE_DIR/smoke.pprof" > /dev/null
"$EV" flame "$SMOKE_DIR/smoke.pprof" \
    --trace-out "$SMOKE_DIR/self.evpf" --trace-format easyview > /dev/null
"$EV" flame "$SMOKE_DIR/self.evpf" > /dev/null
for stage in flate.inflate wire.decode formats.pprof_samples core.cct_build \
             convert.pprof analysis.metric_view flame.layout flame.render; do
    "$EV" search "$SMOKE_DIR/self.evpf" "$stage" | grep -q "$stage" \
        || { echo "FAIL: self-profile misses the $stage stage" >&2; exit 1; }
done
# Chrome export must be JSON the chrome importer itself accepts.
"$EV" flame "$SMOKE_DIR/smoke.pprof" \
    --trace-out "$SMOKE_DIR/self.trace.json" --trace-format chrome > /dev/null
"$EV" info "$SMOKE_DIR/self.trace.json" > /dev/null \
    || { echo "FAIL: chrome trace export does not re-import" >&2; exit 1; }
"$EV" stats "$SMOKE_DIR/smoke.pprof" > "$SMOKE_DIR/stats.txt"
grep -q '^view-cache: .* miss' "$SMOKE_DIR/stats.txt" \
    || { echo "FAIL: stats did not print the view-cache line" >&2; exit 1; }
grep -q '^counter ' "$SMOKE_DIR/stats.txt" \
    || { echo "FAIL: stats did not print pipeline counters" >&2; exit 1; }
grep -q '^counter flate\.lut_primary ' "$SMOKE_DIR/stats.txt" \
    || { echo "FAIL: stats did not report the decode fast-path counters" >&2; exit 1; }
# The one-pass pprof decoder must actually run (nonzero field/sample
# counters) when a pprof fixture is loaded.
grep -Eq '^counter wire\.onepass_fields [1-9]' "$SMOKE_DIR/stats.txt" \
    || { echo "FAIL: stats did not report nonzero wire.onepass_fields" >&2; exit 1; }
grep -Eq '^counter wire\.onepass_samples [1-9]' "$SMOKE_DIR/stats.txt" \
    || { echo "FAIL: stats did not report nonzero wire.onepass_samples" >&2; exit 1; }
# The decoded CCT's child lists are derived once, for the first view.
grep -q '^counter core\.cct_children 1$' "$SMOKE_DIR/stats.txt" \
    || { echo "FAIL: stats did not report one core.cct_children derivation" >&2; exit 1; }
# The sample replay goes into the CCT in batches; a small profile is one.
grep -q '^counter core\.cct_batches 1$' "$SMOKE_DIR/stats.txt" \
    || { echo "FAIL: stats did not report one core.cct_batches flush" >&2; exit 1; }

echo "== multi-member gzip smoke =="
# The golden 3-member fixture must render identically at any thread
# count and report one flate.members count per gzip member.
MM=tests/fixtures/multi_member.pb.gz
"$EV" info "$MM" > /dev/null
"$EV" view "$MM" --threads 1 > "$SMOKE_DIR/mm_seq.txt"
for threads in 2 8; do
    "$EV" view "$MM" --threads "$threads" > "$SMOKE_DIR/mm_par.txt"
    if ! diff "$SMOKE_DIR/mm_seq.txt" "$SMOKE_DIR/mm_par.txt" > /dev/null; then
        echo "FAIL: multi-member view differs between --threads 1 and --threads $threads" >&2
        exit 1
    fi
done
"$EV" stats "$MM" > "$SMOKE_DIR/mm_stats.txt"
grep -q '^counter flate\.members 3$' "$SMOKE_DIR/mm_stats.txt" \
    || { echo "FAIL: stats did not count 3 gzip members" >&2; exit 1; }

echo "== ingest smoke =="
# Runs the ingest bench in quick mode over the golden gzip'd pprof
# fixtures: fast and reference decoders must be byte-identical, the
# decompressed bytes must match pinned digests, and the fast path must
# clear the (relaxed, noise-tolerant) speedup gate. Quick runs write
# their reports under target/, so the committed full-run BENCH_*.json
# at the root stay as they are.
INGEST_REPORT=target/BENCH_ingest.json
rm -f "$INGEST_REPORT"
target/release/ingest --quick \
    || { echo "FAIL: ingest bench (quick) failed" >&2; exit 1; }
[ -s "$INGEST_REPORT" ] \
    || { echo "FAIL: $INGEST_REPORT missing or empty" >&2; exit 1; }
grep -q '"schema": "ev-bench-ingest/v2"' "$INGEST_REPORT" \
    || { echo "FAIL: $INGEST_REPORT malformed (schema key missing)" >&2; exit 1; }
# Per workload: the decode's walk, sample-resolve and CCT-build phases,
# timed by EasyView's own spans, and the heap the decoded profile keeps;
# once per run, the share of an open that spans cost with tracing off.
for row in wire_walk_secs resolve_secs cct_build_secs heap_bytes_per_node \
    disabled_share_of_open; do
    grep -q "\"$row\"" "$INGEST_REPORT" \
        || { echo "FAIL: $INGEST_REPORT misses the $row row" >&2; exit 1; }
done

echo "== serve smoke =="
# Runs the serve bench in quick mode: deterministic IDE session replay
# against ONE shared concurrent EVP server (per-session digest-checked
# across thread counts), per-method latency quantiles, and a
# flight-recorder chrome export that must re-import through our own
# parser.
SERVE_REPORT=target/BENCH_serve.json
rm -f "$SERVE_REPORT"
target/release/serve --quick --flight-out "$SMOKE_DIR/flight.trace.json" \
    || { echo "FAIL: serve bench (quick) failed" >&2; exit 1; }
[ -s "$SERVE_REPORT" ] \
    || { echo "FAIL: $SERVE_REPORT missing or empty" >&2; exit 1; }
grep -q '"schema": "ev-bench-serve/v3"' "$SERVE_REPORT" \
    || { echo "FAIL: $SERVE_REPORT malformed (schema key missing)" >&2; exit 1; }
grep -q '"coalesced"' "$SERVE_REPORT" \
    || { echo "FAIL: $SERVE_REPORT misses the view-cache coalescing stats" >&2; exit 1; }
grep -Eq '"ide.requests": [1-9]' "$SERVE_REPORT" \
    || { echo "FAIL: $SERVE_REPORT has no ide.requests count" >&2; exit 1; }
grep -q '"ide.latency.profile/codeLink"' "$SERVE_REPORT" \
    || { echo "FAIL: $SERVE_REPORT misses per-method latency histograms" >&2; exit 1; }
grep -q '"ide.phase.' "$SERVE_REPORT" \
    || { echo "FAIL: $SERVE_REPORT misses the ide.phase.* histograms" >&2; exit 1; }
# Cold bottom-up and flat views against the retained transforms.
grep -q '"coldViews"' "$SERVE_REPORT" \
    || { echo "FAIL: $SERVE_REPORT misses the coldViews row" >&2; exit 1; }
# Cold flameGraph misses (budgeted layout plus direct write) against
# the retained whole layout plus Value plus to_string, split by stage.
for row in flameGraphMiss layoutMillis writeMillis; do
    grep -q "\"$row\"" "$SERVE_REPORT" \
        || { echo "FAIL: $SERVE_REPORT misses the $row row" >&2; exit 1; }
done
# The exported flight recording is chrome trace JSON our importer reads.
[ -s "$SMOKE_DIR/flight.trace.json" ] \
    || { echo "FAIL: serve --flight-out wrote nothing" >&2; exit 1; }
"$EV" info "$SMOKE_DIR/flight.trace.json" > /dev/null \
    || { echo "FAIL: flight-recorder chrome export does not re-import" >&2; exit 1; }

echo "== script engine smoke =="
# A real analysis script must print the same at any thread count (the
# pure map_nodes callback fans out over ev-par), and the script-engine
# counters must surface in stats.
cat > "$SMOKE_DIR/sample.evs" <<'EOF'
let scores = map_nodes(fn(n) {
    fn damp(v, k, self) {
        if k < 1 { return v; }
        return self(v * 0.5 + 1, k - 1, self);
    }
    return damp(value(n, "samples"), 4, damp);
});
let acc = 0;
for s in scores { acc = acc + s; }
print(node_count(), floor(acc));
EOF
"$EV" script "$SMOKE_DIR/smoke.pprof" "$SMOKE_DIR/sample.evs" > "$SMOKE_DIR/script_vm.txt"
for threads in 1 2 8; do
    "$EV" script "$SMOKE_DIR/smoke.pprof" "$SMOKE_DIR/sample.evs" --threads "$threads" \
        > "$SMOKE_DIR/script_par.txt"
    if ! diff "$SMOKE_DIR/script_vm.txt" "$SMOKE_DIR/script_par.txt" > /dev/null; then
        echo "FAIL: script output differs at --threads $threads" >&2
        exit 1
    fi
done
"$EV" stats "$SMOKE_DIR/smoke.pprof" --script "$SMOKE_DIR/sample.evs" --threads 2 \
    > "$SMOKE_DIR/script_stats.txt"
grep -Eq '^counter script\.vm_ops [1-9]' "$SMOKE_DIR/script_stats.txt" \
    || { echo "FAIL: stats did not report nonzero script.vm_ops" >&2; exit 1; }
grep -Eq '^counter script\.chunks_compiled [1-9]' "$SMOKE_DIR/script_stats.txt" \
    || { echo "FAIL: stats did not report nonzero script.chunks_compiled" >&2; exit 1; }
grep -Eq '^counter script\.par_visits [1-9]' "$SMOKE_DIR/script_stats.txt" \
    || { echo "FAIL: stats did not report nonzero script.par_visits" >&2; exit 1; }

echo "== script bench smoke =="
# Runs the script bench in quick mode: differential pre-gate (VM ==
# reference == parallel on every workload) plus the relaxed 2x speedup
# gate on the CCT fold.
SCRIPT_REPORT=target/BENCH_script.json
rm -f "$SCRIPT_REPORT"
target/release/script --quick \
    || { echo "FAIL: script bench (quick) failed" >&2; exit 1; }
[ -s "$SCRIPT_REPORT" ] \
    || { echo "FAIL: $SCRIPT_REPORT missing or empty" >&2; exit 1; }
grep -q '"schema": "ev-bench-script/v2"' "$SCRIPT_REPORT" \
    || { echo "FAIL: $SCRIPT_REPORT malformed (schema key missing)" >&2; exit 1; }
grep -q '"aggregate"' "$SCRIPT_REPORT" \
    || { echo "FAIL: $SCRIPT_REPORT misses the aggregate thread-scaling row" >&2; exit 1; }

echo "== stats --json smoke =="
"$EV" stats "$SMOKE_DIR/smoke.pprof" --json > "$SMOKE_DIR/stats.json"
grep -q '"schema": "easyview-stats/v1"' "$SMOKE_DIR/stats.json" \
    || { echo "FAIL: stats --json schema missing" >&2; exit 1; }
grep -q '"counters"' "$SMOKE_DIR/stats.json" \
    || { echo "FAIL: stats --json misses the counters section" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$SMOKE_DIR/stats.json" \
        || { echo "FAIL: stats --json is not valid JSON" >&2; exit 1; }
fi

echo "== OK =="
