#!/usr/bin/env bash
# Repo verification: tier-1 build + tests, then the perf-path gates
# (benches must compile, hot crates must be clippy-clean), then an
# end-to-end instrumented `profile` run on a tiny synthetic matrix.
#
# Run from anywhere: ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rrlint: workspace static analysis (gate, stale entries deny) =="
cargo run --release -q -p analyzer --bin rrlint -- check --deny-stale

echo "== rrlint: injected violations must flip the gate =="
lint_probe="$(mktemp -d /tmp/rr_lint_probe.XXXXXX)"
trap 'rm -rf "$lint_probe"' EXIT
cp Cargo.toml lint-baseline.json "$lint_probe/"
cp -r crates "$lint_probe/crates"

# inject FILE: appends stdin to the scratch copy, saving the pristine
# version for probe_check to restore.
inject() {
    cp "$lint_probe/$1" "$lint_probe/pristine.rs.bak"
    cat >> "$lint_probe/$1"
}
# probe_check RULE FILE: the mutated scratch tree must fail the gate
# (exit 1) and report RULE; restores FILE afterwards.
probe_check() {
    local rule="$1" target="$2" out code
    set +e
    out="$(cargo run --release -q -p analyzer --bin rrlint -- check \
        --root "$lint_probe" 2>&1)"
    code=$?
    set -e
    mv "$lint_probe/pristine.rs.bak" "$lint_probe/$target"
    if [ "$code" -ne 1 ]; then
        echo "rrlint probe: expected exit 1 on injected $rule, got $code" >&2
        echo "$out" >&2
        exit 1
    fi
    if ! grep -qF "$rule" <<<"$out"; then
        echo "rrlint probe: injected $rule violation not reported" >&2
        echo "$out" >&2
        exit 1
    fi
    echo "  injected $rule flips check to exit 1: ok"
}

inject crates/core/src/lib.rs <<'EOF'

/// rrlint e2e probe: a deliberate float-equality violation.
pub fn rrlint_probe_rr002(x: f64) -> bool {
    x == 0.25
}
EOF
probe_check RR002 crates/core/src/lib.rs

inject crates/serve/src/lib.rs <<'EOF'

/// rrlint e2e probe: a lock guard held across a blocking call.
pub fn rrlint_probe_rr010(m: &std::sync::Mutex<u64>) -> u64 {
    let g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    std::thread::sleep(std::time::Duration::from_millis(1));
    *g
}
EOF
probe_check RR010 crates/serve/src/lib.rs

inject crates/core/src/covariance.rs <<'EOF'

/// rrlint e2e probe: hash-order iteration on the numeric result path.
pub fn rrlint_probe_rr012() -> f64 {
    let m: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    let mut s = 0.0;
    for v in m.values() {
        s += *v;
    }
    s
}
EOF
probe_check RR012 crates/core/src/covariance.rs

inject crates/core/src/lib.rs <<'EOF'

fn rrlint_probe_rr013_leaf() {
    panic!("rrlint probe");
}

/// rrlint e2e probe: a panic reachable from a pub entry point.
pub fn rrlint_probe_rr013() {
    rrlint_probe_rr013_leaf();
}
EOF
probe_check RR013 crates/core/src/lib.rs

# The fold's AVX2 dispatch is the one suppressed `unsafe`; any other must
# still fail the gate.
inject crates/core/src/lib.rs <<'EOF'

/// rrlint e2e probe: an unsafe block with no suppression.
pub fn rrlint_probe_rr006() {
    unsafe {}
}
EOF
probe_check RR006 crates/core/src/lib.rs

rm -rf "$lint_probe"

# The workspace depends on std alone, so this builds offline, and
# `default-members` makes `cargo test` cover every crate: unit,
# integration, property and doc tests, plus the examples' build.
echo "== tier 1: build + tests =="
cargo build --release
cargo test -q

# The CI step "Bit-identity and serve suites (release)": the covariance
# kernel vectorizes only when optimized, the two CSV scan workers race
# differently when parsing is fast, and some serve races only show when
# answers are fast.
echo "== bit-identity, CSV scan and serve suites (release) =="
cargo test --release -q -p ratio-rules --lib
cargo test --release -q --test scan_equivalence --test golden --test robustness --test distributed_chaos
cargo test --release -q -p dataset --lib
cargo test --release -q -p ratio-rules-cli
cargo test --release -q --test end_to_end
cargo test --release -q --test serve_e2e --test registry_e2e
cargo test --release -q -p serve --lib

echo "== numeric-sanitizer: NaN-injection tests (debug build) =="
cargo test -q -p ratio-rules --features numeric-sanitizer sanitizer
cargo test -q -p linalg --features numeric-sanitizer sanitize

echo "== benches compile (no run) =="
cargo bench -p bench --no-run

echo "== bench --quick: scan-path divergence smoke =="
quick_out="$(cargo bench -q -p bench --bench covariance -- --quick)"
if ! grep -qF "quick bench OK" <<<"$quick_out"; then
    echo "covariance --quick smoke did not report agreement" >&2
    echo "$quick_out" >&2
    exit 1
fi

echo "== clippy -D warnings (whole workspace) =="
cargo clippy --workspace -- -D warnings

echo "== profile end-to-end (synthetic, instrumented) =="
metrics_file="$(mktemp /tmp/rr_profile_metrics.XXXXXX.json)"
trap 'rm -f "$metrics_file"' EXIT
out="$(cargo run --release -q --bin ratio-rules -- profile --rows 50 --k 1 --threads 2 --metrics-out "$metrics_file")"
for needle in "spans:" "covariance_scan" "eigensolve" "metrics:" \
              "eigen_iterations" "solver_cache_hits" "ge_h_shard_max_ns"; do
    if ! grep -qF "$needle" <<<"$out"; then
        echo "profile output missing '$needle'" >&2
        echo "$out" >&2
        exit 1
    fi
done
grep -qF "covariance_rows_scanned_total" "$metrics_file" || {
    echo "metrics file missing covariance counter" >&2
    exit 1
}
# The spans: tree nests by parent link: the scan and the solve print one
# level deeper than `mine`, before the next span at mine's depth.
under_mine="$(sed -n '/^spans:$/,/^$/p' <<<"$out" | awk '
    { match($0, /^ */); depth = RLENGTH / 2; name = $1 }
    name == "mine" { mine = depth; inside = 1; next }
    inside && depth <= mine { inside = 0 }
    inside && depth == mine + 1 { print name }')"
for child in covariance_scan eigensolve; do
    if ! grep -qx "$child" <<<"$under_mine"; then
        echo "profile spans: '$child' is not nested under 'mine'" >&2
        echo "$out" >&2
        exit 1
    fi
done

echo "== chaos: fault injection end-to-end (exit codes 0/2/3) =="
chaos_dir="$(mktemp -d /tmp/rr_chaos.XXXXXX)"
trap 'rm -f "$metrics_file"; rm -rf "$chaos_dir"' EXIT
csv="$chaos_dir/chaos.csv"
{
    echo "bread,milk,butter"
    for i in $(seq 0 199); do
        echo "$((10 + i)),$((20 + 2 * i)),$((5 + i))"
    done
} > "$csv"
bin="target/release/ratio-rules"

# Clean streaming mine under quarantine: exit 0.
"$bin" mine --input "$csv" --output "$chaos_dir/m0.json" --k 1 --max-bad-rows 5 \
    > /dev/null
echo "  clean scan: exit 0 ok"

# 1% and 10% fault rates inside a generous budget: model mines, exit 2.
for rate in 0.01 0.10; do
    set +e
    out="$("$bin" mine --input "$csv" --output "$chaos_dir/m_$rate.json" --k 1 \
        --fault-rate "$rate" --max-bad-rows 150 --retries 3)"
    code=$?
    set -e
    if [ "$code" -ne 2 ]; then
        echo "fault rate $rate: expected exit 2 (degraded), got $code" >&2
        exit 1
    fi
    grep -qF "quarantined" <<<"$out" || {
        echo "fault rate $rate: report missing quarantine summary" >&2
        exit 1
    }
    echo "  fault rate $rate: exit 2 ok"
done

# Budget blown: exit 3 with the dedicated message.
set +e
err="$("$bin" mine --input "$csv" --output "$chaos_dir/m3.json" --k 1 \
    --fault-rate 0.5 --max-bad-rows 1 2>&1 >/dev/null)"
code=$?
set -e
if [ "$code" -ne 3 ]; then
    echo "expected exit 3 (budget exhausted), got $code" >&2
    exit 1
fi
grep -qF "error budget exhausted" <<<"$err" || {
    echo "budget error message missing: $err" >&2
    exit 1
}
echo "  budget exhaustion: exit 3 ok"

# Strict mode (the default) still fails fast: exit 1.
set +e
"$bin" mine --input "$csv" --output "$chaos_dir/m1.json" --k 1 \
    --fault-rate 0.5 --retries 1 > /dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 1 ]; then
    echo "expected strict fail-fast exit 1, got $code" >&2
    exit 1
fi
echo "  strict fail-fast: exit 1 ok"

# Forced total eigensolve failure degrades to the col-avgs floor: exit 2.
set +e
out="$("$bin" mine --input "$csv" --output "$chaos_dir/m_floor.json" \
    --degrade --ladder none)"
code=$?
set -e
if [ "$code" -ne 2 ]; then
    echo "expected col-avgs degradation exit 2, got $code" >&2
    exit 1
fi
grep -qF "col-avgs baseline" <<<"$out" || {
    echo "degradation output missing col-avgs marker: $out" >&2
    exit 1
}
echo "  eigensolve ladder floor: exit 2 ok"

# Checkpoint + resume across two processes.
"$bin" mine --input "$csv" --output "$chaos_dir/m_cp.json" --k 1 \
    --checkpoint "$chaos_dir/scan_cp.json" > /dev/null
out="$("$bin" mine --input "$csv" --output "$chaos_dir/m_cp2.json" --k 1 \
    --resume "$chaos_dir/scan_cp.json")"
grep -qF "resumed from checkpoint" <<<"$out" || {
    echo "resume output missing checkpoint marker: $out" >&2
    exit 1
}
echo "  checkpoint/resume: ok"

echo "== distributed chaos: workers + coordinator vs oracle (exit 0/2/3) =="
RR_BIN="$bin" ./scripts/chaos_e2e.sh --quick

echo "== serve: HTTP smoke (healthz, predict, metrics) =="
serve_port=17878
serve_pid=""
trap 'rm -f "$metrics_file"; rm -rf "$chaos_dir"; [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null' EXIT
"$bin" serve --model "$chaos_dir/m0.json" --port "$serve_port" \
    --batch-window-us 100 > /dev/null &
serve_pid=$!

# Dependency-free HTTP over bash's /dev/tcp. The server keeps
# connections alive by default now, so each helper asks for
# `connection: close` — the close after the answer is what lets `cat`
# terminate. The keep-alive path gets its own pipelined check below.
http_get() {
    exec 3<>"/dev/tcp/127.0.0.1/$serve_port"
    printf 'GET %s HTTP/1.1\r\nhost: verify\r\nconnection: close\r\n\r\n' "$1" >&3
    cat <&3
    exec 3>&- 3<&-
}
http_post() {
    exec 3<>"/dev/tcp/127.0.0.1/$serve_port"
    printf 'POST %s HTTP/1.1\r\nhost: verify\r\ncontent-length: %s\r\nconnection: close\r\n\r\n%s' \
        "$1" "${#2}" "$2" >&3
    cat <&3
    exec 3>&- 3<&-
}

for _ in $(seq 1 50); do
    if health="$(http_get /healthz 2>/dev/null)" && \
       grep -qF '"status":"ok"' <<<"$health"; then
        break
    fi
    health=""
    sleep 0.1
done
if [ -z "$health" ]; then
    echo "serve: /healthz never came up on port $serve_port" >&2
    exit 1
fi
echo "  /healthz: ok"

predicted="$(http_post /predict '{"rows":[[12.0,null,7.0]]}')"
grep -qF 'HTTP/1.1 200' <<<"$predicted" && grep -qF '"values"' <<<"$predicted" || {
    echo "serve: /predict failed: $predicted" >&2
    exit 1
}
echo "  /predict: ok"

metrics="$(http_get /metrics)"
for needle in serve_requests_total serve_rows_predicted_total serve_batch_size; do
    grep -qF "$needle" <<<"$metrics" || {
        echo "serve: /metrics missing $needle" >&2
        exit 1
    }
done
echo "  /metrics: ok"

# Tail-latency quantile families must be exposed as Prometheus
# summaries: per-endpoint request latency plus the pipeline stages.
for needle in serve_request_us_predict serve_latency_us serve_queue_wait_us \
              serve_solve_us; do
    grep -qF "$needle" <<<"$metrics" || {
        echo "serve: /metrics missing quantile family $needle" >&2
        exit 1
    }
done
grep -qF 'quantile="0.99"' <<<"$metrics" || {
    echo "serve: /metrics missing summary quantile labels" >&2
    exit 1
}
echo "  /metrics quantile families: ok"

# The flight recorder endpoint returns well-formed JSONL; the /predict
# above was batch-coalesced with the recorder armed, so the ring is
# non-empty.
flight_body="$(http_get /debug/flightrecorder | sed '1,/^\r\{0,1\}$/d')"
flight_lines=0
while IFS= read -r line; do
    [ -z "$line" ] && continue
    case "$line" in
        \{*\}) ;;
        *) echo "serve: /debug/flightrecorder non-JSON line: $line" >&2; exit 1 ;;
    esac
    grep -qF '"event":' <<<"$line" && grep -qF '"seq":' <<<"$line" || {
        echo "serve: flight event missing fields: $line" >&2
        exit 1
    }
    flight_lines=$((flight_lines + 1))
done <<<"$flight_body"
if [ "$flight_lines" -lt 1 ]; then
    echo "serve: flight recorder empty after a coalesced /predict" >&2
    exit 1
fi
echo "  /debug/flightrecorder: $flight_lines JSONL events ok"

grep -qF '"traces"' <<<"$(http_get /debug/trace)" || {
    echo "serve: /debug/trace did not list retained traces" >&2
    exit 1
}
echo "  /debug/trace: ok"

# Keep-alive + pipelining: two /predict requests written back-to-back on
# ONE connection; the second asks to close so `cat` terminates. Both
# must answer 200, proving the persistent-connection parser resyncs
# across pipelined request boundaries.
ka_body='{"rows":[[12.0,null,7.0]]}'
exec 3<>"/dev/tcp/127.0.0.1/$serve_port"
printf 'POST /predict HTTP/1.1\r\nhost: verify\r\ncontent-length: %s\r\nconnection: keep-alive\r\n\r\n%sPOST /predict HTTP/1.1\r\nhost: verify\r\ncontent-length: %s\r\nconnection: close\r\n\r\n%s' \
    "${#ka_body}" "$ka_body" "${#ka_body}" "$ka_body" >&3
pipelined="$(cat <&3)"
exec 3>&- 3<&-
ka_count="$(grep -cF 'HTTP/1.1 200' <<<"$pipelined" || true)"
if [ "$ka_count" -ne 2 ]; then
    echo "serve: pipelined keep-alive expected 2x 200, got $ka_count" >&2
    echo "$pipelined" >&2
    exit 1
fi
echo "  keep-alive pipelining: 2 responses on one connection ok"

# Hot swap: mine a second model from different data, publish it into
# the running server's registry over the wire, and check that /predict
# now answers from version 2 while /models reports the swap.
csv2="$chaos_dir/swap.csv"
{
    echo "bread,milk,butter"
    for i in $(seq 0 99); do
        echo "$((7 + 3 * i)),$((11 + i)),$((2 + 2 * i))"
    done
} > "$csv2"
"$bin" mine --input "$csv2" --output "$chaos_dir/m_v2.json" --k 1 > /dev/null
pub_out="$("$bin" publish --model "$chaos_dir/m_v2.json" --name verify-v2 \
    --addr "127.0.0.1:$serve_port")"
grep -qF "published:" <<<"$pub_out" || {
    echo "serve: publish failed: $pub_out" >&2
    exit 1
}
swapped="$(http_post /predict '{"rows":[[12.0,null,7.0]]}')"
grep -qF 'HTTP/1.1 200' <<<"$swapped" && grep -qF 'x-model-version: 2' <<<"$swapped" || {
    echo "serve: post-publish /predict did not answer from version 2: $swapped" >&2
    exit 1
}
models="$(http_get /models)"
grep -qF '"active_version":2' <<<"$models" && grep -qF '"verify-v2"' <<<"$models" || {
    echo "serve: /models did not report the hot swap: $models" >&2
    exit 1
}
echo "  hot swap: publish -> v2 active, stamped on /predict ok"
kill "$serve_pid"
serve_pid=""

echo "== serve-bench --quick: loadgen smoke (non-recording) =="
sb_out="$("$bin" serve-bench --quick --requests 30 --concurrency 3)"
if ! grep -qF "quick serve bench OK" <<<"$sb_out"; then
    echo "serve-bench --quick did not report oracle agreement" >&2
    echo "$sb_out" >&2
    exit 1
fi
grep -qF " 0 errors" <<<"$sb_out" || {
    echo "serve-bench --quick saw request errors" >&2
    echo "$sb_out" >&2
    exit 1
}
echo "  serve-bench quick: ok"

echo "verify: OK"
