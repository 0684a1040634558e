#!/usr/bin/env bash
# Full offline verification gate: build, test, lint.
#
# Everything runs with --offline — the workspace has no external
# dependencies and must keep building from a cold cargo registry.
# Run from anywhere inside the repository.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline --workspace"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> cargo clippy --workspace --all-targets --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> telemetry smoke test (E3 swap scenario)"
snap="$(mktemp -d)/swap.jsonl"
./target/release/vapres-cli sim --swap yes --metrics "$snap" >/dev/null
steps="$(grep -c '"name":"swap_step"' "$snap")"
if [ "$steps" -ne 9 ]; then
    echo "expected nine swap_step spans in $snap, got $steps" >&2
    exit 1
fi
# grep without -q drains the whole stream: with pipefail, -q's early
# exit would EPIPE the writer and flakily fail the gate.
./target/release/vapres-cli report --metrics "$snap" \
    | grep "0 missed sample slots" >/dev/null \
    || { echo "report did not confirm zero stream interruption" >&2; exit 1; }
rm -rf "$(dirname "$snap")"

echo "==> watchdog smoke test (vapres health on the seamless E3 swap)"
./target/release/vapres-cli health | grep "overall: HEALTHY" >/dev/null \
    || { echo "vapres health did not report HEALTHY on the seamless swap" >&2; exit 1; }
# The halt-and-swap baseline must breach the stream monitors and exit
# non-zero — the health command is a seamlessness regression gate.
if ./target/release/vapres-cli health --halt yes >/dev/null 2>&1; then
    echo "vapres health --halt yes unexpectedly passed" >&2
    exit 1
fi

echo "==> flight recorder smoke test (dump-on-SwapError)"
flight="$(mktemp -d)/flight.jsonl"
if ./target/release/vapres-cli sim --swap yes --samples 2000 \
    --fail-swap yes --flight-dump "$flight" >/dev/null 2>&1; then
    echo "sim --fail-swap yes unexpectedly succeeded" >&2
    exit 1
fi
grep -q '"event":"swap_failed".*"step":"2_reconfigure_spare"' "$flight" \
    || { echo "flight dump missing the failing swap step" >&2; exit 1; }
rm -rf "$(dirname "$flight")"

echo "==> checkpoint round-trip smoke (sim --checkpoint-*, replay, --until-breach)"
ckptdir="$(mktemp -d)"
./target/release/vapres-cli sim --swap yes --samples 2000 \
    --checkpoint-every 300 --checkpoint-dir "$ckptdir" >/dev/null
first_ckpt="$(ls "$ckptdir"/ckpt_*.vapresck | head -n 1)"
[ -n "$first_ckpt" ] \
    || { echo "sim --checkpoint-every produced no checkpoint files" >&2; exit 1; }
./target/release/vapres-cli replay "$first_ckpt" \
    | grep "samples out: 2001" >/dev/null \
    || { echo "replay from $first_ckpt did not finish the scenario" >&2; exit 1; }
# The seamless swap is healthy, so --until-breach must reproduce none.
./target/release/vapres-cli replay "$first_ckpt" --until-breach yes \
    | grep "no breach reproduced" >/dev/null \
    || { echo "replay --until-breach breached on the seamless swap" >&2; exit 1; }
rm -rf "$ckptdir"

echo "==> time-series smoke (sim exports, sweep series jobs-invariant)"
tsdir="$(mktemp -d)"
./target/release/vapres-cli sim --swap yes --samples 2000 --sample-every 100 \
    --timeseries "$tsdir/ts.jsonl" --timeseries-trace "$tsdir/ts_trace.json" \
    --timeseries-csv "$tsdir/ts.csv" >/dev/null
grep -q '"type":"series"' "$tsdir/ts.jsonl" \
    || { echo "time-series JSONL missing series header lines" >&2; exit 1; }
grep -q '"type":"frame"' "$tsdir/ts.jsonl" \
    || { echo "time-series JSONL missing frame lines" >&2; exit 1; }
grep -q '"ph":"C"' "$tsdir/ts_trace.json" \
    || { echo "chrome trace missing counter events" >&2; exit 1; }
head -n 1 "$tsdir/ts.csv" | grep -q '^metric,labels,at_ps,value$' \
    || { echo "time-series CSV missing its header row" >&2; exit 1; }
for j in 1 4; do
    ./target/release/vapres-cli sweep \
        --kr 2 --kl 2,3 --fifo-depth 512 --swap none,seamless \
        --samples 300 --interval 50 --jobs "$j" \
        --sample-every 100 --timeseries "$tsdir/series_j$j.jsonl" >/dev/null
done
cmp -s "$tsdir/series_j1.jsonl" "$tsdir/series_j4.jsonl" \
    || { echo "sweep time-series differs between --jobs 1 and --jobs 4" >&2; exit 1; }
rm -rf "$tsdir"

echo "==> regression diff gate (vapres diff vs committed golden baseline)"
diffdir="$(mktemp -d)"
./target/release/vapres-cli sweep \
    --kr 2 --kl 2,3 --fifo-depth 512 --swap none,seamless \
    --samples 300 --interval 50 --seed 7 \
    --bench "$diffdir/BENCH_sweep.json" >/dev/null
# Self-diff is the trivial no-regression case.
./target/release/vapres-cli diff \
    scripts/golden/BENCH_sweep.json scripts/golden/BENCH_sweep.json >/dev/null \
    || { echo "self-diff of the golden baseline reported a regression" >&2; exit 1; }
# The gate itself: this build's trajectory against the committed one.
./target/release/vapres-cli diff \
    scripts/golden/BENCH_sweep.json "$diffdir/BENCH_sweep.json" \
    || { echo "sweep trajectory regressed vs scripts/golden/BENCH_sweep.json" >&2; exit 1; }
# An injected +20% p99 word latency must trip the gate (exit non-zero).
sed 's/"p99_e2e_ps":250000/"p99_e2e_ps":300000/' "$diffdir/BENCH_sweep.json" \
    > "$diffdir/BENCH_regressed.json"
if ./target/release/vapres-cli diff \
    scripts/golden/BENCH_sweep.json "$diffdir/BENCH_regressed.json" >/dev/null 2>&1; then
    echo "diff missed an injected +20% p99 latency regression" >&2
    exit 1
fi
# Same drill on a telemetry dump: stretch the end-to-end latency
# histogram's bucket width 20% and the percentile comparison must fail.
./target/release/vapres-cli sim --swap yes --samples 2000 --trace-words 10 \
    --metrics "$diffdir/metrics.jsonl" >/dev/null
./target/release/vapres-cli diff "$diffdir/metrics.jsonl" "$diffdir/metrics.jsonl" >/dev/null \
    || { echo "telemetry self-diff reported a regression" >&2; exit 1; }
sed '/"name":"word_e2e_latency_ps"/s/"bucket_width":250000/"bucket_width":300000/' \
    "$diffdir/metrics.jsonl" > "$diffdir/metrics_slow.jsonl"
if ./target/release/vapres-cli diff \
    "$diffdir/metrics.jsonl" "$diffdir/metrics_slow.jsonl" >/dev/null 2>&1; then
    echo "diff missed an injected word-latency histogram regression" >&2
    exit 1
fi
rm -rf "$diffdir"

echo "==> bitstream cache smoke (repeat swap >=10x, jobs/warmth-invariant, diff-gated)"
cachedir="$(mktemp -d)"
cache_sweep() { # $1 = jobs, $2 = output tag, $3 = extra flags
    ./target/release/vapres-cli sweep \
        --kr 2 --kl 2 --fifo-depth 512 --swap seamless \
        --samples 300 --interval 50 --seed 7 --jobs "$1" $3 \
        --bitstream-cache 0,4 --bench "$cachedir/BENCH_$2.json" \
        > "$cachedir/report_$2.txt"
}
cache_sweep 1 j1 ""
cache_sweep 4 j4 ""
cache_sweep 1 cold "--cold yes"
# The cached sweep obeys the same determinism contract as the uncached
# one: byte-identical across job counts and warm/cold starts (reports
# modulo the path-bearing "wrote" line, trajectories modulo "host").
for t in j4 cold; do
    cmp -s <(grep -v '^wrote ' "$cachedir/report_j1.txt") \
           <(grep -v '^wrote ' "$cachedir/report_$t.txt") \
        || { echo "cached sweep report differs between j1 and $t" >&2; exit 1; }
    cmp -s <(grep -v '"host"' "$cachedir/BENCH_j1.json") \
           <(grep -v '"host"' "$cachedir/BENCH_$t.json") \
        || { echo "cached BENCH_sweep.json differs between j1 and $t" >&2; exit 1; }
done
grep -q "repeat swap: cold " "$cachedir/report_j1.txt" \
    || { echo "cached sweep report missing the repeat-swap line" >&2; exit 1; }
# The headline number: the cached replay of a staged bitstream must beat
# the cold CompactFlash configuration by at least 10x.
cold_ps="$(sed -n 's/.*"repeat_swap_cold_ps":\([0-9][0-9]*\).*/\1/p' "$cachedir/BENCH_j1.json")"
warm_ps="$(sed -n 's/.*"repeat_swap_warm_ps":\([0-9][0-9]*\).*/\1/p' "$cachedir/BENCH_j1.json")"
[ -n "$cold_ps" ] && [ -n "$warm_ps" ] \
    || { echo "cached BENCH row missing repeat-swap fields" >&2; exit 1; }
awk -v c="$cold_ps" -v w="$warm_ps" 'BEGIN { exit !(c >= 10 * w) }' \
    || { echo "cached repeat swap not >=10x faster (cold $cold_ps ps, warm $warm_ps ps)" >&2; exit 1; }
# vapres diff gates the new trajectory fields: an eroded cache win
# (slower warm replay) must trip the gate.
./target/release/vapres-cli diff \
    "$cachedir/BENCH_j1.json" "$cachedir/BENCH_j4.json" >/dev/null \
    || { echo "cached trajectory self-diff reported a regression" >&2; exit 1; }
sed "s/\"repeat_swap_warm_ps\":$warm_ps/\"repeat_swap_warm_ps\":9$warm_ps/" \
    "$cachedir/BENCH_j1.json" > "$cachedir/BENCH_eroded.json"
if ./target/release/vapres-cli diff \
    "$cachedir/BENCH_j1.json" "$cachedir/BENCH_eroded.json" >/dev/null 2>&1; then
    echo "diff missed an injected repeat-swap erosion" >&2
    exit 1
fi
rm -rf "$cachedir"

echo "==> live endpoint probe (/metrics /health /flight over raw TCP, no curl)"
livedir="$(mktemp -d)"
./target/release/vapres-cli sim --samples 8000000 --sample-every 100 \
    --live-port 0 > "$livedir/sim.log" &
live_pid=$!
probe() { # $1 = port, $2 = path; prints the whole HTTP response
    ( exec 3<>"/dev/tcp/127.0.0.1/$1" \
        && printf 'GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n' "$2" >&3 \
        && cat <&3 ) 2>/dev/null || true
}
live_port=""
metrics_resp=""
for _ in $(seq 1 100); do
    [ -z "$live_port" ] && live_port="$(sed -n \
        's|live endpoint: http://127.0.0.1:\([0-9]*\)/.*|\1|p' "$livedir/sim.log")"
    if [ -n "$live_port" ]; then
        metrics_resp="$(probe "$live_port" /metrics)"
        case "$metrics_resp" in *vapres_*) break ;; esac
    fi
    sleep 0.1
done
case "$metrics_resp" in
    *"200 OK"*vapres_*) : ;;
    *) echo "live /metrics never served a Prometheus payload mid-run" >&2; exit 1 ;;
esac
probe "$live_port" /health | grep -q '"type":"health"' \
    || { echo "live /health missing the watchdog summary line" >&2; exit 1; }
probe "$live_port" /flight | grep -q "200 OK" \
    || { echo "live /flight did not answer 200" >&2; exit 1; }
probe "$live_port" /nope | grep -q "404 Not Found" \
    || { echo "live endpoint did not 404 an unknown path" >&2; exit 1; }
wait "$live_pid" \
    || { echo "sim --live-port run failed" >&2; exit 1; }
rm -rf "$livedir"

echo "==> sweep smoke test (small grid, parallel, warm == cold, deterministic merge)"
sweepdir="$(mktemp -d)"
vapres_bin="$PWD/target/release/vapres-cli"
sweep_grid() { # $1 = job count, $2 = output subdir, $3 = extra flags
    mkdir -p "$sweepdir/$2"
    (cd "$sweepdir/$2" && "$vapres_bin" sweep \
        --kr 2 --kl 2,3 --fifo-depth 512 --swap none,seamless \
        --samples 300 --interval 50 --jobs "$1" $3 \
        --jsonl merged.jsonl --bench BENCH_sweep.json > report.txt)
}
sweep_grid 1 seq ""
sweep_grid 4 par ""
sweep_grid 1 cold-seq "--cold yes"
sweep_grid 4 cold-par "--cold yes"
# Warm-start forks every scenario from a restored prefix checkpoint;
# its outputs must be byte-identical to unshared cold runs at every
# job count.
for d in par cold-seq cold-par; do
    for f in report.txt merged.jsonl; do
        cmp -s "$sweepdir/seq/$f" "$sweepdir/$d/$f" \
            || { echo "sweep $f differs between seq and $d" >&2; exit 1; }
    done
    # The trajectory is invariant except its one "host" context line
    # (CPU count, --jobs, runner mode, wall-clock), which necessarily
    # differs between the runs.
    cmp -s <(grep -v '"host"' "$sweepdir/seq/BENCH_sweep.json") \
           <(grep -v '"host"' "$sweepdir/$d/BENCH_sweep.json") \
        || { echo "sweep BENCH_sweep.json differs between seq and $d" >&2; exit 1; }
done
grep -q '"host": {"cpus": [0-9]*, "jobs": 4, "mode": "warm", "wall_ms": [0-9]*}' \
    "$sweepdir/par/BENCH_sweep.json" \
    || { echo "BENCH_sweep.json missing the host context line" >&2; exit 1; }
grep -q '"mode": "cold"' "$sweepdir/cold-par/BENCH_sweep.json" \
    || { echo "cold BENCH_sweep.json did not record cold mode" >&2; exit 1; }
grep -q "aggregate: 4 ok, 0 failed" "$sweepdir/seq/report.txt" \
    || { echo "sweep report missing healthy aggregate line" >&2; exit 1; }
rm -rf "$sweepdir"

echo "==> fabric batching smoke (batched route work <=20% of dense on E3)"
cargo bench -q --offline -p vapres-bench --bench fabric >/dev/null
awk -F'[,:{}"]+' '
    /"scenario"/ {
        scen=""; mode=""; work=-1; words=-1
        for (i = 1; i < NF; i++) {
            if ($i == "scenario")   scen  = $(i + 1)
            if ($i == "mode")       mode  = $(i + 1)
            if ($i == "route_work") work  = $(i + 1)
            if ($i == "words")      words = $(i + 1)
        }
        if (mode == "dense") { dw[scen] = work; dn[scen] = words }
        if (mode == "batched") { bw[scen] = work; bn[scen] = words }
    }
    END {
        bad = 0
        if (length(dw) == 0) { print "no scenarios parsed from BENCH_fabric.json"; bad = 1 }
        for (s in dw) {
            printf "    %s: batched route work %.2f%% of dense, %d words\n", \
                s, 100 * bw[s] / dw[s], bn[s]
            if (bn[s] != dn[s]) {
                printf "    words differ on %s: dense %d batched %d\n", s, dn[s], bn[s]
                bad = 1
            }
            if (bw[s] > 0.20 * dw[s]) {
                printf "    batched route work on %s exceeds 20%% of dense\n", s
                bad = 1
            }
        }
        exit bad
    }' crates/bench/BENCH_fabric.json \
    || { echo "fabric batching smoke failed" >&2; exit 1; }

echo "==> profiler smoke (vapres profile E3, cost-model work plane jobs/warmth-invariant)"
profdir="$(mktemp -d)"
./target/release/vapres-cli profile --samples 2000 --top 5 \
    --flame "$profdir/flame.folded" --cost-model "$profdir/cost.json" \
    > "$profdir/profile.txt"
grep -q "top 5 scopes by host self time" "$profdir/profile.txt" \
    || { echo "vapres profile missing its top-N table" >&2; exit 1; }
grep -q "self%" "$profdir/profile.txt" \
    || { echo "vapres profile top-N table missing its header" >&2; exit 1; }
grep -q "run;" "$profdir/flame.folded" \
    || { echo "collapsed flamegraph missing nested run; stacks" >&2; exit 1; }
grep -q '"cost_model"' "$profdir/cost.json" \
    || { echo "cost model missing its version stamp" >&2; exit 1; }
grep -q '"component":"icap/words"' "$profdir/cost.json" \
    || { echo "cost model missing the icap/words component" >&2; exit 1; }
# The diff subcommand understands cost models: self-diff passes even
# though host_ns would never reproduce, and a work-unit drift trips it.
./target/release/vapres-cli diff "$profdir/cost.json" "$profdir/cost.json" >/dev/null \
    || { echo "cost-model self-diff reported a regression" >&2; exit 1; }
sed 's/"component":"icap\/words","work_units":\([0-9]*\)/"component":"icap\/words","work_units":1\1/' \
    "$profdir/cost.json" > "$profdir/cost_drift.json"
if ./target/release/vapres-cli diff \
    "$profdir/cost.json" "$profdir/cost_drift.json" >/dev/null 2>&1; then
    echo "diff missed an injected work-unit drift in the cost model" >&2
    exit 1
fi
# The work-unit plane of a profiled sweep is simulation state: identical
# across job counts and warm/cold once the machine-dependent host fields
# (host_ns and the derived ns_per_unit) are stripped.
profile_sweep() { # $1 = jobs, $2 = extra flags, $3 = output tag
    ./target/release/vapres-cli sweep \
        --kr 2 --kl 2,3 --fifo-depth 512 --swap none,seamless \
        --samples 300 --interval 50 --seed 7 --jobs "$1" $2 \
        --profile yes --cost-model "$profdir/model_$3.json" >/dev/null
    sed 's/"host_ns":.*//' "$profdir/model_$3.json" > "$profdir/work_$3.txt"
}
profile_sweep 1 "" j1
profile_sweep 4 "" j4
profile_sweep 1 "--cold yes" cold
cmp -s "$profdir/work_j1.txt" "$profdir/work_j4.txt" \
    || { echo "sweep cost-model work plane differs between --jobs 1 and 4" >&2; exit 1; }
cmp -s "$profdir/work_j1.txt" "$profdir/work_cold.txt" \
    || { echo "sweep cost-model work plane differs between warm and cold" >&2; exit 1; }
grep -q '"component":"fabric/route' "$profdir/model_j1.json" \
    || { echo "merged sweep cost model missing per-route components" >&2; exit 1; }
rm -rf "$profdir"

echo "==> fleet smoke (healthy run, revisiting swaps, warm == cold, diff-gated)"
fleetdir="$(mktemp -d)"
fleet_run() { # $1 = swaps, $2 = output tag
    ./target/release/vapres-cli fleet \
        --rsbs 6 --swaps "$1" --samples 200 --interval 50 \
        --bench "$fleetdir/BENCH_$2.json" > "$fleetdir/report_$2.txt"
}
fleet_run 6 once
grep -q 'aggregate: 6 healthy, 0 breached, 0 undrained' "$fleetdir/report_once.txt" \
    || { echo "fleet report missing healthy aggregate line" >&2; exit 1; }
# Twelve swaps over six RSBs visit every RSB twice: the second visit
# swaps back through the channels the first one re-routed. The command
# exits non-zero on any failed swap, and every row must read "ok".
fleet_run 12 twice \
    || { echo "fleet with revisiting swaps failed" >&2; exit 1; }
ok_rows="$(grep -c '"outcome":"ok"' "$fleetdir/BENCH_twice.json")"
if [ "$ok_rows" -ne 6 ]; then
    echo "expected six ok outcomes with revisiting swaps, got $ok_rows" >&2
    exit 1
fi
# A fleet resumed from its post-setup checkpoint renders identically
# to a cold run (the fleet warm-start contract). The grep insists the
# test ran, so a renamed test cannot pass this check vacuously.
cargo test -q --offline -p vapres-kpn --lib fleet::tests::warm_start_matches_cold \
    -- --exact | grep "test result: ok. 1 passed" >/dev/null \
    || { echo "fleet warm start diverged from the cold run" >&2; exit 1; }
# vapres diff understands fleet trajectories: a self-diff passes, and an
# injected work-unit drift on the deterministic plane must trip it.
./target/release/vapres-cli diff \
    "$fleetdir/BENCH_once.json" "$fleetdir/BENCH_once.json" >/dev/null \
    || { echo "fleet trajectory self-diff reported a regression" >&2; exit 1; }
sed 's/"work_units":\([0-9][0-9]*\)/"work_units":1\1/' \
    "$fleetdir/BENCH_once.json" > "$fleetdir/BENCH_drift.json"
if ./target/release/vapres-cli diff \
    "$fleetdir/BENCH_once.json" "$fleetdir/BENCH_drift.json" >/dev/null 2>&1; then
    echo "diff missed an injected fleet work-unit drift" >&2
    exit 1
fi
rm -rf "$fleetdir"

echo "==> overhead guards (disabled instrumentation, sampling, profiling within 2% of bare)"
# The disabled-telemetry and disabled-sampler paths must each stay one
# predictable branch per site. At ~1 ns/iter the measurement is dominated
# by code-alignment noise that swings both ways around the true value, so
# the guard takes the best of up to four runs per metric: noise dips
# under the threshold quickly, a genuine regression shifts every run.
min_m=""
min_s=""
min_p=""
for _ in 1 2 3 4; do
    lines="$(cargo bench -q --offline -p vapres-bench --bench micro 2>/dev/null \
        | grep 'overhead:')"
    echo "$lines" | sed 's/^ */    /'
    m="$(echo "$lines" | sed -n 's/.*metrics overhead: disabled \([+-][0-9.]*\)%.*/\1/p')"
    s="$(echo "$lines" | sed -n 's/.*sampling overhead: disabled \([+-][0-9.]*\)%.*/\1/p')"
    p="$(echo "$lines" | sed -n 's/.*profile overhead: disabled \([+-][0-9.]*\)%.*/\1/p')"
    [ -n "$m" ] && [ -n "$s" ] && [ -n "$p" ] \
        || { echo "overhead lines missing from micro bench" >&2; exit 1; }
    min_m="$(awk -v a="${min_m:-$m}" -v b="$m" 'BEGIN { print (a < b) ? a : b }')"
    min_s="$(awk -v a="${min_s:-$s}" -v b="$s" 'BEGIN { print (a < b) ? a : b }')"
    min_p="$(awk -v a="${min_p:-$p}" -v b="$p" 'BEGIN { print (a < b) ? a : b }')"
    if awk -v m="$min_m" -v s="$min_s" -v p="$min_p" \
        'BEGIN { exit !(m <= 2.0 && s <= 2.0 && p <= 2.0) }'; then
        break
    fi
done
awk -v m="$min_m" -v s="$min_s" -v p="$min_p" \
    'BEGIN { exit !(m <= 2.0 && s <= 2.0 && p <= 2.0) }' \
    || { echo "disabled instrumentation/sampling/profiling overhead exceeds 2% of bare loop" >&2; exit 1; }

echo "==> verify OK"
