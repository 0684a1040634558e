//! `sweep_grid`: the E3 design-space grid through
//! `run_sweep_with(.., JOBS, run_scenario)` with a cold prefix cache.
//!
//! The grid crosses kr × kl × FIFO depth × {seamless, halt} × bitstream
//! cache {off, on}: 32 scenarios. The cached/uncached twins make a
//! bitstream-cache change show on half the rows and bypass the other
//! half. The seed shuffles the order of every axis, so it moves which
//! scenario gets which index, scenario seed and worker, while the work
//! stays the same.
//!
//! Set-up (`setup_s`) is the grid's construction, expansion and
//! validation. The timed phase (`wall_s`) is the sweep itself plus the
//! report it feeds: `merge_telemetry` + `write_jsonl`, and a re-harvest
//! of every row from its own telemetry registry.

use std::time::Instant;

use vapres::core::scenario::{
    merge_telemetry, run_sweep_with, ScenarioResult, ScenarioSummary, SwapMethod, SwapOutcome,
    SweepGrid,
};
use vapres::core::SplitMix64;
use vapres::kpn::{clear_prefix_cache, run_scenario, run_scenario_cold};

use crate::host::{median, peak_rss_mib};
use crate::trace::{self_time_metrics, total_s, Span, Tracer};
use crate::{paper_err_pct, Iteration, Row};

/// Worker threads for the sweep.
pub const JOBS: usize = 2;
/// Input words per scenario.
const SAMPLES: u32 = 20_000;
/// Staged-bitstream cache capacity of the cached twin.
const CACHE_ENTRIES: usize = 4;

fn shuffled<T>(mut v: Vec<T>, rng: &mut SplitMix64) -> Vec<T> {
    for i in (1..v.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

fn grid(seed: u64) -> SweepGrid {
    let mut rng = SplitMix64::new(seed);
    SweepGrid {
        kr: shuffled(vec![2, 3], &mut rng),
        kl: shuffled(vec![2, 3], &mut rng),
        fifo_depth: shuffled(vec![64, 512], &mut rng),
        prr_clock_mhz: vec![100],
        swap: shuffled(vec![SwapMethod::Seamless, SwapMethod::Halt], &mut rng),
        fault_rate: vec![0.0],
        samples: vec![SAMPLES],
        bitstream_cache: shuffled(vec![0, CACHE_ENTRIES], &mut rng),
        interval: 500,
        seed,
    }
}

/// The row a scenario is checked on: every simulated field of its
/// summary, nothing measured on the host.
fn row_text(r: &ScenarioResult) -> String {
    let s = &r.summary;
    let swap = match &s.swap {
        SwapOutcome::NotRequested => "none".to_string(),
        SwapOutcome::Completed {
            total_ps,
            reconfig_ps,
            state_words,
        } => format!("done/{total_ps}/{reconfig_ps}/{state_words}"),
        SwapOutcome::Failed { error } => format!("failed/{}", error.replace(' ', "_")),
    };
    format!(
        "{} {} out={} p50={:?} p95={:?} p99={:?} missed={} excess_gap_ps={} stall={:?} \
         fifo_hw={:?} drained={} swap={} sim_time_ps={} cache_hits={} cache_saved={} \
         repeat_cold_ps={:?} repeat_warm_ps={:?}",
        r.scenario.index,
        r.scenario.label(),
        s.samples_out,
        s.p50_e2e_ps,
        s.p95_e2e_ps,
        s.p99_e2e_ps,
        s.missed_slots,
        s.excess_gap_ps,
        s.max_stall_ratio,
        s.max_fifo_high_water,
        s.drained,
        swap,
        s.sim_time_ps,
        s.cache_hits,
        s.cache_bytes_saved,
        s.repeat_swap_cold_ps,
        s.repeat_swap_warm_ps,
    )
}

/// A scenario passes its own checks when the swap completed, the input
/// drained, and its row re-harvests identically from its telemetry.
fn intrinsic_ok(r: &ScenarioResult, reharvested: &ScenarioSummary) -> bool {
    matches!(r.summary.swap, SwapOutcome::Completed { .. })
        && r.summary.drained
        && r.summary.samples_out >= u64::from(r.scenario.samples)
        && *reharvested == r.summary
}

/// The span around one scenario; the method rides after a `:` so the
/// span still belongs to the `kpn.sweep` layer.
fn scenario_span(method: SwapMethod) -> &'static str {
    match method {
        SwapMethod::Seamless => "kpn.sweep.run_scenario:seamless",
        SwapMethod::Halt => "kpn.sweep.run_scenario:halt",
        SwapMethod::None => "kpn.sweep.run_scenario:none",
    }
}

/// One sweep on the measured path (`run_scenario`, warm-starting from
/// a cleared prefix cache) or, with `reference`, on the reference path
/// (`run_scenario_cold`).
pub fn run(seed: u64, traced: bool, reference: bool) -> Iteration {
    // The reference role times its scenarios too: their sum is the cold
    // side of the warm-start saving.
    let tr = Tracer::new(traced || reference);
    let t0 = Instant::now();
    let scenarios = tr.span("bench.setup", None, |_| {
        let scenarios = grid(seed).expand();
        for sc in &scenarios {
            sc.validate().expect("benchmark grid is valid");
        }
        scenarios
    });
    let setup_s = t0.elapsed().as_secs_f64();

    // Cold start: no prefix snapshot from an earlier sweep in this
    // process may serve this one.
    clear_prefix_cache();
    let runner = if reference {
        run_scenario_cold
    } else {
        run_scenario
    };
    let t1 = Instant::now();
    let (results, jsonl, reharvested) = tr.span("bench.wall", None, |p| {
        let results = tr.span("core.scenario.run_sweep_with", p, |p| {
            run_sweep_with(&scenarios, JOBS, |sc| {
                tr.span(scenario_span(sc.swap), p, |_| runner(sc))
            })
        });
        let jsonl = tr.span("sim.telemetry.merge", p, |_| {
            let mut buf = Vec::new();
            merge_telemetry(&results)
                .write_jsonl(&mut buf)
                .expect("writing to a Vec cannot fail");
            buf
        });
        let reharvested: Vec<ScenarioSummary> = tr.span("sim.telemetry.snapshot", p, |_| {
            results
                .iter()
                .map(|r| {
                    let s = &r.summary;
                    let mut h = ScenarioSummary::harvest(
                        &r.telemetry,
                        s.swap.clone(),
                        s.drained,
                        s.samples_out,
                        s.sim_time_ps,
                    );
                    // The repeat-swap probe is filled by the runner, not
                    // by the harvest.
                    h.repeat_swap_cold_ps = s.repeat_swap_cold_ps;
                    h.repeat_swap_warm_ps = s.repeat_swap_warm_ps;
                    h
                })
                .collect()
        });
        (results, jsonl, reharvested)
    });
    let wall_s = t1.elapsed().as_secs_f64();
    let rss_mib = peak_rss_mib();

    let rows = results
        .iter()
        .zip(&reharvested)
        .map(|(r, h)| Row {
            words: r.summary.samples_out,
            ok: intrinsic_ok(r, h),
            text: row_text(r),
        })
        .collect();
    let array2icap: Vec<u64> = results
        .iter()
        .filter_map(|r| match r.summary.swap {
            SwapOutcome::Completed { reconfig_ps, .. } => Some(reconfig_ps),
            _ => None,
        })
        .collect();
    // The cached twins' repeat-swap probe configures a CompactFlash
    // bitstream the cache has not seen: a full cf2icap.
    let cf2icap = results.iter().find_map(|r| r.summary.repeat_swap_cold_ps);

    let mut it = Iteration {
        setup_s,
        wall_s,
        rss_mib,
        words_ok: 0,
        ops: (0, 0),
        rows,
        paper_err_pct: paper_err_pct(cf2icap, None, &array2icap),
        layer: Vec::new(),
        spans: Vec::new(),
    };
    let spans = tr.into_spans();
    let scenario_s = |method: SwapMethod| -> Vec<f64> {
        let name = scenario_span(method);
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    };
    let (seamless, halt) = (
        scenario_s(SwapMethod::Seamless),
        scenario_s(SwapMethod::Halt),
    );
    let scenario_sum: f64 = seamless.iter().chain(&halt).sum();
    if reference || traced {
        it.layer
            .push(("kpn.sweep.scenario_sum_s".into(), scenario_sum));
    }
    if traced {
        let sweep_s = total_s(&spans, "core.scenario.run_sweep_with");
        let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
        it.layer.extend([
            (
                "kpn.sweep.scenario_s.seamless.p50".into(),
                median(&seamless),
            ),
            ("kpn.sweep.scenario_s.seamless.max".into(), max(&seamless)),
            ("kpn.sweep.scenario_s.halt.p50".into(), median(&halt)),
            ("kpn.sweep.scenario_s.halt.max".into(), max(&halt)),
        ]);
        let sum = |name: &str| -> f64 {
            results
                .iter()
                .flat_map(|r| r.telemetry.counters_iter())
                .filter(|(n, _, _)| *n == name)
                .map(|(_, _, v)| v as f64)
                .sum()
        };
        let hits = sum("bitstream_cache_hits_total");
        let misses = sum("bitstream_cache_misses_total");
        it.layer.extend([
            ("bitstream.cache.hits".into(), hits),
            (
                "bitstream.cache.hit_ratio".into(),
                hits / (hits + misses).max(1.0),
            ),
            (
                "bitstream.cache.bytes_saved".into(),
                sum("bitstream_cache_bytes_saved_total"),
            ),
            (
                "core.scenario.worker_busy".into(),
                scenario_sum / (JOBS as f64 * sweep_s),
            ),
            (
                "sim.telemetry.snapshot_s".into(),
                total_s(&spans, "sim.telemetry.snapshot"),
            ),
            (
                "sim.telemetry.merge_s".into(),
                total_s(&spans, "sim.telemetry.merge"),
            ),
            ("sim.telemetry.jsonl_bytes".into(), jsonl.len() as f64),
        ]);
        it.layer.extend(self_time_metrics(&spans));
        it.spans = spans;
    }
    it
}
