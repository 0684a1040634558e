//! `e3_stream`: one prototype RSB streams a long input at a short
//! cadence while FIR A is swapped for FIR B seamlessly, mid-stream.
//!
//! Set-up (`setup_s`) is `VapresSystem::new` through `bring_up_node`,
//! including the 1.043 s (simulated) CompactFlash configuration of FIR
//! A. The timed phase (`wall_s`) feeds the stream, runs 1 ms, swaps
//! (the 71.9 ms array2icap reconfiguration, with FIR A still serving
//! the stream) and drains. Every sink word is then checked against the
//! golden FIR A → FIR B model with the delay-line handoff.

use std::time::Instant;

use vapres::core::config::SystemConfig;
use vapres::core::module::ModuleLibrary;
use vapres::core::switching::{seamless_swap, BitstreamSource, SwapSpec};
use vapres::core::system::VapresSystem;
use vapres::core::{PortRef, Ps, SplitMix64};
use vapres::modules::kernels::FirFilter;
use vapres::modules::{register_standard_modules, run_kernel, uids, StreamKernel};

use crate::host::peak_rss_mib;
use crate::trace::{self_time_metrics, total_s, Tracer};
use crate::{paper_err_pct, Iteration, Row};

/// Input words streamed per iteration.
const SAMPLES: usize = 200_000;
/// Fabric cycles between input words (0.5 µs at 100 MHz): ~144k words
/// cross the 71.9 ms reconfiguration window, all served by FIR A, and
/// FIR B takes the remaining ~55k.
const INTERVAL: u64 = 50;
/// Word-trace cadence, as `vapres sim --trace-words 7`.
const TRACE_EVERY: u32 = 7;
/// Simulated budget for the drain after the swap.
const DRAIN_BUDGET: Ps = Ps::from_ms(300);

/// The golden model: FIR A over the words before the handoff, then FIR
/// B, seeded with A's delay line, over the rest.
fn golden(input: &[u32], split: usize) -> Vec<u32> {
    let mut a = FirFilter::filter_a();
    let mut out = run_kernel(&mut a, &input[..split]);
    let mut b = FirFilter::filter_b();
    b.restore_state(&a.save_state());
    out.extend(run_kernel(&mut b, &input[split..]));
    out
}

/// One E3 iteration; `traced` records the spans and per-layer metrics.
pub fn run(seed: u64, traced: bool) -> Iteration {
    let tr = Tracer::new(traced);
    let mut rng = SplitMix64::new(seed);
    let input: Vec<u32> = (0..SAMPLES)
        .map(|_| (rng.next_u64() % 65_536) as u32)
        .collect();

    let t0 = Instant::now();
    let (mut sys, spec, cf2icap) = tr.span("bench.setup", None, |p| {
        let mut sys = tr.span("core.system.new", p, |_| {
            let mut lib = ModuleLibrary::new();
            register_standard_modules(&mut lib, 0);
            VapresSystem::new(SystemConfig::prototype(), lib).expect("prototype config is valid")
        });
        sys.enable_telemetry();
        sys.enable_word_trace(TRACE_EVERY);
        sys.iom_set_input_interval(0, INTERVAL);
        tr.span("core.api.install", p, |_| {
            sys.install_bitstream(0, uids::FIR_A, "fir_a_prr0.bit")
                .expect("install FIR A");
            sys.install_bitstream(1, uids::FIR_B, "fir_b_prr1.bit")
                .expect("install FIR B");
        });
        tr.span("core.api.cf2array", p, |_| {
            sys.vapres_cf2array("fir_b_prr1.bit", "fir_b")
                .expect("stage FIR B in SDRAM")
        });
        let cf2icap = tr.span("core.api.cf2icap", p, |_| {
            sys.vapres_cf2icap("fir_a_prr0.bit")
                .expect("configure FIR A")
        });
        let (upstream, downstream) = tr.span("core.api.channel", p, |_| {
            let up = sys.vapres_establish_channel(PortRef::new(0, 0), PortRef::new(1, 0));
            let down = sys.vapres_establish_channel(PortRef::new(1, 0), PortRef::new(0, 0));
            (
                up.expect("route IOM → FIR A"),
                down.expect("route FIR A → IOM"),
            )
        });
        tr.span("core.api.bring_up", p, |_| {
            sys.bring_up_node(0, false).expect("IOM up");
            sys.bring_up_node(1, false).expect("FIR A up");
        });
        let spec = SwapSpec {
            active_node: 1,
            spare_node: 2,
            source: BitstreamSource::Sdram("fir_b".into()),
            upstream,
            downstream,
            clk_sel: false,
            timeout: Ps::from_ms(10),
        };
        (sys, spec, cf2icap)
    });
    let setup_s = t0.elapsed().as_secs_f64();

    let total = SAMPLES + 1; // the data plus FIR A's end-of-stream marker
    let t1 = Instant::now();
    let swap = tr.span("bench.wall", None, |p| {
        tr.span("core.system.iom_feed", p, |_| {
            sys.iom_feed(0, input.iter().copied())
        });
        tr.span("core.system.run_for", p, |_| sys.run_for(Ps::from_ms(1)));
        let swap = tr.span("core.switching.seamless_swap", p, |_| {
            seamless_swap(&mut sys, &spec)
        });
        tr.span("core.system.run_until", p, |_| {
            sys.run_until(DRAIN_BUDGET, |s| {
                s.iom_output(0).len() >= total && s.iom_pending_input(0) == 0
            })
        });
        swap
    });
    let wall_s = t1.elapsed().as_secs_f64();
    let rss_mib = peak_rss_mib();

    // Word-level verification: a lost, extra or wrong word is a failure.
    let out = sys.iom_output(0);
    let eos = out.iter().position(|(_, w)| w.end_of_stream);
    let data: Vec<u32> = out
        .iter()
        .filter(|(_, w)| !w.end_of_stream)
        .map(|(_, w)| w.data)
        .collect();
    let expected = golden(&input, eos.unwrap_or(SAMPLES).min(SAMPLES));
    let matched = data
        .iter()
        .zip(&expected)
        .filter(|(got, want)| got == want)
        .count() as u64;
    let failed_words = SAMPLES as u64 - matched + data.len().saturating_sub(SAMPLES) as u64;

    let (row, array2icap_ps, swap_ok) = match &swap {
        Ok(r) => (
            format!(
                "e3 out={} eos={} state_words={} swap_ps={} reconfig_ps={} max_gap_ps={} \
                 cf2icap_ps={} cf2icap_transfer_ps={} sim_time_ps={}",
                out.len(),
                eos.map_or(-1, |e| e as i64),
                r.state_words,
                r.total().as_ps(),
                r.reconfig.total().as_ps(),
                sys.iom_gap(0).max_gap().map_or(0, |g| g.as_ps()),
                cf2icap.total().as_ps(),
                cf2icap.transfer.as_ps(),
                sys.now().as_ps(),
            ),
            r.reconfig.total().as_ps(),
            true,
        ),
        Err(e) => (format!("e3 swap failed: {e}"), 0, false),
    };

    let mut it = Iteration {
        setup_s,
        wall_s,
        rss_mib,
        words_ok: matched,
        ops: (SAMPLES as u64, failed_words),
        rows: vec![Row {
            words: 0,
            ok: swap_ok,
            text: row,
        }],
        paper_err_pct: paper_err_pct(
            Some(cf2icap.total().as_ps()),
            Some(cf2icap.transfer_fraction()),
            &[array2icap_ps],
        ),
        layer: Vec::new(),
        spans: Vec::new(),
    };
    if traced {
        let spans = tr.into_spans();
        let run_s =
            total_s(&spans, "core.system.run_for") + total_s(&spans, "core.system.run_until");
        let stats = sys.exec_stats();
        it.layer = vec![
            ("core.system.run_s".into(), run_s),
            // The stream also flows inside the swap, so the per-word cost
            // is taken over the whole timed phase.
            (
                "core.system.ns_per_word".into(),
                wall_s * 1e9 / out.len().max(1) as f64,
            ),
            ("sim.exec.ticks".into(), stats.total_ticks() as f64),
            ("sim.exec.skips".into(), stats.total_skips() as f64),
            (
                "core.switching.seamless_swap_s".into(),
                total_s(&spans, "core.switching.seamless_swap"),
            ),
            (
                "core.system.new_s".into(),
                total_s(&spans, "core.system.new"),
            ),
            (
                "core.api.install_s".into(),
                total_s(&spans, "core.api.install"),
            ),
            (
                "core.api.cf2array_s".into(),
                total_s(&spans, "core.api.cf2array"),
            ),
            (
                "core.api.cf2icap_s".into(),
                total_s(&spans, "core.api.cf2icap"),
            ),
            (
                "core.api.channel_s".into(),
                total_s(&spans, "core.api.channel"),
            ),
            (
                "core.api.bring_up_s".into(),
                total_s(&spans, "core.api.bring_up"),
            ),
            (
                "bitstream.icap.words_written".into(),
                sys.icap().words_written() as f64,
            ),
            (
                "bitstream.icap.writes".into(),
                sys.icap().write_count() as f64,
            ),
        ];
        it.layer.extend(self_time_metrics(&spans));
        it.spans = spans;
    }
    it
}
