//! `fleet_rotate`: `run_fleet(.., JOBS, None)` over 64 RSBs with a
//! rotating seamless-swap schedule and short input batches.
//!
//! Every RSB is brought up through the CompactFlash path (64 cf2icap
//! calls) with telemetry, word trace, flight recorder and the profiler
//! armed, then the schedule visits each RSB [`VISITS`] times, feeding a
//! fresh batch and swapping FIR A ↔ FIR B from SDRAM while the others
//! keep streaming. The seed spreads each RSB's batch size and cadence.
//!
//! Set-up (`setup_s`) is the spec's construction, validation and shard
//! plan. The fleet's own bring-up is paid on every user run, so it stays
//! inside the timed phase (`wall_s`). The traced run splits the same
//! fleet at its checkpoint seam (`checkpoint_after_setup` then
//! `run_fleet_from`) and measures one extra `FleetSystem::restore` +
//! `checkpoint` of the envelope outside the timed root, so the persist
//! share can be taken out of both halves.

use std::sync::Arc;
use std::time::Instant;

use vapres::core::fleet::{FleetSystem, SharedRegister};
use vapres::core::module::ModuleLibrary;
use vapres::core::SystemConfig;
use vapres::kpn::{checkpoint_after_setup, run_fleet, run_fleet_from, FleetResult, FleetSpec};
use vapres::modules::register_standard_modules;

use crate::host::peak_rss_mib;
use crate::trace::{self_time_metrics, total_s, Tracer};
use crate::{paper_err_pct, Iteration, Row};

/// Worker threads for the fleet.
pub const JOBS: usize = 2;
/// RSBs in the fleet.
const RSBS: usize = 64;
/// Rotating visits per RSB (each one a seamless swap). One: a second
/// visit fails in `run_fleet` itself (see README, "Known defect").
const VISITS: usize = 1;
/// Base words per batch (each RSB uses 50–100 % of it).
const BATCH: u32 = 150;
/// Base cadence in static-clock cycles (each RSB uses 1–3×).
const INTERVAL: u64 = 50;

/// The profiler's work components the traced run reports (as
/// `sim.profile.{work,host_ns}.<component>`, `/` written as `.`).
/// Components that only count (`icap.words`, `cf.bytes`, ...) carry no
/// host time and read 0 there.
pub const PROFILE_COMPONENTS: &[&str] = &[
    "exec.fabric",
    "exec.iom0",
    "exec.prr0",
    "exec.prr1",
    "fabric.route2",
    "fabric.route3",
    "swap.steps",
    "icap.words",
    "cf.bytes",
    "sdram.bytes",
];

fn spec(seed: u64) -> FleetSpec {
    FleetSpec {
        rsbs: RSBS,
        samples: BATCH,
        interval: INTERVAL,
        swaps: RSBS * VISITS,
        seed,
        sample_every: None,
    }
}

/// The row an RSB is checked on. `missed_slots` is left out: it counts
/// the idle slots between batches, which the batched schedule has by
/// design. Work units, cost hints and the shard are left out too: they
/// move with legitimate performance work.
fn row_text(r: &vapres::kpn::FleetRsbRow) -> String {
    format!(
        "{} in={} interval={} swaps={} outcome={} drained={} out={} p99={:?} \
         sim_time_ps={} healthy={}",
        r.index,
        r.samples_in,
        r.interval,
        r.swaps,
        r.outcome.replace(' ', "_"),
        r.drained,
        r.samples_out,
        r.p99_e2e_ps,
        r.sim_time_ps,
        r.healthy,
    )
}

fn intrinsic_ok(r: &vapres::kpn::FleetRsbRow) -> bool {
    (r.outcome == "ok" || r.outcome == "none")
        && r.drained
        && r.samples_out >= u64::from(r.samples_in)
        && r.healthy
}

fn counter(result: &FleetResult, name: &str) -> f64 {
    result
        .merged_telemetry
        .counters_iter()
        .filter(|(n, _, _)| *n == name)
        .map(|(_, _, v)| v as f64)
        .sum()
}

/// The simulated ICAP paths, from the merged telemetry's `icap` spans:
/// each configuration is a `transfer` span then a `write` span. A
/// CompactFlash transfer takes about a second, an SDRAM one tens of
/// milliseconds. Returns the first cf2icap (total, flash share) and
/// every array2icap total, in picoseconds.
fn icap_paths(result: &FleetResult) -> (Option<(u64, f64)>, Vec<u64>) {
    let mut cf2icap = None;
    let mut array2icap = Vec::new();
    let mut transfer: Option<u64> = None;
    for s in result.merged_telemetry.spans_named("icap") {
        let ps = (s.end - s.start).as_ps();
        match s.label.as_str() {
            "transfer" => transfer = Some(ps),
            "write" => {
                if let Some(t) = transfer.take() {
                    if t > 500_000_000_000 {
                        cf2icap.get_or_insert((t + ps, t as f64 / (t + ps) as f64));
                    } else {
                        array2icap.push(t + ps);
                    }
                }
            }
            _ => transfer = None,
        }
    }
    (cf2icap, array2icap)
}

fn register() -> SharedRegister {
    Arc::new(|lib: &mut ModuleLibrary| register_standard_modules(lib, 0))
}

/// One fleet run with `jobs` workers; `traced` splits it at the
/// checkpoint seam and records the persist costs.
pub fn run(seed: u64, jobs: usize, traced: bool) -> Iteration {
    let tr = Tracer::new(traced);
    let t0 = Instant::now();
    let (spec, plan) = tr.span("bench.setup", None, |_| {
        let spec = spec(seed);
        spec.validate().expect("benchmark fleet spec is valid");
        let plan = spec.plan(jobs, None);
        (spec, plan)
    });
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let (result, image) = tr.span("bench.wall", None, |p| {
        if !traced {
            return (
                run_fleet(&spec, jobs, None).expect("fleet runs"),
                Vec::new(),
            );
        }
        let image = tr.span("kpn.fleet.checkpoint_after_setup", p, |_| {
            checkpoint_after_setup(&spec, jobs).expect("fleet sets up")
        });
        let result = tr.span("kpn.fleet.run_fleet_from", p, |_| {
            run_fleet_from(&spec, jobs, None, &image).expect("fleet resumes")
        });
        (result, image)
    });
    let wall_s = t1.elapsed().as_secs_f64();
    let rss_mib = peak_rss_mib();

    let rows = result
        .rows
        .iter()
        .map(|r| Row {
            words: r.samples_out,
            ok: intrinsic_ok(r),
            text: row_text(r),
        })
        .collect();
    let (cf2icap, array2icap) = icap_paths(&result);
    let mut it = Iteration {
        setup_s,
        wall_s,
        rss_mib,
        words_ok: 0,
        ops: (0, 0),
        rows,
        paper_err_pct: paper_err_pct(cf2icap.map(|c| c.0), cf2icap.map(|c| c.1), &array2icap),
        layer: Vec::new(),
        spans: Vec::new(),
    };
    if !traced {
        return it;
    }

    // Outside the timed root: the persist halves of the seam.
    let configs = || vec![SystemConfig::prototype(); RSBS];
    let mut fleet = tr.span("sim.persist.fleet_restore", None, |_| {
        FleetSystem::restore(configs(), register(), plan.clone(), &image)
            .expect("the setup envelope restores")
    });
    let again = tr.span("sim.persist.fleet_checkpoint", None, |_| fleet.checkpoint());
    drop(fleet);
    let spans = tr.into_spans();
    let restore_s = total_s(&spans, "sim.persist.fleet_restore");
    let checkpoint_s = total_s(&spans, "sim.persist.fleet_checkpoint");
    // A restored envelope checkpoints back to the same bytes.
    it.ops = (1, u64::from(again != image));
    it.layer = vec![
        (
            "kpn.fleet.setup_s".into(),
            total_s(&spans, "kpn.fleet.checkpoint_after_setup") - checkpoint_s,
        ),
        (
            "kpn.fleet.drive_harvest_s".into(),
            total_s(&spans, "kpn.fleet.run_fleet_from") - restore_s,
        ),
        ("sim.persist.fleet_checkpoint_s".into(), checkpoint_s),
        ("sim.persist.fleet_restore_s".into(), restore_s),
        (
            "sim.persist.fleet_envelope_bytes".into(),
            image.len() as f64,
        ),
        (
            "bitstream.icap.words_written".into(),
            counter(&result, "icap_words_total"),
        ),
        (
            "bitstream.icap.writes".into(),
            counter(&result, "icap_writes_total"),
        ),
    ];
    for row in &result.merged_work.rows {
        let c = row.component.replace('/', ".");
        it.layer
            .push((format!("sim.profile.work.{c}"), row.work_units as f64));
        it.layer
            .push((format!("sim.profile.host_ns.{c}"), row.host_ns as f64));
    }
    it.layer.extend(self_time_metrics(&spans));
    it.spans = spans;
    it
}
