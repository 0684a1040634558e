//! The fleet-scale multi-RSB runner behind `vapres fleet`.
//!
//! A fleet is many RSBs streaming concurrently — the paper's Sec. III.B
//! data processing region scaled up — with a rotating swap schedule
//! against the shared ICAP: the controlling region visits one RSB at a
//! time, performing a seamless swap while every other RSB's data plane
//! keeps streaming through the window. Execution goes through
//! [`MultiRsbSystem`], whose lockstep `with_rsb` is exactly that shared
//! controlling region: one software event at a time, every other RSB
//! advanced through the elapsed window.
//!
//! # Determinism
//!
//! The runner is a pure function of its [`FleetSpec`]: per-RSB workload
//! heterogeneity draws from `scenario_seed(seed, rsb)`, nothing reads
//! the wall clock, and every merge folds in ascending RSB index order
//! (telemetry via `Telemetry::merge`, flight events re-sorted
//! sim-time-major with the RSB index as tiebreak, cost models via
//! `CostModel::merge`).
//!
//! # Warm-start interplay
//!
//! [`run_fleet_from`] resumes a fleet from the post-setup envelope
//! [`checkpoint_after_setup`] writes. Because restore ≡
//! never-stopped holds per RSB, a fleet checkpointed after setup
//! finishes bit-identically to a cold run — the §4h warm-start contract
//! lifted to fleets.

use vapres_core::module::ModuleLibrary;
use vapres_core::scenario::scenario_seed;
use vapres_core::switching::seamless_swap;
use vapres_core::system::VapresSystem;
use vapres_core::{
    evaluate_health, ChannelId, CostModel, HealthPolicy, MultiRsbSystem, Ps, SplitMix64,
    SystemConfig, Telemetry,
};
use vapres_modules::register_standard_modules;

use crate::e3;

/// Every Nth streamed word carries a provenance tag (matches the E3
/// sweep runner's cadence).
const TRACE_EVERY: u32 = 7;

/// Flight-recorder ring capacity per RSB.
const FLIGHT_CAPACITY: usize = 4_096;

/// Simulated-time stride between controlling-region visits in the
/// rotating swap schedule.
const SWAP_STRIDE: Ps = Ps::from_us(200);

/// Drain phase: settle budget, polled once per slice.
const DRAIN_SLICE: Ps = Ps::from_ms(1);
const DRAIN_SLICES: usize = 300;

/// Parameters of one fleet run. The workload is deliberately
/// heterogeneous: per-RSB sample counts and cadences spread around the
/// base values, seeded from `seed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSpec {
    /// Number of RSBs in the data processing region.
    pub rsbs: usize,
    /// Base samples per RSB (each RSB streams 50–100% of this).
    pub samples: u32,
    /// Base input cadence in static-clock cycles (each RSB uses 1–3×).
    pub interval: u64,
    /// Rotating seamless swaps to perform (swap `k` visits RSB
    /// `k % rsbs`).
    pub swaps: usize,
    /// Master seed for the per-RSB workload spread.
    pub seed: u64,
    /// Optional time-series cadence, sampled per RSB.
    pub sample_every: Option<Ps>,
}

impl FleetSpec {
    /// Sanity limits (an empty fleet or a zero cadence is meaningless).
    ///
    /// # Errors
    ///
    /// A description of the first violated limit.
    pub fn validate(&self) -> Result<(), String> {
        if self.rsbs == 0 {
            return Err("fleet needs at least one RSB".into());
        }
        if self.samples == 0 {
            return Err("samples must be >= 1".into());
        }
        if self.interval == 0 {
            return Err("interval must be >= 1 cycle".into());
        }
        Ok(())
    }

    /// The per-RSB workload: `(samples, interval)` for RSB `rsb`,
    /// spread deterministically around the base values.
    pub fn workload(&self, rsb: usize) -> (u32, u64) {
        let mut rng = SplitMix64::new(scenario_seed(self.seed, rsb));
        let lo = (self.samples / 2).max(1);
        let samples = lo + (rng.next_u64() % u64::from(self.samples - lo + 1)) as u32;
        let interval = self.interval * (1 + rng.next_u64() % 3);
        (samples, interval)
    }

    /// Whether RSB `rsb` receives a swap under the rotating schedule,
    /// and how many.
    pub fn swaps_for(&self, rsb: usize) -> u32 {
        if self.rsbs == 0 {
            return 0;
        }
        ((self.swaps / self.rsbs) + usize::from(rsb < self.swaps % self.rsbs)) as u32
    }

    /// Ignored; kept for the frozen benchmark harness (`jobs` and
    /// `model` too).
    pub fn plan(&self, _jobs: usize, _model: Option<&CostModel>) {}
}

/// One RSB's harvested row.
#[derive(Debug, Clone)]
pub struct FleetRsbRow {
    /// RSB index.
    pub index: usize,
    /// Total words fed: the bring-up batch plus one fresh batch per
    /// rotating visit (all batches are the RSB's heterogeneous size).
    pub samples_in: u32,
    /// Input cadence in static-clock cycles.
    pub interval: u64,
    /// Seamless swaps performed against this RSB.
    pub swaps: u32,
    /// `"ok"`, or the first swap/setup error.
    pub outcome: String,
    /// Whether the input fully drained within the budget.
    pub drained: bool,
    /// Words the sink IOM emitted.
    pub samples_out: u64,
    /// Stream-interruption slots (0 = seamless).
    pub missed_slots: u64,
    /// 99th-percentile end-to-end word latency (ps).
    pub p99_e2e_ps: Option<u64>,
    /// Simulated time at harvest (identical across the fleet).
    pub sim_time_ps: u64,
    /// Total deterministic work units this RSB's profiler counted.
    pub work_units: u64,
    /// Health verdict under the fleet budgets: the
    /// [`HealthPolicy::e3_seamless`] fabric limits (FIFO occupancy,
    /// backpressure) with the continuous-stream cadence SLOs waived —
    /// the batched schedule idles between visits by design.
    pub healthy: bool,
}

/// Everything one fleet run produces, a pure function of the
/// [`FleetSpec`].
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Per-RSB rows, ascending index.
    pub rows: Vec<FleetRsbRow>,
    /// All RSBs' telemetry folded in index order.
    pub merged_telemetry: Telemetry,
    /// All RSBs' flight events merged sim-time-major (`at_ps`, then RSB
    /// index), each line stamped with its `"rsb"`.
    pub merged_flight: String,
    /// All RSBs' cost models folded in index order.
    pub merged_work: CostModel,
    /// Per-RSB tagged time-series JSONL, concatenated in index order
    /// (empty when sampling was off).
    pub timeseries: String,
    /// Simulated end time.
    pub sim_time: Ps,
}

fn new_fleet(spec: &FleetSpec) -> Result<MultiRsbSystem, String> {
    spec.validate()?;
    MultiRsbSystem::new(fleet_configs(spec.rsbs), fleet_register).map_err(|e| e.to_string())
}

fn fleet_register(lib: &mut ModuleLibrary) {
    register_standard_modules(lib, 0);
}

fn fleet_configs(rsbs: usize) -> Vec<SystemConfig> {
    (0..rsbs).map(|_| SystemConfig::prototype()).collect()
}

/// Runs a fleet from cold. `jobs` and `model` are ignored; kept for the
/// frozen benchmark harness.
///
/// # Errors
///
/// Spec validation errors, or a [`vapres_core::MultiRsbConfigError`]
/// rendered as a string (prototype configurations never fail in
/// practice).
pub fn run_fleet(
    spec: &FleetSpec,
    _jobs: usize,
    _model: Option<&CostModel>,
) -> Result<FleetResult, String> {
    let mut fleet = new_fleet(spec)?;
    let channels = setup(&mut fleet, spec);
    let outcomes = drive(&mut fleet, spec, channels);
    Ok(harvest(&mut fleet, spec, outcomes))
}

/// Builds a fleet, runs the setup phase only, and checkpoints it — the
/// warm-start seam: [`run_fleet_from`] resumes the image and must
/// finish byte-identically to [`run_fleet`]. `jobs` is ignored; kept
/// for the frozen benchmark harness.
///
/// # Errors
///
/// As [`run_fleet`].
pub fn checkpoint_after_setup(spec: &FleetSpec, _jobs: usize) -> Result<Vec<u8>, String> {
    let mut fleet = new_fleet(spec)?;
    setup(&mut fleet, spec);
    Ok(fleet.checkpoint())
}

/// Resumes a fleet from the envelope [`checkpoint_after_setup`] cuts and
/// runs the remaining schedule. The schedule rebuilds every RSB's swap
/// channels from the fixture's fresh ids ([`e3::CHANNELS`]), so only an
/// image taken right after setup resumes correctly; an image cut after
/// any swap has re-routed the channels. `jobs` and `model` are ignored; kept
/// for the frozen benchmark harness.
///
/// # Errors
///
/// Spec validation errors or restore errors rendered as strings.
pub fn run_fleet_from(
    spec: &FleetSpec,
    _jobs: usize,
    _model: Option<&CostModel>,
    image: &[u8],
) -> Result<FleetResult, String> {
    spec.validate()?;
    let mut fleet = MultiRsbSystem::restore(fleet_configs(spec.rsbs), fleet_register, image)
        .map_err(|e| e.to_string())?;
    // The image was cut right after setup, so every RSB still holds the
    // fixture's fresh channel ids.
    let channels = vec![e3::CHANNELS; spec.rsbs];
    let outcomes = drive(&mut fleet, spec, channels);
    Ok(harvest(&mut fleet, spec, outcomes))
}

/// Phase 1 — bring-up: every RSB gets the E3 arrangement (FIR A live on
/// PRR 0, FIR B staged in SDRAM for the spare and FIR A for the way
/// back, so the rotating schedule can revisit an RSB) plus its
/// heterogeneous input stream and observability. Returns each RSB's
/// (upstream, downstream) channel ids for the swap schedule.
fn setup(fleet: &mut MultiRsbSystem, spec: &FleetSpec) -> Vec<(ChannelId, ChannelId)> {
    (0..spec.rsbs)
        .map(|rsb| {
            let (samples, interval) = spec.workload(rsb);
            fleet.with_rsb(rsb, |sys| {
                sys.enable_telemetry();
                sys.enable_profiling();
                sys.enable_word_trace(TRACE_EVERY);
                sys.enable_flight_recorder(FLIGHT_CAPACITY);
                if let Some(every) = spec.sample_every {
                    sys.enable_timeseries(every, vapres_core::TimeSeries::DEFAULT_CAPACITY);
                }
                sys.iom_set_input_interval(0, interval);
                let channels = e3::deploy(sys, &[e3::SEAMLESS, e3::FIR_A_HOME], None)
                    .expect("prototype E3 arrangement deploys");
                sys.iom_feed(0, 0..samples);
                channels
            })
        })
        .collect()
}

/// Phase 2 — the rotating swap schedule, then the drain. Returns each
/// RSB's outcome: `"ok"` / `"none"`, or the first swap error.
///
/// Every visit feeds the target a fresh input batch and lets it run
/// briefly before swapping, so the seamless swap always crosses a LIVE
/// stream — the paper's Fig. 5 scenario, not a swap on an idle fabric
/// (the bring-up streams from setup have long drained by the time the
/// schedule starts: CF-based configuration is seconds of simulated time
/// per RSB on the shared controlling-software timeline).
///
/// `channels` holds each RSB's (upstream, downstream) channel ids; a
/// swap re-routes its RSB, so the next visit uses the ids the swap
/// reported.
fn drive(
    fleet: &mut MultiRsbSystem,
    spec: &FleetSpec,
    mut channels: Vec<(ChannelId, ChannelId)>,
) -> Vec<String> {
    let mut outcomes: Vec<Option<String>> = vec![None; spec.rsbs];
    fleet.run_for(Ps::from_ms(1));
    // Visit RSB k % rsbs for swap k; odd visits swap back so a revisited
    // RSB always has a staged image for its current spare.
    let mut visits = vec![0u32; spec.rsbs];
    for k in 0..spec.swaps {
        let rsb = k % spec.rsbs;
        let back = visits[rsb] % 2 == 1;
        visits[rsb] += 1;
        let (samples, _) = spec.workload(rsb);
        fleet.with_rsb(rsb, |sys| sys.iom_feed(0, 0..samples));
        fleet.run_for(Ps::from_us(20));
        let spec = if back {
            e3::swap_spec(channels[rsb], 2, 1, e3::FIR_A_HOME)
        } else {
            e3::swap_spec(channels[rsb], 1, 2, e3::SEAMLESS)
        };
        let swapped = fleet.with_rsb(rsb, |sys| seamless_swap(sys, &spec));
        match swapped {
            Ok(report) => channels[rsb] = (report.upstream, report.downstream),
            Err(e) => {
                outcomes[rsb].get_or_insert(format!("swap {k}: {e}"));
            }
        }
        fleet.run_for(SWAP_STRIDE);
    }
    // Drain: settle in fixed slices until every RSB's input is empty.
    // The polls are software events with zero time cost, so the slice
    // sequence — and therefore every observable — is identical however
    // long individual RSBs take.
    for _ in 0..DRAIN_SLICES {
        let drained =
            (0..spec.rsbs).all(|rsb| fleet.with_rsb(rsb, |sys| sys.iom_pending_input(0) == 0));
        if drained {
            break;
        }
        fleet.run_for(DRAIN_SLICE);
    }
    fleet.run_for(Ps::from_us(100));
    (0..spec.rsbs)
        .map(|rsb| match outcomes[rsb].take() {
            Some(err) => err,
            None if spec.swaps_for(rsb) == 0 => "none".into(),
            None => "ok".into(),
        })
        .collect()
}

/// Phase 3 — per-RSB harvest and index-order merge.
fn harvest(fleet: &mut MultiRsbSystem, spec: &FleetSpec, outcomes: Vec<String>) -> FleetResult {
    let mut rows = Vec::with_capacity(spec.rsbs);
    let mut merged_telemetry = Telemetry::new();
    let mut merged_work = CostModel::default();
    let mut flight: Vec<(u64, usize, String)> = Vec::new();
    let mut timeseries = String::new();
    let sim_time = fleet.now();
    for (rsb, outcome) in outcomes.into_iter().enumerate() {
        let h = fleet.with_rsb(rsb, |sys| harvest_rsb(sys, rsb));
        let (batch, interval) = spec.workload(rsb);
        // One bring-up batch plus one fresh batch per rotating visit.
        let samples_in = batch * (1 + spec.swaps_for(rsb));
        merged_telemetry.merge(&h.telemetry);
        merged_work.merge(&h.work);
        for (at_ps, line) in h.flight {
            flight.push((at_ps, rsb, line));
        }
        timeseries.push_str(&h.timeseries);
        rows.push(FleetRsbRow {
            index: rsb,
            samples_in,
            interval,
            swaps: spec.swaps_for(rsb),
            outcome,
            drained: h.drained,
            samples_out: h.samples_out,
            missed_slots: h.missed_slots,
            p99_e2e_ps: h.p99_e2e_ps,
            sim_time_ps: sim_time.as_ps(),
            work_units: h.work.rows.iter().map(|r| r.work_units).sum(),
            healthy: h.healthy,
        });
    }
    // Sim-time-major merge; per-RSB streams are already time-ordered, so
    // a stable sort by (at_ps, rsb) is the canonical interleave.
    flight.sort_by_key(|&(at_ps, rsb, _)| (at_ps, rsb));
    let merged_flight: String = flight.into_iter().map(|(_, _, line)| line).collect();
    FleetResult {
        rows,
        merged_telemetry,
        merged_flight,
        merged_work,
        timeseries,
        sim_time,
    }
}

/// What one RSB's harvest yields.
struct RsbHarvest {
    drained: bool,
    samples_out: u64,
    missed_slots: u64,
    p99_e2e_ps: Option<u64>,
    healthy: bool,
    telemetry: Telemetry,
    work: CostModel,
    flight: Vec<(u64, String)>,
    timeseries: String,
}

fn harvest_rsb(sys: &mut VapresSystem, rsb: usize) -> RsbHarvest {
    let drained = sys.iom_pending_input(0) == 0;
    let samples_out = sys.iom_output(0).len() as u64;
    // Fleet health: the E3 fabric budgets (FIFO occupancy,
    // backpressure), minus the swap-phase monitors (swaps already
    // reported their outcome inline) and minus the per-word cadence
    // SLOs. The gap tracker is cumulative and the fleet schedule is
    // deliberately batched — between an RSB's batches the stream idles
    // for the rest of the rotating schedule (seconds of simulated time
    // under the serialized CF bring-up), which a continuous-stream
    // cadence budget would misread as an interruption. The slot misses
    // still gate determinism: `missed_slots` is reported per row and
    // exact-matched by `vapres diff`.
    let policy = HealthPolicy {
        missed_slots_max: u64::MAX,
        excess_gap_max: Ps(u64::MAX),
        ..HealthPolicy::e3_seamless()
    };
    let health = evaluate_health(sys, &policy, None);
    let telemetry = sys
        .snapshot_metrics()
        .expect("telemetry enabled at setup")
        .clone();
    let summary = vapres_core::ScenarioSummary::harvest(
        &telemetry,
        vapres_core::SwapOutcome::NotRequested,
        drained,
        samples_out,
        sys.now().as_ps(),
    );
    let work = sys.profile_cost_model().expect("profiler enabled at setup");
    let mut flight_buf = Vec::new();
    sys.dump_flight_jsonl(&mut flight_buf)
        .expect("writing to a Vec cannot fail");
    let flight_text = String::from_utf8(flight_buf).expect("flight JSONL is UTF-8");
    let flight = flight_text
        .lines()
        .map(|line| (flight_at_ps(line), stamp_rsb(line, rsb)))
        .collect();
    let mut timeseries = String::new();
    if let Some(ts) = sys.timeseries() {
        let mut buf = Vec::new();
        ts.write_jsonl_tagged(&mut buf, Some(&format!("rsb{rsb}")))
            .expect("writing to a Vec cannot fail");
        timeseries = String::from_utf8(buf).expect("series JSONL is UTF-8");
    }
    RsbHarvest {
        drained,
        samples_out,
        missed_slots: summary.missed_slots,
        p99_e2e_ps: summary.p99_e2e_ps,
        healthy: health.healthy(),
        telemetry,
        work,
        flight,
        timeseries,
    }
}

/// Extracts the leading `"at_ps"` stamp from one flight JSONL line.
fn flight_at_ps(line: &str) -> u64 {
    line.strip_prefix("{\"at_ps\":")
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("malformed flight line: {line}"))
}

/// Stamps the owning RSB into one flight JSONL line.
fn stamp_rsb(line: &str, rsb: usize) -> String {
    format!("{{\"rsb\":{rsb},{}\n", &line[1..])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(rsbs: usize, swaps: usize) -> FleetSpec {
        FleetSpec {
            rsbs,
            samples: 250,
            interval: 50,
            swaps,
            seed: 0xF1EE7,
            sample_every: None,
        }
    }

    /// Renders every deterministic observable of a result into one
    /// comparable string.
    fn render(r: &FleetResult) -> String {
        let mut out = String::new();
        for row in &r.rows {
            out.push_str(&format!(
                "{} in={} iv={} swaps={} outcome={} drained={} out={} missed={} p99={:?} \
                 sim={} work={}\n",
                row.index,
                row.samples_in,
                row.interval,
                row.swaps,
                row.outcome,
                row.drained,
                row.samples_out,
                row.missed_slots,
                row.p99_e2e_ps,
                row.sim_time_ps,
                row.work_units,
            ));
        }
        let mut telemetry = Vec::new();
        r.merged_telemetry.write_jsonl(&mut telemetry).unwrap();
        out.push_str(&String::from_utf8(telemetry).unwrap());
        out.push_str(&r.merged_flight);
        out.push_str(&r.timeseries);
        for row in &r.merged_work.rows {
            // Work units only — the host-ns column has no contract.
            out.push_str(&format!("work {} {}\n", row.component, row.work_units));
        }
        out
    }

    #[test]
    fn fleet_is_deterministic_and_every_visit_swaps() {
        // 7 swaps over 5 RSBs revisit RSBs 0 and 1; 15 visit every RSB
        // three times.
        for spec in [spec(5, 7), spec(5, 15)] {
            let result = run_fleet(&spec, 1, None).expect("fleet");
            for row in &result.rows {
                let expected = if spec.swaps_for(row.index) == 0 {
                    "none"
                } else {
                    "ok"
                };
                assert_eq!(row.outcome, expected, "RSB {}", row.index);
                assert!(row.drained, "RSB {} failed to drain", row.index);
                // Swap-state replay can emit a boundary word, so the
                // sink sees at least the fed stream.
                assert!(
                    row.samples_out >= u64::from(row.samples_in),
                    "RSB {}",
                    row.index
                );
                assert!(row.work_units > 0, "RSB {} counted no work", row.index);
            }
            // Every visit ran a whole seamless swap: nine steps apiece.
            let steps = result.merged_telemetry.spans_named("swap_step").count();
            assert_eq!(steps, 9 * spec.swaps, "swaps={}", spec.swaps);
            let again = run_fleet(&spec, 1, None).expect("fleet");
            assert_eq!(render(&again), render(&result), "swaps={}", spec.swaps);
        }
    }

    #[test]
    fn warm_start_matches_cold() {
        let spec = spec(3, 6);
        let cold = render(&run_fleet(&spec, 1, None).expect("cold"));
        // The §4h restore ≡ never-stopped contract lifted to fleets; the
        // schedule revisits every RSB after the resume.
        let image = checkpoint_after_setup(&spec, 1).expect("checkpoint");
        let warm = run_fleet_from(&spec, 1, None, &image).expect("warm");
        assert_eq!(render(&warm), cold, "warm start diverged");
    }
}
