//! The VAPRES simulator benchmark.
//!
//! ```text
//! perfbench --workload <e3_stream|sweep_grid|fleet_rotate> --seed <n>
//!           --seconds <s> --trace <0|1> [--record]
//! ```
//!
//! Each iteration runs in a fresh child process of this binary, so no
//! timed iteration inherits process-global warm state (the prefix-cache
//! map, the `persist::intern_static` pool, allocator arenas) from an
//! earlier one. The parent repeats iterations for `--seconds`, checks
//! every output row, and prints one JSON object as its last line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/README.md`.

mod e3;
mod fleet;
mod host;
mod sweep;
mod trace;

use std::process::{Command, ExitCode};
use std::time::Instant;

use host::{context_json, json_num, json_str, median, percentile};
use trace::Span;

/// The seed whose expected rows are committed under `expected/`. Other
/// seeds are checked against the program's own reference paths.
const RECORDED_SEED: u64 = 1;

/// The paper's figures (Sec. V.B): cf2icap total, its flash-transfer
/// share, and array2icap total.
const PAPER_CF2ICAP_S: f64 = 1.043;
const PAPER_FLASH_SHARE: f64 = 0.953;
const PAPER_ARRAY2ICAP_S: f64 = 0.071_94;
/// Largest paper error a correct run may show (E2 measures ≤ 0.1 %).
const PAPER_TOLERANCE_PCT: f64 = 0.5;

/// Rounds of iterations a run makes even when `--seconds` is shorter.
const MIN_ROUNDS: usize = 2;

/// Every per-layer metric the traced run reports, with its unit. A
/// metric the workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("self_s.bench", "s"),
    ("self_s.core.system", "s"),
    ("self_s.core.switching", "s"),
    ("self_s.core.scenario", "s"),
    ("self_s.kpn.sweep", "s"),
    ("self_s.sim.telemetry", "s"),
    ("self_s.kpn.fleet", "s"),
    ("core.system.run_s", "s"),
    ("core.system.ns_per_word", "ns"),
    ("sim.exec.ticks", "count"),
    ("sim.exec.skips", "count"),
    ("core.switching.seamless_swap_s", "s"),
    ("core.system.new_s", "s"),
    ("core.api.install_s", "s"),
    ("core.api.cf2array_s", "s"),
    ("core.api.cf2icap_s", "s"),
    ("core.api.channel_s", "s"),
    ("core.api.bring_up_s", "s"),
    ("bitstream.icap.words_written", "count"),
    ("bitstream.icap.writes", "count"),
    ("bitstream.cache.hits", "count"),
    ("bitstream.cache.hit_ratio", "ratio"),
    ("bitstream.cache.bytes_saved", "bytes"),
    ("kpn.sweep.scenario_s.seamless.p50", "s"),
    ("kpn.sweep.scenario_s.seamless.max", "s"),
    ("kpn.sweep.scenario_s.halt.p50", "s"),
    ("kpn.sweep.scenario_s.halt.max", "s"),
    ("core.scenario.worker_busy", "ratio"),
    ("sim.persist.warm_saving_s", "s"),
    ("sim.telemetry.snapshot_s", "s"),
    ("sim.telemetry.merge_s", "s"),
    ("sim.telemetry.jsonl_bytes", "bytes"),
    ("kpn.fleet.setup_s", "s"),
    ("kpn.fleet.drive_harvest_s", "s"),
    ("sim.persist.fleet_checkpoint_s", "s"),
    ("sim.persist.fleet_restore_s", "s"),
    ("sim.persist.fleet_envelope_bytes", "bytes"),
    ("core.fleet.shard_speedup", "x"),
];

/// One checked output unit: an RSB, a scenario, or the E3 swap.
pub struct Row {
    /// Verified sink words this row stands for (if it passes).
    pub words: u64,
    /// Whether the row passed the workload's own checks.
    pub ok: bool,
    /// Simulated fields only, compared exactly with the expected row.
    pub text: String,
}

/// What one iteration measured and produced.
pub struct Iteration {
    pub setup_s: f64,
    pub wall_s: f64,
    pub rss_mib: f64,
    /// Sink words verified inside the iteration (E3's golden model).
    pub words_ok: u64,
    /// Operations checked inside the iteration: (attempted, failed).
    pub ops: (u64, u64),
    pub rows: Vec<Row>,
    pub paper_err_pct: f64,
    /// Per-layer metrics (traced and reference runs).
    pub layer: Vec<(String, f64)>,
    pub spans: Vec<Span>,
}

/// Largest relative error, in percent, of the simulated figures given
/// against the paper's. 100 when no figure was found at all.
pub fn paper_err_pct(
    cf2icap_ps: Option<u64>,
    flash_share: Option<f64>,
    array2icap_ps: &[u64],
) -> f64 {
    let rel = |got: f64, want: f64| ((got - want) / want).abs() * 100.0;
    let mut errs: Vec<f64> = array2icap_ps
        .iter()
        .map(|&ps| rel(ps as f64 * 1e-12, PAPER_ARRAY2ICAP_S))
        .collect();
    errs.extend(cf2icap_ps.map(|ps| rel(ps as f64 * 1e-12, PAPER_CF2ICAP_S)));
    errs.extend(flash_share.map(|f| rel(f, PAPER_FLASH_SHARE)));
    if errs.is_empty() {
        return 100.0;
    }
    errs.into_iter().fold(0.0, f64::max)
}

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    E3Stream,
    SweepGrid,
    FleetRotate,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "e3_stream" => Some(Workload::E3Stream),
            "sweep_grid" => Some(Workload::SweepGrid),
            "fleet_rotate" => Some(Workload::FleetRotate),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::E3Stream => "e3_stream",
            Workload::SweepGrid => "sweep_grid",
            Workload::FleetRotate => "fleet_rotate",
        }
    }

    fn jobs(self) -> usize {
        match self {
            Workload::E3Stream => 1,
            Workload::SweepGrid => sweep::JOBS,
            Workload::FleetRotate => fleet::JOBS,
        }
    }

    fn expected_file(self) -> &'static str {
        match self {
            Workload::E3Stream => include_str!("../expected/e3_stream.rows"),
            Workload::SweepGrid => include_str!("../expected/sweep_grid.rows"),
            Workload::FleetRotate => include_str!("../expected/fleet_rotate.rows"),
        }
    }

    /// E3's row holds only data-independent timing, so its recorded row
    /// serves every seed; the others have recorded rows for one seed.
    fn recorded_for(self, seed: u64) -> bool {
        self == Workload::E3Stream || seed == RECORDED_SEED
    }
}

/// What a child iteration runs.
#[derive(Clone, Copy, PartialEq)]
enum Role {
    /// The measured path, untraced.
    Measure,
    /// The measured path with spans.
    Trace,
    /// The reference path: `run_scenario_cold` for the sweep, the
    /// sequential (jobs=1) engine for the fleet.
    Reference,
}

impl Role {
    fn as_str(self) -> &'static str {
        match self {
            Role::Measure => "measure",
            Role::Trace => "trace",
            Role::Reference => "reference",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        [Role::Measure, Role::Trace, Role::Reference]
            .into_iter()
            .find(|r| r.as_str() == s)
    }
}

fn run_iteration(w: Workload, role: Role, seed: u64) -> Iteration {
    let traced = role == Role::Trace;
    match w {
        Workload::E3Stream => e3::run(seed, traced),
        Workload::SweepGrid => sweep::run(seed, traced, role == Role::Reference),
        Workload::FleetRotate => {
            let jobs = if role == Role::Reference { 1 } else { w.jobs() };
            fleet::run(seed, jobs, traced)
        }
    }
}

/// Child side: one iteration, written as plain lines for the parent.
fn child(w: Workload, role: Role, seed: u64) {
    let it = run_iteration(w, role, seed);
    let mut out = String::new();
    out.push_str(&format!(
        "setup_s {:?}\nwall_s {:?}\nrss_mib {:?}\nwords_ok {}\nops {} {}\npaper {:?}\n",
        it.setup_s, it.wall_s, it.rss_mib, it.words_ok, it.ops.0, it.ops.1, it.paper_err_pct
    ));
    for r in &it.rows {
        out.push_str(&format!("row {} {} {}\n", r.words, u8::from(r.ok), r.text));
    }
    for (name, v) in &it.layer {
        out.push_str(&format!("layer {name} {v:?}\n"));
    }
    for s in &it.spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "span {} {parent} {} {} {} {}\n",
            s.id, s.thread, s.start_ns, s.end_ns, s.name
        ));
    }
    print!("{out}");
}

/// Parent side: one child iteration, parsed.
struct Child {
    setup_s: f64,
    wall_s: f64,
    rss_mib: f64,
    words_ok: u64,
    ops: (u64, u64),
    paper_err_pct: f64,
    rows: Vec<(u64, bool, String)>,
    layer: Vec<(String, f64)>,
    spans: Vec<String>,
}

impl Child {
    fn layer(&self, name: &str) -> Option<f64> {
        self.layer.iter().find(|(n, _)| n == name).map(|l| l.1)
    }
}

/// Runs one child iteration and waits for it.
fn spawn(w: Workload, role: Role, seed: u64) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--child", role.as_str(), "--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("cannot start an iteration: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} iteration ({}) failed: {}\n{}",
            w.name(),
            role.as_str(),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let bad = |line: &str| format!("unreadable iteration line {line:?}");
    let num = |v: Option<&str>, line: &str| -> Result<f64, String> {
        v.and_then(|v| v.parse().ok()).ok_or_else(|| bad(line))
    };
    let mut c = Child {
        setup_s: 0.0,
        wall_s: 0.0,
        rss_mib: 0.0,
        words_ok: 0,
        ops: (0, 0),
        paper_err_pct: 100.0,
        rows: Vec::new(),
        layer: Vec::new(),
        spans: Vec::new(),
    };
    for line in text.lines() {
        let (key, rest) = line.split_once(' ').ok_or_else(|| bad(line))?;
        let mut f = rest.splitn(3, ' ');
        match key {
            "setup_s" => c.setup_s = num(f.next(), line)?,
            "wall_s" => c.wall_s = num(f.next(), line)?,
            "rss_mib" => c.rss_mib = num(f.next(), line)?,
            "paper" => c.paper_err_pct = num(f.next(), line)?,
            "words_ok" => c.words_ok = num(f.next(), line)? as u64,
            "ops" => c.ops = (num(f.next(), line)? as u64, num(f.next(), line)? as u64),
            "row" => {
                let words = num(f.next(), line)? as u64;
                let ok = f.next() == Some("1");
                c.rows.push((words, ok, f.next().unwrap_or("").to_string()));
            }
            "layer" => {
                let name = f.next().ok_or_else(|| bad(line))?.to_string();
                c.layer.push((name, num(f.next(), line)?));
            }
            "span" => c.spans.push(rest.to_string()),
            _ => return Err(bad(line)),
        }
    }
    Ok(c)
}

/// Checks a child's rows against the expected ones. Returns (attempted,
/// failed, verified words).
fn verify(c: &Child, expected: &[String]) -> (u64, u64, u64) {
    let n = c.rows.len().max(expected.len());
    let mut failed = c.ops.1;
    let mut words = c.words_ok;
    for i in 0..n {
        match (c.rows.get(i), expected.get(i)) {
            (Some((w, true, text)), Some(want)) if text == want => words += w,
            _ => failed += 1,
        }
    }
    (n as u64 + c.ops.0, failed, words)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: Option<Role>,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut child, mut record) =
        (None, 10.0, false, None, false);
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--record" {
            record = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (0.0..=600.0).contains(s))
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--child" => {
                child = Some(Role::parse(value).ok_or_else(|| format!("bad role {value:?}"))?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        child,
        record,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(role) = args.child {
        child(args.workload, role, args.seed);
        return ExitCode::SUCCESS;
    }
    match parent(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parent(args: &Args) -> Result<(), String> {
    let w = args.workload;
    if args.record {
        let role = if w == Workload::E3Stream {
            Role::Measure
        } else {
            Role::Reference
        };
        let c = spawn(w, role, args.seed)?;
        let source = if role == Role::Reference {
            "the reference path"
        } else {
            "a measured run, whose words the golden FIR model checks"
        };
        println!(
            "# {} expected rows (simulated fields only), seed {}, from {source}.",
            w.name(),
            args.seed
        );
        println!(
            "# Regenerate: cargo run --release --offline --manifest-path \
             perfbench/Cargo.toml -- --workload {} --seed {} --record",
            w.name(),
            args.seed
        );
        for (_, _, text) in &c.rows {
            println!("{text}");
        }
        return Ok(());
    }

    // The reference iteration (if the checks need one) comes first and
    // counts against `--seconds`. Then rounds of iterations, one at a
    // time, while a typical round still fits in the time left. Traced
    // rounds pair each traced iteration with an untraced one (and, for
    // the fleet, a jobs=1 one for the shard speed-up).
    let start = Instant::now();
    let recorded = w.recorded_for(args.seed);
    let needs_reference = !recorded || (args.trace && w == Workload::SweepGrid);
    let mut references: Vec<Child> = Vec::new();
    if needs_reference && w != Workload::E3Stream {
        references.push(spawn(w, Role::Reference, args.seed)?);
    }
    let round: &[Role] = match (args.trace, w) {
        (false, _) => &[Role::Measure],
        (true, Workload::FleetRotate) => &[Role::Measure, Role::Trace, Role::Reference],
        (true, _) => &[Role::Measure, Role::Trace],
    };
    let mut measured: Vec<Child> = Vec::new();
    let mut traced: Vec<Child> = Vec::new();
    let mut round_s: Vec<f64> = Vec::new();
    while round_s.len() < MIN_ROUNDS
        || start.elapsed().as_secs_f64() + median(&round_s) <= args.seconds
    {
        let t = Instant::now();
        for &role in round {
            let c = spawn(w, role, args.seed)?;
            match role {
                Role::Measure => measured.push(c),
                Role::Trace => traced.push(c),
                Role::Reference => references.push(c),
            }
        }
        round_s.push(t.elapsed().as_secs_f64());
    }
    let expected: Vec<String> = if recorded {
        w.expected_file()
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .map(str::to_string)
            .collect()
    } else {
        references[0].rows.iter().map(|r| r.2.clone()).collect()
    };

    let (mut attempted, mut failed) = (0, 0);
    let mut paper = 0.0_f64;
    let mut measured_words = 0;
    for (i, c) in measured.iter().chain(&traced).enumerate() {
        let (a, f, words) = verify(c, &expected);
        attempted += a;
        failed += f;
        paper = paper.max(c.paper_err_pct);
        if i < measured.len() {
            measured_words += words;
        }
    }
    let correct = failed == 0 && paper <= PAPER_TOLERANCE_PCT;
    let of = |cs: &[Child], f: fn(&Child) -> f64| median(&cs.iter().map(f).collect::<Vec<_>>());
    // `wall_s` and `words_per_s` are means over the run, not medians. The
    // shared host switches between a fast state and states up to about
    // 2x slower, for under a second to minutes at a time. A mean moves in
    // proportion to the share of the run the host spent slow; a median
    // jumps from one state to the other when that share crosses a half.
    // See README, "How a run measures".
    let walls: Vec<f64> = measured.iter().map(|c| c.wall_s).collect();
    let timed_s: f64 = walls.iter().sum();

    let metrics: Vec<(String, f64, String)> = if !args.trace {
        vec![
            ("wall_s".into(), timed_s / walls.len() as f64, "s".into()),
            (
                "words_per_s".into(),
                measured_words as f64 / timed_s,
                "1/s".into(),
            ),
            ("setup_s".into(), of(&measured, |c| c.setup_s), "s".into()),
            (
                "peak_rss_mb".into(),
                of(&measured, |c| c.rss_mib),
                "MiB".into(),
            ),
            (
                "ok_rate".into(),
                1.0 - failed as f64 / attempted.max(1) as f64,
                "ratio".into(),
            ),
            ("paper_err_pct".into(), paper, "%".into()),
        ]
    } else {
        layer_metrics(w, &measured, &traced, &references)?
    };

    let context = context_json(w.name(), args.seed, w.jobs(), measured.len() + traced.len());
    println!("context {context}");
    for (name, v, unit) in &metrics {
        println!("# {name} = {} {unit}", json_num(*v));
    }
    // The distribution behind the mean: the fastest iteration, the
    // median, the highest percentile with at least ten iterations beyond
    // it, and every iteration's wall time.
    let q = (1.0 - 10.0 / walls.len() as f64).max(0.5);
    println!(
        "# wall_s over {} untraced iterations: min {} s, p50 {} s, p{:.0} {} s",
        walls.len(),
        json_num(percentile(&walls, 0.0)),
        json_num(median(&walls)),
        q * 100.0,
        json_num(percentile(&walls, q))
    );
    let all: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    println!("# wall_s iterations: {}", all.join(" "));
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

/// The traced run's report: the median traced iteration's per-layer
/// metrics, the tracing overhead, and the cross-iteration ratios.
fn layer_metrics(
    w: Workload,
    measured: &[Child],
    traced: &[Child],
    references: &[Child],
) -> Result<Vec<(String, f64, String)>, String> {
    let untraced_wall = median(&measured.iter().map(|c| c.wall_s).collect::<Vec<_>>());
    // The traced iteration whose wall time is the median (lower middle),
    // so its self times sum to the reported traced wall time.
    let mut order: Vec<&Child> = traced.iter().collect();
    order.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let pick = order[(order.len() - 1) / 2];

    let mut values: Vec<(String, f64)> = pick.layer.clone();
    values.push(("trace.wall_s".into(), pick.wall_s));
    values.push(("trace.untraced_wall_s".into(), untraced_wall));
    values.push(("trace.overhead_s".into(), pick.wall_s - untraced_wall));
    match w {
        Workload::FleetRotate => {
            let jobs1 = median(&references.iter().map(|c| c.wall_s).collect::<Vec<_>>());
            values.push(("core.fleet.shard_speedup".into(), jobs1 / untraced_wall));
        }
        Workload::SweepGrid => {
            let cold = references
                .first()
                .and_then(|c| c.layer("kpn.sweep.scenario_sum_s"));
            let warm = pick.layer("kpn.sweep.scenario_sum_s");
            if let (Some(cold), Some(warm)) = (cold, warm) {
                values.push(("sim.persist.warm_saving_s".into(), cold - warm));
            }
        }
        Workload::E3Stream => {}
    }
    write_trace_file(w, pick, &values)?;

    let get = |name: &str| values.iter().find(|(n, _)| n == name).map_or(0.0, |v| v.1);
    Ok(per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let v = get(&name);
            (name, v, unit.to_string())
        })
        .collect())
}

/// Every per-layer metric with its unit: the fixed list, then the
/// fleet's profiler components.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &str)> = PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for c in fleet::PROFILE_COMPONENTS {
        out.push((format!("sim.profile.work.{c}"), "count"));
        out.push((format!("sim.profile.host_ns.{c}"), "ns"));
    }
    out
}

/// Writes the chosen traced iteration's spans and metrics, once the run
/// is over, to `perfbench/out/<workload>-trace.json`.
fn write_trace_file(w: Workload, pick: &Child, values: &[(String, f64)]) -> Result<(), String> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let spans: Vec<String> = pick
        .spans
        .iter()
        .map(|s| {
            let f: Vec<&str> = s.splitn(6, ' ').collect();
            format!(
                "{{\"id\": {}, \"parent\": {}, \"thread\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"name\": {}}}",
                f[0],
                if f[1] == "-" { "null" } else { f[1] },
                f[2],
                f[3],
                f[4],
                json_str(f.get(5).copied().unwrap_or(""))
            )
        })
        .collect();
    let metrics: Vec<String> = values
        .iter()
        .map(|(n, v)| format!("{}: {}", json_str(n), json_num(*v)))
        .collect();
    let doc = format!(
        "{{\"workload\": {}, \"metrics\": {{{}}},\n\"spans\": [\n{}\n]}}\n",
        json_str(w.name()),
        metrics.join(", "),
        spans.join(",\n")
    );
    let path = dir.join(format!("{}-trace.json", w.name()));
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the per-layer metrics the traced
    /// run reports.
    #[test]
    fn benchmark_json_lists_every_per_layer_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
        let listed = per_layer.matches("\"name\"").count();
        let metrics = per_layer_metrics();
        assert_eq!(listed, metrics.len());
        for (n, unit) in metrics {
            assert!(
                per_layer.contains(&format!("\"name\": \"{n}\",\n      \"unit\": \"{unit}\"")),
                "{n} ({unit}) missing from BENCHMARK.json"
            );
        }
    }

    #[test]
    fn paper_error_is_the_largest_relative_miss() {
        // 1.0435 s cf2icap (+0.048 %), 95.3 % share, 71.9072 ms array2icap.
        let err = paper_err_pct(Some(1_043_500_000_000), Some(0.953), &[71_907_200_000]);
        assert!((err - 0.04794).abs() < 1e-3, "{err}");
        assert_eq!(paper_err_pct(None, None, &[]), 100.0);
    }

    #[test]
    fn a_changed_or_missing_row_fails() {
        let child = |rows: &[(&str, bool)]| Child {
            setup_s: 0.0,
            wall_s: 1.0,
            rss_mib: 0.0,
            words_ok: 0,
            ops: (0, 0),
            paper_err_pct: 0.0,
            rows: rows
                .iter()
                .map(|&(t, ok)| (10, ok, t.to_string()))
                .collect(),
            layer: Vec::new(),
            spans: Vec::new(),
        };
        let expected = vec!["0 a=1".to_string(), "1 a=2".to_string()];
        assert_eq!(
            verify(&child(&[("0 a=1", true), ("1 a=2", true)]), &expected),
            (2, 0, 20)
        );
        assert_eq!(
            verify(&child(&[("0 a=1", true), ("1 a=3", true)]), &expected),
            (2, 1, 10)
        );
        assert_eq!(
            verify(&child(&[("0 a=1", true), ("1 a=2", false)]), &expected),
            (2, 1, 10)
        );
        assert_eq!(verify(&child(&[("0 a=1", true)]), &expected), (2, 1, 10));
    }
}
