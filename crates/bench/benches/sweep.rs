//! Sweep engine — parallel batch simulation over the E3 design space.
//!
//! Measures the wall-clock scaling of `run_sweep_with` on the default
//! 16-scenario grid (the `vapres sweep` workload): the scenarios are
//! independent full-system runs, so sharding across worker threads
//! should approach linear speedup, and the merged output must not change
//! at all. Prints per-job-count wall time, the speedup over sequential,
//! and a determinism check on the merged registry.

use std::time::Instant;
use vapres_bench::banner;
use vapres_core::scenario::{merge_telemetry, run_sweep_with, SweepGrid};
use vapres_kpn::{clear_prefix_cache, run_scenario};

fn main() {
    banner("SWEEP", "parallel scenario sweep over the 16-point E3 grid");

    let scenarios = SweepGrid::e3_default().expand();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "  grid: {} scenarios (E3 default), {cores} core(s) available",
        scenarios.len()
    );
    if cores < 2 {
        println!("  note: single-core host — speedup is bounded at 1.0x here");
    }

    let mut baseline = None;
    let mut merged = Vec::new();
    for jobs in [1usize, 2, 4] {
        // Each job count builds its own warm-start prefixes; reusing the
        // ones jobs=1 left behind would inflate the later speedups.
        clear_prefix_cache();
        let t = Instant::now();
        let results = run_sweep_with(&scenarios, jobs, run_scenario);
        let wall = t.elapsed();
        let mut jsonl = Vec::new();
        merge_telemetry(&results)
            .write_jsonl(&mut jsonl)
            .expect("vec write");
        let speedup = match baseline {
            None => {
                baseline = Some(wall);
                merged = jsonl.clone();
                1.0
            }
            Some(base) => base.as_secs_f64() / wall.as_secs_f64(),
        };
        let identical = jsonl == merged;
        println!(
            "  jobs={jobs}  wall {:>8.1} ms  speedup {speedup:>5.2}x  merged {}",
            wall.as_secs_f64() * 1e3,
            if identical { "identical" } else { "DIVERGED" },
        );
        assert!(identical, "merged telemetry must not depend on job count");
    }
}
