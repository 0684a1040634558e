//! Host-time spans recorded around the benchmark's calls into the
//! simulator's public API.
//!
//! A [`Tracer`] is either on (the traced run) or off (the measured run).
//! Both runs go through the same [`Tracer::span`] calls; when off, a
//! span is just the closure call. Spans are kept in memory and emitted
//! when the iteration ends, never while it is being timed.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span: a named interval of host time.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub thread: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// The layer a span belongs to: its name without the last segment
    /// (`core.api.cf2icap` → `core.api`).
    pub fn layer(&self) -> &str {
        self.name.rsplit_once('.').map_or(&self.name, |(l, _)| l)
    }
}

fn thread_tag() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static TAG: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    TAG.with(|t| *t)
}

/// The span recorder. Shareable across the sweep's worker threads.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`. `f` receives
    /// the new span's id to parent its own children (`None` when off).
    pub fn span<R>(&self, name: &str, parent: Option<u32>, f: impl FnOnce(Option<u32>) -> R) -> R {
        if !self.on {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(Some(id));
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span buffer poisoned").push(Span {
            id,
            parent,
            thread: thread_tag(),
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
        });
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("span buffer poisoned");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Total host seconds of every span with this exact name.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Host self time per layer inside `root`, in seconds.
///
/// The root interval is cut at every span boundary. Each piece goes to
/// the spans active over it that have no active child (the innermost
/// work), split evenly when parallel workers overlap. The returned
/// times therefore sum to the root's duration exactly, even when the
/// sweep runs scenarios on two threads at once.
pub fn layer_self_times(spans: &[Span], root: u32) -> Vec<(String, f64)> {
    let Some(r) = spans.iter().find(|s| s.id == root) else {
        return Vec::new();
    };
    // Only the root and its descendants take part.
    let mut inside: Vec<&Span> = vec![r];
    let mut grew = true;
    while grew {
        grew = false;
        for s in spans {
            let adopted = s.parent.is_some_and(|p| inside.iter().any(|i| i.id == p));
            if adopted && !inside.iter().any(|i| i.id == s.id) {
                inside.push(s);
                grew = true;
            }
        }
    }
    let clamp = |t: u64| t.clamp(r.start_ns, r.end_ns);
    let mut cuts: Vec<u64> = inside
        .iter()
        .flat_map(|s| [clamp(s.start_ns), clamp(s.end_ns)])
        .collect();
    cuts.sort_unstable();
    cuts.dedup();

    let mut out: Vec<(String, f64)> = Vec::new();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let active: Vec<&&Span> = inside
            .iter()
            .filter(|s| s.start_ns <= a && s.end_ns >= b)
            .collect();
        let leaves: Vec<&&Span> = active
            .iter()
            .copied()
            .filter(|s| !active.iter().any(|c| c.parent == Some(s.id)))
            .collect();
        let share = (b - a) as f64 * 1e-9 / leaves.len().max(1) as f64;
        for s in leaves {
            match out.iter_mut().find(|(l, _)| l == s.layer()) {
                Some((_, t)) => *t += share,
                None => out.push((s.layer().to_string(), share)),
            }
        }
    }
    out
}

/// `self_s.<layer>` metrics for the `bench.wall` root span.
pub fn self_time_metrics(spans: &[Span]) -> Vec<(String, f64)> {
    let Some(root) = spans.iter().find(|s| s.name == "bench.wall") else {
        return Vec::new();
    };
    layer_self_times(spans, root.id)
        .into_iter()
        .map(|(layer, t)| (format!("self_s.{layer}"), t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            thread: id,
            name: name.into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_times_tile_the_root_even_with_parallel_children() {
        let spans = vec![
            span(0, None, "bench.wall", 0, 100),
            span(1, Some(0), "core.scenario.run_sweep_with", 10, 90),
            span(2, Some(1), "kpn.sweep.run_scenario", 10, 60),
            span(3, Some(1), "kpn.sweep.run_scenario", 20, 80),
            span(4, None, "core.api.cf2icap", 0, 100),
        ];
        let times = layer_self_times(&spans, 0);
        let get = |l: &str| times.iter().find(|(n, _)| n == l).map_or(0.0, |t| t.1);
        let total: f64 = times.iter().map(|t| t.1).sum();
        assert!((total - 100e-9).abs() < 1e-15);
        assert!((get("bench") - 20e-9).abs() < 1e-15);
        assert!((get("core.scenario") - 10e-9).abs() < 1e-15);
        assert!((get("kpn.sweep") - 70e-9).abs() < 1e-15);
        assert_eq!(get("core.api"), 0.0, "spans outside the root are ignored");
    }
}
