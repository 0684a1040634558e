//! Hierarchical self-profiler: where the *simulator itself* spends its
//! effort, attributed per component.
//!
//! Two strictly separated planes:
//!
//! * **Work units** ([`WorkUnits`]) — deterministic counts of simulation
//!   effort: component ticks dispatched, route-span folds, ICAP words,
//!   storage bytes, swap steps, samples captured. Pure functions of the
//!   simulated schedule, so they are persisted in checkpoints and
//!   byte-identical across `--jobs` counts and warm/cold sweep paths,
//!   like every other observable.
//! * **Host time** — wall-clock nanoseconds per nested scope, measured
//!   with the monotonic clock ([`std::time::Instant`]). Host plumbing,
//!   not simulation state: never persisted, explicitly outside every
//!   determinism contract (like the live sink).
//!
//! The host plane keeps two structures. An *aggregation tree* accumulates
//! calls/total/child time per `(parent, name)` scope — self time is
//! `total - children`, and the identity is exact by construction (tested).
//! A fixed-capacity allocation-free *ring* (like the flight recorder)
//! keeps the most recent completed scope intervals for the chrome-trace
//! `"X"` duration track.
//!
//! Joining the planes, [`Profiler::cost_model`] emits one row per work
//! component — `{work_units, host_ns, ns_per_unit}` — which says where
//! host time goes per unit of simulated work. Per-route rows carry no
//! scope of their own (routes are folded inside the fabric tick), so
//! their host time is apportioned from the `exec/fabric` scope's self
//! time by work-unit share.

use crate::persist::{intern_static, Persist, PersistError, Reader, Writer};
use std::io::{self, Write};
use std::time::Instant;

/// Default capacity of the completed-scope ring.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Handle to one registered work component (an index; `Copy`, cheap to
/// store at instrumentation sites).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkId(usize);

/// The deterministic plane: named monotone work counters in registration
/// order.
///
/// Two charge styles, mirroring the telemetry registry's split:
/// event-recording sites [`add`](Self::add) as they run; state-derived
/// components are raised to their externally-tracked running total with
/// [`set`](Self::set) at harvest time (idempotent, so repeated harvests
/// don't double-count).
#[derive(Debug, Clone, Default)]
pub struct WorkUnits {
    names: Vec<&'static str>,
    units: Vec<u64>,
}

impl WorkUnits {
    /// An empty registry.
    pub fn new() -> Self {
        WorkUnits::default()
    }

    /// Returns the id for `name`, registering it (in first-seen order) if
    /// unknown.
    pub fn unit(&mut self, name: &str) -> WorkId {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return WorkId(i);
        }
        self.names.push(intern_static(name));
        self.units.push(0);
        WorkId(self.names.len() - 1)
    }

    /// Adds `n` units to a component (event-charging sites).
    pub fn add(&mut self, id: WorkId, n: u64) {
        self.units[id.0] += n;
    }

    /// Raises a component to an externally-tracked running total
    /// (harvest sites; idempotent).
    pub fn set(&mut self, id: WorkId, total: u64) {
        self.units[id.0] = total;
    }

    /// Current value of a component.
    pub fn get(&self, id: WorkId) -> u64 {
        self.units[id.0]
    }

    /// Number of registered components.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// `(name, units)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.names.iter().copied().zip(self.units.iter().copied())
    }
}

impl Persist for WorkUnits {
    fn persist(&self, w: &mut Writer) {
        w.put_usize(self.names.len());
        for (name, units) in self.iter() {
            w.put_str(name);
            w.put_u64(units);
        }
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let n = r.take_usize()?;
        let mut out = WorkUnits::new();
        for _ in 0..n {
            let name = r.take_string()?;
            let id = out.unit(&name);
            out.set(id, r.take_u64()?);
        }
        Ok(out)
    }
}

/// One aggregated scope in the host-time tree.
#[derive(Debug, Clone)]
struct Node {
    name: &'static str,
    parent: Option<usize>,
    calls: u64,
    total_ns: u64,
    /// Nanoseconds spent in this node's direct children (so self time is
    /// `total_ns - child_ns`, exactly).
    child_ns: u64,
}

/// One open scope on the stack.
#[derive(Debug, Clone, Copy)]
struct Frame {
    node: usize,
    start_ns: u64,
}

/// A completed scope interval in the ring (for the chrome `"X"` track).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeEvent {
    /// Scope name.
    pub name: &'static str,
    /// Nesting depth at completion (root scopes are 0).
    pub depth: u32,
    /// Start, nanoseconds since the profiler's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Aggregated view of one scope, as returned by [`Profiler::scopes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeStat {
    /// Scope name (not unique: the same name may appear under several
    /// parents).
    pub name: &'static str,
    /// Depth in the tree (root scopes are 0).
    pub depth: u32,
    /// Completed calls.
    pub calls: u64,
    /// Wall time including children, ns.
    pub total_ns: u64,
    /// Wall time excluding children, ns.
    pub self_ns: u64,
}

/// One row of the cost model: a work component joined with its host cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostRow {
    /// Work-plane component name.
    pub component: &'static str,
    /// Deterministic work units.
    pub work_units: u64,
    /// Host nanoseconds attributed to the component (never part of any
    /// determinism contract).
    pub host_ns: u64,
}

/// The cost model: one row per work component, in
/// registration order. The work-unit column is deterministic; the host
/// columns are not (and are skipped by structural comparisons).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostModel {
    /// The rows, in work-plane registration order.
    pub rows: Vec<CostRow>,
}

impl CostModel {
    /// Folds another model in: work units and host ns add per component,
    /// unknown components append in `other`'s order. Merging results in
    /// a fixed order (e.g. scenario-index order) keeps the merged
    /// work-unit plane independent of completion order.
    pub fn merge(&mut self, other: &CostModel) {
        for row in &other.rows {
            match self.rows.iter_mut().find(|r| r.component == row.component) {
                Some(r) => {
                    r.work_units += row.work_units;
                    r.host_ns += row.host_ns;
                }
                None => self.rows.push(row.clone()),
            }
        }
    }

    /// Writes the model as JSON: a `"cost_model"` format stamp, then one
    /// line per component — `{component, work_units, host_ns,
    /// ns_per_unit}`. Only `work_units` (and the component set/order) is
    /// deterministic; invariance checks strip the host fields first.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_json<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "{{")?;
        writeln!(w, "  \"cost_model\": 1,")?;
        writeln!(w, "  \"components\": [")?;
        for (i, r) in self.rows.iter().enumerate() {
            let ns_per_unit = if r.work_units == 0 {
                0.0
            } else {
                r.host_ns as f64 / r.work_units as f64
            };
            writeln!(
                w,
                "    {{\"component\":\"{}\",\"work_units\":{},\"host_ns\":{},\
                 \"ns_per_unit\":{:.6}}}{}",
                r.component,
                r.work_units,
                r.host_ns,
                ns_per_unit,
                if i + 1 < self.rows.len() { "," } else { "" }
            )?;
        }
        writeln!(w, "  ]")?;
        writeln!(w, "}}")?;
        Ok(())
    }
}

/// The two-plane self-profiler. See the module docs.
#[derive(Debug, Clone)]
pub struct Profiler {
    work: WorkUnits,
    nodes: Vec<Node>,
    stack: Vec<Frame>,
    ring: Vec<ScopeEvent>,
    capacity: usize,
    /// Once the ring is full: index of the oldest event (the slot the
    /// next completion overwrites).
    next: usize,
    /// Completed scopes over the profiler's whole lifetime.
    completed: u64,
    epoch: Instant,
}

impl Profiler {
    /// Creates a profiler whose ring keeps the last `ring_capacity`
    /// completed scopes.
    ///
    /// # Panics
    ///
    /// If `ring_capacity` is zero.
    pub fn new(ring_capacity: usize) -> Self {
        assert!(ring_capacity > 0, "ring capacity must be >= 1");
        Profiler {
            work: WorkUnits::new(),
            nodes: Vec::new(),
            stack: Vec::new(),
            ring: Vec::with_capacity(ring_capacity),
            capacity: ring_capacity,
            next: 0,
            completed: 0,
            epoch: Instant::now(),
        }
    }

    /// The deterministic work plane.
    pub fn work(&self) -> &WorkUnits {
        &self.work
    }

    /// The deterministic work plane, mutably (registration and charging).
    pub fn work_mut(&mut self) -> &mut WorkUnits {
        &mut self.work
    }

    /// Replaces the work plane (checkpoint restore: the host plane starts
    /// fresh — wall time is not simulation state — while the work plane
    /// resumes bit-exactly).
    pub fn set_work(&mut self, work: WorkUnits) {
        self.work = work;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a scope named `name` under the currently open scope.
    pub fn begin(&mut self, name: &'static str) {
        let parent = self.stack.last().map(|f| f.node);
        let node = match self
            .nodes
            .iter()
            .position(|n| n.parent == parent && n.name == name)
        {
            Some(i) => i,
            None => {
                self.nodes.push(Node {
                    name,
                    parent,
                    calls: 0,
                    total_ns: 0,
                    child_ns: 0,
                });
                self.nodes.len() - 1
            }
        };
        let start_ns = self.now_ns();
        self.stack.push(Frame { node, start_ns });
    }

    /// Closes the innermost open scope, charging its duration to the
    /// aggregation tree and pushing the interval into the ring.
    ///
    /// # Panics
    ///
    /// If no scope is open (unbalanced `end`).
    pub fn end(&mut self) {
        let frame = self.stack.pop().expect("profiler scope stack underflow");
        let dur_ns = self.now_ns().saturating_sub(frame.start_ns);
        let node = &mut self.nodes[frame.node];
        node.calls += 1;
        node.total_ns += dur_ns;
        let name = node.name;
        if let Some(parent) = self.stack.last() {
            self.nodes[parent.node].child_ns += dur_ns;
        }
        let event = ScopeEvent {
            name,
            depth: self.stack.len() as u32,
            start_ns: frame.start_ns,
            dur_ns,
        };
        if self.ring.len() < self.capacity {
            self.ring.push(event);
        } else {
            self.ring[self.next] = event;
            self.next = (self.next + 1) % self.capacity;
        }
        self.completed += 1;
    }

    /// Opens a scope and returns an RAII guard that closes it on drop.
    /// Nest via [`Scope::scope`].
    pub fn scope(&mut self, name: &'static str) -> Scope<'_> {
        self.begin(name);
        Scope { prof: self }
    }

    /// Number of open scopes.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Completed scopes over the profiler's lifetime (not capped by the
    /// ring).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Distinct scopes in the aggregation tree.
    pub fn scope_count(&self) -> u64 {
        self.nodes.len() as u64
    }

    /// The ring's completed intervals, oldest first.
    pub fn ring_events(&self) -> impl Iterator<Item = &ScopeEvent> + '_ {
        let (tail, head) = self.ring.split_at(self.next);
        head.iter().chain(tail.iter())
    }

    /// Aggregated per-scope statistics in depth-first tree order (each
    /// scope directly after its parent).
    pub fn scopes(&self) -> Vec<ScopeStat> {
        let mut out = Vec::with_capacity(self.nodes.len());
        self.push_subtree(None, 0, &mut out);
        out
    }

    fn push_subtree(&self, parent: Option<usize>, depth: u32, out: &mut Vec<ScopeStat>) {
        for (i, n) in self.nodes.iter().enumerate() {
            if n.parent != parent {
                continue;
            }
            out.push(ScopeStat {
                name: n.name,
                depth,
                calls: n.calls,
                total_ns: n.total_ns,
                self_ns: n.total_ns.saturating_sub(n.child_ns),
            });
            self.push_subtree(Some(i), depth + 1, out);
        }
    }

    /// Total self time (ns) of every scope with this exact name, summed
    /// across parents.
    pub fn self_ns_named(&self, name: &str) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.name == name)
            .map(|n| n.total_ns.saturating_sub(n.child_ns))
            .sum()
    }

    /// The `;`-joined root-to-scope path of node `i`.
    fn path_of(&self, i: usize) -> String {
        let mut parts = Vec::new();
        let mut cur = Some(i);
        while let Some(c) = cur {
            parts.push(self.nodes[c].name);
            cur = self.nodes[c].parent;
        }
        parts.reverse();
        parts.join(";")
    }

    /// Writes the aggregation tree in collapsed-stack form (one
    /// `root;child;leaf <self_ns>` line per scope with nonzero self
    /// time) — the format flamegraph tooling (inferno, flamegraph.pl)
    /// consumes directly.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_collapsed<W: Write>(&self, mut w: W) -> io::Result<()> {
        for i in 0..self.nodes.len() {
            let n = &self.nodes[i];
            let self_ns = n.total_ns.saturating_sub(n.child_ns);
            if self_ns == 0 && n.calls == 0 {
                continue;
            }
            writeln!(w, "{} {}", self.path_of(i), self_ns)?;
        }
        Ok(())
    }

    /// Writes the top-`n` scopes by self time as a fixed-width
    /// self/total table (names aggregated across parents).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_top_table<W: Write>(&self, mut w: W, n: usize) -> io::Result<()> {
        // Aggregate by name: the table answers "which component is
        // expensive", not "along which path".
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for node in &self.nodes {
            let self_ns = node.total_ns.saturating_sub(node.child_ns);
            match rows.iter_mut().find(|r| r.0 == node.name) {
                Some(r) => {
                    r.1 += node.calls;
                    r.2 += self_ns;
                    r.3 += node.total_ns;
                }
                None => rows.push((node.name, node.calls, self_ns, node.total_ns)),
            }
        }
        rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
        let grand: u64 = rows.iter().map(|r| r.2).sum();
        writeln!(
            w,
            "{:<28} {:>10} {:>12} {:>12} {:>6}",
            "scope", "calls", "self ms", "total ms", "self%"
        )?;
        for (name, calls, self_ns, total_ns) in rows.into_iter().take(n) {
            writeln!(
                w,
                "{:<28} {:>10} {:>12.3} {:>12.3} {:>5.1}%",
                name,
                calls,
                self_ns as f64 / 1e6,
                total_ns as f64 / 1e6,
                if grand == 0 {
                    0.0
                } else {
                    self_ns as f64 / grand as f64 * 100.0
                }
            )?;
        }
        Ok(())
    }

    /// The ring's intervals as serialized chrome-trace `"X"` (complete)
    /// event objects, oldest first — ready to splice into a
    /// `"traceEvents"` array next to the time-series counter track
    /// (`tid` 1 keeps the duration track on its own row).
    pub fn chrome_events(&self) -> Vec<String> {
        self.ring_events()
            .map(|e| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                     \"pid\":0,\"tid\":1,\"args\":{{\"depth\":{}}}}}",
                    e.name,
                    e.start_ns as f64 / 1000.0,
                    e.dur_ns as f64 / 1000.0,
                    e.depth
                )
            })
            .collect()
    }

    /// Writes the ring as a self-contained chrome-trace file (the `"X"`
    /// duration track alone).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_chrome_trace<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "{{\"traceEvents\":[")?;
        let events = self.chrome_events();
        for (i, e) in events.iter().enumerate() {
            writeln!(w, "{e}{}", if i + 1 < events.len() { "," } else { "" })?;
        }
        writeln!(w, "]}}")?;
        Ok(())
    }

    /// Joins the planes: one row per work component in registration
    /// order. Host time comes from the scope with the component's exact
    /// name (summed across parents); `fabric/route*` components — folded
    /// inside the fabric tick, so they own no scope — split the
    /// `exec/fabric` scope's self time by work-unit share.
    pub fn cost_model(&self) -> CostModel {
        let route_total: u64 = self
            .work
            .iter()
            .filter(|(n, _)| n.starts_with("fabric/route"))
            .map(|(_, u)| u)
            .sum();
        let fabric_self = self.self_ns_named("exec/fabric");
        let rows = self
            .work
            .iter()
            .map(|(component, work_units)| {
                let host_ns = if component.starts_with("fabric/route") {
                    if route_total == 0 {
                        0
                    } else {
                        (fabric_self as u128 * work_units as u128 / route_total as u128) as u64
                    }
                } else {
                    self.self_ns_named(component)
                };
                CostRow {
                    component,
                    work_units,
                    host_ns,
                }
            })
            .collect();
        CostModel { rows }
    }
}

/// RAII guard for an open scope: closes it on drop. Obtain via
/// [`Profiler::scope`]; nest via [`Scope::scope`].
pub struct Scope<'a> {
    prof: &'a mut Profiler,
}

impl Scope<'_> {
    /// Opens a child scope.
    pub fn scope(&mut self, name: &'static str) -> Scope<'_> {
        self.prof.begin(name);
        Scope { prof: self.prof }
    }

    /// The profiler, for work-plane charging inside a scope.
    pub fn profiler(&mut self) -> &mut Profiler {
        self.prof
    }
}

impl Drop for Scope<'_> {
    fn drop(&mut self) {
        self.prof.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_units_register_charge_and_iterate_in_order() {
        let mut w = WorkUnits::new();
        let a = w.unit("exec/fabric");
        let b = w.unit("cf");
        assert_eq!(w.unit("exec/fabric"), a, "get-or-register is idempotent");
        w.add(a, 3);
        w.add(a, 4);
        w.set(b, 100);
        w.set(b, 100);
        assert_eq!(w.get(a), 7);
        assert_eq!(w.get(b), 100, "set is idempotent");
        let pairs: Vec<_> = w.iter().collect();
        assert_eq!(pairs, vec![("exec/fabric", 7), ("cf", 100)]);
    }

    #[test]
    fn work_units_round_trip_through_the_codec() {
        let mut w = WorkUnits::new();
        let a = w.unit("exec/iom0");
        let b = w.unit("fabric/route3");
        w.add(a, 42);
        w.set(b, 7);
        let mut wr = Writer::new();
        w.persist(&mut wr);
        let bytes = wr.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = WorkUnits::restore(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(
            back.iter().collect::<Vec<_>>(),
            w.iter().collect::<Vec<_>>()
        );
        // And the persisted image itself is a pure function of contents.
        let mut wr2 = Writer::new();
        back.persist(&mut wr2);
        assert_eq!(bytes, wr2.into_bytes());
    }

    #[test]
    fn nested_scope_accounting_sums_exactly() {
        let mut p = Profiler::new(64);
        p.begin("run");
        p.begin("exec/fabric");
        busy();
        p.end();
        p.begin("exec/iom0");
        busy();
        p.begin("sample");
        busy();
        p.end();
        p.end();
        p.end();
        assert_eq!(p.depth(), 0);
        let stats = p.scopes();
        let get = |name: &str| *stats.iter().find(|s| s.name == name).unwrap();
        let run = get("run");
        let fabric = get("exec/fabric");
        let iom = get("exec/iom0");
        let sample = get("sample");
        // Child totals tile the parent exactly: the sum of the children's
        // total time equals the parent's total minus the parent's self.
        assert_eq!(fabric.total_ns + iom.total_ns, run.total_ns - run.self_ns);
        assert_eq!(sample.total_ns, iom.total_ns - iom.self_ns);
        // Leaves have no children: self == total.
        assert_eq!(fabric.self_ns, fabric.total_ns);
        assert_eq!(sample.self_ns, sample.total_ns);
        assert_eq!(run.calls, 1);
        assert_eq!(p.completed(), 4);
    }

    #[test]
    fn raii_scopes_nest_and_close_on_drop() {
        let mut p = Profiler::new(8);
        {
            let mut outer = p.scope("outer");
            {
                let _inner = outer.scope("inner");
            }
            let _sibling = outer.scope("sibling");
        }
        assert_eq!(p.depth(), 0, "every guard closed its scope");
        let stats = p.scopes();
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0].name, "outer");
        assert_eq!(stats[0].depth, 0);
        assert!(stats.iter().any(|s| s.name == "inner" && s.depth == 1));
    }

    #[test]
    fn ring_wraps_keeping_the_most_recent_scopes() {
        let mut p = Profiler::new(3);
        for name in ["a", "b", "c", "d", "e"] {
            p.begin(name);
            p.end();
        }
        let names: Vec<_> = p.ring_events().map(|e| e.name).collect();
        assert_eq!(names, vec!["c", "d", "e"], "oldest first, oldest evicted");
        assert_eq!(p.completed(), 5, "lifetime count is not capped");
    }

    #[test]
    fn capacity_one_ring_holds_exactly_the_last_scope() {
        let mut p = Profiler::new(1);
        p.begin("first");
        p.end();
        p.begin("second");
        p.end();
        let events: Vec<_> = p.ring_events().collect();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "second");
    }

    #[test]
    #[should_panic(expected = "ring capacity")]
    fn zero_capacity_is_rejected() {
        let _ = Profiler::new(0);
    }

    #[test]
    fn collapsed_stacks_carry_full_paths_and_self_values() {
        let mut p = Profiler::new(8);
        p.begin("run");
        p.begin("exec/fabric");
        busy();
        p.end();
        p.end();
        let mut out = Vec::new();
        p.write_collapsed(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let fabric_line = text
            .lines()
            .find(|l| l.starts_with("run;exec/fabric "))
            .expect("nested path present");
        let value: u64 = fabric_line.split(' ').next_back().unwrap().parse().unwrap();
        assert!(value > 0, "leaf self time is nonzero: {text}");
        assert!(text.lines().any(|l| l.starts_with("run ")));
    }

    #[test]
    fn top_table_ranks_by_self_time() {
        let mut p = Profiler::new(8);
        p.begin("cheap");
        p.end();
        p.begin("expensive");
        busy();
        busy();
        p.end();
        let mut out = Vec::new();
        p.write_top_table(&mut out, 10).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("scope"), "{text}");
        assert!(text.contains("self%"), "{text}");
        let exp = text.lines().position(|l| l.starts_with("expensive"));
        let cheap = text.lines().position(|l| l.starts_with("cheap"));
        assert!(exp.unwrap() < cheap.unwrap(), "{text}");
    }

    #[test]
    fn chrome_events_are_x_phase_on_their_own_track() {
        let mut p = Profiler::new(8);
        p.begin("run");
        p.begin("sample");
        p.end();
        p.end();
        let events = p.chrome_events();
        assert_eq!(events.len(), 2);
        assert!(events[0].contains("\"name\":\"sample\""), "{events:?}");
        assert!(events[0].contains("\"ph\":\"X\""));
        assert!(events[0].contains("\"tid\":1"));
        let mut out = Vec::new();
        p.write_chrome_trace(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["), "{text}");
        assert!(text.trim_end().ends_with("]}"), "{text}");
    }

    #[test]
    fn cost_model_joins_planes_and_apportions_route_time() {
        let mut p = Profiler::new(8);
        let fabric = p.work_mut().unit("exec/fabric");
        let r0 = p.work_mut().unit("fabric/route0");
        let r1 = p.work_mut().unit("fabric/route1");
        p.work_mut().add(fabric, 10);
        p.work_mut().set(r0, 30);
        p.work_mut().set(r1, 10);
        p.begin("exec/fabric");
        busy();
        p.end();
        let model = p.cost_model();
        let row = |name: &str| model.rows.iter().find(|r| r.component == name).unwrap();
        let fabric_self = p.self_ns_named("exec/fabric");
        assert!(fabric_self > 0);
        assert_eq!(row("exec/fabric").host_ns, fabric_self);
        assert_eq!(row("fabric/route0").host_ns, fabric_self * 30 / 40);
        assert_eq!(row("fabric/route1").host_ns, fabric_self * 10 / 40);
        assert_eq!(row("fabric/route0").work_units, 30);

        let mut out = Vec::new();
        model.write_json(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"cost_model\": 1"), "{text}");
        assert!(
            text.contains("{\"component\":\"exec/fabric\",\"work_units\":10,"),
            "{text}"
        );
        assert!(text.contains("\"ns_per_unit\":"), "{text}");
    }

    #[test]
    fn cost_model_merge_sums_by_component_in_first_seen_order() {
        let a = CostModel {
            rows: vec![
                CostRow {
                    component: "exec/fabric",
                    work_units: 5,
                    host_ns: 100,
                },
                CostRow {
                    component: "cf",
                    work_units: 2,
                    host_ns: 10,
                },
            ],
        };
        let b = CostModel {
            rows: vec![
                CostRow {
                    component: "cf",
                    work_units: 3,
                    host_ns: 20,
                },
                CostRow {
                    component: "sdram",
                    work_units: 1,
                    host_ns: 5,
                },
            ],
        };
        let mut merged = CostModel::default();
        merged.merge(&a);
        merged.merge(&b);
        let names: Vec<_> = merged.rows.iter().map(|r| r.component).collect();
        assert_eq!(names, vec!["exec/fabric", "cf", "sdram"]);
        assert_eq!(merged.rows[1].work_units, 5);
        assert_eq!(merged.rows[1].host_ns, 30);
    }

    /// Burns a little real time so durations are nonzero on any clock.
    fn busy() {
        let mut x = 0u64;
        for i in 0..20_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        std::hint::black_box(x);
    }
}
