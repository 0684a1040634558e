//! Activity-tracked component execution.
//!
//! The dense execution model — pull every rising edge from the
//! [`ClockScheduler`] and tick every component on each edge — is
//! O(edges × components) regardless of how much work the system is
//! actually doing. VAPRES systems are mostly *quiet*: FIFOs sit empty,
//! channels are routed but idle between samples, PRRs wait for input. The
//! [`Executor`] replaces the dense loop with event-driven scheduling:
//!
//! * every component registers with the clock domain that ticks it;
//! * after each tick a component reports an [`Activity`]: still `Active`,
//!   `IdleUntil` a known future time (e.g. an IOM waiting out its sample
//!   interval), or `Quiescent` (nothing to do until an external event);
//! * sleeping components are *skipped* when their domain's edge arrives,
//!   and when every component is asleep whole stretches of edges are
//!   elided with [`ClockScheduler::fast_forward`];
//! * an `IdleUntil` wake time is kept on the component itself, and the
//!   executor caches the earliest one, so a component sleeping until `t`
//!   is ticked by the first edge at or after `t`;
//! * external events (a FIFO push from another domain, a DCR write, a
//!   module install) wake components via [`Executor::wake`] or, from
//!   inside a tick, via the [`Waker`] handle.
//!
//! **Exactness contract:** the executor only elides ticks the host has
//! declared provably no-op (that is what `Quiescent`/`IdleUntil` assert),
//! so a run produces bit-for-bit the same component states, edge order,
//! and `Ps` timestamps as the dense loop — just without the wasted work.
//! Spurious wake-ups are therefore always safe: an extra tick of a
//! quiescent component is a no-op by definition.
//!
//! Per-domain counters ([`ExecStats`]) record edges delivered, edges
//! elided by fast-forward, component ticks dispatched, and ticks skipped,
//! so every run can report how much work it actually did.
//!
//! # Examples
//!
//! A component that processes a 3-word burst and then goes quiescent:
//!
//! ```
//! use vapres_sim::clock::ClockScheduler;
//! use vapres_sim::exec::{Activity, Executor};
//! use vapres_sim::time::{Freq, Ps};
//!
//! let mut clocks = ClockScheduler::new();
//! let clk = clocks.add_domain(Freq::mhz(100));
//! let mut exec = Executor::new();
//! let comp = exec.register(clk);
//!
//! let mut backlog = 3u32;
//! exec.run_for(&mut clocks, Ps::from_us(1), |_waker, id, _edge| {
//!     assert_eq!(id, comp);
//!     backlog -= 1;
//!     if backlog == 0 { Activity::Quiescent } else { Activity::Active }
//! });
//!
//! assert_eq!(clocks.now(), Ps::from_us(1));       // time fully advanced
//! assert_eq!(clocks.cycles(clk), 100);            // cycle count exact
//! assert_eq!(exec.stats().total_ticks(), 3);      // but only 3 ticks ran
//! assert_eq!(exec.stats().total_skips(), 97);
//! ```

use crate::clock::{ClockScheduler, DomainId, Edge};
use crate::persist::{Persist, PersistError, Reader, Writer};
use crate::time::Ps;
use crate::trace::{SignalId, Tracer};

/// What a component reports after a tick: may the executor stop ticking it?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// The component may do work on the very next edge — keep ticking it.
    Active,
    /// Every tick before the given absolute time is provably a no-op; tick
    /// again at the first edge at or after it (or earlier if woken).
    IdleUntil(Ps),
    /// Every further tick is provably a no-op until an external event
    /// wakes the component.
    Quiescent,
}

/// Identifies a component registered with an [`Executor`].
///
/// Ids are dense, starting at 0, in registration order. Components of the
/// same domain are ticked in registration order on each edge — hosts must
/// register them in the same order the dense loop dispatched them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComponentId(pub usize);

/// Per-domain work counters. `edges + ff_edges` is the number of rising
/// edges the domain produced; `ticks + skips` is what a dense loop would
/// have dispatched for this domain's components.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DomainStats {
    /// Edges delivered one-by-one (at least one component somewhere awake).
    pub edges: u64,
    /// Edges elided wholesale by fast-forward (everything asleep).
    pub ff_edges: u64,
    /// Component ticks actually dispatched.
    pub ticks: u64,
    /// Component ticks skipped because the component was asleep.
    pub skips: u64,
}

/// Executor work counters, per clock domain plus aggregates.
#[derive(Debug, Default, Clone)]
pub struct ExecStats {
    domains: Vec<DomainStats>,
}

impl ExecStats {
    /// Counters for one domain (zeros if the domain never appeared).
    pub fn domain(&self, id: DomainId) -> DomainStats {
        self.domains.get(id.0).copied().unwrap_or_default()
    }

    /// Iterates `(domain, counters)` over every domain seen.
    pub fn domains(&self) -> impl Iterator<Item = (DomainId, &DomainStats)> {
        self.domains
            .iter()
            .enumerate()
            .map(|(i, s)| (DomainId(i), s))
    }

    /// Total component ticks dispatched.
    pub fn total_ticks(&self) -> u64 {
        self.domains.iter().map(|d| d.ticks).sum()
    }

    /// Total component ticks skipped (asleep at a delivered or elided edge).
    pub fn total_skips(&self) -> u64 {
        self.domains.iter().map(|d| d.skips).sum()
    }

    /// What the dense tick-everything loop would have dispatched.
    pub fn dense_equivalent_ticks(&self) -> u64 {
        self.total_ticks() + self.total_skips()
    }

    /// How many times fewer ticks ran than the dense loop would have run
    /// (∞ if nothing ticked at all).
    pub fn tick_reduction(&self) -> f64 {
        let ticks = self.total_ticks();
        if ticks == 0 {
            return f64::INFINITY;
        }
        self.dense_equivalent_ticks() as f64 / ticks as f64
    }

    fn ensure(&mut self, idx: usize) {
        if self.domains.len() <= idx {
            self.domains.resize(idx + 1, DomainStats::default());
        }
    }
}

#[derive(Debug)]
struct Comp {
    domain: DomainId,
    awake: bool,
    /// Pending `IdleUntil` wake time; `Some` only while asleep.
    timer: Option<Ps>,
}

/// Handle through which a component tick wakes *other* components (e.g.
/// the fabric delivered a word into some node's FIFO). Wakes are applied
/// as soon as the tick returns, so a component later in the same edge's
/// dispatch order still sees the wake on this edge — exactly matching the
/// dense loop, which would have ticked it anyway.
#[derive(Debug)]
pub struct Waker<'a> {
    pending: &'a mut Vec<ComponentId>,
    scheduled: &'a mut Vec<(ComponentId, Ps)>,
}

impl Waker<'_> {
    /// Marks a component to be woken when the current tick returns.
    pub fn wake(&mut self, id: ComponentId) {
        self.pending.push(id);
    }

    /// Marks a component to be woken at absolute time `at` — the ticked
    /// component computed another component's event horizon (e.g. the
    /// fabric knows the next cycle it can deliver a word). Applied when
    /// the current tick returns; a same-edge [`wake`](Self::wake) for the
    /// same component wins (the timer is only placed on sleeping
    /// components).
    pub fn schedule_at(&mut self, id: ComponentId, at: Ps) {
        self.scheduled.push((id, at));
    }
}

struct ExecTrace {
    tracer: Tracer,
    total: SignalId,
    domains: Vec<SignalId>,
}

/// The activity-tracked component scheduler. See the [module
/// docs](self) for the execution model and exactness contract.
///
/// The executor does not own the [`ClockScheduler`] — the host keeps it
/// (frequency changes and gating stay host business) and lends it to
/// [`run_for`](Self::run_for) / [`step`](Self::step).
#[derive(Default)]
pub struct Executor {
    comps: Vec<Comp>,
    domain_comps: Vec<Vec<ComponentId>>,
    awake_per_domain: Vec<usize>,
    awake_total: usize,
    /// Earliest pending wake time over all components, kept exact.
    next_timer: Option<Ps>,
    stats: ExecStats,
    wake_scratch: Vec<ComponentId>,
    sched_scratch: Vec<(ComponentId, Ps)>,
    ff_scratch: Vec<u64>,
    trace: Option<ExecTrace>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("components", &self.comps.len())
            .field("awake", &self.awake_total)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Executor {
    /// Creates an executor with no components.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a component clocked by `domain`, initially awake.
    ///
    /// Components sharing a domain tick in registration order.
    pub fn register(&mut self, domain: DomainId) -> ComponentId {
        let id = ComponentId(self.comps.len());
        self.ensure_domain(domain.0);
        self.comps.push(Comp {
            domain,
            awake: true,
            timer: None,
        });
        self.domain_comps[domain.0].push(id);
        self.awake_per_domain[domain.0] += 1;
        self.awake_total += 1;
        id
    }

    fn ensure_domain(&mut self, idx: usize) {
        if self.domain_comps.len() <= idx {
            self.domain_comps.resize_with(idx + 1, Vec::new);
            self.awake_per_domain.resize(idx + 1, 0);
        }
        self.stats.ensure(idx);
    }

    /// Number of registered components.
    pub fn component_count(&self) -> usize {
        self.comps.len()
    }

    /// Whether the component is currently awake (would tick on its next
    /// domain edge).
    pub fn is_awake(&self, id: ComponentId) -> bool {
        self.comps[id.0].awake
    }

    /// Wakes a component in response to an external event (FIFO push, DCR
    /// write, module install, …). Cancels a pending `IdleUntil` timer.
    /// Waking an awake component is a no-op; spurious wakes are safe.
    pub fn wake(&mut self, id: ComponentId) {
        self.cancel_timer(id);
        let comp = &mut self.comps[id.0];
        if !comp.awake {
            comp.awake = true;
            self.awake_per_domain[comp.domain.0] += 1;
            self.awake_total += 1;
        }
    }

    /// Puts a component to sleep from outside a tick — the host's
    /// assertion that the component cannot do work right now (e.g. its
    /// clock domain is gated, or its PRR is empty). Cancels a pending
    /// `IdleUntil` timer. The host must [`wake`](Self::wake) it when the
    /// condition changes; sleeping an asleep component is a no-op.
    pub fn sleep_component(&mut self, id: ComponentId) {
        self.cancel_timer(id);
        self.sleep(id, None);
    }

    /// (Re)schedules a sleeping component to wake at absolute time `at`,
    /// replacing any pending `IdleUntil` timer. A no-op on an awake
    /// component — it will tick on its next edge anyway and report fresh
    /// activity then.
    pub fn schedule_wake_at(&mut self, id: ComponentId, at: Ps) {
        if self.comps[id.0].awake {
            return;
        }
        self.cancel_timer(id);
        self.set_timer(id, at);
    }

    fn set_timer(&mut self, id: ComponentId, at: Ps) {
        self.comps[id.0].timer = Some(at);
        if self.next_timer.is_none_or(|t| at < t) {
            self.next_timer = Some(at);
        }
    }

    /// Drops a pending wake time; rescans for the new minimum only when
    /// the dropped time was the cached one.
    fn cancel_timer(&mut self, id: ComponentId) {
        if let Some(t) = self.comps[id.0].timer.take() {
            if self.next_timer == Some(t) {
                self.next_timer = self.comps.iter().filter_map(|c| c.timer).min();
            }
        }
    }

    fn sleep(&mut self, id: ComponentId, timer: Option<Ps>) {
        debug_assert!(
            self.comps[id.0].timer.is_none(),
            "awake component had a timer"
        );
        if let Some(at) = timer {
            self.set_timer(id, at);
        }
        let comp = &mut self.comps[id.0];
        if comp.awake {
            comp.awake = false;
            self.awake_per_domain[comp.domain.0] -= 1;
            self.awake_total -= 1;
        }
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Zeroes the work counters (e.g. between bench phases).
    pub fn reset_stats(&mut self) {
        for d in &mut self.stats.domains {
            *d = DomainStats::default();
        }
    }

    /// Starts recording per-domain awake-component counts into an internal
    /// [`Tracer`] (signals `awake_total` and `clk<N>_awake`), for VCD
    /// inspection of the scheduler itself.
    pub fn enable_tracing(&mut self) {
        if self.trace.is_some() {
            return;
        }
        let mut tracer = Tracer::new("vapres_exec");
        let total = tracer.add_signal("awake_total", 16);
        self.trace = Some(ExecTrace {
            tracer,
            total,
            domains: Vec::new(),
        });
    }

    /// The scheduler-activity tracer, if [`enable_tracing`](Self::enable_tracing)
    /// was called.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.trace.as_ref().map(|t| &t.tracer)
    }

    fn trace_sample(&mut self, at: Ps) {
        let Some(tr) = &mut self.trace else { return };
        tr.tracer.change(at, tr.total, self.awake_total as u64);
        while tr.domains.len() < self.awake_per_domain.len() {
            let name = format!("clk{}_awake", tr.domains.len());
            tr.domains.push(tr.tracer.add_signal(&name, 16));
        }
        for (d, &n) in self.awake_per_domain.iter().enumerate() {
            tr.tracer.change(at, tr.domains[d], n as u64);
        }
    }

    /// Runs the system for `dur`, advancing `clocks` exactly to
    /// `clocks.now() + dur`.
    ///
    /// `host` is called once per awake component per delivered edge of its
    /// domain, in registration order, and must perform the component's
    /// tick and report its [`Activity`].
    pub fn run_for<F>(&mut self, clocks: &mut ClockScheduler, dur: Ps, mut host: F)
    where
        F: FnMut(&mut Waker<'_>, ComponentId, Edge) -> Activity,
    {
        let deadline = clocks.now() + dur;
        while self.step(clocks, deadline, &mut host) {}
    }

    /// Advances the system by one unit of progress toward `deadline`:
    /// either one delivered edge (dispatching that domain's awake
    /// components), or one fast-forward over a fully-asleep stretch.
    ///
    /// Returns `false` once `clocks.now()` has reached `deadline` and
    /// nothing further can happen before it. Hosts with their own outer
    /// loops (e.g. `run_until` predicates, checked between steps) build on
    /// this directly.
    pub fn step<F>(&mut self, clocks: &mut ClockScheduler, deadline: Ps, host: &mut F) -> bool
    where
        F: FnMut(&mut Waker<'_>, ComponentId, Edge) -> Activity,
    {
        self.pop_timers(clocks.now());
        if self.awake_total == 0 {
            return self.fast_forward(clocks, deadline);
        }
        let Some(edge) = clocks.next_edge_before(deadline) else {
            // No edge before the deadline: now == deadline. Wake timers due
            // exactly at the deadline so the next call sees them.
            self.pop_timers(clocks.now());
            return false;
        };
        // Components sleeping until t ≤ edge.at must tick on this edge.
        self.pop_timers(edge.at);
        self.dispatch(clocks, edge, host);
        true
    }

    /// All components asleep: elide edges up to the deadline or the next
    /// `IdleUntil` wake-up, whichever is earlier. Returns whether the
    /// caller should keep stepping.
    fn fast_forward(&mut self, clocks: &mut ClockScheduler, deadline: Ps) -> bool {
        let now = clocks.now();
        if now >= deadline {
            return false;
        }
        match self.next_timer {
            Some(t) if t <= deadline => {
                // Elide edges strictly before t; the edge at t (if any)
                // must still be delivered to the newly woken components.
                let stop = Ps::new(t.as_ps() - 1);
                if stop > now {
                    self.accounted_fast_forward(clocks, stop);
                }
                self.pop_timers(t);
                true
            }
            _ => {
                self.accounted_fast_forward(clocks, deadline);
                false
            }
        }
    }

    /// `ClockScheduler::fast_forward` plus per-domain skip accounting.
    fn accounted_fast_forward(&mut self, clocks: &mut ClockScheduler, target: Ps) {
        let n = clocks.len();
        self.ff_scratch.clear();
        self.ff_scratch
            .extend((0..n).map(|d| clocks.cycles(DomainId(d))));
        clocks.fast_forward(target);
        for d in 0..n {
            let elided = clocks.cycles(DomainId(d)) - self.ff_scratch[d];
            if elided == 0 {
                continue;
            }
            self.stats.ensure(d);
            let comps = self.domain_comps.get(d).map_or(0, Vec::len) as u64;
            let st = &mut self.stats.domains[d];
            st.ff_edges += elided;
            st.skips += elided * comps;
        }
        self.trace_sample(target);
    }

    fn dispatch<F>(&mut self, clocks: &mut ClockScheduler, edge: Edge, host: &mut F)
    where
        F: FnMut(&mut Waker<'_>, ComponentId, Edge) -> Activity,
    {
        let d = edge.domain.0;
        self.ensure_domain(d);
        self.stats.domains[d].edges += 1;
        for i in 0..self.domain_comps[d].len() {
            let id = self.domain_comps[d][i];
            if !self.comps[id.0].awake {
                self.stats.domains[d].skips += 1;
                continue;
            }
            self.stats.domains[d].ticks += 1;
            let mut pending = std::mem::take(&mut self.wake_scratch);
            let mut scheduled = std::mem::take(&mut self.sched_scratch);
            let activity = host(
                &mut Waker {
                    pending: &mut pending,
                    scheduled: &mut scheduled,
                },
                id,
                edge,
            );
            self.apply_activity(id, clocks.now(), activity);
            // Immediate wakes first: schedule_wake_at is a no-op on the
            // components they leave awake.
            for c in pending.drain(..) {
                self.wake(c);
            }
            for (c, at) in scheduled.drain(..) {
                self.schedule_wake_at(c, at);
            }
            self.wake_scratch = pending;
            self.sched_scratch = scheduled;
        }
        self.trace_sample(edge.at);
    }

    fn apply_activity(&mut self, id: ComponentId, now: Ps, activity: Activity) {
        match activity {
            Activity::Active => {}
            Activity::Quiescent => self.sleep(id, None),
            Activity::IdleUntil(t) if t > now => self.sleep(id, Some(t)),
            // An idle-until time that is not in the future means "keep
            // ticking me" — equivalent to Active.
            Activity::IdleUntil(_) => {}
        }
    }

    /// Wakes every component whose wake time is due by `now`. Only sets
    /// awake flags — dispatch follows registration order — so the order
    /// of this scan is unobservable.
    fn pop_timers(&mut self, now: Ps) {
        if self.next_timer.is_none_or(|t| t > now) {
            return;
        }
        let mut next = None;
        for comp in &mut self.comps {
            match comp.timer {
                Some(t) if t <= now => {
                    comp.timer = None;
                    comp.awake = true;
                    self.awake_per_domain[comp.domain.0] += 1;
                    self.awake_total += 1;
                }
                Some(t) if next.is_none_or(|n| t < n) => next = Some(t),
                _ => {}
            }
        }
        self.next_timer = next;
    }
}

impl Persist for ComponentId {
    fn persist(&self, w: &mut Writer) {
        w.put_usize(self.0);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(ComponentId(r.take_usize()?))
    }
}

impl Persist for DomainStats {
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.edges);
        w.put_u64(self.ff_edges);
        w.put_u64(self.ticks);
        w.put_u64(self.skips);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(DomainStats {
            edges: r.take_u64()?,
            ff_edges: r.take_u64()?,
            ticks: r.take_u64()?,
            skips: r.take_u64()?,
        })
    }
}

impl Persist for ExecStats {
    fn persist(&self, w: &mut Writer) {
        self.domains.persist(w);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(ExecStats {
            domains: Vec::restore(r)?,
        })
    }
}

impl Persist for Executor {
    fn persist(&self, w: &mut Writer) {
        w.put_usize(self.comps.len());
        for c in &self.comps {
            w.put_usize(c.domain.0);
            c.awake.persist(w);
            c.timer.persist(w);
        }
        // `domain_comps` sizing is observable through skip accounting, so
        // the number of domain slots is encoded even though their contents
        // (registration order per domain) are derived from `comps`.
        w.put_usize(self.domain_comps.len());
        self.stats.persist(w);
        self.trace.as_ref().map(|t| &t.tracer).cloned().persist(w);
        // Scratch vectors are empty between steps and never encoded.
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let n = r.take_usize()?;
        if n > r.remaining() {
            return Err(PersistError::UnexpectedEof);
        }
        let mut comps = Vec::with_capacity(n);
        for _ in 0..n {
            let domain = DomainId(r.take_usize()?);
            let awake = bool::restore(r)?;
            let timer = Option::<Ps>::restore(r)?;
            if awake && timer.is_some() {
                return Err(PersistError::Corrupt("awake component with timer".into()));
            }
            comps.push(Comp {
                domain,
                awake,
                timer,
            });
        }
        let n_domains = r.take_usize()?;
        let stats = ExecStats::restore(r)?;
        let trace = Option::<Tracer>::restore(r)?
            .map(|tracer| {
                if tracer.signal_count() == 0 {
                    return Err(PersistError::Corrupt("exec trace without signals".into()));
                }
                Ok(ExecTrace {
                    total: SignalId::from_index(0),
                    domains: (1..tracer.signal_count())
                        .map(SignalId::from_index)
                        .collect(),
                    tracer,
                })
            })
            .transpose()?;

        // Every domain slot also has a stats slot, so the stats bound the
        // slot count before anything is allocated for it.
        if n_domains > stats.domains.len() {
            return Err(PersistError::Corrupt(format!(
                "{n_domains} domain slots but {} stats slots",
                stats.domains.len()
            )));
        }
        if let Some(d) = comps.iter().map(|c| c.domain.0).find(|&d| d >= n_domains) {
            return Err(PersistError::Corrupt(format!(
                "component domain {d} beyond {n_domains} domain slots"
            )));
        }
        let next_timer = comps.iter().filter_map(|c| c.timer).min();
        let mut exec = Executor {
            comps,
            domain_comps: vec![Vec::new(); n_domains],
            awake_per_domain: vec![0; n_domains],
            awake_total: 0,
            next_timer,
            stats,
            trace,
            ..Executor::default()
        };
        for (idx, c) in exec.comps.iter().enumerate() {
            exec.domain_comps[c.domain.0].push(ComponentId(idx));
            if c.awake {
                exec.awake_per_domain[c.domain.0] += 1;
                exec.awake_total += 1;
            }
        }
        Ok(exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Freq;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn quiescent_component_is_skipped_and_time_still_advances() {
        let mut clocks = ClockScheduler::new();
        let clk = clocks.add_domain(Freq::mhz(100));
        let mut exec = Executor::new();
        let c = exec.register(clk);

        let mut ticks = 0u32;
        exec.run_for(&mut clocks, Ps::from_us(1), |_, id, _| {
            assert_eq!(id, c);
            ticks += 1;
            Activity::Quiescent
        });
        assert_eq!(ticks, 1);
        assert_eq!(clocks.now(), Ps::from_us(1));
        assert_eq!(clocks.cycles(clk), 100, "fast-forward keeps cycles exact");
        let st = exec.stats().domain(clk);
        assert_eq!(st.ticks, 1);
        assert_eq!(st.edges + st.ff_edges, 100);
        assert_eq!(st.skips, 99);
    }

    #[test]
    fn idle_until_wakes_at_first_edge_at_or_after_deadline() {
        let mut clocks = ClockScheduler::new();
        let clk = clocks.add_domain(Freq::mhz(100)); // 10 ns period
        let mut exec = Executor::new();
        exec.register(clk);

        let tick_times = Rc::new(RefCell::new(Vec::new()));
        let log = tick_times.clone();
        exec.run_for(&mut clocks, Ps::from_ns(100), move |_, _, edge| {
            log.borrow_mut().push(edge.at.as_ns());
            // Sleep until 55 ns: the next tick must be the 60 ns edge.
            if edge.at == Ps::from_ns(10) {
                Activity::IdleUntil(Ps::from_ns(55))
            } else {
                Activity::Quiescent
            }
        });
        assert_eq!(*tick_times.borrow(), vec![10, 60]);
    }

    #[test]
    fn idle_until_exactly_on_edge_ticks_that_edge() {
        let mut clocks = ClockScheduler::new();
        let clk = clocks.add_domain(Freq::mhz(100));
        let mut exec = Executor::new();
        exec.register(clk);

        let tick_times = Rc::new(RefCell::new(Vec::new()));
        let log = tick_times.clone();
        exec.run_for(&mut clocks, Ps::from_ns(100), move |_, _, edge| {
            log.borrow_mut().push(edge.at.as_ns());
            if edge.at == Ps::from_ns(10) {
                Activity::IdleUntil(Ps::from_ns(70))
            } else {
                Activity::Quiescent
            }
        });
        assert_eq!(*tick_times.borrow(), vec![10, 70]);
    }

    #[test]
    fn host_wake_applies_within_the_same_edge() {
        // Two components in one domain: the first wakes the second during
        // its own tick, so the second must tick on that same edge — the
        // dense-loop ordering.
        let mut clocks = ClockScheduler::new();
        let clk = clocks.add_domain(Freq::mhz(100));
        let mut exec = Executor::new();
        let a = exec.register(clk);
        let b = exec.register(clk);

        let order = Rc::new(RefCell::new(Vec::new()));
        let log = order.clone();
        exec.run_for(&mut clocks, Ps::from_ns(30), move |waker, id, edge| {
            log.borrow_mut().push((id, edge.at.as_ns()));
            if id == a && edge.at == Ps::from_ns(20) {
                waker.wake(b);
                Activity::Quiescent
            } else if id == a {
                Activity::Active
            } else {
                // b goes quiescent immediately on its first tick (10 ns).
                Activity::Quiescent
            }
        });
        assert_eq!(
            *order.borrow(),
            vec![(a, 10), (b, 10), (a, 20), (b, 20)],
            "b skipped nothing at 20 ns: the wake applied mid-edge"
        );
    }

    #[test]
    fn host_schedule_at_wakes_sleeping_peer_and_defers_to_wake() {
        // a stays active and steers b: sleeping b is woken by a timer a
        // placed via schedule_at, and a same-edge wake() overrides a
        // later schedule_at for the same component.
        let mut clocks = ClockScheduler::new();
        let clk = clocks.add_domain(Freq::mhz(100)); // 10 ns period
        let mut exec = Executor::new();
        let _a = exec.register(clk);
        let b = exec.register(clk);

        let b_ticks = Rc::new(RefCell::new(Vec::new()));
        let log = b_ticks.clone();
        exec.run_for(&mut clocks, Ps::from_ns(100), move |waker, id, edge| {
            if id == b {
                log.borrow_mut().push(edge.at.as_ns());
                return Activity::Quiescent;
            }
            match edge.at.as_ns() {
                // b slept after its 10 ns tick; aim a timer at 40 ns.
                20 => waker.schedule_at(b, Ps::from_ns(40)),
                // Replace a far-future timer with an immediate wake on
                // the same edge: wake wins, b ticks at 60 ns, and no
                // stale 90 ns timer survives to re-wake it.
                60 => {
                    waker.schedule_at(b, Ps::from_ns(90));
                    waker.wake(b);
                }
                _ => {}
            }
            Activity::Active
        });
        assert_eq!(*b_ticks.borrow(), vec![10, 40, 60]);
    }

    #[test]
    fn schedule_wake_at_replaces_pending_timer() {
        let mut clocks = ClockScheduler::new();
        let clk = clocks.add_domain(Freq::mhz(100));
        let mut exec = Executor::new();
        let c = exec.register(clk);

        exec.run_for(&mut clocks, Ps::from_ns(10), |_, _, _| {
            Activity::IdleUntil(Ps::from_ns(80))
        });
        assert!(!exec.is_awake(c));
        // Pull the horizon in: the 80 ns timer must not fire a second
        // tick after the replacement 30 ns one.
        exec.schedule_wake_at(c, Ps::from_ns(30));
        let mut ticks = Vec::new();
        exec.run_for(&mut clocks, Ps::from_ns(90), |_, _, edge| {
            ticks.push(edge.at.as_ns());
            Activity::Quiescent
        });
        assert_eq!(ticks, vec![30]);

        // On an awake component it is a no-op (no timer placed).
        exec.wake(c);
        exec.schedule_wake_at(c, Ps::from_us(5));
        let mut ticks = 0;
        exec.run_for(&mut clocks, Ps::from_ns(20), |_, _, _| {
            ticks += 1;
            Activity::Quiescent
        });
        assert_eq!(ticks, 1);
    }

    #[test]
    fn external_wake_cancels_idle_timer() {
        let mut clocks = ClockScheduler::new();
        let clk = clocks.add_domain(Freq::mhz(100));
        let mut exec = Executor::new();
        let c = exec.register(clk);

        let mut first = true;
        exec.run_for(&mut clocks, Ps::from_ns(10), |_, _, _| {
            first = false;
            Activity::IdleUntil(Ps::from_us(1))
        });
        assert!(!first);
        assert!(!exec.is_awake(c));
        exec.wake(c);
        assert!(exec.is_awake(c));

        let mut ticks = 0;
        exec.run_for(&mut clocks, Ps::from_ns(50), |_, _, _| {
            ticks += 1;
            Activity::Quiescent
        });
        assert_eq!(ticks, 1, "woken component ticked on the next edge");
    }

    /// Two components in one 100 MHz domain that go to sleep after their
    /// 10 ns tick with the given wake times.
    fn two_sleepers(a_at: Ps, b_at: Ps) -> (ClockScheduler, Executor, ComponentId, ComponentId) {
        let mut clocks = ClockScheduler::new();
        let clk = clocks.add_domain(Freq::mhz(100));
        let mut exec = Executor::new();
        let a = exec.register(clk);
        let b = exec.register(clk);
        exec.run_for(&mut clocks, Ps::from_ns(10), |_, id, _| {
            Activity::IdleUntil(if id == a { a_at } else { b_at })
        });
        assert_eq!(exec.next_timer, Some(a_at.min(b_at)));
        (clocks, exec, a, b)
    }

    /// Runs to `until` and logs `(component, ns)` per tick; every tick
    /// reports `Quiescent`.
    fn tick_log(
        clocks: &mut ClockScheduler,
        exec: &mut Executor,
        until: Ps,
    ) -> Vec<(ComponentId, u64)> {
        let mut log = Vec::new();
        let dur = until - clocks.now();
        exec.run_for(clocks, dur, |_, id, edge| {
            log.push((id, edge.at.as_ns()));
            Activity::Quiescent
        });
        log
    }

    #[test]
    fn wake_cancels_pending_wake_time() {
        let (mut clocks, mut exec, a, b) = two_sleepers(Ps::from_ns(40), Ps::from_ns(80));
        exec.wake(a);
        assert_eq!(exec.comps[a.0].timer, None);
        assert_eq!(exec.next_timer, Some(Ps::from_ns(80)), "min recomputed");
        // a ticks once on the next edge; its cancelled 40 ns wake never
        // fires.
        let log = tick_log(&mut clocks, &mut exec, Ps::from_ns(100));
        assert_eq!(log, vec![(a, 20), (b, 80)]);
        assert_eq!(exec.next_timer, None);
    }

    #[test]
    fn schedule_wake_at_replaces_earlier_or_later_wake_time() {
        let (mut clocks, mut exec, a, b) = two_sleepers(Ps::from_ns(50), Ps::from_ns(60));
        // Pull a's wake in, then push it out past b's: each call replaces
        // the pending time, and moving the earliest one out recomputes
        // the cached minimum from the remaining wake times.
        exec.schedule_wake_at(a, Ps::from_ns(30));
        assert_eq!(exec.next_timer, Some(Ps::from_ns(30)));
        exec.schedule_wake_at(a, Ps::from_ns(90));
        assert_eq!(exec.next_timer, Some(Ps::from_ns(60)));
        // Replacing a wake time that is not the earliest keeps the cache.
        exec.schedule_wake_at(a, Ps::from_ns(70));
        assert_eq!(exec.next_timer, Some(Ps::from_ns(60)));
        let log = tick_log(&mut clocks, &mut exec, Ps::from_ns(100));
        assert_eq!(log, vec![(b, 60), (a, 70)]);
    }

    #[test]
    fn sleep_component_cancels_pending_wake_time() {
        let (mut clocks, mut exec, a, b) = two_sleepers(Ps::from_ns(40), Ps::from_ns(80));
        exec.sleep_component(a);
        assert!(!exec.is_awake(a));
        assert_eq!(exec.comps[a.0].timer, None);
        assert_eq!(exec.next_timer, Some(Ps::from_ns(80)));
        exec.sleep_component(b);
        assert_eq!(exec.next_timer, None);
        // Nothing is left to wake anyone: the rest is one fast-forward.
        let log = tick_log(&mut clocks, &mut exec, Ps::from_ns(100));
        assert!(log.is_empty());
        assert_eq!(clocks.now(), Ps::from_ns(100));
        assert_eq!(exec.stats().total_ticks(), 2);
    }

    #[test]
    fn wake_time_on_an_edge_ticks_that_edge_while_peers_run() {
        // a keeps the domain's edges delivered one by one, so b's wake
        // times are released on the delivered-edge path, not by a
        // fast-forward: one exactly on the 50 ns edge, one between edges.
        let mut clocks = ClockScheduler::new();
        let clk = clocks.add_domain(Freq::mhz(100));
        let mut exec = Executor::new();
        let a = exec.register(clk);
        exec.register(clk);
        let mut b_ticks = Vec::new();
        exec.run_for(&mut clocks, Ps::from_ns(100), |_, id, edge| {
            if id == a {
                return Activity::Active;
            }
            b_ticks.push(edge.at.as_ns());
            match edge.at.as_ns() {
                10 => Activity::IdleUntil(Ps::from_ns(50)),
                50 => Activity::IdleUntil(Ps::from_ns(75)),
                _ => Activity::Quiescent,
            }
        });
        assert_eq!(b_ticks, vec![10, 50, 80]);
        assert_eq!(exec.stats().domain(clk).skips, 10 - 3);
    }

    #[test]
    fn persist_roundtrip_keeps_pending_wake_times() {
        let (mut clocks, exec, a, b) = two_sleepers(Ps::from_ns(40), Ps::from_ns(80));
        let mut w = Writer::new();
        exec.persist(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Executor::restore(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(restored.next_timer, Some(Ps::from_ns(40)));
        let log = tick_log(&mut clocks, &mut restored, Ps::from_ns(100));
        assert_eq!(log, vec![(a, 40), (b, 80)]);
    }

    #[test]
    fn restore_rejects_wake_time_on_awake_component() {
        let image = |awake: bool| {
            let mut w = Writer::new();
            w.put_usize(1);
            w.put_usize(0);
            awake.persist(&mut w);
            Some(Ps::from_ns(40)).persist(&mut w);
            w.put_usize(1);
            ExecStats {
                domains: vec![DomainStats::default()],
            }
            .persist(&mut w);
            None::<Tracer>.persist(&mut w);
            w.into_bytes()
        };
        assert!(Executor::restore(&mut Reader::new(&image(false))).is_ok());
        assert!(matches!(
            Executor::restore(&mut Reader::new(&image(true))),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn multi_domain_skip_accounting() {
        let mut clocks = ClockScheduler::new();
        let fast = clocks.add_domain(Freq::mhz(100));
        let slow = clocks.add_domain(Freq::mhz(10));
        let mut exec = Executor::new();
        exec.register(fast);
        exec.register(slow);

        // The fast component stays active, the slow one quiesces at once.
        exec.run_for(&mut clocks, Ps::from_us(1), |_, id, _| {
            if id.0 == 0 {
                Activity::Active
            } else {
                Activity::Quiescent
            }
        });
        let f = exec.stats().domain(fast);
        let s = exec.stats().domain(slow);
        assert_eq!(f.ticks, 100);
        assert_eq!(f.skips, 0);
        assert_eq!(s.ticks, 1);
        assert_eq!(s.edges + s.ff_edges, 10);
        assert_eq!(s.skips, 9);
        assert_eq!(exec.stats().dense_equivalent_ticks(), 110);
        assert!((exec.stats().tick_reduction() - 110.0 / 101.0).abs() < 1e-12);
    }

    #[test]
    fn registration_order_is_dispatch_order() {
        let mut clocks = ClockScheduler::new();
        let clk = clocks.add_domain(Freq::mhz(100));
        let mut exec = Executor::new();
        let ids: Vec<_> = (0..4).map(|_| exec.register(clk)).collect();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let log = seen.clone();
        exec.run_for(&mut clocks, Ps::from_ns(10), move |_, id, _| {
            log.borrow_mut().push(id);
            Activity::Quiescent
        });
        assert_eq!(*seen.borrow(), ids);
    }

    #[test]
    fn tracer_records_awake_counts() {
        let mut clocks = ClockScheduler::new();
        let clk = clocks.add_domain(Freq::mhz(100));
        let mut exec = Executor::new();
        exec.register(clk);
        exec.enable_tracing();
        exec.run_for(&mut clocks, Ps::from_ns(50), |_, _, edge| {
            if edge.at >= Ps::from_ns(20) {
                Activity::Quiescent
            } else {
                Activity::Active
            }
        });
        let tracer = exec.tracer().expect("tracing enabled");
        assert!(!tracer.is_empty(), "awake-count changes were recorded");
    }

    #[test]
    fn step_reports_completion() {
        let mut clocks = ClockScheduler::new();
        clocks.add_domain(Freq::mhz(100));
        let mut exec = Executor::new();
        // No components: a single fast-forward step reaches the deadline.
        let deadline = Ps::from_us(1);
        let mut host = |_: &mut Waker<'_>, _: ComponentId, _: Edge| Activity::Active;
        assert!(!exec.step(&mut clocks, deadline, &mut host));
        assert_eq!(clocks.now(), deadline);
        assert!(!exec.step(&mut clocks, deadline, &mut host));
    }
}
