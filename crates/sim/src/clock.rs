//! Multi-clock-domain scheduler.
//!
//! VAPRES runs its static region and every PRR in an independent *local
//! clock domain* (LCD). The [`ClockScheduler`] owns all domains and hands
//! back rising edges in global time order; the system model dispatches each
//! edge to the components clocked by that domain.
//!
//! Determinism: simultaneous edges are delivered in ascending
//! [`DomainId`] order (i.e. registration order), so a run is a pure
//! function of the inputs.
//!
//! A system has a handful of domains (the static clock plus one per PRR),
//! so the next edge is found by a min-scan over them rather than a heap:
//! no entry goes stale on a frequency change, gating or fast-forward.

use crate::persist::{Persist, PersistError, Reader, Writer};
use crate::time::{Freq, Ps};
use std::fmt;

/// Identifies a clock domain within one [`ClockScheduler`].
///
/// Ids are dense, starting at 0, in registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(pub usize);

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "clk{}", self.0)
    }
}

/// A rising clock edge delivered by [`ClockScheduler::next_edge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// The domain that ticked.
    pub domain: DomainId,
    /// Absolute time of the edge.
    pub at: Ps,
    /// The domain's cycle counter *after* this edge (first edge is cycle 1).
    pub cycle: u64,
}

#[derive(Debug, Clone)]
struct Domain {
    freq: Freq,
    /// `freq.period()` in picoseconds, cached off the per-edge path.
    period: u64,
    enabled: bool,
    /// Time of the next rising edge if enabled.
    next_edge: Ps,
    cycles: u64,
}

impl Domain {
    fn new(freq: Freq, enabled: bool, next_edge: Ps, cycles: u64) -> Self {
        Domain {
            freq,
            period: freq.period().as_ps(),
            enabled,
            next_edge,
            cycles,
        }
    }
}

/// Owns every clock domain of a simulated system and produces rising edges
/// in deterministic global order.
///
/// Frequencies can change at runtime (the BUFGMUX/`CLK_sel` path of a
/// PRSocket) and domains can be gated on/off (`CLK_en`). A frequency change
/// or re-enable re-aligns the domain's next edge to one full *new* period
/// after the current time — matching a glitch-free clock mux that completes
/// the switch before the next edge.
///
/// # Examples
///
/// ```
/// use vapres_sim::clock::ClockScheduler;
/// use vapres_sim::time::{Freq, Ps};
///
/// let mut clocks = ClockScheduler::new();
/// let fast = clocks.add_domain(Freq::mhz(100));
/// let slow = clocks.add_domain(Freq::mhz(50));
///
/// let e1 = clocks.next_edge().expect("an edge");
/// assert_eq!(e1.domain, fast);
/// assert_eq!(e1.at, Ps::from_ns(10));
///
/// let e2 = clocks.next_edge().expect("an edge");
/// // 20 ns: both domains tick; the earlier-registered one is delivered first.
/// assert_eq!(e2.domain, fast);
/// let e3 = clocks.next_edge().expect("an edge");
/// assert_eq!((e3.domain, e3.at), (slow, Ps::from_ns(20)));
/// ```
#[derive(Debug, Default)]
pub struct ClockScheduler {
    domains: Vec<Domain>,
    now: Ps,
}

impl ClockScheduler {
    /// Creates an empty scheduler at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new always-enabled clock domain.
    pub fn add_domain(&mut self, freq: Freq) -> DomainId {
        let id = DomainId(self.domains.len());
        let next = self.now + freq.period();
        self.domains.push(Domain::new(freq, true, next, 0));
        id
    }

    /// Current simulation time (the time of the last delivered edge).
    pub fn now(&self) -> Ps {
        self.now
    }

    /// Number of registered domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether no domains are registered.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Returns the configured frequency of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a domain of this scheduler.
    pub fn frequency(&self, id: DomainId) -> Freq {
        self.domains[id.0].freq
    }

    /// Returns how many rising edges `id` has delivered so far.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a domain of this scheduler.
    pub fn cycles(&self, id: DomainId) -> u64 {
        self.domains[id.0].cycles
    }

    /// Returns whether the domain is currently enabled (not clock-gated).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a domain of this scheduler.
    pub fn is_enabled(&self, id: DomainId) -> bool {
        self.domains[id.0].enabled
    }

    /// Changes the frequency of a domain at the current time.
    ///
    /// The next edge of the domain occurs one full new period after `now`,
    /// modelling a glitch-free BUFGMUX switch.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a domain of this scheduler.
    pub fn set_frequency(&mut self, id: DomainId, freq: Freq) {
        let dom = &mut self.domains[id.0];
        dom.freq = freq;
        dom.period = freq.period().as_ps();
        if dom.enabled {
            dom.next_edge = Ps::new(self.now.as_ps() + dom.period);
        }
    }

    /// Gates a domain on or off.
    ///
    /// Disabling stops future edges; re-enabling schedules the next edge one
    /// full period after the current time. Enabling an enabled domain or
    /// disabling a disabled one is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a domain of this scheduler.
    pub fn set_enabled(&mut self, id: DomainId, enabled: bool) {
        let dom = &mut self.domains[id.0];
        if dom.enabled == enabled {
            return;
        }
        dom.enabled = enabled;
        if enabled {
            dom.next_edge = Ps::new(self.now.as_ps() + dom.period);
        }
    }

    /// Delivers the next rising edge in global time order, advancing `now`.
    ///
    /// Returns `None` when no domain is enabled (or none are registered).
    pub fn next_edge(&mut self) -> Option<Edge> {
        let idx = self.earliest()?;
        Some(self.deliver(idx))
    }

    /// The enabled domain with the earliest next edge; ties go to the
    /// lowest [`DomainId`].
    fn earliest(&self) -> Option<usize> {
        let mut best: Option<(Ps, usize)> = None;
        for (idx, dom) in self.domains.iter().enumerate() {
            if dom.enabled && best.is_none_or(|(at, _)| dom.next_edge < at) {
                best = Some((dom.next_edge, idx));
            }
        }
        best.map(|(_, idx)| idx)
    }

    fn deliver(&mut self, idx: usize) -> Edge {
        let dom = &mut self.domains[idx];
        let at = dom.next_edge;
        self.now = at;
        dom.cycles += 1;
        dom.next_edge = Ps::new(at.as_ps() + dom.period);
        Edge {
            domain: DomainId(idx),
            at,
            cycle: dom.cycles,
        }
    }

    /// Advances time to `deadline` without delivering edges, updating every
    /// enabled domain's cycle counter and next-edge time exactly as if the
    /// edges had been delivered.
    ///
    /// Callers use this to skip over intervals they know to be quiescent
    /// (no component would do anything on a tick). Does nothing if
    /// `deadline` is in the past.
    pub fn fast_forward(&mut self, deadline: Ps) {
        if deadline <= self.now {
            return;
        }
        for dom in &mut self.domains {
            if !dom.enabled || dom.next_edge > deadline {
                continue;
            }
            let skipped = (deadline.as_ps() - dom.next_edge.as_ps()) / dom.period + 1;
            dom.cycles += skipped;
            dom.next_edge = Ps::new(dom.next_edge.as_ps() + skipped * dom.period);
        }
        self.now = deadline;
    }

    /// Delivers the next edge only if it occurs at or before `deadline`.
    ///
    /// If the next edge is later than `deadline`, no edge is consumed and
    /// `now` is advanced to `deadline`.
    pub fn next_edge_before(&mut self, deadline: Ps) -> Option<Edge> {
        match self.earliest() {
            Some(idx) if self.domains[idx].next_edge <= deadline => Some(self.deliver(idx)),
            _ => {
                self.now = deadline.max(self.now);
                None
            }
        }
    }
}

impl Persist for ClockScheduler {
    fn persist(&self, w: &mut Writer) {
        self.now.persist(w);
        w.put_usize(self.domains.len());
        for d in &self.domains {
            d.freq.persist(w);
            d.enabled.persist(w);
            d.next_edge.persist(w);
            d.cycles.persist(w);
        }
        // The cached period is derived from `freq` and never encoded.
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let now = Ps::restore(r)?;
        let n = r.take_usize()?;
        let mut sched = ClockScheduler {
            domains: Vec::with_capacity(n.min(r.remaining())),
            now,
        };
        for _ in 0..n {
            let freq = Freq::restore(r)?;
            let enabled = bool::restore(r)?;
            let next_edge = Ps::restore(r)?;
            let cycles = u64::restore(r)?;
            sched
                .domains
                .push(Domain::new(freq, enabled, next_edge, cycles));
        }
        Ok(sched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_come_in_time_order() {
        let mut s = ClockScheduler::new();
        let a = s.add_domain(Freq::mhz(100)); // 10 ns
        let b = s.add_domain(Freq::mhz(40)); // 25 ns
        let mut order = Vec::new();
        for _ in 0..7 {
            let e = s.next_edge().unwrap();
            order.push((e.domain, e.at.as_ns()));
        }
        assert_eq!(
            order,
            vec![
                (a, 10),
                (a, 20),
                (b, 25),
                (a, 30),
                (a, 40),
                (a, 50),
                (b, 50)
            ]
        );
    }

    #[test]
    fn simultaneous_edges_ordered_by_domain_id() {
        let mut s = ClockScheduler::new();
        let a = s.add_domain(Freq::mhz(100));
        let b = s.add_domain(Freq::mhz(100));
        let e1 = s.next_edge().unwrap();
        let e2 = s.next_edge().unwrap();
        assert_eq!(e1.domain, a);
        assert_eq!(e2.domain, b);
        assert_eq!(e1.at, e2.at);
    }

    #[test]
    fn cycle_counter_increments() {
        let mut s = ClockScheduler::new();
        let a = s.add_domain(Freq::mhz(100));
        assert_eq!(s.cycles(a), 0);
        for want in 1..=5 {
            let e = s.next_edge().unwrap();
            assert_eq!(e.cycle, want);
        }
        assert_eq!(s.cycles(a), 5);
    }

    #[test]
    fn gating_stops_and_restarts_edges() {
        let mut s = ClockScheduler::new();
        let a = s.add_domain(Freq::mhz(100));
        s.next_edge().unwrap(); // 10 ns
        s.set_enabled(a, false);
        assert!(s.next_edge().is_none());
        s.set_enabled(a, true);
        let e = s.next_edge().unwrap();
        assert_eq!(e.at, Ps::from_ns(20)); // one period after re-enable at 10 ns
    }

    #[test]
    fn frequency_change_realigns_next_edge() {
        let mut s = ClockScheduler::new();
        let a = s.add_domain(Freq::mhz(100));
        s.next_edge().unwrap(); // now = 10 ns
        s.set_frequency(a, Freq::mhz(50));
        let e = s.next_edge().unwrap();
        assert_eq!(e.at, Ps::from_ns(30)); // 10 ns + one 20 ns period
        assert_eq!(s.frequency(a), Freq::mhz(50));
    }

    #[test]
    fn next_edge_before_deadline() {
        let mut s = ClockScheduler::new();
        let a = s.add_domain(Freq::mhz(100));
        let e = s.next_edge_before(Ps::from_ns(15));
        assert_eq!(e.unwrap().domain, a);
        let e = s.next_edge_before(Ps::from_ns(15));
        assert!(e.is_none());
        assert_eq!(s.now(), Ps::from_ns(15));
        // The 20 ns edge is still there afterwards.
        let e = s.next_edge().unwrap();
        assert_eq!(e.at, Ps::from_ns(20));
    }

    #[test]
    fn empty_scheduler_has_no_edges() {
        let mut s = ClockScheduler::new();
        assert!(s.next_edge().is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn disable_then_deadline_advances_time() {
        let mut s = ClockScheduler::new();
        let a = s.add_domain(Freq::mhz(100));
        s.set_enabled(a, false);
        assert!(s.next_edge_before(Ps::from_us(1)).is_none());
        assert_eq!(s.now(), Ps::from_us(1));
    }

    #[test]
    fn fast_forward_matches_delivered_edges() {
        // Run one scheduler by edges, another by fast_forward; the end
        // state must be identical.
        let mut by_edges = ClockScheduler::new();
        let a1 = by_edges.add_domain(Freq::mhz(100));
        let b1 = by_edges.add_domain(Freq::mhz(33));
        while by_edges.next_edge_before(Ps::from_us(3)).is_some() {}

        let mut by_ff = ClockScheduler::new();
        let a2 = by_ff.add_domain(Freq::mhz(100));
        let b2 = by_ff.add_domain(Freq::mhz(33));
        by_ff.fast_forward(Ps::from_us(3));

        assert_eq!(by_edges.cycles(a1), by_ff.cycles(a2));
        assert_eq!(by_edges.cycles(b1), by_ff.cycles(b2));
        assert_eq!(by_edges.now(), by_ff.now());
        // Subsequent edges agree too.
        let e1 = by_edges.next_edge().unwrap();
        let e2 = by_ff.next_edge().unwrap();
        assert_eq!(
            (e1.domain.0, e1.at, e1.cycle),
            (e2.domain.0, e2.at, e2.cycle)
        );
    }

    #[test]
    fn fast_forward_past_deadline_is_noop() {
        let mut s = ClockScheduler::new();
        let a = s.add_domain(Freq::mhz(100));
        s.next_edge().unwrap();
        s.fast_forward(Ps::from_ns(5)); // in the past
        assert_eq!(s.now(), Ps::from_ns(10));
        assert_eq!(s.cycles(a), 1);
    }

    #[test]
    fn fast_forward_skips_disabled_domains() {
        let mut s = ClockScheduler::new();
        let a = s.add_domain(Freq::mhz(100));
        s.set_enabled(a, false);
        s.fast_forward(Ps::from_us(1));
        assert_eq!(s.cycles(a), 0);
        assert_eq!(s.now(), Ps::from_us(1));
    }

    #[test]
    fn redundant_gating_is_noop() {
        let mut s = ClockScheduler::new();
        let a = s.add_domain(Freq::mhz(100));
        s.set_enabled(a, true); // already enabled
        let e = s.next_edge().unwrap();
        assert_eq!(e.at, Ps::from_ns(10));
    }

    /// Brute-force reference: walks time one picosecond at a time and
    /// ticks every enabled domain whose phase lines up, lowest id first.
    /// `pending_from` is the first domain whose edge at `now` (if any) has
    /// not been delivered yet.
    struct Reference {
        now: u64,
        pending_from: usize,
        /// `(period, enabled, anchor, cycles)`: edges fall at
        /// `anchor + k·period` for `k ≥ 1`.
        domains: Vec<(u64, bool, u64, u64)>,
    }

    impl Reference {
        fn ticks_at(&self, idx: usize, t: u64) -> bool {
            let (period, enabled, anchor, _) = self.domains[idx];
            enabled && t > anchor && (t - anchor).is_multiple_of(period)
        }

        fn next_edge_before(&mut self, deadline: u64) -> Option<(usize, u64, u64)> {
            let mut t = self.now;
            while t <= deadline {
                let from = if t == self.now { self.pending_from } else { 0 };
                if let Some(idx) = (from..self.domains.len()).find(|&i| self.ticks_at(i, t)) {
                    self.now = t;
                    self.pending_from = idx + 1;
                    self.domains[idx].3 += 1;
                    return Some((idx, t, self.domains[idx].3));
                }
                t += 1;
            }
            if deadline > self.now {
                self.now = deadline;
                self.pending_from = self.domains.len();
            }
            None
        }

        /// Counts every edge up to `deadline`, those still pending at
        /// `now` included; a deadline not after `now` is a no-op.
        fn fast_forward(&mut self, deadline: u64) {
            if deadline > self.now {
                while self.next_edge_before(deadline).is_some() {}
            }
        }

        fn realign(&mut self, idx: usize) {
            self.domains[idx].2 = self.now;
        }
    }

    #[test]
    fn scan_matches_brute_force_reference_under_random_ops() {
        use crate::rng::SplitMix64;
        // Periods of a few picoseconds keep the brute-force walk cheap.
        let freq_of = |period: u64| Freq::hz(1_000_000_000_000 / period);
        for seed in 0..8 {
            let mut rng = SplitMix64::new(0x5CA1_AB1E ^ seed);
            let mut sched = ClockScheduler::new();
            let mut model = Reference {
                now: 0,
                pending_from: 0,
                domains: Vec::new(),
            };
            for step in 0..4_000 {
                match rng.gen_range(0..100) {
                    0..=4 if model.domains.len() < 6 => {
                        let period = rng.gen_range(2..13);
                        assert_eq!(freq_of(period).period().as_ps(), period);
                        sched.add_domain(freq_of(period));
                        model.domains.push((period, true, model.now, 0));
                    }
                    5..=9 if !model.domains.is_empty() => {
                        let idx = rng.gen_usize(0..model.domains.len());
                        let period = rng.gen_range(2..13);
                        sched.set_frequency(DomainId(idx), freq_of(period));
                        model.domains[idx].0 = period;
                        if model.domains[idx].1 {
                            model.realign(idx);
                        }
                    }
                    10..=17 if !model.domains.is_empty() => {
                        let idx = rng.gen_usize(0..model.domains.len());
                        let enabled = rng.gen_bool(0.6);
                        sched.set_enabled(DomainId(idx), enabled);
                        if model.domains[idx].1 != enabled {
                            model.domains[idx].1 = enabled;
                            model.realign(idx);
                        }
                    }
                    18..=25 => {
                        // Deadlines reach a little into the past too.
                        let deadline = (model.now + rng.gen_range(0..40)).saturating_sub(3);
                        sched.fast_forward(Ps::new(deadline));
                        model.fast_forward(deadline);
                    }
                    26..=28 => {
                        // Restore rebuilds the cached periods from the
                        // encoded frequencies.
                        let mut w = Writer::new();
                        sched.persist(&mut w);
                        let bytes = w.into_bytes();
                        sched = ClockScheduler::restore(&mut Reader::new(&bytes)).unwrap();
                    }
                    _ => {
                        let deadline = (model.now + rng.gen_range(0..30)).saturating_sub(3);
                        let got = sched
                            .next_edge_before(Ps::new(deadline))
                            .map(|e| (e.domain.0, e.at.as_ps(), e.cycle));
                        assert_eq!(
                            got,
                            model.next_edge_before(deadline),
                            "seed {seed} step {step}"
                        );
                    }
                }
                assert_eq!(sched.now().as_ps(), model.now, "seed {seed} step {step}");
                for (idx, d) in model.domains.iter().enumerate() {
                    assert_eq!(sched.cycles(DomainId(idx)), d.3, "seed {seed} step {step}");
                }
            }
        }
    }

    #[test]
    fn persist_roundtrip_preserves_future_edges() {
        let mut s = ClockScheduler::new();
        let a = s.add_domain(Freq::mhz(100));
        let b = s.add_domain(Freq::mhz(33));
        let c = s.add_domain(Freq::mhz(50));
        for _ in 0..11 {
            s.next_edge().unwrap();
        }
        s.set_frequency(a, Freq::mhz(40));
        s.set_enabled(c, false);

        let mut w = Writer::new();
        s.persist(&mut w);
        let bytes = w.into_bytes();
        let mut restored = ClockScheduler::restore(&mut Reader::new(&bytes)).unwrap();

        assert_eq!(restored.now(), s.now());
        for id in [a, b, c] {
            assert_eq!(restored.cycles(id), s.cycles(id));
            assert_eq!(restored.frequency(id), s.frequency(id));
            assert_eq!(restored.is_enabled(id), s.is_enabled(id));
        }
        // Future edge streams are identical.
        for _ in 0..32 {
            assert_eq!(restored.next_edge(), s.next_edge());
        }
        // Re-encoding the restored scheduler is byte-identical.
        let mut w1 = Writer::new();
        s.persist(&mut w1);
        let mut w2 = Writer::new();
        restored.persist(&mut w2);
        assert_eq!(w1.into_bytes(), w2.into_bytes());
    }
}
