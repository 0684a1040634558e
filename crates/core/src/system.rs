//! The VAPRES system model: controlling region + data processing region,
//! run as one deterministic multi-clock simulation.
//!
//! The MicroBlaze is modelled as the *caller*: application software is
//! Rust code invoking the Table-2 API (see [`crate::api`]), each call
//! charging its software cost to the simulation clock while the data
//! plane (switch boxes, FIFOs, IOMs, hardware modules in their local
//! clock domains) keeps running underneath. This gives the paper's
//! "module operation overlaps PRR reconfiguration" honestly: a blocking
//! reconfiguration call advances the same clock that everything else
//! ticks on.

use crate::config::{NodeKind, SystemConfig};
use crate::module::{control, HardwareModule, ModuleIo, ModuleLibrary};
use crate::socket::{Dcr, PrSocket};
use std::collections::VecDeque;
use std::fmt;
use vapres_bitstream::cache::BitstreamCache;
use vapres_bitstream::icap::Icap;
use vapres_bitstream::storage::{CompactFlash, Sdram};
use vapres_bitstream::stream::ModuleUid;
use vapres_fabric::clocking::Bufgmux;
use vapres_fabric::frame::FrameAddress;
use vapres_sim::clock::{ClockScheduler, DomainId, Edge};
use vapres_sim::exec::{Activity, ComponentId, ExecStats, Executor};
use vapres_sim::flight::{FifoEdgeKind, FifoSide, FlightEvent, FlightRecorder};
use vapres_sim::persist::intern_static;
use vapres_sim::profile::{CostModel, Profiler, WorkId, WorkUnits, DEFAULT_RING_CAPACITY};
use vapres_sim::stats::GapTracker;
use vapres_sim::telemetry::Telemetry;
use vapres_sim::time::Ps;
use vapres_sim::timeseries::TimeSeries;
use vapres_sim::trace::{SignalId, Tracer};
use vapres_stream::fabric::{FifoEdge, PortRef, StreamFabric};
use vapres_stream::fifo::AsyncFifo;
use vapres_stream::word::Word;

/// An FSL link pair between one node and the MicroBlaze.
#[derive(Debug, Clone)]
pub(crate) struct FslPair {
    /// Module/IOM → MicroBlaze (the paper's `r` links).
    pub to_mb: AsyncFifo,
    /// MicroBlaze → module/IOM (the paper's `t` links).
    pub from_mb: AsyncFifo,
}

impl FslPair {
    fn new(depth: usize) -> Self {
        FslPair {
            to_mb: AsyncFifo::new(depth),
            from_mb: AsyncFifo::new(depth),
        }
    }
}

/// State of one PRR.
pub(crate) struct PrrState {
    pub node: usize,
    pub domain: DomainId,
    pub bufgmux: Bufgmux,
    pub module: Option<Box<dyn HardwareModule>>,
    pub loaded_uid: Option<ModuleUid>,
    /// When this PRR is part of a multi-PRR spanning module, the head PRR
    /// index (the head points to itself). `None` when standalone.
    pub spanned_by: Option<usize>,
}

impl fmt::Debug for PrrState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PrrState")
            .field("node", &self.node)
            .field("domain", &self.domain)
            .field("loaded_uid", &self.loaded_uid)
            .field("has_module", &self.module.is_some())
            .finish()
    }
}

/// State of one IOM: external input queue, timestamped output log, and the
/// paper's EOS detection (step 8 of the switching methodology).
#[derive(Debug)]
pub(crate) struct IomState {
    pub node: usize,
    pub ext_in: VecDeque<Word>,
    pub ext_out: Vec<(Ps, Word)>,
    pub gap: GapTracker,
    pub eos_seen: u64,
    /// Static-clock cycles between external input samples (an ADC's
    /// sample interval). 1 = one word per fabric cycle.
    pub input_interval: u64,
    /// First static-clock cycle at which the next input word may enter
    /// the fabric (absolute; compared against [`Edge::cycle`]).
    pub next_inject_cycle: u64,
}

impl IomState {
    fn new(node: usize) -> Self {
        IomState {
            node,
            ext_in: VecDeque::new(),
            ext_out: Vec::new(),
            gap: GapTracker::new(),
            eos_seen: 0,
            input_interval: 1,
            next_inject_cycle: 0,
        }
    }
}

/// Per-word provenance capture: a configurable sample of injected words
/// is tagged with sequence IDs at the producer IOM, and the tag follows
/// the word through every fabric stage (the stream layer's `WordTap`
/// times the stages) until the consumer IOM emits it on external pins.
/// This struct owns the end-to-end half: the accept timestamp (external
/// input → producer FIFO) and the emit timestamp (consumer FIFO →
/// external output) per tag.
#[derive(Debug)]
pub struct WordTrace {
    /// Tag every Nth injected data word (1 = every word).
    sample_every: u32,
    /// Words injected since the last tag was issued.
    since_last: u32,
    /// When each tag's word was accepted into the producer FIFO.
    accept: Vec<Ps>,
    /// When each tag's word was emitted on the consumer IOM's pins
    /// (`None` while still in flight).
    emit: Vec<Option<Ps>>,
    /// Tags already folded into telemetry histograms (harvest is
    /// once-per-tag so repeated snapshots stay idempotent).
    harvested: Vec<bool>,
}

impl WordTrace {
    fn new(sample_every: u32) -> Self {
        assert!(sample_every > 0, "sample interval must be non-zero");
        WordTrace {
            sample_every,
            since_last: 0,
            accept: Vec::new(),
            emit: Vec::new(),
            harvested: Vec::new(),
        }
    }

    /// Called for every injected data word; returns the tag to attach
    /// when this word is in the sample.
    fn on_accept(&mut self, at: Ps) -> Option<u32> {
        self.since_last += 1;
        if self.since_last < self.sample_every {
            return None;
        }
        self.since_last = 0;
        let tag = self.accept.len() as u32;
        self.accept.push(at);
        self.emit.push(None);
        self.harvested.push(false);
        Some(tag)
    }

    /// Completed-but-not-yet-harvested tags with their end-to-end
    /// latency (picoseconds), marking each as harvested.
    fn take_completed(&mut self) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        for (i, done) in self.harvested.iter_mut().enumerate() {
            if *done {
                continue;
            }
            if let Some(e) = self.emit[i] {
                *done = true;
                out.push((i as u32, e.as_ps().saturating_sub(self.accept[i].as_ps())));
            }
        }
        out
    }

    fn on_emit(&mut self, tag: u32, at: Ps) {
        if let Some(slot) = self.emit.get_mut(tag as usize) {
            *slot = Some(at);
        }
    }

    /// Tags issued so far.
    pub fn tagged(&self) -> usize {
        self.accept.len()
    }

    /// Tags whose word reached the consumer IOM's external pins.
    pub fn completed(&self) -> usize {
        self.emit.iter().filter(|e| e.is_some()).count()
    }

    /// End-to-end accept→emit latencies (picoseconds) of every completed
    /// tag, in tag order. In-flight words are excluded.
    pub fn latencies_ps(&self) -> Vec<u64> {
        self.accept
            .iter()
            .zip(&self.emit)
            .filter_map(|(&a, e)| e.map(|e| e.as_ps().saturating_sub(a.as_ps())))
            .collect()
    }
}

/// What kind of component an executor [`ComponentId`] maps to.
#[derive(Debug, Clone, Copy)]
enum CompKind {
    Fabric,
    Iom(usize),
    Prr(usize),
}

/// System-level waveform capture: channel/route validity, per-node FIFO
/// occupancy, per-PRR state — sampled once per delivered static edge.
struct SysTrace {
    tracer: Tracer,
    channels: SignalId,
    routes_active: SignalId,
    node_cons: Vec<SignalId>,
    node_prod: Vec<SignalId>,
    prr_state: Vec<SignalId>,
}

impl SysTrace {
    fn new(nodes: usize, n_prrs: usize) -> Self {
        let mut tracer = Tracer::new("vapres_system");
        let channels = tracer.add_signal("channels_established", 8);
        let routes_active = tracer.add_signal("routes_active", 8);
        let node_cons = (0..nodes)
            .map(|n| tracer.add_signal(format!("n{n}_cons_len"), 16))
            .collect();
        let node_prod = (0..nodes)
            .map(|n| tracer.add_signal(format!("n{n}_prod_len"), 16))
            .collect();
        let prr_state = (0..n_prrs)
            .map(|p| tracer.add_signal(format!("prr{p}_state"), 4))
            .collect();
        SysTrace {
            tracer,
            channels,
            routes_active,
            node_cons,
            node_prod,
            prr_state,
        }
    }

    fn sample(
        &mut self,
        at: Ps,
        fabric: &StreamFabric,
        prrs: &[PrrState],
        sockets: &[crate::socket::PrSocket],
    ) {
        self.tracer
            .change(at, self.channels, fabric.active_channels().len() as u64);
        self.tracer
            .change(at, self.routes_active, fabric.active_route_count() as u64);
        for (n, (&cons, &prod)) in self.node_cons.iter().zip(&self.node_prod).enumerate() {
            let port = PortRef::new(n, 0);
            self.tracer
                .change(at, cons, fabric.consumer_len(port).unwrap_or(0) as u64);
            self.tracer
                .change(at, prod, fabric.producer_len(port).unwrap_or(0) as u64);
        }
        for (p, prr) in prrs.iter().enumerate() {
            let dcr = sockets[prr.node].dcr;
            let state = (prr.module.is_some() as u64)
                | ((dcr.clk_en as u64) << 1)
                | ((dcr.sm_en as u64) << 2)
                | ((dcr.prr_reset as u64) << 3);
            self.tracer.change(at, self.prr_state[p], state);
        }
    }
}

/// A complete VAPRES base system under simulation.
///
/// # Examples
///
/// Build the paper's prototype and run it for a microsecond:
///
/// ```
/// use vapres_core::config::SystemConfig;
/// use vapres_core::module::ModuleLibrary;
/// use vapres_core::system::VapresSystem;
/// use vapres_sim::time::Ps;
///
/// let mut sys = VapresSystem::new(SystemConfig::prototype(), ModuleLibrary::new())?;
/// sys.run_for(Ps::from_us(1));
/// assert_eq!(sys.now(), Ps::from_us(1));
/// # Ok::<(), vapres_core::config::ConfigError>(())
/// ```
pub struct VapresSystem {
    pub(crate) cfg: SystemConfig,
    pub(crate) clocks: ClockScheduler,
    pub(crate) static_domain: DomainId,
    pub(crate) fabric: StreamFabric,
    pub(crate) sockets: Vec<PrSocket>,
    pub(crate) fsl: Vec<FslPair>,
    pub(crate) prrs: Vec<PrrState>,
    pub(crate) ioms: Vec<IomState>,
    /// node index → prr index.
    pub(crate) node_prr: Vec<Option<usize>>,
    /// node index → iom index.
    pub(crate) node_iom: Vec<Option<usize>>,
    pub(crate) icap: Icap,
    pub(crate) cf: CompactFlash,
    pub(crate) sdram: Sdram,
    pub(crate) library: ModuleLibrary,
    pub(crate) isolated_writes: u64,
    /// The activity-tracked component scheduler (see `vapres_sim::exec`).
    pub(crate) exec: Executor,
    /// Executor component id → what it drives.
    comp_kind: Vec<CompKind>,
    /// The fabric's executor component.
    comp_fabric: ComponentId,
    /// node index → the IOM/PRR component at that node, for wake routing.
    comp_of_node: Vec<Option<ComponentId>>,
    /// Dense reference mode: tick every component on every edge (the
    /// pre-executor execution model, kept for equivalence testing).
    dense: bool,
    trace: Option<SysTrace>,
    /// The unified metrics registry; `None` (the default) makes every
    /// instrumentation site a single branch.
    pub(crate) telemetry: Option<Telemetry>,
    /// The always-on flight recorder; `None` (the default) makes every
    /// note site a single branch.
    pub(crate) flight: Option<FlightRecorder>,
    /// Per-word provenance capture; `None` (the default) leaves the
    /// fabric's word tap disarmed too.
    word_trace: Option<WordTrace>,
    /// The sim-time-driven metrics sampler; `None` (the default) keeps
    /// the run loop's boundary check a single branch.
    timeseries: Option<TimeSeries>,
    /// Live observability sink: a health policy plus a callback handed
    /// freshly rendered payloads at every sample boundary. Host
    /// plumbing, not simulation state — never persisted.
    live: Option<LiveSink>,
    /// The two-plane self-profiler; `None` (the default) keeps every
    /// hook a single branch. The work plane is persisted in
    /// checkpoints; the host plane (wall time) never is.
    profile: Option<Box<SelfProfile>>,
    /// The staged-bitstream cache; `None` (the default) keeps the
    /// reconfiguration path byte-identical to the uncached model. Cache
    /// state is persisted in checkpoints like every other observable.
    pub(crate) bs_cache: Option<BitstreamCache>,
}

/// The self-profiler plus its pre-resolved work ids, so hot-loop
/// charging is an array index, not a name lookup.
struct SelfProfile {
    prof: Profiler,
    /// Executor component id → (host scope name, work id), in executor
    /// registration order.
    comps: Vec<(&'static str, WorkId)>,
    /// One unit per time-series sample captured.
    sampling: WorkId,
    /// One unit per swap methodology step entered.
    swap_steps: WorkId,
    /// Raised to `Icap::words_pushed` at harvest — pushed counts the
    /// driver's effort, including streams the ICAP later rejected.
    icap_words: WorkId,
    /// Bytes read from CompactFlash by Table-2 API calls.
    cf_bytes: WorkId,
    /// Bytes staged into / read from SDRAM by Table-2 API calls.
    sdram_bytes: WorkId,
    /// Raised to the staged-bitstream cache's hit count at harvest.
    cache_hits: WorkId,
    /// Raised to the cache's storage bytes avoided at harvest.
    cache_bytes_saved: WorkId,
}

impl SelfProfile {
    /// Registers the fixed component set in deterministic order (the
    /// executor's registration order, then the shared engines), so the
    /// work plane's layout is a pure function of the configuration.
    fn new(comp_kind: &[CompKind]) -> Self {
        let mut prof = Profiler::new(DEFAULT_RING_CAPACITY);
        let mut comps = Vec::with_capacity(comp_kind.len());
        for kind in comp_kind {
            let name = match kind {
                CompKind::Fabric => intern_static("exec/fabric"),
                CompKind::Iom(i) => intern_static(&format!("exec/iom{i}")),
                CompKind::Prr(i) => intern_static(&format!("exec/prr{i}")),
            };
            let id = prof.work_mut().unit(name);
            comps.push((name, id));
        }
        let sampling = prof.work_mut().unit("sample");
        let swap_steps = prof.work_mut().unit("swap/steps");
        let icap_words = prof.work_mut().unit("icap/words");
        let cf_bytes = prof.work_mut().unit("cf/bytes");
        let sdram_bytes = prof.work_mut().unit("sdram/bytes");
        let cache_hits = prof.work_mut().unit("cache/hits");
        let cache_bytes_saved = prof.work_mut().unit("cache/bytes_saved");
        SelfProfile {
            prof,
            comps,
            sampling,
            swap_steps,
            icap_words,
            cf_bytes,
            sdram_bytes,
            cache_hits,
            cache_bytes_saved,
        }
    }

    /// Adopts a restored work plane and re-resolves every cached id
    /// against it (the restored registry was laid out by this same
    /// registration sequence, so ids land on the same components).
    fn adopt_work(&mut self, work: WorkUnits) {
        self.prof.set_work(work);
        let SelfProfile {
            prof,
            comps,
            sampling,
            swap_steps,
            icap_words,
            cf_bytes,
            sdram_bytes,
            cache_hits,
            cache_bytes_saved,
        } = self;
        let w = prof.work_mut();
        for (name, id) in comps.iter_mut() {
            *id = w.unit(name);
        }
        *sampling = w.unit("sample");
        *swap_steps = w.unit("swap/steps");
        *icap_words = w.unit("icap/words");
        *cf_bytes = w.unit("cf/bytes");
        *sdram_bytes = w.unit("sdram/bytes");
        *cache_hits = w.unit("cache/hits");
        *cache_bytes_saved = w.unit("cache/bytes_saved");
    }
}

/// The live sink pair: health budgets to evaluate plus the callback.
type LiveSink = (
    crate::health::HealthPolicy,
    Box<dyn FnMut(&LiveSnapshot) + Send>,
);

/// Freshly rendered observability payloads, handed to the live sink at
/// every time-series sample boundary.
#[derive(Debug, Clone)]
pub struct LiveSnapshot {
    /// The sample boundary the payloads were rendered at.
    pub at: Ps,
    /// Prometheus text exposition of the metrics registry.
    pub prometheus: String,
    /// Health verdicts in the `vapres health --jsonl yes` serialization.
    pub health: String,
    /// The flight ring as JSON Lines (empty when the recorder is off).
    pub flight: String,
}

impl fmt::Debug for VapresSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VapresSystem")
            .field("now", &self.clocks.now())
            .field("nodes", &self.cfg.params.nodes)
            .field("prrs", &self.prrs)
            .finish()
    }
}

impl VapresSystem {
    /// Builds a system from a validated configuration and a module
    /// library (the set of "synthesized" modules available to load).
    ///
    /// # Errors
    ///
    /// Propagates [`crate::config::ConfigError`] from validation.
    pub fn new(
        cfg: SystemConfig,
        library: ModuleLibrary,
    ) -> Result<Self, crate::config::ConfigError> {
        cfg.validate()?;
        let mut clocks = ClockScheduler::new();
        let static_domain = clocks.add_domain(cfg.static_clock);

        let fabric = StreamFabric::new(cfg.params)
            .map_err(|e| crate::config::ConfigError::internal(e.to_string()))?;

        let mut prrs = Vec::new();
        let mut ioms = Vec::new();
        let mut node_prr = vec![None; cfg.params.nodes];
        let mut node_iom = vec![None; cfg.params.nodes];
        for (node, kind) in cfg.node_kinds.iter().enumerate() {
            match kind {
                NodeKind::Prr => {
                    let bufgmux = Bufgmux::new(cfg.prr_clock_menu[0], cfg.prr_clock_menu[1]);
                    let domain = clocks.add_domain(bufgmux.output());
                    // Power-on: CLK_en = 0, the PRR clock is gated.
                    clocks.set_enabled(domain, false);
                    node_prr[node] = Some(prrs.len());
                    prrs.push(PrrState {
                        node,
                        domain,
                        bufgmux,
                        module: None,
                        loaded_uid: None,
                        spanned_by: None,
                    });
                }
                NodeKind::Iom => {
                    node_iom[node] = Some(ioms.len());
                    ioms.push(IomState::new(node));
                }
            }
        }

        let sockets = (0..cfg.params.nodes).map(PrSocket::new).collect();
        let fsl = (0..cfg.params.nodes)
            .map(|_| FslPair::new(cfg.fsl_depth))
            .collect();

        // Register executor components in dense dispatch order: fabric
        // first, then IOMs, on the static clock; each PRR on its own
        // domain. Registration order is tick order within a domain.
        let mut exec = Executor::new();
        let mut comp_kind = Vec::new();
        let mut comp_of_node = vec![None; cfg.params.nodes];
        let comp_fabric = exec.register(static_domain);
        comp_kind.push(CompKind::Fabric);
        for (i, iom) in ioms.iter().enumerate() {
            let id = exec.register(static_domain);
            comp_kind.push(CompKind::Iom(i));
            comp_of_node[iom.node] = Some(id);
        }
        for (i, prr) in prrs.iter().enumerate() {
            let id = exec.register(prr.domain);
            comp_kind.push(CompKind::Prr(i));
            comp_of_node[prr.node] = Some(id);
        }

        Ok(VapresSystem {
            clocks,
            static_domain,
            fabric,
            sockets,
            fsl,
            prrs,
            ioms,
            node_prr,
            node_iom,
            icap: Icap::new(),
            cf: CompactFlash::new(),
            sdram: Sdram::new(),
            library,
            isolated_writes: 0,
            exec,
            comp_kind,
            comp_fabric,
            comp_of_node,
            dense: false,
            trace: None,
            telemetry: None,
            flight: None,
            word_trace: None,
            timeseries: None,
            live: None,
            profile: None,
            bs_cache: None,
            cfg,
        })
    }

    /// Current simulation time.
    pub fn now(&self) -> Ps {
        self.clocks.now()
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The streaming fabric (read access for inspection).
    pub fn fabric(&self) -> &StreamFabric {
        &self.fabric
    }

    /// The CompactFlash card (mutable: the host provisions files onto it).
    ///
    /// Hands out raw storage access, so any staged-bitstream cache is
    /// cleared conservatively — the caller may overwrite any file, and a
    /// stale hit must never configure an old module.
    pub fn compact_flash_mut(&mut self) -> &mut CompactFlash {
        if let Some(cache) = self.bs_cache.as_mut() {
            cache.clear();
        }
        &mut self.cf
    }

    /// The module library (mutable: register "synthesized" modules).
    pub fn library_mut(&mut self) -> &mut ModuleLibrary {
        &mut self.library
    }

    /// The ICAP, for inspecting configuration memory.
    pub fn icap(&self) -> &Icap {
        &self.icap
    }

    /// Mutable ICAP access — configuration scrubbing and fault-injection
    /// experiments.
    pub fn icap_mut(&mut self) -> &mut Icap {
        &mut self.icap
    }

    /// Words hardware modules wrote while their slice macros were
    /// disabled (lost by isolation; should stay 0 in well-behaved
    /// applications).
    pub fn isolated_writes(&self) -> u64 {
        self.isolated_writes
    }

    /// Runs the whole system for `dur` of simulated time.
    ///
    /// Execution is event-driven: components that report themselves
    /// quiescent (idle IOMs, drained modules, routes with nothing in
    /// flight) are skipped, and stretches where everything sleeps are
    /// elided wholesale — while the end state (component states, event
    /// timestamps, cycle counters) stays bit-for-bit identical to ticking
    /// every component on every edge. See [`exec_stats`](Self::exec_stats)
    /// for how much work a run actually dispatched.
    pub fn run_for(&mut self, dur: Ps) {
        self.profile_begin("run");
        let deadline = self.clocks.now() + dur;
        self.revalidate_activity();
        loop {
            let next = self.timeseries.as_ref().map(TimeSeries::next_sample_at);
            let bound = match next {
                Some(at) if at <= deadline => at,
                _ => deadline,
            };
            while self.step_to(bound) {}
            if next == Some(bound) {
                self.capture_sample(bound);
            }
            if bound == deadline {
                break;
            }
        }
        self.sync_fabric();
        self.profile_end();
    }

    /// Runs until the predicate returns true or `timeout` elapses;
    /// returns whether the predicate fired.
    ///
    /// The predicate must be a function of system *state* (FIFO contents,
    /// outputs, module status) — it is evaluated between scheduler steps,
    /// and state only changes at those points. A predicate on bare
    /// `now()` may observe time advancing in multi-cycle jumps across
    /// quiescent stretches.
    pub fn run_until(&mut self, timeout: Ps, pred: impl FnMut(&VapresSystem) -> bool) -> bool {
        self.profile_begin("run");
        let fired = self.run_until_inner(timeout, pred);
        self.profile_end();
        fired
    }

    fn run_until_inner(
        &mut self,
        timeout: Ps,
        mut pred: impl FnMut(&VapresSystem) -> bool,
    ) -> bool {
        let deadline = self.clocks.now() + timeout;
        self.revalidate_activity();
        loop {
            // Predicates read fabric state: materialize any stretch the
            // scheduler elided before evaluating.
            self.sync_fabric();
            if pred(self) {
                return true;
            }
            // Stop at the next time-series sample boundary, if one lands
            // before the deadline, so sampling cadence is a property of
            // simulated time alone.
            let next = self.timeseries.as_ref().map(TimeSeries::next_sample_at);
            let bound = match next {
                Some(at) if at <= deadline => at,
                _ => deadline,
            };
            if !self.step_to(bound) {
                if next == Some(bound) {
                    self.capture_sample(bound);
                }
                if bound == deadline {
                    self.sync_fabric();
                    return pred(self);
                }
            }
        }
    }

    /// Materializes the fabric's lazily-advanced state to the current
    /// static cycle. Cheap when nothing was elided; exact always. The
    /// scheduler may have fast-forwarded time past the fabric's last
    /// dispatch (its event horizon proved the stretch free of component
    /// interaction), so any accessor or mutator of fabric state must
    /// sync first to observe — or apply changes at — the present cycle.
    pub(crate) fn sync_fabric(&mut self) {
        let cycle = self.clocks.cycles(self.static_domain);
        self.fabric.advance_to(cycle);
    }

    /// Re-derives every component's wake state from current system state.
    ///
    /// Called on entry to [`run_for`] / [`run_until`]: API calls between
    /// runs (DCR writes, FSL writes, channel changes, module installs)
    /// may have created work for components the executor put to sleep.
    /// O(components), and spurious wakes are harmless, so this is the
    /// entire wake contract the API layer needs.
    fn revalidate_activity(&mut self) {
        if self.dense {
            return;
        }
        if !self.fabric.is_quiescent() {
            self.exec.wake(self.comp_fabric);
        }
        for iom in &self.ioms {
            let id = self.comp_of_node[iom.node].expect("IOM registered");
            let port = PortRef::new(iom.node, 0);
            if !iom.ext_in.is_empty() || self.fabric.consumer_len(port).unwrap_or(0) > 0 {
                self.exec.wake(id);
            }
        }
        for prr in &self.prrs {
            let id = self.comp_of_node[prr.node].expect("PRR registered");
            if prr.module.is_some() && self.clocks.is_enabled(prr.domain) {
                self.exec.wake(id);
            } else {
                // Empty or clock-gated: no edge can reach it, so don't let
                // it hold the executor out of fast-forward.
                self.exec.sleep_component(id);
            }
        }
    }

    /// One unit of progress toward `deadline` (one delivered edge, or one
    /// fast-forward across a fully-asleep stretch). Returns `false` once
    /// the deadline is reached.
    fn step_to(&mut self, deadline: Ps) -> bool {
        if self.dense {
            match self.clocks.next_edge_before(deadline) {
                Some(edge) => {
                    self.dispatch_dense(edge);
                    true
                }
                None => false,
            }
        } else {
            let VapresSystem {
                clocks,
                exec,
                fabric,
                sockets,
                fsl,
                prrs,
                ioms,
                comp_kind,
                comp_fabric,
                comp_of_node,
                isolated_writes,
                trace,
                word_trace,
                profile,
                cfg,
                ..
            } = self;
            let period_ps = cfg.static_clock.period().as_ps();
            let ki = cfg.params.ki;
            // Horizon scheduling would starve the per-edge VCD sampling
            // cadence; with tracing on, the fabric stays per-cycle.
            let tracing = trace.is_some();
            let mut host = |waker: &mut vapres_sim::exec::Waker<'_>,
                            id: ComponentId,
                            edge: Edge|
             -> Activity {
                if let Some(p) = profile.as_deref_mut() {
                    let (scope, unit) = p.comps[id.0];
                    p.prof.work_mut().add(unit, 1);
                    p.prof.begin(scope);
                }
                let act = match comp_kind[id.0] {
                    CompKind::Fabric => {
                        let act = tick_fabric(
                            fabric,
                            comp_of_node,
                            &mut |c| waker.wake(c),
                            edge,
                            period_ps,
                            tracing,
                        );
                        if let Some(t) = trace {
                            t.sample(edge.at, fabric, prrs, sockets);
                        }
                        act
                    }
                    CompKind::Iom(i) => tick_iom(
                        ioms,
                        fabric,
                        fsl,
                        word_trace,
                        i,
                        edge,
                        period_ps,
                        &mut |req| match req {
                            WakeReq::Now(c) => waker.wake(c),
                            WakeReq::At(c, at) => waker.schedule_at(c, at),
                        },
                        *comp_fabric,
                        !tracing,
                    ),
                    CompKind::Prr(i) => tick_prr(
                        prrs,
                        sockets,
                        fsl,
                        fabric,
                        isolated_writes,
                        ki,
                        i,
                        edge,
                        period_ps,
                        &mut |req| match req {
                            WakeReq::Now(c) => waker.wake(c),
                            WakeReq::At(c, at) => waker.schedule_at(c, at),
                        },
                        *comp_fabric,
                        !tracing,
                    ),
                };
                if let Some(p) = profile.as_deref_mut() {
                    p.prof.end();
                }
                act
            };
            exec.step(clocks, deadline, &mut host)
        }
    }

    /// The dense reference dispatch: tick the fabric and every IOM on
    /// every static edge, and every PRR on every edge of its domain —
    /// regardless of activity. Kept for golden-trace equivalence testing
    /// against the event-driven path.
    fn dispatch_dense(&mut self, edge: Edge) {
        let mut no_wake = |_req: WakeReq| {};
        let period_ps = self.cfg.static_clock.period().as_ps();
        if edge.domain == self.static_domain {
            self.fabric.tick_dense();
            for i in 0..self.ioms.len() {
                let _ = tick_iom(
                    &mut self.ioms,
                    &mut self.fabric,
                    &mut self.fsl,
                    &mut self.word_trace,
                    i,
                    edge,
                    period_ps,
                    &mut no_wake,
                    self.comp_fabric,
                    false,
                );
            }
            if let Some(t) = &mut self.trace {
                t.sample(edge.at, &self.fabric, &self.prrs, &self.sockets);
            }
        } else if let Some(idx) = self.prrs.iter().position(|p| p.domain == edge.domain) {
            let _ = tick_prr(
                &mut self.prrs,
                &self.sockets,
                &mut self.fsl,
                &mut self.fabric,
                &mut self.isolated_writes,
                self.cfg.params.ki,
                idx,
                edge,
                period_ps,
                &mut no_wake,
                self.comp_fabric,
                false,
            );
        }
    }

    /// Selects the execution model: `true` ticks every component on every
    /// edge (the dense reference loop), `false` (the default) uses the
    /// activity-tracked executor. Both produce identical system states
    /// and timestamps; dense mode exists so tests can prove it.
    #[doc(hidden)]
    pub fn set_dense(&mut self, dense: bool) {
        self.dense = dense;
    }

    /// Executor work counters (edges delivered/elided, component ticks
    /// dispatched/skipped) accumulated across runs. All zeros in dense
    /// mode.
    pub fn exec_stats(&self) -> &ExecStats {
        self.exec.stats()
    }

    /// Zeroes the executor work counters (e.g. between benchmark phases).
    pub fn reset_exec_stats(&mut self) {
        self.exec.reset_stats();
    }

    /// Starts capturing system waveforms — established channels, active
    /// routes, per-node FIFO occupancy, per-PRR state — sampled once per
    /// delivered static clock edge, for VCD export via
    /// [`tracer`](Self::tracer).
    pub fn enable_tracing(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(SysTrace::new(self.cfg.params.nodes, self.prrs.len()));
        }
    }

    /// The system waveform tracer, if [`enable_tracing`](Self::enable_tracing)
    /// was called.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.trace.as_ref().map(|t| &t.tracer)
    }

    /// Turns on the unified metrics registry. Until this is called, every
    /// instrumentation site in the system costs one `Option` branch (the
    /// `metrics_overhead` bench in `vapres-bench` measures it).
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(Telemetry::new());
        }
    }

    /// The metrics registry, if [`enable_telemetry`](Self::enable_telemetry)
    /// was called. Event-recording sites (swap spans, DCR counters, ICAP
    /// transfers) write into it as they run; state-derived metrics
    /// (channel stalls, FIFO high-water, executor efficiency) appear after
    /// [`snapshot_metrics`](Self::snapshot_metrics).
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Arms the always-on flight recorder with a ring of `capacity`
    /// events and turns on the fabric's FIFO threshold-crossing capture
    /// that feeds it. Recording is allocation-free once the ring fills;
    /// dump the tail with [`dump_flight_jsonl`](Self::dump_flight_jsonl)
    /// when something fails.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_flight_recorder(&mut self, capacity: usize) {
        if self.flight.is_none() {
            self.flight = Some(FlightRecorder::new(capacity));
            self.fabric.set_event_capture(true);
        }
    }

    /// The flight recorder, if armed — with any fabric events the stream
    /// layer buffered since the last sync folded in first, so the ring
    /// is current.
    pub fn flight(&mut self) -> Option<&FlightRecorder> {
        self.sync_flight_from_fabric();
        self.flight.as_ref()
    }

    /// Records one host-level lifecycle event (checkpoint capture,
    /// restore, replay start) into the flight recorder, so a dumped ring
    /// shows where a run was cut and resumed. A single branch when the
    /// recorder is unarmed.
    pub fn note_flight(&mut self, event: FlightEvent) {
        self.flight_note(event);
    }

    /// Records one control-plane event into the flight recorder (a
    /// single branch unless armed). Buffered fabric events are folded in
    /// first so ring order matches simulated-time order.
    pub(crate) fn flight_note(&mut self, event: FlightEvent) {
        if self.flight.is_none() {
            return;
        }
        self.sync_flight_from_fabric();
        let now = self.clocks.now();
        if let Some(fr) = self.flight.as_mut() {
            fr.record(now, event);
        }
    }

    /// Folds the fabric's buffered FIFO threshold crossings into the
    /// flight ring. The fabric stamps them with its tick count; ticks
    /// land one per static-clock cycle, so the conversion to simulated
    /// time is exact.
    fn sync_flight_from_fabric(&mut self) {
        let Some(fr) = self.flight.as_mut() else {
            return;
        };
        let period = self.cfg.static_clock.period().as_ps();
        for ev in self.fabric.drain_fifo_events() {
            let side = if ev.producer {
                FifoSide::Producer
            } else {
                FifoSide::Consumer
            };
            let edge = match ev.edge {
                FifoEdge::BecameFull => FifoEdgeKind::BecameFull,
                FifoEdge::NoLongerFull => FifoEdgeKind::NoLongerFull,
                FifoEdge::BecameEmpty => FifoEdgeKind::BecameEmpty,
                FifoEdge::NoLongerEmpty => FifoEdgeKind::NoLongerEmpty,
            };
            fr.record(
                Ps::new(ev.cycle * period),
                FlightEvent::FifoEdge {
                    node: ev.port.node as u32,
                    port: ev.port.port as u32,
                    side,
                    edge,
                },
            );
        }
    }

    /// Dumps the flight ring as JSON Lines, oldest first. A no-op when
    /// the recorder was never armed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn dump_flight_jsonl<W: std::io::Write>(&mut self, w: &mut W) -> std::io::Result<()> {
        self.sync_flight_from_fabric();
        match &self.flight {
            Some(fr) => fr.write_jsonl(w),
            None => Ok(()),
        }
    }

    /// Dumps the flight ring as a chrome://tracing instant-event array,
    /// loadable next to the telemetry span trace. A no-op when the
    /// recorder was never armed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn dump_flight_chrome_trace<W: std::io::Write>(
        &mut self,
        w: &mut W,
    ) -> std::io::Result<()> {
        self.sync_flight_from_fabric();
        match &self.flight {
            Some(fr) => fr.write_chrome_trace(w),
            None => Ok(()),
        }
    }

    /// Starts per-word provenance tracing: every `sample_every`-th data
    /// word an IOM injects gets a sequence tag that follows it through
    /// the fabric (the stream layer times each stage) to the consumer
    /// IOM's external pins. [`snapshot_metrics`](Self::snapshot_metrics)
    /// folds the completed traversals into `word_e2e_latency_ps` and
    /// `word_stage_cycles` histograms.
    ///
    /// # Panics
    ///
    /// Panics if `sample_every` is zero.
    pub fn enable_word_trace(&mut self, sample_every: u32) {
        if self.word_trace.is_none() {
            self.word_trace = Some(WordTrace::new(sample_every));
            self.fabric.enable_word_tap();
        }
    }

    /// The per-word provenance capture, if armed.
    pub fn word_trace(&self) -> Option<&WordTrace> {
        self.word_trace.as_ref()
    }

    /// Arms the deterministic time-series sampler: every `every` of
    /// simulated time, the run loop stops at the exact boundary,
    /// harvests the registry ([`snapshot_metrics`](Self::snapshot_metrics))
    /// and folds one delta frame into a ring of `capacity` frames.
    /// The cadence is a function of simulated time alone, so sampled
    /// runs stay bit-exact across `--jobs` counts and warm/cold starts.
    /// Telemetry is enabled implicitly.
    ///
    /// # Panics
    ///
    /// Panics if `every` or `capacity` is zero.
    pub fn enable_timeseries(&mut self, every: Ps, capacity: usize) {
        if self.timeseries.is_none() {
            self.enable_telemetry();
            self.timeseries = Some(TimeSeries::new(every, capacity, self.clocks.now()));
        }
    }

    /// The time-series sampler, if armed.
    pub fn timeseries(&self) -> Option<&TimeSeries> {
        self.timeseries.as_ref()
    }

    /// Installs a live observability sink: at every time-series sample
    /// boundary the system renders its Prometheus metrics, a health
    /// report under `policy`, and the flight ring, and hands the three
    /// payloads to `sink`. Boundaries only exist once
    /// [`enable_timeseries`](Self::enable_timeseries) armed the sampler.
    ///
    /// The sink is host plumbing, not simulation state: it is never
    /// persisted, and the mid-run health evaluation may append
    /// `deadline_breach` flight events — so bit-exactness contracts are
    /// stated for runs without a sink installed.
    pub fn set_live_sink(
        &mut self,
        policy: crate::health::HealthPolicy,
        sink: Box<dyn FnMut(&LiveSnapshot) + Send>,
    ) {
        self.live = Some((policy, sink));
    }

    /// Turns on the staged-bitstream cache: the last `capacity` distinct
    /// (source, target-FAR) streams a reconfiguration validated are kept
    /// frame-deduplicated and run-length compressed, so a repeat swap of
    /// the same source skips the storage transfer entirely and pays only
    /// RLE expansion plus the ICAP write.
    ///
    /// Cache state (entries, LRU stamps, statistics) is part of the
    /// simulation: it is persisted in checkpoints and its behaviour is a
    /// pure function of the call sequence, so cached runs stay bit-exact
    /// across `--jobs` counts and warm/cold starts.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_bitstream_cache(&mut self, capacity: usize) {
        if self.bs_cache.is_none() {
            self.bs_cache = Some(BitstreamCache::new(capacity));
        }
    }

    /// The staged-bitstream cache, if
    /// [`enable_bitstream_cache`](Self::enable_bitstream_cache) was
    /// called.
    pub fn bitstream_cache(&self) -> Option<&BitstreamCache> {
        self.bs_cache.as_ref()
    }

    /// Turns on the two-plane self-profiler.
    ///
    /// The *work plane* counts deterministic simulation effort — one
    /// unit per component tick dispatched (`exec/fabric`, `exec/iom*`,
    /// `exec/prr*`), per route span the fabric dispatched or folded
    /// (`fabric/route*`), per swap step, per time-series sample, plus
    /// ICAP words and CF/SDRAM bytes moved. It is persisted in
    /// checkpoints and byte-identical across `--jobs` counts and
    /// warm/cold starts, like every other observable.
    ///
    /// The *host plane* measures wall-clock nanoseconds per nested run
    /// scope. Like the live sink it is host plumbing, not simulation
    /// state: never persisted, and outside every determinism contract.
    ///
    /// The dense reference loop ([`set_dense`](Self::set_dense)) is not
    /// instrumented — it exists for equivalence testing, and profiling
    /// hooks there would only measure the mode nobody ships.
    pub fn enable_profiling(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(Box::new(SelfProfile::new(&self.comp_kind)));
        }
    }

    /// The self-profiler, if [`enable_profiling`](Self::enable_profiling)
    /// was called. Event-charged work units (dispatches, swap steps,
    /// storage bytes) are current; state-derived ones (per-route spans,
    /// ICAP words) appear after
    /// [`profile_snapshot`](Self::profile_snapshot).
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profile.as_deref().map(|p| &p.prof)
    }

    /// The self-profiler, mutably — callers can open their own host
    /// scopes around phases they drive (e.g. the CLI wraps setup).
    pub fn profiler_mut(&mut self) -> Option<&mut Profiler> {
        self.profile.as_deref_mut().map(|p| &mut p.prof)
    }

    /// Harvests state-derived work units into the profiler's work
    /// plane: per-route span counts from the fabric (in channel-id
    /// order, so registration order is deterministic) and the ICAP
    /// word count. Idempotent, like
    /// [`snapshot_metrics`](Self::snapshot_metrics). A no-op when
    /// profiling is off.
    pub fn profile_snapshot(&mut self) {
        if self.profile.is_none() {
            return;
        }
        self.sync_fabric();
        let mut p = self.profile.take().expect("checked above");
        // Pushed, not written: the polled driver clocks every word of a
        // stream through the port before the ICAP can reject it, so the
        // work plane attributes failed writes too.
        let words = self.icap.words_pushed();
        let w = p.prof.work_mut();
        w.set(p.icap_words, words);
        if let Some(cache) = self.bs_cache.as_ref() {
            let s = cache.stats();
            w.set(p.cache_hits, s.hits);
            w.set(p.cache_bytes_saved, s.bytes_saved);
        }
        for id in self.fabric.active_channels() {
            let info = self.fabric.channel_info(id).expect("listed channel");
            let unit = w.unit(&format!("fabric/route{}", id.0));
            w.set(unit, info.work_ops);
        }
        self.profile = Some(p);
    }

    /// Harvests ([`profile_snapshot`](Self::profile_snapshot)) and joins
    /// the planes into the cost model. `None` when profiling was never
    /// enabled.
    pub fn profile_cost_model(&mut self) -> Option<CostModel> {
        self.profile_snapshot();
        self.profile.as_deref().map(|p| p.prof.cost_model())
    }

    /// Records a `profile_dump` flight event carrying the number of
    /// distinct host scopes, so a dumped ring shows where the
    /// profiler's exports were taken. A single branch when either the
    /// recorder or the profiler is off.
    pub fn note_profile_dump(&mut self) {
        let Some(scopes) = self.profile.as_deref().map(|p| p.prof.scope_count()) else {
            return;
        };
        self.flight_note(FlightEvent::ProfileDump { scopes });
    }

    /// Opens a host scope when profiling is on (a single branch when
    /// off).
    pub(crate) fn profile_begin(&mut self, name: &'static str) {
        if let Some(p) = self.profile.as_deref_mut() {
            p.prof.begin(name);
        }
    }

    /// Closes the innermost host scope when profiling is on.
    pub(crate) fn profile_end(&mut self) {
        if let Some(p) = self.profile.as_deref_mut() {
            p.prof.end();
        }
    }

    /// Charges one swap methodology step to the work plane.
    pub(crate) fn profile_charge_swap_step(&mut self) {
        if let Some(p) = self.profile.as_deref_mut() {
            let unit = p.swap_steps;
            p.prof.work_mut().add(unit, 1);
        }
    }

    /// Charges CompactFlash bytes read to the work plane.
    pub(crate) fn profile_charge_cf_bytes(&mut self, n: u64) {
        if let Some(p) = self.profile.as_deref_mut() {
            let unit = p.cf_bytes;
            p.prof.work_mut().add(unit, n);
        }
    }

    /// Charges SDRAM bytes staged or read to the work plane.
    pub(crate) fn profile_charge_sdram_bytes(&mut self, n: u64) {
        if let Some(p) = self.profile.as_deref_mut() {
            let unit = p.sdram_bytes;
            p.prof.work_mut().add(unit, n);
        }
    }

    /// Harvests the registry and folds one delta frame into the
    /// sampler, then feeds any live sink. `at` is the nominal sample
    /// boundary — the scheduler may sit short of it when the tail of
    /// the stretch held no edges.
    fn capture_sample(&mut self, at: Ps) {
        let Some(mut ts) = self.timeseries.take() else {
            return;
        };
        if let Some(p) = self.profile.as_deref_mut() {
            let unit = p.sampling;
            p.prof.work_mut().add(unit, 1);
            p.prof.begin("sample");
        }
        self.snapshot_metrics();
        if let Some(t) = self.telemetry.as_ref() {
            ts.capture(at, t);
        }
        self.timeseries = Some(ts);
        self.profile_end();
        self.emit_live(at);
    }

    /// Renders the live payloads and hands them to the installed sink
    /// (no-op without one).
    fn emit_live(&mut self, at: Ps) {
        let Some((policy, mut sink)) = self.live.take() else {
            return;
        };
        let mut prometheus = Vec::new();
        if let Some(t) = self.telemetry.as_ref() {
            let _ = t.write_prometheus(&mut prometheus);
        }
        let report = crate::health::evaluate_health(self, &policy, None);
        let mut health = Vec::new();
        let _ = report.write_jsonl(&mut health);
        let mut flight = Vec::new();
        let _ = self.dump_flight_jsonl(&mut flight);
        sink(&LiveSnapshot {
            at,
            prometheus: String::from_utf8_lossy(&prometheus).into_owned(),
            health: String::from_utf8_lossy(&health).into_owned(),
            flight: String::from_utf8_lossy(&flight).into_owned(),
        });
        self.live = Some((policy, sink));
    }

    /// Harvests state-derived metrics into the registry and returns it.
    ///
    /// Hot-path components (the fabric tick loop, the executor) keep their
    /// own native counters; this copies them into the registry as
    /// counters/gauges so exporters see one coherent snapshot:
    ///
    /// * `channel_delivered_total` / `channel_stall_cycles_total` /
    ///   `channel_backpressure_cycles_total` per established channel,
    ///   plus a `channel_stall_ratio` gauge (stalled / dispatched ticks);
    /// * `fifo_high_water` gauges per node interface (worst-case
    ///   occupancy);
    /// * `fabric_dropped_words{kind}` counters — words lost at consumer
    ///   interfaces, split into `gated` (`FIFO_wen` off) and `overflow`
    ///   (consumer FIFO full);
    /// * `fabric_ticks_total`, `exec_ticks_total`, `exec_skips_total`,
    ///   and the `exec_tick_reduction` gauge;
    /// * `icap_writes_total` / `icap_failed_writes_total` /
    ///   `icap_words_total`;
    /// * per-IOM `iom_words_total`, `iom_eos_total`, `iom_max_gap_ps`,
    ///   `iom_excess_gap_ps` (stream delay beyond the nominal sample
    ///   cadence), and `iom_missed_slots_total` (whole sample slots in
    ///   which no word arrived — the stream-interruption count).
    ///
    /// Counters are set-to-current-value on each harvest (the registry is
    /// the snapshot), so calling this repeatedly is safe.
    ///
    /// Returns `None` when telemetry was never enabled.
    pub fn snapshot_metrics(&mut self) -> Option<&Telemetry> {
        self.telemetry.as_ref()?;
        // Counters below read fabric state: materialize it first.
        self.sync_fabric();
        let mut t = self.telemetry.take().expect("checked above");

        for id in self.fabric.active_channels() {
            let info = self.fabric.channel_info(id).expect("listed channel");
            let labels = vec![
                ("channel", id.0.to_string()),
                ("producer", info.producer.to_string()),
                ("consumer", info.consumer.to_string()),
            ];
            let c = t.counter("channel_delivered_total", &labels);
            set_counter(&mut t, c, info.delivered);
            let c = t.counter("channel_stall_cycles_total", &labels);
            set_counter(&mut t, c, info.stall_cycles);
            let c = t.counter("channel_backpressure_cycles_total", &labels);
            set_counter(&mut t, c, info.backpressure_cycles);
            let g = t.gauge("channel_stall_ratio", &labels);
            let ticks = self.fabric.ticks();
            let ratio = if ticks == 0 {
                0.0
            } else {
                info.stall_cycles as f64 / ticks as f64
            };
            t.set_gauge(g, ratio);
        }

        for node in 0..self.cfg.params.nodes {
            for port in 0..self.cfg.params.ko {
                let p = PortRef::new(node, port);
                if let Ok(hw) = self.fabric.producer_high_water(p) {
                    let g = t.gauge(
                        "fifo_high_water",
                        &[("port", p.to_string()), ("side", "producer".into())],
                    );
                    t.set_gauge(g, hw as f64);
                }
            }
            for port in 0..self.cfg.params.ki {
                let p = PortRef::new(node, port);
                if let Ok(hw) = self.fabric.consumer_high_water(p) {
                    let g = t.gauge(
                        "fifo_high_water",
                        &[("port", p.to_string()), ("side", "consumer".into())],
                    );
                    t.set_gauge(g, hw as f64);
                }
            }
        }

        // Words lost at consumer interfaces, by cause: `gated` (FIFO_wen
        // off — expected during halt-style swaps) vs `overflow` (FIFO
        // full past the feedback threshold — a sizing bug).
        let mut gated = 0u64;
        let mut overflow = 0u64;
        for node in 0..self.cfg.params.nodes {
            for port in 0..self.cfg.params.ki {
                let p = PortRef::new(node, port);
                gated += self.fabric.consumer_gated_drops(p).unwrap_or(0);
                overflow += self.fabric.consumer_overflow_drops(p).unwrap_or(0);
            }
        }
        let c = t.counter("fabric_dropped_words", &[("kind", "gated".into())]);
        set_counter(&mut t, c, gated);
        let c = t.counter("fabric_dropped_words", &[("kind", "overflow".into())]);
        set_counter(&mut t, c, overflow);

        let c = t.counter("fabric_ticks_total", &[]);
        set_counter(&mut t, c, self.fabric.ticks());
        let stats = self.exec.stats();
        let c = t.counter("exec_ticks_total", &[]);
        set_counter(&mut t, c, stats.total_ticks());
        let c = t.counter("exec_skips_total", &[]);
        set_counter(&mut t, c, stats.total_skips());
        let g = t.gauge("exec_tick_reduction", &[]);
        t.set_gauge(g, stats.tick_reduction());

        let c = t.counter("icap_writes_total", &[]);
        set_counter(&mut t, c, self.icap.write_count());
        let c = t.counter("icap_failed_writes_total", &[]);
        set_counter(&mut t, c, self.icap.failed_write_count());
        let c = t.counter("icap_words_total", &[]);
        set_counter(&mut t, c, self.icap.words_written());

        if let Some(cache) = self.bs_cache.as_ref() {
            let s = cache.stats();
            let c = t.counter("bitstream_cache_hits_total", &[]);
            set_counter(&mut t, c, s.hits);
            let c = t.counter("bitstream_cache_misses_total", &[]);
            set_counter(&mut t, c, s.misses);
            let c = t.counter("bitstream_cache_evictions_total", &[]);
            set_counter(&mut t, c, s.evictions);
            let c = t.counter("bitstream_cache_invalidations_total", &[]);
            set_counter(&mut t, c, s.invalidations);
            let c = t.counter("bitstream_cache_bytes_saved_total", &[]);
            set_counter(&mut t, c, s.bytes_saved);
            let g = t.gauge("bitstream_cache_entries", &[]);
            t.set_gauge(g, cache.len() as f64);
            let g = t.gauge("bitstream_cache_compression_ratio", &[]);
            t.set_gauge(g, s.compression_ratio());
        }

        for (i, iom) in self.ioms.iter().enumerate() {
            let labels = vec![("iom", i.to_string())];
            let c = t.counter("iom_words_total", &labels);
            set_counter(&mut t, c, iom.gap.count());
            let c = t.counter("iom_eos_total", &labels);
            set_counter(&mut t, c, iom.eos_seen);
            let g = t.gauge("iom_max_gap_ps", &labels);
            t.set_gauge(g, iom.gap.max_gap().unwrap_or(Ps::ZERO).as_ps() as f64);
            let g = t.gauge("iom_excess_gap_ps", &labels);
            t.set_gauge(g, iom.gap.excess_gap().as_ps() as f64);
            let c = t.counter("iom_missed_slots_total", &labels);
            set_counter(&mut t, c, iom.gap.missed_slots());
        }

        if let Some(tr) = self.word_trace.as_mut() {
            // End-to-end accept→emit latency: 250 ns buckets resolve the
            // normal few-hop path (tens of ns → bucket 0) from reroute
            // stragglers (µs) while halt-and-swap's ms-scale waits land
            // in the overflow bound. Each completed tag is folded in
            // exactly once, so repeated snapshots stay idempotent.
            let fresh = tr.take_completed();
            let h = t.histogram("word_e2e_latency_ps", &[], 250_000, 64);
            for &(_, lat) in &fresh {
                t.observe(h, lat);
            }
            let c = t.counter("word_trace_tagged_total", &[]);
            set_counter(&mut t, c, tr.tagged() as u64);
            let c = t.counter("word_trace_completed_total", &[]);
            set_counter(&mut t, c, tr.completed() as u64);
            if let Some(tap) = self.fabric.word_tap() {
                type StagePick = fn(&vapres_stream::fabric::TagStats) -> u64;
                let per_stage: [(&'static str, StagePick); 3] = [
                    ("producer_wait", |s| s.producer_wait_cycles),
                    ("hop", |s| s.hop_cycles),
                    ("consumer_wait", |s| s.consumer_wait_cycles),
                ];
                for (stage, pick) in per_stage {
                    let h =
                        t.histogram("word_stage_cycles", &[("stage", stage.to_string())], 4, 64);
                    for &(tag, _) in &fresh {
                        if let Some(s) = tap.stats(tag) {
                            t.observe(h, pick(&s));
                        }
                    }
                }
            }
        }

        self.telemetry = Some(t);
        self.telemetry.as_ref()
    }

    // ------------------------------------------------------------------
    // IOM external-pin access (the testbench side of the system).
    // ------------------------------------------------------------------

    /// Queues data words on an IOM's external input pins.
    ///
    /// # Panics
    ///
    /// Panics if `iom` is out of range.
    pub fn iom_feed(&mut self, iom: usize, data: impl IntoIterator<Item = u32>) {
        self.ioms[iom]
            .ext_in
            .extend(data.into_iter().map(Word::data));
    }

    /// Queues raw words (including EOS markers) on an IOM's external input.
    ///
    /// # Panics
    ///
    /// Panics if `iom` is out of range.
    pub fn iom_feed_words(&mut self, iom: usize, words: impl IntoIterator<Item = Word>) {
        self.ioms[iom].ext_in.extend(words);
    }

    /// Sets the external sample interval of an IOM: one input word enters
    /// the fabric every `cycles` static-clock cycles (models an ADC slower
    /// than the fabric clock). Default 1.
    ///
    /// Also sets the IOM gap tracker's *nominal* inter-arrival gap to the
    /// matching duration, so [`GapTracker::excess_gap`] measures output
    /// interruption beyond the input cadence — exactly zero for a
    /// zero-interruption run.
    ///
    /// # Panics
    ///
    /// Panics if `iom` is out of range or `cycles` is zero.
    pub fn iom_set_input_interval(&mut self, iom: usize, cycles: u64) {
        assert!(cycles > 0, "sample interval must be non-zero");
        self.ioms[iom].input_interval = cycles;
        let nominal = Ps::new(cycles * self.cfg.static_clock.period().as_ps());
        self.ioms[iom].gap.set_nominal(nominal);
    }

    /// Words not yet consumed from an IOM's external input queue.
    ///
    /// # Panics
    ///
    /// Panics if `iom` is out of range.
    pub fn iom_pending_input(&self, iom: usize) -> usize {
        self.ioms[iom].ext_in.len()
    }

    /// The timestamped words an IOM has emitted on its external pins
    /// (includes end-of-stream markers).
    ///
    /// # Panics
    ///
    /// Panics if `iom` is out of range.
    pub fn iom_output(&self, iom: usize) -> &[(Ps, Word)] {
        &self.ioms[iom].ext_out
    }

    /// Inter-arrival statistics of an IOM's *data* output (EOS markers
    /// excluded) — the paper's stream-interruption metric.
    ///
    /// # Panics
    ///
    /// Panics if `iom` is out of range.
    pub fn iom_gap(&self, iom: usize) -> &GapTracker {
        &self.ioms[iom].gap
    }

    /// How many end-of-stream words this IOM has observed.
    ///
    /// # Panics
    ///
    /// Panics if `iom` is out of range.
    pub fn iom_eos_seen(&self, iom: usize) -> u64 {
        self.ioms[iom].eos_seen
    }

    // ------------------------------------------------------------------
    // PRR inspection.
    // ------------------------------------------------------------------

    /// Maps a node index to its IOM index, if the node is an IOM.
    pub fn iom_index(&self, node: usize) -> Option<usize> {
        self.node_iom.get(node).copied().flatten()
    }

    /// Number of IOMs in the system.
    pub fn iom_count(&self) -> usize {
        self.ioms.len()
    }

    /// The module UID loaded in PRR `prr`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `prr` is out of range.
    pub fn prr_loaded_uid(&self, prr: usize) -> Option<ModuleUid> {
        self.prrs[prr].loaded_uid
    }

    /// Name of the module loaded in PRR `prr`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `prr` is out of range.
    pub fn prr_module_name(&self, prr: usize) -> Option<&str> {
        self.prrs[prr].module.as_deref().map(|m| m.name())
    }

    /// The DCR contents of `node`'s PRSocket.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn dcr(&self, node: usize) -> Dcr {
        self.sockets[node].dcr
    }

    /// Matches a parsed bitstream's frames to the PRR(s) they cover.
    ///
    /// Returns the PRR indices (one for a normal bitstream, several for a
    /// multi-PRR *spanning* module, head first) whose floorplan
    /// rectangles together cover exactly the written frames.
    pub(crate) fn prrs_for_frames(
        &self,
        frames: &[(FrameAddress, Vec<u32>)],
    ) -> Option<Vec<usize>> {
        let placements = self.cfg.floorplan.prrs();
        let frames_in = |rect: &vapres_fabric::geometry::ClbRect| -> Option<usize> {
            let regions = self.cfg.device.regions_spanned(rect).ok()?;
            let bands: Vec<u32> = regions.iter().map(|r| r.band).collect();
            Some(
                rect.width() as usize
                    * bands.len()
                    * vapres_fabric::frame::FRAMES_PER_CLB_COLUMN as usize,
            )
        };
        let covered_by = |rect: &vapres_fabric::geometry::ClbRect, far: &FrameAddress| -> bool {
            let Ok(regions) = self.cfg.device.regions_spanned(rect) else {
                return false;
            };
            regions.iter().any(|r| r.band == far.band)
                && far.major >= rect.col_lo
                && far.major <= rect.col_hi
        };
        // Try every contiguous run of PRRs (length 1 first).
        for len in 1..=placements.len() {
            for start in 0..=(placements.len() - len) {
                let span: Vec<usize> = (start..start + len).collect();
                let expected: usize = span
                    .iter()
                    .filter_map(|&i| frames_in(&placements[i].rect))
                    .sum();
                if expected != frames.len() {
                    continue;
                }
                let all_covered = frames
                    .iter()
                    .all(|(far, _)| span.iter().any(|&i| covered_by(&placements[i].rect, far)));
                if all_covered {
                    return Some(span);
                }
            }
        }
        None
    }

    /// Destroys any spanning module that includes PRR `prr`, clearing every
    /// member's span marker and module.
    pub(crate) fn destroy_span_containing(&mut self, prr: usize) {
        let Some(head) = self.prrs[prr].spanned_by else {
            // Standalone: just drop its module.
            self.prrs[prr].module = None;
            self.prrs[prr].loaded_uid = None;
            return;
        };
        for p in &mut self.prrs {
            if p.spanned_by == Some(head) {
                p.module = None;
                p.loaded_uid = None;
                p.spanned_by = None;
            }
        }
    }

    /// The PRR indices a loaded spanning module occupies (head first), or
    /// just `[prr]` when standalone.
    pub fn prr_span(&self, prr: usize) -> Vec<usize> {
        match self.prrs[prr].spanned_by {
            Some(head) => (0..self.prrs.len())
                .filter(|&i| self.prrs[i].spanned_by == Some(head))
                .collect(),
            None => vec![prr],
        }
    }
}

// ----------------------------------------------------------------------
// Checkpoint / restore: the whole-system snapshot seam.
// ----------------------------------------------------------------------

use vapres_sim::persist::{Header, Persist, PersistError, Reader, Writer, FORMAT_VERSION};

impl WordTrace {
    fn persist(&self, w: &mut Writer) {
        w.put_u32(self.sample_every);
        w.put_u32(self.since_last);
        self.accept.persist(w);
        self.emit.persist(w);
        self.harvested.persist(w);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let sample_every = r.take_u32()?;
        if sample_every == 0 {
            return Err(PersistError::Corrupt("word-trace sample interval 0".into()));
        }
        let since_last = r.take_u32()?;
        let accept = Vec::<Ps>::restore(r)?;
        let emit = Vec::<Option<Ps>>::restore(r)?;
        let harvested = Vec::<bool>::restore(r)?;
        if emit.len() != accept.len() || harvested.len() != accept.len() {
            return Err(PersistError::Corrupt(
                "word-trace tag tables disagree".into(),
            ));
        }
        Ok(WordTrace {
            sample_every,
            since_last,
            accept,
            emit,
            harvested,
        })
    }
}

impl SysTrace {
    /// Rebuilds the signal-id map around a restored tracer. Signal ids
    /// follow [`SysTrace::new`]'s registration order, so the restored
    /// tracer must carry exactly the same signal count.
    fn from_tracer(tracer: Tracer, nodes: usize, n_prrs: usize) -> Result<Self, PersistError> {
        let expected = 2 + 2 * nodes + n_prrs;
        if tracer.signal_count() != expected {
            return Err(PersistError::Corrupt(format!(
                "system trace carries {} signals, config needs {expected}",
                tracer.signal_count()
            )));
        }
        let mut next = 0usize;
        let mut take = || {
            let id = SignalId::from_index(next);
            next += 1;
            id
        };
        Ok(SysTrace {
            channels: take(),
            routes_active: take(),
            node_cons: (0..nodes).map(|_| take()).collect(),
            node_prod: (0..nodes).map(|_| take()).collect(),
            prr_state: (0..n_prrs).map(|_| take()).collect(),
            tracer,
        })
    }
}

impl VapresSystem {
    /// Serializes the complete dynamic state of the system — clocks,
    /// executor, fabric (in-flight words, feedback history, counters),
    /// sockets, FSLs, PRR modules, IOMs, ICAP configuration memory,
    /// storage, and every armed observer (telemetry, flight ring, word
    /// trace, waveform tracer) — into a versioned, configuration-
    /// fingerprinted byte image.
    ///
    /// [`restore`](Self::restore)-ing the image into a system built from
    /// a structurally equal configuration and module library continues
    /// the run **bit-exactly**: every future observable (output words and
    /// timestamps, counters, flight events, VCD changes) matches a run
    /// that never stopped.
    pub fn checkpoint(&mut self) -> Vec<u8> {
        // Materialize any stretch the scheduler elided so the encoded
        // fabric is at the present cycle (exact either way; this just
        // pins the canonical encode point).
        self.sync_fabric();
        let mut w = Writer::new();
        Header {
            version: FORMAT_VERSION,
            fingerprint: self.cfg.fingerprint(),
        }
        .write(&mut w);
        self.clocks.persist(&mut w);
        self.exec.persist(&mut w);
        self.fabric.persist(&mut w);
        w.put_usize(self.sockets.len());
        for s in &self.sockets {
            w.put_u32(s.dcr.encode());
        }
        w.put_usize(self.fsl.len());
        for pair in &self.fsl {
            pair.to_mb.persist(&mut w);
            pair.from_mb.persist(&mut w);
        }
        w.put_usize(self.prrs.len());
        for prr in &self.prrs {
            prr.bufgmux.inputs()[0].persist(&mut w);
            prr.bufgmux.inputs()[1].persist(&mut w);
            w.put_bool(prr.bufgmux.selected());
            prr.loaded_uid.map(|u| u.0).persist(&mut w);
            prr.spanned_by.persist(&mut w);
            match &prr.module {
                Some(m) => {
                    w.put_bool(true);
                    w.put_u32(m.uid().0);
                    m.persist_words().persist(&mut w);
                }
                None => w.put_bool(false),
            }
        }
        w.put_usize(self.ioms.len());
        for iom in &self.ioms {
            iom.ext_in.persist(&mut w);
            iom.ext_out.persist(&mut w);
            iom.gap.persist(&mut w);
            w.put_u64(iom.eos_seen);
            w.put_u64(iom.input_interval);
            w.put_u64(iom.next_inject_cycle);
        }
        self.icap.persist(&mut w);
        self.cf.persist(&mut w);
        self.sdram.persist(&mut w);
        w.put_u64(self.isolated_writes);
        w.put_bool(self.dense);
        self.trace
            .as_ref()
            .map(|t| t.tracer.clone())
            .persist(&mut w);
        self.telemetry.persist(&mut w);
        self.flight.persist(&mut w);
        match &self.word_trace {
            Some(tr) => {
                w.put_bool(true);
                tr.persist(&mut w);
            }
            None => w.put_bool(false),
        }
        self.timeseries.persist(&mut w);
        // v3: the profiler's deterministic work plane. The host plane
        // (wall-time scopes) is host plumbing and never persisted.
        // State-derived units (routes, ICAP words) are not harvested
        // here — the native counters they mirror are persisted above,
        // and the next harvest recomputes identical values.
        match &self.profile {
            Some(p) => {
                w.put_bool(true);
                p.prof.work().persist(&mut w);
            }
            None => w.put_bool(false),
        }
        // v4: the staged-bitstream cache — entries, LRU stamps and
        // statistics ride along so restored runs hit and evict exactly
        // as a run that never stopped.
        self.bs_cache.persist(&mut w);
        w.into_bytes()
    }

    /// Reconstructs a system from a [`checkpoint`](Self::checkpoint)
    /// image, a configuration structurally equal to the one the image was
    /// taken under, and a module library registering every UID the image
    /// holds a loaded module for.
    ///
    /// # Errors
    ///
    /// [`PersistError::BadMagic`] / [`PersistError::VersionMismatch`] /
    /// [`PersistError::FingerprintMismatch`] when the image does not
    /// belong to this build + configuration, and
    /// [`PersistError::Corrupt`] on any internal inconsistency (including
    /// a module UID the library cannot instantiate).
    pub fn restore(
        cfg: SystemConfig,
        library: ModuleLibrary,
        bytes: &[u8],
    ) -> Result<Self, PersistError> {
        let fingerprint = cfg.fingerprint();
        let mut sys =
            VapresSystem::new(cfg, library).map_err(|e| PersistError::Corrupt(e.to_string()))?;
        let r = &mut Reader::new(bytes);
        Header::read_expecting(r, fingerprint)?;
        let clocks = ClockScheduler::restore(r)?;
        if clocks.len() != 1 + sys.prrs.len() {
            return Err(PersistError::Corrupt(format!(
                "snapshot has {} clock domains, config needs {}",
                clocks.len(),
                1 + sys.prrs.len()
            )));
        }
        sys.clocks = clocks;
        let exec = Executor::restore(r)?;
        if exec.component_count() != sys.comp_kind.len() {
            return Err(PersistError::Corrupt(format!(
                "snapshot has {} executor components, config needs {}",
                exec.component_count(),
                sys.comp_kind.len()
            )));
        }
        sys.exec = exec;
        let fabric = StreamFabric::restore(r)?;
        if *fabric.params() != sys.cfg.params {
            return Err(PersistError::Corrupt(
                "snapshot fabric parameters disagree with the configuration".into(),
            ));
        }
        sys.fabric = fabric;
        let n = r.take_usize()?;
        if n != sys.sockets.len() {
            return Err(PersistError::Corrupt("socket count mismatch".into()));
        }
        for s in &mut sys.sockets {
            s.dcr = Dcr::decode(r.take_u32()?);
        }
        let n = r.take_usize()?;
        if n != sys.fsl.len() {
            return Err(PersistError::Corrupt("FSL pair count mismatch".into()));
        }
        for pair in &mut sys.fsl {
            pair.to_mb = AsyncFifo::restore(r)?;
            pair.from_mb = AsyncFifo::restore(r)?;
        }
        let n = r.take_usize()?;
        if n != sys.prrs.len() {
            return Err(PersistError::Corrupt("PRR count mismatch".into()));
        }
        for i in 0..sys.prrs.len() {
            let i0 = vapres_sim::time::Freq::restore(r)?;
            let i1 = vapres_sim::time::Freq::restore(r)?;
            let sel = r.take_bool()?;
            let mut mux = Bufgmux::new(i0, i1);
            mux.select(sel);
            sys.prrs[i].bufgmux = mux;
            sys.prrs[i].loaded_uid = Option::<u32>::restore(r)?.map(ModuleUid);
            sys.prrs[i].spanned_by = Option::<usize>::restore(r)?;
            sys.prrs[i].module = if r.take_bool()? {
                let uid = ModuleUid(r.take_u32()?);
                let words = Vec::<u32>::restore(r)?;
                let mut module = sys.library.instantiate(uid).ok_or_else(|| {
                    PersistError::Corrupt(format!(
                        "snapshot holds module {uid} but the library cannot instantiate it"
                    ))
                })?;
                module.restore_persisted(&words);
                Some(module)
            } else {
                None
            };
        }
        let n = r.take_usize()?;
        if n != sys.ioms.len() {
            return Err(PersistError::Corrupt("IOM count mismatch".into()));
        }
        for iom in &mut sys.ioms {
            iom.ext_in = VecDeque::restore(r)?;
            iom.ext_out = Vec::restore(r)?;
            iom.gap = GapTracker::restore(r)?;
            iom.eos_seen = r.take_u64()?;
            iom.input_interval = r.take_u64()?;
            iom.next_inject_cycle = r.take_u64()?;
        }
        sys.icap = Icap::restore(r)?;
        sys.cf = CompactFlash::restore(r)?;
        sys.sdram = Sdram::restore(r)?;
        sys.isolated_writes = r.take_u64()?;
        sys.dense = r.take_bool()?;
        let nodes = sys.cfg.params.nodes;
        let n_prrs = sys.prrs.len();
        sys.trace = Option::<Tracer>::restore(r)?
            .map(|t| SysTrace::from_tracer(t, nodes, n_prrs))
            .transpose()?;
        sys.telemetry = Option::<Telemetry>::restore(r)?;
        sys.flight = Option::<FlightRecorder>::restore(r)?;
        sys.word_trace = if r.take_bool()? {
            Some(WordTrace::restore(r)?)
        } else {
            None
        };
        sys.timeseries = Option::<TimeSeries>::restore(r)?;
        if r.take_bool()? {
            sys.enable_profiling();
            let work = WorkUnits::restore(r)?;
            if let Some(p) = sys.profile.as_deref_mut() {
                p.adopt_work(work);
            }
        }
        sys.bs_cache = Option::<BitstreamCache>::restore(r)?;
        r.expect_end()?;
        if sys.word_trace.is_some() && sys.fabric.word_tap().is_none() {
            return Err(PersistError::Corrupt(
                "word trace armed but the fabric carries no word tap".into(),
            ));
        }
        Ok(sys)
    }
}

/// Raises a registry counter to an externally-tracked running total
/// (counters are monotone; harvest copies the native value in).
fn set_counter(t: &mut Telemetry, id: vapres_sim::telemetry::CounterId, value: u64) {
    let cur = t.counter_value(id);
    t.inc(id, value.saturating_sub(cur));
}

/// Wake request a component tick issues for another component.
enum WakeReq {
    /// Tick it on this very edge (dense-loop ordering).
    Now(ComponentId),
    /// It can provably sleep until the given absolute time.
    At(ComponentId, Ps),
}

/// One fabric dispatch plus wake propagation: the fabric advances to the
/// edge's static cycle (folding any elided stretch in closed form), and
/// words delivered into a node's consumer FIFO (or drained from its full
/// producer FIFO) wake that node's component, so it sees the data on
/// this very edge — IOMs tick after the fabric in the static domain's
/// dispatch order, exactly like the dense loop.
///
/// Without waveform tracing the fabric then reports its own event
/// horizon: the next static cycle at which it can interact with a
/// component ([`StreamFabric::next_wake_cycle`]). The executor turns
/// that into an `IdleUntil` timer, so steady streaming stretches cost
/// one dispatch per delivery instead of one per cycle. With tracing the
/// fabric stays `Active` while anything is in flight, preserving the
/// per-edge VCD sampling cadence.
fn tick_fabric(
    fabric: &mut StreamFabric,
    comp_of_node: &[Option<ComponentId>],
    wake: &mut dyn FnMut(ComponentId),
    edge: Edge,
    static_period_ps: u64,
    tracing: bool,
) -> Activity {
    fabric.advance_to(edge.cycle);
    for &p in fabric.last_deliveries() {
        if let Some(c) = comp_of_node[p.node] {
            wake(c);
        }
    }
    for &p in fabric.last_drains() {
        if let Some(c) = comp_of_node[p.node] {
            wake(c);
        }
    }
    if tracing {
        return if fabric.is_quiescent() {
            Activity::Quiescent
        } else {
            Activity::Active
        };
    }
    match fabric.next_wake_cycle() {
        None => Activity::Quiescent,
        Some(w) if w <= edge.cycle + 1 => Activity::Active,
        Some(w) => Activity::IdleUntil(Ps::new(w * static_period_ps)),
    }
}

/// Re-arms the fabric component after a tick mutated fabric-visible
/// state (generation changed): an immediate wake if its horizon is the
/// next cycle, a timer otherwise. `scycle` is the static cycle the
/// fabric is materialized to.
fn rearm_fabric(
    fabric: &StreamFabric,
    scycle: u64,
    static_period_ps: u64,
    wake: &mut dyn FnMut(WakeReq),
    comp_fabric: ComponentId,
) {
    match fabric.next_wake_cycle() {
        None => {}
        Some(w) if w <= scycle + 1 => wake(WakeReq::Now(comp_fabric)),
        Some(w) => wake(WakeReq::At(comp_fabric, Ps::new(w * static_period_ps))),
    }
}

/// One IOM tick: pins → producer interface at the sample interval,
/// consumer interface → pins with EOS detection. Reports how long the
/// IOM can provably sleep.
#[allow(clippy::too_many_arguments)]
fn tick_iom(
    ioms: &mut [IomState],
    fabric: &mut StreamFabric,
    fsl: &mut [FslPair],
    word_trace: &mut Option<WordTrace>,
    idx: usize,
    edge: Edge,
    static_period_ps: u64,
    wake: &mut dyn FnMut(WakeReq),
    comp_fabric: ComponentId,
    event_sched: bool,
) -> Activity {
    // Materialize the fabric to this edge before reading its FIFOs (a
    // no-op when the fabric component already ran this edge — it
    // dispatches first in the static domain).
    fabric.advance_to(edge.cycle);
    let fabric_gen = fabric.generation();
    let node = ioms[idx].node;
    let port = PortRef::new(node, 0);
    // Pins → producer interface (port 0), one word per sample interval.
    let mut inject_blocked = false;
    if edge.cycle >= ioms[idx].next_inject_cycle {
        if let Some(&word) = ioms[idx].ext_in.front() {
            if fabric.producer_space(port).unwrap_or(0) > 0 {
                // Provenance: the accept timestamp is the word's entry
                // into the fabric's producer FIFO (EOS markers are
                // control, not stream data — never tagged).
                let word = match word_trace.as_mut() {
                    Some(tr) if !word.end_of_stream => word.with_tag(tr.on_accept(edge.at)),
                    _ => word,
                };
                fabric
                    .producer_push(port, word)
                    .expect("space just checked");
                ioms[idx].ext_in.pop_front();
                ioms[idx].next_inject_cycle = edge.cycle + ioms[idx].input_interval;
            } else {
                inject_blocked = true;
            }
        }
    }
    // Consumer interface (port 0) → pins, with EOS detection.
    if let Ok(Some(word)) = fabric.consumer_pop(port) {
        if let (Some(tr), Some(tag)) = (word_trace.as_mut(), word.tag()) {
            tr.on_emit(tag, edge.at);
        }
        let iom = &mut ioms[idx];
        iom.ext_out.push((edge.at, word));
        if word.end_of_stream {
            iom.eos_seen += 1;
            // Step 8: tell the MicroBlaze the old module's stream ended.
            let _ = fsl[node].to_mb.push(Word::data(control::MSG_EOS_SEEN));
        } else {
            iom.gap.record(edge.at);
        }
    }
    // Pushing or popping changed fabric-visible state: re-arm the fabric
    // at its new event horizon (or, without horizon scheduling, just
    // keep it ticking while any route is active).
    if event_sched {
        if fabric.generation() != fabric_gen {
            rearm_fabric(fabric, edge.cycle, static_period_ps, wake, comp_fabric);
        }
    } else if fabric.active_route_count() > 0 {
        wake(WakeReq::Now(comp_fabric));
    }

    let iom = &ioms[idx];
    if fabric.consumer_len(port).unwrap_or(0) > 0 {
        return Activity::Active; // more output words to emit, one per cycle
    }
    if iom.ext_in.is_empty() {
        return Activity::Quiescent; // woken by fabric delivery
    }
    if inject_blocked {
        // Producer FIFO full: only a fabric drain can unblock us, and the
        // drain wake covers exactly that.
        return Activity::Quiescent;
    }
    if iom.next_inject_cycle <= edge.cycle + 1 {
        Activity::Active
    } else {
        // Waiting out the sample interval: every tick before the inject
        // cycle is a no-op by construction.
        Activity::IdleUntil(Ps::new(
            edge.at.as_ps() + (iom.next_inject_cycle - edge.cycle) * static_period_ps,
        ))
    }
}

/// One PRR tick: reset, or one module cycle through its port view.
/// Quiescent only when the module itself claims it, with no waiting
/// consumer-FIFO words and no pending FSL commands.
#[allow(clippy::too_many_arguments)]
fn tick_prr(
    prrs: &mut [PrrState],
    sockets: &[PrSocket],
    fsl: &mut [FslPair],
    fabric: &mut StreamFabric,
    isolated_writes: &mut u64,
    ki: usize,
    idx: usize,
    edge: Edge,
    static_period_ps: u64,
    wake: &mut dyn FnMut(WakeReq),
    comp_fabric: ComponentId,
    event_sched: bool,
) -> Activity {
    // PRRs run in their own clock domain: map the edge time onto the
    // static grid (static cycle k lands at exactly k·period) and
    // materialize the fabric before the module reads or writes port
    // FIFOs. Static edges at the same instant dispatch first, so this
    // floor is never ahead of the fabric's own dispatch.
    let scycle = edge.at.as_ps() / static_period_ps;
    fabric.advance_to(scycle);
    let fabric_gen = fabric.generation();
    let node = prrs[idx].node;
    let socket = sockets[node];
    let Some(mut module) = prrs[idx].module.take() else {
        return Activity::Quiescent; // empty PRR; a module install revalidates
    };
    if socket.dcr.prr_reset {
        // Reset is level-sensitive: assert it every cycle, like hardware.
        module.reset();
        prrs[idx].module = Some(module);
        return Activity::Active;
    }
    let pair = &mut fsl[node];
    let mut io = ModuleIo {
        node,
        sm_enabled: socket.dcr.sm_en,
        fabric,
        fsl_to_mb: &mut pair.to_mb,
        fsl_from_mb: &mut pair.from_mb,
        isolated_writes,
    };
    module.tick(&mut io);
    let mut quiescent = module.is_quiescent() && fsl[node].from_mb.is_empty();
    if quiescent {
        for p in 0..ki {
            if fabric.consumer_len(PortRef::new(node, p)).unwrap_or(0) > 0 {
                quiescent = false;
                break;
            }
        }
    }
    prrs[idx].module = Some(module);
    if event_sched {
        if fabric.generation() != fabric_gen {
            rearm_fabric(fabric, scycle, static_period_ps, wake, comp_fabric);
        }
    } else if fabric.active_route_count() > 0 {
        wake(WakeReq::Now(comp_fabric));
    }
    if quiescent {
        Activity::Quiescent
    } else {
        Activity::Active
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use vapres_sim::time::Freq;

    fn sys() -> VapresSystem {
        VapresSystem::new(SystemConfig::prototype(), ModuleLibrary::new()).unwrap()
    }

    #[test]
    fn construction_and_time() {
        let mut s = sys();
        assert_eq!(s.now(), Ps::ZERO);
        s.run_for(Ps::from_us(1));
        assert_eq!(s.now(), Ps::from_us(1));
        // Quiescent interval: time and cycle counters advance (100 cycles
        // at 100 MHz) even though no component needed ticking.
        assert_eq!(s.clocks.cycles(s.static_domain), 100);
    }

    #[test]
    fn prr_clocks_start_gated() {
        let s = sys();
        for p in &s.prrs {
            assert!(!s.clocks.is_enabled(p.domain));
        }
    }

    #[test]
    fn iom_feed_and_pending() {
        let mut s = sys();
        s.iom_feed(0, 0..10);
        assert_eq!(s.iom_pending_input(0), 10);
        assert!(s.iom_output(0).is_empty());
    }

    #[test]
    fn iom_moves_input_into_producer_fifo() {
        let mut s = sys();
        s.iom_feed(0, 0..5);
        s.run_for(Ps::from_ns(100)); // 10 static cycles
        assert_eq!(s.iom_pending_input(0), 0);
        let port = vapres_stream::fabric::PortRef::new(0, 0);
        assert_eq!(s.fabric.producer_len(port).unwrap(), 5);
    }

    #[test]
    fn run_until_predicate() {
        let mut s = sys();
        s.iom_feed(0, 0..3);
        let fired = s.run_until(Ps::from_us(1), |s| s.iom_pending_input(0) == 0);
        assert!(fired);
        assert!(s.now() < Ps::from_us(1));
        // A predicate that never fires runs to the deadline.
        let fired = s.run_until(Ps::from_us(1), |_| false);
        assert!(!fired);
    }

    #[test]
    fn loopback_via_fabric_channel() {
        // IOM producer -> IOM consumer loopback across the whole array and
        // back is impossible with one port; route node0 -> node0 directly.
        let mut s = sys();
        let p = vapres_stream::fabric::PortRef::new(0, 0);
        s.fabric.establish_channel(p, p).unwrap();
        s.fabric.set_fifo_ren(p, true).unwrap();
        s.fabric.set_fifo_wen(p, true).unwrap();
        s.iom_feed(0, [7, 8, 9]);
        s.run_for(Ps::from_us(1));
        let out: Vec<u32> = s.iom_output(0).iter().map(|(_, w)| w.data).collect();
        assert_eq!(out, vec![7, 8, 9]);
        // Gap tracker saw 3 arrivals.
        assert_eq!(s.iom_gap(0).count(), 3);
    }

    #[test]
    fn eos_triggers_fsl_message() {
        let mut s = sys();
        let p = vapres_stream::fabric::PortRef::new(0, 0);
        s.fabric.establish_channel(p, p).unwrap();
        s.fabric.set_fifo_ren(p, true).unwrap();
        s.fabric.set_fifo_wen(p, true).unwrap();
        s.iom_feed_words(0, [Word::data(1), Word::end_of_stream()]);
        s.run_for(Ps::from_us(1));
        assert_eq!(s.iom_eos_seen(0), 1);
        // MSG_EOS_SEEN waits on node 0's FSL.
        let msg = s.fsl[0].to_mb.pop().unwrap();
        assert_eq!(msg.data, control::MSG_EOS_SEEN);
    }

    #[test]
    fn prototype_prr_clock_menu() {
        let s = sys();
        assert_eq!(s.prrs[0].bufgmux.output(), Freq::mhz(100));
        assert_eq!(s.prrs[0].bufgmux.inputs()[1], Freq::mhz(25));
    }
}
