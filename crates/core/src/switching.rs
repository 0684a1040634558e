//! The hardware module switching methodology (paper Sec. III.B.3, Fig. 5).
//!
//! [`seamless_swap`] implements the paper's nine steps: while the old
//! module keeps streaming, the new module's bitstream is loaded into a
//! *spare* PRR; the upstream channel is then re-routed to the spare, the
//! old module drains its buffered words, emits the end-of-stream word,
//! ships its state registers to the MicroBlaze (which initializes the new
//! module with them), and once the IOM reports the end-of-stream word the
//! downstream channel is reconnected to the new module. Stream output
//! never stops for longer than the drain-and-reroute window — microseconds,
//! not the milliseconds a reconfiguration takes.
//!
//! [`halt_and_swap`] is the conventional baseline: stop the stream,
//! reconfigure the same PRR in place, restart. Its output gap is the full
//! reconfiguration time.

use crate::api::{ApiError, ReconfigReport};
use crate::module::control;
use crate::system::VapresSystem;
use std::fmt;
use vapres_sim::flight::FlightEvent;
use vapres_sim::time::Ps;
use vapres_stream::fabric::{ChannelId, PortRef};

/// Where the incoming module's bitstream lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitstreamSource {
    /// A file on the CompactFlash card (`vapres_cf2icap`).
    CompactFlash(String),
    /// A pre-staged SDRAM array (`vapres_array2icap`).
    Sdram(String),
}

/// Everything a swap needs to know.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapSpec {
    /// Node hosting the running (outgoing) module.
    pub active_node: usize,
    /// Node whose PRR receives the incoming module (ignored by
    /// [`halt_and_swap`], which reconfigures `active_node` in place).
    pub spare_node: usize,
    /// Bitstream location for the incoming module.
    pub source: BitstreamSource,
    /// The channel feeding the active module.
    pub upstream: ChannelId,
    /// The channel from the active module toward the sink IOM.
    pub downstream: ChannelId,
    /// `CLK_sel` value for the incoming module's clock.
    pub clk_sel: bool,
    /// Per-step timeout for the FSL handshakes.
    pub timeout: Ps,
}

/// A swap failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwapError {
    /// An underlying API call failed.
    Api(ApiError),
    /// An FSL handshake produced an unexpected word sequence.
    Protocol(String),
    /// A referenced channel does not exist.
    UnknownChannel(ChannelId),
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapError::Api(e) => write!(f, "api: {e}"),
            SwapError::Protocol(m) => write!(f, "protocol violation: {m}"),
            SwapError::UnknownChannel(c) => write!(f, "unknown channel {c}"),
        }
    }
}

impl std::error::Error for SwapError {}

impl From<ApiError> for SwapError {
    fn from(e: ApiError) -> Self {
        SwapError::Api(e)
    }
}

/// What happened during a swap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapReport {
    /// Simulation time when the swap began.
    pub started_at: Ps,
    /// Reconfiguration breakdown for the incoming module.
    pub reconfig: ReconfigReport,
    /// When the upstream channel pointed at the new module.
    pub rerouted_at: Ps,
    /// State words transferred old → new module.
    pub state_words: usize,
    /// When the IOM observed the old module's end-of-stream word.
    pub eos_at: Ps,
    /// When the downstream channel to the new module was live.
    pub completed_at: Ps,
    /// The channel feeding the new module after the swap.
    pub upstream: ChannelId,
    /// The channel from the new module toward the sink after the swap.
    pub downstream: ChannelId,
}

impl SwapReport {
    /// Wall-clock duration of the whole swap.
    pub fn total(&self) -> Ps {
        self.completed_at - self.started_at
    }
}

/// Waits for `MSG_STATE_HEADER`-framed state words from `node`, skipping
/// any interleaved monitoring words.
fn collect_state(sys: &mut VapresSystem, node: usize, timeout: Ps) -> Result<Vec<u32>, SwapError> {
    let deadline = sys.now() + timeout;
    loop {
        let remaining = deadline
            .checked_sub(sys.now())
            .ok_or(SwapError::Api(ApiError::Timeout))?;
        let w = sys.vapres_module_read_blocking(node, remaining)?;
        if w == control::MSG_STATE_HEADER {
            break;
        }
        // Monitoring traffic — ignore.
    }
    let remaining = deadline
        .checked_sub(sys.now())
        .ok_or(SwapError::Api(ApiError::Timeout))?;
    let count = sys.vapres_module_read_blocking(node, remaining)? as usize;
    if count > 4_096 {
        return Err(SwapError::Protocol(format!(
            "implausible state word count {count}"
        )));
    }
    let mut state = Vec::with_capacity(count);
    for _ in 0..count {
        let remaining = deadline
            .checked_sub(sys.now())
            .ok_or(SwapError::Api(ApiError::Timeout))?;
        state.push(sys.vapres_module_read_blocking(node, remaining)?);
    }
    Ok(state)
}

/// Waits until `node`'s FSL delivers `MSG_EOS_SEEN`.
fn await_eos(sys: &mut VapresSystem, node: usize, timeout: Ps) -> Result<(), SwapError> {
    let deadline = sys.now() + timeout;
    loop {
        let remaining = deadline
            .checked_sub(sys.now())
            .ok_or(SwapError::Api(ApiError::Timeout))?;
        let w = sys.vapres_module_read_blocking(node, remaining)?;
        if w == control::MSG_EOS_SEEN {
            return Ok(());
        }
    }
}

/// Pauses a producer node, waits for the channel pipeline to drain, then
/// releases the channel — so no in-flight word is lost to the multiplexer
/// change.
fn drain_and_release(
    sys: &mut VapresSystem,
    channel: ChannelId,
) -> Result<(PortRef, PortRef), SwapError> {
    let info = sys
        .fabric()
        .channel_info(channel)
        .ok_or(SwapError::UnknownChannel(channel))?;
    let producer = info.producer;
    let consumer = info.consumer;
    let depth = info.hops as u64 + 1;

    let mut dcr = sys.dcr(producer.node);
    let ren_was = dcr.fifo_ren;
    dcr.fifo_ren = false;
    sys.write_dcr(producer.node, dcr)?;
    // Let in-flight words land (depth registers + 2 slack cycles).
    let cycle = sys.config().static_clock.period().as_ps();
    sys.run_for(Ps::new((depth + 2) * cycle));
    sys.vapres_release_channel(channel)?;
    // Restore the producer's read enable for its next channel.
    let mut dcr = sys.dcr(producer.node);
    dcr.fifo_ren = ren_was;
    sys.write_dcr(producer.node, dcr)?;
    Ok((producer, consumer))
}

/// Records one telemetry span per swap phase, if telemetry is enabled.
/// Marks must be contiguous so the spans tile the swap interval exactly.
fn record_swap_steps(sys: &mut VapresSystem, name: &'static str, steps: &[(&'static str, Ps, Ps)]) {
    if let Some(t) = sys.telemetry.as_mut() {
        for &(label, start, end) in steps {
            t.record_span(name, label, start, end);
        }
    }
}

/// Marks entry into a swap step: updates the caller's current-step
/// tracker (so a failure knows which step it died in) and drops a
/// breadcrumb into the flight recorder.
fn enter_step(
    sys: &mut VapresSystem,
    method: &'static str,
    step: &mut &'static str,
    label: &'static str,
) {
    *step = label;
    sys.profile_charge_swap_step();
    sys.flight_note(FlightEvent::SwapStep {
        method,
        step: label,
    });
}

/// Runs the paper's nine-step seamless module swap.
///
/// Preconditions: the active module is streaming via `spec.upstream` and
/// `spec.downstream`; the spare PRR is isolated (power-on state); the
/// incoming bitstream targets the spare PRR and its module UID is
/// registered in the system's library.
///
/// # Errors
///
/// Any [`SwapError`]; the system may be left mid-swap on error (as on the
/// real system — recovery policy belongs to the application).
pub fn seamless_swap(sys: &mut VapresSystem, spec: &SwapSpec) -> Result<SwapReport, SwapError> {
    let mut step = "1_resolve_endpoints";
    let res = seamless_swap_inner(sys, spec, &mut step);
    if res.is_err() {
        sys.flight_note(FlightEvent::SwapFailed {
            method: "seamless",
            step,
        });
    }
    res
}

fn seamless_swap_inner(
    sys: &mut VapresSystem,
    spec: &SwapSpec,
    step: &mut &'static str,
) -> Result<SwapReport, SwapError> {
    let started_at = sys.now();
    enter_step(sys, "seamless", step, "1_resolve_endpoints");
    let downstream_info = sys
        .fabric()
        .channel_info(spec.downstream)
        .ok_or(SwapError::UnknownChannel(spec.downstream))?;
    let sink = downstream_info.consumer;
    // Step 1 is pure lookup — no simulated time passes, so its span is
    // legitimately zero-width.
    let m1 = sys.now();

    // Step 3: reconfigure the spare PRR while the active module streams.
    enter_step(sys, "seamless", step, "2_reconfigure_spare");
    let reconfig = match &spec.source {
        BitstreamSource::CompactFlash(f) => sys.vapres_cf2icap(f)?,
        BitstreamSource::Sdram(a) => sys.vapres_array2icap(a)?,
    };
    let m2 = sys.now();

    // Bring the spare's interfaces up but keep its clock gated: data can
    // buffer in its consumer FIFO while the old module finishes.
    enter_step(sys, "seamless", step, "3_bring_up_spare");
    let mut dcr = sys.dcr(spec.spare_node);
    dcr.sm_en = true;
    dcr.fifo_wen = true;
    dcr.fifo_ren = true;
    dcr.clk_sel = spec.clk_sel;
    dcr.clk_en = false;
    sys.write_dcr(spec.spare_node, dcr)?;
    let m3 = sys.now();

    // Step 4: re-route the upstream channel to the spare, losslessly.
    enter_step(sys, "seamless", step, "4_reroute_upstream");
    let (src_producer, _old_consumer) = drain_and_release(sys, spec.upstream)?;
    let upstream = sys.vapres_establish_channel(src_producer, PortRef::new(spec.spare_node, 0))?;
    let rerouted_at = sys.now();

    // Step 5–6: tell the old module to finish; it drains its FIFO, emits
    // the end-of-stream word downstream, and ships its state registers.
    enter_step(sys, "seamless", step, "5_command_finish");
    sys.vapres_module_write(spec.active_node, control::CMD_FINISH)?;
    let m5 = sys.now();
    enter_step(sys, "seamless", step, "6_collect_state");
    let state = collect_state(sys, spec.active_node, spec.timeout)?;
    let m6 = sys.now();

    // Step 7: initialize the new module with the old module's state, then
    // start its clock.
    enter_step(sys, "seamless", step, "7_load_state");
    sys.vapres_module_write(spec.spare_node, control::CMD_LOAD_STATE)?;
    sys.vapres_module_write(spec.spare_node, state.len() as u32)?;
    for w in &state {
        sys.vapres_module_write(spec.spare_node, *w)?;
    }
    sys.vapres_module_clock(spec.spare_node, true)?;
    let m7 = sys.now();

    // Step 8: the IOM reports the end-of-stream word.
    enter_step(sys, "seamless", step, "8_await_eos");
    await_eos(sys, sink.node, spec.timeout)?;
    let eos_at = sys.now();

    // Step 9: connect the new module's producer to the sink.
    enter_step(sys, "seamless", step, "9_reconnect_downstream");
    sys.vapres_release_channel(spec.downstream)?;
    let downstream = sys.vapres_establish_channel(PortRef::new(spec.spare_node, 0), sink)?;
    let completed_at = sys.now();

    // The nine step spans tile [started_at, completed_at] exactly: their
    // durations sum to SwapReport::total() by construction.
    record_swap_steps(
        sys,
        "swap_step",
        &[
            ("1_resolve_endpoints", started_at, m1),
            ("2_reconfigure_spare", m1, m2),
            ("3_bring_up_spare", m2, m3),
            ("4_reroute_upstream", m3, rerouted_at),
            ("5_command_finish", rerouted_at, m5),
            ("6_collect_state", m5, m6),
            ("7_load_state", m6, m7),
            ("8_await_eos", m7, eos_at),
            ("9_reconnect_downstream", eos_at, completed_at),
        ],
    );

    // Decommission the old module's node (after the swap proper — the
    // stream is already live through the new module).
    sys.isolate_node(spec.active_node)?;

    Ok(SwapReport {
        started_at,
        reconfig,
        rerouted_at,
        state_words: state.len(),
        eos_at,
        completed_at,
        upstream,
        downstream,
    })
}

/// The conventional baseline: halt the stream, reconfigure the active PRR
/// in place, restore state, restart. The stream output gap includes the
/// whole reconfiguration.
///
/// `spec.spare_node` is ignored; the bitstream must target
/// `spec.active_node`'s PRR.
///
/// # Errors
///
/// Any [`SwapError`].
pub fn halt_and_swap(sys: &mut VapresSystem, spec: &SwapSpec) -> Result<SwapReport, SwapError> {
    let mut step = "1_resolve_endpoints";
    let res = halt_and_swap_inner(sys, spec, &mut step);
    if res.is_err() {
        sys.flight_note(FlightEvent::SwapFailed {
            method: "halt",
            step,
        });
    }
    res
}

fn halt_and_swap_inner(
    sys: &mut VapresSystem,
    spec: &SwapSpec,
    step: &mut &'static str,
) -> Result<SwapReport, SwapError> {
    let started_at = sys.now();
    enter_step(sys, "halt", step, "1_resolve_endpoints");
    let downstream_info = sys
        .fabric()
        .channel_info(spec.downstream)
        .ok_or(SwapError::UnknownChannel(spec.downstream))?;
    let sink = downstream_info.consumer;
    let m1 = sys.now();

    // Drain the old module: stop upstream flow, let it finish, capture
    // state, wait for EOS to clear the downstream path.
    enter_step(sys, "halt", step, "2_halt_upstream");
    let (src_producer, _) = drain_and_release(sys, spec.upstream)?;
    // Pause the source completely while the PRR is down.
    let mut dcr = sys.dcr(src_producer.node);
    dcr.fifo_ren = false;
    sys.write_dcr(src_producer.node, dcr)?;
    let m2 = sys.now();

    enter_step(sys, "halt", step, "3_collect_state");
    sys.vapres_module_write(spec.active_node, control::CMD_FINISH)?;
    let state = collect_state(sys, spec.active_node, spec.timeout)?;
    let m3 = sys.now();
    await_eos(sys, sink.node, spec.timeout)?;
    let eos_at = sys.now();
    sys.vapres_release_channel(spec.downstream)?;

    // Isolate and reconfigure the same PRR — the stream is fully halted.
    enter_step(sys, "halt", step, "4_drain_and_reconfigure");
    sys.isolate_node(spec.active_node)?;
    let reconfig = match &spec.source {
        BitstreamSource::CompactFlash(f) => sys.vapres_cf2icap(f)?,
        BitstreamSource::Sdram(a) => sys.vapres_array2icap(a)?,
    };
    let m4 = sys.now();

    // Bring the new module up with restored state.
    enter_step(sys, "halt", step, "5_load_state");
    let mut dcr = sys.dcr(spec.active_node);
    dcr.sm_en = true;
    dcr.fifo_wen = true;
    dcr.fifo_ren = true;
    dcr.clk_sel = spec.clk_sel;
    dcr.clk_en = false;
    sys.write_dcr(spec.active_node, dcr)?;
    sys.vapres_module_write(spec.active_node, control::CMD_LOAD_STATE)?;
    sys.vapres_module_write(spec.active_node, state.len() as u32)?;
    for w in &state {
        sys.vapres_module_write(spec.active_node, *w)?;
    }
    sys.vapres_module_clock(spec.active_node, true)?;
    let rerouted_at = sys.now();

    // Re-establish both channels and resume the source.
    enter_step(sys, "halt", step, "6_reconnect");
    let upstream = sys.vapres_establish_channel(src_producer, PortRef::new(spec.active_node, 0))?;
    let downstream = sys.vapres_establish_channel(PortRef::new(spec.active_node, 0), sink)?;
    let mut dcr = sys.dcr(src_producer.node);
    dcr.fifo_ren = true;
    sys.write_dcr(src_producer.node, dcr)?;
    let completed_at = sys.now();

    record_swap_steps(
        sys,
        "halt_step",
        &[
            ("1_resolve_endpoints", started_at, m1),
            ("2_halt_upstream", m1, m2),
            ("3_collect_state", m2, m3),
            ("4_drain_and_reconfigure", m3, m4),
            ("5_load_state", m4, rerouted_at),
            ("6_reconnect", rerouted_at, completed_at),
        ],
    );

    Ok(SwapReport {
        started_at,
        reconfig,
        rerouted_at,
        state_words: state.len(),
        eos_at,
        completed_at,
        upstream,
        downstream,
    })
}
