//! Runtime adaptation: the control loop behind Fig. 5's step 2.
//!
//! "While filter A processes data, filter A periodically sends monitoring
//! information about input data characteristics through r1 to the
//! Microblaze processor. The Microblaze evaluates this monitoring
//! information to determine if filter B would better meet the design
//! constraints." This module is that evaluation loop, packaged: a
//! [`SwapPolicy`] decides from monitor words which module *should* be
//! running, and the [`AdaptiveController`] executes the seamless swap and
//! keeps track of where the active module lives as PRRs alternate roles.

use crate::api::ApiError;
use crate::switching::{seamless_swap, BitstreamSource, SwapError, SwapReport, SwapSpec};
use crate::system::VapresSystem;
use std::collections::BTreeMap;
use vapres_bitstream::stream::ModuleUid;
use vapres_sim::time::Ps;
use vapres_stream::fabric::ChannelId;

/// Decides, from a stream of monitor words, which module should run.
pub trait SwapPolicy {
    /// Consumes one monitor word; returns the module that should be
    /// active now.
    fn observe(&mut self, monitor_word: u32) -> ModuleUid;
}

/// A two-level policy with hysteresis: run `high` while the monitored
/// value stays above `upper`, `low` while below `lower`.
///
/// # Examples
///
/// ```
/// use vapres_core::adaptive::{HysteresisPolicy, SwapPolicy};
/// use vapres_core::ModuleUid;
///
/// let mut p = HysteresisPolicy::new(ModuleUid(1), ModuleUid(2), 100, 200);
/// assert_eq!(p.observe(50), ModuleUid(1));
/// assert_eq!(p.observe(150), ModuleUid(1)); // inside the band: hold
/// assert_eq!(p.observe(250), ModuleUid(2));
/// assert_eq!(p.observe(150), ModuleUid(2)); // hold again
/// assert_eq!(p.observe(50), ModuleUid(1));
/// ```
#[derive(Debug, Clone)]
pub struct HysteresisPolicy {
    low: ModuleUid,
    high: ModuleUid,
    lower: u32,
    upper: u32,
    current: ModuleUid,
}

impl HysteresisPolicy {
    /// Creates a policy starting in the `low` module.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper`.
    pub fn new(low: ModuleUid, high: ModuleUid, lower: u32, upper: u32) -> Self {
        assert!(lower <= upper, "hysteresis band inverted");
        HysteresisPolicy {
            low,
            high,
            lower,
            upper,
            current: low,
        }
    }
}

impl SwapPolicy for HysteresisPolicy {
    fn observe(&mut self, monitor_word: u32) -> ModuleUid {
        if monitor_word > self.upper {
            self.current = self.high;
        } else if monitor_word < self.lower {
            self.current = self.low;
        }
        self.current
    }
}

/// An adaptation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdaptError {
    /// Underlying API failure.
    Api(ApiError),
    /// Swap failure.
    Swap(SwapError),
    /// The policy requested a module with no registered bitstream source.
    NoBitstream(ModuleUid),
}

impl std::fmt::Display for AdaptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptError::Api(e) => write!(f, "api: {e}"),
            AdaptError::Swap(e) => write!(f, "swap: {e}"),
            AdaptError::NoBitstream(uid) => write!(f, "no bitstream source for {uid}"),
        }
    }
}

impl std::error::Error for AdaptError {}

impl From<ApiError> for AdaptError {
    fn from(e: ApiError) -> Self {
        AdaptError::Api(e)
    }
}
impl From<SwapError> for AdaptError {
    fn from(e: SwapError) -> Self {
        AdaptError::Swap(e)
    }
}

/// Runs the paper's monitor-evaluate-swap loop over one active/spare PRR
/// pair.
#[derive(Debug)]
pub struct AdaptiveController {
    active_node: usize,
    spare_node: usize,
    upstream: ChannelId,
    downstream: ChannelId,
    current: ModuleUid,
    /// Bitstream source per (module UID, hosting PRR node): each module
    /// needs one bitstream per PRR it may land in.
    sources: BTreeMap<(u32, usize), BitstreamSource>,
    swap_timeout: Ps,
    swaps: Vec<SwapReport>,
}

impl AdaptiveController {
    /// Creates a controller for a running stream: `current` is loaded in
    /// `active_node`, streaming via `upstream`/`downstream`, with
    /// `spare_node` isolated and ready.
    pub fn new(
        active_node: usize,
        spare_node: usize,
        upstream: ChannelId,
        downstream: ChannelId,
        current: ModuleUid,
        swap_timeout: Ps,
    ) -> Self {
        AdaptiveController {
            active_node,
            spare_node,
            upstream,
            downstream,
            current,
            sources: BTreeMap::new(),
            swap_timeout,
            swaps: Vec::new(),
        }
    }

    /// Registers where the bitstream loading `uid` into the PRR at `node`
    /// lives. Because the active/spare roles alternate, adaptive
    /// applications stage one bitstream per (module, PRR) pair — exactly
    /// what the EAPR flow produces.
    pub fn register_source(&mut self, uid: ModuleUid, node: usize, source: BitstreamSource) {
        self.sources.insert((uid.0, node), source);
    }

    /// The module the controller believes is active.
    pub fn current(&self) -> ModuleUid {
        self.current
    }

    /// The node currently hosting the active module.
    pub fn active_node(&self) -> usize {
        self.active_node
    }

    /// Completed swaps so far.
    pub fn swaps(&self) -> &[SwapReport] {
        &self.swaps
    }

    /// Drains the active module's monitor words, feeds them to `policy`,
    /// and executes a seamless swap if the policy's answer differs from
    /// the running module. Returns the swap report if one happened.
    ///
    /// # Errors
    ///
    /// See [`AdaptError`].
    pub fn poll(
        &mut self,
        sys: &mut VapresSystem,
        policy: &mut dyn SwapPolicy,
    ) -> Result<Option<SwapReport>, AdaptError> {
        let mut want = self.current;
        while let Some(m) = sys.vapres_module_read(self.active_node)? {
            want = policy.observe(m);
        }
        if want == self.current {
            return Ok(None);
        }
        let source = self
            .sources
            .get(&(want.0, self.spare_node))
            .cloned()
            .ok_or(AdaptError::NoBitstream(want))?;

        let spec = SwapSpec {
            active_node: self.active_node,
            spare_node: self.spare_node,
            source,
            upstream: self.upstream,
            downstream: self.downstream,
            clk_sel: false,
            timeout: self.swap_timeout,
        };
        let report = seamless_swap(sys, &spec)?;

        // Roles alternate; follow the channels the swap established.
        std::mem::swap(&mut self.active_node, &mut self.spare_node);
        self.current = want;
        self.upstream = report.upstream;
        self.downstream = report.downstream;
        self.swaps.push(report.clone());
        Ok(Some(report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hysteresis_band_holds() {
        let mut p = HysteresisPolicy::new(ModuleUid(1), ModuleUid(2), 10, 20);
        assert_eq!(p.observe(15), ModuleUid(1)); // starts low, holds
        assert_eq!(p.observe(21), ModuleUid(2));
        assert_eq!(p.observe(20), ModuleUid(2)); // boundary holds
        assert_eq!(p.observe(10), ModuleUid(2)); // boundary holds
        assert_eq!(p.observe(9), ModuleUid(1));
    }

    #[test]
    #[should_panic(expected = "band inverted")]
    fn hysteresis_rejects_inverted_band() {
        let _ = HysteresisPolicy::new(ModuleUid(1), ModuleUid(2), 30, 20);
    }
}
