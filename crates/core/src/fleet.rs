//! Compatibility names for fleet checkpoints.
//!
//! The fleet has one engine, [`MultiRsbSystem`]: the paper's data
//! processing region (Sec. III.B) holds its RSBs behind a single
//! MicroBlaze and a single ICAP, so every software event serializes the
//! whole fleet. The names below are ignored; kept for the frozen
//! benchmark harness.

use crate::config::SystemConfig;
use crate::module::ModuleLibrary;
use crate::multirsb::MultiRsbSystem;
use std::sync::Arc;
use vapres_sim::persist::PersistError;

/// A shareable module-library registration function.
pub type SharedRegister = Arc<dyn Fn(&mut ModuleLibrary)>;

/// Restores fleets as [`MultiRsbSystem`]s.
#[derive(Debug)]
pub struct FleetSystem;

impl FleetSystem {
    /// [`MultiRsbSystem::restore`]; `_plan` is ignored; kept for the
    /// frozen benchmark harness.
    ///
    /// # Errors
    ///
    /// As [`MultiRsbSystem::restore`].
    pub fn restore(
        configs: Vec<SystemConfig>,
        register: SharedRegister,
        _plan: (),
        bytes: &[u8],
    ) -> Result<MultiRsbSystem, PersistError> {
        MultiRsbSystem::restore(configs, |lib| register(lib), bytes)
    }
}
