//! # vapres-core
//!
//! The VAPRES virtual architecture for partially reconfigurable embedded
//! systems (Jara-Berrocal & Gordon-Ross, DATE 2010), reproduced as a
//! cycle-level simulation.
//!
//! A [`system::VapresSystem`] is a complete base system: a MicroBlaze
//! controlling region (modelled as the caller executing the Table-2 API
//! with cycle costs), a data processing region of PRRs and IOMs joined by
//! the `vapres-stream` switch-box fabric, PRSockets ([`socket::Dcr`],
//! bit-exact to the paper's Table 1), per-PRR local clock domains, an
//! ICAP with real partial bitstreams, and CompactFlash/SDRAM bitstream
//! storage.
//!
//! * [`config`] — system specification (the base system flow's inputs);
//! * [`socket`] — PRSocket device control registers;
//! * [`module`] — the [`module::HardwareModule`] trait, per-tick port
//!   view, FSL control words, and the module library;
//! * [`system`] — the simulated system and its run loop;
//! * [`api`] — the Table-2 API (`vapres_cf2icap`,
//!   `vapres_establish_channel`, …) with software cycle costs;
//! * [`switching`] — the nine-step seamless module swap (Fig. 5) and the
//!   halt-and-swap baseline;
//! * [`scenario`] — design-space sweep: scenario grids, deterministic
//!   per-scenario seeding, and the multi-threaded batch engine;
//! * [`health`] — watchdog policy: declarative budgets over swap
//!   deadlines, FIFO occupancy, and stream-interruption SLOs, folded
//!   into a structured health report;
//! * [`costs`] — MicroBlaze cycle costs of control operations.
//!
//! # Examples
//!
//! Load a module from CompactFlash and reproduce the paper's
//! reconfiguration timing (see [`api`] for the full API):
//!
//! ```
//! use vapres_core::config::SystemConfig;
//! use vapres_core::module::ModuleLibrary;
//! use vapres_core::system::VapresSystem;
//!
//! let sys = VapresSystem::new(SystemConfig::prototype(), ModuleLibrary::new())?;
//! assert_eq!(sys.config().prr_count(), 2);
//! # Ok::<(), vapres_core::config::ConfigError>(())
//! ```

pub mod adaptive;
pub mod api;
pub mod config;
pub mod costs;
pub mod fleet;
pub mod health;
pub mod module;
pub mod multirsb;
pub mod placement;
pub mod scenario;
pub mod socket;
pub mod switching;
pub mod system;

pub use adaptive::{AdaptiveController, HysteresisPolicy, SwapPolicy};
pub use api::{ApiError, ReconfigReport};
pub use config::{NodeKind, SystemConfig};
pub use health::{evaluate_health, HealthPolicy};
pub use module::{HardwareModule, ModuleIo, ModuleLibrary};
pub use multirsb::{MultiRsbConfigError, MultiRsbSystem};
pub use placement::{PlacementManager, PlacementStats};
pub use scenario::{
    merge_telemetry, run_sweep_with, Scenario, ScenarioResult, ScenarioSummary, SwapMethod,
    SwapOutcome, SweepGrid,
};
pub use socket::{Dcr, PrSocket};
pub use switching::{halt_and_swap, seamless_swap, BitstreamSource, SwapReport, SwapSpec};
pub use system::{LiveSnapshot, VapresSystem};

// Re-export the identifiers applications constantly need.
pub use vapres_bitstream::stream::ModuleUid;
pub use vapres_sim::profile::{CostModel, CostRow, Profiler};
pub use vapres_sim::rng::SplitMix64;
pub use vapres_sim::telemetry::Telemetry;
pub use vapres_sim::time::{Freq, Ps};
pub use vapres_sim::timeseries::TimeSeries;
pub use vapres_stream::fabric::{ChannelId, PortRef};
pub use vapres_stream::word::Word;
