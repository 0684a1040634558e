//! Multiple reconfigurable streaming blocks (paper Sec. III.B: "the data
//! processing region contains one or more RSBs").
//!
//! Each RSB has its own switch-box array and local clock domains, but the
//! controlling region — MicroBlaze, ICAP, bitstream storage — is shared:
//! only one reconfiguration can be in flight at a time, and while the
//! processor is busy with one RSB, the *other* RSBs' data planes keep
//! streaming. [`MultiRsbSystem`] composes per-RSB [`VapresSystem`]s in
//! lockstep simulated time to reproduce exactly that: any API call made
//! on one RSB advances every RSB by the same duration.

use crate::config::{ConfigError, SystemConfig};
use crate::module::ModuleLibrary;
use crate::system::VapresSystem;
use std::fmt;
use vapres_sim::persist::{PersistError, Reader, Writer};
use vapres_sim::time::Ps;

/// Magic prefix of a fleet (multi-RSB) checkpoint envelope. The per-RSB
/// images inside carry the usual [`vapres_sim::persist::MAGIC`] headers.
pub const FLEET_MAGIC: [u8; 8] = *b"VAPRESFL";

/// Version of the fleet envelope (bumped independently of the per-RSB
/// [`vapres_sim::persist::FORMAT_VERSION`], which the inner images check
/// themselves).
pub const FLEET_FORMAT_VERSION: u32 = 1;

/// A configuration error from building a fleet, carrying which RSB's
/// configuration was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiRsbConfigError {
    /// Index of the RSB whose configuration failed.
    pub rsb: usize,
    /// The underlying configuration error.
    pub source: ConfigError,
}

impl fmt::Display for MultiRsbConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RSB {}: {}", self.rsb, self.source)
    }
}

impl std::error::Error for MultiRsbConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// A data processing region with several RSBs sharing one controlling
/// region.
///
/// # Examples
///
/// ```
/// use vapres_core::config::SystemConfig;
/// use vapres_core::multirsb::MultiRsbSystem;
/// use vapres_core::Ps;
///
/// let mut multi = MultiRsbSystem::new(
///     vec![SystemConfig::prototype(), SystemConfig::linear(3)?],
///     |_lib| {},
/// )?;
/// assert_eq!(multi.rsb_count(), 2);
/// multi.run_for(Ps::from_us(5));
/// assert_eq!(multi.now(), Ps::from_us(5));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct MultiRsbSystem {
    rsbs: Vec<VapresSystem>,
}

impl fmt::Debug for MultiRsbSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiRsbSystem")
            .field("rsbs", &self.rsbs.len())
            .field("now", &self.now())
            .finish()
    }
}

impl MultiRsbSystem {
    /// Builds one system per configuration; `register` populates each
    /// RSB's module library (factories cannot be cloned, so registration
    /// runs once per RSB).
    ///
    /// # Errors
    ///
    /// [`MultiRsbConfigError`] naming the first RSB whose configuration
    /// was rejected, with the underlying [`ConfigError`] as the source.
    pub fn new(
        configs: Vec<SystemConfig>,
        register: impl Fn(&mut ModuleLibrary),
    ) -> Result<Self, MultiRsbConfigError> {
        let mut rsbs = Vec::with_capacity(configs.len());
        for (rsb, cfg) in configs.into_iter().enumerate() {
            let mut lib = ModuleLibrary::new();
            register(&mut lib);
            rsbs.push(
                VapresSystem::new(cfg, lib)
                    .map_err(|source| MultiRsbConfigError { rsb, source })?,
            );
        }
        Ok(MultiRsbSystem { rsbs })
    }

    /// Number of RSBs.
    pub fn rsb_count(&self) -> usize {
        self.rsbs.len()
    }

    /// Read access to one RSB.
    ///
    /// # Panics
    ///
    /// Panics if `rsb` is out of range.
    pub fn rsb(&self, rsb: usize) -> &VapresSystem {
        &self.rsbs[rsb]
    }

    /// The common simulated time (all RSBs stay aligned).
    pub fn now(&self) -> Ps {
        self.rsbs
            .iter()
            .map(VapresSystem::now)
            .max()
            .unwrap_or(Ps::ZERO)
    }

    /// Runs every RSB for `dur`.
    pub fn run_for(&mut self, dur: Ps) {
        let deadline = self.now() + dur;
        for s in &mut self.rsbs {
            let delta = deadline
                .checked_sub(s.now())
                .expect("RSBs never run ahead of the coordinator");
            s.run_for(delta);
        }
    }

    /// Executes MicroBlaze software against one RSB — any Table-2 calls,
    /// swaps, deployments — then brings every *other* RSB forward to the
    /// same instant. This is the single-processor, single-ICAP semantics:
    /// while RSB `rsb` reconfigures, the others keep streaming through
    /// the elapsed time.
    ///
    /// # Panics
    ///
    /// Panics if `rsb` is out of range.
    pub fn with_rsb<R>(&mut self, rsb: usize, f: impl FnOnce(&mut VapresSystem) -> R) -> R {
        // Align everyone first (idempotent), then run the software.
        let before = self.now();
        for s in &mut self.rsbs {
            let delta = before.checked_sub(s.now()).expect("aligned");
            s.run_for(delta);
        }
        let result = f(&mut self.rsbs[rsb]);
        let after = self.rsbs[rsb].now();
        for (i, s) in self.rsbs.iter_mut().enumerate() {
            if i != rsb {
                let delta = after.checked_sub(s.now()).expect("target ran forward");
                s.run_for(delta);
            }
        }
        result
    }

    /// Serializes the whole fleet: an envelope header (magic, version,
    /// RSB count) followed by one length-prefixed
    /// [`VapresSystem::checkpoint`] image per RSB, in index order. The
    /// §4h contract lifts to the fleet: restoring the image into
    /// structurally equal configurations continues every RSB bit-exactly.
    pub fn checkpoint(&mut self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_raw(&FLEET_MAGIC);
        w.put_u32(FLEET_FORMAT_VERSION);
        w.put_usize(self.rsbs.len());
        for s in &mut self.rsbs {
            let image = s.checkpoint();
            w.put_bytes(&image);
        }
        w.into_bytes()
    }

    /// Reconstructs a fleet from a [`checkpoint`](Self::checkpoint)
    /// image. `configs` must be structurally equal (same count, same
    /// fingerprints) to the ones the image was taken under; `register`
    /// populates each RSB's module library exactly as in
    /// [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// [`PersistError::BadMagic`] when the bytes are not a fleet
    /// envelope, [`PersistError::VersionMismatch`] on an envelope version
    /// skew, [`PersistError::Corrupt`] when the RSB count disagrees with
    /// `configs`, plus anything [`VapresSystem::restore`] reports for an
    /// inner image.
    pub fn restore(
        configs: Vec<SystemConfig>,
        register: impl Fn(&mut ModuleLibrary),
        bytes: &[u8],
    ) -> Result<Self, PersistError> {
        let r = &mut Reader::new(bytes);
        if r.take_raw(8)? != FLEET_MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = r.take_u32()?;
        if version != FLEET_FORMAT_VERSION {
            return Err(PersistError::VersionMismatch {
                found: version,
                expected: FLEET_FORMAT_VERSION,
            });
        }
        let count = r.take_usize()?;
        if count != configs.len() {
            return Err(PersistError::Corrupt(format!(
                "fleet snapshot has {count} RSBs, {} configurations supplied",
                configs.len()
            )));
        }
        let mut rsbs = Vec::with_capacity(count);
        for cfg in configs {
            let image = r.take_bytes()?;
            let mut lib = ModuleLibrary::new();
            register(&mut lib);
            rsbs.push(VapresSystem::restore(cfg, lib, &image)?);
        }
        r.expect_end()?;
        Ok(MultiRsbSystem { rsbs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vapres_core_test_support::*;

    /// Minimal in-crate support: a trivial wire module for the tests.
    mod vapres_core_test_support {
        use crate::module::{HardwareModule, ModuleIo, ModuleLibrary};
        use vapres_bitstream::stream::ModuleUid;

        pub const WIRE: ModuleUid = ModuleUid(0x77);

        pub struct Wire;
        impl HardwareModule for Wire {
            fn name(&self) -> &str {
                "wire"
            }
            fn uid(&self) -> ModuleUid {
                WIRE
            }
            fn required_slices(&self) -> u32 {
                8
            }
            fn tick(&mut self, io: &mut ModuleIo<'_>) {
                if io.output_space(0) > 0 {
                    if let Some(w) = io.read_input(0) {
                        io.write_output(0, w);
                    }
                }
            }
            fn save_state(&self) -> Vec<u32> {
                Vec::new()
            }
            fn restore_state(&mut self, _s: &[u32]) {}
            fn reset(&mut self) {}
        }

        pub fn register(lib: &mut ModuleLibrary) {
            lib.register(WIRE, || Box::new(Wire));
        }
    }

    fn multi() -> MultiRsbSystem {
        MultiRsbSystem::new(
            vec![SystemConfig::prototype(), SystemConfig::prototype()],
            register,
        )
        .expect("valid configs")
    }

    #[test]
    fn lockstep_time() {
        let mut m = multi();
        m.run_for(Ps::from_us(3));
        assert_eq!(m.rsb(0).now(), Ps::from_us(3));
        assert_eq!(m.rsb(1).now(), Ps::from_us(3));
        assert_eq!(m.now(), Ps::from_us(3));
    }

    #[test]
    fn with_rsb_advances_the_others() {
        let mut m = multi();
        m.with_rsb(0, |s| s.run_for(Ps::from_us(7)));
        assert_eq!(m.rsb(1).now(), Ps::from_us(7));
    }

    #[test]
    fn new_reports_failing_rsb_index() {
        let mut bad = SystemConfig::prototype();
        bad.fsl_depth = 1;
        let err = MultiRsbSystem::new(vec![SystemConfig::prototype(), bad], register)
            .expect_err("fsl_depth 1 must be rejected");
        assert_eq!(err.rsb, 1);
        let msg = err.to_string();
        assert!(msg.starts_with("RSB 1: "), "unexpected message: {msg}");
        use std::error::Error;
        assert!(err.source().is_some(), "source ConfigError must survive");
    }

    #[test]
    fn with_rsb_aligns_mismatched_clocks() {
        use vapres_sim::time::Freq;
        let mut slow = SystemConfig::prototype();
        slow.static_clock = Freq::mhz(33);
        slow.prr_clock_menu = [Freq::mhz(33), Freq::mhz(11)];
        let mut m = MultiRsbSystem::new(vec![SystemConfig::prototype(), slow], register)
            .expect("valid configs");
        // An odd, non-cycle-multiple duration on the fast RSB: the slow
        // RSB must still land on exactly the same picosecond.
        m.with_rsb(0, |s| s.run_for(Ps(1_234_567)));
        assert_eq!(m.rsb(0).now(), m.rsb(1).now());
        m.with_rsb(1, |s| s.run_for(Ps(777_777)));
        assert_eq!(m.rsb(0).now(), m.rsb(1).now());
        assert_eq!(m.now(), Ps(1_234_567 + 777_777));
    }

    #[test]
    fn fleet_checkpoint_roundtrips() {
        let mut m = multi();
        m.with_rsb(1, |s| {
            let p = crate::PortRef::new(0, 0);
            s.vapres_establish_channel(p, p).expect("loopback");
            s.bring_up_node(0, false).expect("iom up");
            s.iom_set_input_interval(0, 50);
            s.iom_feed(0, 0..64);
        });
        m.run_for(Ps::from_us(40));
        let image = m.checkpoint();
        let mut r = MultiRsbSystem::restore(
            vec![SystemConfig::prototype(), SystemConfig::prototype()],
            register,
            &image,
        )
        .expect("restore");
        assert_eq!(r.now(), m.now());
        m.run_for(Ps::from_us(10));
        r.run_for(Ps::from_us(10));
        assert_eq!(r.rsb(1).iom_output(0), m.rsb(1).iom_output(0));
    }

    #[test]
    fn fleet_restore_rejects_count_mismatch() {
        let mut m = multi();
        let image = m.checkpoint();
        let err = MultiRsbSystem::restore(vec![SystemConfig::prototype()], register, &image)
            .expect_err("2-RSB image into 1 config must fail");
        assert!(matches!(err, PersistError::Corrupt(_)), "{err:?}");
        let err = MultiRsbSystem::restore(
            vec![SystemConfig::prototype(), SystemConfig::prototype()],
            register,
            b"not a fleet snapshot",
        )
        .expect_err("garbage must fail");
        assert!(matches!(err, PersistError::BadMagic), "{err:?}");
    }

    /// The envelope framing under corruption: every cut through the
    /// header or a length prefix, an inflated RSB count and inflated
    /// length prefixes all return `Err`. A decoder that allocated by a
    /// claimed length would abort on the 2^40 and `u64::MAX` claims.
    #[test]
    fn fleet_restore_rejects_corrupt_framing() {
        let image = multi().checkpoint();
        let restore = |bytes: &[u8]| {
            let configs = vec![SystemConfig::prototype(), SystemConfig::prototype()];
            MultiRsbSystem::restore(configs, register, bytes)
        };
        let u64_at = |bytes: &[u8], at: usize| {
            u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
        };
        restore(&image).expect("intact envelope restores");

        // Magic (8) + version (4) + RSB count (8), then one 8-byte length
        // prefix ahead of each RSB's image.
        let mut prefixes = Vec::new();
        let mut at = 20;
        while at < image.len() {
            prefixes.push(at);
            at += 8 + u64_at(&image, at) as usize;
        }
        assert_eq!((prefixes.len(), at), (2, image.len()));

        let mut cuts: Vec<usize> = (0..20).collect();
        for &p in &prefixes {
            cuts.extend(p..=p + 8);
        }
        for cut in cuts {
            assert!(restore(&image[..cut]).is_err(), "cut at {cut}");
        }
        for count in [3, 1 << 40, u64::MAX] {
            let mut bad = image.clone();
            bad[12..20].copy_from_slice(&count.to_le_bytes());
            let err = restore(&bad).expect_err("inflated count");
            assert!(matches!(err, PersistError::Corrupt(_)), "{count}: {err:?}");
        }
        for &p in &prefixes {
            for claim in [u64_at(&image, p) + 1, 1 << 40, u64::MAX] {
                let mut bad = image.clone();
                bad[p..p + 8].copy_from_slice(&claim.to_le_bytes());
                assert!(restore(&bad).is_err(), "prefix at {p} claims {claim}");
            }
        }
    }

    #[test]
    fn reconfig_on_one_rsb_does_not_stall_the_other() {
        let mut m = multi();
        // Stage the bitstream in SDRAM while everything is idle (the slow
        // CompactFlash read happens before RSB1 starts streaming).
        m.with_rsb(0, |s| {
            s.install_bitstream(0, WIRE, "w.bit").expect("install");
            s.vapres_cf2array("w.bit", "w").expect("stage");
        });
        // RSB1: a streaming loopback at its IOM, one word per microsecond.
        m.with_rsb(1, |s| {
            let p = crate::PortRef::new(0, 0);
            s.vapres_establish_channel(p, p).expect("loopback");
            s.bring_up_node(0, false).expect("iom up");
            s.iom_set_input_interval(0, 100);
            s.iom_feed(0, 0..200_000);
        });
        // RSB0: reconfigure from SDRAM (71.9 ms) — the shared processor
        // and ICAP are busy, but RSB1's data plane must keep moving.
        m.with_rsb(0, |s| {
            s.vapres_array2icap("w").expect("reconfig");
        });
        // RSB1 streamed through the whole reconfiguration: ~72 ms / 1 us.
        let out = m.rsb(1).iom_output(0).len();
        assert!(out > 60_000, "RSB1 only moved {out} words during reconfig");
        let gap = m.rsb(1).iom_gap(0).max_gap().expect("flowed");
        assert!(gap < Ps::from_us(2), "RSB1 stream hiccuped: {gap}");
    }
}
