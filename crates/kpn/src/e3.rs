//! The paper's Fig. 5 arrangement (experiment E3) as one fixture.
//!
//! IOM (node 0) → FIR A in PRR 0 (node 1) → IOM over two loopback
//! channels, with FIR B staged in SDRAM so a swap can hand the live
//! stream over to it. [`deploy`] builds that arrangement on a fresh
//! system; the CLI's E3 commands, the sweep and fleet runners, the E3
//! integration tests and the E3 benches all start from it.
//!
//! Staged images follow one naming scheme: FIR A's boot image is the
//! CompactFlash file [`FIR_A_FILE`], and a staged `(prr, uid)` image is
//! the file `{module}_p{prr}.bit` copied into the SDRAM array
//! `{module}_p{prr}` (e.g. `fir_b_p1`).

use vapres_core::config::SystemConfig;
use vapres_core::module::ModuleLibrary;
use vapres_core::switching::{BitstreamSource, SwapSpec};
use vapres_core::system::VapresSystem;
use vapres_core::{ApiError, ChannelId, ModuleUid, PortRef, Ps};
use vapres_modules::{register_standard_modules, uids};

/// A bitstream image to stage: the PRR it targets and the module.
pub type Image = (usize, ModuleUid);

/// FIR B for the spare PRR 1 — the seamless swap's target.
pub const SEAMLESS: Image = (1, uids::FIR_B);

/// FIR B for PRR 0 — halt-and-swap replaces the active module in place.
pub const HALT: Image = (0, uids::FIR_B);

/// FIR A for PRR 0 — the way back for a swap out of the spare.
pub const FIR_A_HOME: Image = (0, uids::FIR_A);

/// The CompactFlash file FIR A boots from.
pub const FIR_A_FILE: &str = "fir_a.bit";

/// The (upstream, downstream) channel ids [`deploy`] yields on a fresh
/// system: they are the system's first two channels. Resumed runs rebuild
/// their swap specs from these instead of persisting them.
pub const CHANNELS: (ChannelId, ChannelId) = (ChannelId(0), ChannelId(1));

/// The SDRAM array a staged image lives in: `{module}_p{prr}`.
pub fn array_name((prr, uid): Image) -> String {
    match uid {
        uids::FIR_A => format!("fir_a_p{prr}"),
        uids::FIR_B => format!("fir_b_p{prr}"),
        other => format!("uid{:08x}_p{prr}", other.0),
    }
}

/// The CompactFlash file a staged image is copied from: `{array}.bit`.
pub fn file_name(image: Image) -> String {
    format!("{}.bit", array_name(image))
}

/// The standard module library (monitor words off) every E3 system
/// instantiates from.
pub fn library() -> ModuleLibrary {
    let mut lib = ModuleLibrary::new();
    register_standard_modules(&mut lib, 0);
    lib
}

/// A fresh prototype system on [`library`] — the system the arrangement
/// is built on.
pub fn prototype() -> VapresSystem {
    VapresSystem::new(SystemConfig::prototype(), library())
        .expect("the prototype configuration is valid")
}

/// Deploys the arrangement: installs and configures FIR A on PRR 0,
/// stages every `stage` image (in order) through CompactFlash into its
/// SDRAM array, routes the loopback channels and brings the IOM and PRR 0
/// up. `fault_bit` flips that bit (which must lie within the image) of
/// every staged image first — a corrupted bitstream the ICAP rejects when
/// a swap loads it.
///
/// Returns the (upstream, downstream) channel ids, [`CHANNELS`] on a
/// fresh system.
///
/// # Errors
///
/// Any [`ApiError`] from the setup calls (e.g. a configuration whose
/// channel slots cannot route the loopback).
pub fn deploy(
    sys: &mut VapresSystem,
    stage: &[Image],
    fault_bit: Option<usize>,
) -> Result<(ChannelId, ChannelId), ApiError> {
    sys.install_bitstream(0, uids::FIR_A, FIR_A_FILE)?;
    for &(prr, uid) in stage {
        let mut bytes = sys.bitstream_for(prr, uid)?.to_bytes();
        if let Some(bit) = fault_bit {
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        let file = file_name((prr, uid));
        sys.cf_store_raw(&file, bytes);
        sys.vapres_cf2array(&file, &array_name((prr, uid)))?;
    }
    sys.vapres_cf2icap(FIR_A_FILE)?;
    let upstream = sys.vapres_establish_channel(PortRef::new(0, 0), PortRef::new(1, 0))?;
    let downstream = sys.vapres_establish_channel(PortRef::new(1, 0), PortRef::new(0, 0))?;
    sys.bring_up_node(0, false)?;
    sys.bring_up_node(1, false)?;
    Ok((upstream, downstream))
}

/// The swap that hands the stream on `channels` from `active_node` to
/// `spare_node`, loading `image` from its SDRAM array (base clock, 10 ms
/// end-of-stream timeout).
pub fn swap_spec(
    channels: (ChannelId, ChannelId),
    active_node: usize,
    spare_node: usize,
    image: Image,
) -> SwapSpec {
    SwapSpec {
        active_node,
        spare_node,
        source: BitstreamSource::Sdram(array_name(image)),
        upstream: channels.0,
        downstream: channels.1,
        clk_sel: false,
        timeout: Ps::from_ms(10),
    }
}

/// Drains the stream after a swap: runs up to 300 ms until IOM 0 has no
/// input pending, then settles 100 µs so in-flight words reach the sink.
/// Returns whether the input drained.
pub fn drain(sys: &mut VapresSystem) -> bool {
    let done = sys.run_until(Ps::from_ms(300), |s| s.iom_pending_input(0) == 0);
    sys.run_for(Ps::from_us(100));
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use vapres_core::switching::halt_and_swap;

    #[test]
    fn fresh_prototype_yields_the_fixed_channel_ids() {
        let mut sys = prototype();
        assert_eq!(deploy(&mut sys, &[SEAMLESS], None).unwrap(), CHANNELS);
        assert_eq!(CHANNELS, (ChannelId(0), ChannelId(1)));
    }

    #[test]
    fn every_stage_entry_lands_under_its_canonical_names() {
        let mut sys = prototype();
        let stage = [HALT, SEAMLESS, FIR_A_HOME];
        deploy(&mut sys, &stage, None).unwrap();
        for (image, array) in stage.into_iter().zip(["fir_b_p0", "fir_b_p1", "fir_a_p0"]) {
            assert_eq!(array_name(image), array);
            assert_eq!(file_name(image), format!("{array}.bit"));
            let expected = sys.bitstream_for(image.0, image.1).unwrap().to_bytes();
            let (on_card, _) = sys.compact_flash_mut().read(&file_name(image)).unwrap();
            assert_eq!(on_card[..], expected[..], "{array}");
            // The SDRAM copy configures the module onto its own PRR.
            sys.isolate_node(image.0 + 1).unwrap();
            sys.vapres_array2icap(array).unwrap();
            assert_eq!(sys.prr_module_name(image.0), Some(&array[..5]), "{array}");
        }
    }

    #[test]
    fn halt_spec_reconfigures_the_active_prr_in_place() {
        let mut sys = prototype();
        let channels = deploy(&mut sys, &[HALT], None).unwrap();
        let spec = swap_spec(channels, 1, 2, HALT);
        assert_eq!(spec.source, BitstreamSource::Sdram("fir_b_p0".into()));
        halt_and_swap(&mut sys, &spec).unwrap();
        assert_eq!(sys.prr_module_name(0), Some("fir_b"));
        assert_eq!(sys.prr_module_name(1), None);
    }
}
