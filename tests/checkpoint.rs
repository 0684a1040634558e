//! Bit-exact checkpoint/restore of the whole system.
//!
//! The snapshot seam's contract is *restore ≡ never-stopped*: a system
//! checkpointed at an arbitrary API boundary, serialized to bytes,
//! restored into a fresh `VapresSystem`, and driven forward must be
//! indistinguishable — in every observable — from the original system
//! driven forward without interruption. These tests prove that on the
//! paper's E3 switching scenario (seamless, halt-and-swap, and a
//! fault-corrupted bitstream), at randomized checkpoint boundaries, with
//! every observation channel enabled: IOM output words with picosecond
//! timestamps, telemetry JSONL, flight-recorder JSONL, the word-trace
//! latency tape, and the VCD signal trace.
//!
//! A second property locks the codec itself: `checkpoint → restore →
//! checkpoint` is byte-identical (canonical-form serialization), and
//! snapshots refuse to restore across format versions or configuration
//! fingerprints.

use vapres::core::config::SystemConfig;
use vapres::core::module::ModuleLibrary;
use vapres::core::switching::{halt_and_swap, seamless_swap, BitstreamSource, SwapSpec};
use vapres::core::system::VapresSystem;
use vapres::core::{PortRef, Ps, SplitMix64};
use vapres::modules::{register_standard_modules, uids};
use vapres::sim::persist::{PersistError, FORMAT_VERSION, MAGIC};

/// External ADC sample interval in fabric cycles.
const SAMPLE_INTERVAL: u64 = 200;
const N_SAMPLES: u32 = 2_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Method {
    Seamless,
    Halt,
    /// Seamless attempt against a bit-flipped FIR B image: the swap
    /// fails at ICAP validation and the original module keeps running.
    SeamlessFault,
}

fn library() -> ModuleLibrary {
    let mut lib = ModuleLibrary::new();
    register_standard_modules(&mut lib, 0);
    lib
}

/// Builds the E3 arrangement with every observation channel on:
/// IOM ⇄ FIR A on PRR 0, FIR B staged in SDRAM (corrupted for
/// [`Method::SeamlessFault`]), channels routed, nodes up, input fed.
fn e3_system(method: Method) -> (VapresSystem, SwapSpec) {
    let mut sys = VapresSystem::new(SystemConfig::prototype(), library()).unwrap();
    sys.enable_telemetry();
    sys.enable_flight_recorder(512);
    sys.enable_word_trace(5);
    sys.enable_tracing();
    sys.iom_set_input_interval(0, SAMPLE_INTERVAL);

    sys.install_bitstream(0, uids::FIR_A, "fir_a.bit").unwrap();
    let fir_b_prr = if method == Method::Halt { 0 } else { 1 };
    let mut fir_b = sys
        .bitstream_for(fir_b_prr, uids::FIR_B)
        .unwrap()
        .to_bytes();
    if method == Method::SeamlessFault {
        fir_b[7] ^= 0x10;
    }
    sys.cf_store_raw("fir_b.bit", fir_b);
    sys.vapres_cf2array("fir_b.bit", "fir_b").unwrap();

    sys.vapres_cf2icap("fir_a.bit").unwrap();
    let upstream = sys
        .vapres_establish_channel(PortRef::new(0, 0), PortRef::new(1, 0))
        .unwrap();
    let downstream = sys
        .vapres_establish_channel(PortRef::new(1, 0), PortRef::new(0, 0))
        .unwrap();
    sys.bring_up_node(0, false).unwrap();
    sys.bring_up_node(1, false).unwrap();
    sys.iom_feed(0, 0..N_SAMPLES);

    let spec = SwapSpec {
        active_node: 1,
        spare_node: 2,
        source: BitstreamSource::Sdram("fir_b".into()),
        upstream,
        downstream,
        clk_sel: false,
        timeout: Ps::from_ms(10),
    };
    (sys, spec)
}

/// Drives a system from an arbitrary point to the end of the scenario:
/// the swap, then a drain, then a settle.
fn finish(sys: &mut VapresSystem, spec: &SwapSpec, method: Method) {
    let swapped = match method {
        Method::Halt => halt_and_swap(sys, spec),
        _ => seamless_swap(sys, spec),
    };
    match method {
        Method::SeamlessFault => assert!(swapped.is_err(), "corrupted image must fail"),
        _ => {
            swapped.unwrap();
        }
    }
    sys.run_until(Ps::from_ms(100), |s| s.iom_pending_input(0) == 0);
    sys.run_for(Ps::from_us(50));
}

/// Every observable the simulator exposes, folded into one string.
fn observables(sys: &mut VapresSystem) -> String {
    let mut out = String::new();
    out.push_str(&format!("now={}\n", sys.now().as_ps()));
    out.push_str(&format!("outputs={:?}\n", sys.iom_output(0)));
    out.push_str(&format!("gap={:?}\n", sys.iom_gap(0)));
    let wt = sys.word_trace().expect("word trace enabled");
    out.push_str(&format!(
        "word_trace tagged={} completed={} latencies={:?}\n",
        wt.tagged(),
        wt.completed(),
        wt.latencies_ps()
    ));
    let mut buf = Vec::new();
    sys.snapshot_metrics()
        .unwrap()
        .write_jsonl(&mut buf)
        .unwrap();
    out.push_str(&String::from_utf8(buf).unwrap());
    let mut buf = Vec::new();
    sys.flight().unwrap().write_jsonl(&mut buf).unwrap();
    out.push_str(&String::from_utf8(buf).unwrap());
    let mut buf = Vec::new();
    sys.tracer().unwrap().write_vcd(&mut buf).unwrap();
    out.push_str(&String::from_utf8(buf).unwrap());
    out
}

/// The golden equivalence: checkpoint at a randomized mid-stream
/// boundary, restore into a fresh system, run both to the end of the
/// scenario — every observable must match bit for bit.
fn assert_restore_equivalent(method: Method, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let (mut reference, spec) = e3_system(method);
    // A randomized prefix: somewhere between "barely started" and "well
    // into the stream" (the stream runs ~N_SAMPLES × SAMPLE_INTERVAL
    // fabric cycles at 100 MHz ≈ 4 ms).
    let prefix_us = 100 + rng.gen_usize(0..2_000) as u64;
    reference.run_for(Ps::from_us(prefix_us));

    let bytes = reference.checkpoint();
    let mut restored = VapresSystem::restore(SystemConfig::prototype(), library(), &bytes)
        .expect("snapshot restores into its own configuration");

    // Interleave a second randomized leg before finishing, to exercise
    // the restored event queue mid-flight rather than only at the end.
    let leg_us = 1 + rng.gen_usize(0..500) as u64;
    reference.run_for(Ps::from_us(leg_us));
    restored.run_for(Ps::from_us(leg_us));

    finish(&mut reference, &spec, method);
    finish(&mut restored, &spec, method);

    assert_eq!(
        observables(&mut reference),
        observables(&mut restored),
        "{method:?} (seed {seed}, prefix {prefix_us} µs): restore diverged from never-stopped"
    );
}

#[test]
fn restore_equivalence_seamless() {
    for seed in [1, 2, 3] {
        assert_restore_equivalent(Method::Seamless, seed);
    }
}

#[test]
fn restore_equivalence_halt() {
    for seed in [4, 5, 6] {
        assert_restore_equivalent(Method::Halt, seed);
    }
}

#[test]
fn restore_equivalence_faulty_swap() {
    for seed in [7, 8, 9] {
        assert_restore_equivalent(Method::SeamlessFault, seed);
    }
}

/// Canonical-form property: `checkpoint → restore → checkpoint` is
/// byte-identical at randomized points all through the scenario,
/// including immediately after the swap itself.
#[test]
fn checkpoint_restore_checkpoint_is_byte_identical() {
    for seed in 10..14u64 {
        let mut rng = SplitMix64::new(seed);
        let (mut sys, spec) = e3_system(Method::Seamless);
        for step in 0..4 {
            sys.run_for(Ps::from_us(10 + rng.gen_usize(0..800) as u64));
            if step == 2 {
                seamless_swap(&mut sys, &spec).unwrap();
            }
            let first = sys.checkpoint();
            let mut restored =
                VapresSystem::restore(SystemConfig::prototype(), library(), &first).unwrap();
            let second = restored.checkpoint();
            assert_eq!(
                first, second,
                "re-encode differs (seed {seed}, step {step}): non-canonical state survived"
            );
            // Keep driving the *restored* system so later steps also
            // prove the restored image is itself checkpointable.
            sys = restored;
        }
    }
}

#[test]
fn restore_rejects_version_mismatch() {
    let (mut sys, _) = e3_system(Method::Seamless);
    let mut bytes = sys.checkpoint();
    // Header layout: 8 magic bytes, then the format version (LE u32).
    bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    match VapresSystem::restore(SystemConfig::prototype(), library(), &bytes) {
        Err(PersistError::VersionMismatch { found, expected }) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(expected, FORMAT_VERSION);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

#[test]
fn restore_rejects_config_fingerprint_mismatch() {
    let (mut sys, _) = e3_system(Method::Seamless);
    let bytes = sys.checkpoint();
    let mut other_cfg = SystemConfig::prototype();
    other_cfg.fsl_depth = 64;
    other_cfg.validate().unwrap();
    match VapresSystem::restore(other_cfg, library(), &bytes) {
        Err(PersistError::FingerprintMismatch { found, expected }) => {
            assert_ne!(found, expected);
            assert_eq!(found, SystemConfig::prototype().fingerprint());
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
}

#[test]
fn restore_rejects_bad_magic_and_truncation() {
    let (mut sys, _) = e3_system(Method::Seamless);
    let bytes = sys.checkpoint();

    let mut garbled = bytes.clone();
    garbled[0] ^= 0xFF;
    assert!(matches!(
        VapresSystem::restore(SystemConfig::prototype(), library(), &garbled),
        Err(PersistError::BadMagic)
    ));

    let truncated = &bytes[..bytes.len() / 2];
    assert!(VapresSystem::restore(SystemConfig::prototype(), library(), truncated).is_err());
}

// ---------------------------------------------------------------------------
// Fleet-scale golden equivalence: restore ≡ never-stopped for a 3-RSB
// `MultiRsbSystem`, restored from its own checkpoint envelope.
// ---------------------------------------------------------------------------

use vapres::core::{ChannelId, Freq, MultiRsbSystem};

const FLEET_RSBS: usize = 3;

/// Three deliberately heterogeneous RSBs: the middle one runs its whole
/// clock tree at half speed, so lockstep alignment has real work to do.
fn fleet_configs() -> Vec<SystemConfig> {
    let mut slow = SystemConfig::prototype();
    slow.static_clock = Freq::mhz(50);
    slow.prr_clock_menu = [Freq::mhz(50), Freq::mhz(25)];
    vec![SystemConfig::prototype(), slow, SystemConfig::prototype()]
}

fn fleet_register(lib: &mut ModuleLibrary) {
    register_standard_modules(lib, 0);
}

/// Per-RSB E3 arrangement with every checkpointable observation channel
/// on, plus a heterogeneous input stream. Returns each RSB's
/// (upstream, downstream) channel ids for the swap leg.
fn fleet_e3_setup(m: &mut MultiRsbSystem) -> Vec<(ChannelId, ChannelId)> {
    (0..FLEET_RSBS)
        .map(|rsb| {
            m.with_rsb(rsb, |sys| {
                sys.enable_telemetry();
                sys.enable_flight_recorder(512);
                sys.enable_word_trace(5);
                sys.iom_set_input_interval(0, 150 + 50 * rsb as u64);
                sys.install_bitstream(0, uids::FIR_A, "fir_a.bit").unwrap();
                let fir_b = sys.bitstream_for(1, uids::FIR_B).unwrap().to_bytes();
                sys.cf_store_raw("fir_b.bit", fir_b);
                sys.vapres_cf2array("fir_b.bit", "fir_b").unwrap();
                sys.vapres_cf2icap("fir_a.bit").unwrap();
                let upstream = sys
                    .vapres_establish_channel(PortRef::new(0, 0), PortRef::new(1, 0))
                    .unwrap();
                let downstream = sys
                    .vapres_establish_channel(PortRef::new(1, 0), PortRef::new(0, 0))
                    .unwrap();
                sys.bring_up_node(0, false).unwrap();
                sys.bring_up_node(1, false).unwrap();
                sys.iom_feed(0, 0..(400 + 100 * rsb as u32));
                (upstream, downstream)
            })
        })
        .collect()
}

/// The post-checkpoint leg: a streaming stretch, one seamless swap per
/// RSB, then a sliced drain and settle.
fn fleet_drive_leg(m: &mut MultiRsbSystem, channels: &[(ChannelId, ChannelId)]) {
    m.run_for(Ps::from_us(200));
    for (rsb, &(upstream, downstream)) in channels.iter().enumerate() {
        m.with_rsb(rsb, |sys| {
            let spec = SwapSpec {
                active_node: 1,
                spare_node: 2,
                source: BitstreamSource::Sdram("fir_b".into()),
                upstream,
                downstream,
                clk_sel: false,
                timeout: Ps::from_ms(10),
            };
            seamless_swap(sys, &spec).unwrap();
        });
        m.run_for(Ps::from_us(150));
    }
    for _ in 0..60 {
        let done = (0..FLEET_RSBS).all(|rsb| m.rsb(rsb).iom_pending_input(0) == 0);
        if done {
            break;
        }
        m.run_for(Ps::from_ms(1));
    }
    m.run_for(Ps::from_us(50));
}

/// Every per-RSB observable, folded into one comparable string.
fn fleet_observables(m: &mut MultiRsbSystem) -> String {
    let mut out = String::new();
    for rsb in 0..FLEET_RSBS {
        m.with_rsb(rsb, |sys| {
            out.push_str(&format!("rsb={rsb} now={}\n", sys.now().as_ps()));
            out.push_str(&format!("outputs={:?}\n", sys.iom_output(0)));
            out.push_str(&format!("gap={:?}\n", sys.iom_gap(0)));
            let wt = sys.word_trace().expect("word trace enabled");
            out.push_str(&format!(
                "word_trace tagged={} completed={} latencies={:?}\n",
                wt.tagged(),
                wt.completed(),
                wt.latencies_ps()
            ));
            let mut buf = Vec::new();
            sys.snapshot_metrics()
                .unwrap()
                .write_jsonl(&mut buf)
                .unwrap();
            sys.flight().unwrap().write_jsonl(&mut buf).unwrap();
            out.push_str(&String::from_utf8(buf).unwrap());
        });
    }
    out
}

/// The fleet golden equivalence: checkpoint a 3-RSB fleet mid-stream,
/// restore the envelope, run both to the end of the scenario — every
/// per-RSB observable must match bit for bit.
#[test]
fn fleet_restore_equivalence_three_rsbs() {
    let mut reference =
        MultiRsbSystem::new(fleet_configs(), fleet_register).expect("valid fleet configs");
    let channels = fleet_e3_setup(&mut reference);
    reference.run_for(Ps::from_us(300));

    let bytes = reference.checkpoint();
    let at_checkpoint = reference.now();

    fleet_drive_leg(&mut reference, &channels);
    let golden = fleet_observables(&mut reference);

    let mut restored = MultiRsbSystem::restore(fleet_configs(), fleet_register, &bytes)
        .expect("fleet envelope restores");
    assert_eq!(
        restored.now(),
        at_checkpoint,
        "resumed at the wrong instant"
    );
    fleet_drive_leg(&mut restored, &channels);
    assert_eq!(
        fleet_observables(&mut restored),
        golden,
        "fleet restore diverged from never-stopped"
    );
}
