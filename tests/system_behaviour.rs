//! System-level behaviour tests: DCR semantics under streaming, dual-IOM
//! pipelines, repeated (ping-pong) swaps, and FSL plumbing.

use vapres::core::config::SystemConfig;
use vapres::core::module::ModuleLibrary;
use vapres::core::switching::seamless_swap;
use vapres::core::system::VapresSystem;
use vapres::core::{PortRef, Ps};
use vapres::kpn::{deploy, e3, map_pipeline, Pipeline};
use vapres::modules::kernels::FirFilter;
use vapres::modules::{register_standard_modules, run_kernel, uids, StreamKernel};

#[test]
fn dual_iom_pipeline_streams_source_to_sink() {
    let cfg = SystemConfig::linear_dual_iom(2).expect("config");
    assert_eq!(cfg.iom_count(), 2);
    let mut lib = ModuleLibrary::new();
    register_standard_modules(&mut lib, 0);
    let mut sys = VapresSystem::new(cfg, lib).expect("system");

    let pipeline = Pipeline::new(vec![uids::DELTA_ENCODER, uids::DELTA_DECODER]);
    let mapping = map_pipeline(sys.config(), &pipeline).expect("maps");
    assert_eq!(mapping.source_iom, 0);
    assert_eq!(mapping.sink_iom, 3);
    deploy(&mut sys, &pipeline, &mapping).expect("deploys");

    let input: Vec<u32> = (0..2_000u32).map(|i| i * 13 % 97).collect();
    sys.iom_feed(0, input.iter().copied());
    // Output appears on IOM 1 (node 3), not on the source IOM.
    let done = sys.run_until(Ps::from_ms(5), |s| s.iom_output(1).len() >= input.len());
    assert!(done, "dual-IOM pipeline stalled");
    assert!(sys.iom_output(0).is_empty());
    let hw: Vec<u32> = sys.iom_output(1).iter().map(|(_, w)| w.data).collect();
    assert_eq!(hw, input); // enc∘dec = identity
}

#[test]
fn prr_reset_holds_module_in_reset_state() {
    let mut sys = e3::prototype();
    sys.install_bitstream(0, uids::DELTA_ENCODER, "e.bit")
        .expect("install");
    sys.vapres_cf2icap("e.bit").expect("load");
    sys.vapres_establish_channel(PortRef::new(0, 0), PortRef::new(1, 0))
        .expect("in");
    sys.vapres_establish_channel(PortRef::new(1, 0), PortRef::new(0, 0))
        .expect("out");
    sys.bring_up_node(0, false).expect("iom");
    sys.bring_up_node(1, false).expect("prr");

    // Stream a ramp; mid-stream, assert PRR_reset: the module stops
    // consuming (its tick becomes a reset) and loses its history.
    sys.iom_feed(0, [10, 20, 30]);
    sys.run_until(Ps::from_us(5), |s| s.iom_output(0).len() == 3);
    sys.vapres_module_reset(1, true).expect("assert reset");
    sys.iom_feed(0, [40]);
    sys.run_for(Ps::from_us(2));
    assert_eq!(sys.iom_output(0).len(), 3, "reset module must not process");
    sys.vapres_module_reset(1, false).expect("deassert");
    sys.run_until(Ps::from_us(5), |s| s.iom_output(0).len() == 4);
    // Delta encoder history was cleared by reset: output = 40 - 0, not
    // 40 - 30.
    let last = sys.iom_output(0).last().map(|(_, w)| w.data).expect("word");
    assert_eq!(last, 40);
}

#[test]
fn ping_pong_swap_alternates_prrs() {
    // A -> B (PRR0 -> PRR1), then B -> A' (PRR1 -> PRR0): the spare role
    // alternates, as a long-lived adaptive system would run.
    let mut sys = e3::prototype();
    sys.iom_set_input_interval(0, 500);
    let channels = e3::deploy(&mut sys, &[e3::SEAMLESS, e3::FIR_A_HOME], None).expect("E3");

    let input: Vec<u32> = (0..60_000u32).map(|i| (i * 7) % 5_001).collect();
    sys.iom_feed(0, input.iter().copied());
    sys.run_for(Ps::from_ms(1));

    // First swap: A(node1) -> B(node2).
    let spec1 = e3::swap_spec(channels, 1, 2, e3::SEAMLESS);
    let r1 = seamless_swap(&mut sys, &spec1).expect("first swap");
    assert_eq!(sys.prr_module_name(1), Some("fir_b"));

    // Second swap: B(node2) -> A(node1 again). The channels moved, so
    // find them from the fabric.
    let channels = sys.fabric().active_channels();
    assert_eq!(channels.len(), 2);
    let (mut up2, mut down2) = (None, None);
    for ch in channels {
        let info = sys.fabric().channel_info(ch).expect("live");
        if info.consumer.node == 2 {
            up2 = Some(ch);
        } else {
            down2 = Some(ch);
        }
    }
    let moved = (
        up2.expect("upstream found"),
        down2.expect("downstream found"),
    );
    let spec2 = e3::swap_spec(moved, 2, 1, e3::FIR_A_HOME);
    let r2 = seamless_swap(&mut sys, &spec2).expect("second swap");
    assert_eq!(sys.prr_module_name(0), Some("fir_a"));

    // Drain and verify the three-era golden output.
    let expected = input.len() + 2; // two EOS markers
    let done = sys.run_until(Ps::from_s(1), |s| s.iom_output(0).len() >= expected);
    assert!(done, "stream did not finish after double swap");
    let out = sys.iom_output(0);
    let eos: Vec<usize> = out
        .iter()
        .enumerate()
        .filter(|(_, (_, w))| w.end_of_stream)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(eos.len(), 2);
    let data: Vec<u32> = out
        .iter()
        .filter(|(_, w)| !w.end_of_stream)
        .map(|(_, w)| w.data)
        .collect();
    assert_eq!(data.len(), input.len(), "no loss across two swaps");

    // Golden: A on [0, s1), B with A's state on [s1, s2), A' with B's
    // state on [s2, ..).
    let s1 = eos[0];
    let s2 = eos[1] - 1; // data index of the second handoff
    let mut a = FirFilter::filter_a();
    let mut golden = run_kernel(&mut a, &input[..s1]);
    let mut b = FirFilter::filter_b();
    b.restore_state(&a.save_state());
    golden.extend(run_kernel(&mut b, &input[s1..s2]));
    let mut a2 = FirFilter::filter_a();
    a2.restore_state(&b.save_state());
    golden.extend(run_kernel(&mut a2, &input[s2..]));
    assert_eq!(data, golden, "three-era output must match the golden model");

    assert!(r1.total() > Ps::from_ms(70));
    assert!(r2.total() > Ps::from_ms(70));
}

#[test]
fn fsl_reset_clears_pending_words() {
    let mut sys = e3::prototype();
    sys.vapres_module_write(1, 111).expect("write");
    sys.vapres_module_write(1, 222).expect("write");
    let mut dcr = sys.dcr(1);
    dcr.fsl_reset = true;
    sys.write_dcr(1, dcr).expect("reset fsl");
    // Module-side FSL is empty: nothing ever arrives even if a module
    // were to read. Verify via the MB-visible side effect: writing again
    // works and read returns nothing (module absent).
    assert_eq!(sys.vapres_module_read(1).expect("read"), None);
}

#[test]
fn establish_channel_while_streaming_does_not_disturb_others() {
    let mut sys = e3::prototype();
    // Loopback at the IOM (channel 1), then add and remove a second
    // channel between the PRR ports repeatedly while data flows.
    let p = PortRef::new(0, 0);
    sys.vapres_establish_channel(p, p).expect("loopback");
    sys.bring_up_node(0, false).expect("iom");
    sys.iom_feed(0, 0..10_000);
    for _ in 0..50 {
        sys.run_for(Ps::from_us(2));
        let ch = sys
            .vapres_establish_channel(PortRef::new(1, 0), PortRef::new(2, 0))
            .expect("establish");
        sys.run_for(Ps::from_us(2));
        sys.vapres_release_channel(ch).expect("release");
    }
    let done = sys.run_until(Ps::from_ms(2), |s| s.iom_output(0).len() >= 10_000);
    assert!(done);
    let out: Vec<u32> = sys.iom_output(0).iter().map(|(_, w)| w.data).collect();
    assert_eq!(out, (0..10_000).collect::<Vec<u32>>());
}
