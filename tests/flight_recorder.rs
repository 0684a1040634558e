//! Flight-recorder integration: ring semantics under system load and
//! the dump-on-`SwapError` causal trail.

use vapres::core::switching::{seamless_swap, BitstreamSource, SwapSpec};
use vapres::core::system::VapresSystem;
use vapres::core::Ps;
use vapres::kpn::e3;
use vapres::sim::flight::{FlightEvent, FlightRecorder};

/// The Fig. 5 / E3 system with the flight recorder armed.
fn fig5_system(capacity: usize) -> (VapresSystem, SwapSpec) {
    let mut sys = e3::prototype();
    sys.enable_flight_recorder(capacity);
    sys.iom_set_input_interval(0, 500);

    let channels = e3::deploy(&mut sys, &[e3::SEAMLESS], None).unwrap();
    (sys, e3::swap_spec(channels, 1, 2, e3::SEAMLESS))
}

#[test]
fn small_ring_wraps_but_keeps_the_newest_events_in_order() {
    // A whole E3 setup + swap generates far more than 8 events; the ring
    // must retain exactly the last 8, oldest first, with contiguous
    // sequence numbers.
    let (mut sys, spec) = fig5_system(8);
    sys.iom_feed(0, 0..2_000u32);
    sys.run_for(Ps::from_ms(1));
    seamless_swap(&mut sys, &spec).expect("swap succeeds");

    let fr = sys.flight().expect("recorder armed");
    assert_eq!(fr.len(), 8);
    assert!(fr.overwritten() > 0, "setup + swap must overflow 8 slots");
    let entries: Vec<_> = fr.events().collect();
    for pair in entries.windows(2) {
        assert_eq!(pair[1].seq, pair[0].seq + 1, "sequence gap in ring");
        assert!(pair[1].at >= pair[0].at, "timestamps must be monotone");
    }
    assert_eq!(fr.total_recorded(), fr.overwritten() + 8);
}

#[test]
fn capacity_one_ring_holds_exactly_the_last_event() {
    let (mut sys, spec) = fig5_system(1);
    sys.iom_feed(0, 0..2_000u32);
    sys.run_for(Ps::from_ms(1));
    seamless_swap(&mut sys, &spec).expect("swap succeeds");

    // Drain the stream so fabric FIFO edges after the swap are absorbed
    // into the ring too; whatever happened last, there is exactly one.
    sys.run_until(Ps::from_ms(300), |s| s.iom_pending_input(0) == 0);
    let fr = sys.flight().expect("recorder armed");
    assert_eq!(fr.len(), 1);
    let last = fr.events().next().unwrap();
    assert_eq!(last.seq, fr.total_recorded() - 1);
    let mut buf = Vec::new();
    fr.write_jsonl(&mut buf).unwrap();
    assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 1);
}

#[test]
fn swap_error_leaves_the_failing_step_in_the_ring_tail() {
    let (mut sys, mut spec) = fig5_system(vapres::sim::flight::DEFAULT_CAPACITY);
    spec.source = BitstreamSource::Sdram("nonexistent".into());
    sys.iom_feed(0, 0..2_000u32);
    sys.run_for(Ps::from_ms(1));

    let err = seamless_swap(&mut sys, &spec);
    assert!(err.is_err(), "missing SDRAM array must fail the swap");

    // The dump's tail is the causal trail: the swap entered step 1, then
    // step 2, then died there — and SwapFailed is the last swap event.
    let mut buf = Vec::new();
    sys.dump_flight_jsonl(&mut buf).unwrap();
    let dump = String::from_utf8(buf).unwrap();
    assert!(dump.contains("\"event\":\"swap_step\""), "{dump}");
    assert!(dump.contains("\"step\":\"1_resolve_endpoints\""), "{dump}");

    let fr = sys.flight().expect("recorder armed");
    let swap_events: Vec<&FlightEvent> = fr
        .events()
        .map(|e| &e.event)
        .filter(|e| {
            matches!(
                e,
                FlightEvent::SwapStep { .. } | FlightEvent::SwapFailed { .. }
            )
        })
        .collect();
    assert_eq!(
        swap_events.last(),
        Some(&&FlightEvent::SwapFailed {
            method: "seamless",
            step: "2_reconfigure_spare",
        }),
        "last swap event must name the step that died"
    );
    // The swap never got past reconfiguration: no step-3 entry exists.
    assert!(!dump.contains("3_bring_up_spare"), "{dump}");
}

#[test]
fn standalone_recorder_capacity_one_wraparound() {
    let mut fr = FlightRecorder::new(1);
    for n in 0..10u32 {
        fr.record(Ps::from_ns(n as u64), FlightEvent::DcrWrite { node: n });
    }
    assert_eq!(fr.len(), 1);
    assert_eq!(fr.overwritten(), 9);
    let only: Vec<_> = fr.events().collect();
    assert_eq!(only.len(), 1);
    assert_eq!(only[0].seq, 9);
    assert_eq!(only[0].event, FlightEvent::DcrWrite { node: 9 });
}
