//! Seeded randomized equivalence sweep for the event-horizon batching
//! engine (`advance_to`) against the dense per-cycle oracle
//! (`tick_dense`).
//!
//! Two layers of checking:
//!
//! * **Fabric lockstep** — two [`StreamFabric`]s receive an identical
//!   seeded schedule of random port enables/disables, pushes, pops,
//!   channel establishment/release/re-establishment, node FIFO resets,
//!   and feedback-threshold overrides. One advances with `tick_dense`
//!   cycle by cycle, the other with `advance_to` in random strides.
//!   After every stride the full observable state must be bit-identical:
//!   FIFO occupancies and high-water marks, gated/overflow drop
//!   counters, per-channel delivered/stall/backpressure counters, the
//!   quiescence verdict, every captured FIFO threshold-crossing event,
//!   every word-tap stage timing, and every popped word.
//!
//! * **System sweep** — the E3 seamless-swap scenario runs dense and
//!   event-driven, and the *entire telemetry snapshot* (channel
//!   counters, drop counters, FIFO high-water gauges, IOM gap metrics,
//!   word-trace histograms) must serialize identically, modulo the
//!   `exec_*` scheduler counters whose whole point is to differ.

use vapres::sim::rng::SplitMix64;
use vapres::stream::fabric::{ChannelId, PortRef, StreamFabric};
use vapres::stream::params::FabricParams;
use vapres::stream::word::Word;

/// Small fabric, shallow FIFOs: full/backpressure/overflow paths get
/// exercised quickly.
fn small_params() -> FabricParams {
    FabricParams {
        nodes: 4,
        kr: 2,
        kl: 2,
        ki: 2,
        ko: 2,
        width_bits: 32,
        fifo_depth: 8,
    }
}

fn new_fabric() -> StreamFabric {
    let mut f = StreamFabric::new(small_params()).expect("params valid");
    f.enable_word_tap();
    f.set_event_capture(true);
    f
}

/// Everything observable about a fabric through its public API, in one
/// comparable value.
#[derive(Debug, PartialEq)]
struct Digest {
    ticks: u64,
    quiescent: bool,
    active_routes: usize,
    /// Per producer port: (len, space, high_water).
    producers: Vec<(usize, usize, usize)>,
    /// Per consumer port: (len, high_water, gated_drops, overflow_drops).
    consumers: Vec<(usize, usize, u64, u64)>,
    /// Per live channel: (producer, consumer, hops, delivered,
    /// stall_cycles, backpressure_cycles).
    channels: Vec<(PortRef, PortRef, usize, u64, u64, u64)>,
    /// Word-tap stage timings per tag, sorted by tag.
    tap: Vec<(u32, u64, u64, u64, u32)>,
}

fn digest(f: &StreamFabric, live: &[ChannelId]) -> Digest {
    let p = *f.params();
    let mut producers = Vec::new();
    let mut consumers = Vec::new();
    for node in 0..p.nodes {
        for port in 0..p.ko {
            let r = PortRef::new(node, port);
            producers.push((
                f.producer_len(r).unwrap(),
                f.producer_space(r).unwrap(),
                f.producer_high_water(r).unwrap(),
            ));
        }
        for port in 0..p.ki {
            let r = PortRef::new(node, port);
            consumers.push((
                f.consumer_len(r).unwrap(),
                f.consumer_high_water(r).unwrap(),
                f.consumer_gated_drops(r).unwrap(),
                f.consumer_overflow_drops(r).unwrap(),
            ));
        }
    }
    let channels = live
        .iter()
        .map(|&id| {
            let i = f.channel_info(id).expect("live channel");
            (
                i.producer,
                i.consumer,
                i.hops,
                i.delivered,
                i.stall_cycles,
                i.backpressure_cycles,
            )
        })
        .collect();
    let mut tap: Vec<_> = f
        .word_tap()
        .expect("tap enabled")
        .all_stats()
        .map(|(tag, s)| {
            (
                tag,
                s.producer_wait_cycles,
                s.hop_cycles,
                s.consumer_wait_cycles,
                s.hops,
            )
        })
        .collect();
    tap.sort_by_key(|t| t.0);
    Digest {
        ticks: f.ticks(),
        quiescent: f.is_quiescent(),
        active_routes: f.active_route_count(),
        producers,
        consumers,
        channels,
        tap,
    }
}

/// One random mutation applied identically to both fabrics; asserts the
/// operation's immediate result (push acceptance, popped word, channel
/// id) matches between them.
#[allow(clippy::too_many_arguments)]
fn apply_op(
    rng: &mut SplitMix64,
    dense: &mut StreamFabric,
    lazy: &mut StreamFabric,
    live: &mut Vec<ChannelId>,
    next_tag: &mut u32,
    step: usize,
) {
    let p = small_params();
    let prod = PortRef::new(rng.gen_usize(0..p.nodes), rng.gen_usize(0..p.ko));
    let cons = PortRef::new(rng.gen_usize(0..p.nodes), rng.gen_usize(0..p.ki));
    match rng.gen_usize(0..100) {
        // Push a word (sometimes tagged for the tap, sometimes EOS).
        0..=34 => {
            let mut w = if rng.gen_bool(0.05) {
                Word::end_of_stream()
            } else {
                Word::data(rng.next_u32())
            };
            if rng.gen_bool(0.25) {
                w = w.with_tag(Some(*next_tag));
                *next_tag += 1;
            }
            let a = dense.producer_push(prod, w);
            let b = lazy.producer_push(prod, w);
            assert_eq!(a.is_ok(), b.is_ok(), "push acceptance diverged @{step}");
        }
        // Pop a word: bit-identical payload, EOS flag, and trace tag.
        35..=59 => {
            let a = dense.consumer_pop(cons).unwrap();
            let b = lazy.consumer_pop(cons).unwrap();
            assert_eq!(
                a.map(|w| (w.data, w.end_of_stream, w.tag())),
                b.map(|w| (w.data, w.end_of_stream, w.tag())),
                "popped word diverged @{step}"
            );
        }
        // Gate / ungate interface FIFOs (the swap sequencer's levers).
        60..=69 => {
            let on = rng.gen_bool(0.7);
            dense.set_fifo_ren(prod, on).unwrap();
            lazy.set_fifo_ren(prod, on).unwrap();
        }
        70..=79 => {
            let on = rng.gen_bool(0.7);
            dense.set_fifo_wen(cons, on).unwrap();
            lazy.set_fifo_wen(cons, on).unwrap();
        }
        // Establish / release routes (re-establishment reuses slots).
        80..=89 => {
            if !live.is_empty() && rng.gen_bool(0.5) {
                let id = live.swap_remove(rng.gen_usize(0..live.len()));
                dense.release_channel(id).unwrap();
                lazy.release_channel(id).unwrap();
            } else {
                let a = dense.establish_channel(prod, cons);
                let b = lazy.establish_channel(prod, cons);
                assert_eq!(a, b, "channel establishment diverged @{step}");
                if let Ok(id) = a {
                    live.push(id);
                }
            }
        }
        // Hard reset of one node's interfaces (isolation during reconfig).
        90..=93 => {
            let node = rng.gen_usize(0..p.nodes);
            dense.reset_node_fifos(node);
            lazy.reset_node_fifos(node);
        }
        // Shrink a feedback threshold (the E9 ablation lever) so the
        // overflow-drop path actually fires under load.
        94..=96 if !live.is_empty() => {
            let id = live[rng.gen_usize(0..live.len())];
            let thr = rng.gen_usize(0..4);
            dense.set_feedback_threshold(id, thr).unwrap();
            lazy.set_feedback_threshold(id, thr).unwrap();
        }
        _ => {} // breather: let the fabrics run undisturbed
    }
}

fn lockstep_sweep(seed: u64, steps: usize) {
    let mut rng = SplitMix64::new(seed);
    let mut dense = new_fabric();
    let mut lazy = new_fabric();
    let mut live: Vec<ChannelId> = Vec::new();
    let mut next_tag = 0u32;

    for step in 0..steps {
        for _ in 0..rng.gen_usize(0..4) {
            apply_op(
                &mut rng,
                &mut dense,
                &mut lazy,
                &mut live,
                &mut next_tag,
                step,
            );
        }

        // Dense steps cycle by cycle; batched jumps the whole stride.
        let stride = rng.gen_range(1..17);
        for _ in 0..stride {
            dense.tick_dense();
        }
        lazy.advance_to(lazy.ticks() + stride);

        assert_eq!(
            digest(&dense, &live),
            digest(&lazy, &live),
            "state diverged after step {step} (seed {seed}, stride {stride})"
        );
        let de: Vec<_> = dense.drain_fifo_events().collect();
        let le: Vec<_> = lazy.drain_fifo_events().collect();
        assert_eq!(
            de, le,
            "FIFO edge events diverged after step {step} (seed {seed})"
        );
    }

    // The batched fabric never paid per-cycle: all its work was either
    // folded spans or exact event-horizon cycles.
    assert_eq!(
        lazy.dispatched_route_ticks(),
        0,
        "batched engine fell back to dense ticks"
    );
}

/// The headline satellite: many seeds, hundreds of randomized steps
/// each, bit-equality of *everything observable* at every stride.
#[test]
fn randomized_lockstep_matches_dense_oracle() {
    for seed in 0..8u64 {
        lockstep_sweep(0xFAB1C + seed, 300);
    }
}

/// Long single-seed soak: deep strides over long-lived routes so folds
/// cover self-sustaining, draining, stalled, and backpressured spans.
#[test]
fn long_soak_lockstep_matches_dense_oracle() {
    lockstep_sweep(0x5EED_CAFE, 1500);
}

mod system_sweep {
    use vapres::core::switching::seamless_swap;
    use vapres::core::Ps;
    use vapres::kpn::e3;

    const SAMPLE_INTERVAL: u64 = 500;
    const N_SAMPLES: u32 = 1_000;

    /// Runs the E3 seamless-swap scenario and returns the serialized
    /// telemetry snapshot with the scheduler's own (`exec_*`) counters
    /// removed — those measure elided work and *must* differ between
    /// modes, while everything else must not.
    fn run_and_snapshot(dense: bool) -> (Vec<String>, Ps) {
        let mut sys = e3::prototype();
        sys.set_dense(dense);
        sys.enable_telemetry();
        sys.enable_word_trace(16);
        sys.iom_set_input_interval(0, SAMPLE_INTERVAL);

        let channels = e3::deploy(&mut sys, &[e3::SEAMLESS], None).unwrap();

        let input: Vec<u32> = (0..N_SAMPLES).map(|i| (i * 97) % 10_007).collect();
        sys.iom_feed(0, input.iter().copied());
        sys.run_for(Ps::from_ms(1));

        let spec = e3::swap_spec(channels, 1, 2, e3::SEAMLESS);
        seamless_swap(&mut sys, &spec).expect("swap succeeds");

        let expected_total = input.len() + 1;
        let done = sys.run_until(Ps::from_ms(200), |s| {
            s.iom_output(0).len() >= expected_total && s.iom_pending_input(0) == 0
        });
        assert!(done, "stream did not finish (dense={dense})");
        let now = sys.now();

        let mut out = Vec::new();
        sys.snapshot_metrics()
            .expect("telemetry enabled")
            .write_jsonl(&mut out)
            .expect("vec write");
        let mut lines: Vec<String> = String::from_utf8(out)
            .expect("utf8")
            .lines()
            .filter(|l| !l.contains("\"exec_"))
            .map(str::to_owned)
            .collect();
        lines.sort();
        (lines, now)
    }

    /// Every non-scheduler telemetry record — channel delivered/stall/
    /// backpressure counters, dropped-word counters, FIFO high-water
    /// gauges, IOM gap metrics, fabric tick count, word-trace stage
    /// histograms — is bit-identical between the dense oracle and the
    /// batched event-driven run of the full E3 swap.
    #[test]
    fn e3_swap_telemetry_is_mode_invariant() {
        let (dense, dense_now) = run_and_snapshot(true);
        let (lazy, lazy_now) = run_and_snapshot(false);
        assert_eq!(dense_now, lazy_now, "final sim time diverged");
        assert_eq!(dense.len(), lazy.len(), "telemetry record count diverged");
        for (d, l) in dense.iter().zip(&lazy) {
            assert_eq!(d, l, "telemetry record diverged");
        }
    }
}
