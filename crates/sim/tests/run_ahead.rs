//! Differential test of the engine's private-hit run-ahead.
//!
//! Without observers, the engine carries a processor past the runner-up's
//! clock through private events (Compute, read hits, write hits on
//! Modified lines) as long as no other processor's next coherence event
//! could fall before them.  With any observer attached it runs nothing
//! ahead and replays in strict `(clock, index)` order.  The two must give
//! the same `SimReport`, so the observed run with a [`NopObserver`] is the
//! reference here.
//!
//! The streams are built to make run-ahead mistakes visible: tiny caches
//! (evictions), a few hot lines every processor reads and writes
//! (invalidations, downgrades, cache-to-cache supply, upgrades), private
//! lines read then written (Exclusive→Modified silent upgrades), long
//! Compute bursts (processors far apart in time), barriers at different
//! counts per processor, and channel delivery in random chunks.  The mix
//! varies per case, from mostly-private streams whose lookahead reaches
//! far to shared-heavy ones that invalidate it constantly.

use memhier_core::machine::{LatencyParams, MachineSpec, NetworkKind};
use memhier_core::platform::ClusterSpec;
use memhier_sim::event::batch_channel;
use memhier_sim::observe::NopObserver;
use memhier_sim::{ClusterBackend, HomeMap, MemEvent, ProcSource, SimReport, SimSession};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Bytes per L1 line in the default protocol geometry.
const LINE: u64 = 64;

/// The platform for `kind` (0 = SMP, 1 = COW, 2 = CLUMP) with `procs`
/// processors in total (rounded down to even for a CLUMP) and 1-2 KB
/// caches.
fn cluster(kind: u8, procs: u32, cache_kb: u64, switch: bool) -> ClusterSpec {
    let net = if switch {
        NetworkKind::Atm155
    } else {
        NetworkKind::Ethernet100
    };
    match kind {
        0 => ClusterSpec::single(MachineSpec::new(procs, cache_kb, 64, 200.0)),
        1 => ClusterSpec::cluster(MachineSpec::new(1, cache_kb, 64, 200.0), procs, net),
        _ => ClusterSpec::cluster(
            MachineSpec::new(2, cache_kb, 64, 200.0),
            (procs / 2).max(2),
            net,
        ),
    }
}

fn backend(spec: &ClusterSpec) -> ClusterBackend {
    let home = HomeMap::new(spec.machines as usize, 256);
    ClusterBackend::new(spec, LatencyParams::paper(), home)
}

/// How a case's streams mix their events.
#[derive(Debug, Clone, Copy)]
struct Mix {
    /// Share of accesses to the hot shared lines, and of those, writes.
    shared: f64,
    write_share: f64,
    /// Hot shared lines every processor reads and writes.
    shared_lines: u64,
    /// Share of cold private accesses (misses that evict the hot lines).
    cold: f64,
}

/// One processor's stream: hot shared lines, a few hot private lines,
/// cold private lines and read-then-write pairs, Compute bursts and
/// barriers.
fn stream(rng: &mut ChaCha8Rng, proc: u64, len: usize, mix: Mix) -> Vec<MemEvent> {
    let private = (proc + 1) << 20;
    let mut events = Vec::with_capacity(len);
    while events.len() < len {
        let roll: f64 = rng.gen();
        let event = if roll < 0.10 {
            // Short compute, or now and then a long burst.
            if rng.gen_bool(0.1) {
                MemEvent::compute(rng.gen_range(1_000..20_000))
            } else {
                MemEvent::compute(rng.gen_range(1..20))
            }
        } else if roll < 0.11 {
            MemEvent::BARRIER
        } else if roll < 0.11 + mix.shared {
            let a = rng.gen_range(0..mix.shared_lines) * LINE + rng.gen_range(0..LINE);
            if rng.gen_bool(mix.write_share) {
                MemEvent::write(a)
            } else {
                MemEvent::read(a)
            }
        } else if roll < 0.11 + mix.shared + mix.cold {
            let a = private + rng.gen_range(6..128u64) * LINE;
            if rng.gen_bool(0.5) {
                // Read then write: an Exclusive→Modified upgrade.
                events.push(MemEvent::read(a));
                MemEvent::write(a)
            } else {
                MemEvent::read(a)
            }
        } else {
            // A few private lines, reused enough to hit.
            let a = private + rng.gen_range(0..6u64) * LINE;
            if rng.gen_bool(0.3) {
                MemEvent::write(a)
            } else {
                MemEvent::read(a)
            }
        };
        events.push(event);
    }
    events
}

/// Deliver `events` over a channel in random chunks (empty ones
/// included); the engine must not see the chunking.
fn chunked(rng: &mut ChaCha8Rng, events: &[MemEvent]) -> ProcSource {
    let mut chunks = Vec::new();
    let mut rest = events;
    while !rest.is_empty() {
        let n = rng.gen_range(0..=64usize).min(rest.len());
        chunks.push(rest[..n].to_vec());
        rest = &rest[n..];
    }
    let (tx, rx) = batch_channel(chunks.len().max(1));
    for chunk in chunks {
        tx.send(chunk).expect("receiver alive");
    }
    ProcSource::Channel(rx)
}

fn run(spec: &ClusterSpec, sources: Vec<ProcSource>, observed: bool) -> SimReport {
    let session = SimSession::new(backend(spec)).with_sources(sources);
    if observed {
        session.observe(NopObserver).run().report
    } else {
        session.run().report
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn run_ahead_matches_the_per_event_order(
        seed in any::<u64>(),
        kind in 0u8..3,
        procs in 2u32..9,
        shape in (1u64..3, any::<bool>(), 200usize..1500),
        mix in (0.02f64..0.4, 0.05f64..0.7, 1u64..9, 0.0f64..0.15).prop_map(
            |(shared, write_share, shared_lines, cold)| Mix { shared, write_share, shared_lines, cold },
        ),
    ) {
        let (cache_kb, switch, len) = shape;
        let spec = cluster(kind, procs, cache_kb, switch);
        let n = spec.total_procs() as u64;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let streams: Vec<Vec<MemEvent>> = (0..n)
            .map(|p| {
                let len = rng.gen_range(len / 2..len + 1);
                stream(&mut rng, p, len, mix)
            })
            .collect();
        let in_memory = || {
            streams
                .iter()
                .map(|s| ProcSource::from_events(s.clone()))
                .collect::<Vec<_>>()
        };
        let reference = run(&spec, in_memory(), true);
        prop_assert!(reference.levels.l1_hits > 0);
        prop_assert_eq!(&run(&spec, in_memory(), false), &reference, "in memory, {:?}", spec);
        let sources = streams.iter().map(|s| chunked(&mut rng, s)).collect();
        prop_assert_eq!(&run(&spec, sources, false), &reference, "chunked, {:?}", spec);
    }
}

/// The generator reaches every coherence path the run-ahead must respect.
#[test]
fn streams_exercise_the_coherence_paths() {
    let mix = Mix {
        shared: 0.25,
        write_share: 0.3,
        shared_lines: 8,
        cold: 0.15,
    };
    for kind in 0..3 {
        let spec = cluster(kind, 4, 1, false);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let sources = (0..spec.total_procs() as u64)
            .map(|p| ProcSource::from_events(stream(&mut rng, p, 2_000, mix)))
            .collect();
        let r = run(&spec, sources, false);
        assert!(
            r.levels.l1_hits > r.total_refs / 2,
            "{kind}: {:?}",
            r.levels
        );
        assert!(r.levels.upgrades > 0, "{kind}: {:?}", r.levels);
        assert!(r.barriers > 0, "{kind}");
        if kind != 1 {
            assert!(r.levels.cache_to_cache > 0, "{kind}: {:?}", r.levels);
        }
        if kind != 0 {
            assert!(r.levels.remote_dirty > 0, "{kind}: {:?}", r.levels);
        }
    }
}
