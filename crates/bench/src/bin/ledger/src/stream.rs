//! serve_mix's request stream and its open-loop load generator.
//!
//! The load is two independent seeded Poisson streams, each sent on its
//! own keep-alive connection by its own thread.  Every request has a due
//! time fixed before the run starts; the generator sends it at that time
//! or, when the previous reply on its connection is still outstanding, as
//! soon as that reply arrives.  Latency is measured from the due time, so
//! a stall also counts against the requests queued behind it, and the
//! generator records how late it sent each request.

use std::time::{Duration, Instant};

/// Independent request streams (one connection and one thread each).
pub const STREAMS: u64 = 2;

/// Distinct bodies in the hot (cache-hit) pool.
pub const HOT_POOL: u64 = 32;

/// What a request asks memhierd for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// `GET /healthz`.
    Probe,
    /// A `/v1/model` or `/v1/recommend` body from the hot pool.
    Hot,
    /// A never-repeated inline-spec `/v1/model` body.
    Model,
    /// A never-repeated budget for `/v1/optimize`.
    Optimize,
    /// A never-repeated `/v1/simulate` body at `size: small`.
    Simulate,
}

/// The mix: each class with its share of requests.
pub const MIX: [(Class, f64); 5] = [
    (Class::Probe, 0.10),
    (Class::Hot, 0.45),
    (Class::Model, 0.25),
    (Class::Optimize, 0.12),
    (Class::Simulate, 0.08),
];

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Probe => "probe",
            Class::Hot => "hot",
            Class::Model => "model",
            Class::Optimize => "optimize",
            Class::Simulate => "simulate",
        }
    }
}

/// One request of a stream, fixed before the run starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// When the request is due, from the start of its phase.
    pub due: Duration,
    pub class: Class,
    /// The hot-pool index for [`Class::Hot`]; otherwise an identifier no
    /// other request of the run shares.
    pub key: u64,
}

/// splitmix64: a small, seedable generator with good mixing.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Identifiers handed to one stream of one phase; far more than a phase
/// can send.
const IDS_PER_STREAM: u64 = 1 << 20;

/// Stream `stream` of load phase `phase`: Poisson arrivals at `rate`
/// requests per second for `length`, classes drawn from [`MIX`].  The same
/// arguments always give the same requests, and no two (phase, stream)
/// pairs share a distinct-body key.
pub fn schedule(seed: u64, stream: u64, phase: u64, rate: f64, length: Duration) -> Vec<Planned> {
    assert!(rate > 0.0 && stream < STREAMS);
    let mut rng = SplitMix::new(seed ^ (phase << 32 | stream).wrapping_mul(0xA24B_AED4_963E_E407));
    let first_id = (phase * STREAMS + stream) * IDS_PER_STREAM;
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= length.as_secs_f64() {
            return out;
        }
        let draw = rng.unit();
        let mut acc = 0.0;
        let class = MIX
            .iter()
            .find(|(_, share)| {
                acc += share;
                draw < acc
            })
            .map_or(Class::Simulate, |&(c, _)| c);
        let key = match class {
            Class::Hot => rng.next_u64() % HOT_POOL,
            _ => first_id + out.len() as u64,
        };
        out.push(Planned {
            due: Duration::from_secs_f64(t),
            class,
            key,
        });
    }
}

/// Time source of [`drive`]; tests substitute a fake.
pub trait Clock {
    /// Time since the phase started.
    fn now(&self) -> Duration;
    /// Block until [`Clock::now`] reaches `t` (return at once if it has).
    fn sleep_until(&self, t: Duration);
}

/// The host's monotonic clock, counted from `start`.
pub struct Wall(pub Instant);

impl Clock for Wall {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }
    fn sleep_until(&self, t: Duration) {
        let now = self.now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// What happened to one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub class: Class,
    pub key: u64,
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
}

impl Sample {
    /// Latency counted from the due time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }
    /// How late the generator sent the request, in milliseconds.
    pub fn lateness_ms(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e3
    }
}

/// Send every planned request in order, each no earlier than its due
/// time.  `send` performs and checks one exchange; a failed one is still a
/// sample, since its wait counts like any other.  With `until`, sending
/// stops (leaving the rest unsent) at that time.
pub fn drive<C: Clock>(
    clock: &C,
    plan: &[Planned],
    until: Option<Duration>,
    mut send: impl FnMut(&Planned),
) -> Vec<Sample> {
    let mut out = Vec::with_capacity(plan.len());
    for p in plan {
        clock.sleep_until(p.due);
        let sent = clock.now().max(p.due);
        if until.is_some_and(|end| sent >= end) {
            break;
        }
        send(p);
        out.push(Sample {
            class: p.class,
            key: p.key,
            due: p.due,
            sent,
            done: clock.now(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    struct FakeClock(Cell<Duration>);

    impl FakeClock {
        fn advance(&self, d: Duration) {
            self.0.set(self.0.get() + d);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, t: Duration) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    fn ms(v: f64) -> Duration {
        Duration::from_secs_f64(v / 1e3)
    }

    #[test]
    fn latency_counts_from_due_time_under_a_stall() {
        let plan: Vec<Planned> = [0.0, 1.0, 2.0, 10.0]
            .iter()
            .map(|&t| Planned {
                due: ms(t),
                class: Class::Probe,
                key: 0,
            })
            .collect();
        let clock = FakeClock(Cell::new(Duration::ZERO));
        // Every exchange takes 2.5 ms, so requests 1 and 2 queue behind
        // request 0 on the connection; request 3 finds it idle.
        let samples = drive(&clock, &plan, None, |_| clock.advance(ms(2.5)));
        let lat: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
        let late: Vec<f64> = samples.iter().map(Sample::lateness_ms).collect();
        let close = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9);
        assert!(close(&lat, &[2.5, 4.0, 5.5, 2.5]), "{lat:?}");
        assert!(close(&late, &[0.0, 1.5, 3.0, 0.0]), "{late:?}");
    }

    #[test]
    fn requests_all_due_at_once_form_a_closed_loop() {
        let plan: Vec<Planned> = (0..10)
            .map(|key| Planned {
                due: Duration::ZERO,
                class: Class::Hot,
                key,
            })
            .collect();
        let clock = FakeClock(Cell::new(Duration::ZERO));
        // Each exchange takes 3 ms and the next is sent when it returns;
        // sending stops at 10 ms, after four exchanges.
        let samples = drive(&clock, &plan, Some(ms(10.0)), |_| clock.advance(ms(3.0)));
        let sent: Vec<f64> = samples.iter().map(|s| s.sent.as_secs_f64() * 1e3).collect();
        assert_eq!(samples.len(), 4);
        assert!(
            sent.iter()
                .zip([0.0, 3.0, 6.0, 9.0])
                .all(|(a, b)| (a - b).abs() < 1e-9),
            "{sent:?}"
        );
    }

    #[test]
    fn streams_are_seeded() {
        let len = Duration::from_secs(20);
        let a = schedule(1, 0, 0, 1000.0, len);
        assert_eq!(a, schedule(1, 0, 0, 1000.0, len), "same seed, same stream");
        assert_ne!(a, schedule(2, 0, 0, 1000.0, len), "another seed");
        assert_ne!(a, schedule(1, 1, 0, 1000.0, len), "the other stream");
        assert_ne!(a, schedule(1, 0, 1, 1000.0, len), "another phase");
    }

    #[test]
    fn class_shares_and_rate_follow_the_mix() {
        for seed in [1, 2, 3] {
            let reqs = schedule(seed, 1, 4, 1000.0, Duration::from_secs(20));
            let n = reqs.len() as f64;
            assert!((n / 20_000.0 - 1.0).abs() < 0.03, "{n} requests");
            for (class, share) in MIX {
                let got = reqs.iter().filter(|r| r.class == class).count() as f64 / n;
                assert!((got - share).abs() < 0.02, "{class:?}: {got} vs {share}");
            }
            assert!(reqs.windows(2).all(|w| w[0].due <= w[1].due));
        }
    }

    #[test]
    fn distinct_keys_never_repeat_within_a_run() {
        let mut keys = std::collections::HashSet::new();
        for phase in 0..3 {
            for stream in 0..STREAMS {
                for r in schedule(5, stream, phase, 500.0, Duration::from_secs(4)) {
                    match r.class {
                        Class::Hot => assert!(r.key < HOT_POOL),
                        _ => assert!(keys.insert(r.key), "key {} repeated", r.key),
                    }
                }
            }
        }
    }
}
