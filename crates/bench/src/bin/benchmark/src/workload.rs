//! What every workload shares: run settings, the outcome it reports, seed
//! derivation and the timed set-up.

use crate::clock::Clock;
use crate::trace::Tracer;
use jxta_crypto::drbg::HmacDrbg;
use jxta_overlay::MessageKind;
use jxta_overlay_secure::PeerIdentity;
use rand::RngCore;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// RSA modulus size of every identity: the paper's size and the repo
/// default.
pub const KEY_BITS: usize = 1024;

/// Deployments built per run; the median build time is `setup_s`, so one
/// slow build (a long prime search, a preempted thread) does not move it.
pub const SETUP_REPEATS: usize = 7;

/// How one workload run is driven.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the timed phase.
    pub phase: Duration,
    /// Untimed warm-up before it (caches fill, lazy set-up finishes).
    pub warmup: Duration,
    /// Smaller deployments for smoke runs and tests.
    pub quick: bool,
    /// Record spans and the wire tap, and report per-layer metrics.
    pub trace: bool,
}

/// What a workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations and checks attempted (warm-up included).
    pub attempted: u64,
    /// Of those, the ones that failed: errors, timeouts, wrong outputs.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Time of each deployment build, in scaled seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each of the workload's headline operations in the timed
    /// phase, in scaled milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Units of work completed in the timed phase (what `ops_per_s` counts).
    pub ops: f64,
    /// Duration of the timed phase, in scaled seconds.
    pub phase_s: f64,
    /// Bytes sent on the simulated network during the timed phase.
    pub wire_bytes: u64,
    /// Workload-specific readings, printed as `workload metric value unit`.
    pub readings: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// The traced run's instruments, for the trace file.
    pub tracer: Option<Arc<Tracer>>,
}

impl Outcome {
    /// Counts one attempted operation or check; `Err` counts it failed.
    pub fn check<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(error) => {
                self.failed += 1;
                if self.failures.len() < 8 {
                    self.failures.push(format!("{what}: {error}"));
                }
                None
            }
        }
    }

    /// Counts one attempted check of a condition.
    pub fn expect(&mut self, what: &str, ok: bool) -> bool {
        self.check(what, if ok { Ok(()) } else { Err("check failed") })
            .is_some()
    }

    /// Records a workload-specific reading.
    pub fn reading(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.readings.push((name, value, unit));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

/// SplitMix64 finaliser: derives independent seeds from the run seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded generator for one input stream of the run.
pub fn rng(seed: u64, stream: u64) -> HmacDrbg {
    HmacDrbg::from_seed_u64(derive(seed, stream))
}

/// Uniform index in `0..n`.
pub fn pick(rng: &mut HmacDrbg, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Printable seeded text of `len` bytes.
pub fn text(rng: &mut HmacDrbg, len: usize) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 ";
    let mut bytes = rng.generate_vec(len);
    for byte in &mut bytes {
        *byte = ALPHABET[usize::from(*byte) % ALPHABET.len()];
    }
    String::from_utf8(bytes).expect("ASCII alphabet")
}

/// Generates `count` client identities from the seed, on two threads.  Key
/// generation is boot cost (as in the paper's E1), so it runs before the
/// timed set-up.  Identity `i` depends only on `(seed, i)`.
pub fn identities(seed: u64, count: usize) -> Vec<PeerIdentity> {
    let generate = |i: usize| {
        PeerIdentity::generate(&mut rng(seed, 0x1D00 + i as u64), KEY_BITS)
            .expect("client key generation")
    };
    let half = count / 2;
    std::thread::scope(|scope| {
        let first = scope.spawn(|| (0..half).map(generate).collect::<Vec<_>>());
        let second: Vec<_> = (half..count).map(generate).collect();
        let mut all = first.join().expect("key generation thread");
        all.extend(second);
        all
    })
}

/// Builds the deployment [`SETUP_REPEATS`] times (build `i` from its own
/// derived seed), records each build's scaled time (see [`Clock::time`]),
/// tears each build down before the next and returns the last.
pub fn timed_setup<T>(
    outcome: &mut Outcome,
    clock: &Clock,
    mut build: impl FnMut(u64) -> T,
    mut teardown: impl FnMut(T),
) -> T {
    let mut kept = None;
    for repeat in 0..SETUP_REPEATS as u64 {
        if let Some(previous) = kept.take() {
            teardown(previous);
        }
        let (world, seconds) = clock.time(|| build(repeat));
        kept = Some(world);
        outcome.setup_s.push(seconds);
    }
    kept.expect("at least one set-up")
}

/// Drives `step` (one closed-loop operation; `true` when it is timed)
/// through the warm-up and then the timed phase, arming the tracer for the
/// latter.  The clock calibrates between steps, while the program is idle.
/// Returns the timed phase's length in scaled seconds.
pub fn phases(
    settings: &Settings,
    clock: &Clock,
    tracer: Option<&Tracer>,
    mut step: impl FnMut(bool),
) -> f64 {
    let warmup = Instant::now();
    while warmup.elapsed() < settings.warmup {
        clock.idle();
        step(false);
    }
    if let Some(tracer) = tracer {
        tracer.arm(true);
    }
    let wall = Instant::now();
    let start = clock.now();
    while wall.elapsed() < settings.phase {
        clock.idle();
        step(true);
    }
    let phase = clock.now() - start;
    if let Some(tracer) = tracer {
        tracer.arm(false);
    }
    phase
}

/// The message kinds whose per-operation counts the traced run reports.
pub const COUNTED_KINDS: [(MessageKind, &str); 10] = [
    (MessageKind::LookupRequest, "net.msgs_per_op.LookupRequest"),
    (
        MessageKind::AdvertisementPush,
        "net.msgs_per_op.AdvertisementPush",
    ),
    (MessageKind::BrokerSync, "net.msgs_per_op.BrokerSync"),
    (MessageKind::PlumtreeIHave, "net.msgs_per_op.PlumtreeIHave"),
    (MessageKind::PlumtreeGraft, "net.msgs_per_op.PlumtreeGraft"),
    (
        MessageKind::AntiEntropyDigest,
        "net.msgs_per_op.AntiEntropyDigest",
    ),
    (
        MessageKind::AntiEntropyRange,
        "net.msgs_per_op.AntiEntropyRange",
    ),
    (
        MessageKind::AntiEntropySnapshot,
        "net.msgs_per_op.AntiEntropySnapshot",
    ),
    (
        MessageKind::MembershipShuffle,
        "net.msgs_per_op.MembershipShuffle",
    ),
    (MessageKind::SwimPing, "net.msgs_per_op.SwimPing"),
];

/// Per-layer metrics every traced workload derives from the tap alone:
/// messages per operation, in total and per counted kind.
pub fn wire_layers(outcome: &mut Outcome, tracer: &Tracer, ops: f64) {
    outcome.layer("net.msgs_per_op", tracer.all_kinds().count as f64 / ops);
    for (kind, name) in COUNTED_KINDS {
        outcome.layer(name, tracer.kind_totals(kind).count as f64 / ops);
    }
}
