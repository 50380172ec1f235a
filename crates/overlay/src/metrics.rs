//! CPU/wire time accounting for experiments.
//!
//! The paper's evaluation reports the *overhead* of the secure primitives
//! relative to the plain ones: +81.76 % for joining the network, and a
//! payload-size-dependent percentage for `secureMsgPeer` (Figure 2).  To
//! reproduce those numbers the harness needs to measure two components
//! separately:
//!
//! * **CPU time** — real wall-clock time spent computing (the cryptography
//!   plus ordinary message handling), measured with [`Stopwatch`].
//! * **Wire time** — the virtual network time charged by the
//!   [`crate::net::LinkModel`] for every message leg, accumulated by the
//!   client/broker modules in a [`WireTimeAccumulator`].
//!
//! An [`OperationTiming`] combines both, and [`overhead_percent`] computes the
//! relative overhead between a secure and a plain run of the same operation.

use crate::message::MessageKind;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The cost of one primitive invocation, split into compute and network time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperationTiming {
    /// Real compute time.
    pub cpu: Duration,
    /// Virtual wire time charged by the link model.
    pub wire: Duration,
}

impl OperationTiming {
    /// Creates a timing from its parts.
    pub fn new(cpu: Duration, wire: Duration) -> Self {
        OperationTiming { cpu, wire }
    }

    /// Total cost (compute plus network).
    pub fn total(&self) -> Duration {
        self.cpu + self.wire
    }

    /// Component-wise sum.
    pub fn add(&self, other: &OperationTiming) -> OperationTiming {
        OperationTiming {
            cpu: self.cpu + other.cpu,
            wire: self.wire + other.wire,
        }
    }
}

impl std::ops::Add for OperationTiming {
    type Output = OperationTiming;
    fn add(self, rhs: OperationTiming) -> OperationTiming {
        OperationTiming::add(&self, &rhs)
    }
}

impl std::iter::Sum for OperationTiming {
    fn sum<I: Iterator<Item = OperationTiming>>(iter: I) -> Self {
        iter.fold(OperationTiming::default(), |acc, t| acc + t)
    }
}

/// Relative overhead, in percent, of `secure` compared to `plain`
/// (e.g. 81.76 means the secure operation takes 81.76 % longer).
///
/// Returns `f64::INFINITY` when the plain cost is zero and the secure cost is
/// not.
pub fn overhead_percent(plain: Duration, secure: Duration) -> f64 {
    let plain_s = plain.as_secs_f64();
    let secure_s = secure.as_secs_f64();
    if plain_s == 0.0 {
        if secure_s == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (secure_s - plain_s) / plain_s * 100.0
    }
}

/// A simple wall-clock stopwatch.
#[derive(Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts a new stopwatch.
    pub fn start() -> Self {
        Stopwatch {
            start: crate::clock::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

/// Thread-safe accumulator for virtual wire time.
#[derive(Debug)]
pub struct WireTimeAccumulator {
    total: Mutex<Duration>,
}

impl Default for WireTimeAccumulator {
    fn default() -> Self {
        WireTimeAccumulator {
            total: Mutex::with_class("metrics.wire_time", Duration::ZERO),
        }
    }
}

impl WireTimeAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a wire-time contribution.
    pub fn add(&self, wire: Duration) {
        *self.total.lock() += wire;
    }

    /// Current accumulated total.
    pub fn total(&self) -> Duration {
        *self.total.lock()
    }

    /// Returns the accumulated total and resets it to zero.
    pub fn take(&self) -> Duration {
        std::mem::take(&mut *self.total.lock())
    }
}

/// Snapshot of a broker's ingress-pipeline activity (see
/// [`PipelineMetrics`]).  All zeros when the broker runs the classic
/// single-thread loop (`verify_workers == 0`) or is driven inline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Messages that traversed the staged pipeline (ticketed at ingress,
    /// decoded/verified by a worker, applied serially).
    pub messages_pipelined: u64,
    /// Contiguous runs of ready tickets drained by the apply stage in one
    /// go.  `messages_pipelined / apply_batches` is the mean batch size.
    pub apply_batches: u64,
    /// Largest single apply batch observed.
    pub max_apply_batch: u64,
    /// Worker completions that arrived ahead of a still-outstanding earlier
    /// ticket and had to park in the reorder buffer (how often the parallel
    /// verify stage actually ran ahead of arrival order).
    pub reorder_waits: u64,
    /// Partitioned apply lanes the dispatcher routes into (zero when the
    /// broker runs single-threaded or inline).
    pub apply_lanes: u64,
    /// Partition-local messages applied on a lane (everything else is a
    /// barrier, applied on the dispatcher itself).
    pub lane_messages: u64,
    /// Messages applied by the most loaded lane — together with
    /// `lane_messages / apply_lanes` this shows how even the shard-key
    /// spread actually was.
    pub busiest_lane_messages: u64,
    /// Partition-spanning messages applied on the dispatcher after a full
    /// lane drain.
    pub barriers_applied: u64,
    /// Barriers that found at least one lane busy and actually had to wait
    /// for it to quiesce (the rest hit idle lanes and applied immediately).
    pub barrier_drains: u64,
}

/// Thread-safe counters for the broker's staged ingress pipeline.
#[derive(Debug)]
pub struct PipelineMetrics {
    messages_pipelined: AtomicU64,
    apply_batches: AtomicU64,
    max_apply_batch: AtomicU64,
    reorder_waits: AtomicU64,
    barriers_applied: AtomicU64,
    barrier_drains: AtomicU64,
    /// One applied-message counter per apply lane, sized by
    /// [`PipelineMetrics::configure_lanes`] when the broker spawns.  Each
    /// lane thread holds a clone of the `Arc` and bumps its own slot, so the
    /// hot path never touches this mutex.
    lane_counters: Mutex<std::sync::Arc<[AtomicU64]>>,
}

impl Default for PipelineMetrics {
    fn default() -> Self {
        PipelineMetrics {
            messages_pipelined: AtomicU64::new(0),
            apply_batches: AtomicU64::new(0),
            max_apply_batch: AtomicU64::new(0),
            reorder_waits: AtomicU64::new(0),
            barriers_applied: AtomicU64::new(0),
            barrier_drains: AtomicU64::new(0),
            lane_counters: Mutex::with_class("metrics.lane_counters", std::sync::Arc::from(Vec::new())),
        }
    }
}

impl PipelineMetrics {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an apply-stage drain of `batch` consecutive tickets.
    pub fn record_apply_batch(&self, batch: u64) {
        self.messages_pipelined.fetch_add(batch, Ordering::Relaxed);
        self.apply_batches.fetch_add(1, Ordering::Relaxed);
        self.max_apply_batch.fetch_max(batch, Ordering::Relaxed);
    }

    /// Records a completion that had to park in the reorder buffer.
    pub fn count_reorder_wait(&self) {
        self.reorder_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Sizes the per-lane counters for a broker spawning `lanes` apply lanes
    /// and returns the shared counter array (one slot per lane).  Each lane
    /// thread keeps a clone and bumps its own slot directly.
    pub fn configure_lanes(&self, lanes: usize) -> std::sync::Arc<[AtomicU64]> {
        let counters: std::sync::Arc<[AtomicU64]> =
            (0..lanes).map(|_| AtomicU64::new(0)).collect();
        *self.lane_counters.lock() = std::sync::Arc::clone(&counters);
        counters
    }

    /// Records a partition-local message the router applied itself, which
    /// it does only on a single-core host (see [`crate::Broker::spawn`]); it
    /// still counts against the lane that owns the partition, so lane-load
    /// metrics reflect routing, not thread identity.
    pub fn count_lane_message(&self, lane: usize) {
        if let Some(counter) = self.lane_counters.lock().get(lane) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a partition-spanning message applied after a lane drain.
    pub fn count_barrier(&self) {
        self.barriers_applied.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a barrier that found at least one busy lane and had to wait.
    pub fn count_barrier_drain(&self) {
        self.barrier_drains.fetch_add(1, Ordering::Relaxed);
    }

    /// Per-lane applied-message counts, in lane order.
    pub fn lane_loads(&self) -> Vec<u64> {
        self.lane_counters
            .lock()
            .iter()
            .map(|counter| counter.load(Ordering::Relaxed))
            .collect()
    }

    /// Consistent snapshot of the counters.
    pub fn snapshot(&self) -> PipelineStats {
        let lanes = self.lane_loads();
        PipelineStats {
            messages_pipelined: self.messages_pipelined.load(Ordering::Relaxed),
            apply_batches: self.apply_batches.load(Ordering::Relaxed),
            max_apply_batch: self.max_apply_batch.load(Ordering::Relaxed),
            reorder_waits: self.reorder_waits.load(Ordering::Relaxed),
            apply_lanes: lanes.len() as u64,
            lane_messages: lanes.iter().sum(),
            busiest_lane_messages: lanes.iter().copied().max().unwrap_or(0),
            barriers_applied: self.barriers_applied.load(Ordering::Relaxed),
            barrier_drains: self.barrier_drains.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of a broker's federation activity (see [`FederationMetrics`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FederationStats {
    /// Gossip messages sent to peer brokers.
    pub syncs_sent: u64,
    /// Gossip messages received and applied to local state.
    pub syncs_applied: u64,
    /// Relayed client payloads forwarded to another broker.
    pub relays_forwarded: u64,
    /// Relayed client payloads delivered to a locally homed peer.
    pub relays_delivered: u64,
    /// Relays that could not be routed (unknown destination, dead peer).
    pub relays_failed: u64,
    /// Inter-broker messages rejected because the sender is not a known
    /// peer broker of the federation.
    pub rejected_unknown_origin: u64,
    /// Inter-broker messages rejected because their per-origin sequence
    /// number was stale (replay or out-of-order re-injection).
    pub rejected_replayed: u64,
    /// Lookups answered from this broker's own shard of the index.
    pub shard_hits: u64,
    /// Lookups routed to a remote shard replica (one per routed query,
    /// scatter-gather counts once).
    pub shard_misses: u64,
    /// Index/membership entries migrated off this broker when the shard ring
    /// membership changed.
    pub entries_migrated: u64,
    /// Anti-entropy rounds this broker initiated that sent a digest: one
    /// per peer broker below engagement, one to a single active-view member,
    /// in rotation, once the epidemic fabric is engaged.
    pub repair_rounds: u64,
    /// Anti-entropy digests received whose state hashes disagreed with the
    /// local replica (each one triggers a snapshot exchange).
    pub repair_mismatches: u64,
    /// Index/membership/routing entries (and extension-state entries, e.g.
    /// revocations) brought up to date by anti-entropy snapshot merges.
    pub entries_repaired: u64,
    /// Wire bytes of repair-protocol traffic this broker sent: digests,
    /// hash-tree descent legs and snapshot/page messages.  This is what the
    /// repair-bytes-vs-divergence experiment attributes — the global
    /// `NetStats::bytes_sent` cannot separate repair from gossip.
    pub repair_bytes: u64,
    /// Hash-tree descent legs ([`crate::message::MessageKind::AntiEntropyRange`])
    /// this broker sent while narrowing a divergence.
    pub descent_rounds: u64,
    /// Range-scoped snapshot pages sent during tree repair (the final legs
    /// that actually carry entries).
    pub repair_pages: u64,
    /// Broadcast gossip events pushed eagerly (full payload) along Plumtree
    /// tree edges, counted per (event, edge) pair.
    pub eager_pushes: u64,
    /// Lazy `IHave` digests sent on non-tree active edges.
    pub ihaves_sent: u64,
    /// `Graft` pulls sent after a digest revealed a missed broadcast (each
    /// one also promotes the advertising edge into the eager tree).
    pub grafts_sent: u64,
    /// `Prune` demotions sent after an edge delivered only duplicates.
    pub prunes_sent: u64,
    /// Grafted gossip ids whose payload had already left the bounded cache —
    /// the cases anti-entropy must heal instead.
    pub graft_misses: u64,
    /// Publishes this broker originated (the denominator of the fan-out
    /// counters below).
    pub publishes: u64,
    /// Sum over publishes of the peers addressed directly (full mesh: N−1;
    /// epidemic: the eager edge count; sharded: replicas plus member hosts).
    pub publish_fanout_total: u64,
    /// Largest single-publish fan-out observed.
    pub publish_fanout_max: u64,
    /// Lazy `IHave` digests *not* sent because per-publish advertisements
    /// were batched into the next repair tick's coalesced digest (each
    /// destination whose batch held n gossip ids saved n−1 digests).
    pub ihave_digests_saved: u64,
    /// SWIM direct probes sent (one member pinged per detector tick).
    pub swim_probes: u64,
    /// SWIM indirect ping-requests fanned out after direct-probe timeouts.
    pub swim_indirect_probes: u64,
    /// SWIM acks sent in answer to pings.
    pub swim_acks: u64,
    /// Members this broker newly marked `Suspect` (gossiped accusations).
    pub swim_suspicions: u64,
    /// Suspicions/death verdicts about *this* broker it refuted by bumping
    /// its incarnation.
    pub swim_refutations: u64,
    /// Members this broker confirmed `Dead` (locally expired or accepted
    /// from gossip) and evicted from its view and Plumtree edges.
    pub swim_deaths: u64,
}

/// Thread-safe counters describing a broker's participation in the
/// federation backbone: gossip replication, client-payload relaying and the
/// rejection of unauthentic or replayed inter-broker traffic.
#[derive(Debug, Default)]
pub struct FederationMetrics {
    syncs_sent: AtomicU64,
    syncs_applied: AtomicU64,
    relays_forwarded: AtomicU64,
    relays_delivered: AtomicU64,
    relays_failed: AtomicU64,
    rejected_unknown_origin: AtomicU64,
    rejected_replayed: AtomicU64,
    shard_hits: AtomicU64,
    shard_misses: AtomicU64,
    entries_migrated: AtomicU64,
    repair_rounds: AtomicU64,
    repair_mismatches: AtomicU64,
    entries_repaired: AtomicU64,
    repair_bytes: AtomicU64,
    descent_rounds: AtomicU64,
    repair_pages: AtomicU64,
    eager_pushes: AtomicU64,
    ihaves_sent: AtomicU64,
    grafts_sent: AtomicU64,
    prunes_sent: AtomicU64,
    graft_misses: AtomicU64,
    publishes: AtomicU64,
    publish_fanout_total: AtomicU64,
    publish_fanout_max: AtomicU64,
    ihave_digests_saved: AtomicU64,
    swim_probes: AtomicU64,
    swim_indirect_probes: AtomicU64,
    swim_acks: AtomicU64,
    swim_suspicions: AtomicU64,
    swim_refutations: AtomicU64,
    swim_deaths: AtomicU64,
}

impl FederationMetrics {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one successful backbone send of `kind`, `bytes` long on the
    /// wire: the one kind → counter table, called only by the broker's
    /// network endpoint once the send succeeded.  Repair traffic counts its
    /// bytes (and a descent leg its leg); shuffles and shard queries and
    /// responses count nothing.
    pub fn count_sent(&self, kind: MessageKind, bytes: u64) {
        let counter = match kind {
            MessageKind::BrokerSync => &self.syncs_sent,
            MessageKind::BrokerRelay => &self.relays_forwarded,
            MessageKind::PlumtreeIHave => &self.ihaves_sent,
            MessageKind::PlumtreeGraft => &self.grafts_sent,
            MessageKind::PlumtreePrune => &self.prunes_sent,
            // Direct probes and relayed pings alike.
            MessageKind::SwimPing => &self.swim_probes,
            MessageKind::SwimPingReq => &self.swim_indirect_probes,
            MessageKind::SwimAck => &self.swim_acks,
            MessageKind::AntiEntropyRange => {
                self.repair_bytes.fetch_add(bytes, Ordering::Relaxed);
                &self.descent_rounds
            }
            MessageKind::AntiEntropyDigest | MessageKind::AntiEntropySnapshot => {
                self.repair_bytes.fetch_add(bytes, Ordering::Relaxed);
                return;
            }
            _ => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a gossip message applied to local state.
    pub fn count_sync_applied(&self) {
        self.syncs_applied.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a relay delivered to a locally homed peer.
    pub fn count_relay_delivered(&self) {
        self.relays_delivered.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a relay that could not be routed.
    pub fn count_relay_failed(&self) {
        self.relays_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an inter-broker message from an unknown origin.
    pub fn count_rejected_unknown_origin(&self) {
        self.rejected_unknown_origin.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a replayed (stale-sequence) inter-broker message.
    pub fn count_rejected_replayed(&self) {
        self.rejected_replayed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a lookup answered from the local shard.
    pub fn count_shard_hit(&self) {
        self.shard_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a lookup routed to a remote shard replica.
    pub fn count_shard_miss(&self) {
        self.shard_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` entries migrated off this broker during re-sharding.
    pub fn count_entries_migrated(&self, n: u64) {
        self.entries_migrated.fetch_add(n, Ordering::Relaxed);
    }

    /// Records an initiated anti-entropy round.
    pub fn count_repair_round(&self) {
        self.repair_rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an anti-entropy digest that disagreed with the local state.
    pub fn count_repair_mismatch(&self) {
        self.repair_mismatches.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` entries healed by an anti-entropy snapshot merge.
    pub fn count_entries_repaired(&self, n: u64) {
        self.entries_repaired.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a range-scoped snapshot page sent.
    pub fn count_repair_page(&self) {
        self.repair_pages.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` eager pushes of one broadcast event (one per tree edge).
    pub fn count_eager_pushes(&self, n: u64) {
        self.eager_pushes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a grafted gossip id whose payload was no longer cached.
    pub fn count_graft_miss(&self) {
        self.graft_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one originated publish that directly addressed `fanout` peers.
    pub fn count_publish_fanout(&self, fanout: u64) {
        self.publishes.fetch_add(1, Ordering::Relaxed);
        self.publish_fanout_total.fetch_add(fanout, Ordering::Relaxed);
        self.publish_fanout_max.fetch_max(fanout, Ordering::Relaxed);
    }

    /// Records `n` lazy `IHave` digests saved by batching advertisements
    /// across publishes into one digest per repair tick.
    pub fn count_ihave_digests_saved(&self, n: u64) {
        self.ihave_digests_saved.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a member newly marked `Suspect`.
    pub fn count_swim_suspicion(&self) {
        self.swim_suspicions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an accusation about this broker it refuted.
    pub fn count_swim_refutation(&self) {
        self.swim_refutations.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a member confirmed `Dead` and evicted from the view.
    pub fn count_swim_death(&self) {
        self.swim_deaths.fetch_add(1, Ordering::Relaxed);
    }

    /// Consistent snapshot of the counters.
    pub fn snapshot(&self) -> FederationStats {
        FederationStats {
            syncs_sent: self.syncs_sent.load(Ordering::Relaxed),
            syncs_applied: self.syncs_applied.load(Ordering::Relaxed),
            relays_forwarded: self.relays_forwarded.load(Ordering::Relaxed),
            relays_delivered: self.relays_delivered.load(Ordering::Relaxed),
            relays_failed: self.relays_failed.load(Ordering::Relaxed),
            rejected_unknown_origin: self.rejected_unknown_origin.load(Ordering::Relaxed),
            rejected_replayed: self.rejected_replayed.load(Ordering::Relaxed),
            shard_hits: self.shard_hits.load(Ordering::Relaxed),
            shard_misses: self.shard_misses.load(Ordering::Relaxed),
            entries_migrated: self.entries_migrated.load(Ordering::Relaxed),
            repair_rounds: self.repair_rounds.load(Ordering::Relaxed),
            repair_mismatches: self.repair_mismatches.load(Ordering::Relaxed),
            entries_repaired: self.entries_repaired.load(Ordering::Relaxed),
            repair_bytes: self.repair_bytes.load(Ordering::Relaxed),
            descent_rounds: self.descent_rounds.load(Ordering::Relaxed),
            repair_pages: self.repair_pages.load(Ordering::Relaxed),
            eager_pushes: self.eager_pushes.load(Ordering::Relaxed),
            ihaves_sent: self.ihaves_sent.load(Ordering::Relaxed),
            grafts_sent: self.grafts_sent.load(Ordering::Relaxed),
            prunes_sent: self.prunes_sent.load(Ordering::Relaxed),
            graft_misses: self.graft_misses.load(Ordering::Relaxed),
            publishes: self.publishes.load(Ordering::Relaxed),
            publish_fanout_total: self.publish_fanout_total.load(Ordering::Relaxed),
            publish_fanout_max: self.publish_fanout_max.load(Ordering::Relaxed),
            ihave_digests_saved: self.ihave_digests_saved.load(Ordering::Relaxed),
            swim_probes: self.swim_probes.load(Ordering::Relaxed),
            swim_indirect_probes: self.swim_indirect_probes.load(Ordering::Relaxed),
            swim_acks: self.swim_acks.load(Ordering::Relaxed),
            swim_suspicions: self.swim_suspicions.load(Ordering::Relaxed),
            swim_refutations: self.swim_refutations.load(Ordering::Relaxed),
            swim_deaths: self.swim_deaths.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operation_timing_arithmetic() {
        let a = OperationTiming::new(Duration::from_millis(10), Duration::from_millis(5));
        let b = OperationTiming::new(Duration::from_millis(1), Duration::from_millis(2));
        assert_eq!(a.total(), Duration::from_millis(15));
        let sum = a + b;
        assert_eq!(sum.cpu, Duration::from_millis(11));
        assert_eq!(sum.wire, Duration::from_millis(7));
        let total: OperationTiming = [a, b].into_iter().sum();
        assert_eq!(total, sum);
        assert_eq!(OperationTiming::default().total(), Duration::ZERO);
    }

    #[test]
    fn overhead_percent_basic() {
        assert!((overhead_percent(Duration::from_millis(100), Duration::from_millis(182)) - 82.0).abs() < 1e-9);
        assert_eq!(overhead_percent(Duration::from_millis(100), Duration::from_millis(100)), 0.0);
        assert!(overhead_percent(Duration::from_millis(100), Duration::from_millis(50)) < 0.0);
    }

    #[test]
    fn overhead_percent_zero_baseline() {
        assert_eq!(overhead_percent(Duration::ZERO, Duration::ZERO), 0.0);
        assert_eq!(overhead_percent(Duration::ZERO, Duration::from_millis(1)), f64::INFINITY);
    }

    #[test]
    fn stopwatch_measures_time() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(5));
        // A sleep lasts at least its duration, so this holds however the
        // thread is scheduled.
        assert!(sw.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn wire_accumulator_add_and_take() {
        let acc = WireTimeAccumulator::new();
        acc.add(Duration::from_millis(2));
        acc.add(Duration::from_millis(3));
        assert_eq!(acc.total(), Duration::from_millis(5));
        assert_eq!(acc.take(), Duration::from_millis(5));
        assert_eq!(acc.total(), Duration::ZERO);
    }

    #[test]
    fn federation_metrics_count_and_snapshot() {
        let metrics = FederationMetrics::new();
        assert_eq!(metrics.snapshot(), FederationStats::default());
        metrics.count_sent(MessageKind::BrokerSync, 100);
        metrics.count_sent(MessageKind::BrokerSync, 100);
        metrics.count_sync_applied();
        metrics.count_sent(MessageKind::BrokerRelay, 100);
        metrics.count_relay_delivered();
        metrics.count_relay_failed();
        metrics.count_rejected_unknown_origin();
        metrics.count_rejected_replayed();
        metrics.count_shard_hit();
        metrics.count_shard_miss();
        metrics.count_shard_miss();
        metrics.count_entries_migrated(3);
        metrics.count_repair_round();
        metrics.count_repair_mismatch();
        metrics.count_repair_mismatch();
        metrics.count_entries_repaired(5);
        metrics.count_sent(MessageKind::AntiEntropySnapshot, 128);
        metrics.count_sent(MessageKind::AntiEntropyRange, 64);
        metrics.count_repair_page();
        metrics.count_repair_page();
        metrics.count_eager_pushes(4);
        metrics.count_sent(MessageKind::PlumtreeIHave, 100);
        metrics.count_sent(MessageKind::PlumtreeGraft, 100);
        metrics.count_sent(MessageKind::PlumtreePrune, 100);
        metrics.count_graft_miss();
        metrics.count_publish_fanout(3);
        metrics.count_publish_fanout(7);
        metrics.count_ihave_digests_saved(4);
        metrics.count_sent(MessageKind::SwimPing, 100);
        metrics.count_sent(MessageKind::SwimPing, 100);
        metrics.count_sent(MessageKind::SwimPingReq, 100);
        metrics.count_sent(MessageKind::SwimAck, 100);
        metrics.count_swim_suspicion();
        metrics.count_swim_refutation();
        metrics.count_swim_death();
        let stats = metrics.snapshot();
        assert_eq!(stats.syncs_sent, 2);
        assert_eq!(stats.syncs_applied, 1);
        assert_eq!(stats.relays_forwarded, 1);
        assert_eq!(stats.relays_delivered, 1);
        assert_eq!(stats.relays_failed, 1);
        assert_eq!(stats.rejected_unknown_origin, 1);
        assert_eq!(stats.rejected_replayed, 1);
        assert_eq!(stats.shard_hits, 1);
        assert_eq!(stats.shard_misses, 2);
        assert_eq!(stats.entries_migrated, 3);
        assert_eq!(stats.repair_rounds, 1);
        assert_eq!(stats.repair_mismatches, 2);
        assert_eq!(stats.entries_repaired, 5);
        assert_eq!(stats.repair_bytes, 192);
        assert_eq!(stats.descent_rounds, 1);
        assert_eq!(stats.repair_pages, 2);
        assert_eq!(stats.eager_pushes, 4);
        assert_eq!(stats.ihaves_sent, 1);
        assert_eq!(stats.grafts_sent, 1);
        assert_eq!(stats.prunes_sent, 1);
        assert_eq!(stats.graft_misses, 1);
        assert_eq!(stats.publishes, 2);
        assert_eq!(stats.publish_fanout_total, 10);
        assert_eq!(stats.publish_fanout_max, 7);
        assert_eq!(stats.ihave_digests_saved, 4);
        assert_eq!(stats.swim_probes, 2);
        assert_eq!(stats.swim_indirect_probes, 1);
        assert_eq!(stats.swim_acks, 1);
        assert_eq!(stats.swim_suspicions, 1);
        assert_eq!(stats.swim_refutations, 1);
        assert_eq!(stats.swim_deaths, 1);
    }

    #[test]
    fn pipeline_metrics_count_batches() {
        let metrics = PipelineMetrics::new();
        assert_eq!(metrics.snapshot(), PipelineStats::default());
        metrics.record_apply_batch(3);
        metrics.record_apply_batch(1);
        metrics.record_apply_batch(5);
        metrics.count_reorder_wait();
        let stats = metrics.snapshot();
        assert_eq!(stats.messages_pipelined, 9);
        assert_eq!(stats.apply_batches, 3);
        assert_eq!(stats.max_apply_batch, 5);
        assert_eq!(stats.reorder_waits, 1);
        assert_eq!(stats.apply_lanes, 0, "no lanes configured");
    }

    #[test]
    fn pipeline_metrics_aggregate_lane_counters() {
        let metrics = PipelineMetrics::new();
        let counters = metrics.configure_lanes(3);
        counters[0].fetch_add(4, Ordering::Relaxed);
        counters[2].fetch_add(7, Ordering::Relaxed);
        metrics.count_barrier();
        metrics.count_barrier();
        metrics.count_barrier_drain();
        let stats = metrics.snapshot();
        assert_eq!(stats.apply_lanes, 3);
        assert_eq!(stats.lane_messages, 11);
        assert_eq!(stats.busiest_lane_messages, 7);
        assert_eq!(stats.barriers_applied, 2);
        assert_eq!(stats.barrier_drains, 1);
        assert_eq!(metrics.lane_loads(), vec![4, 0, 7]);
        // Reconfiguring replaces the counter array.
        metrics.configure_lanes(1);
        assert_eq!(metrics.snapshot().lane_messages, 0);
    }

    #[test]
    fn wire_accumulator_is_thread_safe() {
        let acc = std::sync::Arc::new(WireTimeAccumulator::new());
        crossbeam::thread::scope(|s| {
            for _ in 0..8 {
                let acc = std::sync::Arc::clone(&acc);
                s.spawn(move |_| {
                    for _ in 0..100 {
                        acc.add(Duration::from_micros(10));
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(acc.total(), Duration::from_micros(8 * 100 * 10));
    }
}
