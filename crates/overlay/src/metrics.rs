//! Counters and CPU/wire time accounting for experiments.
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
//!
//! Every experiment also reads what a broker did from its counters.  They
//! live in one crate-private registry per broker, a typed array of atomic
//! counters with one `add` (and one `max` for the two high-water marks), so
//! counting takes no lock; [`FederationStats`] and [`PipelineStats`] are its
//! snapshots, built field for field.

use crate::message::MessageKind;
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

/// Thread-safe accumulator for virtual wire time: a nanosecond count, so
/// adding takes no lock.
#[derive(Debug, Default)]
pub struct WireTimeAccumulator {
    nanos: AtomicU64,
}

impl WireTimeAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a wire-time contribution.
    pub fn add(&self, wire: Duration) {
        let nanos = u64::try_from(wire.as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Current accumulated total.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }

    /// Returns the accumulated total and resets it to zero.
    pub fn take(&self) -> Duration {
        Duration::from_nanos(self.nanos.swap(0, Ordering::Relaxed))
    }
}

/// Snapshot of a broker's ingress-pipeline activity (see
/// [`crate::broker::Broker::pipeline_stats`]).  All zeros when the broker
/// runs the classic single-thread loop (`verify_workers == 0`) or is driven
/// inline.
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

/// Snapshot of a broker's federation activity (see
/// [`crate::broker::Broker::federation_stats`]).
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

/// Declares [`Counter`] with [`Counter::ALL`], its variants in slot order.
macro_rules! counters {
    ($($counter:ident),* $(,)?) => {
        /// One slot of a [`Registry`]: each counter is the [`FederationStats`]
        /// or [`PipelineStats`] field of the same name.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Counter {
            $($counter),*
        }

        impl Counter {
            /// Every counter, in slot order.
            pub(crate) const ALL: &'static [Counter] = &[$(Counter::$counter),*];
        }
    };
}

counters!(
    SyncsSent, SyncsApplied, RelaysForwarded, RelaysDelivered, RelaysFailed,
    RejectedUnknownOrigin, RejectedReplayed, ShardHits, ShardMisses, EntriesMigrated,
    RepairRounds, RepairMismatches, EntriesRepaired, RepairBytes, DescentRounds, RepairPages,
    EagerPushes, IhavesSent, GraftsSent, PrunesSent, GraftMisses,
    Publishes, PublishFanoutTotal, PublishFanoutMax, IhaveDigestsSaved,
    SwimProbes, SwimIndirectProbes, SwimAcks, SwimSuspicions, SwimRefutations, SwimDeaths,
    MessagesPipelined, ApplyBatches, MaxApplyBatch, ReorderWaits, ApplyLanes,
    BarriersApplied, BarrierDrains,
);

/// A broker's counters: one atomic slot per [`Counter`], plus one
/// applied-message slot per apply lane, allocated with the broker.  Every
/// count is one atomic add, so counting takes no lock; the snapshots read
/// each slot once.
#[derive(Debug)]
pub(crate) struct Registry {
    counters: [AtomicU64; Counter::ALL.len()],
    lanes: Box<[AtomicU64]>,
}

impl Registry {
    /// Zeroed counters with `lanes` apply-lane slots.
    pub(crate) fn new(lanes: usize) -> Self {
        Registry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            lanes: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Adds `n` to `counter`.
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the high-water mark `counter` to `n`.
    pub(crate) fn max(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_max(n, Ordering::Relaxed);
    }

    /// Counts one message applied for apply lane `lane`; a lane past the
    /// slots the broker was built with counts nothing.
    pub(crate) fn lane(&self, lane: usize) {
        if let Some(slot) = self.lanes.get(lane) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The one kind → counter table: what a successful backbone send of
    /// `kind`, `bytes` long on the wire, counts.  Only the broker's network
    /// endpoint calls it.  Repair traffic counts its bytes (and a descent
    /// leg its leg); shuffles and shard queries and responses count nothing.
    pub(crate) fn sent(&self, kind: MessageKind, bytes: u64) {
        let counter = match kind {
            MessageKind::BrokerSync => Counter::SyncsSent,
            MessageKind::BrokerRelay => Counter::RelaysForwarded,
            MessageKind::PlumtreeIHave => Counter::IhavesSent,
            MessageKind::PlumtreeGraft => Counter::GraftsSent,
            MessageKind::PlumtreePrune => Counter::PrunesSent,
            // Direct probes and relayed pings alike.
            MessageKind::SwimPing => Counter::SwimProbes,
            MessageKind::SwimPingReq => Counter::SwimIndirectProbes,
            MessageKind::SwimAck => Counter::SwimAcks,
            MessageKind::AntiEntropyRange => {
                self.add(Counter::RepairBytes, bytes);
                Counter::DescentRounds
            }
            MessageKind::AntiEntropyDigest | MessageKind::AntiEntropySnapshot => {
                return self.add(Counter::RepairBytes, bytes);
            }
            _ => return,
        };
        self.add(counter, 1);
    }

    fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// The federation counters, field for field.
    pub(crate) fn federation(&self) -> FederationStats {
        use Counter::*;
        FederationStats {
            syncs_sent: self.get(SyncsSent),
            syncs_applied: self.get(SyncsApplied),
            relays_forwarded: self.get(RelaysForwarded),
            relays_delivered: self.get(RelaysDelivered),
            relays_failed: self.get(RelaysFailed),
            rejected_unknown_origin: self.get(RejectedUnknownOrigin),
            rejected_replayed: self.get(RejectedReplayed),
            shard_hits: self.get(ShardHits),
            shard_misses: self.get(ShardMisses),
            entries_migrated: self.get(EntriesMigrated),
            repair_rounds: self.get(RepairRounds),
            repair_mismatches: self.get(RepairMismatches),
            entries_repaired: self.get(EntriesRepaired),
            repair_bytes: self.get(RepairBytes),
            descent_rounds: self.get(DescentRounds),
            repair_pages: self.get(RepairPages),
            eager_pushes: self.get(EagerPushes),
            ihaves_sent: self.get(IhavesSent),
            grafts_sent: self.get(GraftsSent),
            prunes_sent: self.get(PrunesSent),
            graft_misses: self.get(GraftMisses),
            publishes: self.get(Publishes),
            publish_fanout_total: self.get(PublishFanoutTotal),
            publish_fanout_max: self.get(PublishFanoutMax),
            ihave_digests_saved: self.get(IhaveDigestsSaved),
            swim_probes: self.get(SwimProbes),
            swim_indirect_probes: self.get(SwimIndirectProbes),
            swim_acks: self.get(SwimAcks),
            swim_suspicions: self.get(SwimSuspicions),
            swim_refutations: self.get(SwimRefutations),
            swim_deaths: self.get(SwimDeaths),
        }
    }

    /// The pipeline counters, field for field; the lane fields aggregate
    /// the lane slots.
    pub(crate) fn pipeline(&self) -> PipelineStats {
        use Counter::*;
        let lanes = self.lanes.iter().map(|slot| slot.load(Ordering::Relaxed));
        PipelineStats {
            messages_pipelined: self.get(MessagesPipelined),
            apply_batches: self.get(ApplyBatches),
            max_apply_batch: self.get(MaxApplyBatch),
            reorder_waits: self.get(ReorderWaits),
            apply_lanes: self.get(ApplyLanes),
            lane_messages: lanes.clone().sum(),
            busiest_lane_messages: lanes.max().unwrap_or(0),
            barriers_applied: self.get(BarriersApplied),
            barrier_drains: self.get(BarrierDrains),
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

    /// Every snapshot field, federation then pipeline.
    fn fields(registry: &Registry) -> Vec<u64> {
        let f = registry.federation();
        let p = registry.pipeline();
        vec![
            f.syncs_sent, f.syncs_applied, f.relays_forwarded, f.relays_delivered, f.relays_failed,
            f.rejected_unknown_origin, f.rejected_replayed, f.shard_hits, f.shard_misses,
            f.entries_migrated, f.repair_rounds, f.repair_mismatches, f.entries_repaired,
            f.repair_bytes, f.descent_rounds, f.repair_pages, f.eager_pushes, f.ihaves_sent,
            f.grafts_sent, f.prunes_sent, f.graft_misses, f.publishes, f.publish_fanout_total,
            f.publish_fanout_max, f.ihave_digests_saved, f.swim_probes, f.swim_indirect_probes,
            f.swim_acks, f.swim_suspicions, f.swim_refutations, f.swim_deaths,
            p.messages_pipelined, p.apply_batches, p.max_apply_batch, p.reorder_waits,
            p.apply_lanes, p.lane_messages, p.busiest_lane_messages, p.barriers_applied,
            p.barrier_drains,
        ]
    }

    /// Walks every counter: `bump` on a fresh registry moves exactly one
    /// snapshot field, and a different one for each counter.
    fn each_counter_moves_its_own_field(bump: fn(&Registry, Counter)) {
        let mut moved: Vec<usize> = Counter::ALL
            .iter()
            .map(|&counter| {
                let registry = Registry::new(2);
                bump(&registry, counter);
                let changed: Vec<usize> =
                    fields(&registry).iter().enumerate().filter(|(_, v)| **v != 0).map(|(i, _)| i).collect();
                assert_eq!(changed.len(), 1, "{counter:?} moved fields {changed:?}");
                changed[0]
            })
            .collect();
        moved.sort_unstable();
        moved.dedup();
        assert_eq!(moved.len(), Counter::ALL.len(), "two counters share a field");
    }

    #[test]
    fn federation_metrics_count_and_snapshot() {
        use Counter::*;
        let metrics = Registry::new(0);
        assert_eq!(metrics.federation(), FederationStats::default());
        metrics.sent(MessageKind::BrokerSync, 100);
        metrics.sent(MessageKind::BrokerSync, 100);
        metrics.add(SyncsApplied, 1);
        metrics.sent(MessageKind::BrokerRelay, 100);
        metrics.add(RelaysDelivered, 1);
        metrics.add(RelaysFailed, 1);
        metrics.add(RejectedUnknownOrigin, 1);
        metrics.add(RejectedReplayed, 1);
        metrics.add(ShardHits, 1);
        metrics.add(ShardMisses, 1);
        metrics.add(ShardMisses, 1);
        metrics.add(EntriesMigrated, 3);
        metrics.add(RepairRounds, 1);
        metrics.add(RepairMismatches, 1);
        metrics.add(RepairMismatches, 1);
        metrics.add(EntriesRepaired, 5);
        metrics.sent(MessageKind::AntiEntropySnapshot, 128);
        metrics.sent(MessageKind::AntiEntropyRange, 64);
        metrics.add(RepairPages, 1);
        metrics.add(RepairPages, 1);
        metrics.add(EagerPushes, 4);
        metrics.sent(MessageKind::PlumtreeIHave, 100);
        metrics.sent(MessageKind::PlumtreeGraft, 100);
        metrics.sent(MessageKind::PlumtreePrune, 100);
        metrics.add(GraftMisses, 1);
        for fanout in [3, 7] {
            metrics.add(Publishes, 1);
            metrics.add(PublishFanoutTotal, fanout);
            metrics.max(PublishFanoutMax, fanout);
        }
        metrics.add(IhaveDigestsSaved, 4);
        metrics.sent(MessageKind::SwimPing, 100);
        metrics.sent(MessageKind::SwimPing, 100);
        metrics.sent(MessageKind::SwimPingReq, 100);
        metrics.sent(MessageKind::SwimAck, 100);
        metrics.add(SwimSuspicions, 1);
        metrics.add(SwimRefutations, 1);
        metrics.add(SwimDeaths, 1);
        let stats = metrics.federation();
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
        // The federation counters move no pipeline field.
        assert_eq!(metrics.pipeline(), PipelineStats::default());
        each_counter_moves_its_own_field(|registry, counter| registry.add(counter, 1));
    }

    #[test]
    fn pipeline_metrics_count_batches() {
        use Counter::*;
        let metrics = Registry::new(0);
        assert_eq!(metrics.pipeline(), PipelineStats::default());
        for batch in [3, 1, 5] {
            metrics.add(MessagesPipelined, batch);
            metrics.add(ApplyBatches, 1);
            metrics.max(MaxApplyBatch, batch);
        }
        metrics.add(ReorderWaits, 1);
        let stats = metrics.pipeline();
        assert_eq!(stats.messages_pipelined, 9);
        assert_eq!(stats.apply_batches, 3);
        assert_eq!(stats.max_apply_batch, 5);
        assert_eq!(stats.reorder_waits, 1);
        assert_eq!(stats.apply_lanes, 0, "no lanes configured");
        // A high-water mark never falls, and `max` too moves one field.
        metrics.max(MaxApplyBatch, 2);
        assert_eq!(metrics.pipeline().max_apply_batch, 5);
        each_counter_moves_its_own_field(|registry, counter| registry.max(counter, 1));
    }

    #[test]
    fn pipeline_metrics_aggregate_lane_counters() {
        use Counter::*;
        let metrics = Registry::new(3);
        metrics.add(ApplyLanes, 3);
        for _ in 0..4 {
            metrics.lane(0);
        }
        for _ in 0..7 {
            metrics.lane(2);
        }
        metrics.add(BarriersApplied, 1);
        metrics.add(BarriersApplied, 1);
        metrics.add(BarrierDrains, 1);
        let stats = metrics.pipeline();
        assert_eq!(stats.apply_lanes, 3);
        assert_eq!(stats.lane_messages, 11);
        assert_eq!(stats.busiest_lane_messages, 7);
        assert_eq!(stats.barriers_applied, 2);
        assert_eq!(stats.barrier_drains, 1);
        // The lane slots are fixed when the broker is built: a lane past
        // them counts nothing.
        metrics.lane(3);
        assert_eq!(metrics.pipeline(), stats);
        // One lane message moves the lane total and, on an idle registry,
        // the busiest lane: the lane slots feed nothing else.
        for lane in 0..3 {
            let registry = Registry::new(3);
            registry.lane(lane);
            let changed: Vec<u64> = fields(&registry).into_iter().filter(|v| *v != 0).collect();
            assert_eq!(changed, vec![1, 1], "lane {lane}");
            assert_eq!((registry.pipeline().lane_messages, registry.pipeline().busiest_lane_messages), (1, 1));
        }
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
