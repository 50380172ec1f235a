//! The broker federation backbone.
//!
//! The paper's architecture (§2.1) describes a *backbone of brokers*: several
//! super-peers that jointly index resources, propagate peer information and
//! act as beacons for client peers.  This module turns a set of independent
//! [`Broker`]s into that backbone:
//!
//! * [`BrokerNetwork`] interconnects brokers (every broker learns every other
//!   as an *admitted* federation peer), spawns their event loops and offers
//!   convergence checks over their replicated state.  State replication
//!   itself — advertisement index, group membership and peer→broker routing —
//!   travels as [`crate::message::MessageKind::BrokerSync`] gossip
//!   implemented by the broker module.
//! * [`InlineFederation`] is the thread-free variant: brokers are registered
//!   on the network but not spawned, and [`InlineFederation::pump`] delivers
//!   queued messages in a deterministic round-robin until quiescence.  The
//!   replication-convergence property tests are built on it, because a
//!   deterministic delivery order makes shrinking and reproduction exact.
//!
//! # The two-layer fabric
//!
//! Interconnection defines *who is admitted*, not *who is talked to*.  The
//! traffic topology layers on top:
//!
//! * At or below the active-view capacity
//!   ([`crate::broker::BrokerConfig::active_view`], default 8), every
//!   broker's view is complete and broadcast gossip goes directly to every
//!   peer — the classic full mesh, byte-identical to the previous fabric.
//! * Beyond it, the epidemic backbone engages: each broker derives a bounded,
//!   symmetric active view from the live peer set ([`crate::membership`],
//!   holding the ring successor, which keeps the overlay connected) and
//!   disseminates broadcasts Plumtree-style over it ([`crate::plumtree`]) —
//!   eager pushes along the spanning-tree edges, lazy `IHave` digests on the
//!   rest, `Graft`/`Prune` tree repair, anti-entropy as the last-resort
//!   safety net.  Per-broker fan-out per publish is then O(view), not O(N).
//!   [`crate::broker::BrokerConfig::with_full_mesh`] opts a federation out.
//!
//! A client joined at broker A can therefore discover (via the replicated
//! index) and message (via the [`crate::message::MessageKind::RelayViaBroker`]
//! relay path) a peer joined at broker B.

use crate::broker::{Broker, BrokerHandle};
use crate::group::GroupId;
use crate::id::PeerId;
use crate::net::NetMessage;
use crossbeam::channel::Receiver;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default message budget of [`InlineFederation::pump`]: far beyond anything
/// a converging federation produces, so hitting it means the backbone is
/// feeding itself (a livelock), not that the workload was large.
pub const DEFAULT_PUMP_BUDGET: usize = 100_000;

/// Error returned by [`InlineFederation::try_pump`] when the message budget
/// is exhausted without the queues draining: the backbone is producing
/// traffic at least as fast as it consumes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PumpStalled {
    /// Messages processed before giving up.
    pub processed: usize,
}

impl std::fmt::Display for PumpStalled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "federation pump did not quiesce after {} messages (livelock?)",
            self.processed
        )
    }
}

impl std::error::Error for PumpStalled {}

/// Smallest fraction of the repair-interval ceiling the adaptive cadence can
/// shrink to (observed mismatches halve the interval, at most three times).
pub const MIN_REPAIR_INTERVAL_DIVISOR: u32 = 8;

/// Computes the next anti-entropy delay for `broker` under the adaptive
/// cadence.
///
/// * `ceiling` is the configured repair interval
///   (`with_repair_interval` / [`BrokerNetwork::spawn_with_repair`]) and is
///   never exceeded — it stays the upper bound the operator chose.
/// * `mismatches` is the number of digest mismatches the broker observed
///   since its previous round: each one halves the delay (saturating at
///   `ceiling / MIN_REPAIR_INTERVAL_DIVISOR`), so a diverging backbone
///   repairs aggressively while a healthy one idles at the ceiling.
/// * A deterministic per-broker jitter in `[0.75, 1.0)` of the base delay is
///   applied so the rounds of a large backbone spread out instead of
///   synchronising into periodic digest bursts (every broker ticking at the
///   identical interval would fire in lockstep forever).
pub fn next_repair_delay(ceiling: Duration, mismatches: u64, broker: &PeerId) -> Duration {
    use crate::shard::{fnv1a, mix, FNV_OFFSET};
    let shrink = 1u32 << (mismatches.min(3) as u32); // 1, 2, 4, 8
    let base = ceiling / shrink.min(MIN_REPAIR_INTERVAL_DIVISOR);
    let jitter_permille = 750 + (mix(fnv1a(FNV_OFFSET, broker.as_bytes())) % 250) as u32;
    base.mul_f64(f64::from(jitter_permille) / 1000.0)
}

/// Interconnects `brokers` into a full mesh: every broker learns every other
/// broker's identifier as a federation peer.
pub fn interconnect(brokers: &[Arc<Broker>]) {
    for a in brokers {
        for b in brokers {
            if a.id() != b.id() {
                a.add_peer_broker(b.id());
            }
        }
    }
}

/// Returns `true` when every broker in `brokers` holds the replicated state
/// it is responsible for and all copies agree.
///
/// * Fully replicated federation (no replication factor): identical
///   advertisement indexes, group membership and peer→broker routing on
///   every broker — PR 2's definition, unchanged.
/// * Sharded federation: the peer→broker routing still matches everywhere
///   (it stays fully replicated), while every index/membership entry must
///   live on **exactly** its ring replica set with identical content — plus,
///   for membership, the member's home broker, which keeps its local
///   sessions' memberships as ground truth.
pub fn converged(brokers: &[Arc<Broker>]) -> bool {
    let Some((first, rest)) = brokers.split_first() else {
        return true;
    };
    if first.replication_factor().is_some() {
        return sharded_converged(brokers);
    }
    let advertisements = first.advertisement_snapshot();
    let groups = first.groups().snapshot();
    let routing = first.routing_snapshot();
    rest.iter().all(|broker| {
        broker.advertisement_snapshot() == advertisements
            && broker.groups().snapshot() == groups
            && broker.routing_snapshot() == routing
    })
}

/// Sharded convergence check (see [`converged`]).
pub fn sharded_converged(brokers: &[Arc<Broker>]) -> bool {
    let Some(first) = brokers.first() else {
        return true;
    };
    // Routing is fully replicated in both modes.
    let routing = first.routing_snapshot();
    if !brokers.iter().all(|b| b.routing_snapshot() == routing) {
        return false;
    }

    // Where is every peer homed (for the membership ground-truth exception)?
    let homes: BTreeMap<PeerId, PeerId> = routing.iter().copied().collect();

    // Advertisement entries: group every copy by key and compare the holder
    // set against the ring's replica set.
    type Holders = (BTreeSet<PeerId>, BTreeSet<String>);
    let mut entries: BTreeMap<(GroupId, PeerId, String), Holders> = BTreeMap::new();
    for broker in brokers {
        for (group, owner, doc_type, xml) in broker.advertisement_snapshot() {
            let slot = entries.entry((group, owner, doc_type)).or_default();
            slot.0.insert(broker.id());
            slot.1.insert(xml);
        }
    }
    for ((group, owner, _doc_type), (holders, xmls)) in &entries {
        let expected: BTreeSet<PeerId> =
            first.shard_replicas(group, owner).into_iter().collect();
        if xmls.len() != 1 || *holders != expected {
            return false;
        }
    }

    // Membership entries: replica set plus (possibly) the member's home.
    let mut membership: BTreeMap<(GroupId, PeerId), BTreeSet<PeerId>> = BTreeMap::new();
    for broker in brokers {
        for (group, members) in broker.groups().snapshot() {
            for member in members {
                membership
                    .entry((group.clone(), member))
                    .or_default()
                    .insert(broker.id());
            }
        }
    }
    for ((group, member), holders) in &membership {
        let mut expected: BTreeSet<PeerId> =
            first.shard_replicas(group, member).into_iter().collect();
        if let Some(home) = homes.get(member) {
            expected.insert(*home);
        }
        if *holders != expected {
            return false;
        }
    }
    true
}

/// A running federation: a full mesh of spawned brokers, optionally running
/// periodic anti-entropy repair.
pub struct BrokerNetwork {
    handles: Vec<BrokerHandle>,
    /// Broker list shared with the repair thread (membership changes through
    /// [`BrokerNetwork::add_broker`]/[`BrokerNetwork::remove_broker`] are
    /// visible to it immediately).
    brokers: Arc<parking_lot::RwLock<Vec<Arc<Broker>>>>,
    repair: Option<RepairLoop>,
}

/// The periodic anti-entropy driver of a spawned federation.
struct RepairLoop {
    shutdown: crossbeam::channel::Sender<()>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for RepairLoop {
    fn drop(&mut self) {
        let _ = self.shutdown.send(());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl BrokerNetwork {
    /// Interconnects the brokers into a full mesh and spawns their event
    /// loops.  No periodic repair; see [`BrokerNetwork::spawn_with_repair`].
    ///
    /// # Panics
    ///
    /// Panics if `brokers` is empty — a deployment has at least one broker.
    pub fn spawn(brokers: Vec<Arc<Broker>>) -> Self {
        Self::spawn_with_repair(brokers, None)
    }

    /// Like [`BrokerNetwork::spawn`], but additionally runs periodic
    /// anti-entropy repair (when `interval` is `Some`), so replica
    /// divergence caused by lost backbone gossip heals within a bounded
    /// number of rounds instead of persisting forever.
    ///
    /// `interval` is the **ceiling** of an adaptive cadence, not a fixed
    /// period: each broker's next round is scheduled by
    /// [`next_repair_delay`] — digest mismatches observed since its previous
    /// round shrink the delay (down to `interval / 8`), a healthy broker
    /// idles at the ceiling, and a deterministic per-broker jitter keeps the
    /// rounds of a large backbone from synchronising.
    ///
    /// # Panics
    ///
    /// Panics if `brokers` is empty.
    pub fn spawn_with_repair(brokers: Vec<Arc<Broker>>, interval: Option<Duration>) -> Self {
        assert!(!brokers.is_empty(), "a federation needs at least one broker");
        interconnect(&brokers);
        let handles: Vec<BrokerHandle> = brokers.iter().map(|broker| broker.spawn()).collect();
        let brokers = Arc::new(parking_lot::RwLock::with_class("federation.brokers", brokers));
        let repair = interval.map(|interval| {
            let (shutdown_tx, shutdown_rx) = crossbeam::channel::bounded::<()>(1);
            let brokers = Arc::clone(&brokers);
            let thread = std::thread::Builder::new()
                .name("federation-repair".to_string())
                .spawn(move || {
                    // The scheduler ticks well below the smallest adaptive
                    // delay so due times are honoured with useful precision.
                    let tick = (interval / (2 * MIN_REPAIR_INTERVAL_DIVISOR))
                        .max(Duration::from_millis(1));
                    let mut next_due: BTreeMap<PeerId, Instant> = BTreeMap::new();
                    let mut seen_mismatches: BTreeMap<PeerId, u64> = BTreeMap::new();
                    while let Err(crossbeam::channel::RecvTimeoutError::Timeout) =
                        shutdown_rx.recv_timeout(tick)
                    {
                        let now = crate::clock::now();
                        let current: Vec<Arc<Broker>> = brokers.read().clone();
                        for broker in &current {
                            let id = broker.id();
                            match next_due.get(&id) {
                                None => {
                                    // Newly tracked broker: schedule its
                                    // first round a (jittered) ceiling out,
                                    // matching the fixed cadence's start-up.
                                    next_due
                                        .insert(id, now + next_repair_delay(interval, 0, &id));
                                }
                                Some(due) if *due <= now => {
                                    let mismatches =
                                        broker.federation_stats().repair_mismatches;
                                    let since_last = mismatches
                                        .saturating_sub(
                                            seen_mismatches.insert(id, mismatches).unwrap_or(0),
                                        );
                                    broker.start_repair_round();
                                    next_due.insert(
                                        id,
                                        now + next_repair_delay(interval, since_last, &id),
                                    );
                                }
                                Some(_) => {}
                            }
                        }
                        // Forget brokers that left the federation.
                        next_due.retain(|id, _| current.iter().any(|b| b.id() == *id));
                        seen_mismatches.retain(|id, _| current.iter().any(|b| b.id() == *id));
                    }
                })
                .expect("failed to spawn federation repair thread");
            RepairLoop {
                shutdown: shutdown_tx,
                thread: Some(thread),
            }
        });
        BrokerNetwork {
            handles,
            brokers,
            repair,
        }
    }

    /// Triggers one anti-entropy round on every broker immediately (useful
    /// when no periodic interval is configured, or to avoid waiting for the
    /// next tick in tests).
    pub fn trigger_repair(&self) {
        for broker in self.brokers.read().iter() {
            broker.start_repair_round();
        }
    }

    /// Admits a new broker into the running federation: its event loop is
    /// spawned, the full mesh is extended on both sides, and every broker
    /// re-shards so the entries the newcomer now owns migrate onto it — the
    /// spawned-path equivalent of [`InlineFederation::add_broker`].  Callers
    /// should [`BrokerNetwork::await_convergence`] afterwards (migration
    /// gossip drains asynchronously on the broker threads).
    pub fn add_broker(&mut self, broker: Arc<Broker>) {
        // Spawn first so the newcomer's endpoint exists before any migration
        // gossip is addressed to it.
        let handle = broker.spawn();
        {
            let mut brokers = self.brokers.write();
            for existing in brokers.iter() {
                existing.add_peer_broker(broker.id());
                broker.add_peer_broker(existing.id());
            }
            brokers.push(Arc::clone(&broker));
        }
        self.handles.push(handle);
        for broker in self.brokers.read().iter() {
            broker.reshard();
        }
        // Re-sharding migrates entries onto the newcomer in sharded mode; in
        // full-replication mode it is a no-op, so an anti-entropy round is
        // what transfers the existing state (and the extensions' replicated
        // state, e.g. prior revocations) to the new broker.
        self.trigger_repair();
    }

    /// Removes the `index`-th broker from the running federation: its local
    /// sessions are dropped (their clients lose their home, exactly as a
    /// broker crash would), the departure gossip is given a moment to drain,
    /// its event loop is shut down, and every survivor forgets it and
    /// re-shards — the spawned-path equivalent of
    /// [`InlineFederation::remove_broker`].  The crashed-broker client
    /// cleanup in [`Broker::remove_peer_broker`] covers whatever the drain
    /// missed.  Returns the removed broker.
    pub fn remove_broker(&mut self, index: usize) -> Arc<Broker> {
        let handle = self.handles.remove(index);
        let removed = self.brokers.write().remove(index);
        let local_peers: Vec<PeerId> = removed
            .routing_snapshot()
            .into_iter()
            .filter(|(_, home)| *home == removed.id())
            .map(|(peer, _)| peer)
            .collect();
        for peer in &local_peers {
            removed.drop_session(peer);
        }
        // Let the departure gossip drain while the leaver is still a peer:
        // poll until every survivor has processed everything delivered to it.
        let deadline = crate::clock::now() + Duration::from_millis(500);
        while crate::clock::now() < deadline {
            let drained = self.brokers.read().iter().all(|broker| {
                broker.processed_count() == broker.delivered_count()
            });
            if drained {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.shutdown();
        for survivor in self.brokers.read().iter() {
            survivor.remove_peer_broker(&removed.id());
        }
        for survivor in self.brokers.read().iter() {
            survivor.reshard();
        }
        removed
    }

    /// Number of brokers in the federation.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Returns `true` if the federation has no brokers (never the case for a
    /// spawned federation; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// The `index`-th broker.
    pub fn broker(&self, index: usize) -> &Arc<Broker> {
        self.handles[index].broker()
    }

    /// The `index`-th broker's peer identifier.
    pub fn id(&self, index: usize) -> PeerId {
        self.handles[index].id()
    }

    /// All broker identifiers, in deployment order.
    pub fn ids(&self) -> Vec<PeerId> {
        self.handles.iter().map(|h| h.id()).collect()
    }

    /// Returns `true` when all brokers hold the replicated state they are
    /// responsible for **and** the backbone is quiescent (every broker has
    /// processed everything delivered to it, and nothing new arrived while
    /// we looked).
    ///
    /// The quiescence guard matters for sharded federations: a publish whose
    /// origin broker is not one of the entry's replicas exists *nowhere*
    /// while its gossip is in flight, so a pure state comparison could
    /// declare convergence a moment before the entry appears.  Comparing the
    /// monotone delivered/processed counters before and after the state
    /// check closes that window.
    pub fn converged(&self) -> bool {
        let brokers: Vec<Arc<Broker>> =
            self.handles.iter().map(|h| Arc::clone(h.broker())).collect();
        let delivered_before: Vec<u64> = brokers.iter().map(|b| b.delivered_count()).collect();
        if brokers
            .iter()
            .zip(&delivered_before)
            .any(|(b, delivered)| b.processed_count() != *delivered)
        {
            return false; // messages still queued or being applied
        }
        if !converged(&brokers) {
            return false;
        }
        // No new deliveries during the state check: what we compared is the
        // settled state, not a snapshot straddling in-flight gossip.
        brokers
            .iter()
            .zip(&delivered_before)
            .all(|(b, delivered)| b.delivered_count() == *delivered)
    }

    /// Polls until the brokers converge or the timeout expires.  Returns
    /// `true` on convergence.
    pub fn await_convergence(&self, timeout: Duration) -> bool {
        let deadline = crate::clock::now() + timeout;
        loop {
            if self.converged() {
                return true;
            }
            if crate::clock::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Shuts every broker down and waits for their threads (the repair loop,
    /// when one is running, stops first).
    pub fn shutdown(self) {
        let BrokerNetwork {
            handles, repair, ..
        } = self;
        drop(repair);
        for handle in handles {
            handle.shutdown();
        }
    }
}

/// A thread-free federation for deterministic tests: brokers are registered
/// on the network but their event loops are driven explicitly by
/// [`InlineFederation::pump`].
pub struct InlineFederation {
    brokers: Vec<Arc<Broker>>,
    inboxes: Vec<Receiver<NetMessage>>,
}

impl InlineFederation {
    /// Interconnects the brokers and registers their endpoints without
    /// spawning threads.
    pub fn new(brokers: Vec<Arc<Broker>>) -> Self {
        interconnect(&brokers);
        let inboxes = brokers.iter().map(|broker| broker.register()).collect();
        InlineFederation { brokers, inboxes }
    }

    /// Number of brokers.
    pub fn len(&self) -> usize {
        self.brokers.len()
    }

    /// Returns `true` if the federation holds no brokers.
    pub fn is_empty(&self) -> bool {
        self.brokers.is_empty()
    }

    /// The `index`-th broker.
    pub fn broker(&self, index: usize) -> &Arc<Broker> {
        &self.brokers[index]
    }

    /// Delivers queued inter-broker messages round-robin until every inbox is
    /// empty (processing a message may enqueue new ones, e.g. a relay hop).
    /// Returns the number of messages processed.  Delivery order is fully
    /// deterministic, which the replication proptests rely on.
    ///
    /// # Panics
    ///
    /// Panics if [`DEFAULT_PUMP_BUDGET`] messages do not drain the queues —
    /// the backbone is livelocked (see [`InlineFederation::try_pump`] for
    /// the non-panicking form).  A healthy federation converges within a
    /// small multiple of the events applied, so the budget is never reached
    /// in legitimate workloads.
    pub fn pump(&self) -> usize {
        match self.try_pump(DEFAULT_PUMP_BUDGET) {
            Ok(processed) => processed,
            Err(stalled) => panic!("{stalled}"),
        }
    }

    /// Like [`InlineFederation::pump`], but gives up with [`PumpStalled`]
    /// once `budget` messages have been processed without the queues
    /// draining, instead of spinning forever when the backbone produces
    /// traffic at least as fast as it consumes it (e.g. an adversary that
    /// re-injects a message for every delivery).
    pub fn try_pump(&self, budget: usize) -> Result<usize, PumpStalled> {
        let mut processed = 0;
        loop {
            let mut progressed = false;
            for (broker, inbox) in self.brokers.iter().zip(&self.inboxes) {
                while let Ok(net_message) = inbox.try_recv() {
                    broker.process_net(net_message);
                    processed += 1;
                    progressed = true;
                    if processed >= budget {
                        // Spending the whole budget is a stall only if work
                        // remains: a workload of exactly `budget` messages
                        // that drains the queues is a success, not a
                        // livelock.
                        return if self.inboxes.iter().all(|i| i.is_empty()) {
                            Ok(processed)
                        } else {
                            Err(PumpStalled { processed })
                        };
                    }
                }
            }
            if !progressed {
                return Ok(processed);
            }
        }
    }

    /// Admits a new broker into the running federation: full-mesh
    /// interconnection, ring membership on every broker, and a re-shard so
    /// the entries the newcomer now owns migrate onto it.  The migration is
    /// pumped to quiescence before returning.
    pub fn add_broker(&mut self, broker: Arc<Broker>) {
        let inbox = broker.register();
        for existing in &self.brokers {
            existing.add_peer_broker(broker.id());
            broker.add_peer_broker(existing.id());
        }
        self.brokers.push(broker);
        self.inboxes.push(inbox);
        for broker in &self.brokers {
            broker.reshard();
        }
        self.pump();
        // Re-sharding is a no-op under full replication — an anti-entropy
        // round is what hands the newcomer the existing state there (and
        // extension state, e.g. prior revocations, in either mode).
        self.repair();
    }

    /// Removes the `index`-th broker from the federation: its local sessions
    /// are dropped (their clients lose their home, exactly as a broker crash
    /// would), every survivor forgets it and re-shards, and the migration is
    /// pumped to quiescence.  Returns the removed broker.
    pub fn remove_broker(&mut self, index: usize) -> Arc<Broker> {
        let removed = self.brokers.remove(index);
        self.inboxes.remove(index);
        let local_peers: Vec<PeerId> = removed
            .routing_snapshot()
            .into_iter()
            .filter(|(_, home)| *home == removed.id())
            .map(|(peer, _)| peer)
            .collect();
        for peer in &local_peers {
            removed.drop_session(peer);
        }
        // Let the departure gossip drain while the leaver is still a peer.
        self.pump();
        removed.unregister();
        for survivor in &self.brokers {
            survivor.remove_peer_broker(&removed.id());
        }
        for survivor in &self.brokers {
            survivor.reshard();
        }
        self.pump();
        removed
    }

    /// Returns `true` when all brokers hold identical replicated state.
    pub fn converged(&self) -> bool {
        converged(&self.brokers)
    }

    /// Runs one deterministic anti-entropy round: every broker digests its
    /// shared state (to every peer, or to one active-view member once the
    /// epidemic fabric is engaged), and the resulting snapshot exchanges are
    /// pumped to quiescence.  Returns the number of entries repaired across
    /// the federation in this round (zero on a healthy backbone).
    pub fn repair(&self) -> u64 {
        let before: u64 = self
            .brokers
            .iter()
            .map(|broker| broker.federation_stats().entries_repaired)
            .sum();
        for broker in &self.brokers {
            broker.start_repair_round();
        }
        self.pump();
        let after: u64 = self
            .brokers
            .iter()
            .map(|broker| broker.federation_stats().entries_repaired)
            .sum();
        after - before
    }

    /// Repairs until the federation converges, up to `max_rounds` rounds.
    /// Returns `Some(rounds_used)` on convergence (zero when it was already
    /// converged) and `None` when the bound was exhausted — divergence that
    /// anti-entropy cannot heal is a bug, and tests assert on it.
    pub fn repair_until_converged(&self, max_rounds: usize) -> Option<usize> {
        for round in 0..=max_rounds {
            if self.converged() {
                return Some(round);
            }
            if round == max_rounds {
                break;
            }
            self.repair();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::BrokerConfig;
    use crate::database::UserDatabase;
    use crate::group::GroupId;
    use crate::net::{LinkModel, SimNetwork};
    use jxta_crypto::drbg::HmacDrbg;

    fn make_brokers(n: usize, seed: u64) -> (Arc<SimNetwork>, Arc<UserDatabase>, Vec<Arc<Broker>>) {
        let mut rng = HmacDrbg::from_seed_u64(seed);
        let network = SimNetwork::new(LinkModel::ideal());
        let database = Arc::new(UserDatabase::new());
        database.register_user(&mut rng, "alice", "pw-a", &[GroupId::new("math")]);
        database.register_user(&mut rng, "bob", "pw-b", &[GroupId::new("math")]);
        let brokers = (0..n)
            .map(|i| {
                Broker::new(
                    PeerId::random(&mut rng),
                    BrokerConfig::named(format!("broker-{}", i + 1)),
                    Arc::clone(&network),
                    Arc::clone(&database),
                )
            })
            .collect();
        (network, database, brokers)
    }

    fn make_sharded_brokers(
        n: usize,
        k: usize,
        seed: u64,
    ) -> (Arc<SimNetwork>, Arc<UserDatabase>, Vec<Arc<Broker>>) {
        let mut rng = HmacDrbg::from_seed_u64(seed);
        let network = SimNetwork::new(LinkModel::ideal());
        let database = Arc::new(UserDatabase::new());
        database.register_user(&mut rng, "alice", "pw-a", &[GroupId::new("math")]);
        database.register_user(&mut rng, "bob", "pw-b", &[GroupId::new("math")]);
        let brokers = (0..n)
            .map(|i| {
                Broker::new(
                    PeerId::random(&mut rng),
                    BrokerConfig::sharded(format!("broker-{}", i + 1), k),
                    Arc::clone(&network),
                    Arc::clone(&database),
                )
            })
            .collect();
        (network, database, brokers)
    }

    /// Publishes `count` advertisements with distinct owners from `broker`.
    fn publish_batch(
        federation: &InlineFederation,
        broker: usize,
        count: usize,
        rng: &mut HmacDrbg,
    ) -> Vec<PeerId> {
        (0..count)
            .map(|i| {
                let owner = PeerId::random(rng);
                federation.broker(broker).index_and_distribute(
                    owner,
                    &GroupId::new("math"),
                    "jxta:PipeAdvertisement",
                    &format!("<adv n=\"{i}\"/>"),
                );
                owner
            })
            .collect()
    }

    #[test]
    fn interconnect_builds_a_full_mesh() {
        let (_net, _db, brokers) = make_brokers(3, 0xFED0);
        interconnect(&brokers);
        for (i, broker) in brokers.iter().enumerate() {
            let peers = broker.peer_brokers();
            assert_eq!(peers.len(), 2);
            for (j, other) in brokers.iter().enumerate() {
                assert_eq!(broker.is_peer_broker(&other.id()), i != j);
            }
        }
    }

    /// Brokers with small pinned view capacities, to engage the epidemic
    /// fabric in federation sizes a test can afford.
    fn make_view_brokers(
        n: usize,
        active: usize,
        seed: u64,
    ) -> (Arc<SimNetwork>, Arc<UserDatabase>, Vec<Arc<Broker>>) {
        let mut rng = HmacDrbg::from_seed_u64(seed);
        let network = SimNetwork::new(LinkModel::ideal());
        let database = Arc::new(UserDatabase::new());
        database.register_user(&mut rng, "alice", "pw-a", &[GroupId::new("math")]);
        database.register_user(&mut rng, "bob", "pw-b", &[GroupId::new("math")]);
        let brokers = (0..n)
            .map(|i| {
                Broker::new(
                    PeerId::random(&mut rng),
                    BrokerConfig::named(format!("broker-{}", i + 1))
                        .with_view_capacities(active),
                    Arc::clone(&network),
                    Arc::clone(&database),
                )
            })
            .collect();
        (network, database, brokers)
    }

    #[test]
    fn small_federations_keep_the_full_mesh_fabric() {
        let (_net, _db, brokers) = make_brokers(3, 0xE800);
        let federation = InlineFederation::new(brokers);
        let mut rng = HmacDrbg::from_seed_u64(0xE801);
        for broker in 0..3 {
            assert!(
                !federation.broker(broker).epidemic_engaged(),
                "2 peers fit a default active view of 8"
            );
        }
        let alice = PeerId::random(&mut rng);
        federation.broker(0).establish_session(alice, "alice");
        federation
            .broker(0)
            .index_and_distribute(alice, &GroupId::new("math"), "jxta:PipeAdvertisement", "<a/>");
        federation.pump();
        assert!(federation.converged());
        let stats = federation.broker(0).federation_stats();
        assert_eq!(stats.publishes, 1);
        assert_eq!(stats.publish_fanout_max, 2, "mesh fan-out is N-1");
        assert_eq!(stats.eager_pushes, 0, "no Plumtree below the threshold");
    }

    #[test]
    fn lazy_ihaves_batch_across_publishes_until_the_repair_tick() {
        const N: usize = 10;
        let (_net, _db, brokers) = make_view_brokers(N, 3, 0xE840);
        let federation = InlineFederation::new(brokers);
        let mut rng = HmacDrbg::from_seed_u64(0xE841);
        let group = GroupId::new("math");
        // Prune the initial all-eager topology so lazy edges exist.
        for round in 0..8 {
            federation.broker(0).index_and_distribute(
                PeerId::random(&mut rng),
                &group,
                "jxta:PipeAdvertisement",
                &format!("<warm n=\"{round}\"/>"),
            );
            federation.pump();
            federation.repair();
            let pruned: u64 = (0..N)
                .map(|i| federation.broker(i).federation_stats().prunes_sent)
                .sum();
            if pruned > 0 {
                break;
            }
        }
        let stat = |pick: fn(&crate::metrics::FederationStats) -> u64| -> u64 {
            (0..N)
                .map(|i| pick(&federation.broker(i).federation_stats()))
                .sum()
        };
        assert!(stat(|s| s.prunes_sent) > 0, "warm-up pruned the eager graph");

        // A burst of publishes between repair ticks: no IHave digest moves
        // until the tick, then each lazy edge gets exactly one digest
        // carrying the whole burst — the per-publish digests are the saving.
        let ihaves_before = stat(|s| s.ihaves_sent);
        let saved_before = stat(|s| s.ihave_digests_saved);
        const BURST: u64 = 5;
        for n in 0..BURST {
            federation.broker(0).index_and_distribute(
                PeerId::random(&mut rng),
                &group,
                "jxta:PipeAdvertisement",
                &format!("<burst n=\"{n}\"/>"),
            );
            federation.pump();
        }
        assert_eq!(
            stat(|s| s.ihaves_sent),
            ihaves_before,
            "no IHave digest ships between repair ticks"
        );
        federation.repair();
        let shipped = stat(|s| s.ihaves_sent) - ihaves_before;
        let saved = stat(|s| s.ihave_digests_saved) - saved_before;
        assert!(shipped > 0, "the repair tick ships the batched digests");
        assert!(saved > 0, "a multi-publish burst saves per-publish digests");
        // Aggregated over every (broker, lazy edge): per-publish flushing
        // would have cost `shipped + saved` digests; each destination's
        // batch of k ids saved k-1, bounded by BURST-1 per edge.
        assert!(saved <= (BURST - 1) * shipped);
        assert!(federation.repair_until_converged(4).is_some());
    }

    #[test]
    fn epidemic_backbone_converges_with_bounded_fanout() {
        const N: usize = 10;
        const ACTIVE: usize = 3;
        let (_net, _db, brokers) = make_view_brokers(N, ACTIVE, 0xE810);
        let federation = InlineFederation::new(brokers);
        let mut rng = HmacDrbg::from_seed_u64(0xE811);
        for i in 0..N {
            assert!(federation.broker(i).epidemic_engaged());
            let view = federation.broker(i).active_view();
            assert!(!view.is_empty() && view.len() <= ACTIVE + 1);
        }

        let alice = PeerId::random(&mut rng);
        federation.broker(0).establish_session(alice, "alice");
        federation.broker(0).index_and_distribute(
            alice,
            &GroupId::new("math"),
            "jxta:PipeAdvertisement",
            "<epidemic/>",
        );
        federation.pump();
        assert!(
            federation.converged(),
            "epidemic dissemination must reach every broker"
        );
        // The far side resolves the advertisement and the route.
        assert_eq!(
            federation
                .broker(N - 1)
                .lookup(&GroupId::new("math"), "jxta:PipeAdvertisement", Some(alice)),
            vec!["<epidemic/>".to_string()]
        );
        assert_eq!(
            federation.broker(N - 1).home_of(&alice),
            Some(federation.broker(0).id())
        );

        let stats = federation.broker(0).federation_stats();
        assert!(
            stats.publish_fanout_max <= (ACTIVE + 1) as u64,
            "origin fan-out {} exceeds the active view bound",
            stats.publish_fanout_max
        );
        assert!(stats.eager_pushes > 0, "dissemination went over tree edges");
    }

    #[test]
    fn epidemic_leave_and_rehome_converge_like_the_mesh() {
        const N: usize = 9;
        let (_net, _db, brokers) = make_view_brokers(N, 2, 0xE820);
        let federation = InlineFederation::new(brokers);
        let mut rng = HmacDrbg::from_seed_u64(0xE821);
        let alice = PeerId::random(&mut rng);

        federation.broker(0).establish_session(alice, "alice");
        federation.pump();
        for i in 0..N {
            assert_eq!(
                federation.broker(i).home_of(&alice),
                Some(federation.broker(0).id()),
                "join must replicate through the epidemic fabric"
            );
        }
        // Re-home: the leave and the new join both travel epidemically.
        federation.broker(0).drop_session(&alice);
        federation.broker(4).establish_session(alice, "alice");
        federation.pump();
        assert!(federation.converged());
        for i in 0..N {
            assert_eq!(
                federation.broker(i).home_of(&alice),
                Some(federation.broker(4).id())
            );
        }
    }

    #[test]
    fn full_mesh_opt_out_bypasses_the_epidemic_fabric() {
        let mut rng = HmacDrbg::from_seed_u64(0xE830);
        let network = SimNetwork::new(LinkModel::ideal());
        let database = Arc::new(UserDatabase::new());
        database.register_user(&mut rng, "alice", "pw-a", &[GroupId::new("math")]);
        let brokers: Vec<Arc<Broker>> = (0..6)
            .map(|i| {
                Broker::new(
                    PeerId::random(&mut rng),
                    BrokerConfig::named(format!("broker-{}", i + 1))
                        .with_view_capacities(2)
                        .with_full_mesh(),
                    Arc::clone(&network),
                    Arc::clone(&database),
                )
            })
            .collect();
        let federation = InlineFederation::new(brokers);
        let alice = PeerId::random(&mut rng);
        assert!(!federation.broker(0).epidemic_engaged());
        federation.broker(0).establish_session(alice, "alice");
        federation
            .broker(0)
            .index_and_distribute(alice, &GroupId::new("math"), "jxta:PipeAdvertisement", "<m/>");
        federation.pump();
        assert!(federation.converged());
        let stats = federation.broker(0).federation_stats();
        assert_eq!(stats.publish_fanout_max, 5, "pinned mesh sends to N-1");
        assert_eq!(stats.eager_pushes, 0);
    }

    /// Satellite regression for group-aware push routing: a sharded 3-broker
    /// federation with a single-broker group must send **zero** backbone
    /// traffic for that group's publishes to the two uninvolved brokers —
    /// and a member homed on a non-replica broker must still get its push.
    #[test]
    fn sharded_publish_targets_only_replicas_and_member_hosts() {
        let mut rng = HmacDrbg::from_seed_u64(0xE840);
        let network = SimNetwork::new(LinkModel::ideal());
        let database = Arc::new(UserDatabase::new());
        database.register_user(&mut rng, "carol", "pw-c", &[GroupId::new("solo")]);
        database.register_user(&mut rng, "dina", "pw-d", &[GroupId::new("solo")]);
        let brokers: Vec<Arc<Broker>> = (0..3)
            .map(|i| {
                Broker::new(
                    PeerId::random(&mut rng),
                    BrokerConfig::sharded(format!("broker-{}", i + 1), 1),
                    Arc::clone(&network),
                    Arc::clone(&database),
                )
            })
            .collect();
        let federation = InlineFederation::new(brokers);
        let group = GroupId::new("solo");
        let home = federation.broker(0).id();
        // Pick the publisher id so broker 0 — its home — is also the entry's
        // single ring replica: the publish then involves no other broker.
        let carol = loop {
            let candidate = PeerId::random(&mut rng);
            if federation.broker(0).shard_replicas(&group, &candidate) == vec![home] {
                break candidate;
            }
        };
        federation.broker(0).establish_session(carol, "carol");
        federation.pump();

        let idle: Vec<u64> = (1..3)
            .map(|i| network.delivered_to(&federation.broker(i).id()))
            .collect();
        federation.broker(0).index_and_distribute(
            carol,
            &group,
            "jxta:PipeAdvertisement",
            "<solo/>",
        );
        federation.pump();
        for (i, before) in (1..3).zip(&idle) {
            assert_eq!(
                network.delivered_to(&federation.broker(i).id()),
                *before,
                "broker {i} hosts no member and replicates nothing for the group"
            );
        }
        assert!(federation.converged());
        assert_eq!(
            federation.broker(0).federation_stats().publish_fanout_max,
            0,
            "single-broker group costs zero backbone messages per publish"
        );

        // A second member homed at broker 1 (not a replica of the entry)
        // turns broker 1 into a push target — and only broker 1.
        let dina = PeerId::random(&mut rng);
        let dina_inbox = network.register(dina);
        federation.broker(1).establish_session(dina, "dina");
        federation.pump();
        let idle_2 = network.delivered_to(&federation.broker(2).id());
        federation.broker(0).index_and_distribute(
            carol,
            &group,
            "jxta:PipeAdvertisement",
            "<solo v=\"2\"/>",
        );
        federation.pump();
        assert_eq!(
            network.delivered_to(&federation.broker(2).id()),
            idle_2,
            "broker 2 still hosts nobody in the group"
        );
        let pushes: Vec<crate::message::Message> = dina_inbox
            .try_iter()
            .filter_map(|net| crate::message::Message::from_bytes(&net.payload).ok())
            .filter(|m| m.kind == crate::message::MessageKind::AdvertisementPush)
            .collect();
        assert!(
            pushes.iter().any(|m| m.element_str("xml").as_deref() == Some("<solo v=\"2\"/>")),
            "member on the non-replica host broker must receive the push"
        );
        assert!(federation.converged(), "store stays confined to the replica");
    }

    #[test]
    fn inline_pump_replicates_session_and_index() {
        let (_net, _db, brokers) = make_brokers(3, 0xFED1);
        let federation = InlineFederation::new(brokers);
        let mut rng = HmacDrbg::from_seed_u64(0xFED2);
        let alice = PeerId::random(&mut rng);

        federation.broker(0).establish_session(alice, "alice");
        federation
            .broker(0)
            .index_and_distribute(alice, &GroupId::new("math"), "jxta:PipeAdvertisement", "<a/>");
        assert!(!federation.converged(), "gossip is still queued");
        assert!(federation.pump() > 0);
        assert!(federation.converged());

        // Broker 2 never saw the client, yet resolves the advertisement and
        // knows where the peer is homed.
        assert_eq!(
            federation
                .broker(2)
                .lookup(&GroupId::new("math"), "jxta:PipeAdvertisement", Some(alice)),
            vec!["<a/>".to_string()]
        );
        assert_eq!(federation.broker(2).home_of(&alice), Some(federation.broker(0).id()));
        assert_eq!(federation.pump(), 0, "pump is idempotent once quiescent");
    }

    #[test]
    fn rehoming_a_peer_moves_its_route() {
        let (_net, _db, brokers) = make_brokers(2, 0xFED3);
        let federation = InlineFederation::new(brokers);
        let mut rng = HmacDrbg::from_seed_u64(0xFED4);
        let alice = PeerId::random(&mut rng);

        federation.broker(0).establish_session(alice, "alice");
        federation.pump();
        assert_eq!(federation.broker(1).home_of(&alice), Some(federation.broker(0).id()));

        // The same peer drops off broker 0 and logs in at broker 1.
        federation.broker(0).drop_session(&alice);
        federation.broker(1).establish_session(alice, "alice");
        federation.pump();
        assert!(federation.converged());
        for i in 0..2 {
            assert_eq!(
                federation.broker(i).home_of(&alice),
                Some(federation.broker(1).id())
            );
        }
    }

    #[test]
    fn republish_from_a_quiet_broker_beats_the_busy_brokers_replica() {
        // Regression: LWW versions are (per-origin seq, origin id).  Without
        // a Lamport merge of observed sequence numbers, a fresh publish on a
        // quiet broker (low counter) would lose against the replica of an
        // older publish from a busy broker (high counter) — the update would
        // be silently discarded federation-wide.
        let (_net, _db, brokers) = make_brokers(2, 0xFED8);
        let federation = InlineFederation::new(brokers);
        let mut rng = HmacDrbg::from_seed_u64(0xFED9);
        let alice = PeerId::random(&mut rng);
        let group = GroupId::new("math");

        // Busy broker 0: the target entry plus unrelated traffic that
        // inflates its sequence counter well past broker 1's.
        federation
            .broker(0)
            .index_and_distribute(alice, &group, "jxta:PipeAdvertisement", "<old/>");
        for i in 0..5 {
            federation.broker(0).index_and_distribute(
                alice,
                &group,
                &format!("jxta:OtherAdvertisement-{i}"),
                "<noise/>",
            );
        }
        federation.pump();

        // Quiet broker 1 republishes the same (owner, doc type) key.
        federation
            .broker(1)
            .index_and_distribute(alice, &group, "jxta:PipeAdvertisement", "<new/>");
        federation.pump();

        assert!(federation.converged());
        for i in 0..2 {
            assert_eq!(
                federation
                    .broker(i)
                    .lookup(&group, "jxta:PipeAdvertisement", Some(alice)),
                vec!["<new/>".to_string()],
                "broker {i} must serve the republished advertisement"
            );
        }
    }

    #[test]
    fn stale_gossip_cannot_ghost_a_live_session() {
        // Regression: join at A, leave at A, join at B — all before any
        // gossip is delivered.  A's leave is sequenced above B's join, so a
        // naive LWW would log the peer out of B (its *live* home) once the
        // gossip lands.  The live-session re-assertion (lower-id broker) or
        // the shadow-and-resurrect path (higher-id broker) must win instead,
        // whatever the broker id order is and even when the stale home's
        // sequence counter is inflated far past the live home's (the case
        // where the stale join outranks the live one outright).
        for (home, other) in [(0usize, 1usize), (1, 0)] {
            for inflate in [false, true] {
                let (_net, _db, brokers) = make_brokers(2, 0xFEDA);
                let federation = InlineFederation::new(brokers);
                let mut rng = HmacDrbg::from_seed_u64(0xFEDB);
                let alice = PeerId::random(&mut rng);
                let label = format!("home={home} inflate={inflate}");

                if inflate {
                    let noise = PeerId::random(&mut rng);
                    for i in 0..5 {
                        federation.broker(other).index_and_distribute(
                            noise,
                            &GroupId::new("noise"),
                            &format!("jxta:Noise-{i}"),
                            "<n/>",
                        );
                    }
                }
                federation.broker(other).establish_session(alice, "alice");
                federation.broker(other).drop_session(&alice);
                federation.broker(home).establish_session(alice, "alice");
                federation.pump();

                assert!(federation.converged(), "{label}");
                let home_id = federation.broker(home).id();
                for i in 0..2 {
                    assert_eq!(
                        federation.broker(i).home_of(&alice),
                        Some(home_id),
                        "broker {i} must route to the live home ({label})"
                    );
                }
                assert!(
                    federation.broker(home).session(&alice).is_some(),
                    "the live session survives the stale leave ({label})"
                );
                assert!(
                    federation
                        .broker(home)
                        .groups()
                        .is_member(&GroupId::new("math"), &alice),
                    "membership survives too ({label})"
                );
            }
        }
    }

    #[test]
    fn spawned_federation_serves_clients_at_different_brokers() {
        use crate::client::{ClientConfig, ClientEvent, ClientPeer};
        let (network, _db, brokers) = make_brokers(2, 0xFED5);
        let federation = BrokerNetwork::spawn(brokers);
        assert_eq!(federation.len(), 2);
        assert!(!federation.is_empty());
        let mut rng = HmacDrbg::from_seed_u64(0xFED6);

        let mut alice =
            ClientPeer::with_random_id(Arc::clone(&network), ClientConfig::named("alice-pc"), &mut rng);
        let mut bob =
            ClientPeer::with_random_id(Arc::clone(&network), ClientConfig::named("bob-pc"), &mut rng);
        alice.connect(federation.id(0)).unwrap();
        alice.login("alice", "pw-a").unwrap();
        bob.connect(federation.id(1)).unwrap();
        bob.login("bob", "pw-b").unwrap();

        let group = GroupId::new("math");
        bob.publish_pipe(&group).unwrap();
        assert!(federation.await_convergence(Duration::from_secs(2)));

        // Alice resolves Bob's advertisement through *her* broker.
        let resolved = alice.resolve_pipe(&group, bob.id()).unwrap();
        assert_eq!(resolved.owner, bob.id());

        // And relays a message to him across the backbone.
        alice.relay_msg_peer(&group, bob.id(), "hello across brokers").unwrap();
        let event = bob.wait_for_event(Duration::from_secs(2)).unwrap();
        assert!(matches!(
            event,
            ClientEvent::Text { from, text, .. }
                if from == alice.id() && text == "hello across brokers"
        ));
        // The delivery to bob and the destination broker's counter update
        // are not ordered with respect to each other; poll briefly.
        let deadline = crate::clock::now() + Duration::from_secs(2);
        while federation.broker(1).federation_stats().relays_delivered == 0
            && crate::clock::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(federation.broker(0).federation_stats().relays_forwarded, 1);
        assert_eq!(federation.broker(1).federation_stats().relays_delivered, 1);
        federation.shutdown();
    }

    #[test]
    fn single_broker_federation_behaves_like_a_plain_broker() {
        let (_net, _db, brokers) = make_brokers(1, 0xFED7);
        let federation = BrokerNetwork::spawn(brokers);
        assert_eq!(federation.len(), 1);
        assert!(federation.converged());
        assert_eq!(federation.broker(0).peer_brokers(), Vec::new());
        federation.shutdown();
    }

    #[test]
    fn sharded_state_and_gossip_scale_with_k_not_n() {
        // The acceptance criterion of the sharding work: with K=2 replicas
        // and N=4 brokers, per-broker index size and per-publish backbone
        // message count are O(K), not O(N).
        const N: usize = 4;
        const K: usize = 2;
        const PUBLISHES: usize = 40;

        // Fully replicated baseline.
        let (_n0, _d0, full) = make_brokers(N, 0xA0);
        let full_federation = InlineFederation::new(full);
        let mut rng = HmacDrbg::from_seed_u64(0xA1);
        publish_batch(&full_federation, 0, PUBLISHES, &mut rng);
        full_federation.pump();
        assert!(full_federation.converged());
        let full_syncs = full_federation.broker(0).federation_stats().syncs_sent;
        for i in 0..N {
            assert_eq!(
                full_federation.broker(i).advertisement_entry_count(),
                PUBLISHES,
                "full replication stores every entry everywhere"
            );
        }
        assert_eq!(full_syncs, (PUBLISHES * (N - 1)) as u64);

        // Sharded federation, same workload (same owner sequence).
        let (_n1, _d1, sharded) = make_sharded_brokers(N, K, 0xA0);
        let sharded_federation = InlineFederation::new(sharded);
        let mut rng = HmacDrbg::from_seed_u64(0xA1);
        publish_batch(&sharded_federation, 0, PUBLISHES, &mut rng);
        sharded_federation.pump();
        assert!(sharded_federation.converged(), "sharded convergence");

        let total: usize = (0..N)
            .map(|i| sharded_federation.broker(i).advertisement_entry_count())
            .sum();
        assert_eq!(total, PUBLISHES * K, "each entry lives on exactly K replicas");
        for i in 0..N {
            let held = sharded_federation.broker(i).advertisement_entry_count();
            assert!(
                held < PUBLISHES,
                "broker {i} must hold a shard, not the whole index ({held}/{PUBLISHES})"
            );
        }
        let sharded_syncs = sharded_federation.broker(0).federation_stats().syncs_sent;
        assert!(
            sharded_syncs <= (PUBLISHES * K) as u64,
            "per-publish gossip is O(K): {sharded_syncs} > {}",
            PUBLISHES * K
        );
        assert!(sharded_syncs < full_syncs, "sharding cuts backbone traffic");
    }

    /// Sends `message` from a registered client endpoint into `broker` and
    /// pumps until the client's inbox yields a `LookupResponse`.
    fn query_via_network(
        net: &SimNetwork,
        federation: &InlineFederation,
        rx: &Receiver<NetMessage>,
        client: PeerId,
        broker: usize,
        message: crate::message::Message,
    ) -> crate::message::Message {
        net.send(client, federation.broker(broker).id(), message.to_bytes()).unwrap();
        federation.pump();
        while let Ok(delivered) = rx.try_recv() {
            if let Ok(parsed) = crate::message::Message::from_bytes(&delivered.payload) {
                if parsed.kind == crate::message::MessageKind::LookupResponse {
                    return parsed;
                }
            }
        }
        panic!("no LookupResponse arrived at the client");
    }

    #[test]
    fn sharded_lookup_routes_to_an_owning_replica() {
        use crate::message::{Message, MessageKind};
        let (net, _db, brokers) = make_sharded_brokers(4, 2, 0xB0);
        let federation = InlineFederation::new(brokers);
        let mut rng = HmacDrbg::from_seed_u64(0xB1);
        let group = GroupId::new("math");

        // A client logged in at broker 0 (so lookups are authorised there).
        let client = PeerId::random(&mut rng);
        let rx = net.register(client);
        federation.broker(0).establish_session(client, "alice");
        federation.pump();

        // An owner whose shard does NOT include broker 0 and one whose does.
        let b0 = federation.broker(0).id();
        let remote_owner = loop {
            let owner = PeerId::random(&mut rng);
            if !federation.broker(0).shard_replicas(&group, &owner).contains(&b0) {
                break owner;
            }
        };
        let local_owner = loop {
            let owner = PeerId::random(&mut rng);
            if federation.broker(0).shard_replicas(&group, &owner).contains(&b0) {
                break owner;
            }
        };
        federation.broker(1).index_and_distribute(
            remote_owner,
            &group,
            "jxta:PipeAdvertisement",
            "<remote/>",
        );
        federation.broker(1).index_and_distribute(
            local_owner,
            &group,
            "jxta:PipeAdvertisement",
            "<local/>",
        );
        federation.pump();
        assert!(federation.converged());
        assert!(
            federation
                .broker(0)
                .lookup(&group, "jxta:PipeAdvertisement", Some(remote_owner))
                .is_empty(),
            "broker 0 must not hold the remote owner's entry"
        );

        // Remote key: broker 0 routes the query to an owning replica and
        // still answers the client correctly.
        let lookup = Message::new(MessageKind::LookupRequest, client, 71)
            .with_str("group", "math")
            .with_str("doc-type", "jxta:PipeAdvertisement")
            .with_str("owner", &remote_owner.to_urn());
        let response = query_via_network(&net, &federation, &rx, client, 0, lookup);
        assert_eq!(response.request_id, 71);
        assert_eq!(response.element_str("count").unwrap(), "1");
        assert_eq!(response.element_str("adv-0").unwrap(), "<remote/>");
        assert_eq!(federation.broker(0).federation_stats().shard_misses, 1);

        // Local key: answered from broker 0's own shard.
        let lookup = Message::new(MessageKind::LookupRequest, client, 72)
            .with_str("group", "math")
            .with_str("doc-type", "jxta:PipeAdvertisement")
            .with_str("owner", &local_owner.to_urn());
        let response = query_via_network(&net, &federation, &rx, client, 0, lookup);
        assert_eq!(response.element_str("adv-0").unwrap(), "<local/>");
        assert_eq!(federation.broker(0).federation_stats().shard_hits, 1);

        // Group-wide search: scatter-gather merges both shards.
        let lookup = Message::new(MessageKind::LookupRequest, client, 73)
            .with_str("group", "math")
            .with_str("doc-type", "jxta:PipeAdvertisement");
        let response = query_via_network(&net, &federation, &rx, client, 0, lookup);
        assert_eq!(response.element_str("count").unwrap(), "2");
    }

    #[test]
    fn sharded_lookups_route_around_a_broker_swim_holds_dead() {
        use crate::message::{Message, MessageKind};
        use crate::net::FaultPlan;
        use crate::swim::{PeerState, PROBE_BUDGET_TICKS};
        let (net, _db, brokers) = make_sharded_brokers(4, 2, 0xBA);
        let federation = InlineFederation::new(brokers);
        let ids: Vec<PeerId> = (0..4).map(|i| federation.broker(i).id()).collect();
        let mut rng = HmacDrbg::from_seed_u64(0xBB);
        let group = GroupId::new("math");
        let client = PeerId::random(&mut rng);
        let rx = net.register(client);
        federation.broker(0).establish_session(client, "alice");
        let owners: Vec<PeerId> = (0..40).map(|_| PeerId::random(&mut rng)).collect();
        for (i, owner) in owners.iter().enumerate() {
            let xml = format!("<adv-{i}/>");
            federation.broker(1).index_and_distribute(*owner, &group, "jxta:PipeAdvertisement", &xml);
        }
        federation.pump();
        assert!(federation.converged());

        // Broker 3 crash-stops.  It stays admitted and on the shard ring;
        // only SWIM at the survivors learns that it is dead.
        let plan = FaultPlan::new(0xBC).crash_stop(ids[3], 0).into_adversary();
        net.set_adversary(plan.clone());
        for _ in 0..PROBE_BUDGET_TICKS {
            for i in 0..3 {
                federation.broker(i).start_repair_round();
            }
            federation.pump();
            plan.advance_tick();
        }
        let record = federation.broker(0).swim_record(&ids[3]);
        assert!(matches!(record.map(|r| r.state), Some(PeerState::Dead)), "{record:?}");
        assert!(federation.broker(0).is_peer_broker(&ids[3]));

        // Every keyed lookup routed past broker 0 is answered by a live
        // replica, those the dead broker co-owns included.
        let replicas = |owner: &PeerId| federation.broker(0).shard_replicas(&group, owner);
        let routed: Vec<usize> =
            (0..owners.len()).filter(|&i| !replicas(&owners[i]).contains(&ids[0])).collect();
        assert!(routed.iter().any(|&i| replicas(&owners[i]).contains(&ids[3])));
        for i in routed {
            let request = 100 + i as u64;
            let lookup = Message::new(MessageKind::LookupRequest, client, request)
                .with_str("group", "math")
                .with_str("doc-type", "jxta:PipeAdvertisement")
                .with_str("owner", &owners[i].to_urn());
            let response = query_via_network(&net, &federation, &rx, client, 0, lookup);
            assert_eq!(response.request_id, request);
            assert_eq!(response.element_str("adv-0").unwrap(), format!("<adv-{i}/>"));
        }

        // A group-wide search scatters to the live brokers only and still
        // merges every entry.
        let lookup = Message::new(MessageKind::LookupRequest, client, 99)
            .with_str("group", "math")
            .with_str("doc-type", "jxta:PipeAdvertisement");
        let response = query_via_network(&net, &federation, &rx, client, 0, lookup);
        assert_eq!(response.request_id, 99);
        assert_eq!(response.element_str("count").unwrap(), "40");
    }

    #[test]
    fn sharded_membership_query_routes_across_shards() {
        use crate::message::{Message, MessageKind};
        let (net, _db, brokers) = make_sharded_brokers(4, 2, 0xB4);
        let federation = InlineFederation::new(brokers);
        let mut rng = HmacDrbg::from_seed_u64(0xB5);

        let client = PeerId::random(&mut rng);
        let rx = net.register(client);
        federation.broker(0).establish_session(client, "alice");
        // Bob logs in at broker 3; his membership is sharded.
        let bob = PeerId::random(&mut rng);
        federation.broker(3).establish_session(bob, "bob");
        federation.pump();
        assert!(federation.converged());

        let query = Message::new(MessageKind::LookupRequest, client, 80)
            .with_str("group", "math")
            .with_str("member", &bob.to_urn());
        let response = query_via_network(&net, &federation, &rx, client, 0, query);
        assert_eq!(response.element_str("member").unwrap(), "true");

        // A stranger is not a member anywhere.
        let stranger = PeerId::random(&mut rng);
        let query = Message::new(MessageKind::LookupRequest, client, 81)
            .with_str("group", "math")
            .with_str("member", &stranger.to_urn());
        let response = query_via_network(&net, &federation, &rx, client, 0, query);
        assert_eq!(response.element_str("member").unwrap(), "false");
    }

    #[test]
    fn shard_query_from_unknown_origin_is_rejected() {
        use crate::message::{Message, MessageKind};
        let (net, _db, brokers) = make_sharded_brokers(2, 2, 0xB8);
        let federation = InlineFederation::new(brokers);
        let mut rng = HmacDrbg::from_seed_u64(0xB9);
        let rogue = PeerId::random(&mut rng);
        let rogue_rx = net.register(rogue);

        let query = Message::new(MessageKind::ShardQuery, rogue, 0)
            .with_str("seq", "1")
            .with_str("query", "1")
            .with_str("group", "math")
            .with_str("doc-type", "jxta:PipeAdvertisement");
        net.send(rogue, federation.broker(0).id(), query.to_bytes())
            .unwrap();
        federation.pump();
        assert_eq!(
            federation.broker(0).federation_stats().rejected_unknown_origin,
            1
        );
        assert!(
            rogue_rx.try_recv().is_err(),
            "no shard data flows to an unadmitted origin"
        );
    }

    #[test]
    fn broker_join_and_leave_migrate_entries_on_the_ring() {
        let (net, db, brokers) = make_sharded_brokers(3, 2, 0xC0);
        let mut federation = InlineFederation::new(brokers);
        let mut rng = HmacDrbg::from_seed_u64(0xC1);
        let alice = PeerId::random(&mut rng);
        federation.broker(0).establish_session(alice, "alice");
        let owners = publish_batch(&federation, 0, 30, &mut rng);
        federation.pump();
        assert!(federation.converged());

        // A fourth broker joins the backbone: the ring re-routes a share of
        // the entries onto it, and nothing is lost.
        let newcomer = Broker::new(
            PeerId::random(&mut rng),
            BrokerConfig::sharded("broker-4", 2),
            Arc::clone(&net),
            Arc::clone(&db),
        );
        federation.add_broker(Arc::clone(&newcomer));
        assert!(federation.converged(), "converged after broker join");
        assert!(
            newcomer.advertisement_entry_count() > 0,
            "the newcomer received its shard"
        );
        let migrated: u64 = (0..federation.len())
            .map(|i| federation.broker(i).federation_stats().entries_migrated)
            .sum();
        assert!(migrated > 0, "entries moved off their old replicas");
        let total: usize = (0..federation.len())
            .map(|i| federation.broker(i).advertisement_entry_count())
            .sum();
        assert_eq!(total, owners.len() * 2, "still exactly K copies of each entry");

        // A broker leaves: survivors re-replicate its shard among themselves.
        federation.remove_broker(1);
        assert!(federation.converged(), "converged after broker leave");
        let total: usize = (0..federation.len())
            .map(|i| federation.broker(i).advertisement_entry_count())
            .sum();
        assert_eq!(total, owners.len() * 2, "no entry lost on departure");
        // Alice's session (homed at broker 0) survived the churn.
        assert!(federation.broker(0).session(&alice).is_some());
    }

    #[test]
    fn migration_gossip_is_coalesced_into_digests() {
        // Re-sharding moves many entries, but ships them as one BrokerSync
        // digest per destination — the backbone message count is O(brokers),
        // not O(entries).  This is the satellite fix for the one-message-per-
        // event gossip of PR 2.
        let (net, db, brokers) = make_sharded_brokers(3, 2, 0xC4);
        let mut federation = InlineFederation::new(brokers);
        let mut rng = HmacDrbg::from_seed_u64(0xC5);
        publish_batch(&federation, 0, 40, &mut rng);
        federation.pump();

        let syncs_before: u64 = (0..3)
            .map(|i| federation.broker(i).federation_stats().syncs_sent)
            .sum();
        let newcomer = Broker::new(
            PeerId::random(&mut rng),
            BrokerConfig::sharded("broker-4", 2),
            Arc::clone(&net),
            Arc::clone(&db),
        );
        federation.add_broker(newcomer);
        assert!(federation.converged());

        let migrated: u64 = (0..federation.len())
            .map(|i| federation.broker(i).federation_stats().entries_migrated)
            .sum();
        let syncs_after: u64 = (0..federation.len())
            .map(|i| federation.broker(i).federation_stats().syncs_sent)
            .sum();
        let messages = syncs_after - syncs_before;
        assert!(migrated > 3, "enough churn to make batching observable");
        assert!(
            messages <= (federation.len() * federation.len()) as u64,
            "migration must coalesce: {messages} messages for {migrated} migrated entries"
        );
        assert!(
            messages < migrated,
            "fewer backbone messages than migrated entries ({messages} vs {migrated})"
        );
    }

    #[test]
    fn repair_is_idle_on_a_healthy_federation() {
        let (_net, _db, brokers) = make_brokers(3, 0xD0);
        let federation = InlineFederation::new(brokers);
        let mut rng = HmacDrbg::from_seed_u64(0xD1);
        let alice = PeerId::random(&mut rng);
        federation.broker(0).establish_session(alice, "alice");
        federation
            .broker(0)
            .index_and_distribute(alice, &GroupId::new("math"), "jxta:PipeAdvertisement", "<a/>");
        federation.pump();
        assert!(federation.converged());

        assert_eq!(federation.repair(), 0, "nothing to repair when converged");
        for i in 0..3 {
            let stats = federation.broker(i).federation_stats();
            assert_eq!(stats.repair_mismatches, 0, "broker {i} saw no mismatch");
            assert!(stats.repair_rounds >= 1, "broker {i} initiated a round");
        }
        assert!(federation.converged(), "repair does not perturb healthy state");
        assert_eq!(federation.repair_until_converged(2), Some(0));
    }

    #[test]
    fn anti_entropy_repairs_a_dropped_publish_and_join() {
        use crate::net::RandomDrop;
        // All backbone traffic between broker 0 and broker 1 is lost while
        // alice joins and publishes at broker 0: broker 1 diverges (the PR 3
        // state of the world: detectable forever, repaired never).  One
        // repair round must heal index, membership and routing.
        let (net, _db, brokers) = make_brokers(3, 0xD2);
        let federation = InlineFederation::new(brokers);
        let mut rng = HmacDrbg::from_seed_u64(0xD3);
        let alice = PeerId::random(&mut rng);
        let group = GroupId::new("math");
        let edge = vec![federation.broker(0).id(), federation.broker(1).id()];
        net.set_adversary(RandomDrop::between(1, 100, edge));

        federation.broker(0).establish_session(alice, "alice");
        federation
            .broker(0)
            .index_and_distribute(alice, &group, "jxta:PipeAdvertisement", "<a/>");
        federation.pump();
        net.clear_adversary();

        assert!(!federation.converged(), "the drop diverged the replicas");
        assert!(federation.broker(1).home_of(&alice).is_none());
        assert!(federation
            .broker(1)
            .lookup(&group, "jxta:PipeAdvertisement", Some(alice))
            .is_empty());
        // Broker 2 saw everything (its edges were clean).
        assert_eq!(federation.broker(2).home_of(&alice), Some(federation.broker(0).id()));

        let repaired = federation.repair();
        assert!(repaired > 0, "repair healed entries");
        assert!(federation.converged(), "one round reconverges the federation");
        assert_eq!(federation.broker(1).home_of(&alice), Some(federation.broker(0).id()));
        assert_eq!(
            federation.broker(1).lookup(&group, "jxta:PipeAdvertisement", Some(alice)),
            vec!["<a/>".to_string()]
        );
        assert!(federation.broker(1).groups().is_member(&group, &alice));
        let mismatches: u64 = (0..3)
            .map(|i| federation.broker(i).federation_stats().repair_mismatches)
            .sum();
        assert!(mismatches > 0, "the divergence was detected via digests");
    }

    #[test]
    fn anti_entropy_repairs_a_dropped_leave() {
        use crate::net::RandomDrop;
        // Broker 1 misses alice's departure: without repair it keeps her
        // routing and membership as ghosts forever.
        let (net, _db, brokers) = make_brokers(3, 0xD4);
        let federation = InlineFederation::new(brokers);
        let mut rng = HmacDrbg::from_seed_u64(0xD5);
        let alice = PeerId::random(&mut rng);
        federation.broker(0).establish_session(alice, "alice");
        federation.pump();
        assert!(federation.converged());

        let edge = vec![federation.broker(0).id(), federation.broker(1).id()];
        net.set_adversary(RandomDrop::between(2, 100, edge));
        federation.broker(0).drop_session(&alice);
        federation.pump();
        net.clear_adversary();

        assert!(!federation.converged());
        assert!(federation.broker(1).groups().is_member(&GroupId::new("math"), &alice));

        assert!(federation.repair() > 0);
        assert!(federation.converged());
        assert!(federation.broker(1).home_of(&alice).is_none());
        assert!(
            !federation.broker(1).groups().is_member(&GroupId::new("math"), &alice),
            "the ghost membership was repaired away"
        );
    }

    #[test]
    fn sharded_divergence_heals_with_lww_intact() {
        use crate::net::RandomDrop;
        // Sharded federation: a replica misses a *re-publish* (newer version
        // of an existing key).  Repair must converge every replica to the
        // newer write — and must never regress it back to the old one.
        let (net, _db, brokers) = make_sharded_brokers(4, 2, 0xD6);
        let federation = InlineFederation::new(brokers);
        let mut rng = HmacDrbg::from_seed_u64(0xD7);
        let group = GroupId::new("math");
        let owner = PeerId::random(&mut rng);
        federation
            .broker(0)
            .index_and_distribute(owner, &group, "jxta:PipeAdvertisement", "<v1/>");
        federation.pump();
        assert!(federation.converged());

        // Drop all backbone gossip while the re-publish happens, so at least
        // one replica keeps serving <v1/>.
        let backbone: Vec<PeerId> = (0..4).map(|i| federation.broker(i).id()).collect();
        net.set_adversary(RandomDrop::between(3, 100, backbone));
        federation
            .broker(0)
            .index_and_distribute(owner, &group, "jxta:PipeAdvertisement", "<v2/>");
        federation.pump();
        net.clear_adversary();

        let rounds = federation.repair_until_converged(4).expect("repair reconverges");
        // Which xml won depends on whether broker 0 is a replica of the key;
        // either way every replica serves the same, *newest surviving* write.
        let survivors: Vec<String> = (0..4)
            .flat_map(|i| {
                federation
                    .broker(i)
                    .lookup(&group, "jxta:PipeAdvertisement", Some(owner))
            })
            .collect();
        assert!(!survivors.is_empty());
        assert!(
            survivors.iter().all(|xml| xml == &survivors[0]),
            "all replicas agree after {rounds} rounds: {survivors:?}"
        );
        if federation
            .broker(0)
            .shard_replicas(&group, &owner)
            .contains(&federation.broker(0).id())
        {
            assert_eq!(survivors[0], "<v2/>", "the origin stored v2, so v2 must win");
        }
    }

    #[test]
    fn keyed_shard_queries_rotate_across_the_replica_set() {
        use crate::message::{Message, MessageKind};
        let (net, _db, brokers) = make_sharded_brokers(5, 3, 0xD8);
        let federation = InlineFederation::new(brokers);
        let mut rng = HmacDrbg::from_seed_u64(0xD9);
        let group = GroupId::new("math");

        let client = PeerId::random(&mut rng);
        let rx = net.register(client);
        federation.broker(0).establish_session(client, "alice");
        federation.pump();

        // An owner whose replica set excludes broker 0: all three replicas
        // are remote, so every keyed lookup must be routed.
        let b0 = federation.broker(0).id();
        let owner = loop {
            let candidate = PeerId::random(&mut rng);
            if !federation.broker(0).shard_replicas(&group, &candidate).contains(&b0) {
                break candidate;
            }
        };
        federation
            .broker(1)
            .index_and_distribute(owner, &group, "jxta:PipeAdvertisement", "<hot/>");
        federation.pump();
        assert!(federation.converged());

        let replicas = federation.broker(0).shard_replicas(&group, &owner);
        assert_eq!(replicas.len(), 3);
        let before: Vec<u64> = replicas.iter().map(|r| net.delivered_to(r)).collect();
        for i in 0..6 {
            let lookup = Message::new(MessageKind::LookupRequest, client, 90 + i)
                .with_str("group", "math")
                .with_str("doc-type", "jxta:PipeAdvertisement")
                .with_str("owner", &owner.to_urn());
            let response = query_via_network(&net, &federation, &rx, client, 0, lookup);
            assert_eq!(response.element_str("adv-0").unwrap(), "<hot/>");
        }
        let deltas: Vec<u64> = replicas
            .iter()
            .zip(&before)
            .map(|(r, b)| net.delivered_to(r) - b)
            .collect();
        assert!(
            deltas.iter().all(|d| *d >= 1),
            "6 keyed lookups must spread over all 3 replicas, got {deltas:?}"
        );
    }

    #[test]
    fn adaptive_repair_delay_policy() {
        let mut rng = HmacDrbg::from_seed_u64(0xADA9);
        let ceiling = Duration::from_millis(800);
        let a = PeerId::random(&mut rng);
        let b = PeerId::random(&mut rng);

        // Deterministic, and never above the configured ceiling.
        assert_eq!(next_repair_delay(ceiling, 0, &a), next_repair_delay(ceiling, 0, &a));
        for mismatches in 0..6 {
            for broker in [&a, &b] {
                assert!(next_repair_delay(ceiling, mismatches, broker) <= ceiling);
            }
        }

        // Observed mismatches shrink the delay monotonically, saturating at
        // ceiling / MIN_REPAIR_INTERVAL_DIVISOR (times the jitter factor).
        let delays: Vec<Duration> = (0..5).map(|m| next_repair_delay(ceiling, m, &a)).collect();
        assert!(delays.windows(2).all(|w| w[1] <= w[0]), "{delays:?}");
        assert!(delays[3] < delays[0] / 4, "three mismatches shrink ≥ 8x: {delays:?}");
        assert_eq!(delays[3], delays[4], "acceleration saturates");
        assert!(
            delays[4] >= ceiling / (2 * MIN_REPAIR_INTERVAL_DIVISOR),
            "the floor keeps repair from busy-spinning"
        );

        // Distinct brokers get distinct jitter, so equal ceilings do not
        // synchronise their rounds.
        let healthy_a = next_repair_delay(ceiling, 0, &a);
        let healthy_b = next_repair_delay(ceiling, 0, &b);
        assert_ne!(healthy_a, healthy_b);
        for broker in [&a, &b] {
            let healthy = next_repair_delay(ceiling, 0, broker);
            assert!(healthy >= ceiling.mul_f64(0.75) && healthy <= ceiling);
        }
    }

    #[test]
    fn adaptive_repair_accelerates_on_divergence_and_heals() {
        use crate::net::RandomDrop;
        // A spawned federation with a large repair ceiling: after a lossy
        // episode the mismatch-driven acceleration must repair well before
        // several ceilings elapse.
        let (net, _db, brokers) = make_brokers(3, 0xADAA);
        let all = brokers.clone();
        let ceiling = Duration::from_millis(400);
        let federation = BrokerNetwork::spawn_with_repair(brokers, Some(ceiling));
        let mut rng = HmacDrbg::from_seed_u64(0xADAB);
        let alice = PeerId::random(&mut rng);

        let edge = vec![federation.id(0), federation.id(1)];
        net.set_adversary(RandomDrop::between(5, 100, edge));
        federation.broker(0).establish_session(alice, "alice");
        federation
            .broker(0)
            .index_and_distribute(alice, &GroupId::new("math"), "jxta:PipeAdvertisement", "<a/>");
        // Let the (partially dropped) gossip drain before lifting the drops.
        let deadline = crate::clock::now() + Duration::from_secs(2);
        while crate::clock::now() < deadline {
            let drained = all.iter().all(|broker| {
                broker.processed_count() == net.delivered_to(&broker.id())
            });
            if drained {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        net.clear_adversary();

        assert!(
            federation.await_convergence(Duration::from_secs(10)),
            "adaptive repair reconverges the federation"
        );
        let repaired: u64 = (0..3)
            .map(|i| federation.broker(i).federation_stats().entries_repaired)
            .sum();
        assert!(repaired > 0, "the heal went through anti-entropy");
        federation.shutdown();
    }

    #[test]
    fn keyed_shard_queries_prefer_the_cheapest_link() {
        use crate::message::{Message, MessageKind};
        use crate::net::LinkModel;
        let (net, _db, brokers) = make_sharded_brokers(5, 3, 0xD8);
        let federation = InlineFederation::new(brokers);
        let mut rng = HmacDrbg::from_seed_u64(0xD9);
        let group = GroupId::new("math");

        let client = PeerId::random(&mut rng);
        let rx = net.register(client);
        federation.broker(0).establish_session(client, "alice");
        federation.pump();

        // Same fixture as the rotation test: an owner whose three replicas
        // are all remote from broker 0 — but now one replica sits behind a
        // WAN-priced link, so the rotation must skip it entirely.
        let b0 = federation.broker(0).id();
        let owner = loop {
            let candidate = PeerId::random(&mut rng);
            if !federation.broker(0).shard_replicas(&group, &candidate).contains(&b0) {
                break candidate;
            }
        };
        federation
            .broker(1)
            .index_and_distribute(owner, &group, "jxta:PipeAdvertisement", "<hot/>");
        federation.pump();
        assert!(federation.converged());

        let replicas = federation.broker(0).shard_replicas(&group, &owner);
        assert_eq!(replicas.len(), 3);
        let wan_replica = replicas[0];
        net.set_link_between(b0, wan_replica, LinkModel::wan());

        let before: Vec<u64> = replicas.iter().map(|r| net.delivered_to(r)).collect();
        for i in 0..6 {
            let lookup = Message::new(MessageKind::LookupRequest, client, 90 + i)
                .with_str("group", "math")
                .with_str("doc-type", "jxta:PipeAdvertisement")
                .with_str("owner", &owner.to_urn());
            let response = query_via_network(&net, &federation, &rx, client, 0, lookup);
            assert_eq!(response.element_str("adv-0").unwrap(), "<hot/>");
        }
        let deltas: Vec<u64> = replicas
            .iter()
            .zip(&before)
            .map(|(r, b)| net.delivered_to(r) - b)
            .collect();
        assert_eq!(
            deltas[0], 0,
            "the WAN-priced replica is avoided entirely: {deltas:?}"
        );
        assert!(
            deltas[1] >= 1 && deltas[2] >= 1,
            "the equally cheap replicas share the load: {deltas:?}"
        );
    }

    #[test]
    fn spawned_federation_admits_and_removes_brokers() {
        let (net, db, brokers) = make_sharded_brokers(3, 2, 0xDA);
        let mut rng = HmacDrbg::from_seed_u64(0xDB);
        let alice = PeerId::random(&mut rng);
        let mut federation = BrokerNetwork::spawn(brokers);
        federation.broker(0).establish_session(alice, "alice");
        let owners: Vec<PeerId> = (0..24)
            .map(|i| {
                let owner = PeerId::random(&mut rng);
                federation.broker(0).index_and_distribute(
                    owner,
                    &GroupId::new("math"),
                    "jxta:PipeAdvertisement",
                    &format!("<adv n=\"{i}\"/>"),
                );
                owner
            })
            .collect();
        assert!(federation.await_convergence(Duration::from_secs(2)));

        // A fourth broker joins the *running* backbone and receives a shard.
        let newcomer = Broker::new(
            PeerId::random(&mut rng),
            BrokerConfig::sharded("broker-4", 2),
            Arc::clone(&net),
            Arc::clone(&db),
        );
        federation.add_broker(Arc::clone(&newcomer));
        assert_eq!(federation.len(), 4);
        assert!(federation.await_convergence(Duration::from_secs(2)));
        assert!(newcomer.advertisement_entry_count() > 0, "the newcomer owns a shard");
        let total: usize = (0..4)
            .map(|i| federation.broker(i).advertisement_entry_count())
            .sum();
        assert_eq!(total, owners.len() * 2, "exactly K copies of each entry");

        // A broker leaves; the survivors re-replicate its shard.
        federation.remove_broker(1);
        assert_eq!(federation.len(), 3);
        assert!(federation.await_convergence(Duration::from_secs(2)));
        let total: usize = (0..3)
            .map(|i| federation.broker(i).advertisement_entry_count())
            .sum();
        assert_eq!(total, owners.len() * 2, "no entry lost on departure");
        assert!(federation.broker(0).session(&alice).is_some());
        federation.shutdown();
    }

    #[test]
    fn spawned_federation_repairs_on_an_interval() {
        use crate::net::RandomDrop;
        // The periodic repair loop heals a divergence with no manual pump:
        // the drop adversary severs one backbone edge during a publish, and
        // once it lifts, the interval-driven anti-entropy reconverges the
        // federation by itself.
        let (net, _db, brokers) = make_brokers(2, 0xDC);
        let mut rng = HmacDrbg::from_seed_u64(0xDD);
        let alice = PeerId::random(&mut rng);
        let federation =
            BrokerNetwork::spawn_with_repair(brokers, Some(Duration::from_millis(10)));
        let edge = vec![federation.broker(0).id(), federation.broker(1).id()];
        net.set_adversary(RandomDrop::between(4, 100, edge));
        federation.broker(0).establish_session(alice, "alice");
        federation
            .broker(0)
            .index_and_distribute(alice, &GroupId::new("math"), "jxta:PipeAdvertisement", "<a/>");
        std::thread::sleep(Duration::from_millis(30));
        net.clear_adversary();

        assert!(
            federation.await_convergence(Duration::from_secs(2)),
            "interval repair must reconverge the federation unattended"
        );
        assert_eq!(
            federation.broker(1).home_of(&alice),
            Some(federation.broker(0).id())
        );
        let repaired: u64 = (0..2)
            .map(|i| federation.broker(i).federation_stats().entries_repaired)
            .sum();
        assert!(repaired > 0, "the healing went through the repair path");
        federation.shutdown();
    }

    #[test]
    fn try_pump_budget_spent_on_a_draining_workload_is_not_a_stall() {
        // A workload of exactly `budget` messages that leaves the queues
        // empty is a success, not a livelock.
        let (_net, _db, brokers) = make_brokers(2, 0xCB);
        let federation = InlineFederation::new(brokers);
        let mut rng = HmacDrbg::from_seed_u64(0xCC);
        let alice = PeerId::random(&mut rng);
        federation.broker(0).establish_session(alice, "alice");
        // The join gossips exactly one digest to broker 1.
        assert_eq!(federation.try_pump(1), Ok(1));
        assert!(federation.converged());
    }

    #[test]
    fn crashed_broker_removal_clears_its_clients_membership() {
        // A broker that crashes never gossips its clients' leaves; removing
        // it from the backbone must still clear their replicated group
        // membership on the survivors, or they stay ghost members forever.
        let (_net, _db, brokers) = make_sharded_brokers(3, 2, 0xCD);
        let mut federation = InlineFederation::new(brokers);
        let mut rng = HmacDrbg::from_seed_u64(0xCE);
        let alice = PeerId::random(&mut rng);
        federation.broker(2).establish_session(alice, "alice");
        federation.pump();

        // Simulate a crash: survivors drop the broker without it having
        // gossiped anything (bypassing remove_broker's graceful
        // drop_session path).
        let dead = federation.broker(2).id();
        federation.broker(2).unregister();
        for i in 0..2 {
            federation.broker(i).remove_peer_broker(&dead);
        }
        for i in 0..2 {
            assert!(
                federation.broker(i).home_of(&alice).is_none(),
                "broker {i} must drop the crashed broker's routes"
            );
            assert!(
                !federation.broker(i).groups().is_member(&GroupId::new("math"), &alice),
                "broker {i} must not keep ghost membership"
            );
        }
        // Re-sharding afterwards does not resurrect the ghost.
        for i in 0..2 {
            federation.broker(i).reshard();
        }
        let remaining: Vec<Arc<Broker>> =
            (0..2).map(|i| Arc::clone(federation.broker(i))).collect();
        federation.brokers.truncate(2);
        federation.inboxes.truncate(2);
        federation.pump();
        for broker in &remaining {
            assert!(!broker.groups().is_member(&GroupId::new("math"), &alice));
        }
    }

    #[test]
    fn try_pump_detects_a_livelocked_backbone() {
        use crate::net::{Adversary, NetMessage as RawNetMessage};
        // An adversary that answers every message broker 0 *sends* (its
        // replies) by injecting a fresh request back into broker 0: each
        // processed message begets another, so without a budget pump() would
        // spin forever.
        struct Feedback {
            target: PeerId,
            source: PeerId,
        }
        impl Adversary for Feedback {
            fn inject(&self, message: &RawNetMessage) -> Vec<RawNetMessage> {
                if message.from != self.target {
                    return Vec::new();
                }
                let ping = crate::message::Message::new(
                    crate::message::MessageKind::ConnectRequest,
                    self.source,
                    0,
                );
                vec![RawNetMessage {
                    from: self.source,
                    to: self.target,
                    payload: ping.to_bytes(),
                    wire_time: Duration::ZERO,
                }]
            }
        }

        let (net, _db, brokers) = make_brokers(2, 0xC8);
        let federation = InlineFederation::new(brokers);
        let mut rng = HmacDrbg::from_seed_u64(0xC9);
        let source = PeerId::random(&mut rng);
        let _source_rx = net.register(source);
        net.set_adversary(Arc::new(Feedback {
            target: federation.broker(0).id(),
            source,
        }));

        // Seed the feedback loop with one message.
        let ping =
            crate::message::Message::new(crate::message::MessageKind::ConnectRequest, source, 0);
        net.send(source, federation.broker(0).id(), ping.to_bytes())
            .unwrap();

        let result = federation.try_pump(500);
        assert_eq!(result, Err(PumpStalled { processed: 500 }));
        net.clear_adversary();
        // With the adversary gone the backbone drains normally again.
        assert!(federation.try_pump(DEFAULT_PUMP_BUDGET).is_ok());
    }

    /// The tentpole property of the hash-tree repair: a 1-entry divergence
    /// in a 100 000-entry section heals within `depth + 1` exchange legs and
    /// ships well under 1% of the bytes the flat full-section snapshot
    /// protocol needs for the same divergence.
    #[test]
    fn single_divergence_in_large_section_heals_in_bounded_legs_and_bytes() {
        use crate::shard::REPAIR_TREE_DEPTH;

        let entries = 100_000usize;
        // Returns (repair bytes, exchange legs) summed over both brokers.
        let run = |tree: bool| -> (u64, u64) {
            let mut rng = HmacDrbg::from_seed_u64(0xD17);
            let network = SimNetwork::new(LinkModel::ideal());
            let database = Arc::new(UserDatabase::new());
            let brokers: Vec<Arc<Broker>> = (0..2)
                .map(|i| {
                    let config = crate::broker::BrokerConfig {
                        name: format!("broker-{i}"),
                        ..Default::default()
                    };
                    let config = if tree { config } else { config.with_flat_repair() };
                    Broker::new(
                        PeerId::random(&mut rng),
                        config,
                        Arc::clone(&network),
                        Arc::clone(&database),
                    )
                })
                .collect();
            let federation = InlineFederation::new(brokers);
            let group = GroupId::new("math");
            let origin = federation.broker(0).id();
            let mut first_owner = None;
            for i in 0..entries {
                let owner = PeerId::random(&mut rng);
                first_owner.get_or_insert(owner);
                for b in 0..2 {
                    federation.broker(b).load_advertisement(
                        owner,
                        &group,
                        "jxta:PipeAdvertisement",
                        &format!("<adv n=\"{i}\"/>"),
                        (1, origin),
                    );
                }
            }
            // One write broker 1 missed: broker 0 holds a newer version of a
            // single entry.
            federation.broker(0).load_advertisement(
                first_owner.unwrap(),
                &group,
                "jxta:PipeAdvertisement",
                "<adv n=\"0\" rev=\"2\"/>",
                (2, origin),
            );
            assert!(!federation.converged());
            assert!(
                federation.repair_until_converged(2).is_some(),
                "tree={tree}: no reconvergence"
            );
            let mut bytes = 0u64;
            let mut legs = 0u64;
            for b in 0..2 {
                let stats = federation.broker(b).federation_stats();
                bytes += stats.repair_bytes;
                legs += stats.descent_rounds + stats.repair_pages;
            }
            (bytes, legs)
        };

        let (tree_bytes, tree_legs) = run(true);
        let (flat_bytes, _) = run(false);
        assert!(tree_bytes > 0 && flat_bytes > 0);
        // With the triggering digest, the exchange took `tree_legs + 1`
        // legs; the acceptance bound is depth + 1.
        assert!(
            tree_legs <= u64::from(REPAIR_TREE_DEPTH),
            "descent took {tree_legs} range/page legs — more than depth"
        );
        assert!(
            tree_bytes * 100 < flat_bytes,
            "tree repair shipped {tree_bytes} bytes, \
             not under 1% of the flat protocol's {flat_bytes}"
        );
    }
}

#[cfg(test)]
mod proptests {
    //! Replication-convergence property tests: random sequences of joins,
    //! leaves and publishes, applied at random brokers, must end with every
    //! broker holding the identical advertisement index, group membership and
    //! routing table once the gossip queues drain.  Like the other proptests
    //! in this workspace, the cases are deterministic (name-seeded runner,
    //! fixed DRBG seeds), so failures reproduce exactly.

    use super::*;
    use crate::broker::BrokerConfig;
    use crate::database::UserDatabase;
    use crate::group::GroupId;
    use crate::net::{LinkModel, SimNetwork};
    use jxta_crypto::drbg::HmacDrbg;
    use proptest::prelude::*;
    use std::collections::HashMap;

    const USERS: usize = 5;
    const GROUP_NAMES: [&str; 3] = ["math", "chem", "bio"];

    fn build_federation(broker_count: usize) -> (InlineFederation, Vec<PeerId>) {
        let mut rng = HmacDrbg::from_seed_u64(0xC04E);
        let network = SimNetwork::new(LinkModel::ideal());
        let database = Arc::new(UserDatabase::new());
        for u in 0..USERS {
            // Each user belongs to a deterministic subset of the groups.
            let groups: Vec<GroupId> = GROUP_NAMES
                .iter()
                .enumerate()
                .filter(|(g, _)| (u + g) % 2 == 0)
                .map(|(_, name)| GroupId::new(*name))
                .collect();
            database.register_user(&mut rng, &format!("user-{u}"), "pw", &groups);
        }
        let brokers: Vec<Arc<Broker>> = (0..broker_count)
            .map(|i| {
                Broker::new(
                    PeerId::random(&mut rng),
                    BrokerConfig::named(format!("broker-{}", i + 1)),
                    Arc::clone(&network),
                    Arc::clone(&database),
                )
            })
            .collect();
        let peers = (0..USERS).map(|_| PeerId::random(&mut rng)).collect();
        (InlineFederation::new(brokers), peers)
    }

    /// One scripted operation: `(selector, user index, broker index)`.
    /// `selector % 3` picks join / leave / publish.
    type Op = (u8, usize, usize);

    fn run_ops(federation: &InlineFederation, peers: &[PeerId], ops: &[Op]) {
        // Tracks where each user is currently homed so the script never
        // issues the ambiguous "joined at two brokers at once" sequence a
        // real client cannot produce either.
        let mut homes: HashMap<usize, usize> = HashMap::new();
        for &(selector, user, broker) in ops {
            let user = user % USERS;
            let broker = broker % federation.len();
            match selector % 3 {
                0 => {
                    if let std::collections::hash_map::Entry::Vacant(e) = homes.entry(user) {
                        federation
                            .broker(broker)
                            .establish_session(peers[user], &format!("user-{user}"));
                        e.insert(broker);
                    }
                }
                1 => {
                    if let Some(home) = homes.remove(&user) {
                        federation.broker(home).drop_session(&peers[user]);
                    }
                }
                _ => {
                    let group = GROUP_NAMES[(user + broker) % GROUP_NAMES.len()];
                    federation.broker(broker).index_and_distribute(
                        peers[user],
                        &GroupId::new(group),
                        "jxta:PipeAdvertisement",
                        &format!("<adv owner=\"{user}\" at=\"{broker}\"/>"),
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn replicated_state_converges_on_every_broker(
            broker_count in 2usize..5,
            ops in proptest::collection::vec((any::<u8>(), 0usize..USERS, 0usize..4), 0..40),
        ) {
            let (federation, peers) = build_federation(broker_count);
            run_ops(&federation, &peers, &ops);
            federation.pump();
            prop_assert!(federation.converged(), "brokers diverged after {} ops", ops.len());
            prop_assert_eq!(federation.pump(), 0, "pump must be idempotent once quiescent");
        }

        #[test]
        fn advertisement_indexes_are_identical_regardless_of_publish_origin(
            publishes in proptest::collection::vec((0usize..USERS, 0usize..3), 1..30),
        ) {
            let (federation, peers) = build_federation(3);
            for &(user, broker) in &publishes {
                federation.broker(broker).index_and_distribute(
                    peers[user],
                    &GroupId::new(GROUP_NAMES[user % GROUP_NAMES.len()]),
                    "jxta:FileAdvertisement",
                    &format!("<file owner=\"{user}\" from=\"{broker}\"/>"),
                );
            }
            federation.pump();
            let reference = federation.broker(0).advertisement_snapshot();
            prop_assert!(!reference.is_empty());
            for i in 1..federation.len() {
                prop_assert_eq!(&federation.broker(i).advertisement_snapshot(), &reference);
            }
        }

        #[test]
        fn membership_and_routing_converge_under_joins_and_leaves(
            ops in proptest::collection::vec((0u8..2, 0usize..USERS, 0usize..3), 0..30),
        ) {
            let (federation, peers) = build_federation(3);
            run_ops(&federation, &peers, &ops);
            federation.pump();
            let groups = federation.broker(0).groups().snapshot();
            let routing = federation.broker(0).routing_snapshot();
            for i in 1..federation.len() {
                prop_assert_eq!(&federation.broker(i).groups().snapshot(), &groups);
                prop_assert_eq!(&federation.broker(i).routing_snapshot(), &routing);
            }
        }
    }
}


#[cfg(test)]
mod repair_proptests {
    //! Anti-entropy under adversarial loss: random backbone drops + random
    //! join/leave/publish sequences + bounded repair rounds must always
    //! reconverge, and the surviving advertisement versions must be exactly
    //! the per-key maxima that existed before repair started — repair heals
    //! missed writes but never regresses a newer one and never invents data.

    use super::*;
    use crate::broker::BrokerConfig;
    use crate::database::UserDatabase;
    use crate::group::GroupId;
    use crate::net::{LinkModel, RandomDrop, SimNetwork};
    use jxta_crypto::drbg::HmacDrbg;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    const USERS: usize = 4;
    const GROUP_NAMES: [&str; 2] = ["math", "chem"];
    const BROKERS: usize = 4;

    fn build(
        replication: Option<usize>,
        tree: bool,
    ) -> (Arc<SimNetwork>, InlineFederation, Vec<PeerId>) {
        let mut rng = HmacDrbg::from_seed_u64(0xAE0);
        let network = SimNetwork::new(LinkModel::ideal());
        let database = Arc::new(UserDatabase::new());
        let groups: Vec<GroupId> = GROUP_NAMES.iter().map(|g| GroupId::new(*g)).collect();
        for user in 0..USERS {
            database.register_user(&mut rng, &format!("user-{user}"), "pw", &groups);
        }
        let brokers: Vec<Arc<Broker>> = (0..BROKERS)
            .map(|i| {
                Broker::new(
                    PeerId::random(&mut rng),
                    BrokerConfig {
                        name: format!("broker-{}", i + 1),
                        replication_factor: replication,
                        repair_tree: tree,
                        ..Default::default()
                    },
                    Arc::clone(&network),
                    Arc::clone(&database),
                )
            })
            .collect();
        let peers = (0..USERS).map(|_| PeerId::random(&mut rng)).collect();
        (network, InlineFederation::new(brokers), peers)
    }

    /// Per-key `(max version, holder count)` over every broker's index.
    fn version_maxima(
        federation: &InlineFederation,
    ) -> BTreeMap<(GroupId, PeerId, String), (u64, PeerId)> {
        let mut maxima = BTreeMap::new();
        for i in 0..federation.len() {
            for (group, owner, doc_type, version) in federation.broker(i).advertisement_versions() {
                let slot = maxima.entry((group, owner, doc_type)).or_insert(version);
                if version > *slot {
                    *slot = version;
                }
            }
        }
        maxima
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn random_drops_plus_repair_always_reconverge(
            sharded in any::<bool>(),
            // Both repair protocols — the flat full-section snapshots and
            // the hash-tree descent — must satisfy the same oracle: the LWW
            // merge underneath is shared, only the delta location differs.
            tree in any::<bool>(),
            drop_percent in 0u32..80,
            drop_seed in any::<u64>(),
            ops in proptest::collection::vec(
                (any::<u8>(), 0usize..USERS, 0usize..BROKERS, 0usize..GROUP_NAMES.len()),
                1..30,
            ),
        ) {
            let replication = if sharded { Some(2) } else { None };
            let (network, federation, peers) = build(replication, tree);
            let backbone: Vec<PeerId> =
                (0..BROKERS).map(|i| federation.broker(i).id()).collect();
            network.set_adversary(RandomDrop::between(drop_seed, drop_percent, backbone));

            let mut homes: HashMap<usize, usize> = HashMap::new();
            for (n, &(selector, user, broker, group_sel)) in ops.iter().enumerate() {
                match selector % 3 {
                    0 => {
                        if let std::collections::hash_map::Entry::Vacant(slot) = homes.entry(user)
                        {
                            federation
                                .broker(broker)
                                .establish_session(peers[user], &format!("user-{user}"));
                            slot.insert(broker);
                        }
                    }
                    1 => {
                        if let Some(home) = homes.remove(&user) {
                            federation.broker(home).drop_session(&peers[user]);
                        }
                    }
                    _ => {
                        let group = GroupId::new(GROUP_NAMES[group_sel % GROUP_NAMES.len()]);
                        federation.broker(broker).index_and_distribute(
                            peers[user],
                            &group,
                            "jxta:PipeAdvertisement",
                            &format!("<adv user=\"{user}\" n=\"{n}\"/>"),
                        );
                    }
                }
                federation.pump();
            }
            network.clear_adversary();
            federation.pump();

            let before = version_maxima(&federation);

            // Bounded-time self-healing: a handful of full-mesh rounds must
            // reconverge whatever the drops did.
            let rounds = federation.repair_until_converged(6);
            prop_assert!(
                rounds.is_some(),
                "no reconvergence after 6 repair rounds: sharded={sharded} tree={tree} drop_percent={drop_percent} drop_seed={drop_seed} ops={ops:?}"
            );

            // Zero LWW regression and no invented data: the surviving
            // version of every key is exactly the pre-repair maximum, and no
            // key appeared from nowhere.
            let after = version_maxima(&federation);
            prop_assert_eq!(&after, &before, "repair changed the per-key version maxima");
            for i in 0..federation.len() {
                for (group, owner, doc_type, version) in
                    federation.broker(i).advertisement_versions()
                {
                    prop_assert_eq!(
                        version,
                        before[&(group, owner, doc_type)],
                        "broker {} serves a non-maximal version after repair",
                        i
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod shard_proptests {
    //! The sharded federation must be *observationally equivalent* to a
    //! fully replicated one: over random join/leave/publish/re-shard
    //! sequences, every advertisement search, pipe resolution and membership
    //! query routed through an arbitrary broker answers exactly what a
    //! fully-replicated oracle (here: a plain map applying the same ops)
    //! would answer.  Queries travel the real client→broker→shard-replica
    //! message path, so the `ShardQuery`/`ShardResponse` routing itself is
    //! under test, not just the storage partitioning.

    use super::*;
    use crate::broker::BrokerConfig;
    use crate::database::UserDatabase;
    use crate::message::{Message, MessageKind};
    use crate::net::{LinkModel, SimNetwork};
    use jxta_crypto::drbg::HmacDrbg;
    use proptest::prelude::*;
    use std::collections::HashMap;

    const USERS: usize = 5;
    const GROUP_NAMES: [&str; 3] = ["math", "chem", "bio"];
    const BASE_BROKERS: usize = 4;
    const K: usize = 2;
    const DOC_TYPE: &str = "jxta:PipeAdvertisement";

    /// Deterministic group subset of each user (same shape as the PR 2
    /// replication proptests).
    fn user_groups(user: usize) -> Vec<GroupId> {
        GROUP_NAMES
            .iter()
            .enumerate()
            .filter(|(g, _)| (user + g).is_multiple_of(2))
            .map(|(_, name)| GroupId::new(*name))
            .collect()
    }

    struct World {
        federation: InlineFederation,
        network: Arc<SimNetwork>,
        peers: Vec<PeerId>,
        querier: PeerId,
        querier_rx: Receiver<NetMessage>,
        /// Fresh brokers waiting to be admitted by a re-shard op (a removed
        /// broker is never re-admitted: its state is gone, like a real
        /// machine that was decommissioned).
        standby: Vec<Arc<Broker>>,
        standby_active: bool,
    }

    fn build_world() -> World {
        let mut rng = HmacDrbg::from_seed_u64(0x5AD0);
        let network = SimNetwork::new(LinkModel::ideal());
        let database = Arc::new(UserDatabase::new());
        for user in 0..USERS {
            database.register_user(&mut rng, &format!("user-{user}"), "pw", &user_groups(user));
        }
        let all_groups: Vec<GroupId> = GROUP_NAMES.iter().map(|g| GroupId::new(*g)).collect();
        database.register_user(&mut rng, "querier", "pw", &all_groups);

        let brokers: Vec<Arc<Broker>> = (0..BASE_BROKERS)
            .map(|i| {
                Broker::new(
                    PeerId::random(&mut rng),
                    BrokerConfig::sharded(format!("broker-{}", i + 1), K),
                    Arc::clone(&network),
                    Arc::clone(&database),
                )
            })
            .collect();
        let standby = (0..8)
            .map(|i| {
                Broker::new(
                    PeerId::random(&mut rng),
                    BrokerConfig::sharded(format!("standby-{i}"), K),
                    Arc::clone(&network),
                    Arc::clone(&database),
                )
            })
            .collect();
        let federation = InlineFederation::new(brokers);

        let peers = (0..USERS).map(|_| PeerId::random(&mut rng)).collect();
        let querier = PeerId::random(&mut rng);
        let querier_rx = network.register(querier);
        federation.broker(0).establish_session(querier, "querier");
        federation.pump();

        World {
            federation,
            network,
            peers,
            querier,
            querier_rx,
            standby,
            standby_active: false,
        }
    }

    /// Routes `message` through broker 0 and returns the matching response.
    fn query(world: &World, message: Message) -> Message {
        let request_id = message.request_id;
        world
            .network
            .send(world.querier, world.federation.broker(0).id(), message.to_bytes())
            .unwrap();
        world.federation.pump();
        while let Ok(delivered) = world.querier_rx.try_recv() {
            if let Ok(parsed) = Message::from_bytes(&delivered.payload) {
                if parsed.kind == MessageKind::LookupResponse && parsed.request_id == request_id {
                    return parsed;
                }
            }
        }
        panic!("no LookupResponse for request {request_id}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn sharded_queries_match_a_fully_replicated_oracle(
            ops in proptest::collection::vec(
                (any::<u8>(), 0usize..USERS, 0usize..8, 0usize..GROUP_NAMES.len()),
                0..30,
            ),
        ) {
            let mut world = build_world();
            // The oracle: what a fully replicated index would hold.
            let mut oracle_ads: HashMap<(usize, usize), String> = HashMap::new();
            let mut oracle_joined: HashMap<usize, PeerId> = HashMap::new();

            for (n, &(selector, user, broker_sel, group_sel)) in ops.iter().enumerate() {
                match selector % 4 {
                    0 => {
                        if let std::collections::hash_map::Entry::Vacant(slot) =
                            oracle_joined.entry(user)
                        {
                            let b = broker_sel % world.federation.len();
                            world
                                .federation
                                .broker(b)
                                .establish_session(world.peers[user], &format!("user-{user}"));
                            slot.insert(world.federation.broker(b).id());
                            world.federation.pump();
                        }
                    }
                    1 => {
                        if let Some(home) = oracle_joined.remove(&user) {
                            let idx = (0..world.federation.len())
                                .find(|i| world.federation.broker(*i).id() == home)
                                .expect("home broker still deployed");
                            world.federation.broker(idx).drop_session(&world.peers[user]);
                            world.federation.pump();
                        }
                    }
                    2 => {
                        let g = group_sel % GROUP_NAMES.len();
                        let b = broker_sel % world.federation.len();
                        let xml = format!("<adv user=\"{user}\" g=\"{g}\" n=\"{n}\"/>");
                        world.federation.broker(b).index_and_distribute(
                            world.peers[user],
                            &GroupId::new(GROUP_NAMES[g]),
                            DOC_TYPE,
                            &xml,
                        );
                        oracle_ads.insert((g, user), xml);
                        world.federation.pump();
                    }
                    _ => {
                        // Re-shard: backbone membership change.
                        if world.standby_active {
                            let removed =
                                world.federation.remove_broker(world.federation.len() - 1);
                            oracle_joined.retain(|_, home| *home != removed.id());
                            world.standby_active = false;
                        } else if let Some(fresh) = world.standby.pop() {
                            world.federation.add_broker(fresh);
                            world.standby_active = true;
                        }
                    }
                }
            }
            world.federation.pump();
            prop_assert!(world.federation.converged(), "sharded convergence after ops");

            // Every query the oracle can answer, asked through broker 0 over
            // the real routing path.
            let mut request_id = 10_000u64;
            for (g, group_name) in GROUP_NAMES.iter().enumerate() {
                let group = GroupId::new(*group_name);
                for user in 0..USERS {
                    // search / resolve_pipe (owner-keyed lookup).
                    request_id += 1;
                    let lookup = Message::new(MessageKind::LookupRequest, world.querier, request_id)
                        .with_str("group", group.as_str())
                        .with_str("doc-type", DOC_TYPE)
                        .with_str("owner", &world.peers[user].to_urn());
                    let response = query(&world, lookup);
                    let count = response.element_str("count");
                    let first_adv = response.element_str("adv-0");
                    match oracle_ads.get(&(g, user)) {
                        Some(xml) => {
                            prop_assert_eq!(count.as_deref(), Some("1"));
                            prop_assert_eq!(first_adv.as_deref(), Some(xml.as_str()));
                        }
                        None => {
                            prop_assert_eq!(count.as_deref(), Some("0"));
                        }
                    }
                    // membership query.
                    request_id += 1;
                    let probe = Message::new(MessageKind::LookupRequest, world.querier, request_id)
                        .with_str("group", group.as_str())
                        .with_str("member", &world.peers[user].to_urn());
                    let response = query(&world, probe);
                    let expected = oracle_joined.contains_key(&user)
                        && user_groups(user).contains(&group);
                    let member = response.element_str("member");
                    prop_assert_eq!(
                        member.as_deref(),
                        Some(if expected { "true" } else { "false" }),
                        "membership of user {} in {}", user, group
                    );
                }
                // Group-wide search (scatter-gather) matches the oracle too.
                request_id += 1;
                let sweep = Message::new(MessageKind::LookupRequest, world.querier, request_id)
                    .with_str("group", group.as_str())
                    .with_str("doc-type", DOC_TYPE);
                let response = query(&world, sweep);
                let expected: usize = (0..USERS).filter(|u| oracle_ads.contains_key(&(g, *u))).count();
                let count = response.element_str("count");
                let expected = expected.to_string();
                prop_assert_eq!(count.as_deref(), Some(expected.as_str()));
            }
        }
    }
}

#[cfg(test)]
mod epidemic_proptests {
    //! Membership-churn safety of the two-layer fabric, generalized over
    //! mesh × epidemic exactly like the lane proptests generalize over
    //! pipelines: random join/leave/crash sequences of *brokers* must leave
    //! every survivor with a non-empty active view, an overlay whose
    //! active-view edges reach every live broker (the reachability oracle —
    //! the pinned ring successors guarantee it structurally), and fully
    //! convergent replicated state under the same LWW oracle as always.

    use super::*;
    use crate::broker::BrokerConfig;
    use crate::database::UserDatabase;
    use crate::group::GroupId;
    use crate::net::{LinkModel, SimNetwork};
    use jxta_crypto::drbg::HmacDrbg;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Small capacities so even a handful of brokers trips the epidemic
    /// engagement threshold (`peers > active`).
    const ACTIVE: usize = 2;
    /// Brokers at start; churn adds and removes around this size.
    const START: usize = 7;
    /// Ceiling on live brokers (keeps the proptest cheap).
    const MAX: usize = 12;

    struct Churn {
        network: Arc<SimNetwork>,
        database: Arc<UserDatabase>,
        federation: InlineFederation,
        rng: HmacDrbg,
        next_name: usize,
        full_mesh: bool,
    }

    impl Churn {
        fn new(seed: u64, full_mesh: bool) -> Self {
            let mut rng = HmacDrbg::from_seed_u64(seed);
            let network = SimNetwork::new(LinkModel::ideal());
            let database = Arc::new(UserDatabase::new());
            database.register_user(&mut rng, "alice", "pw", &[GroupId::new("math")]);
            let mut churn = Churn {
                network,
                database,
                federation: InlineFederation::new(Vec::new()),
                rng,
                next_name: 0,
                full_mesh,
            };
            let brokers: Vec<Arc<Broker>> = (0..START).map(|_| churn.make_broker()).collect();
            churn.federation = InlineFederation::new(brokers);
            churn
        }

        fn make_broker(&mut self) -> Arc<Broker> {
            self.next_name += 1;
            let mut config = BrokerConfig::named(format!("broker-{}", self.next_name))
                .with_view_capacities(ACTIVE);
            if self.full_mesh {
                config = config.with_full_mesh();
            }
            Broker::new(
                PeerId::random(&mut self.rng),
                config,
                Arc::clone(&self.network),
                Arc::clone(&self.database),
            )
        }

        /// Every live broker's active view is non-empty, contains only live
        /// brokers, and the union of directed view edges reaches every live
        /// broker from every other (BFS over the active-view graph).
        fn overlay_connected(&self) -> Result<(), String> {
            let n = self.federation.len();
            if n < 2 {
                return Ok(());
            }
            let ids: Vec<PeerId> = (0..n).map(|i| self.federation.broker(i).id()).collect();
            let live: BTreeSet<PeerId> = ids.iter().copied().collect();
            let mut edges: Vec<(PeerId, PeerId)> = Vec::new();
            for (i, id) in ids.iter().enumerate() {
                let view = self.federation.broker(i).active_view();
                if view.is_empty() {
                    return Err(format!("broker {i} has an empty active view"));
                }
                for peer in view {
                    if !live.contains(&peer) {
                        return Err(format!("broker {i} keeps dead peer in its view"));
                    }
                    edges.push((*id, peer));
                }
            }
            // Active-view edges are symmetric links in spirit (either end
            // may push); BFS over the undirected graph.
            let mut seen = BTreeSet::from([ids[0]]);
            let mut frontier = vec![ids[0]];
            while let Some(at) = frontier.pop() {
                for (a, b) in &edges {
                    let next = match (at == *a, at == *b) {
                        (true, _) => *b,
                        (_, true) => *a,
                        _ => continue,
                    };
                    if seen.insert(next) {
                        frontier.push(next);
                    }
                }
            }
            if seen.len() != n {
                return Err(format!("overlay split: reached {}/{n} brokers", seen.len()));
            }
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn broker_churn_keeps_the_overlay_connected_and_convergent(
            seed in 0u64..1_000_000,
            full_mesh in any::<bool>(),
            ops in proptest::collection::vec((0u8..3, any::<u16>()), 1..10),
        ) {
            let mut churn = Churn::new(seed, full_mesh);
            // A replicated workload rides along so convergence is not vacuous.
            let alice = PeerId::random(&mut churn.rng);
            churn.federation.broker(0).establish_session(alice, "alice");
            churn.federation.broker(0).index_and_distribute(
                alice,
                &GroupId::new("math"),
                "jxta:PipeAdvertisement",
                "<churn/>",
            );
            churn.federation.pump();

            for &(selector, pick) in &ops {
                match selector {
                    0 if churn.federation.len() < MAX => {
                        let broker = churn.make_broker();
                        churn.federation.add_broker(broker);
                    }
                    1 if churn.federation.len() > 2 => {
                        // Graceful removal (drop_session + goodbye gossip).
                        let at = pick as usize % churn.federation.len();
                        churn.federation.remove_broker(at);
                    }
                    _ if churn.federation.len() > 2 => {
                        // Crash: the broker vanishes without draining its
                        // departure gossip first; remove_broker's survivor
                        // cleanup is all that heals the views.
                        let at = pick as usize % churn.federation.len();
                        if churn.federation.broker(at).id() != churn.federation.broker(0).id()
                            || churn.federation.len() > 3
                        {
                            churn.federation.remove_broker(at);
                        }
                    }
                    _ => {}
                }
                prop_assert!(churn.overlay_connected().is_ok(),
                    "{}", churn.overlay_connected().unwrap_err());
            }
            churn.federation.pump();
            // Anti-entropy over the view edges is allowed to finish the heal
            // after heavy churn; it must converge within a few rounds.
            prop_assert!(
                churn.federation.repair_until_converged(6).is_some(),
                "churned federation failed to reconverge (full_mesh={full_mesh})"
            );
            prop_assert!(churn.overlay_connected().is_ok());
        }
    }
}

#[cfg(test)]
mod swim_detection {
    //! The SWIM failure detector riding the repair cadence: a crashed
    //! broker must be confirmed dead — and evicted from every survivor's
    //! active view — within [`crate::swim::PROBE_BUDGET_TICKS`] repair
    //! rounds with **no** operator `remove_broker` call, a recovered
    //! broker must be dug back out by its own probe acks, and (the safety
    //! half, property-tested below) a *live* broker must never be left
    //! permanently buried no matter what a lossy network manufactured.

    use super::*;
    use crate::broker::BrokerConfig;
    use crate::database::UserDatabase;
    use crate::net::{FaultPlan, LinkModel, SimNetwork};
    use crate::swim::{PeerState, PROBE_BUDGET_TICKS};
    use jxta_crypto::drbg::HmacDrbg;
    use proptest::prelude::*;

    /// An epidemic inline federation over small pinned view capacities.
    fn build(n: usize, seed: u64) -> (Arc<SimNetwork>, InlineFederation, Vec<PeerId>) {
        build_with_view(n, 3, seed)
    }

    /// An epidemic inline federation whose active views hold `view` members.
    fn build_with_view(
        n: usize,
        view: usize,
        seed: u64,
    ) -> (Arc<SimNetwork>, InlineFederation, Vec<PeerId>) {
        let mut rng = HmacDrbg::from_seed_u64(seed);
        let network = SimNetwork::new(LinkModel::ideal());
        let database = Arc::new(UserDatabase::new());
        let brokers: Vec<Arc<Broker>> = (0..n)
            .map(|i| {
                Broker::new(
                    PeerId::random(&mut rng),
                    BrokerConfig::named(format!("b{i}")).with_view_capacities(view),
                    Arc::clone(&network),
                    Arc::clone(&database),
                )
            })
            .collect();
        let ids: Vec<PeerId> = brokers.iter().map(|b| b.id()).collect();
        let federation = InlineFederation::new(brokers);
        assert!(federation.broker(0).epidemic_engaged());
        (network, federation, ids)
    }

    /// One repair round as a crashy world sees it: only brokers the fault
    /// plan holds up run their cadence, the round's traffic is pumped, and
    /// the plan's logical clock advances with the round.
    fn survivor_round(federation: &InlineFederation, ids: &[PeerId], plan: &FaultPlan) {
        for (i, id) in ids.iter().enumerate() {
            if !plan.is_crashed(id) {
                federation.broker(i).start_repair_round();
            }
        }
        federation.pump();
        plan.advance_tick();
    }

    #[test]
    fn quiet_federation_probes_without_suspicion() {
        let (_network, federation, ids) = build(8, 0x51A0);
        for _ in 0..16 {
            federation.repair();
        }
        let probes: u64 = (0..ids.len())
            .map(|i| federation.broker(i).federation_stats().swim_probes)
            .sum();
        let acks: u64 = (0..ids.len())
            .map(|i| federation.broker(i).federation_stats().swim_acks)
            .sum();
        let suspicions: u64 = (0..ids.len())
            .map(|i| federation.broker(i).federation_stats().swim_suspicions)
            .sum();
        assert!(probes >= 16, "every round probes");
        assert!(acks >= probes, "a healthy backbone acks every probe");
        assert_eq!(suspicions, 0, "nobody suspects anybody on an ideal network");
        for i in 0..ids.len() {
            assert!(federation.broker(i).swim_dead_members().is_empty());
        }
    }

    #[test]
    fn crashed_broker_is_evicted_from_every_view_within_the_probe_budget() {
        let (network, federation, ids) = build(16, 0x51A1);
        let victim = 3usize;
        let plan = FaultPlan::new(0x51A2).crash_stop(ids[victim], 0).into_adversary();
        network.set_adversary(plan.clone());

        // The crash lands mid-broadcast: the victim dies holding an
        // undelivered forwarding obligation, exactly the case the lazy
        // edges + failure detector exist for.
        let mut rng = HmacDrbg::from_seed_u64(0x51A3);
        federation.broker(0).index_and_distribute(
            PeerId::random(&mut rng),
            &crate::group::GroupId::new("ops"),
            "jxta:PipeAdvertisement",
            "<mid-broadcast/>",
        );
        federation.pump();

        for _ in 0..PROBE_BUDGET_TICKS {
            survivor_round(&federation, &ids, &plan);
        }

        for (i, id) in ids.iter().enumerate() {
            if i == victim {
                continue;
            }
            let record = federation.broker(i).swim_record(&ids[victim]);
            assert!(
                matches!(record.map(|r| r.state), Some(PeerState::Dead)),
                "survivor {i} ({id}) has not confirmed the crashed broker dead: {record:?}"
            );
            assert!(
                !federation.broker(i).active_view().contains(&ids[victim]),
                "survivor {i} still routes to the crashed broker"
            );
            // Nobody else got buried along the way.
            assert_eq!(federation.broker(i).swim_dead_members(), vec![ids[victim]]);
        }
    }

    #[test]
    fn recovered_broker_is_resurrected_by_its_own_acks() {
        let (network, federation, ids) = build(8, 0x51B0);
        let victim = 2usize;
        let dark_for = PROBE_BUDGET_TICKS + 2;
        let plan = FaultPlan::new(0x51B1)
            .crash_recover(ids[victim], 0, dark_for)
            .into_adversary();
        network.set_adversary(plan.clone());

        for _ in 0..dark_for {
            survivor_round(&federation, &ids, &plan);
        }
        let buried: usize = (0..ids.len())
            .filter(|&i| i != victim)
            .filter(|&i| {
                matches!(
                    federation.broker(i).swim_record(&ids[victim]).map(|r| r.state),
                    Some(PeerState::Dead)
                )
            })
            .count();
        assert!(buried > 0, "the dark window was long enough to bury the victim");

        // The probe ring keeps visiting dead members precisely so this
        // works: once the victim answers again, the ack resurrects it —
        // no re-admission ceremony, no operator call.
        for _ in 0..(2 * ids.len() as u64 + 4) {
            survivor_round(&federation, &ids, &plan);
        }
        for (i, _) in ids.iter().enumerate() {
            if i == victim {
                continue;
            }
            assert!(
                federation.broker(i).swim_dead_members().is_empty(),
                "survivor {i} still holds the recovered broker dead"
            );
            assert!(
                matches!(
                    federation.broker(i).swim_record(&ids[victim]).map(|r| r.state),
                    Some(PeerState::Alive)
                ),
                "survivor {i} has not restored the recovered broker to Alive"
            );
        }
    }

    /// A broker cut off from everyone buries its whole view, and with
    /// nobody left to digest it must still run its SWIM period: probing the
    /// dead is the only way its peers come back once the partition lifts.
    #[test]
    fn isolated_broker_keeps_probing_an_empty_view_and_resurrects_its_peers() {
        const N: usize = 10;
        const ISOLATED_ROUNDS: u64 = 24;
        let (network, federation, ids) = build_with_view(N, 4, 0x51E0);
        let lone = federation.broker(0);
        let mut plan = FaultPlan::new(0x51E1);
        for peer in &ids[1..] {
            plan = plan
                .partition_one_way(ids[0], *peer, 0, ISOLATED_ROUNDS)
                .partition_one_way(*peer, ids[0], 0, ISOLATED_ROUNDS);
        }
        let plan = plan.into_adversary();
        network.set_adversary(plan.clone());

        // Only the isolated broker runs its cadence.
        let round = || {
            lone.start_repair_round();
            federation.pump();
            plan.advance_tick();
        };
        for _ in 0..ISOLATED_ROUNDS {
            round();
        }
        assert_eq!(lone.swim_dead_members().len(), N - 1, "every unreachable peer is buried");
        assert!(lone.active_view().is_empty());

        let probes_before = lone.federation_stats().swim_probes;
        for _ in 0..40 {
            round();
        }
        assert!(
            lone.federation_stats().swim_probes > probes_before,
            "a broker with an empty view still probes"
        );
        assert!(lone.swim_dead_members().is_empty(), "its own probe acks resurrect every peer");
        assert_eq!(lone.active_view().len(), 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Liveness safety: arbitrary seeded flaky links may suspect — even
        /// bury — live brokers, but once the loss stops, refutations and
        /// probe acks must always dig everyone back out.  No permanent
        /// false positive, for any seed and any drop rate.
        #[test]
        fn seeded_drops_never_permanently_bury_a_live_broker(
            seed in any::<u64>(),
            drop_percent in 0u32..=95,
            lossy_rounds in 3u64..10,
        ) {
            const N: usize = 7;
            let (network, federation, ids) = build(N, 0x51C0 ^ seed);
            let mut plan = FaultPlan::new(seed);
            for a in 0..N {
                for b in (a + 1)..N {
                    plan = plan.flaky_link(ids[a], ids[b], drop_percent);
                }
            }
            let plan = plan.into_adversary();
            network.set_adversary(plan.clone());
            for _ in 0..lossy_rounds {
                survivor_round(&federation, &ids, &plan);
            }
            if drop_percent > 0 {
                // (Not asserted: low rates may drop nothing in few rounds.)
                let _ = plan.dropped_count();
            }

            // Loss stops.  Any standing suspicion expires within its
            // deadline (3 ticks at health 1), the resulting false verdicts
            // are refuted by gossip or the probe ring's next visit, and the
            // ring revisits every member within N-1 ticks.
            network.clear_adversary();
            for _ in 0..(3 + 2 * (N as u64 - 1) + 4) {
                federation.repair();
            }
            for i in 0..N {
                let dead = federation.broker(i).swim_dead_members();
                prop_assert!(
                    dead.is_empty(),
                    "broker {i} permanently buried live peers {dead:?} \
                     (seed={seed} drop_percent={drop_percent} lossy_rounds={lossy_rounds})"
                );
            }
        }

        /// Completeness: a crash-stopped broker is confirmed dead by every
        /// survivor within the probe budget, whichever broker dies.
        #[test]
        fn any_crashed_broker_is_confirmed_within_the_probe_budget(
            seed in any::<u64>(),
            victim in 0usize..6,
        ) {
            const N: usize = 6;
            let (network, federation, ids) = build(N, 0x51D0 ^ seed);
            let plan = FaultPlan::new(seed).crash_stop(ids[victim], 0).into_adversary();
            network.set_adversary(plan.clone());
            for _ in 0..PROBE_BUDGET_TICKS {
                survivor_round(&federation, &ids, &plan);
            }
            for i in 0..N {
                if i == victim {
                    continue;
                }
                prop_assert!(
                    matches!(
                        federation.broker(i).swim_record(&ids[victim]).map(|r| r.state),
                        Some(PeerState::Dead)
                    ),
                    "survivor {i} missed the crash (seed={seed} victim={victim})"
                );
                prop_assert!(
                    !federation.broker(i).active_view().contains(&ids[victim]),
                    "survivor {i} still routes to the crashed broker (seed={seed} victim={victim})"
                );
            }
        }
    }
}
