//! The Broker Module.
//!
//! Brokers are the special peers that control access to the JXTA-Overlay
//! network: they authenticate end users against the central database, keep a
//! global index of resources (advertisements) and propagate peer information
//! across group members, acting as beacons for newly arrived client peers
//! (paper, §2.1).
//!
//! A [`Broker`] owns its state; [`Broker::spawn`] starts the broker event
//! loop on its own thread so that client primitives interact with it purely
//! through the simulated network, exactly like a remote broker process.
//! Broker *functions* are "always executed as a result of messages sent via
//! Client Module primitives" (§2.2), which maps to the message handlers in
//! [`Broker::handle_message`].
//!
//! The plain broker understands only the insecure message kinds.  The secure
//! extension registers a [`BrokerExtension`] that handles the
//! `SecureConnect*`/`SecureLogin*` kinds; this keeps the Broker Module open
//! for extension without the security crate having to reimplement indexing
//! and group management.
//!
//! # Federation
//!
//! The paper's architecture has a *backbone* of brokers, not a single one.
//! A broker therefore also speaks the inter-broker message kinds
//! ([`MessageKind::is_inter_broker`]): gossip, relays, shard queries,
//! anti-entropy repair, membership shuffles, Plumtree tree repair and SWIM
//! probes.  Every one of them carries a per-origin sequence number and
//! passes one admission gate in [`Broker::process_net`] before any handler
//! runs: traffic from peers outside the federation, traffic whose claimed
//! origin is not the link it arrived on, and stale or duplicate sequence
//! numbers (replays) are rejected and counted.  Two of the kinds carry the
//! replicated data itself:
//!
//! * [`MessageKind::BrokerSync`] — gossip that replicates the advertisement
//!   index, group membership and peer→broker routing to the peer brokers.
//! * [`MessageKind::BrokerRelay`] — an opaque client payload crossing the
//!   backbone towards the broker that homes the destination peer.  Clients
//!   trigger it with [`MessageKind::RelayViaBroker`]; each hop of the relay
//!   is charged its own link cost (see [`SimNetwork::forward`]).
//!
//! [`crate::federation::BrokerNetwork`] admits every broker as a peer of
//! every other; small federations gossip over that full mesh, larger ones
//! over the epidemic fabric of bounded partial views (see
//! [`Broker::epidemic_engaged`]).

use crate::database::UserDatabase;
use crate::group::{GroupId, GroupRegistry};
use crate::id::PeerId;
use crate::membership::PartialView;
use crate::message::{Message, MessageKind};
use crate::plumtree::{GossipId, PlumtreeState};
use crate::metrics::{FederationMetrics, FederationStats, PipelineMetrics, PipelineStats};
use crate::net::{NetMessage, SimNetwork};
use crate::shard::{self, SectionTree, ShardRing};
use crate::swim::{AliveOutcome, DeadOutcome, SuspectOutcome, SwimDetector};
use crate::tracked::Tracked;
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of a broker peer.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Human-readable broker name (the paper's brokers have well-known
    /// identifiers such as DNS names).
    pub name: String,
    /// Sharding mode of the federation state this broker keeps.
    ///
    /// `None` (the default) fully replicates the advertisement index and
    /// group membership to every broker, exactly as PR 2's federation did.
    /// `Some(k)` partitions both across the consistent-hash ring
    /// ([`crate::shard::ShardRing`]): each `(group, owner)` entry lives on
    /// `k` replica brokers, gossip for it goes only to those replicas, and
    /// non-local lookups are routed to an owning replica with
    /// [`MessageKind::ShardQuery`].  The peer→home-broker routing table is
    /// fully replicated in both modes — it is small and on the relay hot
    /// path.  All brokers of one federation must use the same setting.
    pub replication_factor: Option<usize>,
    /// Number of ingress verify workers a *spawned* broker runs.
    ///
    /// `0` (the default) keeps the classic single-thread event loop: one
    /// thread decodes, verifies and applies every message.  `n > 0` turns
    /// ingress into a staged pipeline: an ingress thread stamps arriving
    /// messages with monotone tickets, `n` workers decode them and run the
    /// stateless cryptographic pre-verification
    /// ([`BrokerExtension::preverify`]) in parallel, and a dispatcher
    /// drains completions **in ticket order** into partitioned apply lanes
    /// (see [`Broker::spawn`] and [`BrokerConfig::apply_lanes`]):
    /// partition-local mutations run in parallel across lanes while
    /// partition-spanning messages apply under a full-lane barrier, so
    /// per-sender ordering plus replay-protection semantics are exactly
    /// those of the single-thread loop.  Inline
    /// drivers ([`crate::federation::InlineFederation`]) ignore this knob —
    /// [`Broker::process_net`] runs both stages back to back on the calling
    /// thread, which is what keeps the deterministic proptests seed-stable.
    pub verify_workers: usize,
    /// Capacity of the spawned broker's network inbox.
    ///
    /// `None` (the default) keeps the unbounded channel.  `Some(n)` bounds
    /// the inbox at `n` queued messages: senders that find it full stall
    /// briefly (explicit backpressure) and overflow past the network's
    /// backpressure timeout is shed and counted — see
    /// [`SimNetwork::register_bounded`].
    pub inbox_capacity: Option<usize>,
    /// Number of partitioned apply lanes a *spawned*, pipelined broker runs.
    ///
    /// `None` (the default) sizes the lane pool to `verify_workers`; `Some(n)`
    /// pins it (`Some(1)` reproduces the old fully serialized apply stage).
    /// Ignored when `verify_workers == 0` — the classic loop has no apply
    /// stage to partition.  See [`Broker::spawn`] for the lane/barrier model.
    pub apply_lanes: Option<usize>,
    /// Anti-entropy strategy for the two shard-keyed sections (advertisement
    /// index and group membership).
    ///
    /// `true` (the default) repairs divergence through a hash tree over the
    /// shard-key space: a digest mismatch starts a descent that narrows to
    /// the divergent key ranges in O(log n) message legs and ships only the
    /// entries in those ranges, paged into bounded messages.  `false`
    /// restores the PR 4 behaviour — any mismatch ships the entire section —
    /// which costs O(shard) bytes per divergence and exists as the
    /// experimental baseline.  Both strategies run the same LWW merge, so
    /// mixed federations still reconverge (a flat broker just ships more).
    pub repair_tree: bool,
    /// Forces the classic full-mesh fabric: every broadcast gossip event is
    /// sent directly to every peer broker, regardless of federation size.
    ///
    /// `false` (the default) engages the epidemic backbone once the known
    /// peer set outgrows [`BrokerConfig::active_view`]: broadcasts are then
    /// eagerly pushed along the Plumtree edges of the bounded active view
    /// and merely advertised (`IHave`) on the rest, capping every broker's
    /// per-publish fan-out at the view size instead of O(N).  Federations
    /// at or below the view capacity behave identically either way — their
    /// views are complete — so this knob matters only at scale, where it
    /// buys worst-case direct delivery at O(N) per-broker cost.  All
    /// brokers of one federation must agree on it: a mesh broker never
    /// forwards, so a mixed fabric would leave epidemic brokers waiting on
    /// relays that never come (anti-entropy would still converge them, but
    /// slowly).
    pub full_mesh: bool,
    /// Capacity of the membership layer's active view (bounded routing
    /// degree); see [`crate::membership::PartialView`].  Defaults to
    /// [`crate::membership::DEFAULT_ACTIVE_VIEW`].
    pub active_view: usize,
    /// Capacity of the membership layer's passive healing reservoir.
    /// Defaults to [`crate::membership::DEFAULT_PASSIVE_VIEW`].
    pub passive_view: usize,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            name: "broker".to_string(),
            replication_factor: None,
            verify_workers: 0,
            inbox_capacity: None,
            apply_lanes: None,
            repair_tree: true,
            full_mesh: false,
            active_view: crate::membership::DEFAULT_ACTIVE_VIEW,
            passive_view: crate::membership::DEFAULT_PASSIVE_VIEW,
        }
    }
}

impl BrokerConfig {
    /// Convenience constructor setting only the name.
    pub fn named(name: impl Into<String>) -> Self {
        BrokerConfig {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Convenience constructor for a sharded broker: `name` plus the shard
    /// replication factor K.
    pub fn sharded(name: impl Into<String>, replication_factor: usize) -> Self {
        BrokerConfig {
            name: name.into(),
            replication_factor: Some(replication_factor),
            ..Default::default()
        }
    }

    /// Enables the staged ingress pipeline: `workers` parallel verify
    /// workers and a bounded network inbox of `inbox_capacity` messages.
    pub fn with_pipeline(mut self, workers: usize, inbox_capacity: usize) -> Self {
        self.verify_workers = workers;
        self.inbox_capacity = Some(inbox_capacity);
        self
    }

    /// Pins the number of partitioned apply lanes (default: one lane per
    /// verify worker).  Only meaningful together with
    /// [`BrokerConfig::with_pipeline`].
    pub fn with_apply_lanes(mut self, lanes: usize) -> Self {
        self.apply_lanes = Some(lanes);
        self
    }

    /// Disables hash-tree anti-entropy, falling back to full-section
    /// snapshots on any digest mismatch.  Exists for the repair-cost
    /// experiments and the flat-vs-tree oracle tests; production brokers
    /// keep the tree.
    pub fn with_flat_repair(mut self) -> Self {
        self.repair_tree = false;
        self
    }

    /// Forces the classic full-mesh fabric at any federation size — see
    /// [`BrokerConfig::full_mesh`].  Right when the federation is small
    /// enough that O(N) per-broker fan-out is cheap, or when worst-case
    /// single-hop delivery latency matters more than backbone load.
    pub fn with_full_mesh(mut self) -> Self {
        self.full_mesh = true;
        self
    }

    /// Pins the membership view capacities (active routing degree, passive
    /// healing reservoir).  Tests use small capacities to engage the
    /// epidemic fabric in small federations; production brokers keep the
    /// defaults.
    pub fn with_view_capacities(mut self, active: usize, passive: usize) -> Self {
        self.active_view = active;
        self.passive_view = passive;
        self
    }
}

/// Where the apply stage may run one decoded message — the routing decision
/// of the partitioned apply stage (see [`Broker::spawn`]).
///
/// `Lane(key)` means every state mutation the message can cause is confined
/// to the `(group, owner)` shard partition at ring position `key`
/// ([`crate::shard::shard_key`]), so it may apply on a partition lane
/// concurrently with messages of *other* partitions.  `Barrier` means the
/// message reads or writes state spanning partitions — sessions, group
/// membership, peer routing, gossip sequencing, shard queries, anti-entropy
/// — and must observe every earlier-ticket lane apply before it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyRoute {
    /// Partition-local: apply on the lane owning this shard key.
    Lane(u64),
    /// Partition-spanning: drain all lanes, then apply serialized.
    Barrier,
}

/// Classifies a decoded message for the partitioned apply stage.
///
/// Only client [`MessageKind::PublishAdvertisement`] is partition-local
/// today: its mutations are the `(group, sender)` index entry plus gossip
/// *about that entry*, and the paper's workload — file/pipe advertisement
/// churn — is exactly this kind.  Everything else (connects, logins,
/// lookups, relays, inter-broker sync/repair, the secure handshakes) is a
/// barrier: correct but serialized, the same cost it had before lanes
/// existed.  A publish without a parseable `group` element only draws a
/// rejection reply, but classifying it as a barrier keeps the lane
/// invariant — "a lane message touches exactly one partition" — trivially
/// true.
pub fn apply_route(message: &Message) -> ApplyRoute {
    match message.kind {
        MessageKind::PublishAdvertisement => match message.element_str("group") {
            Some(group) => ApplyRoute::Lane(crate::shard::shard_key(
                &GroupId::new(group),
                &message.sender,
            )),
            None => ApplyRoute::Barrier,
        },
        _ => ApplyRoute::Barrier,
    }
}

/// Work queued to one partition apply lane by the pipeline dispatcher.
enum LaneJob {
    /// Apply one decoded partition-local message.
    Apply(NetMessage, Message),
    /// Synchronisation point: acknowledge once every earlier job on this
    /// lane has fully applied.
    Barrier(crossbeam::channel::Sender<()>),
}

/// A divergent repair-tree node whose entry count (on both sides) is at or
/// below this threshold stops the hash-tree descent: shipping the entries
/// outright is cheaper than another narrowing leg.
const REPAIR_PAGE_ENTRIES: u64 = 256;

/// Entries per range-scoped snapshot page.  Pages bound the size of a repair
/// message: healing a million-entry divergence ships many pages, never one
/// million-element `Message`.
const REPAIR_PAGE_MAX: usize = 256;

/// Node summaries per descent leg (a 25 KB range message at most).
/// Divergent nodes past the budget are shipped as (coarser) pages instead
/// of descending further — massive divergence degrades toward the flat
/// snapshot cost, never to an unbounded descent message.
const REPAIR_MAX_RANGE_NODES: usize = 1024;

/// Inbox backlog (messages delivered but not yet processed) per unit of
/// SWIM local health: a broker `n ×` this far behind runs its failure
/// detector `1 + n` times slower (capped at [`crate::swim::MAX_HEALTH`]),
/// the Lifeguard insight that a node too busy to process acks in time
/// should doubt itself before accusing its peers.
const SWIM_BACKLOG_THRESHOLD: u64 = 64;

/// How many arrivals one verify worker stamps per ingress-lock acquisition.
/// Batching amortises the lock (and the wake-up of the next waiting worker)
/// across a deep inbox; only already-queued messages are taken (`try_recv`),
/// so a lone arrival is never held back waiting for company.
const INGRESS_BATCH: usize = 32;

/// Stage-1 state shared by the verify workers: the network inbox plus the
/// monotone ticket counter.  Holding the lock across `recv` + stamp is what
/// makes ticket order identical to arrival order.
struct PipelineIngress {
    receiver: crossbeam::channel::Receiver<NetMessage>,
    ticket: u64,
}

/// Stage-3 state shared by the verify workers: the ticket reorder buffer.
/// Whichever worker holds this lock is *the* dispatcher for that moment —
/// the single-router invariant the lane fast-path and barriers rely on.
struct PipelineRouter {
    next_ticket: u64,
    reorder: BTreeMap<u64, (NetMessage, Option<Message>)>,
}

/// Hook that lets the security extension handle additional message kinds.
pub trait BrokerExtension: Send + Sync {
    /// Handles `message` if it belongs to the extension.
    ///
    /// Returns `Some(response)` to send a reply back to the sender, or `None`
    /// if the message kind is not handled by this extension (the broker then
    /// replies with a generic rejection).
    fn handle(&self, broker: &Broker, message: &Message) -> Option<Message>;

    /// Stateless ingress pre-verification, run for every decoded message
    /// *before* the serialized apply stage — on a verify-pool worker when the
    /// broker is pipelined, or inline on the calling thread otherwise.
    ///
    /// The hook must not mutate broker state (several workers run it
    /// concurrently and completions are reordered before apply); its job is
    /// to spend the stateless CPU — signature and envelope checks — off the
    /// apply thread, recording results in idempotent side tables such as the
    /// verified-signature cache so the apply-stage handlers find them
    /// already paid for.  The default does nothing.
    fn preverify(&self, _broker: &Broker, _message: &Message) {}

    /// Policy hook invoked before an advertisement publish is indexed: the
    /// secure extension uses it to refuse signed advertisements whose
    /// embedded credential is expired or revoked.  Returning `Err(reason)`
    /// rejects the publish with that reason; the default accepts everything
    /// (the plain broker has no publish policy).
    fn vet_publish(
        &self,
        _broker: &Broker,
        _from: PeerId,
        _group: &GroupId,
        _doc_type: &str,
        _xml: &str,
    ) -> Result<(), String> {
        Ok(())
    }

    /// Canonical bytes summarising the extension's replicated state (e.g.
    /// the merged revocation sets), hashed into anti-entropy digests so
    /// peer brokers notice when their extension state diverged.  `None`
    /// (the default) means the extension replicates nothing.
    fn repair_digest(&self) -> Option<Vec<u8>> {
        None
    }

    /// Opaque snapshot of the extension's replicated state, shipped to peer
    /// brokers on digest mismatch (and by [`Broker::gossip_extension_state`]).
    /// The blob must be self-authenticating — the overlay provides transport
    /// and gossip admission only.
    fn repair_snapshot(&self) -> Option<Vec<u8>> {
        None
    }

    /// Merges a peer broker's extension snapshot into local state after
    /// verifying it.  Returns the number of entries actually added (counted
    /// as repaired in the federation metrics).
    fn apply_repair_snapshot(&self, _broker: &Broker, _blob: &[u8]) -> u64 {
        0
    }
}

/// An authenticated client session as seen by the broker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrokerSession {
    /// The authenticated end-user name.
    pub username: String,
    /// Groups the user belongs to.
    pub groups: Vec<GroupId>,
}

/// One indexed advertisement: the XML document plus its last-writer-wins
/// version.  The version is `(sequence number at the origin broker, origin
/// broker id)`: every broker keeps the entry with the greatest version, so
/// concurrent publishes of the same `(owner, doc type)` key at different
/// brokers converge to the same winner on every replica regardless of the
/// order the gossip arrives in.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IndexedAdvertisement {
    xml: String,
    version: (u64, PeerId),
}

/// Advertisement index for one group: (owner, doc type) → versioned XML.
type GroupAdvertisements = HashMap<(PeerId, String), IndexedAdvertisement>;

/// A flattened index entry: `(group, owner, doc type, xml, version)` — the
/// shape migration re-routes across the ring.
type FlatEntry = (GroupId, PeerId, String, String, (u64, PeerId));

/// Version of a peer's replicated presence state: `(origin sequence, kind
/// rank, origin broker)`.  Joins rank above leaves at the same sequence so a
/// leave/re-join pair racing across the backbone resolves to the join on
/// every broker.  Like the advertisement versions, any total order makes the
/// replicas converge; the ranking only picks the intuitive winner.
type PresenceVersion = (u64, u8, PeerId);

/// Rank of a leave in a [`PresenceVersion`].
const PRESENCE_LEAVE: u8 = 0;
/// Rank of a join in a [`PresenceVersion`].
const PRESENCE_JOIN: u8 = 1;

/// One gossip event queued for a peer broker: the flattened element list of
/// a single replicated write (`op`, its version `seq`, and the op-specific
/// fields).  Events are coalesced per destination into one `BrokerSync`
/// digest per flush instead of one message per event.  Keys are owned
/// because the epidemic fabric re-queues events parsed off the wire.
#[derive(Debug, Clone)]
struct GossipEvent {
    fields: Vec<(String, String)>,
}

impl GossipEvent {
    fn new(fields: Vec<(&str, String)>) -> Self {
        GossipEvent {
            fields: fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    }

    fn from_owned(fields: Vec<(String, String)>) -> Self {
        GossipEvent { fields }
    }

    /// The value of field `key`, if present.
    fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Sets field `key`, replacing an existing value.
    fn set(&mut self, key: &str, value: String) {
        if let Some(slot) = self.fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.fields.push((key.to_string(), value));
        }
    }

    /// The gossip id of a broadcast event: its `(vorigin, seq)` LWW version.
    fn gossip_id(&self) -> Option<GossipId> {
        let origin = PeerId::from_urn(self.get("vorigin")?)?;
        let seq = self.get("seq")?.parse().ok()?;
        Some((origin, seq))
    }
}

/// A lookup this broker routed to remote shard replicas and has not answered
/// yet: the requesting client, its request identifier, and the merge state.
#[derive(Debug)]
struct PendingLookup {
    client: PeerId,
    client_request: u64,
    /// Replica answers still outstanding.
    remaining: usize,
    /// Advertisement results merged so far: owner → (version, xml); scatter
    /// responses from several replicas deduplicate by keeping the greatest
    /// last-writer-wins version per owner.
    adv_results: BTreeMap<PeerId, ((u64, PeerId), String)>,
    /// Membership answer (true as soon as any replica confirms membership).
    is_member: bool,
    /// Whether this pending lookup is a membership query (versus an
    /// advertisement search).
    membership: bool,
}

/// The broker peer.
pub struct Broker {
    id: PeerId,
    config: BrokerConfig,
    network: Arc<SimNetwork>,
    database: Arc<UserDatabase>,
    /// Group membership (repair-tracked, like every [`Tracked`] field
    /// below: its writes bump `repair_epoch`).
    groups: GroupRegistry,
    /// Global advertisement index: group → (owner, doc type) → XML.
    advertisements: Tracked<HashMap<GroupId, GroupAdvertisements>>,
    /// Connected (but not necessarily logged-in) peers.
    connected: RwLock<HashMap<PeerId, ()>>,
    /// Logged-in sessions.
    sessions: Tracked<HashMap<PeerId, BrokerSession>>,
    /// Live local sessions shadowed by a remote join this broker yielded to.
    /// The connection is still open here; if the displacing origin later
    /// gossips the peer's departure, the shadowed session is resurrected
    /// (the join/leave pair proves the displacing join was a stale echo).
    displaced: Tracked<HashMap<PeerId, BrokerSession>>,
    extension: RwLock<Option<Arc<dyn BrokerExtension>>>,
    /// The other brokers of the federation backbone.  This is the complete
    /// *known* set — admission control and the shard ring always use it;
    /// the membership layer's partial views below pick the traffic targets.
    peer_brokers: RwLock<Vec<PeerId>>,
    /// HyParView-style partial views over `peer_brokers`: the bounded
    /// active view is where broadcast traffic and anti-entropy go once the
    /// epidemic fabric engages (see [`Broker::epidemic_engaged`]).
    view: Mutex<PartialView>,
    /// Plumtree eager/lazy edge sets, seen-set and graft cache over the
    /// active view.
    plumtree: Mutex<PlumtreeState>,
    /// Gossip ids pending lazy advertisement, coalesced into one
    /// `PlumtreeIHave` per destination at the next flush.
    ihave_outbox: Mutex<BTreeMap<PeerId, Vec<GossipId>>>,
    /// SWIM failure detector over the admitted peer set, ticked by the
    /// repair cadence ([`Broker::start_repair_round`]).  Confirmed deaths
    /// feed `view` / `plumtree` through [`Broker::on_swim_death`]; the
    /// admission state (`peer_brokers`, `seen_seq`) is deliberately left
    /// alone so a recovered broker re-enters by simply answering a probe.
    swim: Mutex<SwimDetector>,
    /// Which brokers host live members of each group: group → member →
    /// home broker.  Maintained from the same fully replicated join/leave
    /// gossip that feeds `peer_homes`, so it needs no extra wire traffic;
    /// sharded publishes use it to address member-hosting brokers beyond
    /// the replica set instead of broadcasting.
    group_hosts: RwLock<HashMap<GroupId, HashMap<PeerId, PeerId>>>,
    /// Which broker each remote peer is homed at (replicated via gossip).
    peer_homes: Tracked<HashMap<PeerId, PeerId>>,
    /// Last-writer-wins version of each peer's presence (join/leave) state.
    peer_versions: RwLock<HashMap<PeerId, PresenceVersion>>,
    /// Provenance version of each stored membership entry: the presence
    /// version the `(group, member)` entry was asserted under.  Anti-entropy
    /// deletion decisions compare a peer's *current* version against this —
    /// a peer strictly newer than the entry's provenance that does not list
    /// the membership proves the entry stale, while an equal version proves
    /// it current (the same join event implies the same group list).
    membership_versions: Tracked<HashMap<(GroupId, PeerId), PresenceVersion>>,
    /// Sequence number stamped on outgoing inter-broker messages.
    sync_seq: AtomicU64,
    /// Serialises sequence allocation with the wire send (see
    /// [`Broker::send_sequenced`]): several threads send on a broker's
    /// behalf (its event loop, the federation repair loop, in-process
    /// callers), and the receiver's replay protection requires their
    /// sequence numbers to arrive in allocation order.
    send_lock: Mutex<()>,
    /// Highest sequence number seen per origin broker (replay detection).
    seen_seq: RwLock<HashMap<PeerId, u64>>,
    /// Federation activity counters.
    federation: FederationMetrics,
    /// Ingress-pipeline activity counters (all zero without a pipeline).
    pipeline: PipelineMetrics,
    /// The consistent-hash ring over this broker and its federation peers
    /// (only consulted when `config.replication_factor` is set).
    ring: Tracked<ShardRing>,
    /// Gossip events queued per destination, coalesced into one `BrokerSync`
    /// digest per destination at the next [`Broker::flush_gossip`].  A
    /// `BTreeMap` keeps the flush order deterministic, which the inline
    /// federation's reproducible pumping relies on.
    outbox: Mutex<BTreeMap<PeerId, Vec<GossipEvent>>>,
    /// Lookups routed to remote shard replicas, keyed by query identifier.
    pending_lookups: Mutex<HashMap<u64, PendingLookup>>,
    /// Next shard-query identifier.
    next_query: AtomicU64,
    /// Network messages fully processed by this broker (monotone; compared
    /// against [`SimNetwork::delivered_to`] for quiescence detection).
    processed: AtomicU64,
    /// Cached repair hash trees (see [`RepairTreeCache`]), so an idle
    /// anti-entropy round costs one root digest per edge instead of
    /// re-hashing O(shard) entries per peer per round.
    repair_trees: Mutex<RepairTreeCache>,
    /// Version counter of the state the repair trees summarise, shared by
    /// every [`Tracked`] field and the group registry: each mutating write
    /// guard bumps it when it drops, and the cache drops all trees when its
    /// recorded epoch falls behind.
    repair_epoch: Arc<AtomicU64>,
}

/// Cached [`SectionTree`]s of the two shard-keyed anti-entropy sections,
/// keyed by the peer whose shared-entry filter shaped them (in full
/// replication the filter is peer-invariant, so one tree keyed by the
/// broker's own id serves every edge).  Invalidated wholesale when
/// `repair_epoch` moves: state writes are the common case and a coarse epoch
/// keeps every write O(1).
#[derive(Default)]
struct RepairTreeCache {
    /// The `repair_epoch` value the cached trees were built at.
    epoch: u64,
    /// Advertisement-section trees per peer filter.
    adv: HashMap<PeerId, Arc<SectionTree>>,
    /// Membership-section trees per peer filter.
    membership: HashMap<PeerId, Arc<SectionTree>>,
}

impl Broker {
    /// Creates a broker with the given identifier.
    pub fn new(
        id: PeerId,
        config: BrokerConfig,
        network: Arc<SimNetwork>,
        database: Arc<UserDatabase>,
    ) -> Arc<Self> {
        let mut ring = ShardRing::new(config.replication_factor.unwrap_or(usize::MAX));
        ring.insert(id);
        let view = PartialView::new(id, config.active_view, config.passive_view);
        let epoch = Arc::new(AtomicU64::new(0));
        Arc::new(Broker {
            id,
            config,
            network,
            database,
            groups: GroupRegistry::tracked_by(&epoch),
            advertisements: Tracked::with_class("broker.advertisements", HashMap::new(), &epoch),
            connected: RwLock::with_class("broker.connected", HashMap::new()),
            sessions: Tracked::with_class("broker.sessions", HashMap::new(), &epoch),
            displaced: Tracked::with_class("broker.displaced", HashMap::new(), &epoch),
            extension: RwLock::with_class("broker.extension", None),
            peer_brokers: RwLock::with_class("broker.peer_brokers", Vec::new()),
            view: Mutex::with_class("broker.view", view),
            plumtree: Mutex::with_class(
                "broker.plumtree",
                PlumtreeState::new(crate::plumtree::DEFAULT_CACHE),
            ),
            ihave_outbox: Mutex::with_class("broker.ihave_outbox", BTreeMap::new()),
            swim: Mutex::with_class("broker.swim", SwimDetector::new(id)),
            group_hosts: RwLock::with_class("broker.group_hosts", HashMap::new()),
            peer_homes: Tracked::with_class("broker.peer_homes", HashMap::new(), &epoch),
            peer_versions: RwLock::with_class("broker.peer_versions", HashMap::new()),
            membership_versions: Tracked::with_class(
                "broker.membership_versions",
                HashMap::new(),
                &epoch,
            ),
            sync_seq: AtomicU64::new(0),
            send_lock: Mutex::with_class("broker.send_lock", ()),
            seen_seq: RwLock::with_class("broker.seen_seq", HashMap::new()),
            federation: FederationMetrics::new(),
            pipeline: PipelineMetrics::new(),
            ring: Tracked::with_class("broker.ring", ring, &epoch),
            outbox: Mutex::with_class("broker.outbox", BTreeMap::new()),
            pending_lookups: Mutex::with_class("broker.pending_lookups", HashMap::new()),
            next_query: AtomicU64::new(1),
            processed: AtomicU64::new(0),
            repair_trees: Mutex::with_class("broker.repair_trees", RepairTreeCache::default()),
            repair_epoch: epoch,
        })
    }

    /// The broker's peer identifier (its "well-known" address).
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// The broker's configuration.
    pub fn config(&self) -> &BrokerConfig {
        &self.config
    }

    /// The network this broker is attached to.
    pub fn network(&self) -> &Arc<SimNetwork> {
        &self.network
    }

    /// The central user database (brokers are the only entities allowed to
    /// touch it).
    pub fn database(&self) -> &Arc<UserDatabase> {
        &self.database
    }

    /// The broker's group registry.
    pub fn groups(&self) -> &GroupRegistry {
        &self.groups
    }

    /// Installs the security extension.
    pub fn set_extension(&self, extension: Arc<dyn BrokerExtension>) {
        *self.extension.write() = Some(extension);
    }

    // ------------------------------------------------------------------
    // Federation membership and routing
    // ------------------------------------------------------------------

    /// Registers another broker as a peer of the federation backbone.
    /// Gossip is sent to — and accepted from — peer brokers only.  The peer
    /// also joins this broker's shard ring; callers changing the membership
    /// of a running sharded federation should follow up with
    /// [`Broker::reshard`] to migrate entries onto their new replicas.
    pub fn add_peer_broker(&self, broker: PeerId) {
        if broker == self.id {
            return;
        }
        {
            let mut peers = self.peer_brokers.write();
            if peers.contains(&broker) {
                return;
            }
            peers.push(broker);
            self.ring.write().insert(broker);
        }
        let active = {
            let mut view = self.view.lock();
            view.on_join(broker);
            view.active()
        };
        self.plumtree.lock().sync_active(&active);
        let peers = self.peer_brokers.read().clone();
        self.swim.lock().sync_members(&peers);
    }

    /// Removes a broker from the federation backbone and the shard ring.
    /// The departed broker's clients are gone with it, so their routes *and*
    /// their replicated group memberships are dropped (a crashed broker
    /// never gossips their leaves — without this cleanup they would stay
    /// ghost members forever).  Entry migration is the caller's job via
    /// [`Broker::reshard`].  Lookups awaiting a shard answer are resolved
    /// with whatever merged so far: the awaited replica may be the one that
    /// just left, and an unanswered client would otherwise only see its own
    /// timeout (and the pending entry would leak).
    pub fn remove_peer_broker(&self, broker: &PeerId) {
        self.peer_brokers.write().retain(|b| b != broker);
        self.ring.write().remove(broker);
        self.seen_seq.write().remove(broker);
        self.outbox.lock().remove(broker);
        // Every survivor performs the identical cleanup, so the replicated
        // state stays consistent without any gossip from the dead broker.
        let orphans: Vec<PeerId> = {
            let homes = self.peer_homes.read();
            homes
                .iter()
                .filter(|(_, home)| *home == broker)
                .map(|(peer, _)| *peer)
                .collect()
        };
        for peer in orphans {
            self.groups.leave_all(&peer);
            self.forget_membership_stamps(&peer);
            self.connected.write().remove(&peer);
            self.displaced.write().remove(&peer);
        }
        self.peer_homes.write().retain(|_, home| home != broker);
        let stranded: Vec<PendingLookup> = {
            let mut pending = self.pending_lookups.lock();
            std::mem::take(&mut *pending).into_values().collect()
        };
        for state in stranded {
            self.finish_pending_lookup(state);
        }
        let active = {
            let mut view = self.view.lock();
            view.on_failure(broker);
            view.active()
        };
        self.plumtree.lock().sync_active(&active);
        self.ihave_outbox.lock().remove(broker);
        let peers = self.peer_brokers.read().clone();
        self.swim.lock().sync_members(&peers);
        // The dead broker's hosted members left with it (mirrors the
        // peer_homes cleanup above).
        for hosts in self.group_hosts.write().values_mut() {
            hosts.retain(|_, home| home != broker);
        }
    }

    /// The configured shard replication factor (`None` = full replication).
    pub fn replication_factor(&self) -> Option<usize> {
        self.config.replication_factor
    }

    /// Returns `true` when this broker partitions the index/membership state
    /// across the shard ring instead of fully replicating it.
    fn is_sharded(&self) -> bool {
        self.config.replication_factor.is_some()
    }

    /// The replica set of `(group, owner)` on this broker's shard ring (in
    /// full-replication mode: this broker plus every peer).
    pub fn shard_replicas(&self, group: &GroupId, owner: &PeerId) -> Vec<PeerId> {
        self.ring.read().replicas(group, owner)
    }

    /// Returns `true` if this broker must store the `(group, owner)` entry:
    /// always in full-replication mode, only as a ring replica when sharded.
    fn is_local_replica(&self, group: &GroupId, owner: &PeerId) -> bool {
        !self.is_sharded() || self.ring.read().is_replica(group, owner, &self.id)
    }

    /// Number of advertisements currently held in the local index (the
    /// quantity the sharding experiments show dropping from O(total) to
    /// O(total·K/N) per broker).
    pub fn advertisement_entry_count(&self) -> usize {
        self.advertisements.read().values().map(HashMap::len).sum()
    }

    /// The other brokers of the federation this broker gossips with.
    pub fn peer_brokers(&self) -> Vec<PeerId> {
        self.peer_brokers.read().clone()
    }

    /// Returns `true` if `peer` is a known peer broker of the federation.
    pub fn is_peer_broker(&self, peer: &PeerId) -> bool {
        self.peer_brokers.read().contains(peer)
    }

    /// Whether the epidemic fabric is active: the broker is not pinned to
    /// full mesh and the known peer set has outgrown the active-view
    /// capacity, so the view is a strict subset and broadcasts must be
    /// forwarded.  The predicate depends only on configuration and the
    /// (replicated) peer count, so every broker of a federation reaches the
    /// same answer — which the forwarding protocol needs: a broker that
    /// pushed eagerly must be able to rely on its neighbours pushing onward.
    pub fn epidemic_engaged(&self) -> bool {
        !self.config.full_mesh && self.peer_brokers.read().len() > self.config.active_view
    }

    /// The peer brokers that broadcast gossip, anti-entropy and extension
    /// state target: the bounded active view once the epidemic fabric is
    /// engaged, the complete peer set otherwise.
    fn repair_targets(&self) -> Vec<PeerId> {
        if self.epidemic_engaged() {
            self.view.lock().active()
        } else {
            self.peer_brokers()
        }
    }

    /// The membership layer's current active view (complete below the view
    /// capacity), for tests and diagnostics.
    pub fn active_view(&self) -> Vec<PeerId> {
        self.view.lock().active()
    }

    /// The Plumtree eager (tree) edges, for tests and diagnostics.
    pub fn epidemic_eager_peers(&self) -> Vec<PeerId> {
        self.plumtree.lock().eager()
    }

    /// The Plumtree lazy (digest-only) edges, for tests and diagnostics.
    pub fn epidemic_lazy_peers(&self) -> Vec<PeerId> {
        self.plumtree.lock().lazy()
    }

    /// Records `member` as hosted at `home` for each listed group.
    fn set_group_hosts(&self, member: &PeerId, groups: &[GroupId], home: PeerId) {
        let mut hosts = self.group_hosts.write();
        for group in groups {
            hosts.entry(group.clone()).or_default().insert(*member, home);
        }
    }

    /// Drops `member` from every group's host digest.
    fn clear_group_hosts(&self, member: &PeerId) {
        let mut hosts = self.group_hosts.write();
        for members in hosts.values_mut() {
            members.remove(member);
        }
        hosts.retain(|_, members| !members.is_empty());
    }

    /// The brokers hosting at least one live member of `group`, per the
    /// replicated join/leave digest (never includes this broker itself).
    pub fn group_host_brokers(&self, group: &GroupId) -> Vec<PeerId> {
        let hosts = self.group_hosts.read();
        let mut out: Vec<PeerId> = hosts
            .get(group)
            .map(|members| members.values().copied().collect())
            .unwrap_or_default();
        out.sort();
        out.dedup();
        out.retain(|b| *b != self.id);
        out
    }

    /// Federation activity counters (gossip, relays, rejected traffic).
    pub fn federation_stats(&self) -> FederationStats {
        self.federation.snapshot()
    }

    /// Ingress-pipeline activity counters (batch sizes, reorder waits).
    pub fn pipeline_stats(&self) -> PipelineStats {
        self.pipeline.snapshot()
    }

    /// Peers currently connected to this broker (logged in or not) — the
    /// audience of broker-initiated pushes such as federation credential
    /// updates.
    pub fn client_peers(&self) -> Vec<PeerId> {
        let mut peers: Vec<PeerId> = self.connected.read().keys().copied().collect();
        for peer in self.sessions.read().keys() {
            if !peers.contains(peer) {
                peers.push(*peer);
            }
        }
        peers.sort();
        peers
    }

    /// The broker a peer is homed at: this broker for local sessions, the
    /// gossip-replicated home broker for peers joined elsewhere.
    pub fn home_of(&self, peer: &PeerId) -> Option<PeerId> {
        if self.sessions.read().contains_key(peer) {
            return Some(self.id);
        }
        self.peer_homes.read().get(peer).copied()
    }

    /// Deterministic snapshot of the advertisement index, used by the
    /// federation's replication-convergence checks.
    pub fn advertisement_snapshot(&self) -> Vec<(GroupId, PeerId, String, String)> {
        let advertisements = self.advertisements.read();
        let mut out = Vec::new();
        for (group, index) in advertisements.iter() {
            for ((owner, doc_type), adv) in index.iter() {
                out.push((group.clone(), *owner, doc_type.clone(), adv.xml.clone()));
            }
        }
        out.sort();
        out
    }

    /// Like [`Broker::advertisement_snapshot`] but reporting each entry's
    /// last-writer-wins version instead of its XML — what the repair tests
    /// use to prove anti-entropy never regresses a newer write.
    pub fn advertisement_versions(&self) -> Vec<(GroupId, PeerId, String, (u64, PeerId))> {
        let advertisements = self.advertisements.read();
        let mut out = Vec::new();
        for (group, index) in advertisements.iter() {
            for ((owner, doc_type), adv) in index.iter() {
                out.push((group.clone(), *owner, doc_type.clone(), adv.version));
            }
        }
        out.sort();
        out
    }

    /// Deterministic snapshot of the peer→home-broker routing table (local
    /// sessions map to this broker itself).
    pub fn routing_snapshot(&self) -> Vec<(PeerId, PeerId)> {
        let mut out: Vec<(PeerId, PeerId)> = self
            .sessions
            .read()
            .keys()
            .map(|peer| (*peer, self.id))
            .collect();
        out.extend(self.peer_homes.read().iter().map(|(p, h)| (*p, *h)));
        out.sort();
        out
    }

    /// Returns `true` if `peer` completed the connect step.
    pub fn is_connected(&self, peer: &PeerId) -> bool {
        self.connected.read().contains_key(peer)
    }

    /// Returns the session of a logged-in peer.
    pub fn session(&self, peer: &PeerId) -> Option<BrokerSession> {
        self.sessions.read().get(peer).cloned()
    }

    /// Number of logged-in peers.
    pub fn session_count(&self) -> usize {
        self.sessions.read().len()
    }

    /// Marks a peer as connected (used by both the plain handler and the
    /// secure extension).
    pub fn mark_connected(&self, peer: PeerId) {
        self.connected.write().insert(peer, ());
    }

    /// Records a successful login and joins the user's groups.  Returns the
    /// created session and replicates it to the federation (the peer is now
    /// homed here).
    pub fn establish_session(&self, peer: PeerId, username: &str) -> BrokerSession {
        let groups = self.database.groups_of(username);
        for g in &groups {
            self.groups.join(g.clone(), peer);
        }
        let session = BrokerSession {
            username: username.to_string(),
            groups: groups.clone(),
        };
        self.sessions.write().insert(peer, session.clone());
        // If the peer previously logged in at another broker, this broker is
        // its home now; a fresh login also supersedes any shadowed session.
        self.peer_homes.write().remove(&peer);
        self.displaced.write().remove(&peer);
        let seq = self.version_local_presence(peer, PRESENCE_JOIN);
        for g in &groups {
            self.stamp_membership(g, peer, (seq, PRESENCE_JOIN, self.id));
        }
        self.set_group_hosts(&peer, &groups, self.id);
        self.gossip_join(seq, peer, &groups);
        self.flush_gossip();
        session
    }

    /// Removes a peer's session and group memberships (logout / departure)
    /// and replicates the departure to the federation.
    pub fn drop_session(&self, peer: &PeerId) {
        let had_session = self.sessions.write().remove(peer).is_some();
        self.connected.write().remove(peer);
        self.displaced.write().remove(peer);
        self.groups.leave_all(peer);
        self.forget_membership_stamps(peer);
        self.clear_group_hosts(peer);
        if had_session {
            let peer = *peer;
            let seq = self.version_local_presence(peer, PRESENCE_LEAVE);
            self.gossip_to_all(GossipEvent::new(vec![
                ("op", "leave".to_string()),
                ("seq", seq.to_string()),
                ("peer", peer.to_urn()),
            ]));
            self.flush_gossip();
        }
    }

    /// Records a local join/leave in the presence register and returns the
    /// sequence number it was versioned (and must be gossiped) under.  The
    /// sequence is floored above the stored version so the local write — the
    /// authoritative one, the client is talking to *this* broker — wins.
    fn version_local_presence(&self, peer: PeerId, rank: u8) -> u64 {
        let floor = self
            .peer_versions
            .read()
            .get(&peer)
            .map(|version| version.0 + 1)
            .unwrap_or(1);
        self.sync_seq.fetch_max(floor - 1, Ordering::Relaxed);
        let seq = self.next_sync_seq();
        self.peer_versions.write().insert(peer, (seq, rank, self.id));
        seq
    }

    /// Records the provenance version of a stored membership entry.
    fn stamp_membership(&self, group: &GroupId, member: PeerId, version: PresenceVersion) {
        self.membership_versions
            .write()
            .insert((group.clone(), member), version);
    }

    /// Drops every membership provenance stamp of `peer` (paired with the
    /// `leave_all` that cleared its memberships).
    fn forget_membership_stamps(&self, peer: &PeerId) {
        self.membership_versions
            .write()
            .retain(|(_, member), _| member != peer);
    }

    /// The provenance version of a stored membership entry (falling back to
    /// the peer's presence version, then to a floor that loses every
    /// comparison).
    fn membership_stamp(&self, group: &GroupId, member: &PeerId) -> PresenceVersion {
        if let Some(stamp) = self
            .membership_versions
            .read()
            .get(&(group.clone(), *member))
        {
            return *stamp;
        }
        self.peer_versions
            .read()
            .get(member)
            .copied()
            .unwrap_or((0, PRESENCE_LEAVE, *member))
    }

    /// Applies the local side effects of a remote JOIN (the peer is homed
    /// elsewhere now), shared by gossip application and anti-entropy repair:
    /// live-session arbitration plus session/connection cleanup.  When the
    /// peer is demonstrably logged in *here* — local ground truth the remote
    /// join cannot know about — the lower broker id re-asserts (so a stale
    /// join arriving late cannot ghost a live client) and the higher one
    /// yields but *shadows* the still-open session instead of forgetting it;
    /// exactly one side backs down, so the exchange always terminates.
    /// Returns `true` when the event was absorbed by a re-assert and the
    /// caller must stop applying it.
    fn yield_to_remote_join(&self, peer: PeerId, origin: PeerId) -> bool {
        if let Some(session) = self.session(&peer) {
            if self.id < origin {
                self.reassert_session(peer, &session);
                return true;
            }
            self.displaced.write().insert(peer, session);
        }
        self.sessions.write().remove(&peer);
        self.connected.write().remove(&peer);
        false
    }

    /// Applies the local side effects of a remote LEAVE, shared by gossip
    /// application and anti-entropy repair.  A leave echoing an older home
    /// must not log out a peer that is live here, so a live session is
    /// re-asserted unconditionally (the leaver holds no session and never
    /// counter-asserts).  A *shadowed* session is resurrected instead: the
    /// peer's global state just became "gone", yet its connection here is
    /// still open, which proves the join we yielded to was a stale echo of a
    /// completed login/logout episode.  Returns `true` when the event was
    /// absorbed and the caller must stop applying it.
    fn absorb_remote_leave(&self, peer: PeerId) -> bool {
        if let Some(session) = self.session(&peer) {
            self.reassert_session(peer, &session);
            return true;
        }
        if let Some(session) = self.displaced.write().remove(&peer) {
            self.sessions.write().insert(peer, session.clone());
            self.reassert_session(peer, &session);
            return true;
        }
        self.connected.write().remove(&peer);
        false
    }

    /// Applies `version` to the presence register if it is newer than the
    /// stored one.  Returns `false` when the incoming write is stale.
    fn try_version_presence(&self, peer: PeerId, version: PresenceVersion) -> bool {
        let mut versions = self.peer_versions.write();
        match versions.entry(peer) {
            std::collections::hash_map::Entry::Occupied(mut stored) => {
                if version <= *stored.get() {
                    return false;
                }
                stored.insert(version);
                true
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(version);
                true
            }
        }
    }

    /// Stores an advertisement in the shard (or, in full-replication mode,
    /// the global index), pushes it to the other *locally homed* members of
    /// the group and replicates it to the entry's replica brokers — all peer
    /// brokers when fully replicated, only the K ring replicas when sharded.
    /// Returns the number of local peers it was pushed to.
    ///
    /// Push semantics differ between the modes: with full replication every
    /// broker applies the gossip and pushes to its local members, so every
    /// member receives exactly one push.  Sharded, the publish is addressed
    /// to the entry's K ring replicas **plus** the brokers the group-host
    /// digest ([`Broker::group_host_brokers`]) lists as homing a live member
    /// of the group — those apply without storing and push to their members,
    /// so the fan-out is O(K + hosting brokers) per publish instead of
    /// O(brokers), and brokers hosting nobody in the group see no traffic.
    /// The digest is itself replicated gossip, so a broker whose hosts view
    /// lags can briefly miss a push; lookups (`resolve_pipe` and friends)
    /// remain the authoritative path.
    pub fn index_and_distribute(
        &self,
        from: PeerId,
        group: &GroupId,
        doc_type: &str,
        xml: &str,
    ) -> usize {
        // The gossip's sequence number doubles as the entry's last-writer-
        // wins version, so the local write and its replicas carry the
        // identical version on every broker.
        let seq = self.next_sync_seq();
        let store = self.is_local_replica(group, &from);
        let pushed = self.apply_publish(from, group, doc_type, xml, (seq, self.id), store);
        let event = GossipEvent::new(vec![
            ("op", "publish".to_string()),
            ("seq", seq.to_string()),
            ("group", group.as_str().to_string()),
            ("doc-type", doc_type.to_string()),
            ("owner", from.to_urn()),
            ("xml", xml.to_string()),
        ]);
        let fanout = if self.is_sharded() {
            let mut targets: Vec<PeerId> = self
                .shard_replicas(group, &from)
                .into_iter()
                .chain(self.group_host_brokers(group))
                .filter(|broker| *broker != self.id)
                .collect();
            targets.sort();
            targets.dedup();
            self.gossip_to(&targets, event);
            targets.len()
        } else {
            self.gossip_to_all(event)
        };
        self.federation.count_publish_fanout(fanout as u64);
        self.flush_gossip();
        pushed
    }

    /// Indexes an advertisement (when `store` — the origin of a sharded
    /// publish may not be one of the entry's replicas) and pushes it to
    /// locally homed group members, without gossiping; shared by the local
    /// publish path and the gossip application path.  A stored entry is only
    /// replaced when `version` is greater than the stored one (last-writer-
    /// wins convergence).
    fn apply_publish(
        &self,
        from: PeerId,
        group: &GroupId,
        doc_type: &str,
        xml: &str,
        version: (u64, PeerId),
        store: bool,
    ) -> usize {
        if store && !self.store_advertisement(from, group, doc_type, xml, version) {
            // A concurrent write with a greater version already won; dropping
            // this one keeps all replicas equal.
            return 0;
        }
        self.push_to_local_members(from, group, doc_type, xml)
    }

    /// Inserts (or LWW-replaces) an advertisement in the local index.
    /// Returns `false` when a write with a greater-or-equal version is
    /// already stored — the shared no-regression rule of gossip application
    /// and anti-entropy repair.  The stored version is compared through a
    /// shared borrow of the guard, so a stale write leaves the repair
    /// epoch (and with it the cached repair trees) alone.
    fn store_advertisement(
        &self,
        from: PeerId,
        group: &GroupId,
        doc_type: &str,
        xml: &str,
        version: (u64, PeerId),
    ) -> bool {
        let key = (from, doc_type.to_string());
        let mut advertisements = self.advertisements.write();
        let stored = advertisements
            .get(group)
            .and_then(|index| index.get(&key))
            .map(|adv| adv.version);
        if stored.is_some_and(|stored| version <= stored) {
            return false;
        }
        advertisements.entry(group.clone()).or_default().insert(
            key,
            IndexedAdvertisement {
                xml: xml.to_string(),
                version,
            },
        );
        true
    }

    /// Seeds one advertisement directly into the local index with an
    /// explicit version — no gossip, no client push.  Benchmarks and tests
    /// use it to build large identical (or deliberately divergent) replicas
    /// without paying the federation round-trips.  Returns `false` when an
    /// equal-or-newer version is already stored (same LWW rule as a
    /// replicated write).
    pub fn load_advertisement(
        &self,
        owner: PeerId,
        group: &GroupId,
        doc_type: &str,
        xml: &str,
        version: (u64, PeerId),
    ) -> bool {
        self.store_advertisement(owner, group, doc_type, xml, version)
    }

    /// Pushes an advertisement to the locally homed members of its group
    /// (everyone but the owner).  Returns the number of peers pushed to.
    fn push_to_local_members(
        &self,
        from: PeerId,
        group: &GroupId,
        doc_type: &str,
        xml: &str,
    ) -> usize {
        let local: Vec<PeerId> = {
            let sessions = self.sessions.read();
            self.groups
                .members(group)
                .into_iter()
                .filter(|member| *member != from && sessions.contains_key(member))
                .collect()
        };
        let mut pushed = 0;
        for member in local {
            let push = Message::new(MessageKind::AdvertisementPush, self.id, 0)
                .with_str("group", group.as_str())
                .with_str("doc-type", doc_type)
                .with_str("xml", xml);
            // lint:allow(accounted-send, client-facing push to a locally attached member)
            if self.network.send(self.id, member, push.to_bytes()).is_ok() {
                pushed += 1;
            }
        }
        pushed
    }

    // ------------------------------------------------------------------
    // Federation gossip
    // ------------------------------------------------------------------

    /// Allocates the next outgoing inter-broker sequence number.
    fn next_sync_seq(&self) -> u64 {
        self.sync_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Stamps `message` with the next inter-broker sequence number and sends
    /// it, holding the send lock so allocation order and wire order agree.
    /// Without the lock, two threads sending on this broker's behalf could
    /// allocate seqs S and S+1 yet deliver S+1 first — the receiver's replay
    /// protection would then reject the genuine message carrying S.
    /// Returns the wire size of the sent message, `None` when the send
    /// failed — callers attributing bandwidth (repair accounting) need the
    /// size *after* the sequence element was appended.
    fn send_sequenced(&self, to: PeerId, mut message: Message, carried_wire: Duration) -> Option<usize> {
        let _guard = self.send_lock.lock();
        let seq = self.next_sync_seq();
        message.push_element("seq", seq.to_string().into_bytes());
        let bytes = message.to_bytes();
        let size = bytes.len();
        self.network
            // lint:allow(accounted-send, the sequencing choke point itself)
            .forward(self.id, to, bytes, carried_wire)
            .ok()
            .map(|_| size)
    }

    /// Queues a broadcast gossip event for the federation and returns the
    /// number of brokers it was queued to directly (the origin's fan-out).
    ///
    /// Full mesh (or a federation small enough that the active view is
    /// complete): queued to every peer broker, exactly the old behaviour.
    /// Epidemic: the event is stamped with its version origin and a
    /// broadcast marker, recorded as seen and cached for grafts, queued
    /// eagerly only to the Plumtree tree edges, and advertised as an
    /// `IHave` on the lazy edges at the next flush — receivers forward it
    /// onward (see [`Broker::handle_sync`]), which is what caps this
    /// broker's fan-out at the view size.
    fn gossip_to_all(&self, mut event: GossipEvent) -> usize {
        if !self.epidemic_engaged() {
            let peers = self.peer_brokers.read().clone();
            self.gossip_to(&peers, event);
            return peers.len();
        }
        event.set("vorigin", self.id.to_urn());
        event.set("bcast", "1".to_string());
        let Some(gid) = event.gossip_id() else {
            // No parseable version: fall back to direct delivery rather
            // than lose the event (forwarders could not dedup it).
            let peers = self.peer_brokers.read().clone();
            self.gossip_to(&peers, event);
            return peers.len();
        };
        let (eager, lazy) = {
            let mut tree = self.plumtree.lock();
            tree.note_seen(gid);
            tree.cache_event(gid, event.fields.clone());
            (tree.eager(), tree.lazy())
        };
        self.gossip_to(&eager, event);
        self.federation.count_eager_pushes(eager.len() as u64);
        if !lazy.is_empty() {
            let mut ihaves = self.ihave_outbox.lock();
            for peer in &lazy {
                ihaves.entry(*peer).or_default().push(gid);
            }
        }
        eager.len()
    }

    /// Queues a gossip event for each broker in `targets`.  Nothing is sent
    /// yet: events are coalesced per destination and shipped as one digest
    /// per destination by [`Broker::flush_gossip`].
    fn gossip_to(&self, targets: &[PeerId], event: GossipEvent) {
        if targets.is_empty() {
            return;
        }
        let mut outbox = self.outbox.lock();
        for target in targets {
            if *target == self.id {
                continue;
            }
            outbox.entry(*target).or_default().push(event.clone());
        }
    }

    /// Ships every queued gossip event: one `BrokerSync` digest per
    /// destination, however many events accumulated for it.  Every public
    /// operation that gossips flushes before returning (so a single publish
    /// still costs a single message, exactly as before), but an operation
    /// that produces many events — a shard migration, a batched sync
    /// application — pays one backbone message per destination instead of
    /// one per event.
    pub fn flush_gossip(&self) {
        let batches: Vec<(PeerId, Vec<GossipEvent>)> = {
            let mut outbox = self.outbox.lock();
            std::mem::take(&mut *outbox).into_iter().collect()
        };
        for (destination, events) in batches {
            let mut digest = Message::new(MessageKind::BrokerSync, self.id, 0)
                .with_str("count", &events.len().to_string());
            for (i, event) in events.iter().enumerate() {
                for (field, value) in &event.fields {
                    digest.push_element(format!("e{i}-{field}"), value.as_bytes().to_vec());
                }
            }
            if self.send_sequenced(destination, digest, Duration::ZERO).is_some() {
                self.federation.count_sync_sent();
            }
        }
    }

    /// Ships the pending lazy-edge advertisements: one coalesced
    /// `PlumtreeIHave` digest per destination — the gossip ids only, so a
    /// lazy edge costs bytes proportional to the event count, not the
    /// payload size.
    ///
    /// Unlike the payload digests (flushed by every gossiping operation so
    /// a publish keeps its one-message cost), the `IHave` queue drains only
    /// on the repair cadence ([`Broker::start_repair_round`]): lazy edges
    /// exist for tree repair, and repair latency is already bounded by that
    /// cadence, so advertising per-publish bought nothing but messages.
    /// Batching across publishes makes a busy tick cost one digest per lazy
    /// edge instead of one per publish; the sends avoided are counted as
    /// `ihave_digests_saved`.
    pub fn flush_ihaves(&self) {
        let ihaves: Vec<(PeerId, Vec<GossipId>)> = {
            let mut outbox = self.ihave_outbox.lock();
            std::mem::take(&mut *outbox).into_iter().collect()
        };
        for (destination, gids) in ihaves {
            // Per-publish flushing would have shipped each id in its own
            // digest; coalescing n ids saves n-1 sends to this destination.
            self.federation
                .count_ihave_digests_saved(gids.len().saturating_sub(1) as u64);
            let mut digest = Message::new(MessageKind::PlumtreeIHave, self.id, 0)
                .with_str("count", &gids.len().to_string());
            for (i, (origin, seq)) in gids.iter().enumerate() {
                digest.push_element(format!("g{i}-origin"), origin.to_urn().into_bytes());
                digest.push_element(format!("g{i}-seq"), seq.to_string().into_bytes());
            }
            if self.send_sequenced(destination, digest, Duration::ZERO).is_some() {
                self.federation.count_ihave_sent();
            }
        }
    }

    /// Admission control for inter-broker traffic, run once per message by
    /// [`Broker::process_net`] before any inter-broker handler: the origin
    /// must be a known peer broker, it must match the transport-level sender
    /// `from`, and the sequence number must be fresh.  Rejections are
    /// counted (they are what the cross-broker attack tests assert on).
    ///
    /// This models the connection-oriented trust of a real backbone (a
    /// broker knows which TLS/TCP link a message arrived on); an adversary
    /// spoofing *both* identities is only stopped by the end-to-end
    /// cryptography of the secure extension, never by the overlay.
    fn accept_from_peer_broker(&self, origin: PeerId, from: PeerId, seq: Option<String>) -> bool {
        if from != origin || !self.is_peer_broker(&origin) {
            self.federation.count_rejected_unknown_origin();
            return false;
        }
        let Some(seq) = seq.and_then(|s| s.parse::<u64>().ok()) else {
            self.federation.count_rejected_replayed();
            return false;
        };
        // Lamport merge: pull the local sequence counter past every observed
        // remote sequence number, so subsequent *local* writes always
        // version-dominate the remote writes this broker has already seen —
        // without it, a fresh local publish on a quiet broker would lose the
        // LWW comparison against a replica from a busier broker.
        self.sync_seq.fetch_max(seq, Ordering::Relaxed);
        let mut seen = self.seen_seq.write();
        let last = seen.entry(origin).or_insert(0);
        if seq <= *last {
            self.federation.count_rejected_replayed();
            return false;
        }
        *last = seq;
        true
    }

    /// Applies one admitted gossip message to local state.  Two wire shapes
    /// are understood: the coalesced digest (`count` element, events in
    /// `e{i}-*` fields, each carrying its own version `seq`) that
    /// [`Broker::flush_gossip`] sends, and the original single-event layout
    /// (`op` at the top level, the transport `seq` doubling as the version),
    /// which [`Broker::gossip_extension_state`] sends for revocation lists
    /// and the pipelined-vs-inline equivalence proptest scripts for its
    /// fake peer broker.
    fn handle_sync(&self, message: &Message) {
        let origin = message.sender;
        let epidemic = self.epidemic_engaged();
        let mut broadcasts = 0usize;
        let mut duplicates = 0usize;
        if let Some(count) = message.entry_count("count") {
            // One name→content index up front: per-field `element` scans
            // would make applying an n-event digest O(n²).
            let index = message.index();
            for i in 0..count {
                // Epidemic bookkeeping first: a broadcast event (it carries
                // its gossip id in `vorigin`/`seq` plus the `bcast` marker)
                // is deduplicated on the seen-set, cached for grafts, and
                // re-queued onward — eager edges get the payload, lazy
                // edges an `IHave` at the flush below.  Application itself
                // stays on the byte-faithful closure over the wire message.
                let gid = if epidemic
                    && index.get(&format!("e{i}-bcast")) == Some(b"1".as_slice())
                {
                    index
                        .get_str(&format!("e{i}-vorigin"))
                        .and_then(|urn| PeerId::from_urn(&urn))
                        .zip(
                            index
                                .get_str(&format!("e{i}-seq"))
                                .and_then(|s| s.parse::<u64>().ok()),
                        )
                } else {
                    None
                };
                if let Some(gid) = gid {
                    broadcasts += 1;
                    let fresh = self.plumtree.lock().note_seen(gid);
                    if !fresh {
                        duplicates += 1;
                        continue;
                    }
                    let prefix = format!("e{i}-");
                    let fields: Vec<(String, String)> = message
                        .elements
                        .iter()
                        .filter_map(|element| {
                            element.name.strip_prefix(&prefix).map(|field| {
                                (
                                    field.to_string(),
                                    String::from_utf8_lossy(&element.content).into_owned(),
                                )
                            })
                        })
                        .collect();
                    let (eager, lazy) = {
                        let mut tree = self.plumtree.lock();
                        tree.cache_event(gid, fields.clone());
                        (tree.eager(), tree.lazy())
                    };
                    let forward: Vec<PeerId> = eager
                        .into_iter()
                        .filter(|p| *p != origin && *p != gid.0)
                        .collect();
                    self.gossip_to(&forward, GossipEvent::from_owned(fields));
                    self.federation.count_eager_pushes(forward.len() as u64);
                    if !lazy.is_empty() {
                        let mut ihaves = self.ihave_outbox.lock();
                        for peer in lazy {
                            if peer != origin && peer != gid.0 {
                                ihaves.entry(peer).or_default().push(gid);
                            }
                        }
                    }
                }
                self.apply_sync_event(origin, &|field: &str| {
                    index.get(&format!("e{i}-{field}")).map(<[u8]>::to_vec)
                });
            }
        } else {
            self.apply_sync_event(origin, &|field: &str| {
                message.element(field).map(<[u8]>::to_vec)
            });
        }
        // A digest made entirely of already-seen broadcasts means this edge
        // duplicates the tree: demote it to lazy and tell the sender to
        // prune its side too.
        if epidemic && broadcasts > 0 && duplicates == broadcasts {
            self.plumtree.lock().demote(origin);
            let prune = Message::new(MessageKind::PlumtreePrune, self.id, 0);
            if self.send_sequenced(origin, prune, Duration::ZERO).is_some() {
                self.federation.count_prune_sent();
            }
        }
        // Applying events may have re-asserted live local sessions; ship the
        // resulting gossip (and any forwarded broadcasts) in one digest per
        // destination.
        self.flush_gossip();
    }

    /// Applies a single replicated write.  `raw` resolves the event's fields
    /// (either top-level elements or the `e{i}-` slice of a digest) as raw
    /// bytes; textual fields are decoded through the local `get` helper.
    fn apply_sync_event(&self, origin: PeerId, raw: &dyn Fn(&str) -> Option<Vec<u8>>) {
        let get = |field: &str| raw(field).map(|b| String::from_utf8_lossy(&b).into_owned());
        let Some(seq) = get("seq").and_then(|s| s.parse::<u64>().ok()) else {
            return;
        };
        match get("op").as_deref() {
            Some("publish") => {
                let (Some(group), Some(doc_type), Some(owner), Some(xml)) = (
                    get("group"),
                    get("doc-type"),
                    get("owner"),
                    get("xml"),
                ) else {
                    return;
                };
                let Some(owner) = PeerId::from_urn(&owner) else {
                    return;
                };
                // Migrated entries keep their original version: the version
                // origin travels with the event and may differ from the
                // broker that re-routed it here.
                let version_origin = get("vorigin")
                    .and_then(|urn| PeerId::from_urn(&urn))
                    .unwrap_or(origin);
                let group = GroupId::new(group);
                // A broker outside the replica set can still receive the
                // publish: group-aware routing addresses member-hosting
                // brokers so they push to their local members.  They apply
                // without storing — `sharded_converged` checks the entry
                // lives on exactly its ring replicas.
                let store = self.is_local_replica(&group, &owner);
                self.apply_publish(owner, &group, &doc_type, &xml, (seq, version_origin), store);
                self.federation.count_sync_applied();
            }
            Some("join") => {
                let Some(peer) = get("peer").and_then(|urn| PeerId::from_urn(&urn)) else {
                    return;
                };
                // The joining peer's home is the broker that versioned the
                // event.  Under the epidemic fabric the transport sender may
                // be a forwarder, so the event carries the home explicitly;
                // the direct-delivery layouts fall back to the sender.
                let home = get("vorigin")
                    .and_then(|urn| PeerId::from_urn(&urn))
                    .unwrap_or(origin);
                if !self.try_version_presence(peer, (seq, PRESENCE_JOIN, home)) {
                    return; // a newer local or replicated write already won
                }
                if self.yield_to_remote_join(peer, home) {
                    return;
                }
                // The peer is homed at `home` now; any local session for it
                // was stale (the peer re-homed to another broker).
                self.groups.leave_all(&peer);
                self.forget_membership_stamps(&peer);
                self.clear_group_hosts(&peer);
                self.peer_homes.write().insert(peer, home);
                for group in get("groups")
                    .unwrap_or_default()
                    .split(',')
                    .filter(|s| !s.is_empty())
                {
                    let group = GroupId::new(group);
                    // Every broker records which broker hosts the member (the
                    // group-aware publish routing digest) …
                    self.set_group_hosts(&peer, std::slice::from_ref(&group), home);
                    // … but sharded membership entries live on their ring
                    // replicas only; the routing updates are applied by
                    // every broker either way.
                    if self.is_local_replica(&group, &peer) {
                        self.stamp_membership(&group, peer, (seq, PRESENCE_JOIN, home));
                        self.groups.join(group, peer);
                    }
                }
                self.federation.count_sync_applied();
            }
            Some("leave") => {
                let Some(peer) = get("peer").and_then(|urn| PeerId::from_urn(&urn)) else {
                    return;
                };
                let home = get("vorigin")
                    .and_then(|urn| PeerId::from_urn(&urn))
                    .unwrap_or(origin);
                if !self.try_version_presence(peer, (seq, PRESENCE_LEAVE, home)) {
                    return; // the peer meanwhile re-homed; this leave is stale
                }
                if self.absorb_remote_leave(peer) {
                    return;
                }
                self.groups.leave_all(&peer);
                self.forget_membership_stamps(&peer);
                self.clear_group_hosts(&peer);
                self.peer_homes.write().remove(&peer);
                self.federation.count_sync_applied();
            }
            Some("membership") => {
                // A migrated membership entry: (group, peer) re-routed onto
                // this broker after a ring change.  It carries the presence
                // version it was observed under; anything older than what we
                // already know is stale and dropped.
                let (Some(peer), Some(group), Some(rank), Some(vorigin)) = (
                    get("peer").and_then(|urn| PeerId::from_urn(&urn)),
                    get("group"),
                    get("vrank").and_then(|r| r.parse::<u8>().ok()),
                    get("vorigin").and_then(|urn| PeerId::from_urn(&urn)),
                ) else {
                    return;
                };
                let carried: PresenceVersion = (seq, rank, vorigin);
                {
                    let mut versions = self.peer_versions.write();
                    match versions.entry(peer) {
                        std::collections::hash_map::Entry::Occupied(mut stored) => {
                            if carried < *stored.get() {
                                return; // a newer join/leave superseded this
                            }
                            if carried > *stored.get() {
                                stored.insert(carried);
                            }
                        }
                        std::collections::hash_map::Entry::Vacant(slot) => {
                            slot.insert(carried);
                        }
                    }
                }
                if rank == PRESENCE_JOIN {
                    let group = GroupId::new(group);
                    if self.is_local_replica(&group, &peer) {
                        self.stamp_membership(&group, peer, carried);
                        self.groups.join(group, peer);
                    }
                }
                self.federation.count_sync_applied();
            }
            Some("ext") => {
                // An opaque extension-state blob (e.g. an admin-signed
                // revocation list) replicated over the backbone.  The
                // extension authenticates the content itself — the overlay
                // only provides transport and the usual gossip admission.
                let Some(blob) = raw("blob") else {
                    return;
                };
                let extension = self.extension.read().clone();
                if let Some(extension) = extension {
                    let repaired = extension.apply_repair_snapshot(self, &blob);
                    if repaired > 0 {
                        self.federation.count_entries_repaired(repaired);
                    }
                }
                self.federation.count_sync_applied();
            }
            // SWIM verdicts ride the same gossip fabric as data events but
            // mutate the failure detector, not the replicated state (so they
            // do not count as `sync_applied`).  `sinc` is the incarnation
            // the accusation or refutation is made at; the detector's
            // precedence rules decide whether it lands.
            Some("swim-suspect") => {
                let (Some(peer), Some(sinc)) = (
                    get("peer").and_then(|urn| PeerId::from_urn(&urn)),
                    get("sinc").and_then(|s| s.parse::<u64>().ok()),
                ) else {
                    return;
                };
                let outcome = self.swim.lock().on_suspect(peer, sinc);
                match outcome {
                    SuspectOutcome::RefuteWith(incarnation) => {
                        // Someone suspects *us*: broadcast an alive
                        // announcement at a higher incarnation, which orders
                        // above the accusation everywhere it reached.
                        self.federation.count_swim_refutation();
                        self.gossip_swim_alive(incarnation);
                    }
                    SuspectOutcome::Suspected => self.federation.count_swim_suspicion(),
                    SuspectOutcome::Ignored => {}
                }
            }
            Some("swim-alive") => {
                let (Some(peer), Some(sinc)) = (
                    get("peer").and_then(|urn| PeerId::from_urn(&urn)),
                    get("sinc").and_then(|s| s.parse::<u64>().ok()),
                ) else {
                    return;
                };
                if self.swim.lock().on_alive(peer, sinc) == AliveOutcome::Cleared {
                    self.swim_member_alive(peer);
                }
            }
            Some("swim-dead") => {
                let (Some(peer), Some(sinc)) = (
                    get("peer").and_then(|urn| PeerId::from_urn(&urn)),
                    get("sinc").and_then(|s| s.parse::<u64>().ok()),
                ) else {
                    return;
                };
                let outcome = self.swim.lock().on_dead(peer, sinc);
                match outcome {
                    DeadOutcome::Confirmed => self.on_swim_death(peer, sinc, false),
                    DeadOutcome::RefuteWith(incarnation) => {
                        self.federation.count_swim_refutation();
                        self.gossip_swim_alive(incarnation);
                    }
                    DeadOutcome::Ignored => {}
                }
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Epidemic backbone: membership shuffles and Plumtree tree repair
    // ------------------------------------------------------------------

    /// Decodes a comma-joined list of peer URNs.
    fn parse_peer_list(csv: &str) -> Vec<PeerId> {
        csv.split(',').filter_map(PeerId::from_urn).collect()
    }

    /// Handles a peer's `MembershipShuffle`: fold the offered sample into
    /// the passive reservoir (never widening the known set — admission
    /// stays anchored on `peer_brokers`) and answer with a sample of our
    /// own views, so both reservoirs refresh from one exchange.
    fn handle_membership_shuffle(&self, message: &Message) {
        // The shuffle doubles as a SWIM liveness signal: the sender
        // piggybacks its incarnation, and receiving the message at all is
        // first-hand proof of life.
        self.swim_contact(message);
        let incoming = Self::parse_peer_list(&message.element_str("peers").unwrap_or_default());
        let reply_sample = {
            let mut view = self.view.lock();
            let sample = view.shuffle_sample(incoming.len().max(4));
            view.integrate_shuffle(&incoming);
            sample
        };
        if reply_sample.is_empty() {
            return;
        }
        let urns: Vec<String> = reply_sample.iter().map(PeerId::to_urn).collect();
        let incarnation = self.swim.lock().incarnation();
        // Replied through the sequencing choke point, not `apply_net`'s
        // response path: inter-broker admission requires a fresh `seq`.
        let reply = Message::new(MessageKind::MembershipShuffleReply, self.id, 0)
            .with_str("peers", &urns.join(","))
            .with_str("inc", &incarnation.to_string());
        self.send_sequenced(message.sender, reply, Duration::ZERO);
    }

    /// Handles the answering half of a shuffle: integrate only.
    fn handle_membership_shuffle_reply(&self, message: &Message) {
        self.swim_contact(message);
        let incoming = Self::parse_peer_list(&message.element_str("peers").unwrap_or_default());
        self.view.lock().integrate_shuffle(&incoming);
    }

    /// Handles a lazy-edge `IHave` digest: any advertised gossip id this
    /// broker has not received means the eager tree failed to reach us
    /// first — promote the advertising edge and pull the payloads with a
    /// `Graft`.  Ids already seen need nothing: the tree worked.
    fn handle_plumtree_ihave(&self, message: &Message) {
        let Some(count) = message.entry_count("count") else {
            return;
        };
        let index = message.index();
        let mut missing: Vec<GossipId> = Vec::new();
        {
            let tree = self.plumtree.lock();
            for i in 0..count {
                let gid = index
                    .get_str(&format!("g{i}-origin"))
                    .and_then(|urn| PeerId::from_urn(&urn))
                    .zip(
                        index
                            .get_str(&format!("g{i}-seq"))
                            .and_then(|s| s.parse::<u64>().ok()),
                    );
                if let Some(gid) = gid {
                    if !tree.has_seen(&gid) {
                        missing.push(gid);
                    }
                }
            }
        }
        if missing.is_empty() {
            return;
        }
        self.plumtree.lock().promote(message.sender);
        let mut graft = Message::new(MessageKind::PlumtreeGraft, self.id, 0)
            .with_str("count", &missing.len().to_string());
        for (i, (origin, seq)) in missing.iter().enumerate() {
            graft.push_element(format!("g{i}-origin"), origin.to_urn().into_bytes());
            graft.push_element(format!("g{i}-seq"), seq.to_string().into_bytes());
        }
        if self
            .send_sequenced(message.sender, graft, Duration::ZERO)
            .is_some()
        {
            self.federation.count_graft_sent();
        }
    }

    /// Handles a `Graft`: the sender missed payloads we advertised — the
    /// edge towards it becomes eager again and every requested payload
    /// still in the cache is re-sent as ordinary gossip.  Evicted payloads
    /// are counted as graft misses; anti-entropy repairs those.
    fn handle_plumtree_graft(&self, message: &Message) {
        let Some(count) = message.entry_count("count") else {
            return;
        };
        self.plumtree.lock().promote(message.sender);
        let index = message.index();
        for i in 0..count {
            let gid = index
                .get_str(&format!("g{i}-origin"))
                .and_then(|urn| PeerId::from_urn(&urn))
                .zip(
                    index
                        .get_str(&format!("g{i}-seq"))
                        .and_then(|s| s.parse::<u64>().ok()),
                );
            let Some(gid) = gid else {
                continue;
            };
            let cached = self.plumtree.lock().cached(&gid);
            match cached {
                Some(fields) => {
                    self.gossip_to(&[message.sender], GossipEvent::from_owned(fields));
                }
                None => self.federation.count_graft_miss(),
            }
        }
        self.flush_gossip();
    }

    /// Handles a `Prune`: our pushes duplicate what the sender already has
    /// — demote the edge to lazy (digests only) until a graft re-earns it.
    fn handle_plumtree_prune(&self, message: &Message) {
        self.plumtree.lock().demote(message.sender);
    }

    // ------------------------------------------------------------------
    // SWIM failure detection
    // ------------------------------------------------------------------

    /// Feeds a received inter-broker message into the detector as
    /// first-hand contact: the sender is demonstrably alive at whatever
    /// incarnation it piggybacked (0 when the message carries none — still
    /// proof of life, just without refutation precedence).
    fn swim_contact(&self, message: &Message) {
        let incarnation = message
            .element_str("inc")
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0);
        let outcome = self.swim.lock().on_contact(message.sender, incarnation);
        if outcome == AliveOutcome::Cleared {
            self.swim_member_alive(message.sender);
        }
    }

    /// Handles a SWIM direct probe.  The ping itself is first-hand
    /// evidence the *sender* lives; the answer is an ack carrying our own
    /// incarnation, addressed to `reply-to` when present (the prober an
    /// indirect probe relays for) or to the sender (the direct case).
    fn handle_swim_ping(&self, message: &Message) {
        self.swim_contact(message);
        let reply_to = message
            .element_str("reply-to")
            .and_then(|urn| PeerId::from_urn(&urn))
            .unwrap_or(message.sender);
        if reply_to == self.id || !self.is_peer_broker(&reply_to) {
            return;
        }
        let incarnation = self.swim.lock().incarnation();
        let ack = Message::new(MessageKind::SwimAck, self.id, 0)
            .with_str("inc", &incarnation.to_string());
        if self.send_sequenced(reply_to, ack, Duration::ZERO).is_some() {
            self.federation.count_swim_ack();
        }
    }

    /// Handles an indirect ping request: a prober whose direct probe of
    /// `target` timed out asks us to try from our vantage point.  We relay
    /// a `SwimPing` whose `reply-to` names the original prober, so a live
    /// target acks the prober directly and one relay hop suffices.
    fn handle_swim_ping_req(&self, message: &Message) {
        self.swim_contact(message);
        let Some(target) = message
            .element_str("target")
            .and_then(|urn| PeerId::from_urn(&urn))
        else {
            return;
        };
        if target == self.id || !self.is_peer_broker(&target) {
            return;
        }
        let incarnation = self.swim.lock().incarnation();
        let ping = Message::new(MessageKind::SwimPing, self.id, 0)
            .with_str("inc", &incarnation.to_string())
            .with_str("reply-to", &message.sender.to_urn());
        if self.send_sequenced(target, ping, Duration::ZERO).is_some() {
            self.federation.count_swim_probe();
        }
    }

    /// Handles a probe ack: clears the outstanding probe (direct or
    /// relayed) for the acking broker and refreshes it as alive.
    fn handle_swim_ack(&self, message: &Message) {
        let incarnation = message
            .element_str("inc")
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0);
        let outcome = self.swim.lock().on_ack(message.sender, incarnation);
        if outcome == AliveOutcome::Cleared {
            self.swim_member_alive(message.sender);
        }
    }

    /// Re-admits a member the detector cleared — a refutation, an ack from
    /// a falsely-buried broker, or direct contact from a recovered one —
    /// into the membership view and the Plumtree edge sets.  The inverse of
    /// [`Broker::on_swim_death`]; admission state never changed, so this is
    /// all a resurrection takes.
    fn swim_member_alive(&self, peer: PeerId) {
        if !self.is_peer_broker(&peer) {
            return;
        }
        let active = {
            let mut view = self.view.lock();
            view.on_join(peer);
            view.active()
        };
        self.plumtree.lock().sync_active(&active);
    }

    /// Applies a confirmed death verdict: evict `peer` from the membership
    /// views (promotion from the passive reservoir heals the active set),
    /// drop it from the Plumtree edge sets and the pending gossip queues,
    /// and — when the verdict is this broker's own (`announce`) — gossip it
    /// so the rest of the federation converges without each broker paying
    /// its own suspicion timeout.  The admission set (`peer_brokers`), the
    /// shard ring and the replay floor are deliberately untouched:
    /// forgetting those is the operator-driven [`Broker::remove_peer_broker`]
    /// path, and keeping them lets a recovered broker re-enter by simply
    /// answering a probe again.
    fn on_swim_death(&self, peer: PeerId, incarnation: u64, announce: bool) {
        self.federation.count_swim_death();
        let active = {
            let mut view = self.view.lock();
            view.on_failure(&peer);
            view.active()
        };
        self.plumtree.lock().sync_active(&active);
        self.ihave_outbox.lock().remove(&peer);
        self.outbox.lock().remove(&peer);
        if announce {
            self.gossip_to_all(GossipEvent::new(vec![
                ("op", "swim-dead".to_string()),
                ("seq", self.next_sync_seq().to_string()),
                ("peer", peer.to_urn()),
                ("sinc", incarnation.to_string()),
            ]));
            self.flush_gossip();
        }
    }

    /// Broadcasts this broker's refutation: an alive announcement at the
    /// (freshly bumped) incarnation, which orders above every standing
    /// accusation made at a lower one.
    fn gossip_swim_alive(&self, incarnation: u64) {
        self.gossip_to_all(GossipEvent::new(vec![
            ("op", "swim-alive".to_string()),
            ("seq", self.next_sync_seq().to_string()),
            ("peer", self.id.to_urn()),
            ("sinc", incarnation.to_string()),
        ]));
        self.flush_gossip();
    }

    /// One SWIM protocol period, driven by the repair cadence: advance the
    /// detector's logical clock, apply the expirations that fall out
    /// (suspicions start, deadlines confirm deaths), then send the round's
    /// probes.  The local-health multiplier is refreshed first from this
    /// broker's own inbox backlog, so an overloaded broker stretches its
    /// timeouts instead of flooding the federation with false accusations
    /// it is merely too slow to see refuted.
    fn start_swim_probe(&self) {
        let peers = self.peer_brokers.read().clone();
        if peers.is_empty() {
            return;
        }
        let backlog = self
            .network
            .delivered_to(&self.id)
            .saturating_sub(self.processed_count());
        let plan = {
            let mut swim = self.swim.lock();
            swim.sync_members(&peers);
            swim.set_backlog(backlog, SWIM_BACKLOG_THRESHOLD);
            swim.tick()
        };
        for (peer, incarnation) in plan.new_dead {
            self.on_swim_death(peer, incarnation, true);
        }
        for (peer, incarnation) in plan.new_suspects {
            self.federation.count_swim_suspicion();
            self.gossip_to_all(GossipEvent::new(vec![
                ("op", "swim-suspect".to_string()),
                ("seq", self.next_sync_seq().to_string()),
                ("peer", peer.to_urn()),
                ("sinc", incarnation.to_string()),
            ]));
        }
        if let Some(target) = plan.probe {
            let incarnation = self.swim.lock().incarnation();
            let ping = Message::new(MessageKind::SwimPing, self.id, 0)
                .with_str("inc", &incarnation.to_string());
            if self.send_sequenced(target, ping, Duration::ZERO).is_some() {
                self.federation.count_swim_probe();
            }
        }
        for (relay, target) in plan.indirect {
            let request = Message::new(MessageKind::SwimPingReq, self.id, 0)
                .with_str("target", &target.to_urn());
            if self.send_sequenced(relay, request, Duration::ZERO).is_some() {
                self.federation.count_swim_indirect_probe();
            }
        }
        self.flush_gossip();
    }

    /// The SWIM detector's record for `peer` (state and incarnation), or
    /// `None` when the detector is not tracking it.
    pub fn swim_record(&self, peer: &PeerId) -> Option<crate::swim::PeerRecord> {
        self.swim.lock().record(peer)
    }

    /// The members the SWIM detector currently holds confirmed dead.
    pub fn swim_dead_members(&self) -> Vec<PeerId> {
        self.swim.lock().dead_members()
    }

    /// This broker's own SWIM incarnation (bumped by each refutation).
    pub fn swim_incarnation(&self) -> u64 {
        self.swim.lock().incarnation()
    }

    /// Replicates the extension's opaque repair state (e.g. its installed
    /// revocation lists) to every peer broker of the federation.  No-op when
    /// no extension is installed or the extension has nothing to share.
    ///
    /// The update is sent directly (as a single-event `BrokerSync`) rather
    /// than queued in the gossip outbox: the outbox is shared with the
    /// broker's event-loop thread, which could pick the event up and ship it
    /// *after* this call returns.  Sending on the caller's thread completes
    /// before returning, so the per-inbox FIFO guarantees every current peer
    /// applies the update before any request issued afterwards — the
    /// ordering `SecureNetwork::revoke` documents.
    pub fn gossip_extension_state(&self) {
        let Some(extension) = self.extension.read().clone() else {
            return;
        };
        let Some(blob) = extension.repair_snapshot() else {
            return;
        };
        // Epidemic federations send to the active view only; the x-section
        // anti-entropy exchange spreads the blob transitively from there.
        for peer in self.repair_targets() {
            let sync = Message::new(MessageKind::BrokerSync, self.id, 0)
                .with_str("op", "ext")
                .with_element("blob", blob.clone());
            if self.send_sequenced(peer, sync, Duration::ZERO).is_some() {
                self.federation.count_sync_sent();
            }
        }
    }

    /// Re-routes this broker's shard of the index and membership after a
    /// ring-membership change: every entry is re-gossiped to its (possibly
    /// new) replica set, and entries this broker no longer owns are dropped.
    /// The PR 2 last-writer-wins versioning makes entries location-
    /// independent, so migration is exactly a re-route plus re-gossip — the
    /// data model is untouched.  Returns the number of entries that left
    /// this broker.
    ///
    /// No-op in full-replication mode.
    pub fn reshard(&self) -> u64 {
        if !self.is_sharded() {
            return 0;
        }
        let mut migrated = 0u64;

        // Local sessions re-assert their join first: the peer→home routing
        // table is fully replicated, so a freshly admitted broker must learn
        // every existing route (and the membership entries it now owns ride
        // along in the join's group list).
        let sessions: Vec<(PeerId, BrokerSession)> = self
            .sessions
            .read()
            .iter()
            .map(|(peer, session)| (*peer, session.clone()))
            .collect();
        for (peer, session) in sessions {
            let seq = self.version_local_presence(peer, PRESENCE_JOIN);
            self.gossip_join(seq, peer, &session.groups);
        }

        // Advertisements: re-gossip each entry (with its original version)
        // to its replica set, then drop the ones that moved away.
        let entries: Vec<FlatEntry> = {
            let advertisements = self.advertisements.read();
            advertisements
                .iter()
                .flat_map(|(group, index)| {
                    index.iter().map(|((owner, doc_type), adv)| {
                        (group.clone(), *owner, doc_type.clone(), adv.xml.clone(), adv.version)
                    })
                })
                .collect()
        };
        for (group, owner, doc_type, xml, version) in entries {
            let replicas = self.shard_replicas(&group, &owner);
            let targets: Vec<PeerId> = replicas
                .iter()
                .filter(|replica| **replica != self.id)
                .copied()
                .collect();
            self.gossip_to(
                &targets,
                GossipEvent::new(vec![
                    ("op", "publish".to_string()),
                    ("seq", version.0.to_string()),
                    ("vorigin", version.1.to_urn()),
                    ("group", group.as_str().to_string()),
                    ("doc-type", doc_type.clone()),
                    ("owner", owner.to_urn()),
                    ("xml", xml),
                ]),
            );
            if !replicas.contains(&self.id) {
                let mut advertisements = self.advertisements.write();
                if let Some(index) = advertisements.get_mut(&group) {
                    index.remove(&(owner, doc_type));
                    if index.is_empty() {
                        advertisements.remove(&group);
                    }
                }
                migrated += 1;
            }
        }

        // Membership: same treatment per (group, peer) entry, except that a
        // locally homed session's membership is local ground truth and never
        // dropped (its home broker keeps it in addition to the replicas).
        for (group, members) in self.groups.snapshot() {
            for peer in members {
                let replicas = self.shard_replicas(&group, &peer);
                // Migrated entries carry their provenance stamp, so the
                // receiving replica's copy stays comparable against future
                // presence versions exactly as the original was.
                let version = self.membership_stamp(&group, &peer);
                let targets: Vec<PeerId> = replicas
                    .iter()
                    .filter(|replica| **replica != self.id)
                    .copied()
                    .collect();
                self.gossip_to(
                    &targets,
                    GossipEvent::new(vec![
                        ("op", "membership".to_string()),
                        ("seq", version.0.to_string()),
                        ("vrank", PRESENCE_JOIN.to_string()),
                        ("vorigin", version.2.to_urn()),
                        ("peer", peer.to_urn()),
                        ("group", group.as_str().to_string()),
                    ]),
                );
                let homed_here = self.sessions.read().contains_key(&peer);
                if !replicas.contains(&self.id) && !homed_here {
                    self.groups.leave(&group, &peer);
                    self.membership_versions
                        .write()
                        .remove(&(group.clone(), peer));
                    migrated += 1;
                }
            }
        }

        self.federation.count_entries_migrated(migrated);
        // The whole migration ships as one digest per destination — the
        // coalescing is what keeps re-sharding O(brokers) messages instead
        // of O(entries).
        self.flush_gossip();
        migrated
    }

    /// Re-announces a live local session whose presence register was just
    /// overwritten by stale remote gossip: this broker *is* the peer's home
    /// (the connection is local ground truth), so it restores the peer's
    /// membership, re-versions the join above the remote write and gossips
    /// it back out (the caller flushes).
    fn reassert_session(&self, peer: PeerId, session: &BrokerSession) {
        self.peer_homes.write().remove(&peer);
        let seq = self.version_local_presence(peer, PRESENCE_JOIN);
        for group in &session.groups {
            self.stamp_membership(group, peer, (seq, PRESENCE_JOIN, self.id));
            self.groups.join(group.clone(), peer);
        }
        self.set_group_hosts(&peer, &session.groups, self.id);
        self.gossip_join(seq, peer, &session.groups);
    }

    /// Queues a join event for `peer` under `seq` towards every peer broker:
    /// the peer→home routing update is fully replicated in both modes
    /// (receivers apply the membership part only for entries they own).
    fn gossip_join(&self, seq: u64, peer: PeerId, groups: &[GroupId]) {
        let joined = groups
            .iter()
            .map(|g| g.as_str().to_string())
            .collect::<Vec<_>>()
            .join(",");
        self.gossip_to_all(GossipEvent::new(vec![
            ("op", "join".to_string()),
            ("seq", seq.to_string()),
            ("peer", peer.to_urn()),
            ("groups", joined),
        ]));
    }

    // ------------------------------------------------------------------
    // Anti-entropy repair
    // ------------------------------------------------------------------
    //
    // Gossip is fire-and-forget, so a digest lost on a backbone edge (an
    // adversarial drop — the in-process channels themselves are reliable)
    // diverges the replicas permanently.  The anti-entropy protocol bounds
    // that divergence: each broker periodically sends every peer a digest of
    // the state the two are *jointly* responsible for (per-section hashes
    // over the shared shard of the advertisement index, the shared group
    // membership, the fully replicated presence/routing register, and the
    // extension's replicated state).  A receiver whose own hashes disagree
    // answers with a snapshot of the mismatched sections and asks for the
    // sender's in return; snapshots merge under the same last-writer-wins
    // versions as gossip, so repair can never regress a newer write.

    /// Extends an FNV-1a state with a length-prefixed chunk (the prefix
    /// keeps adjacent variable-length fields from aliasing).
    fn hash_chunk(state: u64, bytes: &[u8]) -> u64 {
        crate::shard::fnv1a(
            crate::shard::fnv1a(state, &(bytes.len() as u64).to_be_bytes()),
            bytes,
        )
    }

    /// `true` when both this broker and `peer` are ring replicas of
    /// `(group, owner)` — the shared-responsibility test that keeps the two
    /// sides of an anti-entropy exchange hashing the same entry set.
    /// Always `true` in full-replication mode.
    fn is_shared_replica(&self, group: &GroupId, owner: &PeerId, peer: &PeerId) -> bool {
        if !self.is_sharded() {
            return true;
        }
        let ring = self.ring.read();
        ring.is_replica(group, owner, &self.id) && ring.is_replica(group, owner, peer)
    }

    /// Sorted advertisement entries shared between this broker and `peer`.
    fn repair_adv_entries(&self, peer: &PeerId) -> Vec<FlatEntry> {
        let advertisements = self.advertisements.read();
        let mut out: Vec<FlatEntry> = advertisements
            .iter()
            .flat_map(|(group, index)| {
                index.iter().map(|((owner, doc_type), adv)| {
                    (group.clone(), *owner, doc_type.clone(), adv.xml.clone(), adv.version)
                })
            })
            .filter(|(group, owner, ..)| self.is_shared_replica(group, owner, peer))
            .collect();
        out.sort();
        out
    }

    /// `true` when both this broker and `peer` are responsible for the
    /// membership entry `(group, member)`: a ring replica of it, or the
    /// member's home broker (which keeps its local sessions' memberships as
    /// ground truth, and is the only broker that can heal replicas when the
    /// join gossip was lost to all of them).  Both sides evaluate the home
    /// from the fully replicated routing table, so the sets agree whenever
    /// routing does — and routing itself is healed by the presence section.
    fn is_membership_shared(&self, group: &GroupId, member: &PeerId, peer: &PeerId) -> bool {
        if !self.is_sharded() {
            return true;
        }
        let home = self.home_of(member);
        let ring = self.ring.read();
        let responsible = |broker: &PeerId| {
            ring.is_replica(group, member, broker) || home == Some(*broker)
        };
        responsible(&self.id) && responsible(peer)
    }

    /// Sorted membership entries shared with `peer` (see
    /// [`Broker::is_membership_shared`]).
    fn repair_membership_entries(&self, peer: &PeerId) -> Vec<(GroupId, PeerId)> {
        let mut out = Vec::new();
        for (group, members) in self.groups.snapshot() {
            for member in members {
                if self.is_membership_shared(&group, &member, peer) {
                    out.push((group.clone(), member));
                }
            }
        }
        out.sort();
        out
    }

    /// Sorted presence register: every peer's last-writer-wins
    /// `(seq, rank, origin)` version plus its current home broker.  Fully
    /// replicated, like the routing table it versions, so the whole register
    /// is exchanged with every peer.
    fn repair_presence_entries(&self) -> Vec<(PeerId, PresenceVersion, Option<PeerId>)> {
        let versions = self.peer_versions.read();
        let sessions = self.sessions.read();
        let homes = self.peer_homes.read();
        let mut out: Vec<(PeerId, PresenceVersion, Option<PeerId>)> = versions
            .iter()
            .map(|(peer, version)| {
                let home = if sessions.contains_key(peer) {
                    Some(self.id)
                } else {
                    homes.get(peer).copied()
                };
                (*peer, *version, home)
            })
            .collect();
        out.sort();
        out
    }

    /// The per-section anti-entropy hashes of the state shared with `peer`:
    /// `(advertisements, membership, presence, extension)`.
    fn repair_hashes(&self, peer: &PeerId) -> (u64, u64, u64, u64) {
        let (a, m) = self.repair_shared_hashes(peer);
        (a, m, self.repair_presence_hash(), self.repair_extension_hash())
    }

    /// The hashes of the two ring-filtered sections (advertisements and
    /// membership) shared with `peer`: the root digests of the cached repair
    /// trees, so both the flat and the tree strategy compare the identical
    /// quantity and a healthy round costs no re-hashing at all.
    fn repair_shared_hashes(&self, peer: &PeerId) -> (u64, u64) {
        (
            self.repair_section_tree('a', peer).root().digest(),
            self.repair_section_tree('m', peer).root().digest(),
        )
    }

    /// The hash of one advertisement entry as folded into the repair tree.
    /// Order-independent aggregation (XOR up the tree) needs each entry
    /// mixed on its own; the length-prefixed chunks keep adjacent
    /// variable-length fields from aliasing.
    fn adv_entry_hash(
        group: &GroupId,
        owner: &PeerId,
        doc_type: &str,
        xml: &str,
        version: (u64, PeerId),
    ) -> u64 {
        let mut h = crate::shard::FNV_OFFSET;
        h = Self::hash_chunk(h, group.as_str().as_bytes());
        h = Self::hash_chunk(h, owner.as_bytes());
        h = Self::hash_chunk(h, doc_type.as_bytes());
        h = Self::hash_chunk(h, xml.as_bytes());
        h = Self::hash_chunk(h, &version.0.to_be_bytes());
        h = Self::hash_chunk(h, version.1.as_bytes());
        crate::shard::mix(h)
    }

    /// The hash of one membership entry.  Provenance stamps are deliberately
    /// excluded, exactly as the flat section hash excluded them: two
    /// replicas holding the same `(group, member)` set agree.
    fn membership_entry_hash(group: &GroupId, member: &PeerId) -> u64 {
        let mut h = crate::shard::FNV_OFFSET;
        h = Self::hash_chunk(h, group.as_str().as_bytes());
        h = Self::hash_chunk(h, member.as_bytes());
        crate::shard::mix(h)
    }

    /// The cached repair tree of one shard-keyed section (`'a'` or `'m'`)
    /// towards `peer`, rebuilt when the state epoch moved.  In full
    /// replication the shared-entry filter passes everything, so a single
    /// tree — cached under this broker's own id — serves every edge; sharded
    /// mode keys the cache by peer because each edge shares a different
    /// slice of the ring.
    fn repair_section_tree(&self, section: char, peer: &PeerId) -> Arc<SectionTree> {
        let cache_key = if self.is_sharded() { *peer } else { self.id };
        // The epoch is read *before* the state: a write racing with the
        // build bumps past this value, so the next round rebuilds.
        let epoch = self.repair_epoch.load(Ordering::Acquire);
        let mut cache = self.repair_trees.lock();
        if cache.epoch != epoch {
            cache.adv.clear();
            cache.membership.clear();
            cache.epoch = epoch;
        }
        let slot = match section {
            'a' => &mut cache.adv,
            _ => &mut cache.membership,
        };
        if let Some(tree) = slot.get(&cache_key) {
            return Arc::clone(tree);
        }
        let tree = Arc::new(self.build_section_tree(section, &cache_key));
        slot.insert(cache_key, Arc::clone(&tree));
        tree
    }

    /// Builds the repair tree of one section from scratch (cache miss path).
    fn build_section_tree(&self, section: char, peer: &PeerId) -> SectionTree {
        let mut tree = SectionTree::default();
        if section == 'a' {
            let advertisements = self.advertisements.read();
            for (group, index) in advertisements.iter() {
                for ((owner, doc_type), adv) in index.iter() {
                    if !self.is_shared_replica(group, owner, peer) {
                        continue;
                    }
                    tree.insert(
                        crate::shard::shard_key(group, owner),
                        Self::adv_entry_hash(group, owner, doc_type, &adv.xml, adv.version),
                    );
                }
            }
        } else {
            for (group, member) in self.repair_membership_entries(peer) {
                tree.insert(
                    crate::shard::shard_key(&group, &member),
                    Self::membership_entry_hash(&group, &member),
                );
            }
        }
        tree
    }

    /// The hash of the presence/routing register (fully replicated, so
    /// identical towards every peer).
    fn repair_presence_hash(&self) -> u64 {
        use crate::shard::{mix, FNV_OFFSET};
        let mut p = FNV_OFFSET;
        for (peer_id, version, home) in self.repair_presence_entries() {
            p = Self::hash_chunk(p, peer_id.as_bytes());
            p = Self::hash_chunk(p, &version.0.to_be_bytes());
            p = Self::hash_chunk(p, &[version.1]);
            p = Self::hash_chunk(p, version.2.as_bytes());
            p = match home {
                Some(home) => Self::hash_chunk(p, home.as_bytes()),
                None => Self::hash_chunk(p, &[]),
            };
        }
        mix(p)
    }

    /// The hash of the extension's replicated state (peer-independent; zero
    /// when no extension is installed or it replicates nothing).
    fn repair_extension_hash(&self) -> u64 {
        use crate::shard::{mix, FNV_OFFSET};
        match self.extension.read().clone().and_then(|e| e.repair_digest()) {
            Some(bytes) => mix(Self::hash_chunk(FNV_OFFSET, &bytes)),
            None => 0,
        }
    }

    /// Starts one anti-entropy round: sends every peer broker a digest of
    /// the jointly held state.  Peers whose replicas disagree answer with a
    /// snapshot exchange; a healthy backbone answers nothing, so the idle
    /// cost of a round is one small digest per edge.
    pub fn start_repair_round(&self) {
        // Epidemic federations repair over the active-view edges only:
        // state flows transitively edge by edge (the view graph is
        // connected — the pinned ring successors alone form a cycle), so
        // the idle cost of a round is O(view) digests instead of O(N).
        let peers = self.repair_targets();
        if peers.is_empty() {
            return;
        }
        self.federation.count_repair_round();
        // The presence and extension sections are identical towards every
        // peer; the shard-keyed sections come from the cached repair trees
        // (one shared tree in full replication, one per edge sharded), so a
        // round over an unchanged state hashes nothing and costs one small
        // digest per edge.
        let p = self.repair_presence_hash();
        let x = self.repair_extension_hash();
        for peer in peers {
            let (a, m) = self.repair_shared_hashes(&peer);
            let digest = Message::new(MessageKind::AntiEntropyDigest, self.id, 0)
                .with_str("a-hash", &a.to_string())
                .with_str("m-hash", &m.to_string())
                .with_str("p-hash", &p.to_string())
                .with_str("x-hash", &x.to_string());
            self.send_repair(peer, digest);
        }
        // The repair cadence doubles as the membership layer's shuffle
        // clock: one shuffle per round refreshes the passive reservoir so
        // failure-triggered promotions have fresh candidates.
        self.start_shuffle();
        // Lazy IHave digests batched across every publish since the last
        // round ship now, one digest per lazy edge (see
        // [`Broker::flush_ihaves`]).
        self.flush_ihaves();
        // And the same cadence is the SWIM protocol period: one direct
        // probe per round, suspicion/death expirations, verdict gossip.
        self.start_swim_probe();
    }

    /// Sends one `MembershipShuffle` to a deterministically rotating active
    /// peer: a sample of this broker's views for the target to fold into
    /// its passive reservoir, answered with a sample of the target's own
    /// ([`MessageKind::MembershipShuffleReply`]).  No-op below the epidemic
    /// engagement threshold — complete views have nothing to refresh.
    fn start_shuffle(&self) {
        if !self.epidemic_engaged() {
            return;
        }
        let (target, sample) = {
            let mut view = self.view.lock();
            (view.shuffle_target(), view.shuffle_sample(4))
        };
        let Some(target) = target else {
            return;
        };
        if sample.is_empty() {
            return;
        }
        let urns: Vec<String> = sample.iter().map(PeerId::to_urn).collect();
        let incarnation = self.swim.lock().incarnation();
        let shuffle = Message::new(MessageKind::MembershipShuffle, self.id, 0)
            .with_str("peers", &urns.join(","))
            .with_str("inc", &incarnation.to_string());
        self.send_sequenced(target, shuffle, Duration::ZERO);
    }

    /// Sends one repair-protocol message, attributing its wire bytes (and,
    /// for descent legs, the leg count) to the federation metrics — the
    /// global network counters cannot separate repair from gossip.
    fn send_repair(&self, to: PeerId, message: Message) -> bool {
        let is_descent = message.kind == MessageKind::AntiEntropyRange;
        match self.send_sequenced(to, message, Duration::ZERO) {
            Some(size) => {
                self.federation.count_repair_bytes(size as u64);
                if is_descent {
                    self.federation.count_descent_round();
                }
                true
            }
            None => false,
        }
    }

    /// Membership repair needs the sender's presence versions to decide
    /// deletions, so an `m` section always travels with `p`.
    fn normalize_sections(sections: &str) -> String {
        if sections.contains('m') && !sections.contains('p') {
            format!("{sections}p")
        } else {
            sections.to_string()
        }
    }

    /// Handles a peer's anti-entropy digest: compare section hashes and, on
    /// any mismatch, start repairing.  The small fully replicated sections
    /// (presence, extension) answer with a full snapshot, asking for the
    /// peer's in return — one exchange heals both replicas.  The shard-keyed
    /// sections (advertisements, membership) are O(shard): with
    /// [`BrokerConfig::repair_tree`] set a mismatch starts a hash-tree
    /// descent instead, narrowing to the divergent key ranges before any
    /// entry is shipped; without it they join the full snapshot (the PR 4
    /// baseline).
    fn handle_anti_entropy_digest(&self, message: &Message) {
        let origin = message.sender;
        let (a, m, p, x) = self.repair_hashes(&origin);
        let theirs = |name: &str| message.element_str(name).and_then(|h| h.parse::<u64>().ok());
        let mut flat = String::new();
        let mut descend = String::new();
        if theirs("a-hash") != Some(a) {
            if self.config.repair_tree { descend.push('a') } else { flat.push('a') }
        }
        if theirs("m-hash") != Some(m) {
            if self.config.repair_tree { descend.push('m') } else { flat.push('m') }
        }
        if theirs("p-hash") != Some(p) {
            flat.push('p');
        }
        if theirs("x-hash") != Some(x) {
            flat.push('x');
        }
        if flat.is_empty() && descend.is_empty() {
            return; // the replicas agree
        }
        self.federation.count_repair_mismatch();
        if !flat.is_empty() {
            let sections = Self::normalize_sections(&flat);
            let snapshot = self.build_repair_snapshot(&origin, &sections, &sections);
            self.send_repair(origin, snapshot);
        }
        // Repair rounds are started federation-wide, so in a full mesh each
        // broker pair exchanges digests in both directions every round.  One
        // descent already heals both replicas (the final page legs ship
        // entries both ways), so only the lower-id broker initiates — without
        // the tie-break every divergence would be walked twice in mirror.
        // Epidemic federations digest over the *asymmetric* active view: when
        // `origin` is not among this broker's own repair targets the mirror
        // digest never arrives, and waiting for it would wedge the repair —
        // so a one-directional edge descends regardless of the tie-break.
        let mirrored = self.repair_targets().contains(&origin);
        if self.id < origin || !mirrored {
            for section in descend.chars() {
                // First descent leg: our children of the root.
                self.send_range_children(origin, section, 0, 0);
            }
        }
    }

    /// Sends one descent leg: this broker's child summaries of the repair-
    /// tree node `(depth, prefix)` of `section`, for the peer to compare
    /// against its own tree in [`Broker::handle_anti_entropy_range`].  All
    /// [`shard::REPAIR_TREE_ARITY`] children travel, empty ones included —
    /// the peer needs the zero summaries to notice entries only it holds.
    fn send_range_children(&self, peer: PeerId, section: char, depth: u32, prefix: u64) {
        let tree = self.repair_section_tree(section, &peer);
        let mut nodes =
            Vec::with_capacity(crate::shard::REPAIR_TREE_ARITY * crate::shard::NODE_RECORD_BYTES);
        for (child, summary) in tree.children(depth, prefix).into_iter().enumerate() {
            shard::encode_node(&mut nodes, depth + 1, (prefix << 4) | child as u64, summary);
        }
        let message = Message::new(MessageKind::AntiEntropyRange, self.id, 0)
            .with_str("section", &section.to_string())
            .with_element("nodes", nodes);
        self.send_repair(peer, message);
    }

    /// Handles one descent leg of a hash-tree repair: compares the peer's
    /// node summaries against the local tree.  Agreeing nodes are dropped; a
    /// divergent node either descends one more level (its children go into
    /// the reply leg) or — at the leaf level, once both sides' counts fit a
    /// page, or past the per-message node budget — has its key range shipped
    /// as range-scoped snapshot pages.  The exchange is stateless and the
    /// depth strictly increases leg over leg, so a descent terminates within
    /// [`shard::REPAIR_TREE_DEPTH`] range legs however the trees differ.
    fn handle_anti_entropy_range(&self, message: &Message) {
        let origin = message.sender;
        let Some(section) = message.element_str("section").and_then(|s| s.chars().next()) else {
            return;
        };
        if section != 'a' && section != 'm' {
            return;
        }
        let Some(blob) = message.element("nodes") else {
            return;
        };
        let tree = self.repair_section_tree(section, &origin);
        let mut reply = Vec::new();
        let mut reply_nodes = 0usize;
        let mut pages: Vec<(u64, u64)> = Vec::new();
        for (depth, prefix, theirs) in shard::decode_nodes(blob) {
            if depth == 0
                || depth > shard::REPAIR_TREE_DEPTH
                || prefix >= 1u64 << (4 * depth).min(63)
            {
                continue; // malformed node address
            }
            let ours = tree.node(depth, prefix);
            if ours == theirs {
                continue;
            }
            let descend = depth < shard::REPAIR_TREE_DEPTH
                && ours.count.max(theirs.count) > REPAIR_PAGE_ENTRIES
                && reply_nodes + shard::REPAIR_TREE_ARITY <= REPAIR_MAX_RANGE_NODES;
            if descend {
                for (child, summary) in tree.children(depth, prefix).into_iter().enumerate() {
                    shard::encode_node(&mut reply, depth + 1, (prefix << 4) | child as u64, summary);
                }
                reply_nodes += shard::REPAIR_TREE_ARITY;
            } else {
                // Small enough to ship (or the node budget is spent —
                // massive divergence degrades to shipping coarser ranges,
                // never to an unbounded message).
                pages.push(shard::node_range(depth, prefix));
            }
        }
        if !reply.is_empty() {
            let next = Message::new(MessageKind::AntiEntropyRange, self.id, 0)
                .with_str("section", &section.to_string())
                .with_element("nodes", reply);
            self.send_repair(origin, next);
        }
        for (lo, hi) in pages {
            self.send_range_pages(origin, section, lo, hi, true);
        }
    }

    /// Builds an `AntiEntropySnapshot` of the given sections for `peer`.
    /// `want` names the sections the receiver should send back (empty on
    /// the final leg of an exchange, which is what terminates it).
    fn build_repair_snapshot(&self, peer: &PeerId, sections: &str, want: &str) -> Message {
        let mut snapshot =
            Message::new(MessageKind::AntiEntropySnapshot, self.id, 0).with_str("want", want);
        if sections.contains('a') {
            Self::push_adv_section(&mut snapshot, self.repair_adv_entries(peer));
        }
        if sections.contains('m') {
            self.push_membership_section(&mut snapshot, self.repair_membership_entries(peer));
        }
        if sections.contains('p') {
            self.push_presence_section(&mut snapshot);
        }
        if sections.contains('x') {
            if let Some(blob) = self.extension.read().clone().and_then(|e| e.repair_snapshot()) {
                snapshot.push_element("ext", blob);
            }
        }
        snapshot
    }

    /// Appends advertisement entries as an `a` section (`a-count` + `a{i}-*`).
    fn push_adv_section(snapshot: &mut Message, entries: Vec<FlatEntry>) {
        snapshot.push_element("a-count", entries.len().to_string().into_bytes());
        for (i, (group, owner, doc_type, xml, version)) in entries.into_iter().enumerate() {
            snapshot.push_element(format!("a{i}-group"), group.as_str().as_bytes().to_vec());
            snapshot.push_element(format!("a{i}-owner"), owner.to_urn().into_bytes());
            snapshot.push_element(format!("a{i}-type"), doc_type.into_bytes());
            snapshot.push_element(format!("a{i}-xml"), xml.into_bytes());
            snapshot.push_element(format!("a{i}-vseq"), version.0.to_string().into_bytes());
            snapshot.push_element(format!("a{i}-vorigin"), version.1.to_urn().into_bytes());
        }
    }

    /// Appends membership entries (with their provenance stamps) as an `m`
    /// section (`m-count` + `m{i}-*`).
    fn push_membership_section(&self, snapshot: &mut Message, entries: Vec<(GroupId, PeerId)>) {
        snapshot.push_element("m-count", entries.len().to_string().into_bytes());
        for (i, (group, member)) in entries.into_iter().enumerate() {
            let version = self.membership_stamp(&group, &member);
            snapshot.push_element(format!("m{i}-group"), group.as_str().as_bytes().to_vec());
            snapshot.push_element(format!("m{i}-peer"), member.to_urn().into_bytes());
            snapshot.push_element(format!("m{i}-vseq"), version.0.to_string().into_bytes());
            snapshot.push_element(format!("m{i}-vrank"), version.1.to_string().into_bytes());
            snapshot.push_element(format!("m{i}-vorigin"), version.2.to_urn().into_bytes());
        }
    }

    /// Appends the full presence/routing register as a `p` section.
    fn push_presence_section(&self, snapshot: &mut Message) {
        let entries = self.repair_presence_entries();
        snapshot.push_element("p-count", entries.len().to_string().into_bytes());
        for (i, (peer_id, version, home)) in entries.into_iter().enumerate() {
            snapshot.push_element(format!("p{i}-peer"), peer_id.to_urn().into_bytes());
            snapshot.push_element(format!("p{i}-vseq"), version.0.to_string().into_bytes());
            snapshot.push_element(format!("p{i}-vrank"), version.1.to_string().into_bytes());
            snapshot.push_element(format!("p{i}-vorigin"), version.2.to_urn().into_bytes());
            if let Some(home) = home {
                snapshot.push_element(format!("p{i}-home"), home.to_urn().into_bytes());
            }
        }
    }

    /// Advertisement entries shared with `peer` whose shard key falls in
    /// `[lo, hi]`, sorted by key.
    fn repair_adv_entries_in(&self, peer: &PeerId, lo: u64, hi: u64) -> Vec<(u64, FlatEntry)> {
        let advertisements = self.advertisements.read();
        let mut out: Vec<(u64, FlatEntry)> = Vec::new();
        for (group, index) in advertisements.iter() {
            for ((owner, doc_type), adv) in index.iter() {
                let key = crate::shard::shard_key(group, owner);
                if key < lo || key > hi || !self.is_shared_replica(group, owner, peer) {
                    continue;
                }
                out.push((
                    key,
                    (group.clone(), *owner, doc_type.clone(), adv.xml.clone(), adv.version),
                ));
            }
        }
        out.sort();
        out
    }

    /// Membership entries shared with `peer` whose shard key falls in
    /// `[lo, hi]`, sorted by key.
    fn repair_membership_entries_in(
        &self,
        peer: &PeerId,
        lo: u64,
        hi: u64,
    ) -> Vec<(u64, (GroupId, PeerId))> {
        let mut out = Vec::new();
        for (group, members) in self.groups.snapshot() {
            for member in members {
                let key = crate::shard::shard_key(&group, &member);
                if key < lo || key > hi || !self.is_membership_shared(&group, &member, peer) {
                    continue;
                }
                out.push((key, (group.clone(), member)));
            }
        }
        out.sort();
        out
    }

    /// Ships the shared entries of the divergent key range `[lo, hi]` of
    /// `section` to `peer` as bounded snapshot pages.  `want` asks the peer
    /// to send its own entries of each page's sub-range back (the final legs
    /// of a descent); the peer's replies travel with `want` unset, which
    /// terminates the exchange.
    fn send_range_pages(&self, peer: PeerId, section: char, lo: u64, hi: u64, want: bool) {
        match section {
            'a' => {
                let entries = self.repair_adv_entries_in(&peer, lo, hi);
                self.send_pages(peer, section, (lo, hi), want, entries, |_, snapshot, page| {
                    Self::push_adv_section(snapshot, page.to_vec());
                });
            }
            _ => {
                let entries = self.repair_membership_entries_in(&peer, lo, hi);
                self.send_pages(peer, section, (lo, hi), want, entries, |broker, snapshot, page| {
                    broker.push_membership_section(snapshot, page.to_vec());
                    // Membership deletions compare against the *sender's*
                    // presence versions, so every m page travels with the
                    // full p section, exactly like a flat m snapshot does.
                    broker.push_presence_section(snapshot);
                });
            }
        }
    }

    /// Splits `entries` (sorted by shard key) into pages of at most
    /// [`REPAIR_PAGE_MAX`] entries — never splitting one shard key across
    /// pages — and sends one range-scoped snapshot per page.  The page
    /// sub-ranges partition `[lo, hi]` exactly, so a `want` request pulls
    /// every peer-side entry of the divergent range exactly once; an entry-
    /// less range still sends one empty page, because the peer may hold
    /// entries this broker lacks, and for the membership section the empty
    /// page is also what authorises deletions in the range.
    fn send_pages<T: Clone>(
        &self,
        peer: PeerId,
        section: char,
        (lo, hi): (u64, u64),
        want: bool,
        entries: Vec<(u64, T)>,
        fill: impl Fn(&Broker, &mut Message, &[T]),
    ) {
        let mut bounds: Vec<(u64, u64, std::ops::Range<usize>)> = Vec::new();
        if entries.is_empty() {
            bounds.push((lo, hi, 0..0));
        } else {
            let mut page_lo = lo;
            let mut start = 0usize;
            while start < entries.len() {
                let mut end = (start + REPAIR_PAGE_MAX).min(entries.len());
                while end < entries.len() && entries[end].0 == entries[end - 1].0 {
                    end += 1;
                }
                let page_hi = if end == entries.len() { hi } else { entries[end - 1].0 };
                bounds.push((page_lo, page_hi, start..end));
                page_lo = page_hi.wrapping_add(1);
                start = end;
            }
        }
        for (page_lo, page_hi, span) in bounds {
            let page: Vec<T> = entries[span].iter().map(|(_, entry)| entry.clone()).collect();
            let mut snapshot = Message::new(MessageKind::AntiEntropySnapshot, self.id, 0)
                .with_str("want", "")
                .with_str("rsec", &section.to_string())
                .with_str("range-lo", &page_lo.to_string())
                .with_str("range-hi", &page_hi.to_string());
            if want {
                snapshot.push_element("want-range", b"1".to_vec());
            }
            fill(self, &mut snapshot, &page);
            self.federation.count_repair_page();
            self.send_repair(peer, snapshot);
        }
    }

    /// Handles a peer's anti-entropy snapshot: merge every section under the
    /// last-writer-wins rules and, if the peer asked (`want`), send the
    /// local snapshot of the same sections back so both replicas converge.
    fn handle_anti_entropy_snapshot(&self, message: &Message) {
        let origin = message.sender;
        let repaired = self.merge_repair_snapshot(origin, message);
        if repaired > 0 {
            self.federation.count_entries_repaired(repaired);
        }
        let want = message.element_str("want").unwrap_or_default();
        if !want.is_empty() {
            let sections = Self::normalize_sections(&want);
            let reply = self.build_repair_snapshot(&origin, &sections, "");
            self.send_repair(origin, reply);
        }
        // A range page asking for our side of its sub-range: reply with our
        // entries (want-range unset), which ends the descent for that range.
        if message.element("want-range").is_some() {
            if let (Some(section), Some(lo), Some(hi)) = (
                message.element_str("rsec").and_then(|s| s.chars().next()),
                message.element_str("range-lo").and_then(|s| s.parse::<u64>().ok()),
                message.element_str("range-hi").and_then(|s| s.parse::<u64>().ok()),
            ) {
                if section == 'a' || section == 'm' {
                    self.send_range_pages(origin, section, lo, hi, false);
                }
            }
        }
        // Merging may have re-asserted live local sessions; ship the gossip.
        self.flush_gossip();
    }

    /// Merges one snapshot into local state.  Returns the number of entries
    /// actually brought up to date (stale snapshot content merges to zero —
    /// the no-regression property the repair proptests assert).
    fn merge_repair_snapshot(&self, origin: PeerId, message: &Message) -> u64 {
        let mut repaired = 0u64;
        // Index the elements once: with up to six `a{i}-*` lookups per entry,
        // the linear `Message::element` scan made merging an n-entry snapshot
        // O(n²) element visits.
        let index = message.index();
        let text = |name: &str| index.get_str(name);
        // Range-scoped pages (the final legs of a tree descent) only speak
        // for `[lo, hi]` of the shard-key space: an entry the page lacks is
        // evidence of deletion only if its key is inside the page's range.
        let range = (
            text("range-lo").and_then(|s| s.parse::<u64>().ok()),
            text("range-hi").and_then(|s| s.parse::<u64>().ok()),
        );
        let in_range = |key: u64| match range {
            (Some(lo), Some(hi)) => key >= lo && key <= hi,
            _ => true,
        };

        // The presence section is parsed up front: the membership deletion
        // rule below compares against the *sender's* versions.
        let presence: Option<Vec<(PeerId, PresenceVersion, Option<PeerId>)>> =
            message.entry_count("p-count").map(|n| {
                (0..n)
                    .filter_map(|i| {
                        let peer =
                            text(&format!("p{i}-peer")).and_then(|u| PeerId::from_urn(&u))?;
                        let seq =
                            text(&format!("p{i}-vseq")).and_then(|s| s.parse::<u64>().ok())?;
                        let rank =
                            text(&format!("p{i}-vrank")).and_then(|r| r.parse::<u8>().ok())?;
                        let vorigin =
                            text(&format!("p{i}-vorigin")).and_then(|u| PeerId::from_urn(&u))?;
                        let home = text(&format!("p{i}-home")).and_then(|u| PeerId::from_urn(&u));
                        Some((peer, (seq, rank, vorigin), home))
                    })
                    .collect()
            });

        // Presence/routing first: merge each entry if its version is newer,
        // mirroring the join/leave gossip application (including the
        // live-session arbitration and the shadow/resurrect dance).  It must
        // run before the membership sections — those store the same versions,
        // and a version that arrives via membership first would make the
        // presence merge skip the entry as already-known, leaving the
        // routing table unhealed.
        if let Some(presence) = presence.as_ref() {
            for &(peer, version, home) in presence {
                if !self.try_version_presence(peer, version) {
                    continue;
                }
                repaired += 1;
                if version.1 == PRESENCE_JOIN {
                    if self.yield_to_remote_join(peer, version.2) {
                        continue;
                    }
                    // Unlike a gossiped join (which carries the full group
                    // list), the snapshot's membership section reconciles
                    // groups separately, so memberships are left untouched
                    // here.
                    match home {
                        Some(home) if home != self.id => {
                            self.peer_homes.write().insert(peer, home);
                        }
                        _ => {
                            self.peer_homes.write().remove(&peer);
                        }
                    }
                } else {
                    if self.absorb_remote_leave(peer) {
                        continue;
                    }
                    self.groups.leave_all(&peer);
                    self.forget_membership_stamps(&peer);
                    self.peer_homes.write().remove(&peer);
                }
            }
        }

        // Membership: deletions first — an entry we hold, shared with the
        // sender, that the sender no longer has, *and* whose provenance
        // stamp is strictly older than what the sender knows about the
        // member, means we missed a leave or a re-join with a smaller group
        // set.  An equal version proves the entry current instead (the same
        // join event implies the same group list), which keeps a half-healed
        // replica from talking a healed one out of a correct entry.  Then
        // additions, carrying the sender's provenance stamps.
        if let (Some(m_count), Some(presence)) = (message.entry_count("m-count"), presence.as_ref())
        {
            let sender_versions: HashMap<PeerId, PresenceVersion> =
                presence.iter().map(|(peer, version, _)| (*peer, *version)).collect();
            // A forged m-count must not reserve memory the message cannot
            // back: each membership entry occupies at least five elements.
            let m_cap = m_count.min(message.element_count() / 5 + 1);
            let mut sender_members: std::collections::HashSet<(GroupId, PeerId)> =
                std::collections::HashSet::with_capacity(m_cap);
            let mut additions = Vec::with_capacity(m_cap);
            for i in 0..m_count {
                let (Some(group), Some(member), Some(seq), Some(rank), Some(vorigin)) = (
                    text(&format!("m{i}-group")),
                    text(&format!("m{i}-peer")).and_then(|u| PeerId::from_urn(&u)),
                    text(&format!("m{i}-vseq")).and_then(|s| s.parse::<u64>().ok()),
                    text(&format!("m{i}-vrank")).and_then(|r| r.parse::<u8>().ok()),
                    text(&format!("m{i}-vorigin")).and_then(|u| PeerId::from_urn(&u)),
                ) else {
                    continue;
                };
                let group = GroupId::new(group);
                sender_members.insert((group.clone(), member));
                additions.push((group, member, (seq, rank, vorigin)));
            }
            for (group, member) in self.repair_membership_entries(&origin) {
                if !in_range(crate::shard::shard_key(&group, &member))
                    || sender_members.contains(&(group.clone(), member))
                {
                    continue;
                }
                if self.sessions.read().contains_key(&member) {
                    // Local ground truth: a live session's membership is
                    // never deleted on a peer's say-so.
                    continue;
                }
                let Some(sender_version) = sender_versions.get(&member) else {
                    continue; // the sender knows nothing about this peer
                };
                if *sender_version > self.membership_stamp(&group, &member) {
                    self.groups.leave(&group, &member);
                    self.membership_versions
                        .write()
                        .remove(&(group.clone(), member));
                    repaired += 1;
                }
            }
            for (group, member, carried) in additions {
                if carried.1 != PRESENCE_JOIN || !self.is_local_replica(&group, &member) {
                    continue;
                }
                if self
                    .peer_versions
                    .read()
                    .get(&member)
                    .is_some_and(|stored| *stored > carried)
                {
                    // The member's presence moved past this entry's
                    // provenance (a later leave or re-join); only a sender
                    // with an equally current stamp may assert it.
                    continue;
                }
                if self.groups.is_member(&group, &member) {
                    if carried > self.membership_stamp(&group, &member) {
                        self.stamp_membership(&group, member, carried);
                    }
                } else {
                    self.stamp_membership(&group, member, carried);
                    self.groups.join(group, member);
                    repaired += 1;
                }
            }
        }

        // Advertisements: pure LWW merge — repair only ever *adds* missed
        // writes (reshard handles ownership moves deterministically on every
        // broker, so there are no deletions to reconcile).
        if let Some(n) = message.entry_count("a-count") {
            for i in 0..n {
                let (Some(group), Some(owner), Some(doc_type), Some(xml), Some(vseq), Some(vorigin)) = (
                    text(&format!("a{i}-group")),
                    text(&format!("a{i}-owner")).and_then(|u| PeerId::from_urn(&u)),
                    text(&format!("a{i}-type")),
                    text(&format!("a{i}-xml")),
                    text(&format!("a{i}-vseq")).and_then(|s| s.parse::<u64>().ok()),
                    text(&format!("a{i}-vorigin")).and_then(|u| PeerId::from_urn(&u)),
                ) else {
                    continue;
                };
                let group = GroupId::new(group);
                if !self.is_local_replica(&group, &owner) {
                    continue;
                }
                if self.store_advertisement(owner, &group, &doc_type, &xml, (vseq, vorigin)) {
                    // The members homed here missed the original push along
                    // with the gossip; deliver it now that the entry healed.
                    self.push_to_local_members(owner, &group, &doc_type, &xml);
                    repaired += 1;
                }
            }
        }

        // Extension state (e.g. signed revocation lists): the extension
        // authenticates and merges the blob itself.
        if let Some(blob) = index.get("ext") {
            let extension = self.extension.read().clone();
            if let Some(extension) = extension {
                repaired += extension.apply_repair_snapshot(self, blob);
            }
        }
        repaired
    }

    // ------------------------------------------------------------------
    // Relaying
    // ------------------------------------------------------------------

    /// Handles a client's `RelayViaBroker` request: deliver locally if the
    /// destination is homed here, otherwise forward it across the backbone
    /// to the destination's home broker.  `carried_wire` is the wire time of
    /// the client→broker hop, so the final delivery charges every hop.
    fn handle_relay_request(&self, message: &Message, carried_wire: Duration) -> Option<Message> {
        if self.session(&message.sender).is_none() {
            return Some(self.reject(message, "login required"));
        }
        let (Some(to_urn), Some(payload)) = (message.element_str("to"), message.element("payload"))
        else {
            return Some(self.reject(message, "missing relay fields"));
        };
        let Some(dest) = PeerId::from_urn(&to_urn) else {
            return Some(self.reject(message, "malformed destination identifier"));
        };

        if self.sessions.read().contains_key(&dest) {
            // lint:allow(accounted-send, relay leaf delivery to a locally attached peer)
            return match self.network.forward(self.id, dest, payload.to_vec(), carried_wire) {
                Ok(_) => {
                    self.federation.count_relay_delivered();
                    Some(
                        Message::new(MessageKind::Ack, self.id, message.request_id)
                            .with_str("status", "ok")
                            .with_str("route", "local"),
                    )
                }
                Err(_) => {
                    self.federation.count_relay_failed();
                    Some(self.reject(message, "destination unreachable"))
                }
            };
        }

        let Some(home) = self.peer_homes.read().get(&dest).copied() else {
            self.federation.count_relay_failed();
            return Some(self.reject(message, "unknown destination peer"));
        };
        let relay = Message::new(MessageKind::BrokerRelay, self.id, message.request_id)
            .with_str("to", &to_urn)
            .with_element("payload", payload.to_vec());
        if self.send_sequenced(home, relay, carried_wire).is_some() {
            self.federation.count_relay_forwarded();
            Some(
                Message::new(MessageKind::Ack, self.id, message.request_id)
                    .with_str("status", "ok")
                    .with_str("route", "federation"),
            )
        } else {
            self.federation.count_relay_failed();
            Some(self.reject(message, "home broker unreachable"))
        }
    }

    /// Handles a `BrokerRelay` arriving over the backbone: after admission
    /// control, the opaque payload is delivered to the locally homed
    /// destination peer with the accumulated wire time carried forward.
    fn handle_broker_relay(&self, message: &Message, carried_wire: Duration) {
        let (Some(to_urn), Some(payload)) = (message.element_str("to"), message.element("payload"))
        else {
            self.federation.count_relay_failed();
            return;
        };
        let Some(dest) = PeerId::from_urn(&to_urn) else {
            self.federation.count_relay_failed();
            return;
        };
        if !self.sessions.read().contains_key(&dest) {
            self.federation.count_relay_failed();
            return;
        }
        // lint:allow(accounted-send, relay leaf delivery to a locally attached peer)
        match self.network.forward(self.id, dest, payload.to_vec(), carried_wire) {
            Ok(_) => self.federation.count_relay_delivered(),
            Err(_) => self.federation.count_relay_failed(),
        }
    }

    /// Looks up advertisements of a given type within a group, optionally
    /// restricted to one owner — local shard only.
    pub fn lookup(
        &self,
        group: &GroupId,
        doc_type: &str,
        owner: Option<PeerId>,
    ) -> Vec<String> {
        self.lookup_versioned(group, doc_type, owner)
            .into_iter()
            .map(|(_, _, xml)| xml)
            .collect()
    }

    /// Like [`Broker::lookup`] but returning each entry's owner and
    /// last-writer-wins version — what shard replicas exchange so that
    /// scatter-gather responses deduplicate to the same winner everywhere.
    fn lookup_versioned(
        &self,
        group: &GroupId,
        doc_type: &str,
        owner: Option<PeerId>,
    ) -> Vec<(PeerId, (u64, PeerId), String)> {
        let advertisements = self.advertisements.read();
        let Some(index) = advertisements.get(group) else {
            return Vec::new();
        };
        let mut results: Vec<(PeerId, (u64, PeerId), String)> = index
            .iter()
            .filter(|((adv_owner, adv_type), _)| {
                adv_type == doc_type && owner.is_none_or(|o| *adv_owner == o)
            })
            .map(|((adv_owner, _), adv)| (*adv_owner, adv.version, adv.xml.clone()))
            .collect();
        // Deterministic order keeps experiments and tests reproducible.
        results.sort_by_key(|(owner, _, _)| *owner);
        results
    }

    /// Starts the broker's event loop.
    ///
    /// With `config.verify_workers == 0` this is the classic single thread:
    /// receive, decode, verify, apply, one message at a time.  With workers
    /// configured the ingress path becomes a staged pipeline (see
    /// [`BrokerConfig::verify_workers`]):
    ///
    /// ```text
    /// network inbox ──[ingress lock: batch + tickets]──► verify worker
    ///   (decode + preverify, parallel, no lock)              │
    ///                                                        ▼
    ///              [router lock: reorder to ticket order, classify]
    ///               │ partition-local               │ partition-spanning
    ///               ▼ (shard_key % lanes)           ▼
    ///       apply lanes (parallel,          barrier: drain all lanes,
    ///        FIFO per partition;             then apply on the routing
    ///        idle lane → apply on            worker
    ///        the routing worker)
    /// ```
    ///
    /// Each verify worker carries a message end to end: it stamps monotone
    /// tickets while holding the ingress lock (so ticket order is arrival
    /// order), pre-verifies in parallel, and then — holding the router lock,
    /// which makes it the sole dispatcher for that moment — restores exact
    /// arrival order through the ticket reorder buffer and routes each
    /// message *in that order*.  A partition-local message ([`apply_route`])
    /// goes to the FIFO lane owning its `(group, owner)` shard key (or, when
    /// that lane is idle, applies directly on the routing worker — the lane
    /// handoff only pays for itself when there is queued work to overlap
    /// with), so same-partition messages keep their relative order while
    /// different partitions apply in parallel.  A partition-spanning message
    /// waits for every busy lane to quiesce (a barrier) and then applies on
    /// the routing worker itself, so it observes — and is observed by — all
    /// lane traffic in ticket order.  Lane queues are bounded, so a
    /// saturated lane stalls the router, which stalls the verify pool and
    /// the inbox drain, which (with [`BrokerConfig::inbox_capacity`]) pushes
    /// back on senders instead of queueing without bound.
    pub fn spawn(self: &Arc<Self>) -> BrokerHandle {
        let receiver = match self.config.inbox_capacity {
            Some(capacity) => self.network.register_bounded(self.id, capacity),
            None => self.network.register(self.id),
        };
        let (shutdown_tx, shutdown_rx) = crossbeam::channel::bounded::<()>(1);
        let mut threads = Vec::new();

        if self.config.verify_workers == 0 {
            let broker = Arc::clone(self);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("broker-{}", self.config.name))
                    .spawn(move || loop {
                        crossbeam::channel::select! {
                            recv(receiver) -> msg => match msg {
                                Ok(net_message) => broker.process_net(net_message),
                                Err(_) => break,
                            },
                            recv(shutdown_rx) -> _ => break,
                        }
                    })
                    .expect("failed to spawn broker thread"),
            );
            return BrokerHandle {
                broker: Arc::clone(self),
                shutdown: shutdown_tx,
                threads,
            };
        }

        let workers = self.config.verify_workers;
        drop(shutdown_rx);

        // Lane pool: partition-local messages apply here in parallel, one
        // FIFO lane per shard-key slice.  Bounded queues keep the
        // backpressure chain intact: a slow lane stalls the dispatcher.
        let lanes = self.config.apply_lanes.unwrap_or(workers).max(1);
        let lane_counters = self.pipeline.configure_lanes(lanes);
        let mut lane_txs = Vec::with_capacity(lanes);
        let mut lane_busy = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let (lane_tx, lane_rx) = crossbeam::channel::bounded::<LaneJob>(workers * 8);
            let busy = Arc::new(AtomicU64::new(0));
            let broker = Arc::clone(self);
            let counters = Arc::clone(&lane_counters);
            let in_flight = Arc::clone(&busy);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("broker-{}-lane-{lane}", self.config.name))
                    .spawn(move || {
                        while let Ok(job) = lane_rx.recv() {
                            match job {
                                LaneJob::Apply(net_message, message) => {
                                    // Counted before `apply_net` publishes
                                    // the message as processed.
                                    counters[lane].fetch_add(1, Ordering::Relaxed);
                                    broker.apply_net(net_message, Some(message));
                                    // Release pairs with the dispatcher's
                                    // Acquire: a zero in-flight count proves
                                    // the apply's effects are visible.
                                    in_flight.fetch_sub(1, Ordering::Release);
                                }
                                LaneJob::Barrier(ack) => {
                                    // FIFO: every apply routed to this lane
                                    // before the barrier has already run.
                                    let _ = ack.send(());
                                }
                            }
                        }
                    })
                    .expect("failed to spawn broker apply lane"),
            );
            lane_txs.push(lane_tx);
            lane_busy.push(busy);
        }

        // Verify pool: each worker owns a message end to end.  It pulls a
        // batch off the inbox and stamps monotone tickets under the ingress
        // lock (stamp order == arrival order), decodes and cryptographically
        // pre-verifies outside any lock (the parallel stage), then takes the
        // router lock to restore global ticket order and route — so exactly
        // one thread routes at any moment, which is what keeps the lane
        // fast-path and the barrier protocol sound.  Compared to dedicated
        // ingress/dispatcher threads this costs two short critical sections
        // instead of two channel handoffs per message, and the batching
        // amortises both locks when the inbox runs deep.
        let ingress = Arc::new(Mutex::with_class(
            "pipeline.ingress",
            PipelineIngress { receiver, ticket: 0 },
        ));
        let router = Arc::new(Mutex::with_class(
            "pipeline.router",
            PipelineRouter {
                next_ticket: 1,
                reorder: BTreeMap::new(),
            },
        ));
        let lane_txs = Arc::new(lane_txs);
        let lane_busy = Arc::new(lane_busy);
        // A single-core host cannot run lanes concurrently with the router;
        // fanning out would only pay thread-handoff cost for no overlap, so
        // the router applies partition-local messages itself there.
        let eager_inline =
            std::thread::available_parallelism().is_ok_and(|cores| cores.get() == 1);
        for worker in 0..workers {
            let broker = Arc::clone(self);
            let ingress = Arc::clone(&ingress);
            let router = Arc::clone(&router);
            let lane_txs = Arc::clone(&lane_txs);
            let lane_busy = Arc::clone(&lane_busy);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("broker-{}-verify-{worker}", self.config.name))
                    .spawn(move || {
                        let mut stamped = Vec::with_capacity(INGRESS_BATCH);
                        let mut verified: Vec<(u64, NetMessage, Option<Message>)> =
                            Vec::with_capacity(INGRESS_BATCH);
                        let mut ready: Vec<(NetMessage, Option<Message>)> =
                            Vec::with_capacity(INGRESS_BATCH);
                        loop {
                            {
                                let mut ingress = ingress.lock();
                                match ingress.receiver.recv() {
                                    Ok(net_message) => {
                                        ingress.ticket += 1;
                                        stamped.push((ingress.ticket, net_message));
                                    }
                                    // Inbox closed (shutdown): every stamped
                                    // ticket was inserted by its carrier, so
                                    // the reorder buffer has no gaps left.
                                    Err(_) => break,
                                }
                                while stamped.len() < INGRESS_BATCH {
                                    match ingress.receiver.try_recv() {
                                        Ok(net_message) => {
                                            ingress.ticket += 1;
                                            stamped.push((ingress.ticket, net_message));
                                        }
                                        Err(_) => break,
                                    }
                                }
                            }
                            verified.extend(stamped.drain(..).map(|(ticket, net_message)| {
                                let decoded = broker.decode_and_preverify(&net_message);
                                (ticket, net_message, decoded)
                            }));
                            let mut router = router.lock();
                            let router = &mut *router;
                            for (ticket, net_message, decoded) in verified.drain(..) {
                                if ticket != router.next_ticket {
                                    // An earlier ticket is still being
                                    // verified elsewhere: park this one.
                                    // Inserting can never fill the gap, so
                                    // there is nothing to drain here.
                                    broker.pipeline.count_reorder_wait();
                                    router.reorder.insert(ticket, (net_message, decoded));
                                    continue;
                                }
                                // In order — the common case: queue it
                                // without touching the reorder buffer, then
                                // any parked successors this unblocked.
                                ready.push((net_message, decoded));
                                router.next_ticket += 1;
                                while let Some(parked) =
                                    router.reorder.remove(&router.next_ticket)
                                {
                                    ready.push(parked);
                                    router.next_ticket += 1;
                                }
                            }
                            // Count the batch before applying it: a reader
                            // that sees a message processed must also see it
                            // counted.  The router lock stays held, so
                            // routing order is unchanged.
                            if !ready.is_empty() {
                                broker.pipeline.record_apply_batch(ready.len() as u64);
                            }
                            for (net_message, decoded) in ready.drain(..) {
                                broker.dispatch_apply(
                                    net_message,
                                    decoded,
                                    &lane_txs,
                                    &lane_busy,
                                    eager_inline,
                                );
                            }
                        }
                        // The last worker out drops the final clones of the
                        // lane senders, closing each lane's queue after its
                        // last routed apply.
                    })
                    .expect("failed to spawn broker verify worker"),
            );
        }

        BrokerHandle {
            broker: Arc::clone(self),
            shutdown: shutdown_tx,
            threads,
        }
    }

    /// Routes one in-ticket-order completion through the partitioned apply
    /// stage: partition-local messages go to their shard lane, anything
    /// else drains the lanes (a barrier) and applies on the calling
    /// dispatcher thread.  Only ever called from the dispatcher, which is
    /// the sole sender on every lane — that is what makes the barrier
    /// protocol sound: once each busy lane acknowledges, no lane can have
    /// work in flight until the dispatcher routes more.
    fn dispatch_apply(
        &self,
        net_message: NetMessage,
        decoded: Option<Message>,
        lane_txs: &[crossbeam::channel::Sender<LaneJob>],
        lane_busy: &[Arc<AtomicU64>],
        eager_inline: bool,
    ) {
        let Some(message) = decoded else {
            // Undecodable traffic touches no state (`apply_net` only counts
            // it processed), so it needs neither a lane nor a drain.
            return self.apply_net(net_message, None);
        };
        match apply_route(&message) {
            ApplyRoute::Lane(key) => {
                let lane = (key % lane_txs.len() as u64) as usize;
                // On a host without spare cores the lane handoff cannot buy
                // concurrency that does not exist, so the router applies
                // partition-local messages itself: routing is paused while
                // it does, so partition FIFO holds trivially, and the
                // message still counts against its lane for load metrics.
                if eager_inline {
                    self.pipeline.count_lane_message(lane);
                    self.apply_net(net_message, Some(message));
                    return;
                }
                lane_busy[lane].fetch_add(1, Ordering::Relaxed);
                if lane_txs[lane]
                    .send(LaneJob::Apply(net_message, message))
                    .is_err()
                {
                    // Shutdown race: the lane is gone, nothing applies.
                    lane_busy[lane].fetch_sub(1, Ordering::Relaxed);
                }
            }
            ApplyRoute::Barrier => {
                // Ask every busy lane to acknowledge; lane FIFO means the
                // ack proves all its earlier applies completed.  Acks are
                // collected after all requests go out, so lanes drain in
                // parallel.
                let mut pending = Vec::new();
                for (lane, busy) in lane_busy.iter().enumerate() {
                    if busy.load(Ordering::Acquire) > 0 {
                        let (ack_tx, ack_rx) = crossbeam::channel::bounded::<()>(1);
                        if lane_txs[lane].send(LaneJob::Barrier(ack_tx)).is_ok() {
                            pending.push(ack_rx);
                        }
                    }
                }
                if !pending.is_empty() {
                    self.pipeline.count_barrier_drain();
                    for ack in pending {
                        let _ = ack.recv();
                    }
                }
                self.pipeline.count_barrier();
                self.apply_net(net_message, Some(message));
            }
        }
    }

    /// Processes one raw network message (parse, dispatch, reply).
    ///
    /// Public so the thread-free federation mode (deterministic pumping used
    /// by the replication proptests) can drive a broker without spawning its
    /// event-loop thread.  Runs both pipeline stages back to back on the
    /// calling thread, so inline and pipelined brokers apply the identical
    /// sequence of state changes.
    pub fn process_net(&self, net_message: NetMessage) {
        let decoded = self.decode_and_preverify(&net_message);
        self.apply_net(net_message, decoded);
    }

    /// Pipeline stage 1 — stateless: decodes the payload and runs the
    /// extension's [`BrokerExtension::preverify`] hook (signature/envelope
    /// checks that warm the verified-signature cache).  Safe to run
    /// concurrently from several verify workers.  Returns `None` for
    /// undecodable traffic.
    pub fn decode_and_preverify(&self, net_message: &NetMessage) -> Option<Message> {
        let message = Message::from_bytes(&net_message.payload).ok()?;
        let extension = self.extension.read().clone();
        if let Some(extension) = extension {
            extension.preverify(self, &message);
        }
        Some(message)
    }

    /// Pipeline stage 2 — serialized: applies one decoded message to broker
    /// state and sends replies.  Must observe messages in arrival order (the
    /// pipeline's ticket reorder guarantees it), which preserves per-sender
    /// FIFO and the inter-broker replay-protection semantics.  Inter-broker
    /// kinds pass admission control here, where the transport sender is
    /// known, and are dispatched only if admitted; client relays are
    /// dispatched here rather than in [`Broker::handle_message`] because they
    /// need the delivery's accumulated wire time for per-hop accounting.
    fn apply_net(&self, net_message: NetMessage, decoded: Option<Message>) {
        let Some(message) = decoded else {
            // Undecodable traffic is dropped silently — but it still counts
            // as processed, or quiescence would never be reached after
            // garbage arrives.
            self.processed.fetch_add(1, Ordering::Release);
            return;
        };
        let response = if message.kind.is_inter_broker() {
            // The one admission gate for backbone traffic.  A rejected
            // message still counts as processed below, or quiescence would
            // never be reached after hostile traffic arrives.
            if self.accept_from_peer_broker(
                message.sender,
                net_message.from,
                message.element_str("seq"),
            ) {
                self.handle_inter_broker(&message, net_message.wire_time);
            }
            None
        } else if message.kind == MessageKind::RelayViaBroker {
            self.handle_relay_request(&message, net_message.wire_time)
        } else {
            self.handle_message(&message)
        };
        // Belt and braces: any handler that queued gossip has flushed it
        // already, but an extension hooked in via `handle_message` may have
        // produced events of its own.
        self.flush_gossip();
        if let Some(response) = response {
            let _ = self
                .network
                // lint:allow(accounted-send, direct response to the requesting peer)
                .send(self.id, net_message.from, response.to_bytes());
        }
        // Only now — with every side effect applied and sent — does this
        // message count as processed (quiescence detection).
        self.processed.fetch_add(1, Ordering::Release);
    }

    /// Number of network messages this broker has fully processed.
    pub fn processed_count(&self) -> u64 {
        self.processed.load(Ordering::Acquire)
    }

    /// Dispatches an admitted inter-broker message ([`MessageKind::is_inter_broker`])
    /// to its handler.  Only [`Broker::apply_net`] calls this, after the
    /// admission gate.
    fn handle_inter_broker(&self, message: &Message, carried_wire: Duration) {
        match message.kind {
            MessageKind::BrokerSync => self.handle_sync(message),
            MessageKind::BrokerRelay => self.handle_broker_relay(message, carried_wire),
            MessageKind::ShardQuery => self.handle_shard_query(message),
            MessageKind::ShardResponse => self.handle_shard_response(message),
            MessageKind::AntiEntropyDigest => self.handle_anti_entropy_digest(message),
            MessageKind::AntiEntropySnapshot => self.handle_anti_entropy_snapshot(message),
            MessageKind::AntiEntropyRange => self.handle_anti_entropy_range(message),
            MessageKind::MembershipShuffle => self.handle_membership_shuffle(message),
            MessageKind::MembershipShuffleReply => self.handle_membership_shuffle_reply(message),
            MessageKind::PlumtreeIHave => self.handle_plumtree_ihave(message),
            MessageKind::PlumtreeGraft => self.handle_plumtree_graft(message),
            MessageKind::PlumtreePrune => self.handle_plumtree_prune(message),
            MessageKind::SwimPing => self.handle_swim_ping(message),
            MessageKind::SwimPingReq => self.handle_swim_ping_req(message),
            MessageKind::SwimAck => self.handle_swim_ack(message),
            // `is_inter_broker` holds for exactly the kinds above.
            _ => {}
        }
    }

    /// Dispatches a decoded client message to the appropriate broker
    /// function and returns the reply, if any.
    ///
    /// Serves the client kinds only: inter-broker kinds need the transport
    /// sender for admission control, so they reach their handlers only
    /// through [`Broker::process_net`] and are rejected here like any other
    /// kind that is not a broker function.  Public so tests (and the
    /// in-line, thread-free mode used by some benchmarks) can drive a broker
    /// without spawning its thread.
    pub fn handle_message(&self, message: &Message) -> Option<Message> {
        match message.kind {
            MessageKind::ConnectRequest => Some(self.handle_connect(message)),
            MessageKind::LoginRequest => Some(self.handle_login(message)),
            MessageKind::PublishAdvertisement => Some(self.handle_publish(message)),
            MessageKind::LookupRequest => self.handle_lookup(message),
            MessageKind::RelayViaBroker => self.handle_relay_request(message, Duration::ZERO),
            MessageKind::SecureConnectChallenge
            | MessageKind::SecureLoginRequest => {
                let extension = self.extension.read().clone();
                match extension {
                    Some(ext) => ext.handle(self, message).or_else(|| {
                        Some(self.reject(message, "secure primitive not handled by extension"))
                    }),
                    None => Some(self.reject(message, "secure primitives not enabled on this broker")),
                }
            }
            // Anything else is not a broker function.
            _ => Some(self.reject(message, "unsupported message kind")),
        }
    }

    fn reject(&self, message: &Message, reason: &str) -> Message {
        Message::new(MessageKind::Ack, self.id, message.request_id)
            .with_str("status", "error")
            .with_str("reason", reason)
    }

    /// `connect` handling: accept the connection and identify ourselves.
    fn handle_connect(&self, message: &Message) -> Message {
        self.mark_connected(message.sender);
        Message::new(MessageKind::ConnectResponse, self.id, message.request_id)
            .with_str("status", "ok")
            .with_str("broker-name", &self.config.name)
    }

    /// `login` handling: check the (clear-text!) username and password
    /// against the central database.
    fn handle_login(&self, message: &Message) -> Message {
        if !self.is_connected(&message.sender) {
            return Message::new(MessageKind::LoginResponse, self.id, message.request_id)
                .with_str("status", "error")
                .with_str("reason", "connect before login");
        }
        let (Some(username), Some(password)) = (
            message.element_str("username"),
            message.element_str("password"),
        ) else {
            return Message::new(MessageKind::LoginResponse, self.id, message.request_id)
                .with_str("status", "error")
                .with_str("reason", "missing credentials");
        };
        if !self.database.verify(&username, &password) {
            return Message::new(MessageKind::LoginResponse, self.id, message.request_id)
                .with_str("status", "error")
                .with_str("reason", "authentication failed");
        }
        let session = self.establish_session(message.sender, &username);
        let groups = session
            .groups
            .iter()
            .map(|g| g.as_str().to_string())
            .collect::<Vec<_>>()
            .join(",");
        Message::new(MessageKind::LoginResponse, self.id, message.request_id)
            .with_str("status", "ok")
            .with_str("username", &username)
            .with_str("groups", &groups)
    }

    /// `publishAdvertisement` handling: index and distribute to group members.
    fn handle_publish(&self, message: &Message) -> Message {
        let Some(session) = self.session(&message.sender) else {
            return self.reject(message, "login required");
        };
        let (Some(group), Some(doc_type), Some(xml)) = (
            message.element_str("group"),
            message.element_str("doc-type"),
            message.element_str("xml"),
        ) else {
            return self.reject(message, "missing publish fields");
        };
        let group = GroupId::new(group);
        if !session.groups.contains(&group) {
            return self.reject(message, "not a member of the target group");
        }
        // Give the security extension a veto: a signed advertisement whose
        // embedded credential is expired or revoked must not enter the index.
        let extension = self.extension.read().clone();
        if let Some(extension) = extension {
            if let Err(reason) =
                extension.vet_publish(self, message.sender, &group, &doc_type, &xml)
            {
                return self.reject(message, &reason);
            }
        }
        let pushed = self.index_and_distribute(message.sender, &group, &doc_type, &xml);
        Message::new(MessageKind::Ack, self.id, message.request_id)
            .with_str("status", "ok")
            .with_str("pushed-to", &pushed.to_string())
    }

    /// `lookup` handling: search the advertisement index, or — when the
    /// request carries a `member` element — answer a group-membership query.
    ///
    /// In full-replication mode every broker answers from its own copy.  In
    /// sharded mode the broker answers locally only when it is a ring
    /// replica of the queried key; otherwise it routes the query across the
    /// backbone with [`MessageKind::ShardQuery`] (one owning replica for
    /// keyed queries, scatter-gather over the backbone for group-wide
    /// searches whose owners are unknown) and replies to the client when the
    /// replica answers arrive — in which case this returns `None`.
    fn handle_lookup(&self, message: &Message) -> Option<Message> {
        let Some(session) = self.session(&message.sender) else {
            return Some(self.reject(message, "login required"));
        };
        let Some(group) = message.element_str("group") else {
            return Some(self.reject(message, "missing lookup fields"));
        };
        let group = GroupId::new(group);
        if !session.groups.contains(&group) {
            return Some(self.reject(message, "not a member of the target group"));
        }

        // Membership query: is `member` currently part of `group`?
        if let Some(member) = message.element_str("member") {
            let Some(member) = PeerId::from_urn(&member) else {
                return Some(self.reject(message, "malformed member identifier"));
            };
            // Local ground truth (the member's session is here) or local
            // replica: answer directly.
            if self.sessions.read().contains_key(&member) || self.is_local_replica(&group, &member)
            {
                if self.is_sharded() {
                    self.federation.count_shard_hit();
                }
                return Some(self.membership_response(
                    message.request_id,
                    self.groups.is_member(&group, &member),
                ));
            }
            self.federation.count_shard_miss();
            return self.route_shard_query(message, &group, None, Some(member));
        }

        let Some(doc_type) = message.element_str("doc-type") else {
            return Some(self.reject(message, "missing lookup fields"));
        };
        let owner = message
            .element_str("owner")
            .and_then(|urn| PeerId::from_urn(&urn));

        match owner {
            // Keyed search: one shard owns (group, owner).
            Some(owner) if !self.is_local_replica(&group, &owner) => {
                self.federation.count_shard_miss();
                self.route_shard_query(message, &group, Some(&doc_type), Some(owner))
            }
            // Group-wide search in sharded mode: the owners (and hence the
            // owning shards) are unknown — scatter over the backbone and
            // merge.
            None if self.is_sharded() && !self.peer_brokers.read().is_empty() => {
                self.federation.count_shard_miss();
                self.route_shard_scatter(message, &group, &doc_type)
            }
            _ => {
                if self.is_sharded() {
                    self.federation.count_shard_hit();
                }
                let results = self.lookup(&group, &doc_type, owner);
                Some(self.lookup_response(message.request_id, results))
            }
        }
    }

    /// Builds the client-facing response of an advertisement search.
    fn lookup_response(&self, request_id: u64, results: Vec<String>) -> Message {
        let mut response = Message::new(MessageKind::LookupResponse, self.id, request_id)
            .with_str("status", "ok")
            .with_str("count", &results.len().to_string());
        for (i, xml) in results.into_iter().enumerate() {
            response.push_element(format!("adv-{i}"), xml.into_bytes());
        }
        response
    }

    /// Builds the client-facing response of a membership query.
    fn membership_response(&self, request_id: u64, is_member: bool) -> Message {
        Message::new(MessageKind::LookupResponse, self.id, request_id)
            .with_str("status", "ok")
            .with_str("member", if is_member { "true" } else { "false" })
    }

    /// Routes a keyed query (advertisement search with a known owner, or a
    /// membership probe) to one ring replica of its `(group, key)`,
    /// rotating deterministically across the replica set so repeated lookups
    /// of a hot key spread over all K replicas instead of hammering the
    /// first one on the ring walk.
    fn route_shard_query(
        &self,
        message: &Message,
        group: &GroupId,
        doc_type: Option<&str>,
        key_peer: Option<PeerId>,
    ) -> Option<Message> {
        let Some(key) = key_peer else {
            return Some(self.reject(message, "malformed shard query"));
        };
        let candidates: Vec<PeerId> = self
            .shard_replicas(group, &key)
            .into_iter()
            .filter(|replica| *replica != self.id)
            .collect();
        if candidates.is_empty() {
            // No remote replica (degenerate ring) — answer from what we have.
            return Some(match doc_type {
                Some(doc_type) => self.lookup_response(
                    message.request_id,
                    self.lookup(group, doc_type, Some(key)),
                ),
                None => self
                    .membership_response(message.request_id, self.groups.is_member(group, &key)),
            });
        }
        let query_id = self.next_query.fetch_add(1, Ordering::Relaxed);
        // Link-cost-aware replica choice: prefer the replicas behind the
        // cheapest link from this broker (per-edge LinkModel — a WAN-priced
        // replica loses to a LAN one), then rotate among the cheapest using
        // the monotone query identifier, so the choice stays deterministic
        // for reproducible tests yet spreads a hot key's queries over every
        // equally cheap replica.  With uniform links this degenerates to the
        // original full rotation.
        let costs: Vec<Duration> = candidates
            .iter()
            .map(|replica| {
                self.network
                    .link_between(self.id, *replica)
                    .transfer_time(SHARD_QUERY_NOMINAL_BYTES)
            })
            .collect();
        let cheapest_cost = *costs.iter().min().expect("candidates is non-empty");
        let cheapest: Vec<PeerId> = candidates
            .iter()
            .zip(&costs)
            .filter(|(_, cost)| **cost == cheapest_cost)
            .map(|(replica, _)| *replica)
            .collect();
        let target = cheapest[(query_id as usize) % cheapest.len()];
        let membership = doc_type.is_none();
        let mut query = Message::new(MessageKind::ShardQuery, self.id, 0)
            .with_str("query", &query_id.to_string())
            .with_str("group", group.as_str());
        match doc_type {
            Some(doc_type) => {
                query = query
                    .with_str("doc-type", doc_type)
                    .with_str("owner", &key.to_urn());
            }
            None => query = query.with_str("member", &key.to_urn()),
        }
        if self.send_sequenced(target, query, Duration::ZERO).is_none() {
            // The replica is gone; fail the query towards the client rather
            // than leaving it waiting for a response that cannot come.
            return Some(self.reject(message, "shard replica unreachable"));
        }
        self.pending_lookups.lock().insert(
            query_id,
            PendingLookup {
                client: message.sender,
                client_request: message.request_id,
                remaining: 1,
                adv_results: BTreeMap::new(),
                is_member: false,
                membership,
            },
        );
        None
    }

    /// Scatters a group-wide advertisement search to every peer broker and
    /// seeds the merge state with this broker's own shard.
    fn route_shard_scatter(
        &self,
        message: &Message,
        group: &GroupId,
        doc_type: &str,
    ) -> Option<Message> {
        let peers = self.peer_brokers.read().clone();
        let query_id = self.next_query.fetch_add(1, Ordering::Relaxed);
        let mut adv_results = BTreeMap::new();
        for (owner, version, xml) in self.lookup_versioned(group, doc_type, None) {
            adv_results.insert(owner, (version, xml));
        }
        let mut remaining = 0usize;
        for target in peers {
            let query = Message::new(MessageKind::ShardQuery, self.id, 0)
                .with_str("query", &query_id.to_string())
                .with_str("group", group.as_str())
                .with_str("doc-type", doc_type);
            if self.send_sequenced(target, query, Duration::ZERO).is_some() {
                remaining += 1;
            }
        }
        if remaining == 0 {
            // Every peer unreachable: answer from the local shard alone.
            let results = adv_results.into_values().map(|(_, xml)| xml).collect();
            return Some(self.lookup_response(message.request_id, results));
        }
        self.pending_lookups.lock().insert(
            query_id,
            PendingLookup {
                client: message.sender,
                client_request: message.request_id,
                remaining,
                adv_results,
                is_member: false,
                membership: false,
            },
        );
        None
    }

    /// Serves a `ShardQuery` arriving over the backbone: after the same
    /// admission control as gossip, answer from the local shard with a
    /// `ShardResponse`.  Signed advertisements are returned verbatim — the
    /// XMLdsig envelope travels the extra hop unmodified, so client-side
    /// validation is unaffected by where the entry happened to live.
    fn handle_shard_query(&self, message: &Message) {
        let (Some(query), Some(group)) = (
            message.element_str("query"),
            message.element_str("group"),
        ) else {
            return;
        };
        let group = GroupId::new(group);
        let mut response = Message::new(MessageKind::ShardResponse, self.id, 0)
            .with_str("query", &query);
        if let Some(member) = message
            .element_str("member")
            .and_then(|urn| PeerId::from_urn(&urn))
        {
            response = response.with_str(
                "member",
                if self.groups.is_member(&group, &member) {
                    "true"
                } else {
                    "false"
                },
            );
        } else {
            let Some(doc_type) = message.element_str("doc-type") else {
                return;
            };
            let owner = message
                .element_str("owner")
                .and_then(|urn| PeerId::from_urn(&urn));
            let results = self.lookup_versioned(&group, &doc_type, owner);
            response = response.with_str("count", &results.len().to_string());
            for (i, (owner, version, xml)) in results.into_iter().enumerate() {
                response.push_element(format!("r{i}-owner"), owner.to_urn().into_bytes());
                response.push_element(format!("r{i}-vseq"), version.0.to_string().into_bytes());
                response.push_element(format!("r{i}-vorigin"), version.1.to_urn().into_bytes());
                response.push_element(format!("r{i}-xml"), xml.into_bytes());
            }
        }
        self.send_sequenced(message.sender, response, Duration::ZERO);
    }

    /// Merges a replica's `ShardResponse` into the pending lookup it answers
    /// and, once every replica reported, replies to the waiting client.
    fn handle_shard_response(&self, message: &Message) {
        let Some(query) = message
            .element_str("query")
            .and_then(|q| q.parse::<u64>().ok())
        else {
            return;
        };
        let finished = {
            let mut pending = self.pending_lookups.lock();
            let Some(state) = pending.get_mut(&query) else {
                return; // unknown or already-answered query
            };
            if let Some(member) = message.element_str("member") {
                state.is_member |= member == "true";
            }
            let count = message.entry_count("count").unwrap_or(0);
            for i in 0..count {
                let (Some(owner), Some(vseq), Some(vorigin), Some(xml)) = (
                    message
                        .element_str(&format!("r{i}-owner"))
                        .and_then(|urn| PeerId::from_urn(&urn)),
                    message
                        .element_str(&format!("r{i}-vseq"))
                        .and_then(|s| s.parse::<u64>().ok()),
                    message
                        .element_str(&format!("r{i}-vorigin"))
                        .and_then(|urn| PeerId::from_urn(&urn)),
                    message.element_str(&format!("r{i}-xml")),
                ) else {
                    continue;
                };
                let version = (vseq, vorigin);
                match state.adv_results.entry(owner) {
                    std::collections::btree_map::Entry::Occupied(mut stored) => {
                        // Replicas may race a re-publish: last writer wins,
                        // exactly as it does in the index itself.
                        if version > stored.get().0 {
                            stored.insert((version, xml));
                        }
                    }
                    std::collections::btree_map::Entry::Vacant(slot) => {
                        slot.insert((version, xml));
                    }
                }
            }
            state.remaining -= 1;
            if state.remaining == 0 {
                pending.remove(&query)
            } else {
                None
            }
        };
        if let Some(state) = finished {
            self.finish_pending_lookup(state);
        }
    }

    /// Answers the client of a (fully or best-effort) completed routed
    /// lookup with the results merged so far.
    fn finish_pending_lookup(&self, state: PendingLookup) {
        let response = if state.membership {
            self.membership_response(state.client_request, state.is_member)
        } else {
            let results = state
                .adv_results
                .into_values()
                .map(|(_, xml)| xml)
                .collect();
            self.lookup_response(state.client_request, results)
        };
        // lint:allow(accounted-send, lookup response to the requesting client)
        let _ = self.network.send(self.id, state.client, response.to_bytes());
    }
}

/// Handle of a running broker: the classic single event-loop thread, or the
/// ingress/verify/apply threads of a pipelined broker.
pub struct BrokerHandle {
    broker: Arc<Broker>,
    shutdown: crossbeam::channel::Sender<()>,
    threads: Vec<JoinHandle<()>>,
}

impl BrokerHandle {
    /// The broker this handle controls.
    pub fn broker(&self) -> &Arc<Broker> {
        &self.broker
    }

    /// The broker's peer identifier.
    pub fn id(&self) -> PeerId {
        self.broker.id()
    }

    /// Stops the broker's event loop(s) and waits for the threads to finish.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let _ = self.shutdown.send(());
        // Unregistering closes the network channel, which wakes whichever
        // verify worker holds the ingress lock; each worker finishes routing
        // the messages it already stamped before exiting, and the last one
        // out drops the lane senders — so every in-flight message still
        // reaches the apply stage before the pipeline winds down.
        self.broker.network.unregister(&self.broker.id);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for BrokerHandle {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.shutdown_inner();
        }
    }
}

/// Default timeout used by client primitives waiting for a broker response.
pub const DEFAULT_REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// Nominal shard-query size used to price replica links against each other
/// (queries are small; only the relative order of the links matters).
const SHARD_QUERY_NOMINAL_BYTES: usize = 512;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::LinkModel;
    use jxta_crypto::drbg::HmacDrbg;

    fn setup() -> (Arc<SimNetwork>, Arc<UserDatabase>, Arc<Broker>, HmacDrbg) {
        let mut rng = HmacDrbg::from_seed_u64(0xB20C);
        let network = SimNetwork::new(LinkModel::ideal());
        let database = Arc::new(UserDatabase::new());
        database.register_user(&mut rng, "alice", "pw-a", &[GroupId::new("math"), GroupId::new("chem")]);
        database.register_user(&mut rng, "bob", "pw-b", &[GroupId::new("math")]);
        let broker = Broker::new(
            PeerId::random(&mut rng),
            BrokerConfig::default(),
            Arc::clone(&network),
            Arc::clone(&database),
        );
        (network, database, broker, rng)
    }

    fn connect_and_login(broker: &Broker, peer: PeerId, username: &str, password: &str) -> Message {
        let connect = Message::new(MessageKind::ConnectRequest, peer, 1);
        let resp = broker.handle_message(&connect).unwrap();
        assert_eq!(resp.element_str("status").unwrap(), "ok");
        let login = Message::new(MessageKind::LoginRequest, peer, 2)
            .with_str("username", username)
            .with_str("password", password);
        broker.handle_message(&login).unwrap()
    }

    /// Hands `message` to `broker` as if it arrived over `from`'s link — the
    /// path a spawned broker's event loop takes, admission gate included.
    fn deliver(broker: &Broker, from: PeerId, message: &Message) {
        broker.process_net(NetMessage {
            from,
            to: broker.id(),
            payload: message.to_bytes(),
            wire_time: Duration::ZERO,
        });
    }

    /// Every membership/session mutation primitive must bump the repair
    /// epoch on its own: the tracked write guards bump it whenever a
    /// primitive mutates repair-tracked state, which makes the
    /// stale-tree-digest bug (a forgetful future caller serving old section
    /// digests forever) structurally impossible.
    #[test]
    fn mutation_primitives_bump_the_repair_epoch() {
        let (_net, _db, broker, mut rng) = setup();
        let peer = PeerId::random(&mut rng);
        let origin = PeerId::random(&mut rng);
        let group = GroupId::new("math");
        let epoch = |b: &Broker| b.repair_epoch.load(Ordering::Acquire);

        let before = epoch(&broker);
        broker.stamp_membership(&group, peer, (1, PRESENCE_JOIN, origin));
        assert!(epoch(&broker) > before, "stamp_membership must touch");

        let before = epoch(&broker);
        broker.forget_membership_stamps(&peer);
        assert!(epoch(&broker) > before, "forget_membership_stamps must touch");

        // An all-zero origin orders below any random broker id, forcing the
        // yield (non-re-assert) branch — the path that had no touch of its
        // own before this PR.
        connect_and_login(&broker, peer, "alice", "pw-a");
        let low_origin = PeerId::from_bytes([0u8; 16]);
        let before = epoch(&broker);
        assert!(!broker.yield_to_remote_join(peer, low_origin));
        assert!(epoch(&broker) > before, "yield_to_remote_join must touch");

        // A peer with neither session nor shadow hits absorb's fall-through
        // branch, the other previously-uncovered path.
        let stranger = PeerId::random(&mut rng);
        let before = epoch(&broker);
        assert!(!broker.absorb_remote_leave(stranger));
        assert!(epoch(&broker) > before, "absorb_remote_leave must touch");
        let _ = origin;
    }

    /// The digest-level regression: prime the cached membership tree, then
    /// mutate through a primitive alone (with no explicit invalidation by the
    /// caller) and verify the next tree is rebuilt rather than served stale.
    #[test]
    fn repair_tree_never_serves_stale_digests_after_primitive_mutation() {
        let (_net, _db, broker, mut rng) = setup();
        let peer = PeerId::random(&mut rng);
        connect_and_login(&broker, peer, "alice", "pw-a");
        let own_id = broker.id();
        let primed = broker.repair_section_tree('m', &own_id).root().digest();
        // Re-reading without a mutation serves the cached tree.
        assert_eq!(
            broker.repair_section_tree('m', &own_id).root().digest(),
            primed
        );
        // A leave applied through the primitive alone must invalidate it.
        broker.groups.leave_all(&peer);
        broker.forget_membership_stamps(&peer);
        let healed = broker.repair_section_tree('m', &own_id).root().digest();
        assert_ne!(healed, primed, "membership tree digest served stale");
    }

    /// A write guard moves the repair epoch only when it mutated: a stale
    /// replicated write, which loses its last-writer-wins comparison, and a
    /// guard that only read must keep the cached repair trees valid —
    /// otherwise every no-op anti-entropy page would force a rebuild.
    #[test]
    fn stale_writes_leave_the_repair_epoch_unchanged() {
        let (_net, _db, broker, mut rng) = setup();
        let owner = PeerId::random(&mut rng);
        let origin = PeerId::random(&mut rng);
        let group = GroupId::new("math");
        let doc_type = "jxta:PipeAdvertisement";
        let epoch = |b: &Broker| b.repair_epoch.load(Ordering::Acquire);

        let before = epoch(&broker);
        assert!(broker.load_advertisement(owner, &group, doc_type, "<v2/>", (2, origin)));
        assert!(epoch(&broker) > before, "a winning write moves the epoch");

        let before = epoch(&broker);
        assert!(!broker.load_advertisement(owner, &group, doc_type, "<v1/>", (1, origin)));
        assert!(!broker.load_advertisement(owner, &group, doc_type, "<v2/>", (2, origin)));
        assert_eq!(
            epoch(&broker),
            before,
            "a stale write must not move the epoch"
        );

        let guard = broker.advertisements.write();
        assert_eq!(guard.len(), 1);
        drop(guard);
        assert_eq!(
            epoch(&broker),
            before,
            "a read-only write guard must not move the epoch"
        );
    }

    /// End-to-end sanity that the lock-order detector is live inside broker
    /// machinery: a normal workload populates the acquisition-order graph
    /// with broker lock classes and records no violations.
    #[test]
    fn lock_order_detector_observes_broker_classes() {
        let (_net, _db, broker, mut rng) = setup();
        let peer = PeerId::random(&mut rng);
        connect_and_login(&broker, peer, "alice", "pw-a");
        let publish = Message::new(MessageKind::PublishAdvertisement, peer, 3)
            .with_str("group", "math")
            .with_str("doc-type", "jxta:PipeAdvertisement")
            .with_str("xml", "<adv/>");
        broker.handle_message(&publish).unwrap();
        let edges = parking_lot::lock_order::graph_edges();
        assert!(
            edges
                .iter()
                .any(|(held, _)| held.starts_with("broker.")
                    || held.starts_with("groups.")
                    || held.starts_with("database.")),
            "no broker lock classes in the order graph: {edges:?}"
        );
        assert!(
            parking_lot::lock_order::violations()
                .iter()
                .all(|v| v.held.starts_with("test.")),
            "broker workload produced lock-order violations"
        );
    }

    #[test]
    fn connect_then_login_success() {
        let (_net, _db, broker, mut rng) = setup();
        let peer = PeerId::random(&mut rng);
        let resp = connect_and_login(&broker, peer, "alice", "pw-a");
        assert_eq!(resp.kind, MessageKind::LoginResponse);
        assert_eq!(resp.element_str("status").unwrap(), "ok");
        assert!(resp.element_str("groups").unwrap().contains("math"));
        assert_eq!(broker.session_count(), 1);
        assert!(broker.groups().is_member(&GroupId::new("math"), &peer));
        assert!(broker.groups().is_member(&GroupId::new("chem"), &peer));
    }

    #[test]
    fn login_requires_prior_connect() {
        let (_net, _db, broker, mut rng) = setup();
        let peer = PeerId::random(&mut rng);
        let login = Message::new(MessageKind::LoginRequest, peer, 1)
            .with_str("username", "alice")
            .with_str("password", "pw-a");
        let resp = broker.handle_message(&login).unwrap();
        assert_eq!(resp.element_str("status").unwrap(), "error");
        assert!(resp.element_str("reason").unwrap().contains("connect"));
    }

    #[test]
    fn login_with_wrong_password_fails() {
        let (_net, _db, broker, mut rng) = setup();
        let peer = PeerId::random(&mut rng);
        let resp = connect_and_login(&broker, peer, "alice", "wrong");
        assert_eq!(resp.element_str("status").unwrap(), "error");
        assert_eq!(broker.session_count(), 0);
    }

    #[test]
    fn login_with_missing_fields_fails() {
        let (_net, _db, broker, mut rng) = setup();
        let peer = PeerId::random(&mut rng);
        broker.handle_message(&Message::new(MessageKind::ConnectRequest, peer, 1));
        let login = Message::new(MessageKind::LoginRequest, peer, 2).with_str("username", "alice");
        let resp = broker.handle_message(&login).unwrap();
        assert_eq!(resp.element_str("status").unwrap(), "error");
    }

    #[test]
    fn publish_requires_login_and_membership() {
        let (_net, _db, broker, mut rng) = setup();
        let peer = PeerId::random(&mut rng);

        // Without login.
        let publish = Message::new(MessageKind::PublishAdvertisement, peer, 3)
            .with_str("group", "math")
            .with_str("doc-type", "jxta:PipeAdvertisement")
            .with_str("xml", "<x/>");
        let resp = broker.handle_message(&publish).unwrap();
        assert_eq!(resp.element_str("status").unwrap(), "error");

        // Logged in but publishing into a group the user is not a member of.
        connect_and_login(&broker, peer, "bob", "pw-b");
        let publish = Message::new(MessageKind::PublishAdvertisement, peer, 4)
            .with_str("group", "chem")
            .with_str("doc-type", "jxta:PipeAdvertisement")
            .with_str("xml", "<x/>");
        let resp = broker.handle_message(&publish).unwrap();
        assert_eq!(resp.element_str("status").unwrap(), "error");

        // Correct group succeeds.
        let publish = Message::new(MessageKind::PublishAdvertisement, peer, 5)
            .with_str("group", "math")
            .with_str("doc-type", "jxta:PipeAdvertisement")
            .with_str("xml", "<x/>");
        let resp = broker.handle_message(&publish).unwrap();
        assert_eq!(resp.element_str("status").unwrap(), "ok");
    }

    #[test]
    fn publish_pushes_to_other_group_members() {
        let (net, _db, broker, mut rng) = setup();
        let alice = PeerId::random(&mut rng);
        let bob = PeerId::random(&mut rng);
        // Bob needs a registered endpoint to receive the push.
        let bob_rx = net.register(bob);
        connect_and_login(&broker, alice, "alice", "pw-a");
        connect_and_login(&broker, bob, "bob", "pw-b");

        let publish = Message::new(MessageKind::PublishAdvertisement, alice, 9)
            .with_str("group", "math")
            .with_str("doc-type", "jxta:PipeAdvertisement")
            .with_str("xml", "<adv>alice</adv>");
        let resp = broker.handle_message(&publish).unwrap();
        assert_eq!(resp.element_str("status").unwrap(), "ok");
        assert_eq!(resp.element_str("pushed-to").unwrap(), "1");

        let pushed = bob_rx.try_recv().unwrap();
        let pushed_msg = Message::from_bytes(&pushed.payload).unwrap();
        assert_eq!(pushed_msg.kind, MessageKind::AdvertisementPush);
        assert_eq!(pushed_msg.element_str("xml").unwrap(), "<adv>alice</adv>");
    }

    #[test]
    fn lookup_filters_by_type_owner_and_membership() {
        let (_net, _db, broker, mut rng) = setup();
        let alice = PeerId::random(&mut rng);
        let bob = PeerId::random(&mut rng);
        connect_and_login(&broker, alice, "alice", "pw-a");
        connect_and_login(&broker, bob, "bob", "pw-b");

        broker.index_and_distribute(alice, &GroupId::new("math"), "jxta:PipeAdvertisement", "<a/>");
        broker.index_and_distribute(bob, &GroupId::new("math"), "jxta:PipeAdvertisement", "<b/>");
        broker.index_and_distribute(alice, &GroupId::new("math"), "jxta:FileAdvertisement", "<f/>");
        broker.index_and_distribute(alice, &GroupId::new("chem"), "jxta:PipeAdvertisement", "<c/>");

        // All pipe advertisements in math.
        let lookup = Message::new(MessageKind::LookupRequest, bob, 10)
            .with_str("group", "math")
            .with_str("doc-type", "jxta:PipeAdvertisement");
        let resp = broker.handle_message(&lookup).unwrap();
        assert_eq!(resp.element_str("count").unwrap(), "2");

        // Restricted to one owner.
        let lookup = Message::new(MessageKind::LookupRequest, bob, 11)
            .with_str("group", "math")
            .with_str("doc-type", "jxta:PipeAdvertisement")
            .with_str("owner", &alice.to_urn());
        let resp = broker.handle_message(&lookup).unwrap();
        assert_eq!(resp.element_str("count").unwrap(), "1");
        assert_eq!(resp.element_str("adv-0").unwrap(), "<a/>");

        // Bob is not in chem, so lookups there are rejected.
        let lookup = Message::new(MessageKind::LookupRequest, bob, 12)
            .with_str("group", "chem")
            .with_str("doc-type", "jxta:PipeAdvertisement");
        let resp = broker.handle_message(&lookup).unwrap();
        assert_eq!(resp.element_str("status").unwrap(), "error");
    }

    #[test]
    fn lookup_unknown_group_returns_empty() {
        let (_net, _db, broker, _rng) = setup();
        assert!(broker.lookup(&GroupId::new("ghost"), "jxta:PipeAdvertisement", None).is_empty());
    }

    #[test]
    fn secure_kinds_rejected_without_extension() {
        let (_net, _db, broker, mut rng) = setup();
        let peer = PeerId::random(&mut rng);
        let msg = Message::new(MessageKind::SecureConnectChallenge, peer, 1);
        let resp = broker.handle_message(&msg).unwrap();
        assert_eq!(resp.element_str("status").unwrap(), "error");
        assert!(resp.element_str("reason").unwrap().contains("not enabled"));
    }

    struct EchoExtension;
    impl BrokerExtension for EchoExtension {
        fn handle(&self, broker: &Broker, message: &Message) -> Option<Message> {
            Some(
                Message::new(MessageKind::SecureConnectResponse, broker.id(), message.request_id)
                    .with_str("status", "ok"),
            )
        }
    }

    #[test]
    fn extension_receives_secure_kinds() {
        let (_net, _db, broker, mut rng) = setup();
        broker.set_extension(Arc::new(EchoExtension));
        let peer = PeerId::random(&mut rng);
        let msg = Message::new(MessageKind::SecureConnectChallenge, peer, 1);
        let resp = broker.handle_message(&msg).unwrap();
        assert_eq!(resp.kind, MessageKind::SecureConnectResponse);
        assert_eq!(resp.element_str("status").unwrap(), "ok");
    }

    #[test]
    fn unsupported_kind_is_rejected() {
        let (_net, _db, broker, mut rng) = setup();
        let peer = PeerId::random(&mut rng);
        let msg = Message::new(MessageKind::PeerText, peer, 1).with_str("text", "hi broker");
        let resp = broker.handle_message(&msg).unwrap();
        assert_eq!(resp.kind, MessageKind::Ack);
        assert_eq!(resp.element_str("status").unwrap(), "error");
    }

    #[test]
    fn drop_session_removes_memberships() {
        let (_net, _db, broker, mut rng) = setup();
        let peer = PeerId::random(&mut rng);
        connect_and_login(&broker, peer, "alice", "pw-a");
        assert!(broker.session(&peer).is_some());
        broker.drop_session(&peer);
        assert!(broker.session(&peer).is_none());
        assert!(!broker.is_connected(&peer));
        assert!(!broker.groups().is_member(&GroupId::new("math"), &peer));
    }

    #[test]
    fn peer_broker_registration_is_idempotent_and_excludes_self() {
        let (_net, _db, broker, mut rng) = setup();
        let other = PeerId::random(&mut rng);
        broker.add_peer_broker(other);
        broker.add_peer_broker(other);
        broker.add_peer_broker(broker.id());
        assert_eq!(broker.peer_brokers(), vec![other]);
        assert!(broker.is_peer_broker(&other));
        assert!(!broker.is_peer_broker(&broker.id()));
    }

    #[test]
    fn sync_from_unknown_origin_is_rejected() {
        let (net, _db, broker, mut rng) = setup();
        let rogue = PeerId::random(&mut rng);
        let rogue_inbox = net.register(rogue);
        let peer = PeerId::random(&mut rng);
        let sync = Message::new(MessageKind::BrokerSync, rogue, 0)
            .with_str("op", "join")
            .with_str("peer", &peer.to_urn())
            .with_str("groups", "math")
            .with_str("seq", "1");
        deliver(&broker, rogue, &sync);
        assert!(rogue_inbox.try_recv().is_err(), "gossip is never acked");
        assert_eq!(broker.federation_stats().rejected_unknown_origin, 1);
        assert!(broker.home_of(&peer).is_none(), "nothing was applied");
    }

    #[test]
    fn replayed_sync_is_rejected_and_not_reapplied() {
        let (_net, _db, broker, mut rng) = setup();
        let origin = PeerId::random(&mut rng);
        let peer = PeerId::random(&mut rng);
        broker.add_peer_broker(origin);
        let sync = Message::new(MessageKind::BrokerSync, origin, 0)
            .with_str("op", "join")
            .with_str("peer", &peer.to_urn())
            .with_str("groups", "math,chem")
            .with_str("seq", "1");
        deliver(&broker, origin, &sync);
        assert_eq!(broker.federation_stats().syncs_applied, 1);
        assert_eq!(broker.home_of(&peer), Some(origin));
        assert!(broker.groups().is_member(&GroupId::new("math"), &peer));

        // Replaying the captured gossip verbatim changes nothing.
        let routing_before = broker.routing_snapshot();
        deliver(&broker, origin, &sync);
        assert_eq!(broker.federation_stats().rejected_replayed, 1);
        assert_eq!(broker.federation_stats().syncs_applied, 1);
        assert_eq!(broker.routing_snapshot(), routing_before);
    }

    #[test]
    fn replicated_publish_fills_index_and_leave_clears_membership() {
        let (_net, _db, broker, mut rng) = setup();
        let origin = PeerId::random(&mut rng);
        let owner = PeerId::random(&mut rng);
        broker.add_peer_broker(origin);
        let publish = Message::new(MessageKind::BrokerSync, origin, 0)
            .with_str("op", "publish")
            .with_str("group", "math")
            .with_str("doc-type", "jxta:PipeAdvertisement")
            .with_str("owner", &owner.to_urn())
            .with_str("xml", "<remote/>")
            .with_str("seq", "1");
        deliver(&broker, origin, &publish);
        assert_eq!(
            broker.lookup(&GroupId::new("math"), "jxta:PipeAdvertisement", Some(owner)),
            vec!["<remote/>".to_string()]
        );

        let join = Message::new(MessageKind::BrokerSync, origin, 0)
            .with_str("op", "join")
            .with_str("peer", &owner.to_urn())
            .with_str("groups", "math")
            .with_str("seq", "2");
        deliver(&broker, origin, &join);
        assert!(broker.groups().is_member(&GroupId::new("math"), &owner));
        let leave = Message::new(MessageKind::BrokerSync, origin, 0)
            .with_str("op", "leave")
            .with_str("peer", &owner.to_urn())
            .with_str("seq", "3");
        deliver(&broker, origin, &leave);
        assert!(!broker.groups().is_member(&GroupId::new("math"), &owner));
        assert!(broker.home_of(&owner).is_none());
        assert_eq!(broker.federation_stats().syncs_applied, 3);
    }

    #[test]
    fn anti_entropy_traffic_from_unknown_origin_is_rejected() {
        let (net, _db, broker, mut rng) = setup();
        let rogue = PeerId::random(&mut rng);
        let rogue_inbox = net.register(rogue);
        let digest = Message::new(MessageKind::AntiEntropyDigest, rogue, 0)
            .with_str("seq", "1")
            .with_str("a-hash", "1")
            .with_str("m-hash", "2")
            .with_str("p-hash", "3")
            .with_str("x-hash", "4");
        deliver(&broker, rogue, &digest);
        assert!(rogue_inbox.try_recv().is_err(), "digests are never acked");
        assert_eq!(broker.federation_stats().rejected_unknown_origin, 1);

        // A forged snapshot from outside the federation applies nothing.
        let owner = PeerId::random(&mut rng);
        let snapshot = Message::new(MessageKind::AntiEntropySnapshot, rogue, 0)
            .with_str("seq", "2")
            .with_str("want", "")
            .with_str("a-count", "1")
            .with_str("a0-group", "math")
            .with_str("a0-owner", &owner.to_urn())
            .with_str("a0-type", "jxta:PipeAdvertisement")
            .with_str("a0-xml", "<forged/>")
            .with_str("a0-vseq", "9")
            .with_str("a0-vorigin", &rogue.to_urn());
        deliver(&broker, rogue, &snapshot);
        assert_eq!(broker.federation_stats().rejected_unknown_origin, 2);
        assert!(broker.advertisement_snapshot().is_empty());
        assert_eq!(broker.federation_stats().entries_repaired, 0);
    }

    /// The admission gate covers every inter-broker kind, three ways: from
    /// an unadmitted origin, from an admitted origin arriving over another
    /// peer's link, and with a replayed sequence number.  Each is counted
    /// under the right rejection, changes no replicated state, is never
    /// answered, and still counts as processed (or quiescence would break).
    #[test]
    fn admission_gate_rejects_every_inter_broker_kind() {
        let (net, _db, broker, mut rng) = setup();
        let origin = PeerId::random(&mut rng);
        let other = PeerId::random(&mut rng);
        let rogue = PeerId::random(&mut rng);
        let owner = PeerId::random(&mut rng);
        broker.add_peer_broker(origin);
        broker.add_peer_broker(other);
        let inboxes = [
            net.register(origin),
            net.register(other),
            net.register(rogue),
        ];
        // Raise the origin's replay floor: sequence number 100 is stale now.
        let prune = Message::new(MessageKind::PlumtreePrune, origin, 0).with_str("seq", "100");
        deliver(&broker, origin, &prune);
        // Applied, this payload would re-home `owner` (as a single-event
        // join) and index an advertisement (as a snapshot's a-section).
        let hostile = |kind: MessageKind, sender: PeerId, seq: &str| {
            Message::new(kind, sender, 0)
                .with_str("seq", seq)
                .with_str("op", "join")
                .with_str("peer", &owner.to_urn())
                .with_str("groups", "math")
                .with_str("want", "")
                .with_str("a-count", "1")
                .with_str("a0-group", "math")
                .with_str("a0-owner", &owner.to_urn())
                .with_str("a0-type", "jxta:PipeAdvertisement")
                .with_str("a0-xml", "<forged/>")
                .with_str("a0-vseq", "9")
                .with_str("a0-vorigin", &sender.to_urn())
        };
        let state = |b: &Broker| {
            (
                b.advertisement_snapshot(),
                b.routing_snapshot(),
                b.groups().snapshot(),
                b.repair_presence_entries(),
                b.repair_epoch.load(Ordering::Acquire),
            )
        };
        let kinds: Vec<MessageKind> = (0..=255u8)
            .filter_map(MessageKind::from_u8)
            .filter(|kind| kind.is_inter_broker())
            .collect();
        assert_eq!(kinds.len(), 15);
        for kind in kinds {
            let cases = [
                (rogue, hostile(kind, rogue, "101"), 1, 0),
                (other, hostile(kind, origin, "101"), 1, 0),
                (origin, hostile(kind, origin, "100"), 0, 1),
            ];
            for (from, message, unknown_origin, replayed) in cases {
                let stats = broker.federation_stats();
                let before = state(&broker);
                let processed = broker.processed_count();
                deliver(&broker, from, &message);
                let after = broker.federation_stats();
                assert_eq!(
                    (
                        after.rejected_unknown_origin - stats.rejected_unknown_origin,
                        after.rejected_replayed - stats.rejected_replayed,
                    ),
                    (unknown_origin, replayed),
                    "{kind:?} from {from:?}: wrong rejection counted"
                );
                assert_eq!(
                    state(&broker),
                    before,
                    "{kind:?} from {from:?}: state changed"
                );
                assert_eq!(
                    broker.processed_count(),
                    processed + 1,
                    "{kind:?}: not processed"
                );
            }
        }
        assert!(
            inboxes.iter().all(|inbox| inbox.try_recv().is_err()),
            "rejections are silent"
        );
        // Control: admitted, the same payload does change the state.
        let before = state(&broker);
        deliver(
            &broker,
            origin,
            &hostile(MessageKind::BrokerSync, origin, "101"),
        );
        assert_ne!(state(&broker), before);
        assert_eq!(broker.home_of(&owner), Some(origin));
    }

    /// Every decoder loop driven by a wire count stops at the elements the
    /// message carries: a forged count of 10⁶ on a handful of elements costs
    /// a handful of element lookups, where an uncapped loop costs at least
    /// one lookup per claimed entry.
    #[test]
    fn forged_entry_counts_are_capped_by_element_count() {
        let (_net, _db, broker, mut rng) = setup();
        let origin = PeerId::random(&mut rng);
        let client = PeerId::random(&mut rng);
        broker.add_peer_broker(origin);
        // A routed lookup awaiting its replica, so the shard response's
        // result loop runs.
        broker.pending_lookups.lock().insert(
            7,
            PendingLookup {
                client,
                client_request: 1,
                remaining: 1,
                adv_results: BTreeMap::new(),
                is_member: false,
                membership: false,
            },
        );
        let forged = "1000000";
        let messages = [
            Message::new(MessageKind::BrokerSync, origin, 0).with_str("count", forged),
            Message::new(MessageKind::PlumtreeIHave, origin, 0).with_str("count", forged),
            Message::new(MessageKind::PlumtreeGraft, origin, 0).with_str("count", forged),
            Message::new(MessageKind::AntiEntropySnapshot, origin, 0)
                .with_str("want", "")
                .with_str("p-count", forged)
                .with_str("m-count", forged)
                .with_str("a-count", forged),
            Message::new(MessageKind::ShardResponse, origin, 0)
                .with_str("query", "7")
                .with_str("count", forged),
        ];
        for (seq, message) in messages.into_iter().enumerate() {
            let message = message.with_str("seq", &(seq + 1).to_string());
            let elements = message.element_count() as u64;
            let before = crate::message::scan_probe::visited();
            deliver(&broker, origin, &message);
            let visited = crate::message::scan_probe::visited() - before;
            assert!(
                visited <= 64 * elements,
                "{:?}: {visited} element lookups for {elements} elements",
                message.kind
            );
        }
        let stats = broker.federation_stats();
        assert_eq!(
            (stats.rejected_unknown_origin, stats.rejected_replayed),
            (0, 0),
            "every forged message must reach its decoder"
        );
        assert!(
            broker.pending_lookups.lock().is_empty(),
            "the shard response was decoded"
        );
    }

    /// Regression: merging an n-entry snapshot must stay O(n) element
    /// visits.  The old merge resolved every `a{i}-*` name with the linear
    /// `Message::element` scan — ~1.8 × 10⁹ visits for the 10⁴ entries
    /// below; the indexed merge needs only the handful of whole-message
    /// scans outside the per-entry loop.
    #[test]
    fn merging_large_snapshot_is_linear_in_element_visits() {
        let (_net, _db, broker, mut rng) = setup();
        let origin = PeerId::random(&mut rng);
        broker.add_peer_broker(origin);
        let entries = 10_000usize;
        let mut snapshot = Message::new(MessageKind::AntiEntropySnapshot, origin, 0)
            .with_str("want", "")
            .with_str("a-count", &entries.to_string());
        for i in 0..entries {
            let owner = PeerId::random(&mut rng);
            snapshot.push_element(format!("a{i}-group"), b"math".to_vec());
            snapshot.push_element(format!("a{i}-owner"), owner.to_urn().into_bytes());
            snapshot.push_element(format!("a{i}-type"), b"jxta:PipeAdvertisement".to_vec());
            snapshot.push_element(format!("a{i}-xml"), format!("<adv-{i}/>").into_bytes());
            snapshot.push_element(format!("a{i}-vseq"), b"1".to_vec());
            snapshot.push_element(format!("a{i}-vorigin"), origin.to_urn().into_bytes());
        }
        let before = crate::message::scan_probe::visited();
        let repaired = broker.merge_repair_snapshot(origin, &snapshot);
        let visited = crate::message::scan_probe::visited() - before;
        assert_eq!(repaired, entries as u64);
        // A generous linear bound (the message holds ~60 000 elements, so a
        // few whole-message scans are expected); the quadratic merge clocks
        // in three orders of magnitude above it.
        assert!(
            visited < 2_000_000,
            "merge visited {visited} elements for {entries} entries — \
             the O(n²) linear-scan merge is back"
        );
    }

    #[test]
    fn relay_to_locally_homed_peer_delivers_payload() {
        let (net, _db, broker, mut rng) = setup();
        let alice = PeerId::random(&mut rng);
        let bob = PeerId::random(&mut rng);
        let bob_rx = net.register(bob);
        connect_and_login(&broker, alice, "alice", "pw-a");
        connect_and_login(&broker, bob, "bob", "pw-b");

        let inner = Message::new(MessageKind::PeerText, alice, 7)
            .with_str("group", "math")
            .with_str("text", "via broker");
        let relay = Message::new(MessageKind::RelayViaBroker, alice, 8)
            .with_str("to", &bob.to_urn())
            .with_element("payload", inner.to_bytes());
        let resp = broker.handle_message(&relay).unwrap();
        assert_eq!(resp.element_str("status").unwrap(), "ok");
        assert_eq!(resp.element_str("route").unwrap(), "local");

        let delivered = bob_rx.try_recv().unwrap();
        let delivered = Message::from_bytes(&delivered.payload).unwrap();
        assert_eq!(delivered, inner, "the relayed payload arrives unmodified");
        assert_eq!(broker.federation_stats().relays_delivered, 1);
    }

    #[test]
    fn relay_requires_login_and_known_destination() {
        let (_net, _db, broker, mut rng) = setup();
        let alice = PeerId::random(&mut rng);
        let stranger = PeerId::random(&mut rng);

        let relay = Message::new(MessageKind::RelayViaBroker, alice, 1)
            .with_str("to", &stranger.to_urn())
            .with_element("payload", b"x".to_vec());
        let resp = broker.handle_message(&relay).unwrap();
        assert_eq!(resp.element_str("status").unwrap(), "error");
        assert!(resp.element_str("reason").unwrap().contains("login"));

        connect_and_login(&broker, alice, "alice", "pw-a");
        let relay = Message::new(MessageKind::RelayViaBroker, alice, 2)
            .with_str("to", &stranger.to_urn())
            .with_element("payload", b"x".to_vec());
        let resp = broker.handle_message(&relay).unwrap();
        assert_eq!(resp.element_str("status").unwrap(), "error");
        assert!(resp.element_str("reason").unwrap().contains("unknown destination"));
        assert_eq!(broker.federation_stats().relays_failed, 1);
    }

    #[test]
    fn spawned_broker_answers_over_the_network() {
        let (net, _db, broker, mut rng) = setup();
        let handle = broker.spawn();
        let peer = PeerId::random(&mut rng);
        let rx = net.register(peer);

        let connect = Message::new(MessageKind::ConnectRequest, peer, 77);
        net.send(peer, handle.id(), connect.to_bytes()).unwrap();
        let reply = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        let reply_msg = Message::from_bytes(&reply.payload).unwrap();
        assert_eq!(reply_msg.kind, MessageKind::ConnectResponse);
        assert_eq!(reply_msg.request_id, 77);
        handle.shutdown();
    }

    #[test]
    fn undecodable_traffic_is_ignored_by_running_broker() {
        let (net, _db, broker, mut rng) = setup();
        let handle = broker.spawn();
        let peer = PeerId::random(&mut rng);
        let rx = net.register(peer);
        net.send(peer, handle.id(), b"garbage".to_vec()).unwrap();
        // A valid message afterwards still gets served.
        let connect = Message::new(MessageKind::ConnectRequest, peer, 1);
        net.send(peer, handle.id(), connect.to_bytes()).unwrap();
        let reply = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(Message::from_bytes(&reply.payload).unwrap().kind, MessageKind::ConnectResponse);
        handle.shutdown();
    }
}
