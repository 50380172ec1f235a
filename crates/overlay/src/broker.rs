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
//!
//! # Where the state lives
//!
//! * The **replica** (`crate::replica::Replica`, lock `broker.replica`):
//!   everything replicated or repaired — advertisements, sessions, routing
//!   and presence versions, membership and its stamps, group hosts, the
//!   shard ring, with the anti-entropy summaries its writers keep current.
//! * The **fabric** (`crate::fabric::Fabric`, lock `broker.fabric`):
//!   admission, membership (derived view, SWIM) and dissemination (Plumtree,
//!   the gossip and `IHave` queues), kept in step with the view by itself.
//! * The **endpoint** (`crate::endpoint::Endpoint`, lock `broker.send_lock`)
//!   owns the network handle; no other broker code holds one.  Backbone
//!   messages leave through it stamped with the next sequence number, in
//!   allocation order, and counted by kind; replies, pushes and relay leaves
//!   leave through its client paths, which refuse inter-broker kinds.
//! * The ingress **pipeline** (see [`Broker::spawn`]) has its own locks; the
//!   broker keeps the extension slot and pending shard lookups.
//! * The lock-free sequence clock (`crate::counter`) stamps messages and
//!   local writes; that module's rule keeps every counter sent in range.
//!
//! Lock discipline: hold at most one of `replica` and `fabric`, and neither
//! across a send, an extension hook or an endpoint call.  A replica
//! transition returns what must be gossiped or pushed, and the broker ships
//! it after releasing the guard — so there is no order between the two
//! locks to get wrong.  The endpoint takes `broker.send_lock` before the
//! network's `net.*` locks, and nothing else while holding it.

use crate::counter::{self, SyncClock};
use crate::database::UserDatabase;
use crate::endpoint::Endpoint;
use crate::fabric::Fabric;
use crate::group::{GroupId, GroupRegistry};
use crate::id::PeerId;
use crate::message::{Message, MessageKind};
use crate::metrics::{FederationMetrics, FederationStats, PipelineMetrics, PipelineStats};
use crate::net::{NetMessage, SimNetwork};
use crate::plumtree::GossipId;
use crate::record::{self, GossipBody, GossipEvent, Record, SwimVerdict};
use crate::repair::extension_hash;
use crate::replica::{
    FlatEntry, JoinGossip, MembershipEntry, PresenceEntry, PresenceVersion, Replica, PRESENCE_JOIN,
};
use crate::shard::{self, NodeSummary, SectionTree};
use parking_lot::{Mutex, RwLock};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
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

    /// Pins the membership layer's active-view capacity (the routing
    /// degree).  Tests use small capacities to engage the epidemic fabric
    /// in small federations; production brokers keep the default.
    pub fn with_view_capacities(mut self, active: usize) -> Self {
        self.active_view = active;
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
/// outright is cheaper than another narrowing leg.  A leg lists the entry
/// hashes of every advertisement child at or below it, so the page for
/// that child can skip what the leg's sender holds already.
const REPAIR_PAGE_ENTRIES: u64 = 256;

/// Size of an anti-entropy digest's one `digests` element: the
/// advertisement, membership, presence and extension digests as four 8-byte
/// hash records.
const DIGEST_BYTES: usize = 4 * 8;

/// Entries per range-scoped snapshot page.  Pages bound the size of a repair
/// message: healing a million-entry divergence ships many pages, never one
/// million-entry `Message`.
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
/// the single-router invariant the lane routing and barriers rely on.
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
    /// The only way onto the network (see `crate::endpoint`).
    endpoint: Endpoint,
    database: Arc<UserDatabase>,
    /// Replicated state and its repair summaries (see the module docs).
    replica: RwLock<Replica>,
    /// Admission, membership and dissemination state (see the module docs).
    fabric: Mutex<Fabric>,
    extension: RwLock<Option<Arc<dyn BrokerExtension>>>,
    /// Sequence number stamped on outgoing inter-broker messages (shared
    /// with the endpoint and the replica, which versions local writes
    /// with it).
    sync_seq: Arc<SyncClock>,
    /// Federation activity counters.
    federation: FederationMetrics,
    /// Ingress-pipeline activity counters (all zero without a pipeline).
    pipeline: PipelineMetrics,
    /// Lookups routed to remote shard replicas, keyed by query identifier.
    pending_lookups: Mutex<HashMap<u64, PendingLookup>>,
    /// Next shard-query identifier.
    next_query: AtomicU64,
    /// Network messages fully processed by this broker (monotone; compared
    /// against [`Broker::delivered_count`] for quiescence detection).
    processed: AtomicU64,
}

impl Broker {
    /// Creates a broker with the given identifier.
    pub fn new(
        id: PeerId,
        config: BrokerConfig,
        network: Arc<SimNetwork>,
        database: Arc<UserDatabase>,
    ) -> Arc<Self> {
        let sync_seq = Arc::new(SyncClock::default());
        let replica = Replica::new(id, config.replication_factor, Arc::clone(&sync_seq));
        Arc::new(Broker {
            id,
            replica: RwLock::with_class("broker.replica", replica),
            fabric: Mutex::with_class("broker.fabric", Fabric::new(id, &config)),
            config,
            endpoint: Endpoint::new(id, network, Arc::clone(&sync_seq)),
            database,
            extension: RwLock::with_class("broker.extension", None),
            sync_seq,
            federation: FederationMetrics::new(),
            pipeline: PipelineMetrics::new(),
            pending_lookups: Mutex::with_class("broker.pending_lookups", HashMap::new()),
            next_query: AtomicU64::new(1),
            processed: AtomicU64::new(0),
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

    /// The central user database (brokers are the only entities allowed to
    /// touch it).
    pub fn database(&self) -> &Arc<UserDatabase> {
        &self.database
    }

    /// A snapshot of the broker's group registry.
    pub fn groups(&self) -> GroupRegistry {
        self.replica.read().groups().clone()
    }

    /// Installs the security extension.
    pub fn set_extension(&self, extension: Arc<dyn BrokerExtension>) {
        *self.extension.write() = Some(extension);
    }

    /// The installed extension, cloned out so no lock is held while it runs.
    fn extension(&self) -> Option<Arc<dyn BrokerExtension>> {
        self.extension.read().clone()
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
        if self.fabric.lock().admit(broker) {
            self.replica.write().admit_broker(broker);
        }
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
        self.fabric.lock().forget(broker);
        self.replica.write().remove_broker(broker);
        let stranded = std::mem::take(&mut *self.pending_lookups.lock());
        for state in stranded.into_values() {
            self.finish_pending_lookup(state);
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
        self.replica.read().replicas(group, owner)
    }

    /// Number of advertisements currently held in the local index (the
    /// quantity the sharding experiments show dropping from O(total) to
    /// O(total·K/N) per broker).
    pub fn advertisement_entry_count(&self) -> usize {
        self.replica.read().advertisement_count()
    }

    /// The other brokers of the federation this broker gossips with.
    pub fn peer_brokers(&self) -> Vec<PeerId> {
        self.fabric.lock().peers().to_vec()
    }

    /// Returns `true` if `peer` is a known peer broker of the federation.
    pub fn is_peer_broker(&self, peer: &PeerId) -> bool {
        self.fabric.lock().is_admitted(peer)
    }

    /// Whether the epidemic fabric is active: the broker is not pinned to
    /// full mesh and the known peer set has outgrown the active-view
    /// capacity, so the view is a strict subset and broadcasts must be
    /// forwarded.  The predicate depends only on configuration and the
    /// (replicated) peer count, so every broker of a federation reaches the
    /// same answer — which the forwarding protocol needs: a broker that
    /// pushed eagerly must be able to rely on its neighbours pushing onward.
    pub fn epidemic_engaged(&self) -> bool {
        self.fabric.lock().engaged()
    }

    /// The membership layer's current active view (complete below the view
    /// capacity), for tests and diagnostics.
    pub fn active_view(&self) -> Vec<PeerId> {
        self.fabric.lock().active()
    }

    /// The Plumtree eager (tree) edges, for tests and diagnostics.
    pub fn epidemic_eager_peers(&self) -> Vec<PeerId> {
        self.fabric.lock().eager()
    }

    /// The Plumtree lazy (digest-only) edges, for tests and diagnostics.
    pub fn epidemic_lazy_peers(&self) -> Vec<PeerId> {
        self.fabric.lock().lazy()
    }

    /// The brokers hosting at least one live member of `group`, per the
    /// replicated join/leave digest (never includes this broker itself).
    pub fn group_host_brokers(&self, group: &GroupId) -> Vec<PeerId> {
        self.replica.read().group_host_brokers(group)
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
        self.replica.read().client_peers()
    }

    /// The broker a peer is homed at: this broker for local sessions, the
    /// gossip-replicated home broker for peers joined elsewhere.
    pub fn home_of(&self, peer: &PeerId) -> Option<PeerId> {
        self.replica.read().home_of(peer)
    }

    /// Deterministic snapshot of the advertisement index, used by the
    /// federation's replication-convergence checks.
    pub fn advertisement_snapshot(&self) -> Vec<(GroupId, PeerId, String, String)> {
        self.replica.read().advertisements_with(|xml, _| xml.to_string())
    }

    /// Like [`Broker::advertisement_snapshot`] but reporting each entry's
    /// last-writer-wins version instead of its XML — what the repair tests
    /// use to prove anti-entropy never regresses a newer write.
    pub fn advertisement_versions(&self) -> Vec<(GroupId, PeerId, String, (u64, PeerId))> {
        self.replica.read().advertisements_with(|_, version| version)
    }

    /// Deterministic snapshot of the peer→home-broker routing table (local
    /// sessions map to this broker itself).
    pub fn routing_snapshot(&self) -> Vec<(PeerId, PeerId)> {
        self.replica.read().routing_snapshot()
    }

    /// Returns `true` if `peer` completed the connect step.
    pub fn is_connected(&self, peer: &PeerId) -> bool {
        self.replica.read().is_connected(peer)
    }

    /// Returns the session of a logged-in peer.
    pub fn session(&self, peer: &PeerId) -> Option<BrokerSession> {
        self.replica.read().session(peer).cloned()
    }

    /// Number of logged-in peers.
    pub fn session_count(&self) -> usize {
        self.replica.read().session_count()
    }

    /// Marks a peer as connected (used by both the plain handler and the
    /// secure extension).
    pub fn mark_connected(&self, peer: PeerId) {
        self.replica.write().mark_connected(peer);
    }

    /// Records a successful login and joins the user's groups.  Returns the
    /// created session and replicates it to the federation (the peer is now
    /// homed here).
    pub fn establish_session(&self, peer: PeerId, username: &str) -> BrokerSession {
        let session = BrokerSession {
            username: username.to_string(),
            groups: self.database.groups_of(username),
        };
        let join = self.replica.write().establish_session(peer, session.clone());
        self.gossip_joins(vec![join]);
        self.flush_gossip();
        session
    }

    /// Removes a peer's session and group memberships (logout / departure)
    /// and replicates the departure to the federation.
    pub fn drop_session(&self, peer: &PeerId) {
        let Some(seq) = self.replica.write().drop_session(peer) else {
            return;
        };
        self.gossip_to_all(self.event(seq, GossipBody::Leave(*peer)));
        self.flush_gossip();
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
        let seq = self.sync_seq.next();
        let (members, sharded_targets) = {
            let mut replica = self.replica.write();
            let members = replica.publish(from, group, doc_type, xml, (seq, self.id));
            let targets = self.is_sharded().then(|| replica.publish_targets(group, &from));
            (members, targets)
        };
        let pushed =
            members.map_or(0, |members| self.push_advertisement(&members, group, doc_type, xml));
        let body = GossipBody::Publish(group.clone(), from, doc_type.to_string(), xml.to_string());
        let event = self.event(seq, body);
        let fanout = match sharded_targets {
            Some(targets) => {
                self.fabric.lock().queue(&targets, event);
                targets.len()
            }
            None => self.gossip_to_all(event),
        };
        self.federation.count_publish_fanout(fanout as u64);
        self.flush_gossip();
        pushed
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
        self.replica
            .write()
            .store_advertisement(owner, group, doc_type, xml, version)
    }

    /// Pushes an advertisement to the given locally homed group members.
    /// Returns the number of peers pushed to.
    fn push_advertisement(
        &self,
        members: &[PeerId],
        group: &GroupId,
        doc_type: &str,
        xml: &str,
    ) -> usize {
        // Nothing to build for a publish no local member hears.
        if members.is_empty() {
            return 0;
        }
        let push = Message::new(MessageKind::AdvertisementPush, self.id, 0)
            .with_str("group", group.as_str())
            .with_str("doc-type", doc_type)
            .with_str("xml", xml);
        self.endpoint.to_clients(members, &push)
    }

    // ------------------------------------------------------------------
    // Federation gossip
    // ------------------------------------------------------------------

    /// Sends a backbone message to the peer broker `to` through the
    /// endpoint, which stamps its sequence number and counts it by kind.
    /// Returns whether the send succeeded.
    fn to_broker(&self, to: PeerId, message: Message) -> bool {
        self.endpoint.to_broker(to, message, Duration::ZERO, &self.federation).is_some()
    }

    /// A gossip event this broker versions at `seq`.
    fn event(&self, seq: u64, body: GossipBody) -> GossipEvent {
        GossipEvent { seq, origin: self.id, broadcast: false, repair: false, body }
    }

    /// Queues a broadcast gossip event and returns the origin's fan-out (see
    /// `Fabric::broadcast`; receivers forward it in [`Broker::handle_sync`]).
    fn gossip_to_all(&self, event: GossipEvent) -> usize {
        self.fabric.lock().broadcast(event, &self.federation)
    }

    /// Queues the joins a replica transition handed back for every peer: the
    /// routing update is fully replicated in both modes (receivers apply the
    /// membership part only for entries they own).  The caller flushes.
    fn gossip_joins(&self, joins: Vec<JoinGossip>) {
        for join in joins {
            self.gossip_to_all(self.event(join.seq, GossipBody::Join(join.peer, join.groups)));
        }
    }

    /// Ships every queued gossip event: one `BrokerSync` digest per
    /// destination, however many events accumulated for it, its events
    /// encoded by [`record::sync_message`].  Every public
    /// operation that gossips flushes before returning (so a single publish
    /// still costs a single message, exactly as before), but an operation
    /// that produces many events — a shard migration, a batched sync
    /// application — pays one backbone message per destination instead of
    /// one per event.
    pub fn flush_gossip(&self) {
        let batches = self.fabric.lock().take_outbox();
        for (destination, events) in batches {
            self.to_broker(destination, record::sync_message(self.id, &events));
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
        let ihaves = self.fabric.lock().take_ihaves();
        for (destination, gids) in ihaves {
            // Per-publish flushing would have shipped each id in its own
            // digest; coalescing n ids saves n-1 sends to this destination.
            self.federation
                .count_ihave_digests_saved(gids.len().saturating_sub(1) as u64);
            let digest = self.gossip_id_digest(MessageKind::PlumtreeIHave, &gids);
            self.to_broker(destination, digest);
        }
    }

    /// Admission control for inter-broker traffic, run once per message by
    /// [`Broker::process_net`] before any inter-broker handler: the origin
    /// must be a known peer broker, it must match the transport-level sender
    /// `from`, and the sequence number must be fresh and in range (see
    /// [`counter::parse`]).  Rejections are counted (they are what the
    /// cross-broker attack tests assert on).
    ///
    /// This models the connection-oriented trust of a real backbone (a
    /// broker knows which TLS/TCP link a message arrived on); an adversary
    /// spoofing *both* identities is only stopped by the end-to-end
    /// cryptography of the secure extension, never by the overlay.
    fn accept_from_peer_broker(&self, origin: PeerId, from: PeerId, seq: Option<String>) -> bool {
        let seq = seq.as_deref().and_then(counter::parse);
        self.fabric.lock().admit_message(origin, from, seq, &self.sync_seq, &self.federation)
    }

    /// Applies one admitted gossip digest to local state: the events
    /// [`record::sync_message`] encoded, each carrying its own version `seq`
    /// and origin.  An event that fails to decode is dropped (see
    /// `crate::record`) before anything is relayed, cached, announced or
    /// applied, so a malformed event stops at its first hop.
    fn handle_sync(&self, message: &Message) {
        let sender = message.sender;
        let epidemic = self.epidemic_engaged();
        let mut broadcasts = 0usize;
        let mut duplicates = 0usize;
        for event in record::sync_events(message) {
            // Epidemic bookkeeping first: a broadcast event is deduplicated
            // on the seen-set by its gossip id, cached for grafts, and
            // re-queued onward.
            if epidemic && event.broadcast {
                // Only a publish's own eager wave votes on pruning: a repair
                // copy (flagged by the graft that pulled it) crosses lazy
                // edges and the tree alike.
                let unflagged = !event.repair;
                broadcasts += usize::from(unflagged);
                if !self.fabric.lock().relay(&event, sender, &self.federation) {
                    duplicates += usize::from(unflagged);
                    continue;
                }
            }
            self.apply_sync_event(event);
        }
        // A digest whose unflagged broadcasts were all seen already means
        // this edge duplicates the tree: demote it to lazy and tell the
        // sender to prune its side too.
        if epidemic && broadcasts > 0 && duplicates == broadcasts {
            self.fabric.lock().prune(sender);
            self.to_broker(sender, Message::new(MessageKind::PlumtreePrune, self.id, 0));
        }
        // Applying events may have re-asserted live local sessions; ship the
        // resulting gossip (and any forwarded broadcasts) in one digest per
        // destination.
        self.flush_gossip();
    }

    /// Applies a single replicated write or SWIM verdict, versioned `(seq,
    /// origin)`.
    fn apply_sync_event(&self, event: GossipEvent) {
        let version = (event.seq, event.origin);
        let mut joins = Vec::new();
        let applied = match event.body {
            GossipBody::Publish(group, owner, doc_type, xml) => {
                // A broker outside the replica set can still receive the
                // publish: group-aware routing addresses member-hosting
                // brokers so they push to their local members.
                let members = self.replica.write().publish(owner, &group, &doc_type, &xml, version);
                if let Some(members) = members {
                    self.push_advertisement(&members, &group, &doc_type, &xml);
                }
                true
            }
            GossipBody::Join(peer, groups) => {
                self.replica.write().apply_join(peer, version, &groups, &mut joins)
            }
            GossipBody::Leave(peer) => self.replica.write().apply_leave(peer, version, &mut joins),
            // A migrated membership entry: (group, peer) re-routed onto this
            // broker after a ring change, carrying the presence version it
            // was observed under.
            GossipBody::Membership(group, peer, rank) => {
                self.replica.write().apply_membership(peer, group, (event.seq, rank, event.origin))
            }
            GossipBody::Ext(blob) => {
                // An opaque extension-state blob (e.g. an admin-signed
                // revocation list) replicated over the backbone.  The
                // extension authenticates the content itself — the overlay
                // only provides transport and the usual gossip admission.
                if let Some(extension) = self.extension() {
                    let repaired = extension.apply_repair_snapshot(self, &blob);
                    if repaired > 0 {
                        self.federation.count_entries_repaired(repaired);
                    }
                }
                true
            }
            // SWIM verdicts ride the same gossip fabric as data events but
            // mutate the failure detector, not the replicated state (so they
            // do not count as `sync_applied`).  The detector's precedence
            // rules decide whether one made at `incarnation` lands.
            GossipBody::Verdict(verdict, peer, incarnation) => {
                let refute = self.fabric.lock().verdict(verdict, peer, incarnation, &self.federation);
                if let Some(incarnation) = refute {
                    // An accusation of *this* broker: refute with an alive
                    // announcement at a higher incarnation, which orders
                    // above the accusation everywhere it reached.
                    self.federation.count_swim_refutation();
                    self.gossip_swim(SwimVerdict::Alive, self.id, incarnation);
                    self.flush_gossip();
                }
                false
            }
        };
        self.gossip_joins(joins);
        if applied {
            self.federation.count_sync_applied();
        }
    }

    /// Queues a SWIM verdict (a suspicion, a death or this broker's own
    /// alive refutation) about `peer` at `incarnation`.
    fn gossip_swim(&self, verdict: SwimVerdict, peer: PeerId, incarnation: u64) {
        let body = GossipBody::Verdict(verdict, peer, incarnation);
        self.gossip_to_all(self.event(self.sync_seq.next(), body));
    }

    // ------------------------------------------------------------------
    // Epidemic backbone: membership shuffles and Plumtree tree repair
    // ------------------------------------------------------------------

    /// The SWIM incarnation a message piggybacks (0 without one in range —
    /// still proof of life, just without refutation precedence).
    fn incarnation_of(message: &Message) -> u64 {
        message.element_str("inc").as_deref().and_then(counter::parse).unwrap_or(0)
    }

    /// Handles a peer's `MembershipShuffle` or the answering
    /// `MembershipShuffleReply`.  Either is a SWIM liveness signal:
    /// receiving it at all is first-hand proof the sender lives.  A shuffle
    /// is answered with a sample of our known set.  The peers a sample names
    /// never change the known set or the view — both derive from the
    /// admitted peers and SWIM verdicts alone.
    fn handle_membership_shuffle(&self, message: &Message) {
        let answer = message.kind == MessageKind::MembershipShuffle;
        let (reply_sample, incarnation) = {
            let mut fabric = self.fabric.lock();
            fabric.contact(message.sender, Self::incarnation_of(message), false);
            let sample = if answer { fabric.shuffle_answer() } else { Vec::new() };
            (sample, fabric.incarnation())
        };
        if reply_sample.is_empty() {
            return;
        }
        let urns: Vec<String> = reply_sample.iter().map(PeerId::to_urn).collect();
        // Replied as backbone traffic, not on `apply_net`'s response path:
        // inter-broker admission requires a fresh `seq`.
        let reply = Message::new(MessageKind::MembershipShuffleReply, self.id, 0)
            .with_str("peers", &urns.join(","))
            .with_str("inc", &incarnation.to_string());
        self.to_broker(message.sender, reply);
    }

    /// The gossip ids an `IHave` or `Graft` digest lists in its `ids` element.
    fn gossip_ids(message: &Message) -> Option<Vec<GossipId>> {
        message.element("ids").map(record::decode)
    }

    /// An `IHave` or `Graft` digest listing `gids`.
    fn gossip_id_digest(&self, kind: MessageKind, gids: &[GossipId]) -> Message {
        Message::new(kind, self.id, 0).with_element("ids", record::encode(gids))
    }

    /// Handles a lazy-edge `IHave` digest: an advertised gossip id this
    /// broker has not received means the eager tree failed to reach us
    /// first.  It is pulled with one `Graft` per round, from the first lazy
    /// peer that advertises it, whose edge is promoted; later announcers
    /// are kept as fallbacks that [`Broker::start_repair_round`] grafts from
    /// if the id is still missing then.  Ids already seen need nothing: the
    /// tree worked.
    fn handle_plumtree_ihave(&self, message: &Message) {
        let Some(gids) = Self::gossip_ids(message) else {
            return;
        };
        let missing = self.fabric.lock().ihave(message.sender, gids);
        if missing.is_empty() {
            return;
        }
        let graft = self.gossip_id_digest(MessageKind::PlumtreeGraft, &missing);
        self.to_broker(message.sender, graft);
    }

    /// Handles a `Graft`: the sender missed payloads we advertised — the
    /// edge towards it becomes eager again and every requested payload
    /// still in the cache is re-sent as ordinary gossip.  Evicted payloads
    /// are counted as graft misses; anti-entropy repairs those.
    fn handle_plumtree_graft(&self, message: &Message) {
        let Some(gids) = Self::gossip_ids(message) else {
            return;
        };
        self.fabric.lock().graft(message.sender, gids, &self.federation);
        self.flush_gossip();
    }

    // ------------------------------------------------------------------
    // SWIM failure detection
    // ------------------------------------------------------------------

    /// Handles a SWIM probe; either kind is first-hand evidence the
    /// *sender* lives.  A `SwimPing` is answered with an ack carrying our
    /// incarnation, addressed to `reply-to` when present (the prober an
    /// indirect probe relays for) or to the sender.  A `SwimPingReq` comes
    /// from a prober whose direct probe of `target` timed out: we relay a
    /// `SwimPing` whose `reply-to` names the prober, so a live target acks
    /// the prober directly and one relay hop suffices.
    fn handle_swim_probe(&self, message: &Message) {
        let relay = message.kind == MessageKind::SwimPingReq;
        let peer = |name: &str| message.element_str(name).and_then(|urn| PeerId::from_urn(&urn));
        let to =
            if relay { peer("target") } else { Some(peer("reply-to").unwrap_or(message.sender)) };
        let send = {
            let mut fabric = self.fabric.lock();
            fabric.contact(message.sender, Self::incarnation_of(message), false);
            to.filter(|to| *to != self.id && fabric.is_admitted(to))
                .map(|to| (to, fabric.incarnation()))
        };
        let Some((to, incarnation)) = send else {
            return;
        };
        let kind = if relay { MessageKind::SwimPing } else { MessageKind::SwimAck };
        let mut probe = Message::new(kind, self.id, 0).with_str("inc", &incarnation.to_string());
        if relay {
            probe.push_element("reply-to", message.sender.to_urn().into_bytes());
        }
        self.to_broker(to, probe);
    }

    /// One SWIM protocol period, driven by the repair cadence: advance the
    /// detector's logical clock, apply the expirations that fall out
    /// (suspicions start, deadlines confirm deaths), then send the round's
    /// probes.  The local-health multiplier is refreshed first from this
    /// broker's own inbox backlog, so an overloaded broker stretches its
    /// timeouts instead of flooding the federation with false accusations
    /// it is merely too slow to see refuted.  Deaths this broker confirms are
    /// evicted and gossiped, so peers need not wait out their own timeouts.
    fn start_swim_probe(&self) {
        if self.fabric.lock().peers().is_empty() {
            return;
        }
        let backlog = self.delivered_count().saturating_sub(self.processed_count());
        let plan = self.fabric.lock().tick(backlog, SWIM_BACKLOG_THRESHOLD);
        for (peer, incarnation) in plan.new_dead {
            self.federation.count_swim_death();
            self.fabric.lock().on_death(&peer);
            self.gossip_swim(SwimVerdict::Dead, peer, incarnation);
            self.flush_gossip();
        }
        for (peer, incarnation) in plan.new_suspects {
            self.federation.count_swim_suspicion();
            self.gossip_swim(SwimVerdict::Suspect, peer, incarnation);
        }
        if let Some(target) = plan.probe {
            let incarnation = self.swim_incarnation();
            let ping = Message::new(MessageKind::SwimPing, self.id, 0)
                .with_str("inc", &incarnation.to_string());
            self.to_broker(target, ping);
        }
        for (relay, target) in plan.indirect {
            let request = Message::new(MessageKind::SwimPingReq, self.id, 0)
                .with_str("target", &target.to_urn());
            self.to_broker(relay, request);
        }
        self.flush_gossip();
    }

    /// The SWIM detector's record for `peer` (state and incarnation), or
    /// `None` when the detector is not tracking it.
    pub fn swim_record(&self, peer: &PeerId) -> Option<crate::swim::PeerRecord> {
        self.fabric.lock().swim_record(peer)
    }

    /// The members the SWIM detector currently holds confirmed dead.
    pub fn swim_dead_members(&self) -> Vec<PeerId> {
        self.fabric.lock().dead_members()
    }

    /// This broker's own SWIM incarnation (bumped by each refutation).
    pub fn swim_incarnation(&self) -> u64 {
        self.fabric.lock().incarnation()
    }

    /// Replicates the extension's opaque repair state (e.g. its installed
    /// revocation lists) to every peer broker of the federation.  No-op when
    /// no extension is installed or the extension has nothing to share.
    ///
    /// The update is sent directly, as a one-event `BrokerSync` digest from
    /// the encoder every flush uses ([`record::sync_message`]), rather than
    /// queued in the gossip outbox: the outbox is shared with the broker's
    /// event-loop thread, which could pick the event up and ship it *after*
    /// this call returns.  Sending on the caller's thread completes
    /// before returning, so the per-inbox FIFO guarantees every current peer
    /// applies the update before any request issued afterwards — the
    /// ordering `SecureNetwork::revoke` documents.
    pub fn gossip_extension_state(&self) {
        let Some(blob) = self.extension().and_then(|e| e.repair_snapshot()) else {
            return;
        };
        // Epidemic federations send to the active view only; the x-section
        // anti-entropy exchange spreads the blob transitively from there.
        let peers = self.fabric.lock().targets();
        // The extension authenticates the blob itself, so the event needs no
        // version: it goes out at `seq` 0 and is never relayed.
        let sync = record::sync_message(self.id, &[self.event(0, GossipBody::Ext(blob))]);
        for peer in peers {
            self.to_broker(peer, sync.clone());
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
        let plan = self.replica.write().reshard();
        // Local sessions re-assert their join first: a freshly admitted
        // broker must learn every existing route (and the membership
        // entries it now owns ride along in the join's group list).
        self.gossip_joins(plan.joins);
        // Migrated entries keep the version they were written under.
        let mut fabric = self.fabric.lock();
        for ((group, owner, doc_type, xml, (seq, origin)), targets) in plan.adverts {
            let body = GossipBody::Publish(group, owner, doc_type, xml);
            fabric.queue(&targets, GossipEvent { origin, ..self.event(seq, body) });
        }
        for (group, peer, (seq, _, origin), targets) in plan.memberships {
            let body = GossipBody::Membership(group, peer, PRESENCE_JOIN);
            fabric.queue(&targets, GossipEvent { origin, ..self.event(seq, body) });
        }
        drop(fabric);
        self.federation.count_entries_migrated(plan.migrated);
        // The whole migration ships as one digest per destination — the
        // coalescing is what keeps re-sharding O(brokers) messages instead
        // of O(entries).
        self.flush_gossip();
        plan.migrated
    }

    // ------------------------------------------------------------------
    // Anti-entropy repair
    // ------------------------------------------------------------------
    //
    // Gossip is fire-and-forget, so a digest lost on a backbone edge (an
    // adversarial drop — the in-process channels themselves are reliable)
    // diverges the replicas permanently.  The anti-entropy protocol bounds
    // that divergence: each broker periodically sends a peer a digest of the
    // state the two are *jointly* responsible for (per-section hashes over
    // the shared shard of the advertisement index, the shared group
    // membership, the fully replicated presence/routing register, and the
    // extension's replicated state) — every peer each round below
    // engagement, one active-view member per round in rotation once the
    // epidemic fabric is engaged.  A receiver whose own hashes disagree
    // answers with a snapshot of the mismatched sections and asks for the
    // sender's in return, or, for the shard-keyed sections, descends the
    // hash tree to the divergent key ranges; snapshots merge under the same
    // last-writer-wins versions as gossip, so repair can never regress a
    // newer write.  An advertisement leg lists the entry hashes of its
    // small children, so the final pages ship only what each side lacks.
    // The replica keeps the section summaries and its shard-key-ordered
    // indexes current on write (`crate::repair`, `crate::replica`): a
    // digest reads the summaries under `broker.replica`, a descent leg the
    // tree's nodes and the index's key ranges, and both send after the
    // guard is released.

    /// The hash of the extension's replicated state (peer-independent; zero
    /// when no extension is installed or it replicates nothing).
    fn repair_extension_hash(&self) -> u64 {
        self.extension()
            .and_then(|e| e.repair_digest())
            .map_or(0, |bytes| extension_hash(&bytes))
    }

    /// Starts one anti-entropy round: digests of the jointly held state go
    /// to every peer broker below engagement, and to one active-view member,
    /// round-robin, once the epidemic fabric is engaged.  Peers whose
    /// replicas disagree answer with a snapshot exchange; a healthy backbone
    /// answers nothing, so the idle cost of a round is one small digest per
    /// peer below engagement and one in all once engaged.  The round also
    /// re-grafts every id last round's `Graft` did not deliver from the next
    /// lazy peer that advertised it (ids nobody else advertised are left to
    /// anti-entropy).  The shuffle, the re-grafts, the `IHave` flush and the
    /// SWIM period run even when there is nobody to digest: a broker that
    /// buried its whole view must keep probing to dig its peers back out.
    pub fn start_repair_round(&self) {
        // Epidemic federations repair over the active-view edges only:
        // state flows transitively edge by edge (the view graph is
        // connected — the pinned ring successors alone form a cycle).  Once
        // engaged, anti-entropy is the slow pass beneath Plumtree, which
        // heals most misses within the tick through `IHave` → `Graft`, so
        // one digest per round suffices; every view edge still carries one
        // within `|view|` rounds.
        let peers = self.fabric.lock().repair_round();
        if !peers.is_empty() {
            self.federation.count_repair_round();
            // Every section's digest is read off the summaries the replica's
            // writes keep current, so a round hashes no entry: the presence
            // and extension digests are the same towards every peer, the
            // shard-keyed ones one root each in full replication and a
            // combination of shared arcs sharded.
            let (p, digests) = {
                let replica = self.replica.read();
                let digests: Vec<_> =
                    peers.into_iter().map(|peer| (peer, replica.repair_digests(&peer))).collect();
                (replica.presence_hash(), digests)
            };
            let x = self.repair_extension_hash();
            for (peer, (a, m)) in digests {
                let digest = Message::new(MessageKind::AntiEntropyDigest, self.id, 0)
                    .with_element("digests", record::encode(&[a, m, p, x]));
                self.to_broker(peer, digest);
            }
        }
        // The repair cadence doubles as the membership layer's shuffle
        // clock: one shuffle per round, first-hand liveness evidence for
        // SWIM at whichever view member it reaches.
        self.start_shuffle();
        // Grafts that went unanswered since the last round retry from a
        // fallback announcer, one `Graft` per announcer.
        let regrafts = self.fabric.lock().regrafts();
        for (announcer, gids) in regrafts {
            let graft = self.gossip_id_digest(MessageKind::PlumtreeGraft, &gids);
            self.to_broker(announcer, graft);
        }
        // Lazy IHave digests batched across every publish since the last
        // round ship now, one digest per lazy edge (see
        // [`Broker::flush_ihaves`]).
        self.flush_ihaves();
        // And the same cadence is the SWIM protocol period: one direct
        // probe per round, suspicion/death expirations, verdict gossip.
        self.start_swim_probe();
    }

    /// Sends one `MembershipShuffle` to a pseudo-random active peer: a
    /// sample of this broker's known set and its incarnation, answered with
    /// a sample of the target's own
    /// ([`MessageKind::MembershipShuffleReply`]).  No-op below the epidemic
    /// engagement threshold, where complete views make every edge busy.
    fn start_shuffle(&self) {
        let Some((target, sample, incarnation)) = self.fabric.lock().shuffle_offer() else {
            return;
        };
        let urns: Vec<String> = sample.iter().map(PeerId::to_urn).collect();
        let shuffle = Message::new(MessageKind::MembershipShuffle, self.id, 0)
            .with_str("peers", &urns.join(","))
            .with_str("inc", &incarnation.to_string());
        self.to_broker(target, shuffle);
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
    ///
    /// A digest whose `digests` element is missing or not exactly
    /// [`DIGEST_BYTES`] long is ignored: read as a mismatch, one garbled
    /// digest would start a descent plus full snapshots both ways.
    fn handle_anti_entropy_digest(&self, message: &Message) {
        let origin = message.sender;
        let Some(theirs) = message.element("digests").filter(|d| d.len() == DIGEST_BYTES) else {
            return;
        };
        let theirs: Vec<u64> = record::decode(theirs);
        let ((a, m), p) = {
            let replica = self.replica.read();
            (replica.repair_digests(&origin), replica.presence_hash())
        };
        let x = self.repair_extension_hash();
        let mut flat = String::new();
        let mut descend = String::new();
        if theirs[0] != a {
            if self.config.repair_tree { descend.push('a') } else { flat.push('a') }
        }
        if theirs[1] != m {
            if self.config.repair_tree { descend.push('m') } else { flat.push('m') }
        }
        if theirs[2] != p {
            flat.push('p');
        }
        if theirs[3] != x {
            flat.push('x');
        }
        if flat.is_empty() && descend.is_empty() {
            return; // the replicas agree
        }
        self.federation.count_repair_mismatch();
        if !flat.is_empty() {
            let sections = Self::normalize_sections(&flat);
            let snapshot = self.build_repair_snapshot(&origin, &sections, &sections);
            self.to_broker(origin, snapshot);
        }
        // One descent heals both replicas (the final page legs ship entries
        // both ways), so a pair that digested each other this round lets
        // only the lower-id broker initiate — without the tie-break every
        // divergence would be walked twice in mirror.  Below engagement
        // every pair digests both ways every round, so that is the whole
        // rule there.  Once engaged a broker digests one view member per
        // round, and `origin` rarely drew this broker in the same round:
        // when this broker did not digest `origin`, the mirror digest that
        // would let `origin` drive never comes, so it descends itself.
        if self.id < origin || !self.fabric.lock().digested(&origin) {
            for section in descend.chars() {
                // First descent leg: our children of the root.
                self.send_range_children(origin, section, 0, 0);
            }
        }
    }

    /// Sends one descent leg: this broker's children of the repair-tree
    /// node `(depth, prefix)` of `section` (see [`DescentLeg`]), for the
    /// peer to compare against its own tree in
    /// [`Broker::handle_anti_entropy_range`].
    fn send_range_children(&self, peer: PeerId, section: char, depth: u32, prefix: u64) {
        let mut leg = DescentLeg::new(section);
        {
            let replica = self.replica.read();
            leg.push_children(&replica, &replica.section_tree(section, &peer), &peer, (depth, prefix));
        }
        self.to_broker(peer, leg.into_message(self.id));
    }

    /// Handles one descent leg of a hash-tree repair: compares the peer's
    /// node summaries against the local tree.  Agreeing nodes are dropped; a
    /// divergent node either descends one more level (its children go into
    /// the reply leg) or — at the leaf level, once both sides' counts fit a
    /// page, or past the per-message node budget — has its key range shipped
    /// as range-scoped snapshot pages.  A node the leg lists the entry
    /// hashes of is paged against that list: the pages ship only what the
    /// peer lacks, and list this broker's own hashes for the peer's reply.
    /// The exchange is stateless and the depth strictly increases leg over
    /// leg, so a descent terminates within [`shard::REPAIR_TREE_DEPTH`]
    /// range legs however the trees differ.
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
        // Only advertisement legs carry hash lists: a membership page must
        // list its range in full, since its deletion rule reads the sender's
        // whole listing.
        let hashes: Vec<u64> = message.element("hashes").map(record::decode).unwrap_or_default();
        let mut lists = LegHashLists((section == 'a').then_some(&hashes[..]));
        let replica = self.replica.read();
        let tree = replica.section_tree(section, &origin);
        let mut reply = DescentLeg::new(section);
        let mut reply_nodes = 0usize;
        let mut pages = Vec::new();
        for (depth, prefix, theirs) in record::decode::<(u32, u64, NodeSummary)>(blob) {
            // Taken before the node is checked, so the lists after a
            // malformed node stay aligned with their nodes.
            let listed = lists.next_list(theirs.count);
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
                reply.push_children(&replica, &tree, &origin, (depth, prefix));
                reply_nodes += shard::REPAIR_TREE_ARITY;
            } else {
                // Small enough to ship (or the node budget is spent —
                // massive divergence degrades to shipping coarser ranges,
                // never to an unbounded message).
                pages.push((shard::node_range(depth, prefix), listed));
            }
        }
        // The guard is released before anything is sent.
        drop(tree);
        drop(replica);
        if !reply.is_empty() {
            self.to_broker(origin, reply.into_message(self.id));
        }
        for (range, listed) in pages {
            let listed: Option<HashSet<u64>> = listed.map(|list| list.iter().copied().collect());
            self.send_range_pages(origin, section, range, true, listed.as_ref());
        }
    }

    /// Builds an `AntiEntropySnapshot` of the given sections for `peer`.
    /// `want` names the sections the receiver should send back (empty on
    /// the final leg of an exchange, which is what terminates it).
    fn build_repair_snapshot(&self, peer: &PeerId, sections: &str, want: &str) -> Message {
        let mut snapshot =
            Message::new(MessageKind::AntiEntropySnapshot, self.id, 0).with_str("want", want);
        {
            let replica = self.replica.read();
            if sections.contains('a') {
                snapshot.push_element("a", record::encode(&replica.repair_adv_entries(peer)));
            }
            if sections.contains('m') {
                snapshot.push_element("m", record::encode(&replica.repair_membership_entries(peer)));
            }
            if sections.contains('p') {
                snapshot.push_element("p", record::encode(&replica.repair_presence_entries()));
            }
        }
        if sections.contains('x') {
            if let Some(blob) = self.extension().and_then(|e| e.repair_snapshot()) {
                snapshot.push_element("ext", blob);
            }
        }
        snapshot
    }

    /// Ships the shared entries of the divergent key `range` of `section`
    /// to `peer` as bounded snapshot pages.  `want` asks the peer to send
    /// its own entries of each page's sub-range back (the final legs of a
    /// descent); the peer's replies travel with `want` unset, which
    /// terminates the exchange.
    ///
    /// An advertisement page ships only the entries whose hashes `listed`
    /// lacks (every entry without a list), and a `want` page built against
    /// a list also lists this broker's hashes of its sub-range, so the
    /// reply ships only what this broker lacks in turn.  Membership pages
    /// ignore `listed`: they always carry the whole range.
    fn send_range_pages(
        &self,
        peer: PeerId,
        section: char,
        range: (u64, u64),
        want: bool,
        listed: Option<&HashSet<u64>>,
    ) {
        match section {
            'a' => {
                let entries = self.replica.read().repair_adv_entries_in(&peer, range, listed);
                let list_own = want && listed.is_some();
                self.send_pages(peer, section, range, want, entries, |snapshot, page| {
                    if list_own {
                        let hashes: Vec<u64> = page.iter().map(|(hash, _)| *hash).collect();
                        snapshot.push_element("hashes", record::encode(&hashes));
                    }
                    let entries: Vec<FlatEntry> = page.into_iter().filter_map(|(_, entry)| entry).collect();
                    snapshot.push_element("a", record::encode(&entries));
                });
            }
            _ => {
                let (entries, presence) = {
                    let replica = self.replica.read();
                    let presence = record::encode(&replica.repair_presence_entries());
                    (replica.repair_membership_entries_in(&peer, range), presence)
                };
                self.send_pages(peer, section, range, want, entries, |snapshot, page| {
                    snapshot.push_element("m", record::encode(&page));
                    // Membership deletions compare against the *sender's*
                    // presence versions, so every m page travels with the
                    // full p section, exactly like a flat m snapshot does.
                    snapshot.push_element("p", presence.clone());
                });
            }
        }
    }

    /// Splits `entries` (sorted by shard key) into pages of at most
    /// [`REPAIR_PAGE_MAX`] entries — never splitting one shard key across
    /// pages — and sends one range-scoped snapshot per page, `fill`ing it
    /// with its entries.  The page sub-ranges partition `[lo, hi]` exactly,
    /// so a `want` request reaches every peer-side entry of the divergent
    /// range exactly once; an entry-less range still sends one empty page,
    /// because the peer may hold entries this broker lacks, and for the
    /// membership section the empty page is also what authorises deletions
    /// in the range.  The split counts every entry held, so a page whose
    /// entries the peer's hash list names all still goes out, empty: the
    /// lists move an exchange's bytes, never its messages.
    fn send_pages<T>(
        &self,
        peer: PeerId,
        section: char,
        (lo, hi): (u64, u64),
        want: bool,
        entries: Vec<(u64, T)>,
        fill: impl Fn(&mut Message, Vec<T>),
    ) {
        let mut bounds: Vec<(u64, u64, usize)> = Vec::new();
        if entries.is_empty() {
            bounds.push((lo, hi, 0));
        } else {
            let mut page_lo = lo;
            let mut start = 0usize;
            while start < entries.len() {
                let mut end = (start + REPAIR_PAGE_MAX).min(entries.len());
                while end < entries.len() && entries[end].0 == entries[end - 1].0 {
                    end += 1;
                }
                let page_hi = if end == entries.len() { hi } else { entries[end - 1].0 };
                bounds.push((page_lo, page_hi, end - start));
                page_lo = page_hi.wrapping_add(1);
                start = end;
            }
        }
        let mut entries = entries.into_iter().map(|(_, entry)| entry);
        for (page_lo, page_hi, len) in bounds {
            let page: Vec<T> = entries.by_ref().take(len).collect();
            let mut snapshot = Message::new(MessageKind::AntiEntropySnapshot, self.id, 0)
                .with_str("want", "")
                .with_str("rsec", &section.to_string())
                .with_str("range-lo", &page_lo.to_string())
                .with_str("range-hi", &page_hi.to_string());
            if want {
                snapshot.push_element("want-range", b"1".to_vec());
            }
            fill(&mut snapshot, page);
            self.federation.count_repair_page();
            self.to_broker(peer, snapshot);
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
            self.to_broker(origin, reply);
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
                    // The page lists what its sender holds (nothing, when
                    // it lists nothing): the reply ships the rest.
                    let hashes: Vec<u64> = record::decode(message.element("hashes").unwrap_or_default());
                    let listed: HashSet<u64> = hashes.into_iter().collect();
                    self.send_range_pages(origin, section, (lo, hi), false, Some(&listed));
                }
            }
        }
        // Merging may have re-asserted live local sessions; ship the gossip.
        self.flush_gossip();
    }

    /// Merges one snapshot into local state.  Returns the number of entries
    /// actually brought up to date (stale snapshot content merges to zero —
    /// the no-regression property the repair proptests assert).  Each
    /// section is one element of records (see `crate::record`).
    fn merge_repair_snapshot(&self, origin: PeerId, message: &Message) -> u64 {
        let section = |name: &str| message.element(name);
        // Range-scoped pages (the final legs of a tree descent) only speak
        // for `[lo, hi]` of the shard-key space: an entry the page lacks is
        // evidence of deletion only if its key is inside the page's range.
        let bound = |name: &str| message.element_str(name).and_then(|s| s.parse::<u64>().ok());
        let range = match (bound("range-lo"), bound("range-hi")) {
            (Some(lo), Some(hi)) => (lo, hi),
            _ => (0, u64::MAX),
        };
        // The presence section is decoded up front: the membership deletion
        // rule compares against the *sender's* versions.
        let presence: Option<Vec<PresenceEntry>> = section("p").map(record::decode);
        let memberships: Option<Vec<MembershipEntry>> = section("m").map(record::decode);
        let adverts: Vec<FlatEntry> = section("a").map(record::decode).unwrap_or_default();

        let mut joins = Vec::new();
        let mut repaired = 0u64;
        let healed = {
            let mut replica = self.replica.write();
            // Presence/routing first: it must run before the membership
            // section — that stores the same versions, and a version that
            // arrived via membership first would make the presence merge
            // skip the entry as already known, leaving routing unhealed.
            if let Some(presence) = &presence {
                repaired += replica.merge_presence(presence, &mut joins);
                if let Some(entries) = memberships {
                    let sender_versions: HashMap<PeerId, PresenceVersion> =
                        presence.iter().map(|(peer, version, _)| (*peer, *version)).collect();
                    repaired +=
                        replica.merge_membership(&origin, entries, &sender_versions, range);
                }
            }
            // Advertisements: pure LWW merge — repair only ever *adds* missed
            // writes (reshard moves ownership identically everywhere).
            replica.merge_advertisements(adverts)
        };
        // The members homed here missed the original pushes along with the
        // gossip; deliver them now that the entries healed.
        for ((group, _, doc_type, xml, _), members) in &healed {
            self.push_advertisement(members, group, doc_type, xml);
        }
        repaired += healed.len() as u64;
        self.gossip_joins(joins);

        // Extension state (e.g. signed revocation lists): the extension
        // authenticates and merges the blob itself.
        if let (Some(blob), Some(extension)) = (section("ext"), self.extension()) {
            repaired += extension.apply_repair_snapshot(self, blob);
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
        let (local, home) = {
            let replica = self.replica.read();
            (replica.session(&dest).is_some(), replica.remote_home(&dest))
        };

        if local {
            return if self.endpoint.relay_leaf(dest, payload, carried_wire) {
                self.federation.count_relay_delivered();
                Some(
                    Message::new(MessageKind::Ack, self.id, message.request_id)
                        .with_str("status", "ok")
                        .with_str("route", "local"),
                )
            } else {
                self.federation.count_relay_failed();
                Some(self.reject(message, "destination unreachable"))
            };
        }

        let Some(home) = home else {
            self.federation.count_relay_failed();
            return Some(self.reject(message, "unknown destination peer"));
        };
        let relay = Message::new(MessageKind::BrokerRelay, self.id, message.request_id)
            .with_str("to", &to_urn)
            .with_element("payload", payload.to_vec());
        if self.endpoint.to_broker(home, relay, carried_wire, &self.federation).is_some() {
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
        if self.replica.read().session(&dest).is_none() {
            self.federation.count_relay_failed();
            return;
        }
        if self.endpoint.relay_leaf(dest, payload, carried_wire) {
            self.federation.count_relay_delivered();
        } else {
            self.federation.count_relay_failed();
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
        self.replica
            .read()
            .lookup(group, doc_type, owner)
            .into_iter()
            .map(|(_, _, xml)| xml)
            .collect()
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
    ///        single-core host →              worker
    ///        apply on the routing worker)
    /// ```
    ///
    /// Each verify worker carries a message end to end: it stamps monotone
    /// tickets while holding the ingress lock (so ticket order is arrival
    /// order), pre-verifies in parallel, and then — holding the router lock,
    /// which makes it the sole dispatcher for that moment — restores exact
    /// arrival order through the ticket reorder buffer and routes each
    /// message *in that order*.  A partition-local message ([`apply_route`])
    /// goes to the FIFO lane owning its `(group, owner)` shard key (or, on
    /// a single-core host, applies directly on the routing worker — there
    /// the lane handoff cannot buy concurrency that does not exist), so
    /// same-partition messages keep their relative order while different
    /// partitions apply in parallel.  A partition-spanning message
    /// waits for every busy lane to quiesce (a barrier) and then applies on
    /// the routing worker itself, so it observes — and is observed by — all
    /// lane traffic in ticket order.  Lane queues are bounded, so a
    /// saturated lane stalls the router, which stalls the verify pool and
    /// the inbox drain, which (with [`BrokerConfig::inbox_capacity`]) pushes
    /// back on senders instead of queueing without bound.
    pub fn spawn(self: &Arc<Self>) -> BrokerHandle {
        let receiver = self.endpoint.register(self.config.inbox_capacity);
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
        // one thread routes at any moment, which is what keeps lane FIFO
        // and the barrier protocol sound.  Compared to dedicated
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
        if let Some(extension) = self.extension() {
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
            self.endpoint.to_client(net_message.from, &response);
        }
        // Only now — with every side effect applied and sent — does this
        // message count as processed (quiescence detection).
        self.processed.fetch_add(1, Ordering::Release);
    }

    /// Number of network messages this broker has fully processed.
    pub fn processed_count(&self) -> u64 {
        self.processed.load(Ordering::Acquire)
    }

    /// Number of network messages ever delivered to this broker's inbox:
    /// the broker is idle once [`Broker::processed_count`] has caught up.
    pub fn delivered_count(&self) -> u64 {
        self.endpoint.delivered()
    }

    /// Registers this broker's unbounded inbox, for a driver that feeds
    /// [`Broker::process_net`] itself instead of spawning the event loop.
    pub fn register(&self) -> crossbeam::channel::Receiver<NetMessage> {
        self.endpoint.register(None)
    }

    /// Closes this broker's inbox: it becomes unreachable, as after a crash.
    pub fn unregister(&self) {
        self.endpoint.unregister();
    }

    /// Pushes a client-facing `message`, serialised once, to each of
    /// `peers`; returns how many sends succeeded.  An inter-broker kind is
    /// refused: backbone traffic leaves only sequenced and counted.
    pub fn send_to_clients(&self, peers: &[PeerId], message: &Message) -> usize {
        self.endpoint.to_clients(peers, message)
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
            MessageKind::MembershipShuffle | MessageKind::MembershipShuffleReply => {
                self.handle_membership_shuffle(message)
            }
            MessageKind::PlumtreeIHave => self.handle_plumtree_ihave(message),
            MessageKind::PlumtreeGraft => self.handle_plumtree_graft(message),
            // Our pushes duplicate what the sender already has: demote the
            // edge to lazy (digests only) until a graft re-earns it.
            MessageKind::PlumtreePrune => self.fabric.lock().prune(message.sender),
            MessageKind::SwimPing | MessageKind::SwimPingReq => self.handle_swim_probe(message),
            // A probe ack clears the outstanding probe (direct or relayed)
            // and refreshes the acking broker as alive.
            MessageKind::SwimAck => {
                self.fabric.lock().contact(message.sender, Self::incarnation_of(message), true)
            }
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
                match self.extension() {
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
        if let Some(extension) = self.extension() {
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
            let local = {
                let replica = self.replica.read();
                (replica.session(&member).is_some() || replica.is_local_replica(&group, &member))
                    .then(|| replica.groups().is_member(&group, &member))
            };
            if let Some(is_member) = local {
                if self.is_sharded() {
                    self.federation.count_shard_hit();
                }
                return Some(self.membership_response(message.request_id, is_member));
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
            Some(owner) if !self.replica.read().is_local_replica(&group, &owner) => {
                self.federation.count_shard_miss();
                self.route_shard_query(message, &group, Some(&doc_type), Some(owner))
            }
            // Group-wide search in sharded mode: the owners (and hence the
            // owning shards) are unknown — scatter over the backbone and
            // merge.
            None if self.is_sharded() && !self.fabric.lock().peers().is_empty() => {
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
        // A replica SWIM holds dead would never answer: route around it.
        let live = self.fabric.lock().live_peers();
        let candidates: Vec<PeerId> = self
            .shard_replicas(group, &key)
            .into_iter()
            .filter(|replica| live.contains(replica))
            .collect();
        if candidates.is_empty() {
            // No live remote replica (a degenerate ring, or every other
            // replica is dead) — answer from what we have.
            return Some(match doc_type {
                Some(doc_type) => self.lookup_response(
                    message.request_id,
                    self.lookup(group, doc_type, Some(key)),
                ),
                None => self.membership_response(
                    message.request_id,
                    self.replica.read().groups().is_member(group, &key),
                ),
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
            .map(|replica| self.endpoint.link_to(*replica).transfer_time(SHARD_QUERY_NOMINAL_BYTES))
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
        if !self.to_broker(target, query) {
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

    /// Scatters a group-wide advertisement search to every peer broker SWIM
    /// does not hold dead (a dead one would leave the merge waiting forever)
    /// and seeds the merge state with this broker's own shard.
    fn route_shard_scatter(
        &self,
        message: &Message,
        group: &GroupId,
        doc_type: &str,
    ) -> Option<Message> {
        let peers = self.fabric.lock().live_peers();
        let query_id = self.next_query.fetch_add(1, Ordering::Relaxed);
        let mut adv_results = BTreeMap::new();
        for (owner, version, xml) in self.replica.read().lookup(group, doc_type, None) {
            adv_results.insert(owner, (version, xml));
        }
        let mut remaining = 0usize;
        for target in peers {
            let query = Message::new(MessageKind::ShardQuery, self.id, 0)
                .with_str("query", &query_id.to_string())
                .with_str("group", group.as_str())
                .with_str("doc-type", doc_type);
            remaining += usize::from(self.to_broker(target, query));
        }
        if remaining == 0 {
            // No live peer reachable: answer from the local shard alone.
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
            let is_member = self.replica.read().groups().is_member(&group, &member);
            response = response.with_str("member", if is_member { "true" } else { "false" });
        } else {
            let Some(doc_type) = message.element_str("doc-type") else {
                return;
            };
            let owner = message
                .element_str("owner")
                .and_then(|urn| PeerId::from_urn(&urn));
            let results: Vec<FlatEntry> = self
                .replica
                .read()
                .lookup(&group, &doc_type, owner)
                .into_iter()
                .map(|(owner, version, xml)| (group.clone(), owner, doc_type.clone(), xml, version))
                .collect();
            response.push_element("results", record::encode(&results));
        }
        self.to_broker(message.sender, response);
    }

    /// Merges a replica's `ShardResponse` into the pending lookup it answers
    /// and, once every replica reported, replies to the waiting client.
    /// The results, one element of advertisement records, are decoded
    /// before the pending lookups are locked.
    fn handle_shard_response(&self, message: &Message) {
        let Some(query) = message
            .element_str("query")
            .and_then(|q| q.parse::<u64>().ok())
        else {
            return;
        };
        let is_member = message.element_str("member").is_some_and(|member| member == "true");
        let results: Vec<FlatEntry> = message.element("results").map(record::decode).unwrap_or_default();
        let finished = {
            let mut pending = self.pending_lookups.lock();
            let Some(state) = pending.get_mut(&query) else {
                return; // unknown or already-answered query
            };
            state.is_member |= is_member;
            for (_, owner, _, xml, version) in results {
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
        self.endpoint.to_client(state.client, &response);
    }
}

/// One descent leg under construction: the node summaries it carries and,
/// on an advertisement leg, the hash lists of its small children.
struct DescentLeg {
    section: char,
    nodes: Vec<u8>,
    hashes: Vec<u8>,
}

impl DescentLeg {
    fn new(section: char) -> Self {
        DescentLeg { section, nodes: Vec::new(), hashes: Vec::new() }
    }

    /// Appends the children of the repair-tree node `(depth, prefix)`, as
    /// `replica` holds them towards `peer`.  All
    /// [`shard::REPAIR_TREE_ARITY`] summaries travel, empty ones included —
    /// the peer needs the zero summaries to notice entries only it holds.
    /// On an advertisement leg, each child the peer may page (at most
    /// [`REPAIR_PAGE_ENTRIES`] entries here) also lists its stored entry
    /// hashes, `count` records in child order: a range read of the
    /// replica's ordered index.
    fn push_children(
        &mut self,
        replica: &Replica,
        tree: &SectionTree,
        peer: &PeerId,
        (depth, prefix): (u32, u64),
    ) {
        for (child, summary) in tree.children(depth, prefix).into_iter().enumerate() {
            let child = (depth + 1, (prefix << 4) | child as u64);
            (child.0, child.1, summary).put(&mut self.nodes);
            if self.section == 'a' && summary.count > 0 && summary.count <= REPAIR_PAGE_ENTRIES {
                for hash in replica.repair_adv_hashes_in(peer, shard::node_range(child.0, child.1)) {
                    hash.put(&mut self.hashes);
                }
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn into_message(self, sender: PeerId) -> Message {
        let mut leg = Message::new(MessageKind::AntiEntropyRange, sender, 0)
            .with_str("section", &self.section.to_string())
            .with_element("nodes", self.nodes);
        if !self.hashes.is_empty() {
            leg.push_element("hashes", self.hashes);
        }
        leg
    }
}

/// The hash lists of an advertisement leg, read in node order: a node of at
/// most [`REPAIR_PAGE_ENTRIES`] entries at the leg's sender takes the next
/// `count` hashes.  Everything is sized from the element's length: a list
/// the element cannot back reads as absent, and so does every list after
/// it, which pages those nodes in full.
struct LegHashLists<'a>(Option<&'a [u64]>);

impl<'a> LegHashLists<'a> {
    fn next_list(&mut self, count: u64) -> Option<&'a [u64]> {
        if count > REPAIR_PAGE_ENTRIES {
            return None;
        }
        let (list, rest) = self.0?.split_at_checked(count as usize).unzip();
        self.0 = rest;
        list
    }
}

/// The advertisement documents `message` carries: a client publish's
/// `xml`, every publish event of a `BrokerSync` digest, and every entry of
/// an anti-entropy snapshot's `a` section.  Other kinds carry none.  Each is
/// one element of records decoded in one pass, so the walk is linear in the
/// message size — it runs at ingress, before the sender is admitted.
pub fn carried_advertisements(message: &Message) -> Vec<Cow<'_, str>> {
    match message.kind {
        MessageKind::PublishAdvertisement => {
            message.element("xml").map(String::from_utf8_lossy).into_iter().collect()
        }
        MessageKind::BrokerSync => record::sync_events(message)
            .into_iter()
            .filter_map(|event| match event.body {
                GossipBody::Publish(.., xml) => Some(Cow::Owned(xml)),
                _ => None,
            })
            .collect(),
        MessageKind::AntiEntropySnapshot => {
            let entries: Vec<FlatEntry> = message.element("a").map(record::decode).unwrap_or_default();
            entries.into_iter().map(|(.., xml, _)| Cow::Owned(xml)).collect()
        }
        _ => Vec::new(),
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
        self.broker.endpoint.unregister();
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

/// Nominal shard-query size used to price replica links against each other
/// (queries are small; only the relative order of the links matters).
const SHARD_QUERY_NOMINAL_BYTES: usize = 512;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::LinkModel;
    use crate::plumtree;
    use crate::swim::PeerState;
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

    /// Checks `broker`'s repair summaries against a from-scratch build,
    /// towards itself and `peer`.
    fn summaries_fresh(broker: &Broker, peer: PeerId) -> Result<(), String> {
        broker.replica.read().check_summaries(&[broker.id(), peer])
    }

    /// The digests `broker` would send `peer`: advertisement, membership
    /// and presence.
    fn digests_towards(broker: &Broker, peer: &PeerId) -> ((u64, u64), u64) {
        let replica = broker.replica.read();
        (replica.repair_digests(peer), replica.presence_hash())
    }

    /// Every membership/session mutation primitive keeps the repair
    /// summaries equal to a from-scratch build on its own: each writer of
    /// the replica swaps its entries' hashes under the same guard, which
    /// makes the stale-digest bug (a forgetful future caller serving old
    /// section digests forever) structurally impossible.
    #[test]
    fn repair_summary_follows_every_mutation_primitive() {
        let (_net, _db, broker, mut rng) = setup();
        let peer = PeerId::random(&mut rng);
        let origin = PeerId::random(&mut rng);
        let group = GroupId::new("math");

        broker.replica.write().stamp_membership(&group, peer, (1, PRESENCE_JOIN, origin));
        summaries_fresh(&broker, origin).expect("stamp_membership");

        broker.replica.write().forget_membership_stamps(&peer);
        summaries_fresh(&broker, origin).expect("forget_membership_stamps");

        // An all-zero origin orders below any random broker id, forcing the
        // yield (non-re-assert) branch: the session closes, so the peer's
        // home and with it the presence digest move.
        connect_and_login(&broker, peer, "alice", "pw-a");
        let low_origin = PeerId::from_bytes([0u8; 16]);
        let before = digests_towards(&broker, &origin);
        assert!(!broker.replica.write().yield_to_remote_join(peer, low_origin, &mut Vec::new()));
        summaries_fresh(&broker, origin).expect("yield_to_remote_join");
        assert_ne!(digests_towards(&broker, &origin).1, before.1, "yield_to_remote_join must move p");

        // A peer with neither session nor shadow hits absorb's fall-through
        // branch.
        let stranger = PeerId::random(&mut rng);
        assert!(!broker.replica.write().absorb_remote_leave(stranger, &mut Vec::new()));
        summaries_fresh(&broker, origin).expect("absorb_remote_leave");
    }

    /// The digest-level regression: read the membership digest, then mutate
    /// through a primitive alone (with no call by the caller to refresh
    /// anything) and check the next digest moved and is current.
    #[test]
    fn repair_summary_never_serves_a_stale_digest_after_primitive_mutation() {
        let (_net, _db, broker, mut rng) = setup();
        let peer = PeerId::random(&mut rng);
        connect_and_login(&broker, peer, "alice", "pw-a");
        let own_id = broker.id();
        let primed = digests_towards(&broker, &own_id);
        // Re-reading without a mutation reads the same summaries.
        assert_eq!(digests_towards(&broker, &own_id), primed);
        // A leave applied through the primitive alone must show.
        broker.replica.write().forget_memberships(&peer);
        let healed = digests_towards(&broker, &own_id);
        assert_ne!(healed.0 .1, primed.0 .1, "membership digest served stale");
        summaries_fresh(&broker, own_id).expect("forget_memberships");
    }

    /// A winning write moves the summaries and stores its entry's hash; a
    /// stale replicated write, which loses its last-writer-wins comparison,
    /// leaves the whole replica (the summaries and the stored hash
    /// included) as it was.
    #[test]
    fn repair_summary_ignores_stale_writes() {
        let (_net, _db, broker, mut rng) = setup();
        let owner = PeerId::random(&mut rng);
        let origin = PeerId::random(&mut rng);
        let group = GroupId::new("math");
        let doc_type = "jxta:PipeAdvertisement";
        let state = |b: &Broker| b.replica.read().state_dump();

        let before = state(&broker);
        assert!(broker.load_advertisement(owner, &group, doc_type, "<v2/>", (2, origin)));
        let after = state(&broker);
        assert_ne!(after.1, before.1, "a winning write moves the summaries");
        summaries_fresh(&broker, origin).expect("a winning load_advertisement");

        assert!(!broker.load_advertisement(owner, &group, doc_type, "<v1/>", (1, origin)));
        assert!(!broker.load_advertisement(owner, &group, doc_type, "<v2/>", (2, origin)));
        assert_eq!(state(&broker), after, "a stale write must change nothing");
        summaries_fresh(&broker, origin).expect("a stale load_advertisement");
    }

    /// Two brokers of a three-broker federation (the third is an inbox
    /// only) holding the same state: `entries` advertisements, and the
    /// remote joins of `entries / 100` peers homed at the third broker, in
    /// two groups.  Returns them with their inboxes.
    fn identical_pair(
        replication: Option<usize>,
        entries: usize,
    ) -> [(Arc<Broker>, Inbox); 2] {
        identical_pair_holding(replication, entries, entries / 100)
    }

    /// [`identical_pair`] with `entries` advertisements and the joins of
    /// `peers` peers, in two groups each.
    fn identical_pair_holding(
        replication: Option<usize>,
        entries: usize,
        peers: usize,
    ) -> [(Arc<Broker>, Inbox); 2] {
        let mut rng = HmacDrbg::from_seed_u64(0x5A11);
        let net = SimNetwork::new(LinkModel::ideal());
        let db = Arc::new(UserDatabase::new());
        let ids: Vec<PeerId> = (0..3).map(|_| PeerId::random(&mut rng)).collect();
        let config = BrokerConfig { replication_factor: replication, ..BrokerConfig::default() };
        let _third = net.register(ids[2]);
        let pair = [ids[0], ids[1]].map(|id| {
            let broker = Broker::new(id, config.clone(), Arc::clone(&net), Arc::clone(&db));
            for peer in &ids {
                if *peer != id {
                    broker.add_peer_broker(*peer);
                }
            }
            (broker, net.register(id))
        });
        let group = GroupId::new("math");
        for i in 0..entries {
            let owner = PeerId::random(&mut rng);
            for (broker, _) in &pair {
                let xml = format!("<adv n='{i}'/>");
                assert!(broker.load_advertisement(owner, &group, "t", &xml, (1, ids[2])));
            }
        }
        for _ in 0..peers {
            let peer = PeerId::random(&mut rng);
            for (broker, _) in &pair {
                let mut joins = Vec::new();
                let groups = [GroupId::new("math"), GroupId::new("chem")];
                assert!(broker.replica.write().apply_join(peer, (1, ids[2]), &groups, &mut joins));
            }
        }
        pair
    }

    /// A healthy anti-entropy round hashes no entry, however many are held:
    /// the initiator's `start_repair_round` and the receiver's handling of
    /// the matching digest both read the summaries, in both replication
    /// modes, at 100 and at 10 000 advertisements held.
    #[test]
    fn healthy_repair_round_hashes_no_entry_at_any_size() {
        use crate::repair::hash_probe;
        for replication in [None, Some(2)] {
            for entries in [100, 10_000] {
                let [(a, a_inbox), (b, b_inbox)] = identical_pair(replication, entries);
                let shared = a.replica.read().section_tree('a', &b.id()).root().count;
                assert!(shared > 0, "{replication:?}: the pair shares advertisements");

                let before = hash_probe::hashed();
                a.start_repair_round();
                let round = hash_probe::hashed() - before;
                let digest = b_inbox
                    .try_iter()
                    .find(|delivery| {
                        Message::from_bytes(&delivery.payload)
                            .is_ok_and(|m| m.kind == MessageKind::AntiEntropyDigest)
                    })
                    .expect("a digests b");
                let before = hash_probe::hashed();
                b.process_net(digest);
                let handled = hash_probe::hashed() - before;

                assert_eq!((round, handled), (0, 0), "{replication:?} at {entries} entries held");
                assert_eq!(b.federation_stats().repair_mismatches, 0, "the digest matched");
                assert!(a_inbox.try_recv().is_err(), "a matching digest is not answered");
            }
        }
    }

    /// A write hashes only the entries it changes, however many are held: a
    /// new or overwriting advertisement hashes itself once and a stale one
    /// nothing; each presence write hashes the peer's old and new `(peer,
    /// version, home)` entry, and each membership entry joined or left is
    /// hashed once (sharded, a re-homed peer's entries are re-filed too).
    #[test]
    fn a_write_hashes_only_the_entries_it_changes() {
        use crate::repair::hash_probe;
        for replication in [None, Some(2)] {
            let counts = [100, 10_000].map(|entries| {
                let [(a, _), _] = identical_pair(replication, entries);
                let mut rng = HmacDrbg::from_seed_u64(0xC0DE);
                let (owner, peer) = (PeerId::random(&mut rng), PeerId::random(&mut rng));
                let home = a.peer_brokers()[0];
                let group = GroupId::new("math");
                let hashed = |write: &dyn Fn()| {
                    let before = hash_probe::hashed();
                    write();
                    hash_probe::hashed() - before
                };
                let new = hashed(&|| assert!(a.load_advertisement(owner, &group, "t", "<a/>", (5, home))));
                let overwrite =
                    hashed(&|| assert!(a.load_advertisement(owner, &group, "t", "<b/>", (6, home))));
                let stale =
                    hashed(&|| assert!(!a.load_advertisement(owner, &group, "t", "<c/>", (4, home))));
                let join = hashed(&|| {
                    let mut joins = Vec::new();
                    let groups = [GroupId::new("math"), GroupId::new("chem")];
                    assert!(a.replica.write().apply_join(peer, (9, home), &groups, &mut joins));
                });
                let joined = a.groups().groups_of(&peer).len() as u64;
                let leave =
                    hashed(&|| assert!(a.replica.write().apply_leave(peer, (10, home), &mut Vec::new())));
                // The join: its first version, then its home (old and new),
                // then each membership stored; the leave: its version (old
                // and new), each membership left, then its home (old and
                // new).
                let counts = [new, overwrite, stale, join, leave];
                assert_eq!(counts, [1, 1, 0, 1 + 2 + joined, 2 + joined + 2], "{replication:?}");
                counts
            });
            assert_eq!(counts[0], counts[1], "{replication:?}: the count grew with the entries held");
        }
    }

    /// Delivers the traffic queued for `a` and `b` until both inboxes are
    /// empty.  Returns every message delivered, in order, with whether it
    /// went to `a`.
    fn exchange(a: &Broker, a_inbox: &Inbox, b: &Broker, b_inbox: &Inbox) -> Vec<(bool, Message)> {
        let mut delivered = Vec::new();
        loop {
            let mut idle = true;
            for (to_a, broker, inbox) in [(true, a, a_inbox), (false, b, b_inbox)] {
                while let Ok(delivery) = inbox.try_recv() {
                    idle = false;
                    delivered.push((to_a, Message::from_bytes(&delivery.payload).unwrap()));
                    broker.process_net(delivery);
                }
            }
            if idle {
                return delivered;
            }
        }
    }

    /// The owners of the advertisements a snapshot page carries, in order.
    fn page_owners(page: &Message) -> Vec<PeerId> {
        let entries: Vec<FlatEntry> = page.element("a").map(record::decode).unwrap_or_default();
        entries.into_iter().map(|(_, owner, ..)| owner).collect()
    }

    /// The records of a leg's or a page's hash list (`None`: no list).
    fn hash_list(message: &Message) -> Option<Vec<u64>> {
        message.element("hashes").map(record::decode)
    }

    /// A descent's final pages ship exactly the divergent advertisements,
    /// each at most once per direction, at 100 and at 10 000 held and with
    /// 1 and 10 of them divergent, in both replication modes.  The leg that
    /// sends a small child lists its entry hashes; the comparer's page
    /// ships what that list lacks plus its own list, and the reply ships
    /// what the comparer's list lacks.  Fully replicated, building the
    /// legs' lists and the pages reads only the key ranges they cover: the
    /// index entries visited stay within the records on the wire, and a
    /// one-entry divergence among 10 000 visits a few hundred.  (Sharded, a
    /// leg still builds the filtered tree from every entry held.)
    #[test]
    fn pages_ship_only_what_the_peer_lacks() {
        use crate::replica::visit_probe;
        for replication in [None, Some(2)] {
            for entries in [100, 10_000] {
                for divergent in [1, 10] {
                    let cell = format!("{replication:?}, {entries} held, {divergent} divergent");
                    let [(a, a_inbox), (b, b_inbox)] = identical_pair(replication, entries);
                    let shared = |x: &Broker, y: &Broker| x.replica.read().repair_adv_entries(&y.id());
                    // `b` holds newer versions of shared advertisements `a`
                    // missed.
                    let group = GroupId::new("math");
                    let mut newer: Vec<PeerId> =
                        shared(&a, &b).iter().take(divergent).map(|(_, owner, ..)| *owner).collect();
                    for owner in &newer {
                        assert!(b.load_advertisement(*owner, &group, "t", "<newer/>", (2, b.id())));
                    }
                    newer.sort();

                    let before = visit_probe::visited();
                    a.start_repair_round();
                    let delivered = exchange(&a, &a_inbox, &b, &b_inbox);
                    let visited = visit_probe::visited() - before;

                    // Hash records and entries on the wire; the entries each
                    // direction carried (to `a`, to `b`).
                    let mut records = 0usize;
                    let mut carried = [Vec::new(), Vec::new()];
                    for (to_a, message) in &delivered {
                        if message.kind == MessageKind::AntiEntropyRange
                            || message.kind == MessageKind::AntiEntropySnapshot
                        {
                            let owners = page_owners(message);
                            records += hash_list(message).map_or(0, |list| list.len()) + owners.len();
                            carried[usize::from(!*to_a)].extend(owners);
                        }
                    }
                    for owners in &mut carried {
                        let shipped = owners.len();
                        owners.sort();
                        owners.dedup();
                        assert_eq!(owners.len(), shipped, "{cell}: an entry shipped twice in one direction");
                        assert!(
                            owners.iter().all(|owner| newer.contains(owner)),
                            "{cell}: a page shipped an entry both sides held"
                        );
                    }
                    assert_eq!(carried[0], newer, "{cell}: every newer version reaches `a`");
                    assert_eq!(shared(&a, &b), shared(&b, &a), "{cell}");
                    assert_eq!(a.federation_stats().entries_repaired, divergent as u64, "{cell}");
                    if replication.is_none() {
                        let records = records as u64;
                        assert!(
                            visited <= 2 * records + 64,
                            "{cell}: {visited} entries visited for {records} records on the wire"
                        );
                        if entries == 10_000 && divergent == 1 {
                            assert!(visited < 1_000, "{cell}: {visited} entries visited");
                        }
                    }
                }
            }
        }
    }

    /// Building one membership page and merging it read only the page's
    /// key range off the ordered membership index, at 100 and at 10 000
    /// memberships held, and the page lists that range's entries in
    /// shard-key order, exactly as a walk of the whole registry finds them.
    #[test]
    fn membership_pages_read_only_their_key_range() {
        use crate::replica::visit_probe;
        for held in [100, 10_000] {
            let [(a, _), (b, b_inbox)] = identical_pair_holding(None, 0, held / 2);
            let mut registry: Vec<(u64, GroupId, PeerId)> = a
                .groups()
                .snapshot()
                .into_iter()
                .flat_map(|(group, members)| {
                    members.into_iter().map(move |member| (shard::shard_key(&group, &member), group.clone(), member))
                })
                .collect();
            registry.sort();
            assert_eq!(registry.len(), held);
            // The depth-2 node around one entry: 1/256 of the entries.
            let range = shard::node_range(2, registry[held / 2].0 >> 56);
            let in_range: Vec<(GroupId, PeerId)> = registry
                .iter()
                .filter(|(key, ..)| (range.0..=range.1).contains(key))
                .map(|(_, group, member)| (group.clone(), *member))
                .collect();
            let k = in_range.len() as u64;

            let before = visit_probe::visited();
            a.send_range_pages(b.id(), 'm', range, false, None);
            let built = visit_probe::visited() - before;
            let delivery = b_inbox.try_recv().expect("one page");
            assert!(b_inbox.try_recv().is_err(), "{held}: one page");
            let page = Message::from_bytes(&delivery.payload).unwrap();
            let listed: Vec<(GroupId, PeerId)> = record::decode::<MembershipEntry>(page.element("m").unwrap())
                .into_iter()
                .map(|(group, member, _)| (group, member))
                .collect();
            assert_eq!(listed, in_range, "{held}: the page lists its range in shard-key order");

            let before = visit_probe::visited();
            b.process_net(delivery);
            let merged = visit_probe::visited() - before;
            assert!(k > 0 && built <= k + 1 && merged <= k + 1, "{held} held: {built}/{merged} visits for {k}");
        }
    }

    /// End-to-end sanity that the lock-order detector is live inside broker
    /// machinery: a normal workload populates the acquisition-order graph
    /// with broker lock classes and records no violations.
    #[test]
    fn lock_order_detector_observes_broker_classes() {
        let (net, _db, broker, mut rng) = setup();
        // With a peer broker admitted, the login gossips: the sequenced send
        // nests `broker.send_lock → net.*`.
        let peer_broker = PeerId::random(&mut rng);
        let _peer_inbox = net.register(peer_broker);
        broker.add_peer_broker(peer_broker);
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
        let sync = gossip(rogue, 1, &[event(rogue, 1, join(peer, &["math"]))]);
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
        let sync = gossip(origin, 1, &[event(origin, 1, join(peer, &["math", "chem"]))]);
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
        let publish = gossip(origin, 1, &[event(origin, 1, publish(owner, "<remote/>"))]);
        deliver(&broker, origin, &publish);
        assert_eq!(
            broker.lookup(&GroupId::new("math"), "jxta:PipeAdvertisement", Some(owner)),
            vec!["<remote/>".to_string()]
        );

        let join = gossip(origin, 2, &[event(origin, 2, join(owner, &["math"]))]);
        deliver(&broker, origin, &join);
        assert!(broker.groups().is_member(&GroupId::new("math"), &owner));
        let leave = gossip(origin, 3, &[event(origin, 3, GossipBody::Leave(owner))]);
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
            .with_element("digests", [1u64, 2, 3, 4].map(u64::to_be_bytes).concat());
        deliver(&broker, rogue, &digest);
        assert!(rogue_inbox.try_recv().is_err(), "digests are never acked");
        assert_eq!(broker.federation_stats().rejected_unknown_origin, 1);

        // A forged snapshot from outside the federation applies nothing.
        let owner = PeerId::random(&mut rng);
        let snapshot = Message::new(MessageKind::AntiEntropySnapshot, rogue, 0)
            .with_str("seq", "2")
            .with_str("want", "")
            .with_element("a", record::encode(&[advert(owner, "<forged/>", (9, rogue))]));
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
        // Applied, this payload would re-home `owner` (as a sync's join
        // event) and index an advertisement (as a snapshot's a-section).
        let hostile = |kind: MessageKind, sender: PeerId, seq: &str| {
            let mut message =
                record::sync_message(sender, &[event(sender, seq.parse().unwrap(), join(owner, &["math"]))]);
            message.kind = kind;
            message
                .with_str("seq", seq)
                .with_str("want", "")
                .with_element("a", record::encode(&[advert(owner, "<forged/>", (9, sender))]))
        };
        let state = |b: &Broker| {
            (
                b.advertisement_snapshot(),
                b.routing_snapshot(),
                b.groups().snapshot(),
                b.replica.read().repair_presence_entries(),
                b.replica.read().state_dump(),
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

    /// Every decoder stops at the end of the element it reads: a join
    /// claiming 10⁶ groups, and records whose length prefix claims 10⁶
    /// bytes, with nothing behind them, cost a handful of element lookups
    /// and decode nothing (where a loop driven by the claim would run 10⁶
    /// times).  The gossip-id lists of `IHave` and `Graft` likewise: a
    /// forged `ids` blob, a truncated record or a long one, is read as the
    /// whole records it holds.
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
        // A gossip id is a 16-byte origin and an 8-byte sequence.
        let truncated = vec![0xA5; 16 + 8 - 1];
        let long: Vec<u8> = (0..((16 + 8) << 16) + 7)
            .map(|i: usize| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
            .collect();
        let mut forged_join = record::sync_message(origin, &[]);
        forged_join.elements[0].content = forged_tail(event(origin, 1, join(origin, &[])));
        let messages = [
            forged_join,
            Message::new(MessageKind::PlumtreeIHave, origin, 0).with_element("ids", &truncated[..]),
            Message::new(MessageKind::PlumtreeIHave, origin, 0).with_element("ids", &long[..]),
            Message::new(MessageKind::PlumtreeGraft, origin, 0).with_element("ids", truncated),
            Message::new(MessageKind::PlumtreeGraft, origin, 0).with_element("ids", long),
            Message::new(MessageKind::AntiEntropySnapshot, origin, 0)
                .with_str("want", "")
                .with_element("p", forged_tail((origin, (1, PRESENCE_JOIN, origin), None)))
                .with_element("m", forged_tail((GroupId::new(""), origin, (1, PRESENCE_JOIN, origin))))
                .with_element("a", forged_tail(advert(origin, "", (1, origin)))),
            Message::new(MessageKind::ShardResponse, origin, 0)
                .with_str("query", "7")
                .with_element("results", forged_tail(advert(origin, "", (1, origin)))),
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
        assert_eq!((stats.syncs_applied, stats.entries_repaired), (0, 0), "nothing decoded");
        assert!(
            broker.pending_lookups.lock().is_empty(),
            "the shard response was decoded"
        );
    }

    /// `record` encoded, with the 4-byte length (or count) that ends it
    /// forged to claim 10⁶.  (A presence record ends in its home tag, which
    /// this leaves unknown.)
    fn forged_tail<R: Record>(record: R) -> Vec<u8> {
        let mut bytes = record::encode(&[record]);
        let at = bytes.len() - 4;
        bytes[at..].copy_from_slice(&1_000_000u32.to_be_bytes());
        bytes
    }

    /// An anti-entropy digest must carry exactly the four 8-byte section
    /// digests.  A missing, empty, short or long `digests` element, or the
    /// old decimal `*-hash` fields, is ignored: no mismatch is counted and
    /// nothing is sent back, where reading it as a mismatch would start a
    /// descent plus full snapshots both ways.  A well-formed digest that
    /// disagrees is answered.
    #[test]
    fn forged_digest_of_the_wrong_length_draws_no_reply() {
        let (broker, origin, inbox) = broker_with_peer(3);
        let digest = |seq: usize| {
            Message::new(MessageKind::AntiEntropyDigest, origin, 0).with_str("seq", &seq.to_string())
        };
        let forged = [
            digest(1),
            digest(2).with_element("digests", Vec::new()),
            digest(3).with_element("digests", vec![0xA5; DIGEST_BYTES - 1]),
            digest(4).with_element("digests", vec![0xA5; DIGEST_BYTES + 1]),
            digest(5).with_element("digests", vec![0xA5; 2 * DIGEST_BYTES]),
            digest(6)
                .with_str("a-hash", "1")
                .with_str("m-hash", "2")
                .with_str("p-hash", "3")
                .with_str("x-hash", "4"),
        ];
        for message in &forged {
            deliver(&broker, origin, message);
        }
        assert!(inbox.try_recv().is_err(), "a malformed digest is never answered");
        assert_eq!(broker.federation_stats().repair_mismatches, 0);

        deliver(&broker, origin, &digest(7).with_element("digests", vec![0xA5; DIGEST_BYTES]));
        assert!(inbox.try_recv().is_ok(), "a disagreeing digest is answered");
        assert_eq!(broker.federation_stats().repair_mismatches, 1);
    }

    /// A broker holding `entries` advertisements in group "math", with one
    /// admitted peer broker: the broker, the peer and the peer's inbox.
    fn broker_with_peer(entries: usize) -> (Arc<Broker>, PeerId, Inbox) {
        let (net, _db, broker, mut rng) = setup();
        let origin = PeerId::random(&mut rng);
        broker.add_peer_broker(origin);
        let inbox = net.register(origin);
        for i in 0..entries {
            let owner = PeerId::random(&mut rng);
            let xml = format!("<adv n='{i}'/>");
            assert!(broker.load_advertisement(owner, &GroupId::new("math"), "t", &xml, (1, origin)));
        }
        (broker, origin, inbox)
    }

    /// The depth-1 repair-tree node of `broker`'s advertisements that holds
    /// the most of them towards `peer`: its prefix, and the owners and
    /// hashes of the entries inside it and outside it, in shard-key order.
    fn fullest_depth_one_node(broker: &Broker, peer: &PeerId) -> (u64, Vec<(PeerId, u64)>, Vec<u64>) {
        let held = broker.replica.read().repair_adv_entries_in(peer, (0, u64::MAX), None);
        let prefix = (0..16u64)
            .max_by_key(|prefix| held.iter().filter(|(key, _)| key >> 60 == *prefix).count())
            .unwrap();
        let (inside, outside): (Vec<_>, Vec<_>) = held.into_iter().partition(|(key, _)| key >> 60 == prefix);
        let inside = inside.into_iter().map(|(_, (hash, entry))| (entry.unwrap().1, hash)).collect();
        let outside = outside.into_iter().map(|(_, (hash, _))| hash).collect();
        (prefix, inside, outside)
    }

    /// Encodes hashes as a hash list.
    fn hashes(list: impl IntoIterator<Item = u64>) -> Vec<u8> {
        record::encode(&list.into_iter().collect::<Vec<_>>())
    }

    /// A descent leg's hash lists are sized from their element: a list
    /// whose last record is truncated, or a child whose count runs past
    /// the element, has no list, and its range is paged in full; a list
    /// naming only entries outside the node's range leaves every entry in
    /// it unlisted.  Either way the page ships only the entries held in the
    /// node's range, and a page built against a list lists this broker's
    /// hashes of the range.
    #[test]
    fn forged_leg_hash_lists_are_sized_by_their_element() {
        let (broker, origin, inbox) = broker_with_peer(40);
        let (prefix, inside, outside) = fullest_depth_one_node(&broker, &origin);
        assert!(inside.len() >= 2 && outside.len() >= 2);
        let owners: Vec<PeerId> = inside.iter().map(|(owner, _)| *owner).collect();
        let own_list: Vec<u64> = inside.iter().map(|(_, hash)| *hash).collect();
        let leg = |seq: usize, count: usize, list: Vec<u8>| {
            let summary = NodeSummary { xor: 0x5EED, count: count as u64 };
            let nodes = record::encode(&[(1, prefix, summary)]);
            Message::new(MessageKind::AntiEntropyRange, origin, 0)
                .with_str("seq", &seq.to_string())
                .with_str("section", "a")
                .with_element("nodes", nodes)
                .with_element("hashes", list)
        };
        let mut truncated = hashes(own_list.iter().copied());
        truncated.truncate(truncated.len() - 3);
        let cases = [
            // (leg, owners shipped, the page's own list)
            (leg(1, inside.len(), truncated), owners.clone(), None),
            (leg(2, 200, hashes([own_list[0]])), owners.clone(), None),
            (leg(3, 2, hashes(outside[..2].iter().copied())), owners.clone(), Some(own_list.clone())),
            (leg(4, inside.len(), hashes(own_list.iter().copied())), Vec::new(), Some(own_list.clone())),
        ];
        for (i, (message, shipped, listed)) in cases.into_iter().enumerate() {
            deliver(&broker, origin, &message);
            let page = next_message(&inbox);
            assert_eq!(page.kind, MessageKind::AntiEntropySnapshot, "case {i}");
            assert_eq!(page_owners(&page), shipped, "case {i}");
            assert_eq!(hash_list(&page), listed, "case {i}");
            assert!(inbox.try_recv().is_err(), "case {i}: one page");
        }
    }

    /// A final-leg page's hash list costs work linear in the page: a page
    /// listing 10⁵ junk hashes is answered with exactly the entries held in
    /// its range, reading only that range off the index, and hashes of
    /// entries outside the range (or a truncated trailing record) change
    /// nothing.  Listing every entry in the range leaves one empty reply.
    #[test]
    fn forged_page_hash_lists_cost_work_linear_in_the_page() {
        use crate::replica::visit_probe;
        let (broker, origin, inbox) = broker_with_peer(40);
        let (prefix, inside, outside) = fullest_depth_one_node(&broker, &origin);
        let owners: Vec<PeerId> = inside.iter().map(|(owner, _)| *owner).collect();
        let (lo, hi) = shard::node_range(1, prefix);
        let page = |seq: usize, list: Vec<u8>| {
            Message::new(MessageKind::AntiEntropySnapshot, origin, 0)
                .with_str("seq", &seq.to_string())
                .with_str("want", "")
                .with_str("rsec", "a")
                .with_str("range-lo", &lo.to_string())
                .with_str("range-hi", &hi.to_string())
                .with_element("want-range", b"1".to_vec())
                .with_element("hashes", list)
                .with_element("a", Vec::new())
        };
        let junk = hashes((0..100_000u64).map(|i| shard::mix(i ^ 0xBAD)));
        let mut outside_list = hashes(outside.iter().copied());
        outside_list.push(0xA5);
        let cases = [
            (page(1, junk), owners.clone()),
            (page(2, outside_list), owners.clone()),
            (page(3, hashes(inside.iter().map(|(_, hash)| *hash))), Vec::new()),
        ];
        for (i, (message, shipped)) in cases.into_iter().enumerate() {
            let elements = message.element_count() as u64;
            let (visits, scans) = (visit_probe::visited(), crate::message::scan_probe::visited());
            deliver(&broker, origin, &message);
            let visits = visit_probe::visited() - visits;
            let scans = crate::message::scan_probe::visited() - scans;
            assert!(visits <= inside.len() as u64 + 1, "case {i}: {visits} index entries visited");
            assert!(scans <= 64 * elements, "case {i}: {scans} element lookups");
            let reply = next_message(&inbox);
            assert_eq!(page_owners(&reply), shipped, "case {i}");
            assert_eq!(hash_list(&reply), None, "case {i}: a reply lists nothing");
            assert!(inbox.try_recv().is_err(), "case {i}: one reply");
        }
    }

    /// The next message `inbox` holds, decoded.
    fn next_message(inbox: &crossbeam::channel::Receiver<NetMessage>) -> Message {
        Message::from_bytes(&inbox.try_recv().expect("a message").payload).unwrap()
    }

    /// The largest counter a peer accepts on the wire (see [`counter`]).
    const FORGED_IN_RANGE: u64 = (1 << 63) - 1;

    /// A second broker on `net` that admits `broker` (and `also`): it stands
    /// for every peer receiving `broker`'s backbone traffic.
    fn witness(
        net: &Arc<SimNetwork>,
        db: &Arc<UserDatabase>,
        rng: &mut HmacDrbg,
        broker: &Broker,
        also: &[PeerId],
    ) -> Arc<Broker> {
        let witness =
            Broker::new(PeerId::random(rng), BrokerConfig::default(), Arc::clone(net), Arc::clone(db));
        for peer in std::iter::once(&broker.id()).chain(also) {
            witness.add_peer_broker(*peer);
        }
        witness
    }

    /// A transport `seq` at or above 2^63 is rejected at the admission gate
    /// like an unparseable one and leaves the sequence clock alone.  (Merged,
    /// the clock overflows — or, wrapped, restarts at 0 and every peer
    /// rejects the broker's traffic as replays.)  At 2^63 − 1 it is admitted
    /// but credited with at most 2^62, so the next gossip goes out just above
    /// 2^62 (the login's version takes 2^62 + 1), not at 2^63.  Either way a
    /// peer admits the broker's next gossip.
    #[test]
    fn forged_counter_transport_seq_cannot_partition_a_broker() {
        for (forged, rejected, next_seq) in [(u64::MAX, 1, 2), (FORGED_IN_RANGE, 0, (1u64 << 62) + 2)] {
            let (net, db, broker, mut rng) = setup();
            let origin = PeerId::random(&mut rng);
            let origin_inbox = net.register(origin);
            broker.add_peer_broker(origin);
            let prune = Message::new(MessageKind::PlumtreePrune, origin, 0)
                .with_str("seq", &forged.to_string());
            deliver(&broker, origin, &prune);
            assert_eq!(broker.federation_stats().rejected_replayed, rejected);

            let peer = PeerId::random(&mut rng);
            let resp = connect_and_login(&broker, peer, "alice", "pw-a");
            assert_eq!(resp.element_str("status").unwrap(), "ok");
            let gossip = next_message(&origin_inbox);
            assert_eq!(gossip.kind, MessageKind::BrokerSync);
            assert_eq!(gossip.element_str("seq"), Some(next_seq.to_string()));

            let witness = witness(&net, &db, &mut rng, &broker, &[]);
            deliver(&witness, broker.id(), &gossip);
            assert_eq!(witness.federation_stats().rejected_replayed, 0);
            assert_eq!(witness.home_of(&peer), Some(broker.id()), "the login gossip applies");
        }
    }

    /// A gossiped join versioned at or above 2^63 is dropped, so the peer's
    /// later login here versions its presence at a small sequence instead of
    /// overflowing above the stored one.  Versioned at 2^63 − 1 it is
    /// applied, and the later login is floored above it at 2^62 + 1, not
    /// 2^63.  Either way a peer applies the login's gossip.
    #[test]
    fn forged_counter_join_version_cannot_overflow_a_local_login() {
        for (forged, applied, version) in [(u64::MAX, 0, 2), (FORGED_IN_RANGE, 1, (1u64 << 62) + 1)] {
            let (net, db, broker, mut rng) = setup();
            let origin = PeerId::random(&mut rng);
            let origin_inbox = net.register(origin);
            broker.add_peer_broker(origin);
            let peer = PeerId::random(&mut rng);
            let join = gossip(origin, 1, &[event(origin, forged, join(peer, &["math"]))]);
            deliver(&broker, origin, &join);
            assert_eq!(broker.federation_stats().syncs_applied, applied);
            assert_eq!(broker.home_of(&peer), (applied == 1).then_some(origin));

            let resp = connect_and_login(&broker, peer, "alice", "pw-a");
            assert_eq!(resp.element_str("status").unwrap(), "ok");
            assert_eq!(broker.home_of(&peer), Some(broker.id()));
            let gossip = next_message(&origin_inbox);
            let events = record::sync_events(&gossip);
            assert!(matches!(events[0].body, GossipBody::Join(..)));
            assert_eq!(events[0].seq, version);

            let witness = witness(&net, &db, &mut rng, &broker, &[]);
            deliver(&witness, broker.id(), &gossip);
            assert_eq!(witness.home_of(&peer), Some(broker.id()), "the login gossip applies");
        }
    }

    /// SWIM verdicts about this broker at an incarnation at or above 2^63
    /// are dropped; a genuine suspicion is still refuted, at an incarnation
    /// that stays small and outranks it.  (Taken, the refutation overflows —
    /// or, wrapped, goes out at incarnation 0, which never outranks the
    /// accusation, so a live broker stays buried.)  Verdicts at 2^63 − 1 are
    /// refuted at 2^62 + 1 and then 2^62 + 2, and each refutation clears the
    /// forged verdict at a peer that took it too.
    #[test]
    fn forged_counter_swim_incarnation_cannot_bury_a_live_broker() {
        let (net, db, broker, mut rng) = setup();
        let origin = PeerId::random(&mut rng);
        let origin_inbox = net.register(origin);
        broker.add_peer_broker(origin);
        let verdict = |seq: u64, verdict: SwimVerdict, incarnation: u64| {
            let body = GossipBody::Verdict(verdict, broker.id(), incarnation);
            gossip(origin, seq, &[event(origin, seq, body)])
        };
        // The incarnation `broker`'s refutation (the one event it gossips)
        // is made at.
        let refuted = |refutation: &Message| match record::sync_events(refutation).as_slice() {
            [GossipEvent { body: GossipBody::Verdict(SwimVerdict::Alive, _, incarnation), .. }] => {
                Some(*incarnation)
            }
            _ => None,
        };
        for (seq, op) in [(1, SwimVerdict::Suspect), (2, SwimVerdict::Dead), (3, SwimVerdict::Alive)] {
            deliver(&broker, origin, &verdict(seq, op, u64::MAX));
        }
        assert_eq!(broker.swim_incarnation(), 0, "the forged verdicts are dropped");
        assert_eq!(broker.federation_stats().swim_refutations, 0);
        assert!(origin_inbox.try_recv().is_err());

        deliver(&broker, origin, &verdict(4, SwimVerdict::Suspect, 0));
        assert_eq!(broker.swim_incarnation(), 1);
        let refutation = next_message(&origin_inbox);
        assert_eq!(refuted(&refutation), Some(1));

        let witness = witness(&net, &db, &mut rng, &broker, &[origin]);
        for (seq, op, refuted_at) in
            [(5, SwimVerdict::Suspect, (1 << 62) + 1), (6, SwimVerdict::Dead, (1u64 << 62) + 2)]
        {
            let forged = verdict(seq, op, FORGED_IN_RANGE);
            deliver(&witness, origin, &forged);
            assert_ne!(witness.swim_record(&broker.id()).unwrap().state, PeerState::Alive);
            deliver(&broker, origin, &forged);
            assert_eq!(broker.swim_incarnation(), refuted_at);
            let refutation = next_message(&origin_inbox);
            assert_eq!(refuted(&refutation), Some(refuted_at));
            deliver(&witness, broker.id(), &refutation);
            let record = witness.swim_record(&broker.id()).unwrap();
            assert_eq!((record.state, record.incarnation), (PeerState::Alive, refuted_at));
        }
        assert_eq!(witness.federation_stats().rejected_replayed, 0);
    }

    /// A shuffle is liveness evidence, not membership: one naming peers
    /// that were never admitted changes neither the known set nor the view,
    /// and the reply samples admitted peers only.
    #[test]
    fn shuffle_naming_unadmitted_peers_changes_neither_known_nor_view() {
        let (net, db, _, mut rng) = setup();
        let broker = Broker::new(
            PeerId::random(&mut rng),
            BrokerConfig::named("small-view").with_view_capacities(2),
            Arc::clone(&net),
            db,
        );
        let admitted: Vec<PeerId> = (0..5).map(|_| PeerId::random(&mut rng)).collect();
        for peer in &admitted {
            broker.add_peer_broker(*peer);
        }
        assert!(broker.epidemic_engaged());
        let sender = broker.active_view()[0];
        let sender_inbox = net.register(sender);
        let (known, view) = (broker.peer_brokers(), broker.active_view());
        let strangers: Vec<String> = (0..4).map(|_| PeerId::random(&mut rng).to_urn()).collect();
        let shuffle = Message::new(MessageKind::MembershipShuffle, sender, 0)
            .with_str("seq", "1")
            .with_str("peers", &strangers.join(","))
            .with_str("inc", "0");
        deliver(&broker, sender, &shuffle);
        assert_eq!(broker.peer_brokers(), known, "a shuffle never widens the known set");
        assert_eq!(broker.active_view(), view, "a shuffle never changes the view");
        let reply = next_message(&sender_inbox);
        assert_eq!(reply.kind, MessageKind::MembershipShuffleReply);
        let named = reply.element_str("peers").unwrap_or_default();
        assert!(!named.is_empty());
        assert!(named.split(',').all(|urn| PeerId::from_urn(urn).is_some_and(|p| admitted.contains(&p))));
    }

    /// An anti-entropy page from an admitted peer, carrying one entry of a
    /// section (`a` or `m`), plus an empty presence section (the membership
    /// merge runs only beside one).
    fn repair_page<R: Record>(origin: PeerId, seq: u64, section: &str, entry: R) -> Message {
        Message::new(MessageKind::AntiEntropySnapshot, origin, 0)
            .with_str("seq", &seq.to_string())
            .with_str("want", "")
            .with_element("p", Vec::new())
            .with_element(section, record::encode(&[entry]))
    }

    /// A repair page's advertisement versioned at or above 2^63 is dropped,
    /// as the same version is on the gossip path.  (Stored, it outranks every
    /// later local write: the owner's honest republish at this broker loses
    /// last-writer-wins and the forged XML stays.)
    #[test]
    fn forged_counter_repair_page_advertisement_is_dropped() {
        let (_net, _db, broker, mut rng) = setup();
        let origin = PeerId::random(&mut rng);
        broker.add_peer_broker(origin);
        let owner = PeerId::random(&mut rng);
        let math = GroupId::new("math");
        let entry = advert(owner, "<forged/>", (u64::MAX, origin));
        deliver(&broker, origin, &repair_page(origin, 1, "a", entry));
        assert_eq!(broker.federation_stats().rejected_replayed, 0, "the page itself is admitted");
        assert!(broker.advertisement_snapshot().is_empty(), "the forged version is dropped");
        assert_eq!(broker.federation_stats().entries_repaired, 0);

        broker.index_and_distribute(owner, &math, "jxta:PipeAdvertisement", "<honest/>");
        assert_eq!(
            broker.lookup(&math, "jxta:PipeAdvertisement", Some(owner)),
            vec!["<honest/>".to_string()],
            "the owner's republish lands"
        );
    }

    /// A repair page's membership versioned at or above 2^63 is dropped.
    /// (Stored, its stamp outranks every presence version, so the repair
    /// deletion rule could never remove it.)  The same entry in range is
    /// merged, so only the out-of-range version is refused.
    #[test]
    fn forged_counter_repair_page_membership_is_dropped() {
        for (vseq, stored) in [(u64::MAX, false), (1, true)] {
            let (_net, _db, broker, mut rng) = setup();
            let origin = PeerId::random(&mut rng);
            broker.add_peer_broker(origin);
            let member = PeerId::random(&mut rng);
            let entry = (GroupId::new("math"), member, (vseq, PRESENCE_JOIN, origin));
            deliver(&broker, origin, &repair_page(origin, 1, "m", entry));
            assert_eq!(broker.groups().is_member(&GroupId::new("math"), &member), stored);
            assert_eq!(broker.federation_stats().entries_repaired, u64::from(stored));
        }
    }

    /// A replica's answer versioned at or above 2^63 is dropped from the
    /// merged lookup, as the same version is on every other wire path.
    /// (Kept, it outranks the honest replica's entry in the last-writer-wins
    /// dedup, and the client receives the forged XML.)
    #[test]
    fn forged_counter_shard_response_version_cannot_win_the_merged_lookup() {
        let (net, _db, broker, mut rng) = setup();
        let (liar, honest) = (PeerId::random(&mut rng), PeerId::random(&mut rng));
        broker.add_peer_broker(liar);
        broker.add_peer_broker(honest);
        let client = PeerId::random(&mut rng);
        let client_inbox = net.register(client);
        broker.pending_lookups.lock().insert(
            7,
            PendingLookup {
                client,
                client_request: 1,
                remaining: 2,
                adv_results: BTreeMap::new(),
                is_member: false,
                membership: false,
            },
        );
        let owner = PeerId::random(&mut rng);
        let answer = |from: PeerId, vseq: u64, xml: &str| {
            Message::new(MessageKind::ShardResponse, from, 0)
                .with_str("seq", "1")
                .with_str("query", "7")
                .with_element("results", record::encode(&[advert(owner, xml, (vseq, from))]))
        };
        deliver(&broker, liar, &answer(liar, u64::MAX, "<forged/>"));
        deliver(&broker, honest, &answer(honest, 5, "<honest/>"));
        let response = next_message(&client_inbox);
        assert_eq!(response.kind, MessageKind::LookupResponse);
        assert_eq!(response.element_str("count").as_deref(), Some("1"));
        assert_eq!(response.element_str("adv-0").as_deref(), Some("<honest/>"));
    }

    /// The advertisements a backbone message carries are found in work
    /// linear in its size: for an n-event sync and an n-entry snapshot page
    /// each is one element of records, and a forged sync whose first record
    /// claims a length past the element's end stops at that record (so the
    /// n events behind it are never read).
    #[test]
    fn forged_or_bulk_counts_keep_the_carried_advertisement_walk_linear() {
        let mut rng = HmacDrbg::from_seed_u64(0xC0A7);
        let origin = PeerId::random(&mut rng);
        let n = 5_000usize;
        let events: Vec<GossipEvent> =
            (0..n).map(|i| event(origin, i as u64 + 1, publish(origin, &format!("<adv-{i}/>")))).collect();
        let sync = record::sync_message(origin, &events);
        let entries: Vec<FlatEntry> = (0..n).map(|i| advert(origin, &format!("<adv-{i}/>"), (1, origin))).collect();
        let page = Message::new(MessageKind::AntiEntropySnapshot, origin, 0)
            .with_element("a", record::encode(&entries));
        let mut forged = sync.clone();
        forged.elements[0].content = [forged_tail(event(origin, 1, publish(origin, ""))), record::encode(&events)].concat();
        for (message, carried) in [(&sync, n), (&page, n), (&forged, 0)] {
            let before = crate::message::scan_probe::visited();
            let documents = carried_advertisements(message);
            let visited = crate::message::scan_probe::visited() - before;
            assert_eq!(documents.len(), carried, "{:?}", message.kind);
            let elements = message.element_count() as u64;
            assert!(
                visited <= 4 * elements,
                "{:?}: {visited} element visits for {elements} elements",
                message.kind
            );
        }
        assert_eq!(carried_advertisements(&sync)[7], "<adv-7/>");
    }

    /// Every advertisement a message carries is found, in order: each
    /// publish event of a sync (and nothing of its other events), each
    /// entry of a snapshot page the repair path builds, and a client
    /// publish's document.  Other kinds carry none.
    #[test]
    fn carried_advertisements_are_every_document_a_message_carries() {
        let mut rng = HmacDrbg::from_seed_u64(0xCA44);
        let (origin, owner) = (PeerId::random(&mut rng), PeerId::random(&mut rng));
        let events = [
            event(origin, 1, publish(owner, "<first/>")),
            event(origin, 2, join(owner, &["math"])),
            event(origin, 3, GossipBody::Ext(b"<not-an-advert/>".to_vec())),
            event(origin, 4, publish(origin, "<second/>")),
        ];
        assert_eq!(carried_advertisements(&record::sync_message(origin, &events)), ["<first/>", "<second/>"]);

        let (broker, peer, inbox) = broker_with_peer(3);
        let mut held: Vec<String> = broker.advertisement_snapshot().into_iter().map(|(.., xml)| xml).collect();
        held.sort();
        broker.send_range_pages(peer, 'a', (0, u64::MAX), false, None);
        let mut carried: Vec<String> =
            carried_advertisements(&next_message(&inbox)).into_iter().map(Cow::into_owned).collect();
        carried.sort();
        assert_eq!(carried, held, "a page carries every entry of its range");

        let client_publish = Message::new(MessageKind::PublishAdvertisement, owner, 1)
            .with_str("group", "math")
            .with_str("xml", "<client/>");
        assert_eq!(carried_advertisements(&client_publish), ["<client/>"]);
        let lookup = Message::new(MessageKind::LookupRequest, owner, 2).with_str("xml", "<client/>");
        assert!(carried_advertisements(&lookup).is_empty());
    }

    /// Regression: merging an n-entry snapshot must stay O(n) element
    /// visits.  Its `a` section is one element of records, decoded in one
    /// pass; the old per-entry `a{i}-*` names, resolved with the linear
    /// `Message::element` scan, cost ~1.8 × 10⁹ visits for the 10⁴ entries
    /// below.
    #[test]
    fn merging_large_snapshot_is_linear_in_element_visits() {
        let (_net, _db, broker, mut rng) = setup();
        let origin = PeerId::random(&mut rng);
        broker.add_peer_broker(origin);
        let entries = 10_000usize;
        let adverts: Vec<FlatEntry> = (0..entries)
            .map(|i| advert(PeerId::random(&mut rng), &format!("<adv-{i}/>"), (1, origin)))
            .collect();
        let snapshot = Message::new(MessageKind::AntiEntropySnapshot, origin, 0)
            .with_str("want", "")
            .with_element("a", record::encode(&adverts));
        let before = crate::message::scan_probe::visited();
        let repaired = broker.merge_repair_snapshot(origin, &snapshot);
        let visited = crate::message::scan_probe::visited() - before;
        assert_eq!(repaired, entries as u64);
        // A generous linear bound; the quadratic merge clocks in three
        // orders of magnitude above it.
        assert!(
            visited < 2_000_000,
            "merge visited {visited} elements for {entries} entries — \
             the O(n²) linear-scan merge is back"
        );
    }

    /// An engaged broker (`DEFAULT_ACTIVE_VIEW + 1` admitted peers, each
    /// with an inbox), one of them the `origin` gossip arrives from.
    fn engaged_relay() -> (Arc<Broker>, PeerId, Vec<Inbox>, HmacDrbg) {
        let (net, _db, broker, mut rng) = setup();
        let origin = PeerId::random(&mut rng);
        broker.add_peer_broker(origin);
        let inboxes: Vec<_> = (0..crate::membership::DEFAULT_ACTIVE_VIEW)
            .map(|_| {
                let peer = PeerId::random(&mut rng);
                broker.add_peer_broker(peer);
                net.register(peer)
            })
            .collect();
        assert!(broker.epidemic_engaged());
        (broker, origin, inboxes, rng)
    }

    /// A sync's fresh broadcasts are relayed from one decode of its events
    /// element: an n-event bulk digest costs a handful of element lookups,
    /// and each event goes onward as it arrived.  A forged digest of n
    /// events of an unknown kind decodes to nothing, so none of it is
    /// relayed.  (Walking the whole message once per fresh event, as the
    /// relay once did over per-event element names, costs O(n²).)
    #[test]
    fn forged_or_bulk_digests_keep_the_relay_walk_linear() {
        let (broker, origin, inboxes, mut rng) = engaged_relay();
        let vorigin = PeerId::random(&mut rng);
        let n = 2_000usize;
        let broadcast = |seq: u64, body| GossipEvent { broadcast: true, ..event(vorigin, seq, body) };
        let events: Vec<GossipEvent> = (0..n)
            .map(|i| broadcast(i as u64 + 1, publish(PeerId::random(&mut rng), &format!("<adv-{i}/>"))))
            .collect();
        let bulk = record::sync_message(origin, &events);
        // The same number of records, each of an unknown kind.
        let mut forged = record::sync_message(origin, &[]);
        for i in 0..n {
            let mut record = record::encode(&[broadcast((n + i + 1) as u64, GossipBody::Leave(vorigin))]);
            record[0] = 0xEE;
            forged.elements[0].content.extend(record);
        }

        for (seq, (message, relayed)) in [(bulk, true), (forged, false)].into_iter().enumerate() {
            let message = message.with_str("seq", &(seq + 1).to_string());
            let elements = message.element_count() as u64;
            let before = crate::message::scan_probe::visited();
            deliver(&broker, origin, &message);
            let visited = crate::message::scan_probe::visited() - before;
            assert!(
                visited <= 8 * elements,
                "{visited} element visits for {elements} elements"
            );
            if relayed {
                // Every fresh event goes onward to the eager peers, as it
                // arrived.
                let onward = record::sync_events(&next_message(&inboxes[0]));
                assert_eq!(onward.len(), n);
                for i in [0, 7, n - 1] {
                    assert_eq!(onward[i], events[i], "event {i}");
                }
                for inbox in &inboxes {
                    while inbox.try_recv().is_ok() {}
                }
            } else {
                assert!(inboxes.iter().all(|inbox| inbox.try_recv().is_err()), "undecodable events are not relayed");
            }
        }
    }

    /// An engaged broker given broadcast events that fail to decode — a
    /// publish whose XML is not UTF-8, an event of an unknown kind, one
    /// versioned at 2^63, a truncated record — queues, caches, announces
    /// and applies none of them: its eager peers receive nothing, the next
    /// `IHave` round lists none of their ids, a `Graft` for them finds
    /// nothing cached, and its state is unchanged.  A decodable copy of the
    /// first one, arriving afterwards, is fresh: applied and relayed.
    #[test]
    fn undecodable_broadcast_events_stop_at_the_first_hop() {
        let (broker, origin, inboxes, mut rng) = engaged_relay();
        let (vorigin, owner) = (PeerId::random(&mut rng), PeerId::random(&mut rng));
        let broadcast = |seq: u64, body| GossipEvent { broadcast: true, ..event(vorigin, seq, body) };
        let valid = broadcast(1, publish(owner, "<x/>"));
        let encoded = |event: &GossipEvent| record::encode(std::slice::from_ref(event));
        let mut non_utf8 = encoded(&valid);
        let last = non_utf8.len() - 2;
        non_utf8[last] = 0x80;
        let mut unknown_kind = encoded(&broadcast(2, GossipBody::Leave(owner)));
        unknown_kind[0] = 0xEE;
        let out_of_range = encoded(&broadcast(1 << 63, GossipBody::Leave(owner)));
        let truncated = encoded(&broadcast(3, GossipBody::Leave(owner)));
        let truncated = truncated[..truncated.len() - 1].to_vec();
        let gids = [(vorigin, 1), (vorigin, 2), (vorigin, 1 << 63), (vorigin, 3)];
        let state = |b: &Broker| (b.advertisement_snapshot(), b.routing_snapshot(), b.replica.read().state_dump());
        let before = state(&broker);
        for (seq, element) in [non_utf8, unknown_kind, out_of_range, truncated].into_iter().enumerate() {
            let mut sync = gossip(origin, seq as u64 + 1, &[]);
            sync.elements[0].content = element;
            deliver(&broker, origin, &sync);
        }
        assert!(inboxes.iter().all(|inbox| inbox.try_recv().is_err()), "nothing relayed");
        assert!(broker.fabric.lock().take_ihaves().is_empty(), "nothing announced");
        let graft = Message::new(MessageKind::PlumtreeGraft, origin, 0)
            .with_element("ids", record::encode(&gids))
            .with_str("seq", "5");
        deliver(&broker, origin, &graft);
        assert_eq!(broker.federation_stats().graft_misses, 3, "nothing cached (the 2^63 id is not decoded)");
        assert_eq!(state(&broker), before, "nothing applied");
        assert_eq!(broker.federation_stats().syncs_applied, 0);

        deliver(&broker, origin, &gossip(origin, 6, std::slice::from_ref(&valid)));
        assert_eq!(broker.lookup(&GroupId::new("math"), "jxta:PipeAdvertisement", Some(owner)), ["<x/>"]);
        assert_eq!(record::sync_events(&next_message(&inboxes[0])), [valid]);
    }

    /// A `BrokerSync` digest of `events` from `origin`, stamped with
    /// transport `seq`.
    fn gossip(origin: PeerId, seq: u64, events: &[GossipEvent]) -> Message {
        record::sync_message(origin, events).with_str("seq", &seq.to_string())
    }

    /// An event versioned `(seq, origin)`, for direct delivery.
    fn event(origin: PeerId, seq: u64, body: GossipBody) -> GossipEvent {
        GossipEvent { seq, origin, broadcast: false, repair: false, body }
    }

    /// A join of `peer` into `groups`.
    fn join(peer: PeerId, groups: &[&str]) -> GossipBody {
        GossipBody::Join(peer, groups.iter().map(|group| GroupId::new(*group)).collect())
    }

    /// A publish of `owner`'s pipe advertisement `xml` in group "math".
    fn publish(owner: PeerId, xml: &str) -> GossipBody {
        let (group, owner, doc_type, xml, _) = advert(owner, xml, (0, owner));
        GossipBody::Publish(group, owner, doc_type, xml)
    }

    /// `owner`'s pipe advertisement `xml` in group "math", versioned
    /// `version`, as a repair page or shard response carries it.
    fn advert(owner: PeerId, xml: &str, version: (u64, PeerId)) -> FlatEntry {
        (GroupId::new("math"), owner, "jxta:PipeAdvertisement".to_string(), xml.to_string(), version)
    }

    /// An `IHave` listing `gids`, stamped with transport `seq`.
    fn ihave(from: PeerId, gids: &[GossipId], seq: u64) -> Message {
        Message::new(MessageKind::PlumtreeIHave, from, 0)
            .with_element("ids", record::encode(gids))
            .with_str("seq", &seq.to_string())
    }

    type Inbox = crossbeam::channel::Receiver<NetMessage>;

    /// The id lists of the `Graft`s waiting in `inbox` (other traffic is
    /// drained and ignored).
    fn grafts_in(inbox: &Inbox) -> Vec<Vec<GossipId>> {
        inbox
            .try_iter()
            .filter_map(|delivery| Message::from_bytes(&delivery.payload).ok())
            .filter(|message| message.kind == MessageKind::PlumtreeGraft)
            .map(|graft| record::decode(graft.element("ids").unwrap()))
            .collect()
    }

    /// An engaged broker (twelve admitted peers, each with an inbox) whose
    /// first `lazy` view members pruned their edges: those peers, in view
    /// order, with their inboxes.  Each has used transport `seq` 1.
    fn engaged_with_lazy_edges(lazy: usize) -> (Arc<Broker>, Vec<(PeerId, Inbox)>, HmacDrbg) {
        let (net, _db, broker, mut rng) = setup();
        let mut inboxes: HashMap<PeerId, _> = (0..12)
            .map(|_| {
                let peer = PeerId::random(&mut rng);
                broker.add_peer_broker(peer);
                (peer, net.register(peer))
            })
            .collect();
        assert!(broker.epidemic_engaged());
        let mut peers = Vec::new();
        for peer in broker.active_view().into_iter().take(lazy) {
            let prune = Message::new(MessageKind::PlumtreePrune, peer, 0).with_str("seq", "1");
            deliver(&broker, peer, &prune);
            peers.push((peer, inboxes.remove(&peer).unwrap()));
        }
        assert_eq!(broker.epidemic_lazy_peers().len(), lazy);
        (broker, peers, rng)
    }

    /// Plumtree's missing-message rule: an id three lazy peers advertise in
    /// one round is grafted once, from the first, and only that edge turns
    /// eager; the later announcers are kept as fallbacks.
    #[test]
    fn graft_once_per_missing_id_from_the_first_announcer() {
        let (broker, lazy, mut rng) = engaged_with_lazy_edges(3);
        let gid = (PeerId::random(&mut rng), 7);
        for (peer, _) in &lazy {
            deliver(&broker, *peer, &ihave(*peer, &[gid], 2));
        }
        let grafts: Vec<_> = lazy.iter().map(|(_, inbox)| grafts_in(inbox)).collect();
        assert_eq!(grafts, [vec![vec![gid]], vec![], vec![]], "one Graft, to the first announcer");
        assert_eq!(broker.federation_stats().grafts_sent, 1);
        assert!(broker.epidemic_eager_peers().contains(&lazy[0].0));
        assert_eq!(broker.epidemic_lazy_peers().len(), 2, "the fallbacks' edges stay lazy");
        assert_eq!(broker.fabric.lock().pending_grafts(), 1);
    }

    /// The first announcer never delivers (its `Graft` or the reply was
    /// lost): the next round grafts the id from the second announcer, whose
    /// copy applies without anti-entropy.  An id with no other announcer is
    /// dropped at that round, and a delivered one needs no further graft.
    #[test]
    fn graft_once_per_missing_id_retries_a_fallback_next_round() {
        let (broker, lazy, mut rng) = engaged_with_lazy_edges(3);
        let origin = PeerId::random(&mut rng);
        let (retried, lone) = ((origin, 7), (origin, 8));
        for (peer, _) in &lazy {
            deliver(&broker, *peer, &ihave(*peer, &[retried], 2));
        }
        deliver(&broker, lazy[2].0, &ihave(lazy[2].0, &[lone], 3));
        let grafts: Vec<_> = lazy.iter().map(|(_, inbox)| grafts_in(inbox)).collect();
        assert_eq!(grafts, [vec![vec![retried]], vec![], vec![vec![lone]]]);

        broker.start_repair_round();
        let grafts: Vec<_> = lazy.iter().map(|(_, inbox)| grafts_in(inbox)).collect();
        assert_eq!(grafts, [vec![], vec![vec![retried]], vec![]], "retried from the fallback only");
        assert!(broker.epidemic_eager_peers().contains(&lazy[1].0));

        let owner = PeerId::random(&mut rng);
        let group = GroupId::new("math");
        let copy = GossipEvent { broadcast: true, repair: true, ..event(origin, 7, publish(owner, "<adv/>")) };
        deliver(&broker, lazy[1].0, &gossip(lazy[1].0, 3, &[copy]));
        assert_eq!(broker.lookup(&group, "jxta:PipeAdvertisement", Some(owner)).len(), 1);
        assert_eq!(broker.federation_stats().entries_repaired, 0, "no anti-entropy involved");
        assert_eq!(broker.fabric.lock().pending_grafts(), 0, "seen, and the lone id dropped");

        broker.start_repair_round();
        assert!(lazy.iter().all(|(_, inbox)| grafts_in(inbox).is_empty()));
        assert_eq!(broker.federation_stats().grafts_sent, 3);
    }

    /// An admitted peer advertising made-up ids fills the pending grafts to
    /// their FIFO bound and no further; the next round, with no fallback to
    /// retry from, empties them.
    #[test]
    fn graft_once_per_missing_id_bounds_the_pending_set() {
        let (broker, lazy, mut rng) = engaged_with_lazy_edges(1);
        let forger = PeerId::random(&mut rng);
        let made_up: Vec<GossipId> = (1..=100_000).map(|seq| (forger, seq)).collect();
        deliver(&broker, lazy[0].0, &ihave(lazy[0].0, &made_up, 2));
        assert_eq!(broker.fabric.lock().pending_grafts(), plumtree::DEFAULT_CACHE);
        broker.start_repair_round();
        assert_eq!(broker.fabric.lock().pending_grafts(), 0);
    }

    /// A gossip-id record whose seq breaks the wire-counter rule (at or
    /// above 2^63) is dropped by the decoder, so it is never grafted; the
    /// largest in-range seq still is.
    #[test]
    fn forged_counter_gossip_id_seq_is_dropped() {
        let (broker, lazy, mut rng) = engaged_with_lazy_edges(1);
        let origin = PeerId::random(&mut rng);
        let gids = [(origin, 1 << 63), (origin, u64::MAX), (origin, FORGED_IN_RANGE)];
        assert_eq!(record::decode::<GossipId>(&record::encode(&gids)), [gids[2]]);
        deliver(&broker, lazy[0].0, &ihave(lazy[0].0, &gids, 2));
        assert_eq!(grafts_in(&lazy[0].1), [vec![(origin, FORGED_IN_RANGE)]]);
        assert_eq!(broker.fabric.lock().pending_grafts(), 1);
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

