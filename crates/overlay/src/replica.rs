//! The broker's replicated state: one owner behind one lock.
//!
//! Everything a broker replicates or repairs lives in one [`Replica`] behind
//! one lock (`broker.replica`): advertisements, sessions, routing with its
//! last-writer-wins presence versions, group membership with its provenance
//! stamps, group hosts, the shard ring and the anti-entropy summaries over
//! them ([`RepairSummaries`]).  Each transition applies one event under that
//! one guard and never sends: what must be gossiped afterwards (a
//! re-asserted join, the members to push to) is handed back for the broker
//! to ship once the guard is released.
//!
//! The summaries are kept current by the writes themselves.  Each replicated
//! map has one writer: [`Replica::store_advertisement`] and
//! `remove_advertisement` for the index, `join_group` and `leave_group` for
//! membership, and `write_presence` for a peer's version, session and home.
//! Each swaps the entry's old hash out of its summary and the new one in, so
//! a digest reads the summaries and a healthy repair round hashes nothing.
//! A stale write, which loses its last-writer-wins comparison, changes
//! neither the state nor the summaries.
//!
//! The same writers keep two shard-key-ordered indexes, of the stored
//! advertisements' identities and of the membership entries, so an
//! anti-entropy descent reads the entries of a key range in O(log n + k)
//! instead of walking everything held.  An advertisement's identity is
//! written when it is first stored or removed; an overwrite leaves it alone.

use crate::broker::BrokerSession;
use crate::counter::SyncClock;
use crate::group::{GroupId, GroupRegistry};
use crate::id::{PeerId, PEER_ID_LEN};
use crate::repair::{self, Edit, RepairSummaries};
use crate::shard::{self, SectionTree, ShardRing};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Version of a peer's replicated presence state: `(origin sequence, kind
/// rank, origin broker)`.  Joins rank above leaves at the same sequence so a
/// leave/re-join pair racing across the backbone resolves to the join on
/// every broker.  Like the advertisement versions, any total order makes the
/// replicas converge; the ranking only picks the intuitive winner.
pub(crate) type PresenceVersion = (u64, u8, PeerId);

/// Rank of a leave in a [`PresenceVersion`].
pub(crate) const PRESENCE_LEAVE: u8 = 0;
/// Rank of a join in a [`PresenceVersion`].
pub(crate) const PRESENCE_JOIN: u8 = 1;

/// A flattened index entry: `(group, owner, doc type, xml, version)`.
pub(crate) type FlatEntry = (GroupId, PeerId, String, String, (u64, PeerId));

/// A presence-register entry: the peer, its version and its home broker.
pub(crate) type PresenceEntry = (PeerId, PresenceVersion, Option<PeerId>);

/// A membership entry: the group, the member and its provenance stamp.
pub(crate) type MembershipEntry = (GroupId, PeerId, PresenceVersion);

/// One indexed advertisement: the XML document plus its last-writer-wins
/// version `(sequence number at the origin broker, origin broker id)`.
/// Every broker keeps the entry with the greatest version, so concurrent
/// publishes of the same `(owner, doc type)` key converge to the same winner
/// on every replica regardless of the order the gossip arrives in.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IndexedAdvertisement {
    xml: String,
    version: (u64, PeerId),
    /// The entry's repair hash, kept so that overwriting or removing it
    /// never re-hashes the XML.
    hash: u64,
}

/// An advertisement's key within its group: `(owner, doc type)`.
type AdvKey = (PeerId, String);

/// Advertisement index for one group: (owner, doc type) → versioned XML.
type GroupAdvertisements = HashMap<AdvKey, IndexedAdvertisement>;

/// The lowest peer id, which starts a shard-key range read of an index.
const MIN_PEER: PeerId = PeerId::from_bytes([0; PEER_ID_LEN]);

/// Test-only instrumentation counting the entries the ordered indexes'
/// range reads visit, per thread, so tests can pin a descent's legs and
/// pages to work in proportion to the ranges they cover.
#[cfg(test)]
pub(crate) mod visit_probe {
    use std::cell::Cell;

    thread_local! {
        static VISITED: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn record() {
        VISITED.with(|visited| visited.set(visited.get() + 1));
    }

    /// Cumulative index entries visited on the calling thread.
    pub(crate) fn visited() -> u64 {
        VISITED.with(Cell::get)
    }
}

/// A join the broker must gossip once the replica guard is released.
pub(crate) struct JoinGossip {
    pub(crate) seq: u64,
    pub(crate) peer: PeerId,
    pub(crate) groups: Vec<GroupId>,
}

/// What [`Replica::reshard`] decided, in gossip order: the local sessions'
/// joins, then every advertisement and membership entry (with its version)
/// paired with its other replicas, and the number of entries that left.
pub(crate) struct ReshardPlan {
    pub(crate) joins: Vec<JoinGossip>,
    pub(crate) adverts: Vec<(FlatEntry, Vec<PeerId>)>,
    pub(crate) memberships: Vec<(GroupId, PeerId, PresenceVersion, Vec<PeerId>)>,
    pub(crate) migrated: u64,
}

/// One write to a peer's presence state, applied by
/// [`Replica::write_presence`].
enum PresenceWrite {
    /// Stores its last-writer-wins version.
    Version(PresenceVersion),
    /// Opens (or resurrects) its session here.
    Open(BrokerSession),
    /// Closes its session here.
    Close,
    /// Records (or clears) its home at another broker.
    RemoteHome(Option<PeerId>),
}

/// All replicated state of one broker, with its repair summaries.
pub(crate) struct Replica {
    own: PeerId,
    sharded: bool,
    /// Advertisement index: group → (owner, doc type) → XML.
    advertisements: HashMap<GroupId, GroupAdvertisements>,
    /// The identity of every stored advertisement, `(shard key, group,
    /// (owner, doc type))`, in shard-key order.
    adv_order: BTreeSet<(u64, GroupId, AdvKey)>,
    /// Logged-in sessions.
    sessions: HashMap<PeerId, BrokerSession>,
    /// Live local sessions shadowed by a remote join this broker yielded to;
    /// resurrected if the displacing origin later gossips the peer's leave
    /// (the join/leave pair proves the displacing join a stale echo).
    displaced: HashMap<PeerId, BrokerSession>,
    /// Connected (not necessarily logged-in) peers.
    connected: HashSet<PeerId>,
    /// Which broker each remote peer is homed at.
    peer_homes: HashMap<PeerId, PeerId>,
    /// Last-writer-wins version of each peer's presence (join/leave) state.
    peer_versions: HashMap<PeerId, PresenceVersion>,
    /// The presence version each `(group, member)` entry was asserted under.
    /// A sender strictly newer than it that lacks the entry proves it stale
    /// in anti-entropy; an equal version proves it current.
    membership_versions: HashMap<(GroupId, PeerId), PresenceVersion>,
    /// Group → member → home broker, from the replicated join/leave gossip:
    /// sharded publishes address member-hosting brokers with it.
    group_hosts: HashMap<GroupId, HashMap<PeerId, PeerId>>,
    /// The consistent-hash ring over this broker and its peers.
    ring: ShardRing,
    groups: GroupRegistry,
    /// Every membership entry of `groups`, `(shard key, group, member)`, in
    /// shard-key order.
    membership_order: BTreeSet<(u64, GroupId, PeerId)>,
    /// The anti-entropy summaries of everything above, kept current by the
    /// writers (see the module docs).
    summaries: RepairSummaries,
    /// The broker's sequence clock, which versions local presence writes.
    clock: Arc<SyncClock>,
}

impl Replica {
    /// An empty replica for broker `own`, sharded when `replication_factor`
    /// is set, versioning local writes with `clock`.
    pub(crate) fn new(
        own: PeerId,
        replication_factor: Option<usize>,
        clock: Arc<SyncClock>,
    ) -> Self {
        let mut ring = ShardRing::new(replication_factor.unwrap_or(usize::MAX));
        ring.insert(own);
        let summaries = RepairSummaries::new(replication_factor.is_some(), &ring);
        Replica {
            own,
            sharded: replication_factor.is_some(),
            advertisements: HashMap::new(),
            adv_order: BTreeSet::new(),
            sessions: HashMap::new(),
            displaced: HashMap::new(),
            connected: HashSet::new(),
            peer_homes: HashMap::new(),
            peer_versions: HashMap::new(),
            membership_versions: HashMap::new(),
            group_hosts: HashMap::new(),
            ring,
            groups: GroupRegistry::new(),
            membership_order: BTreeSet::new(),
            summaries,
            clock,
        }
    }

    pub(crate) fn groups(&self) -> &GroupRegistry {
        &self.groups
    }

    /// The replica set of `(group, owner)` on the shard ring.
    pub(crate) fn replicas(&self, group: &GroupId, owner: &PeerId) -> Vec<PeerId> {
        self.ring.replicas(group, owner)
    }

    /// Whether this broker must store the `(group, owner)` entry: always
    /// fully replicated, only as a ring replica when sharded.
    pub(crate) fn is_local_replica(&self, group: &GroupId, owner: &PeerId) -> bool {
        !self.sharded || self.ring.is_replica(group, owner, &self.own)
    }

    pub(crate) fn advertisement_count(&self) -> usize {
        self.advertisements.values().map(HashMap::len).sum()
    }

    pub(crate) fn group_host_brokers(&self, group: &GroupId) -> Vec<PeerId> {
        let mut out: Vec<PeerId> = self
            .group_hosts
            .get(group)
            .map(|members| members.values().copied().collect())
            .unwrap_or_default();
        out.sort();
        out.dedup();
        out.retain(|b| *b != self.own);
        out
    }

    /// The brokers a sharded publish of `(group, owner)` is addressed to:
    /// its ring replicas plus the brokers hosting live members of the group
    /// (those push without storing), sorted, never this broker.
    pub(crate) fn publish_targets(&self, group: &GroupId, owner: &PeerId) -> Vec<PeerId> {
        let mut targets: Vec<PeerId> = self
            .replicas(group, owner)
            .into_iter()
            .chain(self.group_host_brokers(group))
            .filter(|broker| *broker != self.own)
            .collect();
        targets.sort();
        targets.dedup();
        targets
    }

    pub(crate) fn client_peers(&self) -> Vec<PeerId> {
        let mut peers: Vec<PeerId> =
            self.connected.iter().chain(self.sessions.keys()).copied().collect();
        peers.sort();
        peers.dedup();
        peers
    }

    pub(crate) fn home_of(&self, peer: &PeerId) -> Option<PeerId> {
        if self.sessions.contains_key(peer) {
            return Some(self.own);
        }
        self.remote_home(peer)
    }

    /// The replicated home of a peer joined at another broker.
    pub(crate) fn remote_home(&self, peer: &PeerId) -> Option<PeerId> {
        self.peer_homes.get(peer).copied()
    }

    /// Every indexed advertisement as `(group, owner, doc type, f(xml,
    /// version))`, sorted.
    pub(crate) fn advertisements_with<T: Ord>(
        &self,
        f: impl Fn(&str, (u64, PeerId)) -> T,
    ) -> Vec<(GroupId, PeerId, String, T)> {
        let mut out = Vec::new();
        for (group, index) in &self.advertisements {
            for ((owner, doc_type), adv) in index {
                out.push((group.clone(), *owner, doc_type.clone(), f(&adv.xml, adv.version)));
            }
        }
        out.sort();
        out
    }

    pub(crate) fn routing_snapshot(&self) -> Vec<(PeerId, PeerId)> {
        let mut out: Vec<(PeerId, PeerId)> =
            self.sessions.keys().map(|peer| (*peer, self.own)).collect();
        out.extend(self.peer_homes.iter().map(|(p, h)| (*p, *h)));
        out.sort();
        out
    }

    pub(crate) fn is_connected(&self, peer: &PeerId) -> bool {
        self.connected.contains(peer)
    }

    pub(crate) fn session(&self, peer: &PeerId) -> Option<&BrokerSession> {
        self.sessions.get(peer)
    }

    pub(crate) fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Advertisements of `doc_type` in `group` (optionally of one owner)
    /// with owner and version, sorted by owner.
    pub(crate) fn lookup(
        &self,
        group: &GroupId,
        doc_type: &str,
        owner: Option<PeerId>,
    ) -> Vec<(PeerId, (u64, PeerId), String)> {
        let Some(index) = self.advertisements.get(group) else {
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

    /// The locally homed members of `group` other than `from`: the
    /// audience of an advertisement push.
    fn local_members(&self, group: &GroupId, from: &PeerId) -> Vec<PeerId> {
        self.groups
            .members(group)
            .into_iter()
            .filter(|member| member != from && self.sessions.contains_key(member))
            .collect()
    }

    /// The provenance version of a stored membership entry (falling back to
    /// the peer's presence version, then to a floor that loses every
    /// comparison).
    pub(crate) fn membership_stamp(&self, group: &GroupId, member: &PeerId) -> PresenceVersion {
        if let Some(stamp) = self.membership_versions.get(&(group.clone(), *member)) {
            return *stamp;
        }
        self.peer_versions.get(member).copied().unwrap_or((0, PRESENCE_LEAVE, *member))
    }

    /// `true` when both this broker and `peer` are ring replicas of the
    /// shard key `key` — the shared-responsibility test that keeps the two
    /// sides of an anti-entropy exchange hashing the same entry set.
    fn is_shared_replica(&self, key: u64, peer: &PeerId) -> bool {
        if !self.sharded {
            return true;
        }
        let arc = self.ring.arc_of(key);
        self.ring.arc_holds(arc, &self.own) && self.ring.arc_holds(arc, peer)
    }

    /// `true` when both this broker and `peer` are responsible for the
    /// membership entry of `member` with shard key `key`: a ring replica of
    /// it, or the member's home (which keeps its sessions' memberships as
    /// ground truth and can heal replicas that all lost the join).  Both
    /// sides read the home from the fully replicated routing table, so the
    /// sets agree whenever routing does.
    fn is_membership_shared(&self, key: u64, member: &PeerId, peer: &PeerId) -> bool {
        if !self.sharded {
            return true;
        }
        let home = self.home_of(member);
        let arc = self.ring.arc_of(key);
        let responsible = |broker: &PeerId| self.ring.arc_holds(arc, broker) || home == Some(*broker);
        responsible(&self.own) && responsible(peer)
    }

    /// The stored advertisements shared with `peer` whose shard key falls in
    /// `[lo, hi]`, in shard-key order: a range read of the ordered index,
    /// O(log n + k) for the k entries in the range.
    fn shared_adverts_in<'a>(
        &'a self,
        peer: &'a PeerId,
        (lo, hi): (u64, u64),
    ) -> impl Iterator<Item = (u64, &'a GroupId, &'a AdvKey, &'a IndexedAdvertisement)> + 'a {
        self.adv_order
            .range((lo, GroupId::new(""), (MIN_PEER, String::new()))..)
            .take_while(move |(key, ..)| {
                #[cfg(test)]
                visit_probe::record();
                *key <= hi
            })
            .filter(move |(key, ..)| self.is_shared_replica(*key, peer))
            .filter_map(move |(key, group, adv_key)| {
                let adv = self.advertisements.get(group)?.get(adv_key)?;
                Some((*key, group, adv_key, adv))
            })
    }

    /// Sorted advertisement entries shared with `peer`.
    pub(crate) fn repair_adv_entries(&self, peer: &PeerId) -> Vec<FlatEntry> {
        let mut out: Vec<FlatEntry> = self
            .shared_adverts_in(peer, (0, u64::MAX))
            .map(|(_, group, (owner, doc_type), adv)| {
                (group.clone(), *owner, doc_type.clone(), adv.xml.clone(), adv.version)
            })
            .collect();
        out.sort();
        out
    }

    /// The advertisements shared with `peer` whose shard key falls in
    /// `range`, in shard-key order, each with its stored hash.  An entry
    /// whose hash is `listed` comes without its body: the peer that listed
    /// the hash stores the entry already.
    pub(crate) fn repair_adv_entries_in(
        &self,
        peer: &PeerId,
        range: (u64, u64),
        listed: Option<&HashSet<u64>>,
    ) -> Vec<(u64, (u64, Option<FlatEntry>))> {
        self.shared_adverts_in(peer, range)
            .map(|(key, group, (owner, doc_type), adv)| {
                let lacked = !listed.is_some_and(|listed| listed.contains(&adv.hash));
                let entry = lacked.then(|| {
                    (group.clone(), *owner, doc_type.clone(), adv.xml.clone(), adv.version)
                });
                (key, (adv.hash, entry))
            })
            .collect()
    }

    /// The stored hashes of the advertisements shared with `peer` whose
    /// shard key falls in `range`, in shard-key order.
    pub(crate) fn repair_adv_hashes_in<'a>(
        &'a self,
        peer: &'a PeerId,
        range: (u64, u64),
    ) -> impl Iterator<Item = u64> + 'a {
        self.shared_adverts_in(peer, range).map(|(.., adv)| adv.hash)
    }

    /// The membership entries shared with `peer` whose shard key falls in
    /// `[lo, hi]`, in shard-key order: a range read of the ordered index.
    fn shared_memberships_in<'a>(
        &'a self,
        peer: &'a PeerId,
        (lo, hi): (u64, u64),
    ) -> impl Iterator<Item = &'a (u64, GroupId, PeerId)> + 'a {
        self.membership_order
            .range((lo, GroupId::new(""), MIN_PEER)..)
            .take_while(move |(key, ..)| {
                #[cfg(test)]
                visit_probe::record();
                *key <= hi
            })
            .filter(move |(key, _, member)| self.is_membership_shared(*key, member, peer))
    }

    /// Sorted membership entries shared with `peer`, with their stamps.
    pub(crate) fn repair_membership_entries(&self, peer: &PeerId) -> Vec<MembershipEntry> {
        let mut out: Vec<_> =
            self.repair_membership_entries_in(peer, (0, u64::MAX)).into_iter().map(|(_, entry)| entry).collect();
        out.sort();
        out
    }

    /// Membership entries shared with `peer` whose shard key falls in
    /// `range`, in shard-key order, with their stamps.
    pub(crate) fn repair_membership_entries_in(
        &self,
        peer: &PeerId,
        range: (u64, u64),
    ) -> Vec<(u64, MembershipEntry)> {
        self.shared_memberships_in(peer, range)
            .map(|(key, group, member)| (*key, (group.clone(), *member, self.membership_stamp(group, member))))
            .collect()
    }

    /// Sorted presence register: every peer's version plus its current home
    /// broker.  Fully replicated, so the whole register is exchanged with
    /// every peer.
    pub(crate) fn repair_presence_entries(&self) -> Vec<PresenceEntry> {
        let mut out: Vec<PresenceEntry> = self
            .peer_versions
            .iter()
            .map(|(peer, version)| (*peer, *version, self.home_of(peer)))
            .collect();
        out.sort();
        out
    }

    /// The digest of the presence/routing register (identical towards every
    /// peer).
    pub(crate) fn presence_hash(&self) -> u64 {
        self.summaries.presence_digest()
    }

    /// The advertisement and membership digests towards `peer`, read off the
    /// summaries: no entry is hashed.
    pub(crate) fn repair_digests(&self, peer: &PeerId) -> (u64, u64) {
        self.summaries.digests(&self.ring, &self.own, peer)
    }

    /// The repair tree of one shard-keyed section (`'a'` or `'m'`) over the
    /// entries shared with `peer`: the live tree in full replication, where
    /// every peer shares everything.  Sharded, a descent builds the filtered
    /// tree from the stored advertisement hashes (membership hashes are
    /// short and recomputed), re-hashing no XML.
    pub(crate) fn section_tree(&self, section: char, peer: &PeerId) -> Cow<'_, SectionTree> {
        if let Some(tree) = self.summaries.tree(section) {
            return Cow::Borrowed(tree);
        }
        let mut tree = SectionTree::default();
        if section == 'a' {
            for (key, .., adv) in self.shared_adverts_in(peer, (0, u64::MAX)) {
                tree.insert(key, adv.hash);
            }
        } else {
            for (key, group, member) in self.shared_memberships_in(peer, (0, u64::MAX)) {
                tree.insert(*key, repair::membership_entry_hash(group, member));
            }
        }
        Cow::Owned(tree)
    }

    /// A broker joined the federation: it joins the shard ring.
    pub(crate) fn admit_broker(&mut self, broker: PeerId) {
        self.ring.insert(broker);
        self.resummarise_arcs();
    }

    /// A broker left: it leaves the ring, and its clients' routes and
    /// memberships go with it (every survivor performs the same cleanup).
    pub(crate) fn remove_broker(&mut self, broker: &PeerId) {
        self.ring.remove(broker);
        self.resummarise_arcs();
        let orphans: Vec<PeerId> = self
            .peer_homes
            .iter()
            .filter(|(_, home)| *home == broker)
            .map(|(peer, _)| *peer)
            .collect();
        for peer in orphans {
            self.forget_memberships(&peer);
            self.connected.remove(&peer);
            self.displaced.remove(&peer);
            self.write_presence(peer, PresenceWrite::RemoteHome(None));
        }
        for hosts in self.group_hosts.values_mut() {
            hosts.retain(|_, home| home != broker);
        }
    }

    /// A ring change moved keys between arcs: a sharded replica re-files
    /// every entry under its new arc, from the stored advertisement hashes.
    fn resummarise_arcs(&mut self) {
        if !self.sharded {
            return;
        }
        self.summaries.reset_arcs(&self.ring);
        for (group, index) in &self.advertisements {
            for ((owner, _), adv) in index {
                let key = shard::shard_key(group, owner);
                self.summaries.edit_adv(&self.ring, key, adv.hash, Edit::Insert);
            }
        }
        for (group, members) in self.groups.snapshot() {
            for member in members {
                let entry = Self::membership_entry(&group, &member);
                let home = self.home_of(&member);
                self.summaries.edit_membership(&self.ring, entry, home, Edit::Insert);
            }
        }
    }

    /// The shard key and repair hash of a membership entry.
    fn membership_entry(group: &GroupId, member: &PeerId) -> (u64, u64) {
        (shard::shard_key(group, member), repair::membership_entry_hash(group, member))
    }

    /// The one writer of the membership registry's joins: `member` joins
    /// `group`, its summary and the ordered index.
    fn join_group(&mut self, group: GroupId, member: PeerId) {
        if self.groups.is_member(&group, &member) {
            return;
        }
        let entry = Self::membership_entry(&group, &member);
        let home = self.home_of(&member);
        self.summaries.edit_membership(&self.ring, entry, home, Edit::Insert);
        self.membership_order.insert((entry.0, group.clone(), member));
        self.groups.join(group, member);
    }

    /// The one writer of the membership registry's leaves.
    fn leave_group(&mut self, group: &GroupId, member: &PeerId) {
        if self.groups.leave(group, member) {
            let entry = Self::membership_entry(group, member);
            let home = self.home_of(member);
            self.summaries.edit_membership(&self.ring, entry, home, Edit::Remove);
            self.membership_order.remove(&(entry.0, group.clone(), *member));
        }
    }

    /// The one writer of a peer's presence state: its version, its session
    /// here and its remote home.  Swaps the peer's presence hash when its
    /// `(version, home)` moved and, sharded, re-files its membership
    /// entries under their new home.  Returns the session a write closed or
    /// replaced.
    fn write_presence(&mut self, peer: PeerId, write: PresenceWrite) -> Option<BrokerSession> {
        let (version, home) = (self.peer_versions.get(&peer).copied(), self.home_of(&peer));
        let closed = match write {
            PresenceWrite::Version(version) => {
                self.peer_versions.insert(peer, version);
                None
            }
            PresenceWrite::Open(session) => self.sessions.insert(peer, session),
            PresenceWrite::Close => self.sessions.remove(&peer),
            PresenceWrite::RemoteHome(Some(home)) => {
                self.peer_homes.insert(peer, home);
                None
            }
            PresenceWrite::RemoteHome(None) => {
                self.peer_homes.remove(&peer);
                None
            }
        };
        let (new_version, new_home) = (self.peer_versions.get(&peer).copied(), self.home_of(&peer));
        if (version, home) != (new_version, new_home) {
            let hash = |version: Option<PresenceVersion>, home| {
                version.map(|version| repair::presence_entry_hash(&peer, version, home))
            };
            self.summaries.swap_presence(hash(version, home), hash(new_version, new_home));
        }
        if self.sharded && home != new_home {
            for group in self.groups.groups_of(&peer) {
                let entry = Self::membership_entry(&group, &peer);
                self.summaries.rehome_membership(&self.ring, entry, (home, new_home));
            }
        }
        closed
    }

    pub(crate) fn mark_connected(&mut self, peer: PeerId) {
        self.connected.insert(peer);
    }

    pub(crate) fn stamp_membership(
        &mut self,
        group: &GroupId,
        member: PeerId,
        version: PresenceVersion,
    ) {
        self.membership_versions.insert((group.clone(), member), version);
    }

    pub(crate) fn forget_membership_stamps(&mut self, peer: &PeerId) {
        self.membership_versions.retain(|(_, member), _| member != peer);
    }

    /// Drops `peer` from every group with its provenance stamps.
    pub(crate) fn forget_memberships(&mut self, peer: &PeerId) {
        for group in self.groups.groups_of(peer) {
            self.leave_group(&group, peer);
        }
        self.forget_membership_stamps(peer);
    }

    fn set_group_hosts(&mut self, member: &PeerId, groups: &[GroupId], home: PeerId) {
        for group in groups {
            self.group_hosts.entry(group.clone()).or_default().insert(*member, home);
        }
    }

    fn clear_group_hosts(&mut self, member: &PeerId) {
        for members in self.group_hosts.values_mut() {
            members.remove(member);
        }
        self.group_hosts.retain(|_, members| !members.is_empty());
    }

    /// Records a local join/leave in the presence register and returns the
    /// sequence number it was versioned (and must be gossiped) under.  The
    /// sequence is floored above the stored version so the local write — the
    /// authoritative one, the client is talking to *this* broker — wins.
    fn version_local_presence(&mut self, peer: PeerId, rank: u8) -> u64 {
        self.clock.observe(self.peer_versions.get(&peer).map_or(0, |version| version.0));
        let seq = self.clock.next();
        self.write_presence(peer, PresenceWrite::Version((seq, rank, self.own)));
        seq
    }

    /// Records a successful login: the session, its groups and this broker
    /// as the peer's home (a fresh login also supersedes a shadowed
    /// session).  Returns the join to gossip.
    pub(crate) fn establish_session(&mut self, peer: PeerId, session: BrokerSession) -> JoinGossip {
        self.write_presence(peer, PresenceWrite::Open(session.clone()));
        self.displaced.remove(&peer);
        self.assert_local_session(peer, session)
    }

    /// Removes a peer's session, connection and memberships.  Returns the
    /// sequence its leave is gossiped under when it had a session.
    pub(crate) fn drop_session(&mut self, peer: &PeerId) -> Option<u64> {
        let had_session = self.write_presence(*peer, PresenceWrite::Close).is_some();
        self.connected.remove(peer);
        self.displaced.remove(peer);
        self.forget_memberships(peer);
        self.clear_group_hosts(peer);
        had_session.then(|| self.version_local_presence(*peer, PRESENCE_LEAVE))
    }

    /// Asserts a live local session: this broker *is* the peer's home (the
    /// connection is local ground truth), so it takes the route, restores
    /// the memberships and versions the join above any stored write — also
    /// how a session re-asserts itself over stale remote gossip.
    fn assert_local_session(&mut self, peer: PeerId, session: BrokerSession) -> JoinGossip {
        self.write_presence(peer, PresenceWrite::RemoteHome(None));
        let seq = self.version_local_presence(peer, PRESENCE_JOIN);
        for group in &session.groups {
            self.stamp_membership(group, peer, (seq, PRESENCE_JOIN, self.own));
            self.join_group(group.clone(), peer);
        }
        self.set_group_hosts(&peer, &session.groups, self.own);
        JoinGossip { seq, peer, groups: session.groups }
    }

    /// The local side of a remote JOIN (the peer is homed at `origin` now).
    /// When the peer is demonstrably logged in *here*, the lower broker id
    /// re-asserts (a stale join arriving late cannot ghost a live client) and
    /// the higher one yields but *shadows* the open session; exactly one side
    /// backs down, so the exchange terminates.  Returns `true` when the event
    /// was absorbed by a re-assert (queued on `joins`).
    pub(crate) fn yield_to_remote_join(
        &mut self,
        peer: PeerId,
        origin: PeerId,
        joins: &mut Vec<JoinGossip>,
    ) -> bool {
        if let Some(session) = self.sessions.get(&peer).cloned() {
            if self.own < origin {
                joins.push(self.assert_local_session(peer, session));
                return true;
            }
            self.displaced.insert(peer, session);
        }
        self.write_presence(peer, PresenceWrite::Close);
        self.connected.remove(&peer);
        false
    }

    /// The local side of a remote LEAVE.  A live session here is re-asserted
    /// (a leave echoing an older home must not log it out); a *shadowed* one
    /// is resurrected, its still-open connection proving the join we yielded
    /// to a stale echo.  Returns `true` when absorbed (a join on `joins`).
    pub(crate) fn absorb_remote_leave(
        &mut self,
        peer: PeerId,
        joins: &mut Vec<JoinGossip>,
    ) -> bool {
        if let Some(session) = self.sessions.get(&peer).cloned() {
            joins.push(self.assert_local_session(peer, session));
            return true;
        }
        if let Some(session) = self.displaced.remove(&peer) {
            self.write_presence(peer, PresenceWrite::Open(session.clone()));
            joins.push(self.assert_local_session(peer, session));
            return true;
        }
        self.connected.remove(&peer);
        false
    }

    /// Plans the migration after a ring change and drops the entries this
    /// broker no longer owns — except local sessions' memberships, which are
    /// local ground truth.
    pub(crate) fn reshard(&mut self) -> ReshardPlan {
        let sessions: Vec<(PeerId, Vec<GroupId>)> =
            self.sessions.iter().map(|(peer, session)| (*peer, session.groups.clone())).collect();
        let joins = sessions
            .into_iter()
            .map(|(peer, groups)| {
                let seq = self.version_local_presence(peer, PRESENCE_JOIN);
                JoinGossip { seq, peer, groups }
            })
            .collect();
        let mut migrated = 0u64;
        let mut adverts = Vec::new();
        for (group, owner, doc_type, (xml, version)) in
            self.advertisements_with(|xml, version| (xml.to_string(), version))
        {
            let replicas = self.replicas(&group, &owner);
            if !replicas.contains(&self.own) {
                self.remove_advertisement(&group, &owner, &doc_type);
                migrated += 1;
            }
            let others = replicas.into_iter().filter(|r| *r != self.own).collect();
            adverts.push(((group, owner, doc_type, xml, version), others));
        }
        let mut memberships = Vec::new();
        for (group, members) in self.groups.snapshot() {
            for peer in members {
                let replicas = self.replicas(&group, &peer);
                // Migrated entries carry their provenance stamp, so the
                // receiving replica's copy stays comparable against future
                // presence versions exactly as the original was.
                let version = self.membership_stamp(&group, &peer);
                if !replicas.contains(&self.own) && !self.sessions.contains_key(&peer) {
                    self.leave_group(&group, &peer);
                    self.membership_versions.remove(&(group.clone(), peer));
                    migrated += 1;
                }
                let others = replicas.into_iter().filter(|r| *r != self.own).collect();
                memberships.push((group.clone(), peer, version, others));
            }
        }
        ReshardPlan { joins, adverts, memberships, migrated }
    }

    /// Inserts (or LWW-replaces) an advertisement: the one writer of the
    /// index's inserts, hashing the new entry once.  A new identity also
    /// enters the ordered index; an overwrite leaves it alone.  Returns
    /// `false` when a greater-or-equal version is already stored.
    pub(crate) fn store_advertisement(
        &mut self,
        from: PeerId,
        group: &GroupId,
        doc_type: &str,
        xml: &str,
        version: (u64, PeerId),
    ) -> bool {
        let key = (from, doc_type.to_string());
        let stored =
            self.advertisements.get(group).and_then(|index| index.get(&key)).map(|adv| adv.version);
        if stored.is_some_and(|stored| version <= stored) {
            return false;
        }
        let shard_key = shard::shard_key(group, &from);
        let hash = repair::adv_entry_hash(group, &from, doc_type, xml, version);
        if stored.is_none() {
            self.adv_order.insert((shard_key, group.clone(), key.clone()));
        }
        let adv = IndexedAdvertisement { xml: xml.to_string(), version, hash };
        if let Some(old) = self.advertisements.entry(group.clone()).or_default().insert(key, adv) {
            self.summaries.edit_adv(&self.ring, shard_key, old.hash, Edit::Remove);
        }
        self.summaries.edit_adv(&self.ring, shard_key, hash, Edit::Insert);
        true
    }

    /// Removes an advertisement: the one writer of the index's removals.
    fn remove_advertisement(&mut self, group: &GroupId, owner: &PeerId, doc_type: &str) {
        let Some(index) = self.advertisements.get_mut(group) else {
            return;
        };
        let adv_key = (*owner, doc_type.to_string());
        if let Some(old) = index.remove(&adv_key) {
            if index.is_empty() {
                self.advertisements.remove(group);
            }
            let key = shard::shard_key(group, owner);
            self.summaries.edit_adv(&self.ring, key, old.hash, Edit::Remove);
            self.adv_order.remove(&(key, group.clone(), adv_key));
        }
    }

    /// Applies a publish: stores it if this broker is one of the entry's
    /// replicas and returns the local members to push it to — `None` when a
    /// greater version already won.
    pub(crate) fn publish(
        &mut self,
        from: PeerId,
        group: &GroupId,
        doc_type: &str,
        xml: &str,
        version: (u64, PeerId),
    ) -> Option<Vec<PeerId>> {
        if self.is_local_replica(group, &from)
            && !self.store_advertisement(from, group, doc_type, xml, version)
        {
            return None;
        }
        Some(self.local_members(group, &from))
    }

    /// Applies `version` to the presence register if it is newer than the
    /// stored one.  Returns `false` when the incoming write is stale.
    pub(crate) fn try_version_presence(&mut self, peer: PeerId, version: PresenceVersion) -> bool {
        if self.peer_versions.get(&peer).is_some_and(|stored| version <= *stored) {
            return false;
        }
        self.write_presence(peer, PresenceWrite::Version(version));
        true
    }

    /// Applies a remote join of `peer` into `groups` (versioned `seq` at its
    /// new `home`).  Returns `true` unless stale or absorbed.
    pub(crate) fn apply_join(
        &mut self,
        peer: PeerId,
        (seq, home): (u64, PeerId),
        groups: &[GroupId],
        joins: &mut Vec<JoinGossip>,
    ) -> bool {
        if !self.try_version_presence(peer, (seq, PRESENCE_JOIN, home))
            || self.yield_to_remote_join(peer, home, joins)
        {
            return false;
        }
        // The peer is homed at `home` now; any local membership for it was
        // stale (the peer re-homed to another broker).
        self.forget_memberships(&peer);
        self.clear_group_hosts(&peer);
        self.write_presence(peer, PresenceWrite::RemoteHome(Some(home)));
        for group in groups {
            // Every broker records which broker hosts the member (the
            // group-aware publish routing digest), but sharded membership
            // entries live on their ring replicas only.
            self.set_group_hosts(&peer, std::slice::from_ref(group), home);
            if self.is_local_replica(group, &peer) {
                self.stamp_membership(group, peer, (seq, PRESENCE_JOIN, home));
                self.join_group(group.clone(), peer);
            }
        }
        true
    }

    /// Applies a remote leave of `peer`.  Returns `true` unless stale or
    /// absorbed.
    pub(crate) fn apply_leave(
        &mut self,
        peer: PeerId,
        (seq, home): (u64, PeerId),
        joins: &mut Vec<JoinGossip>,
    ) -> bool {
        if !self.try_version_presence(peer, (seq, PRESENCE_LEAVE, home))
            || self.absorb_remote_leave(peer, joins)
        {
            return false;
        }
        self.forget_memberships(&peer);
        self.clear_group_hosts(&peer);
        self.write_presence(peer, PresenceWrite::RemoteHome(None));
        true
    }

    /// Applies a migrated membership entry carrying the presence version it
    /// was observed under.  Returns `false` when a newer one superseded it.
    pub(crate) fn apply_membership(
        &mut self,
        peer: PeerId,
        group: GroupId,
        carried: PresenceVersion,
    ) -> bool {
        match self.peer_versions.get(&peer) {
            Some(stored) if carried < *stored => return false,
            Some(stored) if carried == *stored => {}
            _ => {
                self.write_presence(peer, PresenceWrite::Version(carried));
            }
        }
        if carried.1 == PRESENCE_JOIN && self.is_local_replica(&group, &peer) {
            self.stamp_membership(&group, peer, carried);
            self.join_group(group, peer);
        }
        true
    }

    /// Merges a presence section like the matching join/leave gossip,
    /// leaving memberships to the membership section.  Returns the entries
    /// brought up to date.
    pub(crate) fn merge_presence(
        &mut self,
        entries: &[PresenceEntry],
        joins: &mut Vec<JoinGossip>,
    ) -> u64 {
        let mut repaired = 0;
        for &(peer, version, home) in entries {
            if !self.try_version_presence(peer, version) {
                continue;
            }
            repaired += 1;
            if version.1 == PRESENCE_JOIN {
                if self.yield_to_remote_join(peer, version.2, joins) {
                    continue;
                }
                let home = home.filter(|home| *home != self.own);
                self.write_presence(peer, PresenceWrite::RemoteHome(home));
            } else {
                if self.absorb_remote_leave(peer, joins) {
                    continue;
                }
                self.forget_memberships(&peer);
                self.write_presence(peer, PresenceWrite::RemoteHome(None));
            }
        }
        repaired
    }

    /// Merges a membership section.  Deletions first: an entry shared with
    /// `origin`, in the page's key `range`, missing at the sender and
    /// stamped strictly older than the sender's version of the member was
    /// left (an equal version proves it current; a live local session's
    /// membership is never deleted).  Only the range is read, off the
    /// ordered index.  Then the sender's entries are added with their
    /// stamps.  Returns the entries brought up to date.
    pub(crate) fn merge_membership(
        &mut self,
        origin: &PeerId,
        entries: Vec<MembershipEntry>,
        sender_versions: &HashMap<PeerId, PresenceVersion>,
        range: (u64, u64),
    ) -> u64 {
        let mut repaired = 0;
        let sender_members: HashSet<(&GroupId, &PeerId)> =
            entries.iter().map(|(group, member, _)| (group, member)).collect();
        let left: Vec<(GroupId, PeerId)> = self
            .shared_memberships_in(origin, range)
            .filter(|(_, group, member)| {
                !sender_members.contains(&(group, member))
                    && !self.sessions.contains_key(member)
                    && sender_versions
                        .get(member)
                        .is_some_and(|theirs| *theirs > self.membership_stamp(group, member))
            })
            .map(|(_, group, member)| (group.clone(), *member))
            .collect();
        for (group, member) in left {
            self.leave_group(&group, &member);
            self.membership_versions.remove(&(group, member));
            repaired += 1;
        }
        for (group, member, carried) in entries {
            if carried.1 != PRESENCE_JOIN
                || !self.is_local_replica(&group, &member)
                // The member's presence moved past this entry's provenance
                // (a later leave or re-join); only a sender with an equally
                // current stamp may assert it.
                || self.peer_versions.get(&member).is_some_and(|stored| *stored > carried)
            {
                continue;
            }
            if !self.groups.is_member(&group, &member) {
                self.stamp_membership(&group, member, carried);
                self.join_group(group, member);
                repaired += 1;
            } else if carried > self.membership_stamp(&group, &member) {
                self.stamp_membership(&group, member, carried);
            }
        }
        repaired
    }

    /// Merges advertisement entries under last-writer-wins.  Returns the
    /// entries that healed, with the local members that missed their push.
    pub(crate) fn merge_advertisements(
        &mut self,
        entries: Vec<FlatEntry>,
    ) -> Vec<(FlatEntry, Vec<PeerId>)> {
        let mut healed = Vec::new();
        for entry in entries {
            let (group, owner, doc_type, xml, version) = &entry;
            if !self.is_local_replica(group, owner) {
                continue;
            }
            if let Some(members) = self.publish(*owner, group, doc_type, xml, *version) {
                healed.push((entry, members));
            }
        }
        healed
    }
}

#[cfg(test)]
impl Replica {
    /// The repair tree of `section` towards `peer`, built from scratch:
    /// every shared entry re-hashed, the advertisements from their XML.
    fn scratch_tree(&self, section: char, peer: &PeerId) -> SectionTree {
        let mut tree = SectionTree::default();
        if section == 'a' {
            for (group, index) in &self.advertisements {
                for ((owner, doc_type), adv) in index {
                    let key = shard::shard_key(group, owner);
                    if self.is_shared_replica(key, peer) {
                        let hash = repair::adv_entry_hash(group, owner, doc_type, &adv.xml, adv.version);
                        tree.insert(key, hash);
                    }
                }
            }
        } else {
            for (group, members) in self.groups.snapshot() {
                for member in members {
                    let key = shard::shard_key(&group, &member);
                    if self.is_membership_shared(key, &member, peer) {
                        tree.insert(key, repair::membership_entry_hash(&group, &member));
                    }
                }
            }
        }
        tree
    }

    /// Checks every summary against a from-scratch build: the presence
    /// digest, the two ordered indexes, and towards each of `peers` the
    /// advertisement and membership digests and trees.
    pub(crate) fn check_summaries(&self, peers: &[PeerId]) -> Result<(), String> {
        let adverts: BTreeSet<(u64, GroupId, AdvKey)> = self
            .advertisements
            .iter()
            .flat_map(|(group, index)| {
                index.keys().map(move |key| (shard::shard_key(group, &key.0), group.clone(), key.clone()))
            })
            .collect();
        let memberships: BTreeSet<(u64, GroupId, PeerId)> = self
            .groups
            .snapshot()
            .into_iter()
            .flat_map(|(group, members)| {
                members.into_iter().map(move |member| (shard::shard_key(&group, &member), group.clone(), member))
            })
            .collect();
        if self.adv_order != adverts || self.membership_order != memberships {
            return Err("an ordered index differs from the entries stored".into());
        }
        let mut presence = shard::NodeSummary::default();
        for (peer, version, home) in self.repair_presence_entries() {
            presence.insert(repair::presence_entry_hash(&peer, version, home));
        }
        if self.presence_hash() != presence.digest() {
            return Err("presence summary differs from a from-scratch build".into());
        }
        for peer in peers {
            let (a, m) = (self.scratch_tree('a', peer), self.scratch_tree('m', peer));
            if self.repair_digests(peer) != (a.root().digest(), m.root().digest()) {
                return Err(format!("digests towards {peer:?} differ from a from-scratch build"));
            }
            if *self.section_tree('a', peer) != a || *self.section_tree('m', peer) != m {
                return Err(format!("trees towards {peer:?} differ from a from-scratch build"));
            }
        }
        Ok(())
    }

    /// Everything the replica holds but its clock, in a deterministic order,
    /// stored hashes included, plus its summaries: equal before and after a
    /// message exactly when the message wrote nothing.
    pub(crate) fn state_dump(&self) -> (String, RepairSummaries) {
        fn sorted<T: Ord>(items: impl Iterator<Item = T>) -> Vec<T> {
            let mut items: Vec<T> = items.collect();
            items.sort();
            items
        }
        let adverts = sorted(self.advertisements.iter().flat_map(|(group, index)| {
            index.iter().map(move |((owner, doc_type), adv)| {
                (group.clone(), *owner, doc_type.clone(), adv.xml.clone(), adv.version, adv.hash)
            })
        }));
        let sessions = sorted(self.sessions.iter().map(|(peer, s)| (*peer, format!("{s:?}"))));
        let displaced = sorted(self.displaced.iter().map(|(peer, s)| (*peer, format!("{s:?}"))));
        let connected = sorted(self.connected.iter().copied());
        let homes = sorted(self.peer_homes.iter().map(|(peer, home)| (*peer, *home)));
        let versions = sorted(self.peer_versions.iter().map(|(peer, version)| (*peer, *version)));
        let stamps = sorted(self.membership_versions.iter().map(|(key, stamp)| (key.clone(), *stamp)));
        let hosts = sorted(self.group_hosts.iter().map(|(group, members)| {
            (group.clone(), sorted(members.iter().map(|(member, home)| (*member, *home))))
        }));
        let dump = format!(
            "{adverts:?}\n{sessions:?}\n{displaced:?}\n{connected:?}\n{homes:?}\n{versions:?}\n\
             {stamps:?}\n{hosts:?}\n{:?}\n{:?}",
            self.ring.brokers(),
            self.groups.snapshot(),
        );
        (dump, self.summaries.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxta_crypto::drbg::HmacDrbg;
    use proptest::prelude::*;

    const GROUPS: [&str; 3] = ["g0", "g1", "g2"];

    fn ids(n: usize, seed: u64) -> Vec<PeerId> {
        let mut rng = HmacDrbg::from_seed_u64(seed);
        (0..n).map(|_| PeerId::random(&mut rng)).collect()
    }

    /// The groups whose bit is set in `mask`.
    fn groups_of(mask: u64) -> Vec<GroupId> {
        (0..GROUPS.len()).filter(|bit| mask >> bit & 1 == 1).map(|bit| GroupId::new(GROUPS[bit])).collect()
    }

    /// Applies one step, decoded from `(op, a, b, c)`, to `replica`.  The
    /// small id, group and version spaces make overwrites, stale writes,
    /// re-homes and shadowed sessions common.
    fn apply(replica: &mut Replica, brokers: &[PeerId], peers: &[PeerId], (op, a, b, c): (u8, u64, u64, u64)) {
        let peer = peers[a as usize % peers.len()];
        let broker = brokers[b as usize % brokers.len()];
        let group = GroupId::new(GROUPS[c as usize % GROUPS.len()]);
        let version = (c % 7 + 1, broker);
        let presence = (c % 7 + 1, (b / 7 % 2) as u8, broker);
        let mut joins = Vec::new();
        match op {
            // Advertisement writes, overwrites and stale writes, stored
            // directly or through the replica-filtered publish.
            0 => {
                replica.store_advertisement(peer, &group, "t", &format!("<x{}/>", b % 3), version);
            }
            1 => {
                replica.publish(peer, &group, ["t", "u"][b as usize % 2], "<p/>", version);
            }
            // A login and a logout here.
            2 => {
                let session = BrokerSession { username: format!("u{a}"), groups: groups_of(b) };
                replica.establish_session(peer, session);
            }
            3 => {
                replica.drop_session(&peer);
            }
            // Remote joins and leaves: they re-home the peer, and a live or
            // shadowed session here re-asserts, yields or resurrects.
            4 => {
                replica.apply_join(peer, (c % 7 + 1, broker), &groups_of(c), &mut joins);
            }
            5 => {
                replica.apply_leave(peer, (c % 7 + 1, broker), &mut joins);
            }
            // Snapshot merges: presence, membership (deletions in a range
            // included), advertisements, and a migrated membership entry.
            6 => {
                let home = (b % 3 != 0).then_some(broker);
                replica.merge_presence(&[(peer, presence, home)], &mut joins);
            }
            7 => {
                let entries = (c % 2 == 0).then(|| (group.clone(), peer, presence)).into_iter().collect();
                let versions = HashMap::from([(peer, presence)]);
                let split = a.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                replica.merge_membership(&broker, entries, &versions, (0, split));
            }
            8 => {
                let entry = (group, peer, "t".to_string(), format!("<x{}/>", b % 3), version);
                replica.merge_advertisements(vec![entry]);
            }
            9 => {
                replica.apply_membership(peer, group, presence);
            }
            // Broker admissions and removals, each followed by the reshard.
            10 => {
                replica.admit_broker(broker);
                replica.reshard();
            }
            _ => {
                if broker != replica.own {
                    replica.remove_broker(&broker);
                    replica.reshard();
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The oracle: after every step of a random history, in both
        /// replication modes, the incrementally kept summaries equal a
        /// from-scratch build: the presence digest, and the advertisement
        /// and membership digests and trees towards every broker.
        #[test]
        fn incremental_summaries_match_a_from_scratch_build(
            steps in proptest::collection::vec((0u8..12, any::<u64>(), any::<u64>(), any::<u64>()), 1..48),
            seed in any::<u64>(),
        ) {
            let brokers = ids(6, seed);
            let peers = ids(5, seed ^ 0x5EED);
            for replication in [None, Some(2)] {
                let mut replica = Replica::new(brokers[0], replication, Arc::new(SyncClock::default()));
                for broker in &brokers[1..4] {
                    replica.admit_broker(*broker);
                }
                for (i, step) in steps.iter().enumerate() {
                    apply(&mut replica, &brokers, &peers, *step);
                    if let Err(fault) = replica.check_summaries(&brokers) {
                        prop_assert!(false, "{replication:?}, step {i} {step:?}: {fault}");
                    }
                }
            }
        }
    }
}
