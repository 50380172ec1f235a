//! Consistent-hash shard ring for the broker federation.
//!
//! PR 2's federation fully replicates the advertisement index and group
//! membership to every broker: O(brokers²) gossip fan-out and O(total ads)
//! state per broker.  Structured overlays scale past that by *partitioning*
//! state: every entry is owned by a small, deterministic replica set instead
//! of the whole backbone, and lookups are routed to an owning replica.
//!
//! [`ShardRing`] implements the classic consistent-hash ring over broker
//! identifiers: each broker contributes [`VIRTUAL_NODES`] points on a 64-bit
//! ring (hashes of its identifier, so the ring is deterministic and seedless
//! — every broker that knows the same membership computes the same ring),
//! and an entry keyed by `(group, owner)` is replicated on the first K
//! distinct brokers encountered walking clockwise from the key's hash.
//! Virtual nodes keep the load spread even when the backbone is small, and
//! consistent hashing keeps migration minimal: adding or removing one broker
//! re-routes only the entries whose replica walk crosses the changed points.
//!
//! The hash is FNV-1a (64-bit).  It is not cryptographic and does not need
//! to be: shard placement is a *routing* decision, and every inter-broker
//! message that acts on it still passes the federation's admission control.

use crate::group::GroupId;
use crate::id::PeerId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Ring points contributed by each broker.  16 points keep the per-broker
/// load within a few percent of even for the backbone sizes the federation
/// targets, while keeping ring maintenance trivially cheap.
pub const VIRTUAL_NODES: usize = 16;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes`, continuing from `state`.
pub(crate) fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for byte in bytes {
        state ^= u64::from(*byte);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// SplitMix64 finalizer: FNV-1a alone has weak avalanche on short inputs
/// (consecutive virtual-node indexes land on correlated ring positions,
/// skewing the load); this scrambles the state into a uniform ring point.
pub(crate) fn mix(mut state: u64) -> u64 {
    state = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    state = (state ^ (state >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    state ^ (state >> 31)
}

/// A seeded SplitMix64 stream: the network's fault adversaries, the
/// membership shuffles and SWIM draw from one each, so every seeded run
/// repeats exactly.  The state is a Weyl sequence (a counter advanced by a
/// fixed odd constant), so a draw is one `fetch_add` plus [`mix`] and takes
/// no lock.
#[derive(Debug)]
pub(crate) struct SplitMix64(AtomicU64);

impl SplitMix64 {
    const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64(AtomicU64::new(seed))
    }

    /// The next value of the stream.
    pub(crate) fn next(&self) -> u64 {
        mix(self.0.fetch_add(Self::GAMMA, Ordering::Relaxed).wrapping_add(Self::GAMMA))
    }
}

/// The shard key of an index or membership entry: the ring position of
/// `(group, owner)`.
pub fn shard_key(group: &GroupId, owner: &PeerId) -> u64 {
    let state = fnv1a(FNV_OFFSET, group.as_str().as_bytes());
    // A separator byte keeps ("ab", x) and ("a", b·x) from colliding.
    let state = fnv1a(state, &[0xff]);
    mix(fnv1a(state, owner.as_bytes()))
}

/// Depth of the anti-entropy repair tree over the shard-key space: one hex
/// digit of the 64-bit key per level, so the tree has 16⁵ ≈ one million
/// potential leaves.  At the target scale of 10⁵–10⁶ entries per shard a
/// descent stops at a node of at most a few hundred entries (a leaf holds
/// a handful).  The leg that sends such a node also lists its entry hashes,
/// so the final pages of an advertisement repair ship only the entries
/// each side lacks: O(delta) entries, plus one 8-byte hash per entry of
/// the divergent ranges, instead of the whole section.
pub const REPAIR_TREE_DEPTH: u32 = 5;

/// Fan-out of every repair-tree node (one hex digit of the key per level).
pub const REPAIR_TREE_ARITY: usize = 16;

/// Bits of shard key consumed by the leaf level.
const LEAF_BITS: u32 = 4 * REPAIR_TREE_DEPTH;

/// Aggregate summary of one repair-tree node: the XOR of the entry hashes
/// under it plus their count.  XOR is order-independent and self-inverse, so
/// summaries compose up the tree and an insert never needs a rebuild; the
/// count disambiguates the empty set from XOR-cancelling pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeSummary {
    /// XOR of the (already mixed) per-entry hashes under this node.
    pub xor: u64,
    /// Number of entries under this node.
    pub count: u64,
}

impl NodeSummary {
    /// Collapses the summary into a single comparable hash for the root
    /// digest exchanged every round.
    pub fn digest(&self) -> u64 {
        mix(self.xor ^ mix(self.count ^ FNV_OFFSET))
    }

    /// Folds one entry hash in.
    pub fn insert(&mut self, entry_hash: u64) {
        self.xor ^= entry_hash;
        self.count += 1;
    }

    /// Takes one entry hash out again (XOR is self-inverse).  The entry must
    /// have been folded in.
    pub fn remove(&mut self, entry_hash: u64) {
        self.xor ^= entry_hash;
        self.count -= 1;
    }

    /// Folds every entry of `other` in: the summary of the union of two
    /// disjoint entry sets.
    pub fn merge(&mut self, other: NodeSummary) {
        self.xor ^= other.xor;
        self.count += other.count;
    }
}

/// A sparse hash tree over the 64-bit shard-key space for one replicated
/// section.  Only non-empty leaves are stored, and the root is kept as a
/// running total, so an insert or a removal is O(log leaves) and the root
/// O(1): a replica keeps its tree current on every write.  Interior nodes
/// are aggregated on demand with a range scan; only a descent reads them,
/// and only after the roots disagreed.
///
/// A node at `depth` is addressed by `prefix`: the top `4·depth` bits of the
/// keys it covers.  Depth 0 is the root (prefix 0); depth
/// [`REPAIR_TREE_DEPTH`] is the leaf level.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SectionTree {
    /// Leaf summaries keyed by leaf prefix (top [`LEAF_BITS`] bits of key).
    leaves: std::collections::BTreeMap<u64, NodeSummary>,
    /// Summary of every leaf.
    root: NodeSummary,
}

impl SectionTree {
    /// Folds one entry (its shard key and mixed entry hash) into the tree.
    pub fn insert(&mut self, key: u64, entry_hash: u64) {
        self.leaves.entry(key >> (64 - LEAF_BITS)).or_default().insert(entry_hash);
        self.root.insert(entry_hash);
    }

    /// Takes one entry out of the tree again: `key` and `entry_hash` must be
    /// what it was inserted with.  A leaf left empty is dropped, so a tree
    /// equals one built from scratch over the entries it still holds.
    pub fn remove(&mut self, key: u64, entry_hash: u64) {
        let prefix = key >> (64 - LEAF_BITS);
        if let Some(leaf) = self.leaves.get_mut(&prefix) {
            leaf.remove(entry_hash);
            if leaf.count == 0 {
                self.leaves.remove(&prefix);
            }
            self.root.remove(entry_hash);
        }
    }

    /// Summary of the whole tree.
    pub fn root(&self) -> NodeSummary {
        self.root
    }

    /// Summary of the node at `(depth, prefix)`.  Depths beyond the leaf
    /// level clamp to it; the caller is responsible for keeping `prefix`
    /// within `4·depth` bits.
    pub fn node(&self, depth: u32, prefix: u64) -> NodeSummary {
        let span = LEAF_BITS - 4 * depth.min(REPAIR_TREE_DEPTH);
        let lo = prefix << span;
        let hi = lo | ((1u64 << span) - 1);
        let mut total = NodeSummary::default();
        for (_, leaf) in self.leaves.range(lo..=hi) {
            total.xor ^= leaf.xor;
            total.count += leaf.count;
        }
        total
    }

    /// Summaries of the [`REPAIR_TREE_ARITY`] children of `(depth, prefix)`,
    /// in child-index order, empty children included — a peer needs the
    /// zero summaries to notice entries only it holds.  One pass over the
    /// node's leaves.  Returns all-empty summaries at the leaf level.
    pub fn children(&self, depth: u32, prefix: u64) -> [NodeSummary; REPAIR_TREE_ARITY] {
        let mut out = [NodeSummary::default(); REPAIR_TREE_ARITY];
        if depth >= REPAIR_TREE_DEPTH {
            return out;
        }
        let span = LEAF_BITS - 4 * depth;
        let child_span = span - 4;
        let lo = prefix << span;
        let hi = lo | ((1u64 << span) - 1);
        for (leaf_prefix, leaf) in self.leaves.range(lo..=hi) {
            let child = ((leaf_prefix >> child_span) & 0xf) as usize;
            out[child].xor ^= leaf.xor;
            out[child].count += leaf.count;
        }
        out
    }
}

/// The inclusive shard-key range covered by the node at `(depth, prefix)`.
pub fn node_range(depth: u32, prefix: u64) -> (u64, u64) {
    let depth = depth.min(REPAIR_TREE_DEPTH);
    if depth == 0 {
        return (0, u64::MAX);
    }
    let shift = 64 - 4 * depth;
    let lo = prefix << shift;
    (lo, lo | ((1u64 << shift) - 1))
}

/// A deterministic consistent-hash ring over the brokers of a federation.
///
/// Every key whose first ring point at or after it (wrapping past the last
/// point to the first) is point `i` walks the same way, so it has the same
/// replica set: the keys of one **arc**.  The ring computes every arc's
/// replica set once per membership change, so placing a key is a binary
/// search plus a table read.
#[derive(Debug, Clone)]
pub struct ShardRing {
    /// Number of replicas per entry (K).
    replication: usize,
    /// Sorted ring points: (position, broker).
    points: Vec<(u64, PeerId)>,
    /// Sorted distinct members.
    brokers: Vec<PeerId>,
    /// The replica set of every arc in walk order, K wide: arc `i` is
    /// replicated on `arcs[i * K..][..K]`.  Empty while K is at least the
    /// number of members: then every broker replicates every key.
    arcs: Vec<PeerId>,
}

impl ShardRing {
    /// Creates an empty ring with replication factor `replication` (K).
    ///
    /// A replication factor of zero is clamped to one: an entry always has
    /// at least one home.
    pub fn new(replication: usize) -> Self {
        ShardRing {
            replication: replication.max(1),
            points: Vec::new(),
            brokers: Vec::new(),
            arcs: Vec::new(),
        }
    }

    /// The replication factor K.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Current ring members, sorted.
    pub fn brokers(&self) -> &[PeerId] {
        &self.brokers
    }

    /// Number of member brokers.
    pub fn len(&self) -> usize {
        self.brokers.len()
    }

    /// Returns `true` when no broker is on the ring.
    pub fn is_empty(&self) -> bool {
        self.brokers.is_empty()
    }

    /// Adds a broker's virtual nodes to the ring (idempotent).
    pub fn insert(&mut self, broker: PeerId) {
        if self.brokers.contains(&broker) {
            return;
        }
        self.brokers.push(broker);
        self.brokers.sort();
        for vnode in 0..VIRTUAL_NODES {
            let state = fnv1a(FNV_OFFSET, broker.as_bytes());
            let position = mix(fnv1a(state, &(vnode as u32).to_be_bytes()));
            self.points.push((position, broker));
        }
        self.points.sort();
        self.place_arcs();
    }

    /// Removes a broker and its virtual nodes (idempotent).
    pub fn remove(&mut self, broker: &PeerId) {
        if !self.brokers.contains(broker) {
            return;
        }
        self.brokers.retain(|b| b != broker);
        self.points.retain(|(_, b)| b != broker);
        self.place_arcs();
    }

    /// Recomputes every arc's replica set by the clockwise walk.
    fn place_arcs(&mut self) {
        self.arcs.clear();
        if self.replication >= self.brokers.len() {
            return;
        }
        for start in 0..self.points.len() {
            let from = self.arcs.len();
            for i in 0..self.points.len() {
                let (_, broker) = self.points[(start + i) % self.points.len()];
                if !self.arcs[from..].contains(&broker) {
                    self.arcs.push(broker);
                    if self.arcs.len() - from == self.replication {
                        break;
                    }
                }
            }
        }
    }

    /// Number of arcs: one per ring point.
    pub(crate) fn arc_count(&self) -> usize {
        self.points.len()
    }

    /// The arc `key` falls in (0 on an empty ring).
    pub(crate) fn arc_of(&self, key: u64) -> usize {
        let start = self.points.partition_point(|(position, _)| *position < key);
        start % self.points.len().max(1)
    }

    /// Whether `broker` replicates the keys of `arc`.
    pub(crate) fn arc_holds(&self, arc: usize, broker: &PeerId) -> bool {
        if self.arcs.is_empty() {
            return self.brokers.binary_search(broker).is_ok();
        }
        self.arc_replicas(arc).contains(broker)
    }

    /// The replica set of `arc` in walk order, from a non-empty table.
    fn arc_replicas(&self, arc: usize) -> &[PeerId] {
        &self.arcs[arc * self.replication..][..self.replication]
    }

    /// The replica set of `(group, owner)`: the first `min(K, members)`
    /// distinct brokers walking clockwise from the key's ring position.
    /// Deterministic — every broker with the same membership computes the
    /// identical, identically-ordered set.
    pub fn replicas(&self, group: &GroupId, owner: &PeerId) -> Vec<PeerId> {
        self.replicas_for_key(shard_key(group, owner))
    }

    /// Replica set for a raw ring position (see [`ShardRing::replicas`]).
    pub fn replicas_for_key(&self, key: u64) -> Vec<PeerId> {
        let arc = self.arc_of(key);
        if !self.arcs.is_empty() {
            return self.arc_replicas(arc).to_vec();
        }
        // Every member replicates every key; only the walk order is left.
        let mut replicas = Vec::with_capacity(self.brokers.len());
        for i in 0..self.points.len() {
            let (_, broker) = self.points[(arc + i) % self.points.len()];
            if !replicas.contains(&broker) {
                replicas.push(broker);
                if replicas.len() == self.brokers.len() {
                    break;
                }
            }
        }
        replicas
    }

    /// Returns `true` if `broker` is one of the replicas of `(group, owner)`.
    pub fn is_replica(&self, group: &GroupId, owner: &PeerId, broker: &PeerId) -> bool {
        self.arc_holds(self.arc_of(shard_key(group, owner)), broker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxta_crypto::drbg::HmacDrbg;
    use proptest::prelude::*;

    fn brokers(n: usize) -> Vec<PeerId> {
        let mut rng = HmacDrbg::from_seed_u64(0x51A2);
        (0..n).map(|_| PeerId::random(&mut rng)).collect()
    }

    fn ring_of(members: &[PeerId], k: usize) -> ShardRing {
        let mut ring = ShardRing::new(k);
        for b in members {
            ring.insert(*b);
        }
        ring
    }

    #[test]
    fn empty_ring_has_no_replicas() {
        let ring = ShardRing::new(2);
        assert!(ring.is_empty());
        assert!(ring
            .replicas(&GroupId::new("g"), &brokers(1)[0])
            .is_empty());
    }

    #[test]
    fn replication_factor_is_clamped_to_one() {
        assert_eq!(ShardRing::new(0).replication(), 1);
    }

    #[test]
    fn replica_sets_have_k_distinct_members() {
        let members = brokers(5);
        let ring = ring_of(&members, 2);
        assert_eq!(ring.len(), 5);
        let mut rng = HmacDrbg::from_seed_u64(7);
        for i in 0..50 {
            let owner = PeerId::random(&mut rng);
            let replicas = ring.replicas(&GroupId::new(format!("g{}", i % 3)), &owner);
            assert_eq!(replicas.len(), 2);
            assert_ne!(replicas[0], replicas[1]);
            assert!(replicas.iter().all(|r| members.contains(r)));
        }
    }

    #[test]
    fn small_backbones_replicate_everywhere() {
        // With fewer brokers than K every broker is a replica, so a sharded
        // two-broker federation behaves exactly like a fully replicated one.
        let members = brokers(2);
        let ring = ring_of(&members, 3);
        let owner = brokers(3)[2];
        let mut replicas = ring.replicas(&GroupId::new("g"), &owner);
        replicas.sort();
        let mut expected = members.clone();
        expected.sort();
        assert_eq!(replicas, expected);
    }

    #[test]
    fn placement_is_insert_order_insensitive() {
        let members = brokers(4);
        let forward = ring_of(&members, 2);
        let mut reversed_members = members.clone();
        reversed_members.reverse();
        let reversed = ring_of(&reversed_members, 2);
        let mut rng = HmacDrbg::from_seed_u64(9);
        for _ in 0..20 {
            let owner = PeerId::random(&mut rng);
            let group = GroupId::new("class");
            assert_eq!(forward.replicas(&group, &owner), reversed.replicas(&group, &owner));
        }
    }

    #[test]
    fn insert_and_remove_are_idempotent() {
        let members = brokers(3);
        let mut ring = ring_of(&members, 2);
        ring.insert(members[0]);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.points.len(), 3 * VIRTUAL_NODES);
        ring.remove(&members[1]);
        ring.remove(&members[1]);
        assert_eq!(ring.len(), 2);
        assert!(!ring.brokers().contains(&members[1]));
        assert!(ring
            .replicas(&GroupId::new("g"), &members[1])
            .iter()
            .all(|r| *r != members[1]));
    }

    #[test]
    fn membership_change_migrates_a_minority_of_keys() {
        // Consistent hashing: removing one of five brokers must not reshuffle
        // the placement of keys that never touched it.
        let members = brokers(5);
        let before = ring_of(&members, 2);
        let mut after = before.clone();
        after.remove(&members[4]);

        let mut rng = HmacDrbg::from_seed_u64(11);
        let mut moved = 0usize;
        let total = 200usize;
        for _ in 0..total {
            let owner = PeerId::random(&mut rng);
            let group = GroupId::new("g");
            let old = before.replicas(&group, &owner);
            let new = after.replicas(&group, &owner);
            if old.contains(&members[4]) {
                // Keys hosted by the removed broker get exactly one new home.
                assert_eq!(
                    new.iter().filter(|r| !old.contains(r)).count(),
                    1,
                    "one replacement replica"
                );
            } else {
                // Everything else stays exactly where it was.
                assert_eq!(old, new);
            }
            if old != new {
                moved += 1;
            }
        }
        assert!(
            moved < total / 2,
            "only the removed broker's share may move ({moved}/{total})"
        );
    }

    #[test]
    fn load_is_reasonably_balanced() {
        let members = brokers(4);
        let ring = ring_of(&members, 2);
        let mut counts = std::collections::HashMap::new();
        let mut rng = HmacDrbg::from_seed_u64(13);
        let total = 400usize;
        for _ in 0..total {
            let owner = PeerId::random(&mut rng);
            for replica in ring.replicas(&GroupId::new("g"), &owner) {
                *counts.entry(replica).or_insert(0usize) += 1;
            }
        }
        // Perfect balance would be total*K/N = 200 per broker; accept a wide
        // band — the assertion guards against degenerate placement, not
        // statistical noise.
        for member in &members {
            let share = counts.get(member).copied().unwrap_or(0);
            assert!(
                (60..=340).contains(&share),
                "broker share out of band: {share}"
            );
        }
    }

    fn random_entries(n: usize, seed: u64) -> Vec<(u64, u64)> {
        let mut rng = HmacDrbg::from_seed_u64(seed);
        (0..n)
            .map(|_| {
                let mut bytes = [0u8; 16];
                rng.generate(&mut bytes);
                (
                    u64::from_be_bytes(bytes[..8].try_into().unwrap()),
                    u64::from_be_bytes(bytes[8..].try_into().unwrap()),
                )
            })
            .collect()
    }

    #[test]
    fn tree_root_is_insert_order_independent() {
        let entries = random_entries(500, 0x7EE1);
        let mut forward = SectionTree::default();
        let mut backward = SectionTree::default();
        for (key, hash) in &entries {
            forward.insert(*key, *hash);
        }
        for (key, hash) in entries.iter().rev() {
            backward.insert(*key, *hash);
        }
        assert_eq!(forward.root(), backward.root());
        assert_eq!(forward.root().count, 500);
        assert_ne!(forward.root().digest(), SectionTree::default().root().digest());
    }

    #[test]
    fn children_compose_to_their_parent_at_every_depth() {
        let entries = random_entries(300, 0x7EE2);
        let mut tree = SectionTree::default();
        for (key, hash) in &entries {
            tree.insert(*key, *hash);
        }
        for depth in 0..REPAIR_TREE_DEPTH {
            // Spot-check the prefixes actually populated by the entries.
            for (key, _) in entries.iter().take(20) {
                let prefix = if depth == 0 { 0 } else { key >> (64 - 4 * depth) };
                let parent = tree.node(depth, prefix);
                let children = tree.children(depth, prefix);
                let xor = children.iter().fold(0u64, |acc, c| acc ^ c.xor);
                let count: u64 = children.iter().map(|c| c.count).sum();
                assert_eq!(parent, NodeSummary { xor, count });
            }
        }
    }

    #[test]
    fn single_divergent_entry_isolates_to_one_child_per_level() {
        let entries = random_entries(2000, 0x7EE3);
        let mut a = SectionTree::default();
        let mut b = SectionTree::default();
        for (key, hash) in &entries {
            a.insert(*key, *hash);
            b.insert(*key, *hash);
        }
        let (extra_key, extra_hash) = (0x1234_5678_9abc_def0u64, 0xfeed);
        a.insert(extra_key, extra_hash);
        let mut prefix = 0u64;
        for depth in 0..REPAIR_TREE_DEPTH {
            let ours = a.children(depth, prefix);
            let theirs = b.children(depth, prefix);
            let divergent: Vec<usize> =
                (0..REPAIR_TREE_ARITY).filter(|i| ours[*i] != theirs[*i]).collect();
            assert_eq!(divergent.len(), 1, "depth {depth}");
            prefix = (prefix << 4) | divergent[0] as u64;
        }
        let (lo, hi) = node_range(REPAIR_TREE_DEPTH, prefix);
        assert!((lo..=hi).contains(&extra_key));
    }

    #[test]
    fn node_ranges_tile_the_parent_range() {
        for (depth, prefix) in [(0u32, 0u64), (1, 3), (2, 0x2a), (REPAIR_TREE_DEPTH - 1, 7)] {
            let (lo, hi) = node_range(depth, prefix);
            let mut next = lo;
            for child in 0..REPAIR_TREE_ARITY as u64 {
                let (child_lo, child_hi) = node_range(depth + 1, (prefix << 4) | child);
                assert_eq!(child_lo, next);
                next = child_hi.wrapping_add(1);
            }
            assert_eq!(next, hi.wrapping_add(1));
        }
        assert_eq!(node_range(0, 0), (0, u64::MAX));
    }

    #[test]
    fn node_records_roundtrip_and_tolerate_truncation() {
        use crate::record;
        // Depth (one byte), prefix, XOR and count (8 bytes each).
        const NODE_RECORD_BYTES: usize = 25;
        let summary = NodeSummary { xor: 0xabcd, count: 42 };
        let mut blob = record::encode(&[(3, 0x123, summary), (5, 0xf_ffff, NodeSummary::default())]);
        assert_eq!(blob.len(), 2 * NODE_RECORD_BYTES);
        let decoded: Vec<(u32, u64, NodeSummary)> = record::decode(&blob);
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0], (3, 0x123, summary));
        assert_eq!(decoded[1].2, NodeSummary::default());
        // A truncated trailing record is dropped, not misparsed.
        blob.truncate(2 * NODE_RECORD_BYTES - 1);
        assert_eq!(record::decode::<(u32, u64, NodeSummary)>(&blob).len(), 1);
    }

    /// The replica set of `key` by the clockwise walk the arc table
    /// replaces: the first `min(K, members)` distinct brokers from the key's
    /// first ring point at or after it, wrapping past the last.
    fn walk(ring: &ShardRing, key: u64) -> Vec<PeerId> {
        let want = ring.replication.min(ring.brokers.len());
        let mut replicas = Vec::new();
        let start = ring.points.partition_point(|(position, _)| *position < key);
        for i in 0..ring.points.len() {
            let (_, broker) = ring.points[(start + i) % ring.points.len()];
            if replicas.len() < want && !replicas.contains(&broker) {
                replicas.push(broker);
            }
        }
        replicas
    }

    /// Checks the table's answers at `keys` for each of `probes` against
    /// the walk: the replica set, and whether each probe replicates the key.
    fn check_arcs(ring: &ShardRing, keys: &[u64], probes: &[PeerId]) -> TestCaseResult {
        for &key in keys {
            let walked = walk(ring, key);
            prop_assert_eq!(ring.replicas_for_key(key), walked.clone(), "key {:#x}", key);
            for broker in probes {
                let held = ring.arc_holds(ring.arc_of(key), broker);
                prop_assert_eq!(held, walked.contains(broker), "key {:#x}", key);
            }
        }
        let group = GroupId::new("g");
        for owner in probes {
            let walked = walk(ring, shard_key(&group, owner));
            for broker in probes {
                prop_assert_eq!(ring.is_replica(&group, owner, broker), walked.contains(broker));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The arc table answers exactly what the clockwise walk answers:
        /// random rings with K below, at and above the member count, at
        /// random keys, at every ring point and one either side of it, and
        /// at both ends of the key space (keys past the last point wrap to
        /// the first arc), after every insert and after every removal.
        #[test]
        fn arc_table_answers_what_the_clockwise_walk_answers(
            n in 1usize..=10,
            k in 1usize..=12,
            seed in any::<u64>(),
            random_keys in proptest::collection::vec(any::<u64>(), 8),
            removals in proptest::collection::vec(any::<usize>(), 0..8),
        ) {
            let mut rng = HmacDrbg::from_seed_u64(seed);
            let probes: Vec<PeerId> = (0..=n).map(|_| PeerId::random(&mut rng)).collect();
            let members = &probes[..n];
            let keys = |ring: &ShardRing| {
                let mut keys = random_keys.clone();
                keys.extend([0, u64::MAX]);
                for (position, _) in &ring.points {
                    keys.extend([*position, position.wrapping_add(1), position.wrapping_sub(1)]);
                }
                keys
            };
            let mut ring = ShardRing::new(k);
            for member in members {
                ring.insert(*member);
                check_arcs(&ring, &keys(&ring), &probes)?;
            }
            for removal in removals {
                ring.remove(&members[removal % n]);
                check_arcs(&ring, &keys(&ring), &probes)?;
            }
        }
    }

    #[test]
    fn tree_root_is_a_running_total_of_inserts_and_removals() {
        let entries = random_entries(400, 0x7EE4);
        let mut kept = SectionTree::default();
        let mut churned = SectionTree::default();
        for (i, (key, hash)) in entries.iter().enumerate() {
            churned.insert(*key, *hash);
            if i % 3 == 0 {
                churned.remove(*key, *hash);
            } else {
                kept.insert(*key, *hash);
            }
        }
        assert_eq!(churned, kept, "removed entries leave no empty leaves behind");
        assert_eq!(churned.root(), churned.node(0, 0));
        assert_eq!(churned.root().count, kept.root().count);
    }

    #[test]
    fn shard_key_separates_group_and_owner_bytes() {
        let owner = brokers(1)[0];
        assert_ne!(
            shard_key(&GroupId::new("ab"), &owner),
            shard_key(&GroupId::new("a"), &owner)
        );
    }
}
