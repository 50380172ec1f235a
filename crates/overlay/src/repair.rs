//! Anti-entropy summaries, kept current by the writes that change the state.
//!
//! An anti-entropy digest compares per-section summaries of the state two
//! brokers hold jointly (see `crate::antientropy`).
//! Each summary is an XOR of per-entry hashes plus a count
//! ([`NodeSummary`]).  XOR is order-independent and self-inverse, so the
//! [`crate::replica::Replica`] method that inserts, overwrites or removes an
//! entry takes the entry's old hash out and puts its new one in, under the
//! same `broker.replica` guard, and a digest reads the summaries instead of
//! re-hashing the replica: a healthy round hashes no entry, however many
//! are held.
//!
//! * **Presence**: one summary over every peer's `(peer, version, home)`,
//!   the same towards every peer.
//! * **Advertisements and membership, full replication**: one
//!   [`SectionTree`] per section over every stored entry.  Its root is the
//!   digest and a descent reads its nodes.
//! * **Advertisements and membership, sharded**: one summary per ring arc
//!   (see [`ShardRing`]; the keys of an arc share one replica set).  The
//!   digest towards a peer combines the arcs both brokers replicate.  A
//!   membership entry is also shared through its member's home broker, so
//!   membership keeps a second table per home.  A digest mismatch builds the
//!   filtered tree on demand from the stored hashes.

use crate::antientropy::Section;
use crate::group::GroupId;
use crate::id::PeerId;
use crate::replica::PresenceVersion;
use crate::shard::{self, NodeSummary, SectionTree, ShardRing};
use std::collections::HashMap;

/// Extends an FNV-1a state with a length-prefixed chunk (the prefix keeps
/// adjacent variable-length fields from aliasing).
fn hash_chunk(state: u64, bytes: &[u8]) -> u64 {
    shard::fnv1a(shard::fnv1a(state, &(bytes.len() as u64).to_be_bytes()), bytes)
}

/// The hash of one advertisement entry.  Order-independent aggregation
/// (XOR) needs each entry mixed on its own.
pub(crate) fn adv_entry_hash(
    group: &GroupId,
    owner: &PeerId,
    doc_type: &str,
    xml: &str,
    version: (u64, PeerId),
) -> u64 {
    #[cfg(test)]
    hash_probe::record();
    let mut h = shard::FNV_OFFSET;
    h = hash_chunk(h, group.as_str().as_bytes());
    h = hash_chunk(h, owner.as_bytes());
    h = hash_chunk(h, doc_type.as_bytes());
    h = hash_chunk(h, xml.as_bytes());
    h = hash_chunk(h, &version.0.to_be_bytes());
    h = hash_chunk(h, version.1.as_bytes());
    shard::mix(h)
}

/// The hash of one membership entry.  Provenance stamps are deliberately
/// excluded: two replicas holding the same `(group, member)` set agree.
pub(crate) fn membership_entry_hash(group: &GroupId, member: &PeerId) -> u64 {
    #[cfg(test)]
    hash_probe::record();
    let mut h = shard::FNV_OFFSET;
    h = hash_chunk(h, group.as_str().as_bytes());
    h = hash_chunk(h, member.as_bytes());
    shard::mix(h)
}

/// The hash of one presence-register entry: the peer, its version and its
/// current home broker.
pub(crate) fn presence_entry_hash(
    peer: &PeerId,
    version: PresenceVersion,
    home: Option<PeerId>,
) -> u64 {
    #[cfg(test)]
    hash_probe::record();
    let mut h = shard::FNV_OFFSET;
    h = hash_chunk(h, peer.as_bytes());
    h = hash_chunk(h, &version.0.to_be_bytes());
    h = hash_chunk(h, &[version.1]);
    h = hash_chunk(h, version.2.as_bytes());
    h = match home {
        Some(home) => hash_chunk(h, home.as_bytes()),
        None => hash_chunk(h, &[]),
    };
    shard::mix(h)
}

/// The hash of an extension's replicated-state digest bytes.
pub(crate) fn extension_hash(bytes: &[u8]) -> u64 {
    shard::mix(hash_chunk(shard::FNV_OFFSET, bytes))
}

/// Test-only instrumentation counting entry hashes (advertisement,
/// membership and presence) per thread, so tests can pin what a repair
/// round or a write hashes.
#[cfg(test)]
pub(crate) mod hash_probe {
    use std::cell::Cell;

    thread_local! {
        static HASHED: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn record() {
        HASHED.with(|hashed| hashed.set(hashed.get() + 1));
    }

    /// Cumulative entry hashes on the calling thread.
    pub(crate) fn hashed() -> u64 {
        HASHED.with(Cell::get)
    }
}

/// Whether a write puts an entry hash into a summary or takes it out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Edit {
    Insert,
    Remove,
}

impl Edit {
    fn summary(self, summary: &mut NodeSummary, hash: u64) {
        match self {
            Edit::Insert => summary.insert(hash),
            Edit::Remove => summary.remove(hash),
        }
    }

    fn tree(self, tree: &mut SectionTree, key: u64, hash: u64) {
        match self {
            Edit::Insert => tree.insert(key, hash),
            Edit::Remove => tree.remove(key, hash),
        }
    }

    /// Edits the summary of `home`'s members in `arc`, dropping it (and
    /// the home) once empty.
    fn homed(self, homed: &mut HomedSummaries, home: PeerId, arc: usize, hash: u64) {
        let arcs = homed.entry(home).or_default();
        let summary = arcs.entry(arc).or_default();
        self.summary(summary, hash);
        if summary.count == 0 {
            arcs.remove(&arc);
            if arcs.is_empty() {
                homed.remove(&home);
            }
        }
    }
}

/// Membership summaries of the members homed at each broker, per arc.
type HomedSummaries = HashMap<PeerId, HashMap<usize, NodeSummary>>;

/// The summaries of the two shard-keyed sections.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Sections {
    /// Full replication: one tree per section over every stored entry.
    Full {
        adv: SectionTree,
        membership: SectionTree,
    },
    /// Sharded: one summary per ring arc and section, plus the membership
    /// entries of the members homed at each broker, per arc (empty
    /// summaries are dropped).
    Sharded {
        adv: Vec<NodeSummary>,
        membership: Vec<NodeSummary>,
        homed: HomedSummaries,
    },
}

/// Every summary an anti-entropy digest reads, owned by the replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RepairSummaries {
    presence: NodeSummary,
    sections: Sections,
}

impl RepairSummaries {
    /// Empty summaries, sized for `ring`'s arcs when `sharded`.
    pub(crate) fn new(sharded: bool, ring: &ShardRing) -> Self {
        let sections = if sharded {
            Sections::Sharded {
                adv: vec![NodeSummary::default(); ring.arc_count()],
                membership: vec![NodeSummary::default(); ring.arc_count()],
                homed: HashMap::new(),
            }
        } else {
            Sections::Full {
                adv: SectionTree::default(),
                membership: SectionTree::default(),
            }
        };
        RepairSummaries { presence: NodeSummary::default(), sections }
    }

    /// Empties the shard-keyed summaries of a sharded replica and sizes
    /// them for `ring`'s arcs: a ring change moves keys between arcs, so the
    /// caller puts every entry back.  The presence summary stays.
    pub(crate) fn reset_arcs(&mut self, ring: &ShardRing) {
        self.sections = Self::new(true, ring).sections;
    }

    /// An advertisement entry with shard key `key` and entry hash `hash`
    /// was stored, or left.
    pub(crate) fn edit_adv(&mut self, ring: &ShardRing, key: u64, hash: u64, edit: Edit) {
        match &mut self.sections {
            Sections::Full { adv, .. } => edit.tree(adv, key, hash),
            Sections::Sharded { adv, .. } => edit.summary(&mut adv[ring.arc_of(key)], hash),
        }
    }

    /// A membership entry whose member is homed at `home` joined, or left.
    pub(crate) fn edit_membership(
        &mut self,
        ring: &ShardRing,
        (key, hash): (u64, u64),
        home: Option<PeerId>,
        edit: Edit,
    ) {
        match &mut self.sections {
            Sections::Full { membership, .. } => edit.tree(membership, key, hash),
            Sections::Sharded { membership, homed, .. } => {
                let arc = ring.arc_of(key);
                edit.summary(&mut membership[arc], hash);
                if let Some(home) = home {
                    edit.homed(homed, home, arc, hash);
                }
            }
        }
    }

    /// A membership entry's member moved from home `from` to `to`.
    pub(crate) fn rehome_membership(
        &mut self,
        ring: &ShardRing,
        (key, hash): (u64, u64),
        (from, to): (Option<PeerId>, Option<PeerId>),
    ) {
        if let Sections::Sharded { homed, .. } = &mut self.sections {
            let arc = ring.arc_of(key);
            if let Some(from) = from {
                Edit::Remove.homed(homed, from, arc, hash);
            }
            if let Some(to) = to {
                Edit::Insert.homed(homed, to, arc, hash);
            }
        }
    }

    /// A presence entry's hash changed from `old` to `new` (`None`: no
    /// entry).
    pub(crate) fn swap_presence(&mut self, old: Option<u64>, new: Option<u64>) {
        if let Some(old) = old {
            self.presence.remove(old);
        }
        if let Some(new) = new {
            self.presence.insert(new);
        }
    }

    /// The presence digest, the same towards every peer.
    pub(crate) fn presence_digest(&self) -> u64 {
        self.presence.digest()
    }

    /// The live tree of a shard-keyed `section` in full replication; `None`
    /// when sharded, where each peer shares a different slice.
    pub(crate) fn tree(&self, section: Section) -> Option<&SectionTree> {
        match &self.sections {
            Sections::Full { adv, .. } if section == Section::Adverts => Some(adv),
            Sections::Full { membership, .. } => Some(membership),
            Sections::Sharded { .. } => None,
        }
    }

    /// The advertisement and membership digests broker `own` sends `peer`:
    /// over every entry in full replication.  Sharded, over the arcs both
    /// replicate, plus the membership entries homed at one of the two in
    /// arcs the other replicates.  O(arcs), whatever the entries held.
    pub(crate) fn digests(&self, ring: &ShardRing, own: &PeerId, peer: &PeerId) -> (u64, u64) {
        let (adv, membership, homed) = match &self.sections {
            Sections::Full { adv, membership } => {
                return (adv.root().digest(), membership.root().digest());
            }
            Sections::Sharded { adv, membership, homed } => (adv, membership, homed),
        };
        let (mut a, mut m) = (NodeSummary::default(), NodeSummary::default());
        for arc in 0..ring.arc_count() {
            if ring.arc_holds(arc, own) && ring.arc_holds(arc, peer) {
                a.merge(adv[arc]);
                m.merge(membership[arc]);
            }
        }
        // A membership entry is shared when each side replicates its arc or
        // homes its member.  The arcs both replicate are counted whole
        // above; the arcs only one side replicates add the other's members.
        let mut add_homed = |home: &PeerId, shared: &dyn Fn(usize) -> bool| {
            for (arc, summary) in homed.get(home).into_iter().flatten() {
                if shared(*arc) {
                    m.merge(*summary);
                }
            }
        };
        add_homed(peer, &|arc| ring.arc_holds(arc, own) && !ring.arc_holds(arc, peer));
        add_homed(own, &|arc| {
            !ring.arc_holds(arc, own) && (ring.arc_holds(arc, peer) || peer == own)
        });
        (a.digest(), m.digest())
    }
}
