//! Peer groups.
//!
//! JXTA-Overlay organises end users into *overlapping groups*: only members
//! of the same group may interact, a peer may belong to several groups at
//! once, and brokers propagate peer information to the other members of each
//! group the peer belongs to.

use crate::id::PeerId;
use crate::tracked::Tracked;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Identifier of a peer group (a human-readable name, as in JXTA-Overlay).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(String);

impl GroupId {
    /// Creates a group identifier.
    pub fn new(name: impl Into<String>) -> Self {
        GroupId(name.into())
    }

    /// The group name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for GroupId {
    fn from(s: &str) -> Self {
        GroupId::new(s)
    }
}

impl From<String> for GroupId {
    fn from(s: String) -> Self {
        GroupId(s)
    }
}

/// Thread-safe registry of groups and their current members, maintained by
/// brokers.
#[derive(Debug)]
pub struct GroupRegistry {
    groups: Tracked<HashMap<GroupId, HashSet<PeerId>>>,
}

impl Default for GroupRegistry {
    fn default() -> Self {
        Self::tracked_by(&Arc::default())
    }
}

impl GroupRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty registry whose membership writes bump `epoch` (a
    /// broker's repair epoch: membership is a repair-tree section).
    pub(crate) fn tracked_by(epoch: &Arc<AtomicU64>) -> Self {
        GroupRegistry {
            groups: Tracked::with_class("groups.members", HashMap::new(), epoch),
        }
    }

    /// Creates (publishes) a group if it does not exist yet.  Returns `true`
    /// if the group was newly created.
    pub fn publish_group(&self, group: GroupId) -> bool {
        self.groups.write().entry(group).or_default().is_empty()
    }

    /// Adds a peer to a group, creating the group if needed.
    pub fn join(&self, group: GroupId, peer: PeerId) {
        self.groups.write().entry(group).or_default().insert(peer);
    }

    /// Removes a peer from a group.  Returns `true` if the peer was a member.
    pub fn leave(&self, group: &GroupId, peer: &PeerId) -> bool {
        self.groups
            .write()
            .get_mut(group)
            .map(|members| members.remove(peer))
            .unwrap_or(false)
    }

    /// Removes a peer from every group (used when a peer goes offline).
    pub fn leave_all(&self, peer: &PeerId) {
        for members in self.groups.write().values_mut() {
            members.remove(peer);
        }
    }

    /// Returns `true` if `peer` is a member of `group`.
    pub fn is_member(&self, group: &GroupId, peer: &PeerId) -> bool {
        self.groups
            .read()
            .get(group)
            .map(|m| m.contains(peer))
            .unwrap_or(false)
    }

    /// Members of a group (empty if the group does not exist), in
    /// deterministic (sorted) order.
    pub fn members(&self, group: &GroupId) -> Vec<PeerId> {
        let mut members: Vec<PeerId> = self
            .groups
            .read()
            .get(group)
            .map(|m| m.iter().copied().collect())
            .unwrap_or_default();
        members.sort();
        members
    }

    /// Groups a peer currently belongs to, sorted by name.
    pub fn groups_of(&self, peer: &PeerId) -> Vec<GroupId> {
        let mut groups: Vec<GroupId> = self
            .groups
            .read()
            .iter()
            .filter(|(_, members)| members.contains(peer))
            .map(|(g, _)| g.clone())
            .collect();
        groups.sort();
        groups
    }

    /// All published groups, sorted by name.
    pub fn all_groups(&self) -> Vec<GroupId> {
        let mut groups: Vec<GroupId> = self.groups.read().keys().cloned().collect();
        groups.sort();
        groups
    }

    /// Number of published groups.
    pub fn group_count(&self) -> usize {
        self.groups.read().len()
    }

    /// Deterministic snapshot of the whole registry: every group with its
    /// sorted member list, sorted by group name.  Empty groups (all members
    /// left) are omitted so that two registries that saw the same joins and
    /// leaves in different orders still compare equal — the comparison the
    /// federation's replication-convergence checks rely on.
    pub fn snapshot(&self) -> Vec<(GroupId, Vec<PeerId>)> {
        let mut snapshot: Vec<(GroupId, Vec<PeerId>)> = self
            .groups
            .read()
            .iter()
            .filter(|(_, members)| !members.is_empty())
            .map(|(group, members)| {
                let mut members: Vec<PeerId> = members.iter().copied().collect();
                members.sort();
                (group.clone(), members)
            })
            .collect();
        snapshot.sort_by(|(a, _), (b, _)| a.cmp(b));
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxta_crypto::drbg::HmacDrbg;

    fn peers(n: usize) -> Vec<PeerId> {
        let mut rng = HmacDrbg::from_seed_u64(77);
        (0..n).map(|_| PeerId::random(&mut rng)).collect()
    }

    #[test]
    fn group_id_basics() {
        let g = GroupId::new("e-learning");
        assert_eq!(g.as_str(), "e-learning");
        assert_eq!(format!("{g}"), "e-learning");
        assert_eq!(GroupId::from("x"), GroupId::new("x"));
        assert_eq!(GroupId::from(String::from("y")), GroupId::new("y"));
    }

    #[test]
    fn join_and_membership() {
        let reg = GroupRegistry::new();
        let ids = peers(3);
        let g = GroupId::new("math-101");
        reg.join(g.clone(), ids[0]);
        reg.join(g.clone(), ids[1]);
        assert!(reg.is_member(&g, &ids[0]));
        assert!(!reg.is_member(&g, &ids[2]));
        assert_eq!(reg.members(&g).len(), 2);
        assert_eq!(reg.group_count(), 1);
    }

    #[test]
    fn overlapping_groups() {
        let reg = GroupRegistry::new();
        let ids = peers(2);
        reg.join(GroupId::new("a"), ids[0]);
        reg.join(GroupId::new("b"), ids[0]);
        reg.join(GroupId::new("b"), ids[1]);
        assert_eq!(reg.groups_of(&ids[0]), vec![GroupId::new("a"), GroupId::new("b")]);
        assert_eq!(reg.groups_of(&ids[1]), vec![GroupId::new("b")]);
        assert_eq!(reg.all_groups().len(), 2);
    }

    #[test]
    fn leave_and_leave_all() {
        let reg = GroupRegistry::new();
        let ids = peers(2);
        let a = GroupId::new("a");
        let b = GroupId::new("b");
        reg.join(a.clone(), ids[0]);
        reg.join(b.clone(), ids[0]);
        assert!(reg.leave(&a, &ids[0]));
        assert!(!reg.leave(&a, &ids[0]), "second leave is a no-op");
        assert!(!reg.leave(&GroupId::new("missing"), &ids[0]));
        reg.leave_all(&ids[0]);
        assert!(reg.groups_of(&ids[0]).is_empty());
    }

    #[test]
    fn publish_group_reports_novelty() {
        let reg = GroupRegistry::new();
        assert!(reg.publish_group(GroupId::new("fresh")));
        reg.join(GroupId::new("fresh"), peers(1)[0]);
        assert!(!reg.publish_group(GroupId::new("fresh")));
    }

    #[test]
    fn snapshot_is_order_insensitive_and_skips_empty_groups() {
        let ids = peers(3);
        let a = GroupRegistry::new();
        a.join(GroupId::new("g1"), ids[0]);
        a.join(GroupId::new("g1"), ids[1]);
        a.join(GroupId::new("g2"), ids[2]);
        let b = GroupRegistry::new();
        b.join(GroupId::new("g2"), ids[2]);
        b.join(GroupId::new("g1"), ids[1]);
        b.join(GroupId::new("g1"), ids[0]);
        assert_eq!(a.snapshot(), b.snapshot());

        // A group whose members all left disappears from the snapshot even
        // though the other registry never created it.
        a.join(GroupId::new("ghost"), ids[0]);
        a.leave(&GroupId::new("ghost"), &ids[0]);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.snapshot().len(), 2);
    }

    #[test]
    fn members_are_sorted_and_deterministic() {
        let reg = GroupRegistry::new();
        let ids = peers(10);
        let g = GroupId::new("sorted");
        for id in &ids {
            reg.join(g.clone(), *id);
        }
        let members = reg.members(&g);
        let mut expected = ids.clone();
        expected.sort();
        assert_eq!(members, expected);
        assert!(reg.members(&GroupId::new("missing")).is_empty());
    }
}
