//! Symmetric active views for the epidemic broker backbone.
//!
//! A full-mesh backbone keeps O(N²) edges and pays O(N) gossip fan-out per
//! publish, which caps the broker count long before the target client scale.
//! This module gives each broker a [`PartialView`] over its *known* live peer
//! set (the admission set built by `add_peer_broker` stays complete — it is
//! what replay protection and the shard ring key off): a small **active
//! view**, the only peers this broker eagerly routes gossip, anti-entropy
//! digests and Plumtree traffic to, bounding the per-broker degree at
//! O(active) instead of O(N).
//!
//! The active view is *derived*, not grown.  The broker's id and the known
//! live peers, sorted, form a ring of `n` positions; a broker at position
//! `i` takes the members at `i ± o` for a few offsets `1 = o_0 < o_1 < …`
//! that grow geometrically towards `n/2` (see `ring_offsets`).  Three
//! properties follow by construction:
//!
//! * **symmetry** — `j = i + o` exactly when `i = j - o`, so two brokers
//!   that agree on the live set hold each other or neither.  Plumtree
//!   (Leitão, Pereira, Rodrigues, SRDS 2007) relies on it: one eager tree
//!   can serve every origin only if a link that carries a push one way
//!   carries it the other way too, and a prune or graft of an edge names
//!   an edge both ends hold;
//! * **connectivity** — offset 1 puts the ring successor in every view, and
//!   the successor edges alone form a cycle over the live set, so
//!   anti-entropy over view edges reaches every broker transitively;
//! * **shallow trees** — geometric offsets give the view graph a diameter
//!   logarithmic in `n`, so the eager tree stays a few hops deep.
//!
//! HyParView keeps a passive reservoir because a node there knows only part
//! of the membership.  A broker here knows the complete admitted set, so
//! healing after a death is the recomputation: [`PartialView::on_failure`]
//! drops the peer and re-derives the view, and every broker that learns of
//! the death arrives at the same new graph.  Periodic shuffles stay on the
//! wire — each goes to a pseudo-random view member with a sample of the
//! known set — because receiving one is first-hand SWIM evidence that the
//! sender lives; what they name never changes the view.
//!
//! The view is plain data: the broker's fabric (`crate::fabric`) owns one
//! and drives it from peer admission and removal, SWIM verdicts and the
//! shuffle wire messages ([`crate::message::MessageKind::MembershipShuffle`]).

use crate::id::PeerId;
use crate::shard::{fnv1a, mix, SplitMix64, FNV_OFFSET};

/// Default bound of the active view.  Existing federations of up to this
/// many peers keep complete views (every peer active), which preserves the
/// full-mesh behaviour byte for byte; larger backbones go partial.
pub const DEFAULT_ACTIVE_VIEW: usize = 8;

/// A symmetric active view derived from the known live peer set: complete
/// while the set fits the capacity, otherwise the ring members at the
/// `ring_offsets` on either side of this broker.
#[derive(Debug)]
pub struct PartialView {
    own: PeerId,
    capacity: usize,
    /// Every live admitted peer broker, sorted: the ring without `own`.
    known: Vec<PeerId>,
    /// The derived view, sorted; recomputed on every change of `known`.
    active: Vec<PeerId>,
    /// The shuffles' SplitMix64 stream, seeded from the broker's own id so
    /// every run of a seeded test is identical.
    rng: SplitMix64,
}

impl PartialView {
    /// Creates an empty view for the broker `own`.  Capacities below two
    /// are raised to two: a symmetric view that holds the ring successor
    /// also holds the predecessor.
    pub fn new(own: PeerId, capacity: usize) -> Self {
        PartialView {
            own,
            capacity: capacity.max(2),
            known: Vec::new(),
            active: Vec::new(),
            rng: SplitMix64::new(mix(fnv1a(FNV_OFFSET, own.as_bytes()))),
        }
    }

    /// The broker's ring successor: the next known peer id in sorted
    /// wrap-around order.  `None` when no peers are known.
    pub fn successor(&self) -> Option<PeerId> {
        let above = self.known.partition_point(|p| *p < self.own);
        self.known.get(above).or(self.known.first()).copied()
    }

    /// Re-derives the active view from the known set, in O(capacity) ring
    /// lookups once the known set is sorted.
    fn derive(&mut self) {
        if self.known.len() <= self.capacity {
            self.active = self.known.clone();
            return;
        }
        let n = self.known.len() + 1;
        let i = self.known.partition_point(|p| *p < self.own);
        // Ring position `r` of the sorted `known ∪ {own}`, `own` sitting at `i`.
        let at = |r: usize| if r < i { self.known[r] } else { self.known[r - 1] };
        let mut active = Vec::with_capacity(self.capacity);
        for offset in ring_offsets(n, self.capacity / 2) {
            active.push(at((i + offset) % n));
            active.push(at((i + n - offset) % n));
        }
        active.sort_unstable();
        active.dedup();
        self.active = active;
    }

    /// A newly admitted (or cleared) peer joins the known set.
    pub fn on_join(&mut self, peer: PeerId) {
        if peer == self.own {
            return;
        }
        if let Err(at) = self.known.binary_search(&peer) {
            self.known.insert(at, peer);
            self.derive();
        }
    }

    /// A departed or failed peer leaves the known set; the view heals by
    /// recomputation.
    pub fn on_failure(&mut self, peer: &PeerId) {
        if let Ok(at) = self.known.binary_search(peer) {
            self.known.remove(at);
            self.derive();
        }
    }

    /// A pseudo-random sample of up to `k` known peers — the payload of an
    /// outgoing shuffle or shuffle reply.
    pub fn shuffle_sample(&mut self, k: usize) -> Vec<PeerId> {
        let mut pool = self.known.clone();
        let mut sample = Vec::with_capacity(k.min(pool.len()));
        while sample.len() < k && !pool.is_empty() {
            let at = (self.rng.next() % pool.len() as u64) as usize;
            sample.push(pool.swap_remove(at));
        }
        sample
    }

    /// A pseudo-random active peer to shuffle with this round.
    pub fn shuffle_target(&mut self) -> Option<PeerId> {
        if self.active.is_empty() {
            return None;
        }
        let at = (self.rng.next() % self.active.len() as u64) as usize;
        Some(self.active[at])
    }

    /// The active view, sorted (the deterministic pumping of the inline
    /// federation relies on a stable iteration order).
    pub fn active(&self) -> Vec<PeerId> {
        self.active.clone()
    }

    /// Returns `true` when `peer` is in the active view.
    pub fn is_active(&self, peer: &PeerId) -> bool {
        self.active.binary_search(peer).is_ok()
    }

    /// Returns `true` when the view is complete — every known peer is
    /// active, so routing along the view is exactly the full mesh.
    pub fn is_complete(&self) -> bool {
        self.active.len() == self.known.len()
    }
}

/// The ring offsets of a derived view over `n` brokers with `pairs` offset
/// pairs: `o_0 = 1`, then each `o_j` is the smallest integer with
/// `o_j^pairs ≥ n^j` (about `n^(j/pairs)`), raised to `o_{j-1} + 1` if it
/// is not larger, stopping before an offset exceeds `n/2`.  Integer
/// arithmetic only (saturating at `u128::MAX`), so every broker that sees
/// the same live set derives the same graph.  For 64 brokers and 4 pairs
/// the offsets are 1, 3, 8, 23.
fn ring_offsets(n: usize, pairs: usize) -> Vec<usize> {
    let pow = |base: usize, exp: usize| (base as u128).saturating_pow(exp as u32);
    let mut offsets: Vec<usize> = Vec::with_capacity(pairs);
    for j in 0..pairs {
        // Binary search for the smallest offset in `lo..=n/2` reaching n^j.
        let target = pow(n, j);
        let (mut lo, mut hi) = (offsets.last().map_or(1, |last| last + 1), n / 2 + 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pow(mid, pairs) >= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        if lo > n / 2 {
            break;
        }
        offsets.push(lo);
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxta_crypto::drbg::HmacDrbg;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn peers(n: usize, seed: u64) -> Vec<PeerId> {
        let mut rng = HmacDrbg::from_seed_u64(seed);
        (0..n).map(|_| PeerId::random(&mut rng)).collect()
    }

    /// Every broker's active views over `views` (own id → active set), for
    /// the reachability oracle.
    fn reachable_from(views: &[(PeerId, Vec<PeerId>)], start: PeerId) -> BTreeSet<PeerId> {
        let mut seen: BTreeSet<PeerId> = BTreeSet::new();
        let mut queue = vec![start];
        while let Some(at) = queue.pop() {
            if !seen.insert(at) {
                continue;
            }
            if let Some((_, active)) = views.iter().find(|(id, _)| *id == at) {
                for next in active {
                    if !seen.contains(next) {
                        queue.push(*next);
                    }
                }
            }
        }
        seen
    }

    /// One view per id in `ids`, each knowing every other id.  The last
    /// peer joins through `on_join`; the rest are loaded directly, which
    /// keeps 600-broker cases to one derivation per view.
    fn federation_views(ids: &[PeerId], capacity: usize) -> Vec<PartialView> {
        let (last, rest) = ids.split_last().expect("at least one id");
        let mut sorted = rest.to_vec();
        sorted.sort_unstable();
        ids.iter()
            .map(|own| {
                let mut view = PartialView::new(*own, capacity);
                view.known = sorted.iter().filter(|id| *id != own).copied().collect();
                view.derive();
                view.on_join(*last);
                view
            })
            .collect()
    }

    /// Symmetry, the capacity bound, the successor pin and connectivity
    /// over the views of every broker in `views`.
    fn check_views(views: &[PartialView], capacity: usize) -> Result<(), TestCaseError> {
        let by_id: BTreeMap<PeerId, &PartialView> = views.iter().map(|v| (v.own, v)).collect();
        for view in views {
            let active = view.active();
            prop_assert!(
                active.len() <= capacity.max(2),
                "{} members over {}",
                active.len(),
                capacity
            );
            let successor = view.successor().expect("a live set of two or more");
            prop_assert!(view.is_active(&successor), "the ring successor must be active");
            for peer in &active {
                let Some(other) = by_id.get(peer) else {
                    return Err(TestCaseError::fail("view names a broker outside the live set"));
                };
                prop_assert!(other.is_active(&view.own), "view edges must be symmetric");
            }
        }
        let edges: Vec<(PeerId, Vec<PeerId>)> = views.iter().map(|v| (v.own, v.active())).collect();
        let reached = reachable_from(&edges, views[0].own);
        prop_assert_eq!(reached.len(), views.len(), "the view graph must be connected");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn derived_views_are_symmetric_bounded_and_connected(
            n in 2usize..=600,
            capacity in 1usize..=10,
            seed in any::<u64>(),
            victim in any::<usize>(),
        ) {
            let ids = peers(n, seed);
            let mut views = federation_views(&ids, capacity);
            check_views(&views, capacity)?;
            // A death heals by recomputation: once every survivor has
            // dropped the victim, the views are symmetric again.
            let victim = ids[victim % n];
            views.retain(|view| view.own != victim);
            for view in views.iter_mut() {
                view.on_failure(&victim);
            }
            if views.len() > 1 {
                check_views(&views, capacity)?;
            }
        }
    }

    /// The known peers outside the view: a derived view's counterpart of
    /// HyParView's passive reservoir, the peers a recomputation promotes.
    fn passive(view: &PartialView) -> Vec<PeerId> {
        view.known.iter().filter(|peer| !view.is_active(peer)).copied().collect()
    }

    #[test]
    fn join_fills_active_then_spills_to_passive() {
        let ids = peers(8, 1);
        let mut view = PartialView::new(ids[0], 4);
        for (joined, id) in ids[1..].iter().enumerate() {
            view.on_join(*id);
            if joined < 4 {
                assert!(view.is_complete(), "joins fill the view up to its capacity");
            }
        }
        assert_eq!(view.active().len(), 4);
        assert_eq!(view.known.len(), 7);
        assert_eq!(passive(&view).len(), 3, "the peers past the capacity spill");
        // Everything known is either active or passive.
        let mut held = view.active();
        held.extend(passive(&view));
        held.sort();
        let mut expected: Vec<PeerId> = ids[1..].to_vec();
        expected.sort();
        assert_eq!(held, expected);
    }

    #[test]
    fn failure_promotes_from_passive() {
        let ids = peers(9, 3);
        let mut view = PartialView::new(ids[0], 4);
        for id in &ids[1..] {
            view.on_join(*id);
        }
        assert_eq!(view.active().len(), 4);
        let before_passive = passive(&view);
        assert!(!before_passive.is_empty(), "fixture must have a healing reservoir");
        let victim = view.active()[0];
        view.on_failure(&victim);
        assert_eq!(view.active().len(), 4, "promotion refilled the active view");
        assert!(!view.is_active(&victim));
        assert!(!passive(&view).contains(&victim));
        assert!(
            before_passive.iter().any(|peer| view.is_active(peer)),
            "a passive peer was promoted"
        );
        assert!(view.is_active(&view.successor().unwrap()));
    }

    #[test]
    fn ring_offsets_grow_geometrically_up_to_half_the_ring() {
        assert_eq!(ring_offsets(64, 4), vec![1, 3, 8, 23]);
        assert_eq!(ring_offsets(256, 4), vec![1, 4, 16, 64]);
        assert_eq!(ring_offsets(6, 4), vec![1, 2, 3], "stops at n/2");
        assert_eq!(ring_offsets(2, 1), vec![1]);
    }

    #[test]
    fn successor_is_always_pinned_active() {
        let ids = peers(10, 2);
        let mut view = PartialView::new(ids[0], 2);
        for id in &ids[1..] {
            view.on_join(*id);
            let successor = view.successor().unwrap();
            assert!(view.is_active(&successor), "successor must stay pinned in the active view");
        }
    }

    #[test]
    fn complete_view_below_capacity_matches_full_mesh() {
        let ids = peers(5, 6);
        let mut view = PartialView::new(ids[0], DEFAULT_ACTIVE_VIEW);
        for id in &ids[1..] {
            view.on_join(*id);
        }
        assert!(view.is_complete());
        let mut active = view.active();
        active.sort();
        let mut expected: Vec<PeerId> = ids[1..].to_vec();
        expected.sort();
        assert_eq!(active, expected);
    }

    #[test]
    fn successor_edges_connect_the_overlay() {
        // The connectivity argument in miniature: tiny active views over a
        // large peer set still reach everyone, because the pinned successor
        // edges alone form a cycle over the live set.
        let ids = peers(24, 7);
        let mut views: Vec<PartialView> = ids.iter().map(|id| PartialView::new(*id, 2)).collect();
        for view in views.iter_mut() {
            for id in &ids {
                view.on_join(*id);
            }
        }
        let edges: Vec<(PeerId, Vec<PeerId>)> = views.iter().map(|v| (v.own, v.active())).collect();
        let reached = reachable_from(&edges, ids[0]);
        assert_eq!(reached.len(), ids.len(), "active-view graph must be connected");
    }
}
