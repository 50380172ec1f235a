//! HyParView-style partial views for the epidemic broker backbone.
//!
//! A full-mesh backbone keeps O(N²) edges and pays O(N) gossip fan-out per
//! publish, which caps the broker count long before the target client scale.
//! This module gives each broker a [`PartialView`] over its *known* peer set
//! (the admission set built by `add_peer_broker` stays complete — it is what
//! replay protection and the shard ring key off):
//!
//! * a small **active view** — the only peers this broker eagerly routes
//!   gossip, anti-entropy digests and Plumtree traffic to, bounding the
//!   per-broker degree at O(active) instead of O(N);
//! * a larger **passive view** — a reservoir of known-alive peers used to
//!   heal the active view when a member fails (HyParView's
//!   failure-triggered promotion) and refreshed by periodic shuffles.
//!
//! One deviation from the randomized original keeps the overlay *provably*
//! connected under the deterministic tests: every view pins the broker's
//! **ring successor** (the next live broker id in sorted wrap-around order)
//! into the active set.  The successor edges of all brokers form a cycle over
//! the live set, so the union of active views is connected regardless of what
//! the pseudo-random promotions and shuffles do — anti-entropy over active
//! edges therefore reaches every broker transitively, which is what makes
//! lazy dissemination safe to adopt.
//!
//! The view is plain data: the broker's fabric (`crate::fabric`) owns one
//! and drives it from peer admission and removal, SWIM verdicts and the
//! shuffle wire messages ([`crate::message::MessageKind::MembershipShuffle`]).

use crate::id::PeerId;
use crate::shard::{fnv1a, mix, FNV_OFFSET};
use std::collections::BTreeSet;

/// Default bound of the active view.  Existing federations of up to this
/// many peers keep complete views (every peer active), which preserves the
/// full-mesh behaviour byte for byte; larger backbones go partial.
pub const DEFAULT_ACTIVE_VIEW: usize = 8;

/// Default bound of the passive view (the healing reservoir).
pub const DEFAULT_PASSIVE_VIEW: usize = 32;

/// A HyParView-style partial view: bounded active and passive sets over the
/// known peer set, with deterministic pseudo-random eviction/promotion and a
/// pinned ring successor guaranteeing overlay connectivity.
#[derive(Debug)]
pub struct PartialView {
    own: PeerId,
    active_capacity: usize,
    passive_capacity: usize,
    /// Every admitted peer broker (the complete set; mirrors
    /// `Broker::peer_brokers`).
    known: BTreeSet<PeerId>,
    active: BTreeSet<PeerId>,
    passive: BTreeSet<PeerId>,
    /// SplitMix-style deterministic pseudo-random state, seeded from the
    /// broker's own id so every run of a seeded test makes identical choices.
    rng: u64,
}

impl PartialView {
    /// Creates an empty view for the broker `own`.  Capacities of zero are
    /// clamped to one — an empty active view would disconnect the broker.
    pub fn new(own: PeerId, active_capacity: usize, passive_capacity: usize) -> Self {
        PartialView {
            own,
            active_capacity: active_capacity.max(1),
            passive_capacity: passive_capacity.max(1),
            known: BTreeSet::new(),
            active: BTreeSet::new(),
            passive: BTreeSet::new(),
            rng: mix(fnv1a(FNV_OFFSET, own.as_bytes())),
        }
    }

    /// Next deterministic pseudo-random value.
    fn next_rand(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.rng)
    }

    /// Picks a pseudo-random element of `set` for which `keep` is false.
    fn pick_random(&mut self, set: &BTreeSet<PeerId>, keep: impl Fn(&PeerId) -> bool) -> Option<PeerId> {
        let candidates: Vec<PeerId> = set.iter().filter(|p| !keep(p)).copied().collect();
        if candidates.is_empty() {
            return None;
        }
        let at = (self.next_rand() % candidates.len() as u64) as usize;
        Some(candidates[at])
    }

    /// The broker's ring successor: the next known peer id in sorted
    /// wrap-around order.  `None` when no peers are known.
    pub fn successor(&self) -> Option<PeerId> {
        self.known
            .range(self.own..)
            .find(|p| **p != self.own)
            .or_else(|| self.known.iter().next())
            .copied()
    }

    /// Re-establishes the connectivity pin: the ring successor must always
    /// sit in the active view (evicting a pseudo-random other member to the
    /// passive view if the active set is full).
    fn pin_successor(&mut self) {
        let Some(successor) = self.successor() else {
            return;
        };
        if !self.active.contains(&successor) {
            self.passive.remove(&successor);
            self.active.insert(successor);
        }
        while self.active.len() > self.active_capacity {
            let Some(evicted) = self.pick_random(&self.active.clone(), |p| *p == successor) else {
                break;
            };
            self.active.remove(&evicted);
            self.demote_to_passive(evicted);
        }
    }

    /// Inserts `peer` into the passive view, evicting a pseudo-random member
    /// when the reservoir is full.
    fn demote_to_passive(&mut self, peer: PeerId) {
        if peer == self.own || self.active.contains(&peer) {
            return;
        }
        self.passive.insert(peer);
        while self.passive.len() > self.passive_capacity {
            let Some(evicted) = self.pick_random(&self.passive.clone(), |p| *p == peer) else {
                break;
            };
            self.passive.remove(&evicted);
        }
    }

    /// Promotes passive members into the active view until it is full again
    /// (HyParView's failure-triggered promotion) and re-pins the successor.
    fn refill_active(&mut self) {
        while self.active.len() < self.active_capacity && !self.passive.is_empty() {
            let Some(promoted) = self.pick_random(&self.passive.clone(), |_| false) else {
                break;
            };
            self.passive.remove(&promoted);
            self.active.insert(promoted);
        }
        self.pin_successor();
    }

    /// A newly admitted peer joins the view: it lands in the active set,
    /// displacing a pseudo-random member to the passive view when full —
    /// HyParView treats joins as the strongest signal of liveness.
    pub fn on_join(&mut self, peer: PeerId) {
        if peer == self.own {
            return;
        }
        self.known.insert(peer);
        if self.active.contains(&peer) {
            return;
        }
        self.passive.remove(&peer);
        if self.active.len() < self.active_capacity {
            self.active.insert(peer);
        } else {
            let successor = self.successor();
            match self.pick_random(&self.active.clone(), |p| Some(*p) == successor) {
                Some(evicted) => {
                    self.active.remove(&evicted);
                    self.active.insert(peer);
                    self.demote_to_passive(evicted);
                }
                None => self.demote_to_passive(peer),
            }
        }
        self.pin_successor();
    }

    /// Removes a departed or failed peer from every set and heals the active
    /// view by promotion from the passive reservoir.
    pub fn on_failure(&mut self, peer: &PeerId) {
        self.known.remove(peer);
        self.passive.remove(peer);
        self.active.remove(peer);
        self.refill_active();
    }

    /// A pseudo-random sample of up to `k` known peers (active and passive
    /// alike) — the payload of an outgoing shuffle.
    pub fn shuffle_sample(&mut self, k: usize) -> Vec<PeerId> {
        let mut pool: Vec<PeerId> = self.active.union(&self.passive).copied().collect();
        let mut sample = Vec::with_capacity(k.min(pool.len()));
        while sample.len() < k && !pool.is_empty() {
            let at = (self.next_rand() % pool.len() as u64) as usize;
            sample.push(pool.swap_remove(at));
        }
        sample
    }

    /// Merges a received shuffle sample into the passive view.  Only peers
    /// already admitted to the known set are taken — a shuffle must not
    /// widen the admission set, just refresh the healing reservoir.
    pub fn integrate_shuffle(&mut self, peers: &[PeerId]) {
        for peer in peers {
            if *peer == self.own || !self.known.contains(peer) || self.active.contains(peer) {
                continue;
            }
            self.demote_to_passive(*peer);
        }
    }

    /// A pseudo-random active peer to shuffle with this round.
    pub fn shuffle_target(&mut self) -> Option<PeerId> {
        self.pick_random(&self.active.clone(), |_| false)
    }

    /// The active view, sorted (the deterministic pumping of the inline
    /// federation relies on a stable iteration order).
    pub fn active(&self) -> Vec<PeerId> {
        self.active.iter().copied().collect()
    }

    /// The passive view, sorted.
    pub fn passive(&self) -> Vec<PeerId> {
        self.passive.iter().copied().collect()
    }

    /// Returns `true` when `peer` is in the active view.
    pub fn is_active(&self, peer: &PeerId) -> bool {
        self.active.contains(peer)
    }

    /// Returns `true` when the view is complete — every known peer is
    /// active, so routing along the view is exactly the full mesh.
    pub fn is_complete(&self) -> bool {
        self.active.len() == self.known.len()
    }

    /// Number of known peers (the admission set this view partializes).
    pub fn known_count(&self) -> usize {
        self.known.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxta_crypto::drbg::HmacDrbg;

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

    #[test]
    fn join_fills_active_then_spills_to_passive() {
        let ids = peers(8, 1);
        let mut view = PartialView::new(ids[0], 3, 4);
        for id in &ids[1..] {
            view.on_join(*id);
        }
        assert_eq!(view.active().len(), 3);
        assert_eq!(view.known_count(), 7);
        // Everything known is either active or passive.
        let mut held = view.active();
        held.extend(view.passive());
        held.sort();
        let mut expected: Vec<PeerId> = ids[1..].to_vec();
        expected.sort();
        assert_eq!(held, expected, "bounded passive still fits 4 of the 4 spilled");
    }

    #[test]
    fn successor_is_always_pinned_active() {
        let ids = peers(10, 2);
        let mut view = PartialView::new(ids[0], 2, 8);
        for id in &ids[1..] {
            view.on_join(*id);
            let successor = view.successor().unwrap();
            assert!(
                view.is_active(&successor),
                "successor must stay pinned in the active view"
            );
        }
    }

    #[test]
    fn failure_promotes_from_passive() {
        let ids = peers(9, 3);
        let mut view = PartialView::new(ids[0], 3, 8);
        for id in &ids[1..] {
            view.on_join(*id);
        }
        assert_eq!(view.active().len(), 3);
        let before_passive = view.passive().len();
        assert!(before_passive > 0, "fixture must have a healing reservoir");
        let victim = view.active()[0];
        view.on_failure(&victim);
        assert_eq!(view.active().len(), 3, "promotion refilled the active view");
        assert!(!view.is_active(&victim));
        assert!(!view.passive().contains(&victim));
        assert!(view.is_active(&view.successor().unwrap()));
    }

    #[test]
    fn shuffle_refreshes_passive_but_never_widens_known() {
        let ids = peers(10, 5);
        let mut view = PartialView::new(ids[0], 2, 4);
        for id in &ids[1..6] {
            view.on_join(*id);
        }
        let strangers = &ids[6..]; // never admitted
        view.integrate_shuffle(strangers);
        for stranger in strangers {
            assert!(!view.passive().contains(stranger), "unadmitted peers are rejected");
        }
        let sample = view.shuffle_sample(3);
        assert!(sample.len() <= 3);
        for peer in &sample {
            assert!(view.known_count() >= 1 && *peer != ids[0]);
        }
    }

    #[test]
    fn complete_view_below_capacity_matches_full_mesh() {
        let ids = peers(5, 6);
        let mut view = PartialView::new(ids[0], DEFAULT_ACTIVE_VIEW, DEFAULT_PASSIVE_VIEW);
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
        let mut views: Vec<PartialView> = ids
            .iter()
            .map(|id| PartialView::new(*id, 2, 6))
            .collect();
        for view in views.iter_mut() {
            for id in &ids {
                view.on_join(*id);
            }
        }
        let edges: Vec<(PeerId, Vec<PeerId>)> =
            views.iter().map(|v| (v.own, v.active())).collect();
        let reached = reachable_from(&edges, ids[0]);
        assert_eq!(reached.len(), ids.len(), "active-view graph must be connected");
    }
}
