//! Plumtree-style dissemination over the active view.
//!
//! Layered on [`crate::membership::PartialView`]: broadcast gossip (the
//! fully replicated publish/join/leave events) is **eagerly pushed** along a
//! per-broker spanning-tree edge set (the *eager* peers) and only
//! **advertised** — as a compact `IHave` digest of gossip ids — on the
//! remaining active edges (the *lazy* peers).  A receiver that learns about
//! a message from a digest it never received eagerly answers `Graft`, which
//! both pulls the missed payload and promotes the advertising edge into the
//! tree; a receiver that gets only duplicates over an edge answers `Prune`,
//! demoting it to lazy.  Anti-entropy stays underneath as the last-resort
//! safety net (a graft that misses the bounded cache heals there).
//!
//! A missed id is grafted once per round (Plumtree's missing-message rule):
//! only from the first lazy peer that advertises it.  Later announcers are
//! kept as fallbacks, their edges left lazy.  An id still missing when the
//! next round starts is grafted from its next fallback, one per round, and
//! an id with no fallback left is left to anti-entropy.  Grafting from
//! every announcer would pull one copy per announcer and promote one edge
//! per announcer, each of which the next eager wave prunes again.
//!
//! On the wire an `IHave` or `Graft` carries its ids as one `ids` element of
//! gossip-id records (`crate::record`).
//!
//! One eager tree serves every origin, which takes two rules:
//!
//! * **edges are symmetric** — the active view holds each edge at both ends
//!   (see [`crate::membership`]), so a prune or graft changes an edge both
//!   brokers hold and pushes flow along it both ways;
//! * **repair copies never prune** — events re-sent for a `Graft`, and
//!   every relay of them, carry the repair flag, and the all-duplicates
//!   rule counts only unflagged events.  A prune then happens only inside a
//!   publish's own eager wave, where a duplicate always arrives over an edge
//!   outside that publish's first-arrival tree: the tree still connects
//!   both ends, so removing the edge keeps the undirected eager graph
//!   connected, and every origin keeps reaching every broker.  A repair
//!   wave instead crosses lazy edges and the tree alike; pruning on its
//!   duplicates would cut tree edges and leave a forest that points away
//!   from whichever origin pruned last.
//!
//! This module is the bookkeeping only — eager/lazy edge sets, the bounded
//! seen-set, payload cache and pending grafts keyed by [`GossipId`].  The broker's fabric (`crate::fabric`) owns one
//! [`PlumtreeState`], keeps its edges in step with the active view, and
//! drives it from the gossip paths and the
//! `PlumtreeIHave`/`PlumtreeGraft`/`PlumtreePrune` wire messages.

use crate::id::PeerId;
use crate::record::GossipEvent;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// Identity of one broadcast gossip event: the version origin that created
/// it and the sequence number it was versioned under.  The pair is exactly
/// the event's last-writer-wins version, so it is already unique per write
/// and travels in every event record (`crate::record`).
pub type GossipId = (PeerId, u64);

/// Default bound of the seen-set, the graft cache and the pending grafts.
/// Eviction is FIFO; an evicted entry can only cost a redundant application
/// (the LWW merge rejects it), a graft miss or a lost fallback (anti-entropy
/// heals both).
pub const DEFAULT_CACHE: usize = 4096;

/// Plumtree bookkeeping for one broker.
#[derive(Debug)]
pub struct PlumtreeState {
    /// Tree edges: broadcast payloads are pushed here in full.
    eager: BTreeSet<PeerId>,
    /// Remaining active edges: only `IHave` digests travel here.
    lazy: BTreeSet<PeerId>,
    /// Gossip ids this broker has already received or originated.
    seen: HashSet<GossipId>,
    seen_order: VecDeque<GossipId>,
    /// Recently seen events, kept to answer `Graft` pulls.
    cache: HashMap<GossipId, GossipEvent>,
    cache_order: VecDeque<GossipId>,
    /// Unseen ids grafted this round, each with its announcers in order:
    /// the peer grafted from first, then the fallbacks.
    pending: HashMap<GossipId, Vec<PeerId>>,
    pending_order: VecDeque<GossipId>,
    capacity: usize,
}

impl PlumtreeState {
    /// Creates empty state with the given seen/cache bound (clamped to 1).
    pub fn new(capacity: usize) -> Self {
        PlumtreeState {
            eager: BTreeSet::new(),
            lazy: BTreeSet::new(),
            seen: HashSet::new(),
            seen_order: VecDeque::new(),
            cache: HashMap::new(),
            cache_order: VecDeque::new(),
            pending: HashMap::new(),
            pending_order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Reconciles the edge sets with the membership layer's active view:
    /// peers that left the view are dropped, new active peers start out
    /// eager (optimistic — the first duplicate over the edge prunes it).
    pub fn sync_active(&mut self, active: &[PeerId]) {
        let view: BTreeSet<PeerId> = active.iter().copied().collect();
        self.eager.retain(|p| view.contains(p));
        self.lazy.retain(|p| view.contains(p));
        for peer in view {
            if !self.eager.contains(&peer) && !self.lazy.contains(&peer) {
                self.eager.insert(peer);
            }
        }
    }

    /// Records `gid` as seen, which ends any graft pending for it.  Returns
    /// `true` when it was fresh — the caller applies and forwards the event
    /// only then.
    pub fn note_seen(&mut self, gid: GossipId) -> bool {
        if !self.seen.insert(gid) {
            return false;
        }
        self.pending.remove(&gid);
        self.seen_order.push_back(gid);
        while self.seen_order.len() > self.capacity {
            if let Some(evicted) = self.seen_order.pop_front() {
                self.seen.remove(&evicted);
            }
        }
        true
    }

    /// Returns `true` when `gid` was already seen.
    pub fn has_seen(&self, gid: &GossipId) -> bool {
        self.seen.contains(gid)
    }

    /// Stores an event so a later `Graft` can pull it.
    pub fn cache_event(&mut self, gid: GossipId, event: GossipEvent) {
        if self.cache.insert(gid, event).is_none() {
            self.cache_order.push_back(gid);
        }
        while self.cache_order.len() > self.capacity {
            if let Some(evicted) = self.cache_order.pop_front() {
                self.cache.remove(&evicted);
            }
        }
    }

    /// The cached event of `gid`, if it has not been evicted.
    pub fn cached(&self, gid: &GossipId) -> Option<GossipEvent> {
        self.cache.get(gid).cloned()
    }

    /// `peer` advertised `gid`.  Returns `true` when this broker should
    /// graft it from `peer`: the id is unseen and no graft for it is pending
    /// this round.  A later announcer of a pending id is kept as a fallback.
    pub fn announced(&mut self, gid: GossipId, peer: PeerId) -> bool {
        if self.has_seen(&gid) {
            return false;
        }
        if let Some(announcers) = self.pending.get_mut(&gid) {
            if !announcers.contains(&peer) {
                announcers.push(peer);
            }
            return false;
        }
        self.pend(gid, vec![peer]);
        true
    }

    /// Ends a graft round.  Each pending id still unseen is grafted again
    /// from its first fallback that `reachable` accepts, returned per
    /// fallback, and stays pending for the new round with that fallback
    /// first; every other pending graft is dropped.
    pub fn regraft(
        &mut self,
        reachable: impl Fn(&PeerId) -> bool,
    ) -> BTreeMap<PeerId, Vec<GossipId>> {
        let mut pending = std::mem::take(&mut self.pending);
        let mut regrafts: BTreeMap<PeerId, Vec<GossipId>> = BTreeMap::new();
        for gid in std::mem::take(&mut self.pending_order) {
            let Some(mut fallbacks) = pending.remove(&gid) else {
                continue;
            };
            fallbacks.remove(0);
            fallbacks.retain(|peer| reachable(peer));
            if let Some(fallback) = fallbacks.first() {
                regrafts.entry(*fallback).or_default().push(gid);
                self.pend(gid, fallbacks);
            }
        }
        regrafts
    }

    /// Records a graft pending for `gid` from the first of `announcers`,
    /// evicting the oldest pending graft beyond the bound.
    fn pend(&mut self, gid: GossipId, announcers: Vec<PeerId>) {
        self.pending.insert(gid, announcers);
        self.pending_order.push_back(gid);
        while self.pending_order.len() > self.capacity {
            if let Some(evicted) = self.pending_order.pop_front() {
                self.pending.remove(&evicted);
            }
        }
    }

    /// How many ids have a graft pending.
    #[cfg(test)]
    pub(crate) fn pending_grafts(&self) -> usize {
        self.pending.len()
    }

    /// Demotes an edge to lazy (a duplicate arrived over it, or the peer
    /// pruned us).  Returns `true` when the peer was eager until now.
    pub fn demote(&mut self, peer: PeerId) -> bool {
        if self.eager.remove(&peer) {
            self.lazy.insert(peer);
            return true;
        }
        false
    }

    /// Promotes an edge to eager (a digest over it beat the tree, or the
    /// peer grafted it).  Returns `true` when the peer was lazy until now.
    pub fn promote(&mut self, peer: PeerId) -> bool {
        if self.lazy.remove(&peer) {
            self.eager.insert(peer);
            return true;
        }
        false
    }

    /// The eager (tree) edges, sorted.
    pub fn eager(&self) -> Vec<PeerId> {
        self.eager.iter().copied().collect()
    }

    /// The lazy (digest-only) edges, sorted.
    pub fn lazy(&self) -> Vec<PeerId> {
        self.lazy.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::PEER_ID_LEN;
    use crate::record::{self, GossipBody};
    use jxta_crypto::drbg::HmacDrbg;

    fn peers(n: usize, seed: u64) -> Vec<PeerId> {
        let mut rng = HmacDrbg::from_seed_u64(seed);
        (0..n).map(|_| PeerId::random(&mut rng)).collect()
    }

    #[test]
    fn new_active_peers_start_eager_and_leavers_are_dropped() {
        let ids = peers(4, 1);
        let mut state = PlumtreeState::new(16);
        state.sync_active(&ids[..3]);
        assert_eq!(state.eager().len(), 3);
        state.demote(ids[0]);
        assert_eq!(state.lazy(), vec![ids[0]].into_iter().collect::<Vec<_>>());
        // ids[0] leaves the view, ids[3] joins: the demotion survives for
        // the peers that stayed, the newcomer starts eager.
        state.sync_active(&ids[1..]);
        assert!(!state.eager().contains(&ids[0]) && !state.lazy().contains(&ids[0]));
        assert!(state.eager().contains(&ids[3]));
        assert!(state.eager().contains(&ids[1]) && state.eager().contains(&ids[2]));
    }

    #[test]
    fn seen_set_dedups_and_evicts_fifo() {
        let ids = peers(1, 2);
        let mut state = PlumtreeState::new(3);
        assert!(state.note_seen((ids[0], 1)));
        assert!(!state.note_seen((ids[0], 1)), "duplicate");
        assert!(state.note_seen((ids[0], 2)));
        assert!(state.note_seen((ids[0], 3)));
        assert!(state.note_seen((ids[0], 4)), "evicts (_, 1)");
        assert!(!state.has_seen(&(ids[0], 1)), "FIFO eviction at capacity 3");
        assert!(state.has_seen(&(ids[0], 4)));
    }

    #[test]
    fn cache_serves_grafts_until_evicted() {
        let ids = peers(1, 3);
        let mut state = PlumtreeState::new(2);
        let event = |seq| GossipEvent {
            seq,
            origin: ids[0],
            broadcast: true,
            repair: false,
            body: GossipBody::Leave(ids[0]),
        };
        state.cache_event((ids[0], 1), event(1));
        state.cache_event((ids[0], 2), event(2));
        assert_eq!(state.cached(&(ids[0], 1)), Some(event(1)));
        state.cache_event((ids[0], 3), event(3));
        assert_eq!(state.cached(&(ids[0], 1)), None, "FIFO eviction");
        assert!(state.cached(&(ids[0], 3)).is_some());
    }

    /// Bytes of one gossip id on the wire: the 16-byte origin, then the
    /// sequence number as 8 big-endian bytes.
    const GOSSIP_ID_LEN: usize = PEER_ID_LEN + 8;

    #[test]
    fn gossip_ids_round_trip_as_fixed_records() {
        let ids = peers(2, 5);
        let gids = [(ids[0], 0), (ids[1], (1 << 63) - 1), (ids[0], 42)];
        let encoded = record::encode(&gids);
        assert_eq!(encoded.len(), 3 * GOSSIP_ID_LEN);
        assert_eq!(&encoded[..PEER_ID_LEN], ids[0].as_bytes());
        assert_eq!(
            &encoded[2 * GOSSIP_ID_LEN + PEER_ID_LEN..],
            &42u64.to_be_bytes()
        );
        assert_eq!(record::decode::<GossipId>(&encoded), gids);
        assert_eq!(record::decode::<GossipId>(&[]), []);
    }

    #[test]
    fn gossip_id_decoder_ignores_a_partial_trailing_record() {
        let ids = peers(1, 6);
        let gids = [(ids[0], 1), (ids[0], 2)];
        let mut encoded = record::encode(&gids);
        encoded.extend_from_slice(&record::encode(&[(ids[0], 3)])[..GOSSIP_ID_LEN - 1]);
        assert_eq!(record::decode::<GossipId>(&encoded), gids);
        assert_eq!(record::decode::<GossipId>(&encoded[..GOSSIP_ID_LEN - 1]), []);
    }

    #[test]
    fn graft_once_per_missing_id_keeps_later_announcers_as_fallbacks() {
        let ids = peers(4, 7);
        let mut state = PlumtreeState::new(8);
        let (gid, seen) = ((ids[0], 1), (ids[0], 2));
        assert!(
            state.announced(gid, ids[1]),
            "the first announcer is grafted from"
        );
        assert!(!state.announced(gid, ids[2]), "a later one is a fallback");
        assert!(!state.announced(gid, ids[1]), "a repeat is neither");
        assert!(!state.announced(gid, ids[3]));
        assert!(state.announced(seen, ids[1]));
        state.note_seen(seen);
        assert_eq!(state.pending_grafts(), 1, "a seen id needs no graft");
        let reachable = |peer: &PeerId| *peer != ids[2];
        assert_eq!(
            state.regraft(reachable),
            BTreeMap::from([(ids[3], vec![gid])])
        );
        assert!(
            !state.announced(gid, ids[1]),
            "one graft per round, the retry included"
        );
        assert_eq!(
            state.regraft(reachable),
            BTreeMap::from([(ids[1], vec![gid])])
        );
        assert_eq!(
            state.regraft(reachable),
            BTreeMap::new(),
            "no fallback left"
        );
        assert_eq!(state.pending_grafts(), 0);
    }

    #[test]
    fn demote_and_promote_move_edges_between_sets() {
        let ids = peers(2, 4);
        let mut state = PlumtreeState::new(8);
        state.sync_active(&ids);
        assert!(state.demote(ids[0]));
        assert!(!state.demote(ids[0]), "already lazy");
        assert_eq!(state.eager(), vec![ids[1]].into_iter().collect::<Vec<_>>());
        assert!(state.promote(ids[0]));
        assert!(!state.promote(ids[0]), "already eager");
        assert_eq!(state.lazy(), Vec::<PeerId>::new());
    }
}
