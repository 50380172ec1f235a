//! The broker's backbone fabric: admission, membership and dissemination
//! behind one lock (`broker.fabric`).
//!
//! The admitted brokers with their replay floors, the symmetric active view
//! derived from the live ones, the Plumtree edges over that view, the SWIM
//! detector and the gossip and `IHave` queues are derived from one another,
//! and keeping them consistent is the [`Fabric`]'s job: [`Fabric::admit`],
//! [`Fabric::forget`], [`Fabric::on_death`] and [`Fabric::on_alive`] change
//! the view, then resync Plumtree and SWIM from it, and a forgotten or
//! buried peer loses its queued traffic.  [`Fabric::repair_round`] picks
//! whom each anti-entropy round digests, and [`Fabric::regrafts`] which
//! missing gossip ids it grafts again.  The fabric never sends: the broker
//! drains the queues and turns SWIM plans into wire traffic after releasing
//! the guard.
//!
//! Events re-sent to answer a `Graft` carry the repair flag
//! ([`GossipEvent::repair`]), which relays keep, so a whole tick-time repair
//! wave is recognisable.  The broker's all-duplicates prune rule ignores
//! flagged events (see `crate::plumtree`): a repair copy travels over lazy
//! edges and across the tree, so a duplicate of one says nothing about which
//! tree edge is redundant.

use crate::broker::BrokerConfig;
use crate::counter::SyncClock;
use crate::id::PeerId;
use crate::membership::PartialView;
use crate::metrics::{Counter, Registry};
use crate::plumtree::{GossipId, PlumtreeState};
use crate::record::{GossipEvent, SwimVerdict};
use crate::shard::{fnv1a, mix, FNV_OFFSET};
use crate::swim::{
    AliveOutcome, DeadOutcome, PeerRecord, PeerState, SuspectOutcome, SwimDetector, TickPlan,
};
use std::collections::{BTreeMap, HashMap};

/// Peers named by one shuffle or shuffle reply.
const SHUFFLE_SAMPLE: usize = 4;

/// Admission, membership and dissemination state of one broker.
pub(crate) struct Fabric {
    own: PeerId,
    full_mesh: bool,
    active_capacity: usize,
    /// The complete admitted peer set in admission order; the view below,
    /// derived from its live members, picks the traffic targets.
    peer_brokers: Vec<PeerId>,
    /// Highest sequence number seen per origin broker (replay detection).
    seen_seq: HashMap<PeerId, u64>,
    view: PartialView,
    plumtree: PlumtreeState,
    /// A confirmed death evicts the member from the view and the edges but
    /// not from the admission set: a recovered broker just answers a probe.
    swim: SwimDetector,
    /// Gossip events per destination; the `BTreeMap` keeps the flush order
    /// deterministic, which the inline federation's pumping relies on.
    outbox: BTreeMap<PeerId, Vec<GossipEvent>>,
    /// Gossip ids pending lazy advertisement, one `IHave` per destination.
    ihave_outbox: BTreeMap<PeerId, Vec<GossipId>>,
    /// Repair rounds started: the clock of the engaged digest rotation.
    repair_round: u64,
    /// The view member the latest engaged repair round digested.
    digested: Option<PeerId>,
}

impl Fabric {
    pub(crate) fn new(own: PeerId, config: &BrokerConfig) -> Self {
        Fabric {
            own,
            full_mesh: config.full_mesh,
            active_capacity: config.active_view,
            peer_brokers: Vec::new(),
            seen_seq: HashMap::new(),
            view: PartialView::new(own, config.active_view),
            plumtree: PlumtreeState::new(crate::plumtree::DEFAULT_CACHE),
            swim: SwimDetector::new(own),
            outbox: BTreeMap::new(),
            ihave_outbox: BTreeMap::new(),
            repair_round: 0,
            digested: None,
        }
    }

    /// Re-derives the Plumtree edges from the active view and the SWIM
    /// member set from the admission set (both no-ops when unchanged).
    fn resync(&mut self) {
        self.plumtree.sync_active(&self.view.active());
        self.swim.sync_members(&self.peer_brokers);
    }

    /// Admits a peer broker; `false` for this broker or a known peer.
    pub(crate) fn admit(&mut self, peer: PeerId) -> bool {
        if peer == self.own || self.peer_brokers.contains(&peer) {
            return false;
        }
        self.peer_brokers.push(peer);
        self.view.on_join(peer);
        self.resync();
        true
    }

    /// Forgets a peer broker entirely.
    pub(crate) fn forget(&mut self, peer: &PeerId) {
        self.peer_brokers.retain(|b| b != peer);
        self.seen_seq.remove(peer);
        self.on_death(peer);
    }

    /// A confirmed death: evict `peer` from the view (which heals by
    /// recomputation over the remaining live set), the edges and the queues.
    pub(crate) fn on_death(&mut self, peer: &PeerId) {
        self.view.on_failure(peer);
        self.outbox.remove(peer);
        self.ihave_outbox.remove(peer);
        self.resync();
    }

    /// A cleared member (refuted, or heard from again) re-enters the view
    /// and the edges: the inverse of [`Fabric::on_death`].
    pub(crate) fn on_alive(&mut self, peer: PeerId) {
        if self.peer_brokers.contains(&peer) {
            self.view.on_join(peer);
            self.resync();
        }
    }

    pub(crate) fn is_admitted(&self, peer: &PeerId) -> bool {
        self.peer_brokers.contains(peer)
    }

    pub(crate) fn peers(&self) -> &[PeerId] {
        &self.peer_brokers
    }

    /// The admitted peers SWIM does not hold dead, in admission order: the
    /// brokers a routed lookup may wait on for an answer.
    pub(crate) fn live_peers(&self) -> Vec<PeerId> {
        let dead = |peer: &PeerId| {
            self.swim.record(peer).is_some_and(|record| record.state == PeerState::Dead)
        };
        self.peer_brokers.iter().filter(|peer| !dead(peer)).copied().collect()
    }

    /// Whether the epidemic fabric is active: not pinned to full mesh and
    /// the known peer set outgrew the active-view capacity.
    pub(crate) fn engaged(&self) -> bool {
        !self.full_mesh && self.peer_brokers.len() > self.active_capacity
    }

    /// Extension-state targets: the active view once engaged, else all.
    pub(crate) fn targets(&self) -> Vec<PeerId> {
        if self.engaged() {
            self.view.active()
        } else {
            self.peer_brokers.clone()
        }
    }

    /// Starts a repair round and returns whom it digests: every admitted
    /// peer below engagement; once engaged, the one view member at
    /// `(h(own) + round) mod |view|`, none while the view is empty.  An
    /// unchanged view is walked round-robin, each member once every `|view|`
    /// rounds, from an offset hashed from this broker's id (the hash
    /// `federation::next_repair_delay` jitters with), so neighbours do not
    /// rotate in lockstep.
    pub(crate) fn repair_round(&mut self) -> Vec<PeerId> {
        let round = self.repair_round;
        self.repair_round += 1;
        if !self.engaged() {
            return self.peer_brokers.clone();
        }
        let view = self.view.active();
        let len = view.len() as u64;
        self.digested = (len > 0).then(|| {
            let h = mix(fnv1a(FNV_OFFSET, self.own.as_bytes()));
            view[(h.wrapping_add(round) % len) as usize]
        });
        self.digested.into_iter().collect()
    }

    /// Whether this broker's latest repair round digested the admitted
    /// `peer`: always below engagement, where every round digests every peer.
    pub(crate) fn digested(&self, peer: &PeerId) -> bool {
        !self.engaged() || self.digested == Some(*peer)
    }

    pub(crate) fn active(&self) -> Vec<PeerId> {
        self.view.active()
    }

    pub(crate) fn eager(&self) -> Vec<PeerId> {
        self.plumtree.eager()
    }

    pub(crate) fn lazy(&self) -> Vec<PeerId> {
        self.plumtree.lazy()
    }

    /// The admission gate: `origin` must be a peer broker arriving over its
    /// own link (`from`) with a fresh sequence number; rejections are counted.
    /// A known origin's sequence is merged into `clock` even when stale.
    pub(crate) fn admit_message(
        &mut self,
        origin: PeerId,
        from: PeerId,
        seq: Option<u64>,
        clock: &SyncClock,
        metrics: &Registry,
    ) -> bool {
        if from != origin || !self.is_admitted(&origin) {
            metrics.add(Counter::RejectedUnknownOrigin, 1);
            return false;
        }
        let fresh = seq.is_some_and(|seq| {
            clock.observe(seq);
            let last = self.seen_seq.entry(origin).or_insert(0);
            let fresh = seq > *last;
            *last = (*last).max(seq);
            fresh
        });
        if !fresh {
            metrics.add(Counter::RejectedReplayed, 1);
        }
        fresh
    }

    /// Queues `event` for each of `targets` (never this broker).
    pub(crate) fn queue(&mut self, targets: &[PeerId], event: GossipEvent) {
        for target in targets {
            if *target != self.own {
                self.outbox.entry(*target).or_default().push(event.clone());
            }
        }
    }

    /// Queues a broadcast event and returns how many brokers it was queued
    /// to directly: every peer on a full mesh; once epidemic, the event is
    /// flagged broadcast, recorded as seen and disseminated.
    pub(crate) fn broadcast(
        &mut self,
        mut event: GossipEvent,
        metrics: &Registry,
    ) -> usize {
        if !self.engaged() {
            let peers = self.peer_brokers.clone();
            self.queue(&peers, event);
            return peers.len();
        }
        event.broadcast = true;
        self.plumtree.note_seen((event.origin, event.seq));
        self.disseminate(&event, self.own, metrics)
    }

    /// Forwards a received broadcast `event` (arrived from `sender`) unless
    /// its gossip id was seen.  Returns `false` for a duplicate, which the
    /// caller must not apply.
    pub(crate) fn relay(
        &mut self,
        event: &GossipEvent,
        sender: PeerId,
        metrics: &Registry,
    ) -> bool {
        let fresh = self.plumtree.note_seen((event.origin, event.seq));
        if fresh {
            self.disseminate(event, sender, metrics);
        }
        fresh
    }

    /// Caches a broadcast `event` for grafts under its gossip id (its
    /// version `(origin, seq)`), queues it on the eager edges and advertises
    /// the id on the lazy ones, neither towards `sender` nor the event's
    /// origin.  Returns how many eager edges it was queued on.
    fn disseminate(&mut self, event: &GossipEvent, sender: PeerId, metrics: &Registry) -> usize {
        let gid = (event.origin, event.seq);
        self.plumtree.cache_event(gid, event.clone());
        let onward = |p: &PeerId| *p != sender && *p != gid.0;
        let forward: Vec<PeerId> = self.plumtree.eager().into_iter().filter(onward).collect();
        self.queue(&forward, event.clone());
        metrics.add(Counter::EagerPushes, forward.len() as u64);
        for peer in self.plumtree.lazy().into_iter().filter(onward) {
            self.ihave_outbox.entry(peer).or_default().push(gid);
        }
        forward.len()
    }

    /// The sender's edge duplicates the tree: demote it to lazy.
    pub(crate) fn prune(&mut self, peer: PeerId) {
        self.plumtree.demote(peer);
    }

    /// Handles an `IHave` digest: returns the advertised ids to graft from
    /// `sender` (unseen, and not grafted from another peer this round) and,
    /// if any, promotes the advertising edge to eager.  An id already
    /// grafted this round keeps `sender` as a fallback for
    /// [`Fabric::regrafts`], and the edge stays lazy.
    pub(crate) fn ihave(&mut self, sender: PeerId, gids: Vec<GossipId>) -> Vec<GossipId> {
        let graft: Vec<GossipId> =
            gids.into_iter().filter(|gid| self.plumtree.announced(*gid, sender)).collect();
        if !graft.is_empty() {
            self.plumtree.promote(sender);
        }
        graft
    }

    /// Starts a graft round: the ids grafted last round and still unseen,
    /// per fallback to graft them from now (each id's next announcer still
    /// in the active view).  Each such edge is promoted, as a first graft's
    /// is; ids without one are left to anti-entropy.
    pub(crate) fn regrafts(&mut self) -> BTreeMap<PeerId, Vec<GossipId>> {
        let view = self.view.active();
        let regrafts = self.plumtree.regraft(|peer| view.contains(peer));
        for peer in regrafts.keys() {
            self.plumtree.promote(*peer);
        }
        regrafts
    }

    #[cfg(test)]
    pub(crate) fn pending_grafts(&self) -> usize {
        self.plumtree.pending_grafts()
    }

    /// Handles a `Graft`: the edge turns eager and every requested event
    /// still cached is queued back flagged as a repair copy (evicted ones
    /// count as graft misses).
    pub(crate) fn graft(
        &mut self,
        sender: PeerId,
        gids: Vec<GossipId>,
        metrics: &Registry,
    ) {
        self.plumtree.promote(sender);
        for gid in gids {
            match self.plumtree.cached(&gid) {
                Some(event) => self.queue(&[sender], GossipEvent { repair: true, ..event }),
                None => metrics.add(Counter::GraftMisses, 1),
            }
        }
    }

    /// Takes every queued gossip event, per destination in id order.
    pub(crate) fn take_outbox(&mut self) -> BTreeMap<PeerId, Vec<GossipEvent>> {
        std::mem::take(&mut self.outbox)
    }

    /// Takes every pending lazy advertisement, per destination in id order.
    pub(crate) fn take_ihaves(&mut self) -> BTreeMap<PeerId, Vec<GossipId>> {
        std::mem::take(&mut self.ihave_outbox)
    }

    /// This round's shuffle offer: a pseudo-random active target, a sample
    /// of the known set and our incarnation (`None` below engagement or if
    /// empty).
    pub(crate) fn shuffle_offer(&mut self) -> Option<(PeerId, Vec<PeerId>, u64)> {
        if !self.engaged() {
            return None;
        }
        let target = self.view.shuffle_target();
        let sample = self.view.shuffle_sample(SHUFFLE_SAMPLE);
        let target = target.filter(|_| !sample.is_empty())?;
        Some((target, sample, self.swim.incarnation()))
    }

    /// The sample of the known set that answers a peer's shuffle.  What the
    /// peer's own sample names is never taken in: the view derives from the
    /// admitted live set alone.
    pub(crate) fn shuffle_answer(&mut self) -> Vec<PeerId> {
        self.view.shuffle_sample(SHUFFLE_SAMPLE)
    }

    /// This broker's own SWIM incarnation.
    pub(crate) fn incarnation(&self) -> u64 {
        self.swim.incarnation()
    }

    fn cleared(&mut self, peer: PeerId, outcome: AliveOutcome) {
        if outcome == AliveOutcome::Cleared {
            self.on_alive(peer);
        }
    }

    /// First-hand contact from `peer` at `incarnation` (a probe ack when
    /// `ack`, which also clears the outstanding probe).
    pub(crate) fn contact(&mut self, peer: PeerId, incarnation: u64, ack: bool) {
        let outcome = if ack {
            self.swim.on_ack(peer, incarnation)
        } else {
            self.swim.on_contact(peer, incarnation)
        };
        self.cleared(peer, outcome);
    }

    /// A gossiped SWIM `verdict` about `peer` at `incarnation`: a confirmed
    /// death evicts the member, a cleared one re-enters.  Returns the
    /// incarnation to refute at when the verdict accuses this broker.
    pub(crate) fn verdict(
        &mut self,
        verdict: SwimVerdict,
        peer: PeerId,
        incarnation: u64,
        metrics: &Registry,
    ) -> Option<u64> {
        match verdict {
            SwimVerdict::Suspect => match self.swim.on_suspect(peer, incarnation) {
                SuspectOutcome::RefuteWith(refute) => return Some(refute),
                SuspectOutcome::Suspected => metrics.add(Counter::SwimSuspicions, 1),
                SuspectOutcome::Ignored => {}
            },
            SwimVerdict::Dead => match self.swim.on_dead(peer, incarnation) {
                DeadOutcome::RefuteWith(refute) => return Some(refute),
                DeadOutcome::Confirmed => {
                    metrics.add(Counter::SwimDeaths, 1);
                    self.on_death(&peer);
                }
                DeadOutcome::Ignored => {}
            },
            SwimVerdict::Alive => {
                let outcome = self.swim.on_alive(peer, incarnation);
                self.cleared(peer, outcome);
            }
        }
        None
    }

    /// One SWIM protocol period at the given inbox backlog (Lifeguard).
    pub(crate) fn tick(&mut self, backlog: u64, threshold: u64) -> TickPlan {
        self.swim.set_backlog(backlog, threshold);
        self.swim.tick()
    }

    pub(crate) fn swim_record(&self, peer: &PeerId) -> Option<PeerRecord> {
        self.swim.record(peer)
    }

    pub(crate) fn dead_members(&self) -> Vec<PeerId> {
        self.swim.dead_members()
    }
}
