//! SWIM-style failure detection for the epidemic broker backbone.
//!
//! The partial-view/Plumtree fabric disseminates at O(active view) cost but
//! is blind to failures: a partial view only learns a broker died through an
//! explicit `remove_broker` call, so a crashed broker silently blackholes its
//! eager edges until anti-entropy limps the state back.  This module supplies
//! the missing detection layer, following SWIM (Das et al.) with the
//! Lifeguard local-health refinement (Dadgar et al.):
//!
//! * **Probing.**  Each repair tick the broker direct-pings one member,
//!   round-robin over a deterministically shuffled ring so every member is
//!   probed within one full rotation.  A probe that goes unacknowledged fans
//!   out `k` *indirect* ping-requests through other members — redundant
//!   routes distinguish "the target died" from "my edge to the target is bad".
//! * **Suspicion, not execution.**  A timed-out probe only marks the target
//!   `Suspect` with a deadline measured in ticks.  Suspicion is gossiped; the
//!   accused broker — still alive and still on the gossip plane — refutes by
//!   re-announcing itself with a **higher incarnation number**, which every
//!   broker orders above the suspicion.  Only an unrefuted deadline expiry
//!   confirms `Dead`.
//! * **Local health.**  A broker that is itself backlogged cannot tell a slow
//!   peer from a dead one.  The [`SwimDetector::set_backlog`] multiplier
//!   stretches every timeout while the local inbox lags, so overload degrades
//!   to slower detection instead of a false-positive storm.
//!
//! The detector is plain data owned by the broker's fabric
//! (`crate::fabric`); it never touches the clock or the network.
//! Time is the repair-cadence tick counter, and all wire traffic
//! ([`crate::message::MessageKind::SwimPing`] / `SwimPingReq` / `SwimAck`,
//! plus the gossiped `swim-*` events) is sent by the broker through the
//! sequenced admission-controlled path.

use crate::counter;
use crate::id::PeerId;
use crate::shard::{fnv1a, mix, SplitMix64, FNV_OFFSET};
use std::collections::BTreeMap;

/// How many ticks an unrefuted suspicion survives before it is confirmed
/// `Dead` (scaled by the local-health multiplier).
pub const DEFAULT_SUSPECT_TICKS: u64 = 3;

/// How many indirect ping-requests fan out when a direct probe times out.
pub const DEFAULT_INDIRECT_PROBES: usize = 2;

/// Cap of the local-health multiplier: even a hopelessly backlogged broker
/// keeps detecting, just this many times slower.
pub const MAX_HEALTH: u64 = 8;

/// The probe budget, in repair ticks, within which a crash-stopped broker
/// must be confirmed `Dead` federation-wide (at health 1): one tick to be
/// selected for probing somewhere, two for the direct+indirect timeouts,
/// [`DEFAULT_SUSPECT_TICKS`] for the unrefuted suspicion to expire, and the
/// remainder as dissemination slack for the `swim-dead` broadcast.  The E9
/// fault-injection sweep and CI assert detection within this bound.
pub const PROBE_BUDGET_TICKS: u64 = 12;

/// Liveness verdict for one member, driven by probe acks, gossip and
/// incarnation ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// Responding (or not yet contradicted).
    Alive,
    /// A probe timed out (or a peer gossiped a suspicion); unless refuted by
    /// a higher incarnation before `deadline` (a tick count), the member is
    /// confirmed dead.
    Suspect {
        /// Tick at which the unrefuted suspicion becomes a death verdict.
        deadline: u64,
    },
    /// Confirmed dead.  Still probed — a recovered broker acks and is
    /// resurrected, no operator intervention needed.
    Dead,
}

/// Per-member record: liveness state plus the highest incarnation observed.
#[derive(Debug, Clone, Copy)]
pub struct PeerRecord {
    /// Current liveness verdict.
    pub state: PeerState,
    /// Highest incarnation number observed for this member.  Refutations
    /// carry a higher incarnation than the suspicion they cancel.
    pub incarnation: u64,
}

/// What one detector tick decided: the probes to send and the state
/// transitions to disseminate.  The broker turns this into wire traffic
/// *after* releasing the detector lock.
#[derive(Debug, Default, Clone)]
pub struct TickPlan {
    /// Member to direct-probe this tick (`SwimPing`).
    pub probe: Option<PeerId>,
    /// Indirect probes for a timed-out direct probe: `(relay, target)` pairs
    /// to send as `SwimPingReq`.
    pub indirect: Vec<(PeerId, PeerId)>,
    /// Members newly marked `Suspect` this tick, with the incarnation the
    /// suspicion accuses (gossiped as `swim-suspect`).
    pub new_suspects: Vec<(PeerId, u64)>,
    /// Members whose suspicion deadline expired unrefuted this tick, with
    /// the dead incarnation (gossiped as `swim-dead`).
    pub new_dead: Vec<(PeerId, u64)>,
}

/// Outcome of feeding a suspicion into the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuspectOutcome {
    /// Stale (older incarnation) or unknown member: nothing changed.
    Ignored,
    /// The member is now locally suspect.
    Suspected,
    /// The suspicion accuses *this* broker: it refutes by re-announcing the
    /// carried (higher) incarnation (gossiped as `swim-alive`).
    RefuteWith(u64),
}

/// Outcome of feeding an alive announcement (or direct liveness evidence)
/// into the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AliveOutcome {
    /// Stale or unknown: nothing changed.
    Ignored,
    /// Incarnation refreshed; the member was not under suspicion.
    Refreshed,
    /// A live suspicion (or death verdict) was cancelled — the member is
    /// alive after all.  The broker re-admits it to the membership view.
    Cleared,
}

/// Outcome of feeding a death verdict into the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadOutcome {
    /// Stale (a newer incarnation already cleared it) or unknown member.
    Ignored,
    /// The member is now locally confirmed dead; the broker evicts it from
    /// the membership view and the Plumtree edges.
    Confirmed,
    /// The verdict accuses *this* broker: refute with the carried
    /// incarnation bumped past the accusation.
    RefuteWith(u64),
}

/// An outstanding direct probe.
#[derive(Debug, Clone, Copy)]
struct Probe {
    target: PeerId,
    sent_at: u64,
    indirect_launched: bool,
}

/// The per-broker SWIM failure detector.  Pure state machine: ticks come
/// from the repair cadence, events from the wire handlers; outputs are
/// [`TickPlan`]s and outcome enums the broker turns into traffic.
#[derive(Debug)]
pub struct SwimDetector {
    own: PeerId,
    /// This broker's own incarnation, bumped to refute suspicions about it.
    incarnation: u64,
    members: BTreeMap<PeerId, PeerRecord>,
    /// Probe rotation: every member (dead ones included — that is the
    /// resurrection path) in deterministically shuffled order.
    ring: Vec<PeerId>,
    cursor: usize,
    /// SplitMix64 stream for the probe order and relay picks, seeded from
    /// the broker id (as [`crate::membership::PartialView`]'s is).
    rng: SplitMix64,
    tick: u64,
    /// Lifeguard local-health multiplier (≥ 1): all timeouts stretch by it.
    health: u64,
    outstanding: Option<Probe>,
    suspect_ticks: u64,
    indirect_probes: usize,
}

impl SwimDetector {
    /// Creates a detector for the broker `own` with the default timeouts.
    pub fn new(own: PeerId) -> Self {
        SwimDetector {
            own,
            incarnation: 0,
            members: BTreeMap::new(),
            ring: Vec::new(),
            cursor: 0,
            rng: SplitMix64::new(mix(fnv1a(FNV_OFFSET, own.as_bytes()))),
            tick: 0,
            health: 1,
            outstanding: None,
            suspect_ticks: DEFAULT_SUSPECT_TICKS,
            indirect_probes: DEFAULT_INDIRECT_PROBES,
        }
    }

    /// This broker's current incarnation.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// The current local-health multiplier.
    pub fn health(&self) -> u64 {
        self.health
    }

    /// Sets the Lifeguard multiplier from the broker's own inbox lag:
    /// `1 + backlog / threshold`, capped at [`MAX_HEALTH`].  A backlogged
    /// broker stretches its timeouts instead of accusing healthy peers.
    pub fn set_backlog(&mut self, backlog: u64, threshold: u64) {
        let threshold = threshold.max(1);
        self.health = (1 + backlog / threshold).min(MAX_HEALTH);
    }

    /// The record for `peer`, if it is a tracked member.
    pub fn record(&self, peer: &PeerId) -> Option<PeerRecord> {
        self.members.get(peer).copied()
    }

    /// Members currently confirmed dead.
    pub fn dead_members(&self) -> Vec<PeerId> {
        self.members
            .iter()
            .filter(|(_, r)| r.state == PeerState::Dead)
            .map(|(p, _)| *p)
            .collect()
    }

    /// Reconciles the tracked member set with the admission set: newly
    /// admitted brokers start `Alive`, removed ones are forgotten.  The
    /// probe ring is rebuilt lazily at its next wrap.
    pub fn sync_members(&mut self, peers: &[PeerId]) {
        let mut changed = false;
        for peer in peers {
            if *peer == self.own {
                continue;
            }
            self.members.entry(*peer).or_insert_with(|| {
                changed = true;
                PeerRecord {
                    state: PeerState::Alive,
                    incarnation: 0,
                }
            });
        }
        let before = self.members.len();
        self.members
            .retain(|peer, _| peers.contains(peer) && *peer != self.own);
        if changed || self.members.len() != before {
            self.ring.clear();
            self.cursor = 0;
        }
    }

    /// Rebuilds and reshuffles the probe ring (deterministic Fisher–Yates).
    fn reshuffle_ring(&mut self) {
        self.ring = self.members.keys().copied().collect();
        for i in (1..self.ring.len()).rev() {
            let j = (self.rng.next() % (i as u64 + 1)) as usize;
            self.ring.swap(i, j);
        }
        self.cursor = 0;
    }

    /// One failure-detection tick, advancing timers and choosing the next
    /// probe.  The caller (the broker repair cadence) turns the returned
    /// plan into wire traffic after releasing the detector lock.
    pub fn tick(&mut self) -> TickPlan {
        self.tick += 1;
        let mut plan = TickPlan::default();

        // Timers of the outstanding probe: after `health` ticks without an
        // ack fan out the indirect probes; after `2 * health` give up and
        // mark the target suspect.
        if let Some(probe) = self.outstanding {
            let elapsed = self.tick.saturating_sub(probe.sent_at);
            if elapsed >= 2 * self.health {
                self.outstanding = None;
                if let Some(record) = self.members.get_mut(&probe.target) {
                    if record.state == PeerState::Alive {
                        record.state = PeerState::Suspect {
                            deadline: self.tick + self.suspect_ticks * self.health,
                        };
                        plan.new_suspects.push((probe.target, record.incarnation));
                    }
                }
            } else if elapsed >= self.health && !probe.indirect_launched {
                if let Some(slot) = self.outstanding.as_mut() {
                    slot.indirect_launched = true;
                }
                let mut relays: Vec<PeerId> = self
                    .members
                    .iter()
                    .filter(|(peer, record)| {
                        **peer != probe.target && record.state == PeerState::Alive
                    })
                    .map(|(peer, _)| *peer)
                    .collect();
                for _ in 0..self.indirect_probes.min(relays.len()) {
                    let at = (self.rng.next() % relays.len() as u64) as usize;
                    plan.indirect.push((relays.swap_remove(at), probe.target));
                }
            }
        }

        // Expire unrefuted suspicions.
        let now = self.tick;
        for (peer, record) in self.members.iter_mut() {
            if let PeerState::Suspect { deadline } = record.state {
                if now >= deadline {
                    record.state = PeerState::Dead;
                    plan.new_dead.push((*peer, record.incarnation));
                }
            }
        }

        // Choose the next direct probe (one outstanding at a time).
        if self.outstanding.is_none() && !self.members.is_empty() {
            if self.cursor >= self.ring.len() {
                self.reshuffle_ring();
            }
            if let Some(target) = self.ring.get(self.cursor).copied() {
                self.cursor += 1;
                if self.members.contains_key(&target) {
                    self.outstanding = Some(Probe {
                        target,
                        sent_at: self.tick,
                        indirect_launched: false,
                    });
                    plan.probe = Some(target);
                }
            }
        }
        plan
    }

    /// An ack (direct or relayed) arrived from `peer` carrying its
    /// incarnation: direct evidence of life.  Clears the outstanding probe,
    /// cancels any suspicion and resurrects a dead record.
    pub fn on_ack(&mut self, peer: PeerId, incarnation: u64) -> AliveOutcome {
        if self.outstanding.is_some_and(|p| p.target == peer) {
            self.outstanding = None;
        }
        self.on_contact(peer, incarnation)
    }

    /// Any direct contact with `peer` (an ack, a ping from it, a shuffle
    /// carrying its incarnation): first-hand evidence it is alive, which
    /// overrides gossip verdicts regardless of incarnation ordering.
    pub fn on_contact(&mut self, peer: PeerId, incarnation: u64) -> AliveOutcome {
        let Some(record) = self.members.get_mut(&peer) else {
            return AliveOutcome::Ignored;
        };
        record.incarnation = record.incarnation.max(incarnation);
        match record.state {
            PeerState::Alive => AliveOutcome::Refreshed,
            PeerState::Suspect { .. } | PeerState::Dead => {
                record.state = PeerState::Alive;
                AliveOutcome::Cleared
            }
        }
    }

    /// A gossiped suspicion about `peer` at `incarnation`.  Second-hand:
    /// only honoured when the accused incarnation is current, and always
    /// refuted when the accused is this broker itself — in range and above
    /// even a forged accusation (the crate's wire-counter rule).
    pub fn on_suspect(&mut self, peer: PeerId, incarnation: u64) -> SuspectOutcome {
        if peer == self.own {
            // Refute: adopt an incarnation strictly above the accusation.
            self.incarnation = counter::above(self.incarnation, incarnation);
            return SuspectOutcome::RefuteWith(self.incarnation);
        }
        let deadline = self.tick + self.suspect_ticks * self.health;
        let Some(record) = self.members.get_mut(&peer) else {
            return SuspectOutcome::Ignored;
        };
        let incarnation = counter::credit(incarnation, record.incarnation);
        if incarnation < record.incarnation {
            return SuspectOutcome::Ignored; // refuted already
        }
        record.incarnation = incarnation;
        match record.state {
            PeerState::Alive => {
                record.state = PeerState::Suspect { deadline };
                SuspectOutcome::Suspected
            }
            PeerState::Suspect { .. } | PeerState::Dead => SuspectOutcome::Ignored,
        }
    }

    /// A gossiped alive announcement (a refutation) for `peer` at
    /// `incarnation`.  Cancels suspicions and death verdicts of any older
    /// incarnation.
    pub fn on_alive(&mut self, peer: PeerId, incarnation: u64) -> AliveOutcome {
        if peer == self.own {
            self.incarnation = counter::merge(self.incarnation, incarnation);
            return AliveOutcome::Ignored;
        }
        let Some(record) = self.members.get_mut(&peer) else {
            return AliveOutcome::Ignored;
        };
        match record.state {
            PeerState::Alive => {
                if incarnation > record.incarnation {
                    record.incarnation = incarnation;
                }
                AliveOutcome::Refreshed
            }
            PeerState::Suspect { .. } | PeerState::Dead => {
                // A refutation must order strictly above the accusation.
                if incarnation > record.incarnation {
                    record.incarnation = incarnation;
                    record.state = PeerState::Alive;
                    AliveOutcome::Cleared
                } else {
                    AliveOutcome::Ignored
                }
            }
        }
    }

    /// A gossiped death verdict for `peer` at `incarnation` (credited and
    /// refuted like [`SwimDetector::on_suspect`]'s suspicion).
    pub fn on_dead(&mut self, peer: PeerId, incarnation: u64) -> DeadOutcome {
        if peer == self.own {
            self.incarnation = counter::above(self.incarnation, incarnation);
            return DeadOutcome::RefuteWith(self.incarnation);
        }
        let Some(record) = self.members.get_mut(&peer) else {
            return DeadOutcome::Ignored;
        };
        if record.state == PeerState::Dead {
            return DeadOutcome::Ignored;
        }
        let incarnation = counter::credit(incarnation, record.incarnation);
        // A death verdict outranks alive/suspect of any incarnation it has
        // seen; only a strictly newer alive announcement resurrects.
        if incarnation < record.incarnation && record.state == PeerState::Alive {
            return DeadOutcome::Ignored; // refuted since the verdict formed
        }
        record.incarnation = record.incarnation.max(incarnation);
        record.state = PeerState::Dead;
        DeadOutcome::Confirmed
    }

    /// Marks `peer` dead directly (the local deadline expiry path funnels
    /// through [`SwimDetector::tick`]; this is for applying an authoritative
    /// external verdict in tests).
    #[cfg(test)]
    fn force_dead(&mut self, peer: PeerId) {
        if let Some(record) = self.members.get_mut(&peer) {
            record.state = PeerState::Dead;
        }
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

    fn detector(n: usize, seed: u64) -> (SwimDetector, Vec<PeerId>) {
        let ids = peers(n, seed);
        let mut swim = SwimDetector::new(ids[0]);
        swim.sync_members(&ids);
        (swim, ids)
    }

    #[test]
    fn silent_member_goes_suspect_then_dead_within_budget() {
        let (mut swim, ids) = detector(4, 0x51);
        let mut suspected = Vec::new();
        let mut dead = Vec::new();
        for _ in 0..PROBE_BUDGET_TICKS * ids.len() as u64 {
            let plan = swim.tick();
            suspected.extend(plan.new_suspects.iter().map(|(p, _)| *p));
            dead.extend(plan.new_dead.iter().map(|(p, _)| *p));
        }
        // Nobody ever acks: every member must pass through suspicion into
        // a death verdict.
        for id in &ids[1..] {
            assert!(suspected.contains(id), "never suspected: {id:?}");
            assert!(dead.contains(id), "never declared dead: {id:?}");
            assert_eq!(swim.record(id).unwrap().state, PeerState::Dead);
        }
        // And a single member's death arrives within the probe budget.
        let (mut fresh, _) = detector(2, 0x52);
        let mut confirmed_at = None;
        for t in 1..=PROBE_BUDGET_TICKS {
            if !fresh.tick().new_dead.is_empty() {
                confirmed_at = Some(t);
                break;
            }
        }
        assert!(
            confirmed_at.is_some(),
            "a 1-member ring must confirm death within {PROBE_BUDGET_TICKS} ticks"
        );
    }

    #[test]
    fn acked_probe_stays_alive() {
        let (mut swim, ids) = detector(3, 0x53);
        for _ in 0..32 {
            let plan = swim.tick();
            if let Some(target) = plan.probe {
                assert!(ids[1..].contains(&target));
                swim.on_ack(target, 0);
            }
            assert!(plan.new_suspects.is_empty());
            assert!(plan.new_dead.is_empty());
        }
        for id in &ids[1..] {
            assert_eq!(swim.record(id).unwrap().state, PeerState::Alive);
        }
    }

    #[test]
    fn indirect_probes_fan_out_before_suspicion() {
        let (mut swim, _ids) = detector(5, 0x54);
        let mut saw_indirect = false;
        for _ in 0..8 {
            let plan = swim.tick();
            for (relay, target) in &plan.indirect {
                saw_indirect = true;
                assert_ne!(relay, target, "a relay never probes through the target");
                assert_ne!(*relay, swim.own, "the prober itself is not a relay");
            }
            if !plan.new_suspects.is_empty() {
                assert!(
                    saw_indirect,
                    "suspicion must be preceded by an indirect-probe round"
                );
                return;
            }
        }
        panic!("no suspicion formed in 8 silent ticks");
    }

    #[test]
    fn own_suspicion_is_refuted_with_higher_incarnation() {
        let (mut swim, ids) = detector(3, 0x55);
        assert_eq!(swim.incarnation(), 0);
        match swim.on_suspect(ids[0], 4) {
            SuspectOutcome::RefuteWith(incarnation) => {
                assert!(incarnation > 4, "refutation must outrank the accusation");
                assert_eq!(swim.incarnation(), incarnation);
            }
            other => panic!("own suspicion must refute, got {other:?}"),
        }
        match swim.on_dead(ids[0], 9) {
            DeadOutcome::RefuteWith(incarnation) => assert!(incarnation > 9),
            other => panic!("own death verdict must refute, got {other:?}"),
        }
    }

    /// Accusations forged at the top of the accepted range (2^63 − 1): each
    /// refutation stays in range and clears the forged verdict at a detector
    /// that took it, round after round.
    #[test]
    fn forged_counter_accusation_is_outranked_by_its_refutation() {
        let (mut accused, ids) = detector(3, 0x57);
        let mut witness = SwimDetector::new(ids[1]);
        witness.sync_members(&ids);
        let forged = (1 << 63) - 1;
        for round in 1..=3u64 {
            let refutation = if round % 2 == 0 {
                witness.on_dead(ids[0], forged);
                match accused.on_dead(ids[0], forged) {
                    DeadOutcome::RefuteWith(incarnation) => incarnation,
                    other => panic!("own death verdict must refute, got {other:?}"),
                }
            } else {
                assert_eq!(witness.on_suspect(ids[0], forged), SuspectOutcome::Suspected);
                match accused.on_suspect(ids[0], forged) {
                    SuspectOutcome::RefuteWith(incarnation) => incarnation,
                    other => panic!("own suspicion must refute, got {other:?}"),
                }
            };
            assert_eq!(refutation, (1 << 62) + round);
            assert_eq!(witness.on_alive(ids[0], refutation), AliveOutcome::Cleared);
            assert_eq!(witness.record(&ids[0]).unwrap().state, PeerState::Alive);
        }
        // A forged alive announcement moves this broker's incarnation to at
        // most 2^62, so its next refutation is in range too.
        let (mut accused, ids) = detector(3, 0x58);
        accused.on_alive(ids[0], forged);
        assert_eq!(accused.on_suspect(ids[0], forged), SuspectOutcome::RefuteWith((1 << 62) + 1));
    }

    #[test]
    fn refutation_clears_suspicion_only_with_newer_incarnation() {
        let (mut swim, ids) = detector(3, 0x56);
        assert_eq!(swim.on_suspect(ids[1], 0), SuspectOutcome::Suspected);
        // Same incarnation: not a refutation.
        assert_eq!(swim.on_alive(ids[1], 0), AliveOutcome::Ignored);
        assert!(matches!(
            swim.record(&ids[1]).unwrap().state,
            PeerState::Suspect { .. }
        ));
        // Higher incarnation: cancelled.
        assert_eq!(swim.on_alive(ids[1], 1), AliveOutcome::Cleared);
        assert_eq!(swim.record(&ids[1]).unwrap().state, PeerState::Alive);
        // A suspicion at the stale incarnation is now ignored.
        assert_eq!(swim.on_suspect(ids[1], 0), SuspectOutcome::Ignored);
    }

    #[test]
    fn direct_contact_resurrects_the_dead() {
        let (mut swim, ids) = detector(3, 0x57);
        swim.force_dead(ids[1]);
        assert_eq!(swim.dead_members(), vec![ids[1]]);
        assert_eq!(swim.on_contact(ids[1], 0), AliveOutcome::Cleared);
        assert_eq!(swim.record(&ids[1]).unwrap().state, PeerState::Alive);
        assert!(swim.dead_members().is_empty());
    }

    #[test]
    fn gossiped_death_is_confirmed_unless_refuted_since() {
        let (mut swim, ids) = detector(4, 0x58);
        assert_eq!(swim.on_dead(ids[1], 0), DeadOutcome::Confirmed);
        assert_eq!(swim.record(&ids[1]).unwrap().state, PeerState::Dead);
        assert_eq!(swim.on_dead(ids[1], 0), DeadOutcome::Ignored);
        // A refutation that arrived before the verdict wins over a stale one.
        assert_eq!(swim.on_alive(ids[2], 5), AliveOutcome::Refreshed);
        assert_eq!(swim.on_dead(ids[2], 3), DeadOutcome::Ignored);
        assert_eq!(swim.record(&ids[2]).unwrap().state, PeerState::Alive);
        // Resurrection needs a strictly newer incarnation than the verdict.
        assert_eq!(swim.on_alive(ids[1], 0), AliveOutcome::Ignored);
        assert_eq!(swim.on_alive(ids[1], 1), AliveOutcome::Cleared);
    }

    #[test]
    fn backlog_stretches_timeouts() {
        let ids = peers(2, 0x59);
        let mut slow = SwimDetector::new(ids[0]);
        slow.sync_members(&ids);
        slow.set_backlog(300, 100);
        assert_eq!(slow.health(), 4);
        let mut fast = SwimDetector::new(ids[0]);
        fast.sync_members(&ids);
        assert_eq!(fast.health(), 1);

        let ticks_until_dead = |swim: &mut SwimDetector| -> u64 {
            for t in 1..=200 {
                if !swim.tick().new_dead.is_empty() {
                    return t;
                }
            }
            panic!("no death verdict in 200 ticks");
        };
        let fast_ticks = ticks_until_dead(&mut fast);
        let slow_ticks = ticks_until_dead(&mut slow);
        assert!(
            slow_ticks >= 3 * fast_ticks,
            "health 4 must stretch detection well past health 1 ({slow_ticks} vs {fast_ticks})"
        );
        // The multiplier is capped.
        slow.set_backlog(u64::MAX - 1, 1);
        assert_eq!(slow.health(), MAX_HEALTH);
    }

    #[test]
    fn probe_ring_rotates_over_every_member() {
        let (mut swim, ids) = detector(6, 0x5A);
        let mut probed = std::collections::BTreeSet::new();
        for _ in 0..ids.len() * 2 {
            if let Some(target) = swim.tick().probe {
                probed.insert(target);
                swim.on_ack(target, 0); // keep the rotation moving
            }
        }
        assert_eq!(probed.len(), ids.len() - 1, "every member probed in rotation");
    }

    #[test]
    fn sync_members_adds_and_forgets() {
        let ids = peers(4, 0x5B);
        let mut swim = SwimDetector::new(ids[0]);
        swim.sync_members(&ids[..3]);
        assert!(swim.record(&ids[1]).is_some());
        assert!(swim.record(&ids[3]).is_none());
        swim.sync_members(&[ids[0], ids[3]]);
        assert!(swim.record(&ids[1]).is_none(), "departed members are forgotten");
        assert!(swim.record(&ids[3]).is_some());
        assert!(swim.record(&ids[0]).is_none(), "a broker never tracks itself");
    }
}
