//! Invariants of the broker's backbone fabric, driven only through the
//! public `Broker` surface.
//!
//! The fabric keeps several structures derived from the admitted peer set:
//! the HyParView active view, the Plumtree eager/lazy edge sets over it, the
//! SWIM member set, and the per-destination gossip and `IHave` queues.  A
//! seeded proptest admits and removes fake peer brokers, feeds the subject
//! broker Plumtree `Prune`/`Graft`/`IHave`, SWIM acks and `swim-dead` gossip
//! from them, logs clients in and out (broadcast gossip that fills the
//! queues), and ticks the repair cadence while the fake peers stay silent
//! (so probes time out into suspicions and deaths).  After every step it
//! requires:
//!
//! * the Plumtree edges partition the active view: `eager ∪ lazy == active`
//!   and `eager ∩ lazy == ∅`;
//! * SWIM tracks exactly the admitted peers;
//! * once the gossip queues are flushed, nothing reaches a removed peer.

use jxta_crypto::drbg::HmacDrbg;
use jxta_overlay::broker::{Broker, BrokerConfig};
use jxta_overlay::net::{LinkModel, NetMessage, SimNetwork};
use jxta_overlay::{GroupId, Message, MessageKind, PeerId, UserDatabase};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// Fake peer brokers in the pool (more than the active view holds, so the
/// epidemic fabric engages and the passive view takes part).
const PEERS: usize = 6;
/// Clients that log in and out at the subject broker.
const CLIENTS: usize = 3;

/// One step of the workload.
#[derive(Debug, Clone)]
enum Step {
    Admit(usize),
    Remove(usize),
    Prune(usize),
    Graft(usize, u64),
    IHave(usize, u64),
    SwimAck(usize, u64),
    /// `swim-dead` gossip from the first peer about the second (`PEERS`
    /// names the subject broker itself).
    SwimDead(usize, usize),
    Login(usize),
    Logout(usize),
    Tick,
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..10, 0usize..PEERS, 0usize..=PEERS, 0u64..4).prop_map(|(kind, a, b, n)| match kind {
        0 => Step::Admit(a),
        1 => Step::Remove(a),
        2 => Step::Prune(a),
        3 => Step::Graft(a, n),
        4 => Step::IHave(a, n),
        5 => Step::SwimAck(a, n),
        6 => Step::SwimDead(a, b),
        7 => Step::Login(a % CLIENTS),
        8 => Step::Logout(a % CLIENTS),
        _ => Step::Tick,
    })
}

/// The subject broker, its fake peers (with inboxes) and their clocks.
struct World {
    broker: Arc<Broker>,
    peers: Vec<PeerId>,
    /// Drains one fake peer's inbox, returning how many messages it held.
    drains: Vec<Box<dyn Fn() -> usize>>,
    clients: Vec<PeerId>,
    /// Next transport sequence number per fake peer.
    seq: Vec<u64>,
    /// Next gossip-event version (shared by the fake peers).
    version: u64,
    removed: BTreeSet<usize>,
}

impl World {
    fn new() -> Self {
        let mut rng = HmacDrbg::from_seed_u64(0xFAB1);
        let network = SimNetwork::new(LinkModel::ideal());
        let database = Arc::new(UserDatabase::new());
        let mut clients = Vec::new();
        for i in 0..CLIENTS {
            let name = format!("user-{i}");
            database.register_user(&mut rng, &name, "pw", &[GroupId::new("math")]);
            clients.push(PeerId::random(&mut rng));
        }
        let broker = Broker::new(
            PeerId::random(&mut rng),
            BrokerConfig::named("subject").with_view_capacities(2, 3),
            Arc::clone(&network),
            database,
        );
        let peers: Vec<PeerId> = (0..PEERS).map(|_| PeerId::random(&mut rng)).collect();
        let drains = peers
            .iter()
            .map(|peer| {
                let inbox = network.register(*peer);
                Box::new(move || inbox.try_iter().count()) as Box<dyn Fn() -> usize>
            })
            .collect();
        World {
            broker,
            peers,
            drains,
            clients,
            seq: vec![0; PEERS],
            version: 0,
            removed: BTreeSet::new(),
        }
    }

    /// Delivers `message` from fake peer `i` over its own link, stamped with
    /// its next transport sequence number.
    fn deliver(&mut self, i: usize, message: Message) {
        self.seq[i] += 1;
        let message = message.with_str("seq", &self.seq[i].to_string());
        self.broker.process_net(NetMessage {
            from: self.peers[i],
            to: self.broker.id(),
            payload: message.to_bytes(),
            wire_time: Duration::ZERO,
        });
    }

    fn apply(&mut self, step: &Step) {
        let broker = Arc::clone(&self.broker);
        match *step {
            Step::Admit(i) => {
                broker.add_peer_broker(self.peers[i]);
                self.removed.remove(&i);
            }
            Step::Remove(i) => {
                broker.remove_peer_broker(&self.peers[i]);
                // Traffic sent before the removal is legitimate.
                (self.drains[i])();
                self.removed.insert(i);
            }
            Step::Prune(i) => {
                let prune = Message::new(MessageKind::PlumtreePrune, self.peers[i], 0);
                self.deliver(i, prune);
            }
            Step::Graft(i, n) => {
                let graft = Message::new(MessageKind::PlumtreeGraft, self.peers[i], 0)
                    .with_str("count", "1")
                    .with_str("g0-origin", &broker.id().to_urn())
                    .with_str("g0-seq", &(n + 1).to_string());
                self.deliver(i, graft);
            }
            Step::IHave(i, n) => {
                self.version += 1;
                let ihave = Message::new(MessageKind::PlumtreeIHave, self.peers[i], 0)
                    .with_str("count", "1")
                    .with_str("g0-origin", &self.peers[(i + n as usize) % PEERS].to_urn())
                    .with_str("g0-seq", &self.version.to_string());
                self.deliver(i, ihave);
            }
            Step::SwimAck(i, n) => {
                let ack = Message::new(MessageKind::SwimAck, self.peers[i], 0)
                    .with_str("inc", &n.to_string());
                self.deliver(i, ack);
            }
            Step::SwimDead(i, about) => {
                self.version += 1;
                let accused = if about == PEERS { broker.id() } else { self.peers[about] };
                let dead = Message::new(MessageKind::BrokerSync, self.peers[i], 0)
                    .with_str("count", "1")
                    .with_str("e0-op", "swim-dead")
                    .with_str("e0-seq", &self.version.to_string())
                    .with_str("e0-peer", &accused.to_urn())
                    .with_str("e0-sinc", "0");
                self.deliver(i, dead);
            }
            Step::Login(c) => {
                broker.mark_connected(self.clients[c]);
                broker.establish_session(self.clients[c], &format!("user-{c}"));
            }
            Step::Logout(c) => broker.drop_session(&self.clients[c]),
            Step::Tick => broker.start_repair_round(),
        }
    }

    fn check(&self) -> Result<(), TestCaseError> {
        let broker = &self.broker;
        let active: BTreeSet<PeerId> = broker.active_view().into_iter().collect();
        let eager: BTreeSet<PeerId> = broker.epidemic_eager_peers().into_iter().collect();
        let lazy: BTreeSet<PeerId> = broker.epidemic_lazy_peers().into_iter().collect();
        prop_assert!(eager.is_disjoint(&lazy), "eager {:?} and lazy {:?} overlap", eager, lazy);
        let edges: BTreeSet<PeerId> = eager.union(&lazy).copied().collect();
        prop_assert_eq!(edges, active, "Plumtree edges must cover the active view exactly");
        for peer in &self.peers {
            prop_assert_eq!(
                broker.swim_record(peer).is_some(),
                broker.is_peer_broker(peer),
                "SWIM must track exactly the admitted peers"
            );
        }
        // Payload gossip flushes here; `IHave`s keep queueing until the
        // next repair tick, as they do in service.
        broker.flush_gossip();
        for &i in &self.removed {
            prop_assert_eq!((self.drains[i])(), 0, "a removed peer received backbone traffic");
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fabric_invariants_hold_under_churn_and_tree_repair(
        steps in proptest::collection::vec(step(), 1..60),
    ) {
        let mut world = World::new();
        for i in 0..4 {
            world.apply(&Step::Admit(i));
        }
        world.check()?;
        for step in &steps {
            world.apply(step);
            world.check()?;
        }
        world.broker.flush_ihaves();
        world.check()?;
    }
}
