//! Invariants of the broker's backbone fabric, driven only through the
//! public `Broker` surface.
//!
//! The fabric keeps several structures derived from the admitted peer set:
//! the symmetric active view, the Plumtree eager/lazy edge sets over it, the
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
//!
//! Two multi-origin runs over 32 default-view brokers then check the eager
//! tree itself: every broker publishes in turn, with a repair tick every 8
//! publishes.  Without loss every publish reaches every broker
//! through its own eager wave, and after every tick the eager edges are
//! mutual and span the federation.  Under seeded 2% loss the eager graph
//! still spans the federation after every tick, and a publish's own wave
//! reaches at least 80% of the brokers on average.
//!
//! Anti-entropy rides beneath that tree.  An observing adversary counts
//! digests: once the fabric is engaged each broker digests one view member
//! per repair round, walking its whole view in `|view|` rounds; below
//! engagement it digests every peer every round.  A broker starved of all
//! dissemination traffic still heals in one round, because its own digest
//! always starts a descent with the peer it reaches.

use jxta_crypto::drbg::HmacDrbg;
use jxta_overlay::broker::{Broker, BrokerConfig};
use jxta_overlay::federation::InlineFederation;
use jxta_overlay::net::{Adversary, LinkModel, NetMessage, RandomDrop, SimNetwork, Verdict};
use jxta_overlay::record::{encode, sync_message, GossipBody, GossipEvent, SwimVerdict};
use jxta_overlay::{GroupId, Message, MessageKind, PeerId, UserDatabase};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// Fake peer brokers in the pool (more than the active view holds, so the
/// epidemic fabric engages).
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
            BrokerConfig::named("subject").with_view_capacities(2),
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
                    .with_element("ids", encode(&[(broker.id(), n + 1)]));
                self.deliver(i, graft);
            }
            Step::IHave(i, n) => {
                self.version += 1;
                let origin = self.peers[(i + n as usize) % PEERS];
                let ihave = Message::new(MessageKind::PlumtreeIHave, self.peers[i], 0)
                    .with_element("ids", encode(&[(origin, self.version)]));
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
                let body = GossipBody::Verdict(SwimVerdict::Dead, accused, 0);
                let event = GossipEvent {
                    seq: self.version,
                    origin: self.peers[i],
                    broadcast: false,
                    repair: false,
                    body,
                };
                self.deliver(i, sync_message(self.peers[i], &[event]));
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

/// Brokers in the multi-origin federations: four default active views, so
/// the epidemic fabric is engaged and every view is partial.
const BACKBONE: usize = 32;
/// Publishes between two repair ticks.
const TICK_EVERY: usize = 8;

/// A `BACKBONE`-broker federation with default views.
fn backbone(seed: u64) -> (Arc<SimNetwork>, InlineFederation) {
    let (network, federation) = federation_of(BACKBONE, seed);
    assert!(federation.broker(0).epidemic_engaged());
    (network, federation)
}

/// A federation of `brokers` default-view brokers.
fn federation_of(brokers: usize, seed: u64) -> (Arc<SimNetwork>, InlineFederation) {
    let mut rng = HmacDrbg::from_seed_u64(seed);
    let network = SimNetwork::new(LinkModel::ideal());
    let database = Arc::new(UserDatabase::new());
    let brokers = (0..brokers)
        .map(|i| {
            Broker::new(
                PeerId::random(&mut rng),
                BrokerConfig::named(format!("b{i}")),
                Arc::clone(&network),
                Arc::clone(&database),
            )
        })
        .collect();
    (network, InlineFederation::new(brokers))
}

/// Publishes `publishes` advertisements with origins taken round-robin,
/// pumping each one and running a repair tick every `TICK_EVERY`
/// publishes, after which `after_tick` checks the federation.  Returns, per
/// publish, how many brokers resolve it once its own pump has drained.
fn publish_round_robin(
    federation: &InlineFederation,
    publishes: usize,
    seed: u64,
    mut after_tick: impl FnMut(&InlineFederation),
) -> Vec<usize> {
    let mut rng = HmacDrbg::from_seed_u64(seed);
    let group = GroupId::new("backbone");
    let mut reached = Vec::with_capacity(publishes);
    for i in 0..publishes {
        let owner = PeerId::random(&mut rng);
        federation.broker(i % BACKBONE).index_and_distribute(
            owner,
            &group,
            "jxta:PipeAdvertisement",
            &format!("<adv n=\"{i}\"/>"),
        );
        federation.pump();
        reached.push(
            (0..BACKBONE)
                .filter(|&b| {
                    !federation
                        .broker(b)
                        .lookup(&group, "jxta:PipeAdvertisement", Some(owner))
                        .is_empty()
                })
                .count(),
        );
        if (i + 1) % TICK_EVERY == 0 {
            federation.repair();
            after_tick(federation);
        }
    }
    reached
}

/// The Plumtree eager edges of every broker of `federation`, by index.
fn eager_edges(federation: &InlineFederation) -> Vec<BTreeSet<usize>> {
    let ids: Vec<PeerId> = (0..federation.len()).map(|i| federation.broker(i).id()).collect();
    let index = |id: &PeerId| ids.iter().position(|other| other == id).expect("a federation id");
    (0..federation.len())
        .map(|i| federation.broker(i).epidemic_eager_peers().iter().map(index).collect())
        .collect()
}

/// Eager edges whose far end does not hold them eager in return.
fn one_way_edges(eager: &[BTreeSet<usize>]) -> Vec<(usize, usize)> {
    let mut one_way = Vec::new();
    for (i, edges) in eager.iter().enumerate() {
        one_way.extend(edges.iter().filter(|&&j| !eager[j].contains(&i)).map(|&j| (i, j)));
    }
    one_way
}

/// Whether the eager edges, taken as undirected, connect every broker.
fn spans(eager: &[BTreeSet<usize>]) -> bool {
    let mut undirected = eager.to_vec();
    for (i, edges) in eager.iter().enumerate() {
        for &j in edges {
            undirected[j].insert(i);
        }
    }
    let mut seen = BTreeSet::from([0usize]);
    let mut queue = vec![0usize];
    while let Some(at) = queue.pop() {
        for &next in &undirected[at] {
            if seen.insert(next) {
                queue.push(next);
            }
        }
    }
    seen.len() == eager.len()
}

#[test]
fn every_origin_reaches_every_broker_through_its_own_eager_wave() {
    let (_network, federation) = backbone(0x0516_0001);
    let reached = publish_round_robin(&federation, 2 * BACKBONE, 0x0516_0002, |federation| {
        let eager = eager_edges(federation);
        assert_eq!(one_way_edges(&eager), vec![], "lossless prunes and grafts keep edges mutual");
        assert!(spans(&eager), "the eager graph must span the federation");
    });
    for (i, count) in reached.iter().enumerate() {
        assert_eq!(
            *count,
            BACKBONE,
            "publish {i} (origin {}) reached {count} brokers",
            i % BACKBONE
        );
    }
}

/// Under loss a dropped `Prune` or `Graft` can leave one eager edge one-way
/// until the next push over it, so this run asserts the spanning eager
/// graph and the coverage it buys; mutuality is asserted above.
#[test]
fn lossy_multi_origin_keeps_the_eager_graph_spanning_and_covering() {
    let (network, federation) = backbone(0x0516_0003);
    network.set_adversary(RandomDrop::new(0x0516_0004, 2));
    let reached = publish_round_robin(&federation, 4 * BACKBONE, 0x0516_0005, |federation| {
        assert!(spans(&eager_edges(federation)), "the eager graph must span the federation");
    });
    let coverage = reached.iter().map(|&count| count as f64 / BACKBONE as f64).sum::<f64>()
        / reached.len() as f64;
    assert!(
        coverage >= 0.8,
        "a publish's own pump reached {coverage:.3} of the brokers on average"
    );
}

/// The message kind of a wire payload, if it decodes.
fn kind_of(message: &NetMessage) -> Option<MessageKind> {
    Message::from_bytes(&message.payload).ok().map(|m| m.kind)
}

/// Records every `AntiEntropyDigest` on the wire as `(sender, receiver)`.
struct DigestCounter {
    digests: Mutex<Vec<(PeerId, PeerId)>>,
}

impl DigestCounter {
    fn new() -> Arc<Self> {
        Arc::new(DigestCounter { digests: Mutex::with_class("test.digests", Vec::new()) })
    }

    /// The digests seen since the last call, as receivers per sender.
    fn take(&self) -> BTreeMap<PeerId, Vec<PeerId>> {
        let mut by_sender: BTreeMap<PeerId, Vec<PeerId>> = BTreeMap::new();
        for (from, to) in std::mem::take(&mut *self.digests.lock()) {
            by_sender.entry(from).or_default().push(to);
        }
        by_sender
    }
}

impl Adversary for DigestCounter {
    fn observe(&self, message: &NetMessage) {
        if kind_of(message) == Some(MessageKind::AntiEntropyDigest) {
            self.digests.lock().push((message.from, message.to));
        }
    }
}

#[test]
fn engaged_brokers_digest_one_view_member_per_round_in_rotation() {
    let (network, federation) = backbone(0x0516_0010);
    let counter = DigestCounter::new();
    network.set_adversary(counter.clone());
    let views: Vec<Vec<PeerId>> =
        (0..BACKBONE).map(|i| federation.broker(i).active_view()).collect();
    let rounds = views[0].len();
    assert!(views.iter().all(|view| view.len() == rounds), "default views are all full");

    let mut digested: Vec<Vec<PeerId>> = vec![Vec::new(); BACKBONE];
    for round in 0..rounds {
        federation.repair();
        let by_sender = counter.take();
        for (i, targets) in digested.iter_mut().enumerate() {
            let sent = by_sender.get(&federation.broker(i).id()).cloned().unwrap_or_default();
            assert_eq!(sent.len(), 1, "broker {i} sent {} digests in round {round}", sent.len());
            targets.extend(sent);
        }
    }
    for (i, mut targets) in digested.into_iter().enumerate() {
        assert_eq!(federation.broker(i).active_view(), views[i], "the view held still");
        targets.sort();
        assert_eq!(
            targets, views[i],
            "broker {i} digests each view member once in {rounds} rounds"
        );
    }
}

#[test]
fn brokers_below_engagement_digest_every_peer_every_round() {
    const SMALL: usize = 6;
    let (network, federation) = federation_of(SMALL, 0x0516_0011);
    assert!(!federation.broker(0).epidemic_engaged());
    let counter = DigestCounter::new();
    network.set_adversary(counter.clone());
    for round in 0..3 {
        federation.repair();
        let by_sender = counter.take();
        for i in 0..SMALL {
            let broker = federation.broker(i);
            let mut sent = by_sender.get(&broker.id()).cloned().unwrap_or_default();
            sent.sort();
            let mut peers = broker.peer_brokers();
            peers.sort();
            assert_eq!(sent, peers, "broker {i} digests every peer in round {round}");
        }
    }
}

/// Drops every payload push, `IHave` and `Graft` addressed to one broker.
struct Starve {
    victim: PeerId,
}

impl Adversary for Starve {
    fn intercept(&self, message: &NetMessage) -> Verdict {
        let dissemination = matches!(
            kind_of(message),
            Some(MessageKind::BrokerSync | MessageKind::PlumtreeIHave | MessageKind::PlumtreeGraft)
        );
        if message.to == self.victim && dissemination {
            Verdict::Drop
        } else {
            Verdict::Deliver
        }
    }
}

/// The starved broker learns nothing from Plumtree, so anti-entropy alone
/// must heal it.  Every other broker completes each publish through its
/// eager wave and one `IHave` flush, so whichever view member the starved
/// broker's own digest reaches holds everything; the pair always descends:
/// the member drives the descent, or, when it digested the starved broker
/// too and holds the higher id, the starved broker drives it on that digest.
#[test]
fn a_broker_starved_of_dissemination_heals_in_one_round() {
    let group = GroupId::new("backbone");
    for seed in 0..8u64 {
        let (network, federation) = backbone(0x0516_0020 + seed);
        let victim = (seed as usize * 5) % BACKBONE;
        network.set_adversary(Arc::new(Starve { victim: federation.broker(victim).id() }));
        let mut rng = HmacDrbg::from_seed_u64(0x0516_0030 + seed);
        let mut owners = Vec::new();
        for i in 0..24 {
            let owner = PeerId::random(&mut rng);
            federation.broker(i % BACKBONE).index_and_distribute(
                owner,
                &group,
                "jxta:PipeAdvertisement",
                &format!("<adv n=\"{i}\"/>"),
            );
            federation.pump();
            for b in 0..BACKBONE {
                federation.broker(b).flush_ihaves();
            }
            federation.pump();
            owners.push(owner);
        }
        for b in (0..BACKBONE).filter(|&b| b != victim) {
            let resolves = |owner: &PeerId| {
                !federation
                    .broker(b)
                    .lookup(&group, "jxta:PipeAdvertisement", Some(*owner))
                    .is_empty()
            };
            assert!(owners.iter().all(resolves), "seed {seed}: broker {b} missed a publish");
        }
        assert_eq!(
            federation.repair_until_converged(4),
            Some(1),
            "seed {seed}: the starved broker {victim} did not heal in one round"
        );
    }
}
