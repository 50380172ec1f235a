//! Integration tests of the staged broker ingress pipeline.
//!
//! The pipeline (`BrokerConfig::verify_workers`) splits ingress into an
//! ingress thread, a parallel decode/pre-verify pool, and a dispatcher that
//! restores exact arrival order through a ticket reorder buffer and then
//! routes each message into partitioned apply lanes: partition-local
//! messages (publishes, keyed by the `(group, owner)` shard key) apply in
//! parallel across lanes, partition-spanning messages apply under a
//! full-lane barrier.  Its contract is *observational equivalence* with the
//! classic single-thread loop: same message sequence in, same broker state
//! out — per-sender FIFO and the inter-broker replay protection included.
//! These tests pin that contract:
//!
//! * a proptest feeds the identical message sequence to an inline broker
//!   (direct `process_net`) and pipelined spawned brokers with 1, 2 and 8
//!   apply lanes, and requires bit-identical final state and federation
//!   counters from every lane count;
//! * a unit test checks the barrier ordering directly: a lookup (barrier)
//!   fired right behind a storm of publishes spread across lanes must
//!   observe every single one of them;
//! * a concurrency stress test runs many client threads against a pipelined
//!   2-broker federation with bounded inboxes and an adversarial lossy
//!   backbone, asserting no replay-protection trips, per-sender ordering of
//!   delivered messages, and post-repair convergence;
//! * an end-to-end check runs the full secure stack (signed publishes,
//!   verified-signature cache, secure messaging) on pipelined brokers.

use jxta_crypto::drbg::HmacDrbg;
use jxta_overlay::broker::{Broker, BrokerConfig};
use jxta_overlay::client::{ClientConfig, ClientEvent, ClientPeer};
use jxta_overlay::federation::BrokerNetwork;
use jxta_overlay::net::{LinkModel, NetMessage, RandomDrop, SimNetwork};
use jxta_overlay::record::{self, sync_message, GossipBody, GossipEvent};
use jxta_overlay::{GroupId, Message, MessageKind, PeerId, UserDatabase};
use proptest::prelude::*;
use std::sync::Arc;
use jxta_overlay::clock::Deadline;
use std::time::Duration;

/// One scripted ingress operation: `(kind selector, sender selector, a, b)`.
type Op = (u8, u8, u8, u8);

const SCRIPT_USERS: usize = 3;
const SCRIPT_GROUPS: [&str; 2] = ["math", "chem"];

/// Builds the raw network payload for one scripted op.  `clients` are the
/// scripted client identities and `fake_broker` a registered peer broker
/// whose `BrokerSync` traffic exercises the replay protection (stale and
/// duplicate sequence numbers included, by construction of `a % 8`).
fn script_message(
    op: Op,
    clients: &[PeerId],
    fake_broker: PeerId,
    owner: PeerId,
) -> (PeerId, Vec<u8>) {
    let (kind, sender, a, b) = op;
    let from = clients[sender as usize % clients.len()];
    let group = SCRIPT_GROUPS[a as usize % SCRIPT_GROUPS.len()];
    let user = sender as usize % SCRIPT_USERS;
    match kind % 6 {
        0 => (
            from,
            Message::new(MessageKind::ConnectRequest, from, u64::from(a)).to_bytes(),
        ),
        1 => {
            let password = if a % 2 == 0 { "pw" } else { "wrong" };
            (
                from,
                Message::new(MessageKind::LoginRequest, from, u64::from(a))
                    .with_str("username", &format!("user-{user}"))
                    .with_str("password", password)
                    .to_bytes(),
            )
        }
        2 => (
            from,
            Message::new(MessageKind::PublishAdvertisement, from, u64::from(a))
                .with_str("group", group)
                .with_str("doc-type", "jxta:PipeAdvertisement")
                .with_str("xml", &format!("<adv a=\"{a}\" b=\"{b}\"/>"))
                .to_bytes(),
        ),
        3 => (
            from,
            Message::new(MessageKind::LookupRequest, from, u64::from(a))
                .with_str("group", group)
                .with_str("doc-type", "jxta:PipeAdvertisement")
                .to_bytes(),
        ),
        4 => (from, vec![a, b, 0xde, 0xad]), // undecodable traffic
        _ => {
            // The event's version and the transport sequence are both
            // `a % 8`, so stale and duplicate ones occur.
            let seq = u64::from(a) % 8;
            let (doc_type, xml) = ("jxta:FileAdvertisement".to_string(), format!("<file b=\"{b}\"/>"));
            let publish = GossipBody::Publish(GroupId::new(group), owner, doc_type, xml);
            let event = GossipEvent { seq, origin: fake_broker, broadcast: false, repair: false, body: publish };
            (
                fake_broker,
                sync_message(fake_broker, &[event]).with_str("seq", &seq.to_string()).to_bytes(),
            )
        }
    }
}

fn script_world(seed: u64, config: BrokerConfig) -> (Arc<SimNetwork>, Arc<Broker>, Vec<PeerId>, PeerId, PeerId) {
    let mut rng = HmacDrbg::from_seed_u64(seed);
    let network = SimNetwork::new(LinkModel::ideal());
    let database = Arc::new(UserDatabase::new());
    for user in 0..SCRIPT_USERS {
        database.register_user(
            &mut rng,
            &format!("user-{user}"),
            "pw",
            &[GroupId::new("math"), GroupId::new("chem")],
        );
    }
    let broker = Broker::new(
        PeerId::random(&mut rng),
        config,
        Arc::clone(&network),
        Arc::clone(&database),
    );
    let clients: Vec<PeerId> = (0..4).map(|_| PeerId::random(&mut rng)).collect();
    let fake_broker = PeerId::random(&mut rng);
    let owner = PeerId::random(&mut rng);
    broker.add_peer_broker(fake_broker);
    (network, broker, clients, fake_broker, owner)
}

/// The comparable digest of a broker's state after a script ran.
#[allow(clippy::type_complexity)]
fn state_digest(
    broker: &Broker,
) -> (
    Vec<(GroupId, PeerId, String, String)>,
    Vec<(GroupId, Vec<PeerId>)>,
    Vec<(PeerId, PeerId)>,
    usize,
    (u64, u64, u64),
) {
    let stats = broker.federation_stats();
    (
        broker.advertisement_snapshot(),
        broker.groups().snapshot(),
        broker.routing_snapshot(),
        broker.session_count(),
        (
            stats.syncs_applied,
            stats.rejected_replayed,
            stats.rejected_unknown_origin,
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The pipeline's load-bearing property: for any message sequence
    /// delivered in a fixed total order, the pipelined broker (parallel
    /// decode/verify, ticket-ordered dispatch into partitioned apply lanes)
    /// ends in exactly the state the classic inline application produces —
    /// replay-protection counters included — whatever the lane count.  The
    /// script mixes partition-local publishes with barrier kinds (connects,
    /// logins, lookups, inter-broker sync) and undecodable garbage, so every
    /// dispatch route is exercised.
    #[test]
    fn pipelined_apply_is_equivalent_to_inline(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            0..60,
        ),
    ) {
        // Universe A: inline — process_net on the caller's thread.
        let (_net_a, inline_broker, clients, fake, owner) =
            script_world(0x91BE, BrokerConfig::named("inline"));
        for &op in &ops {
            let (from, payload) = script_message(op, &clients, fake, owner);
            inline_broker.process_net(NetMessage {
                from,
                to: inline_broker.id(),
                payload,
                wire_time: Duration::ZERO,
            });
        }

        // Universe B (once per lane count): the same broker identity and
        // script, but spawned with a verify pool, a bounded inbox and a
        // partitioned apply stage, fed over the network.
        for lanes in [1usize, 2, 8] {
            let (net_b, pipelined_broker, clients_b, fake_b, owner_b) = script_world(
                0x91BE,
                BrokerConfig::named("pipelined")
                    .with_pipeline(3, 16)
                    .with_apply_lanes(lanes),
            );
            prop_assert_eq!(inline_broker.id(), pipelined_broker.id());
            let handle = pipelined_broker.spawn();
            for &op in &ops {
                let (from, payload) = script_message(op, &clients_b, fake_b, owner_b);
                net_b.send(from, pipelined_broker.id(), payload).unwrap();
            }
            let deadline = Deadline::after(Duration::from_secs(10));
            while pipelined_broker.processed_count()
                != net_b.delivered_to(&pipelined_broker.id())
            {
                prop_assert!(!deadline.expired(), "pipelined broker must drain");
                std::thread::sleep(Duration::from_micros(200));
            }

            prop_assert_eq!(state_digest(&inline_broker), state_digest(&pipelined_broker));
            prop_assert_eq!(
                pipelined_broker.processed_count(),
                inline_broker.processed_count()
            );
            let stats = pipelined_broker.pipeline_stats();
            prop_assert_eq!(stats.apply_lanes, lanes as u64);
            // Every scripted publish is partition-local, everything else is
            // a barrier or undecodable (the garbage op occasionally decodes
            // by accident, so only the publish count is exact).
            prop_assert_eq!(
                stats.lane_messages,
                ops.iter().filter(|(kind, ..)| kind % 6 == 2).count() as u64,
                "publishes apply on lanes"
            );
            prop_assert!(
                stats.lane_messages + stats.barriers_applied <= stats.messages_pipelined,
                "lane and barrier applies partition the pipelined messages"
            );
            handle.shutdown();
        }
    }
}

/// Direct check of the barrier ordering guarantee: a partition-spanning
/// message dispatched right behind a storm of partition-local publishes must
/// observe *all* of them, no matter which lanes they landed on or how far
/// the lanes had drained when the barrier arrived.
#[test]
fn barrier_observes_all_prior_lane_applies() {
    const GROUPS: usize = 8;
    const ROUNDS: usize = 25;

    let mut rng = HmacDrbg::from_seed_u64(0xBA44);
    let network = SimNetwork::new(LinkModel::ideal());
    let database = Arc::new(UserDatabase::new());
    let groups: Vec<GroupId> = (0..GROUPS).map(|i| GroupId::new(format!("g{i}"))).collect();
    database.register_user(&mut rng, "alice", "pw", &groups);
    let broker = Broker::new(
        PeerId::random(&mut rng),
        BrokerConfig::named("laned")
            .with_pipeline(4, 64)
            .with_apply_lanes(4),
        Arc::clone(&network),
        Arc::clone(&database),
    );
    let handle = broker.spawn();

    let client = PeerId::random(&mut rng);
    let inbox = network.register(client);
    network
        .send(
            client,
            broker.id(),
            Message::new(MessageKind::ConnectRequest, client, 1).to_bytes(),
        )
        .unwrap();
    network
        .send(
            client,
            broker.id(),
            Message::new(MessageKind::LoginRequest, client, 2)
                .with_str("username", "alice")
                .with_str("password", "pw")
                .to_bytes(),
        )
        .unwrap();

    // Publishes spread over GROUPS partitions (distinct shard keys, hence
    // spread over lanes), immediately chased by one lookup per round — a
    // barrier that must see every publish of its own round.
    let mut seq = 2u64;
    for round in 0..ROUNDS {
        for group in &groups {
            seq += 1;
            network
                .send(
                    client,
                    broker.id(),
                    Message::new(MessageKind::PublishAdvertisement, client, seq)
                        .with_str("group", group.as_str())
                        .with_str("doc-type", "jxta:PipeAdvertisement")
                        .with_str("xml", &format!("<adv round=\"{round}\"/>"))
                        .to_bytes(),
                )
                .unwrap();
        }
        seq += 1;
        network
            .send(
                client,
                broker.id(),
                Message::new(MessageKind::LookupRequest, client, seq)
                    .with_str("group", groups[round % GROUPS].as_str())
                    .with_str("doc-type", "jxta:PipeAdvertisement")
                    .to_bytes(),
            )
            .unwrap();
    }

    // Every lookup response must carry the round's freshly published XML:
    // the barrier happened-after all its round's lane applies.
    let mut lookups_seen = 0usize;
    let deadline = Deadline::after(Duration::from_secs(10));
    while lookups_seen < ROUNDS {
        assert!(!deadline.expired(), "all lookup responses must arrive");
        let Ok(net_message) = inbox.recv_timeout(Duration::from_secs(1)) else {
            continue;
        };
        let message = Message::from_bytes(&net_message.payload).unwrap();
        if message.kind != MessageKind::LookupResponse {
            continue;
        }
        let adverts: Vec<String> = message.element("adverts").map(record::decode).unwrap_or_default();
        assert_eq!(adverts.len(), 1);
        let xml = adverts[0].clone();
        assert_eq!(
            xml,
            format!("<adv round=\"{lookups_seen}\"/>"),
            "lookup {lookups_seen} must observe its round's publish"
        );
        lookups_seen += 1;
    }

    let stats = broker.pipeline_stats();
    assert_eq!(stats.apply_lanes, 4);
    assert!(
        stats.lane_messages >= (GROUPS * ROUNDS) as u64,
        "publishes applied on lanes: {stats:?}"
    );
    assert!(
        stats.barriers_applied >= ROUNDS as u64,
        "lookups applied as barriers: {stats:?}"
    );
    handle.shutdown();
}

#[test]
fn pipelined_federation_survives_concurrent_senders_and_a_lossy_backbone() {
    const SENDERS: usize = 8;
    const MESSAGES_PER_SENDER: usize = 12;

    let mut rng = HmacDrbg::from_seed_u64(0x57E5);
    let network = SimNetwork::new(LinkModel::ideal());
    let database = Arc::new(UserDatabase::new());
    for i in 0..SENDERS {
        database.register_user(&mut rng, &format!("sender-{i}"), "pw", &[GroupId::new("g")]);
    }
    database.register_user(&mut rng, "sink", "pw", &[GroupId::new("g")]);
    let brokers: Vec<Arc<Broker>> = (0..2)
        .map(|i| {
            Broker::new(
                PeerId::random(&mut rng),
                BrokerConfig::named(format!("broker-{i}")).with_pipeline(4, 32),
                Arc::clone(&network),
                Arc::clone(&database),
            )
        })
        .collect();
    let broker_ids: Vec<PeerId> = brokers.iter().map(|b| b.id()).collect();
    let federation = BrokerNetwork::spawn(brokers);

    // The receiver is homed at broker 1; all senders at broker 0, so every
    // delivery crosses the (lossy) backbone.
    let mut sink = ClientPeer::with_random_id(
        Arc::clone(&network),
        ClientConfig::named("sink"),
        &mut rng,
    );
    sink.connect(broker_ids[1]).unwrap();
    sink.login("sink", "pw").unwrap();
    let sink_id = sink.id();

    // 25% of the inter-broker traffic is dropped while the senders hammer
    // broker 0 from parallel threads.
    let dropper = RandomDrop::between(0xD20, 25, broker_ids.clone());
    network.set_adversary(dropper.clone());

    let mut senders: Vec<ClientPeer> = (0..SENDERS)
        .map(|i| {
            let mut client = ClientPeer::with_random_id(
                Arc::clone(&network),
                ClientConfig::named(format!("sender-{i}")),
                &mut rng,
            );
            client.connect(broker_ids[0]).unwrap();
            client.login(&format!("sender-{i}"), "pw").unwrap();
            client
        })
        .collect();
    std::thread::scope(|scope| {
        for (i, client) in senders.iter_mut().enumerate() {
            scope.spawn(move || {
                let group = GroupId::new("g");
                for j in 0..MESSAGES_PER_SENDER {
                    // Interleave state-bearing publishes with ordered relays.
                    client
                        .publish_advertisement(
                            &group,
                            &format!("jxta:Adv-{j}"),
                            &format!("<adv sender=\"{i}\" n=\"{j}\"/>"),
                        )
                        .unwrap();
                    client.relay_msg_peer(&group, sink_id, &format!("{i}:{j}")).unwrap();
                }
            });
        }
    });
    network.clear_adversary();
    assert!(dropper.dropped_count() > 0, "the adversary must actually bite");

    // No replay-protection trips: the pipeline kept every broker's outgoing
    // sequence numbers in allocation order despite 8 concurrent senders.
    for i in 0..federation.len() {
        assert_eq!(
            federation.broker(i).federation_stats().rejected_replayed,
            0,
            "broker {i} saw out-of-order inter-broker sequences"
        );
    }

    // Per-sender FIFO: whatever subset of each sender's relays survived the
    // drops arrives in increasing order.
    let mut last_seen: Vec<i64> = vec![-1; SENDERS];
    let mut delivered = 0usize;
    while let Some(event) = sink.wait_for_event(Duration::from_millis(200)) {
        if let ClientEvent::Text { text, .. } = event {
            let (sender, n) = text.split_once(':').expect("payload shape");
            let sender: usize = sender.parse().unwrap();
            let n: i64 = n.parse().unwrap();
            assert!(
                n > last_seen[sender],
                "sender {sender}: message {n} arrived after {}",
                last_seen[sender]
            );
            last_seen[sender] = n;
            delivered += 1;
        }
    }
    assert!(delivered > 0, "some relays must get through a 25% drop rate");

    // The lossy episode healed: anti-entropy reconverges the replicas and
    // the dropped publishes reappear on broker 1.
    for _ in 0..8 {
        if federation.converged() {
            break;
        }
        federation.trigger_repair();
        federation.await_convergence(Duration::from_secs(5));
    }
    assert!(federation.converged(), "repair reconverges the federation");
    assert!(
        federation.broker(0).pipeline_stats().messages_pipelined > 0,
        "the staged pipeline actually carried the load"
    );
    federation.shutdown();
}

#[test]
fn secure_stack_runs_end_to_end_on_pipelined_brokers() {
    use jxta_overlay_secure::setup::SecureNetworkBuilder;
    let mut setup = SecureNetworkBuilder::new(0x5EC9)
        .with_key_bits(512)
        .with_broker_count(2)
        .with_verify_workers(2)
        .with_inbox_capacity(64)
        .with_user("alice", "pw-a", &["math"])
        .with_user("bob", "pw-b", &["math"])
        .build();
    let group = GroupId::new("math");
    let mut alice = setup.secure_client("alice-pc");
    let mut bob = setup.secure_client("bob-pc");
    alice.secure_join(setup.broker_id_at(0), "alice", "pw-a").unwrap();
    bob.secure_join(setup.broker_id_at(1), "bob", "pw-b").unwrap();
    alice.publish_secure_pipe(&group).unwrap();
    bob.publish_secure_pipe(&group).unwrap();
    assert!(setup.federation().await_convergence(Duration::from_secs(5)));

    // Cross-broker secure messaging over the pipelined ingress.
    alice
        .secure_msg_peer_relayed(&group, bob.id(), "pipelined hello")
        .unwrap();
    let deadline = Deadline::after(Duration::from_secs(2));
    loop {
        let received = bob.receive_secure_messages().unwrap();
        if received.iter().any(|m| m.text == "pipelined hello") {
            break;
        }
        assert!(!deadline.expired(), "relayed secure message must arrive");
        std::thread::yield_now();
    }

    // The ingress verify stage pre-verified the signed publishes and the
    // gossip they rode in, through the verified-signature cache.
    let preverified: u64 = (0..2)
        .map(|i| setup.broker_extension_at(i).stats().ingress_preverified)
        .sum();
    assert!(preverified > 0, "signed content was verified at ingress");
    let cache_stats = setup.broker_extension_at(1).verify_cache_stats();
    assert!(
        cache_stats.hits > 0,
        "gossiped signatures hit the verify cache: {cache_stats:?}"
    );
    setup.shutdown();
}
