//! Integration tests for the broker federation: a 3-broker backbone serving
//! secure clients that join, discover and message each other across brokers.
//!
//! The scenarios mirror the paper's secure primitives, but with the broker
//! role distributed: secure join happens at broker A, a signed-advertisement
//! search resolves a peer homed at broker B, and an encrypted message is
//! relayed A→B with its signature (the end-to-end authenticity check)
//! verified by the receiving client.

use jxta_overlay::net::LinkModel;
use jxta_overlay::GroupId;
use jxta_overlay_secure::secure_client::{ReceivedSecureMessage, SecureClient};
use jxta_overlay_secure::setup::{SecureNetwork, SecureNetworkBuilder};
use jxta_overlay::clock::Deadline;
use std::time::Duration;

/// Drains the client's secure inbox, polling until at least one message
/// arrives or the timeout expires (the final hop of a relayed delivery is
/// performed asynchronously by the destination's home broker).
fn receive_relayed(client: &mut SecureClient) -> Vec<ReceivedSecureMessage> {
    let deadline = Deadline::after(Duration::from_secs(2));
    loop {
        let received = client.receive_secure_messages().unwrap();
        if !received.is_empty() || deadline.expired() {
            return received;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn three_broker_setup(seed: u64) -> SecureNetwork {
    SecureNetworkBuilder::new(seed)
        .with_key_bits(512)
        .with_broker_count(3)
        .with_user("alice", "pw-a", &["ops"])
        .with_user("bob", "pw-b", &["ops"])
        .with_user("carol", "pw-c", &["ops"])
        .build()
}

#[test]
fn secure_join_works_at_every_broker_of_the_federation() {
    let mut world = three_broker_setup(30);
    for i in 0..3 {
        let broker = world.broker_id_at(i);
        let mut client = world.secure_client(&format!("client-{i}"));
        client.secure_join(broker, "alice", "pw-a").unwrap();
        let credential = client.credential().unwrap();
        // The credential is issued by the broker the client landed on, whose
        // own credential chains to the administrator.
        assert_eq!(credential.issuer_name, format!("broker-{}", i + 1));
        credential
            .verify(world.broker_extension_at(i).identity().public_key())
            .unwrap();
        assert_eq!(world.broker_extension_at(i).stats().credentials_issued, 1);
    }
    world.shutdown();
}

#[test]
fn signed_advertisement_search_resolves_a_peer_at_another_broker() {
    let mut world = three_broker_setup(31);
    let group = GroupId::new("ops");
    let broker_a = world.broker_id_at(0);
    let broker_b = world.broker_id_at(1);

    let mut alice = world.secure_client("alice");
    let mut bob = world.secure_client("bob");
    alice.secure_join(broker_a, "alice", "pw-a").unwrap();
    bob.secure_join(broker_b, "bob", "pw-b").unwrap();
    bob.publish_secure_pipe(&group).unwrap();
    assert!(
        world.federation().await_convergence(Duration::from_secs(2)),
        "the publish must replicate to every broker"
    );

    // Alice searches through *her* broker; the signed advertisement was
    // published at Bob's broker and replicated verbatim, so the XMLdsig
    // signature and the embedded credential still validate.
    let validated = alice.resolve_secure_pipe(&group, bob.id()).unwrap();
    assert_eq!(validated.advertisement.owner, bob.id());
    assert_eq!(validated.credential.subject_name, "bob");
    validated
        .credential
        .verify(world.broker_extension_at(1).identity().public_key())
        .unwrap();
    world.shutdown();
}

#[test]
fn encrypted_message_relays_across_brokers_with_authenticity_intact() {
    let mut world = three_broker_setup(32);
    let group = GroupId::new("ops");
    let broker_a = world.broker_id_at(0);
    let broker_b = world.broker_id_at(1);

    let mut alice = world.secure_client("alice");
    let mut bob = world.secure_client("bob");
    alice.secure_join(broker_a, "alice", "pw-a").unwrap();
    bob.secure_join(broker_b, "bob", "pw-b").unwrap();
    alice.publish_secure_pipe(&group).unwrap();
    bob.publish_secure_pipe(&group).unwrap();
    assert!(world.federation().await_convergence(Duration::from_secs(2)));

    // The envelope crosses alice → broker A → broker B → bob.
    alice
        .secure_msg_peer_relayed(&group, bob.id(), "rendezvous at dawn")
        .unwrap();
    let received = receive_relayed(&mut bob);
    assert_eq!(received.len(), 1);
    assert_eq!(received[0].text, "rendezvous at dawn");
    assert_eq!(received[0].from, alice.id());
    assert_eq!(
        received[0].sender_username, "alice",
        "the signature verified against alice's credential end-to-end"
    );
    // The delivery to bob and broker B's counter update are unordered with
    // respect to each other; poll briefly before asserting.
    let deadline = Deadline::after(Duration::from_secs(2));
    while world.broker_at(1).federation_stats().relays_delivered == 0
        && !deadline.expired()
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(world.broker_at(0).federation_stats().relays_forwarded, 1);
    assert_eq!(world.broker_at(1).federation_stats().relays_delivered, 1);
    world.shutdown();
}

#[test]
fn replies_flow_back_across_the_backbone() {
    let mut world = three_broker_setup(33);
    let group = GroupId::new("ops");

    let mut alice = world.secure_client("alice");
    let mut bob = world.secure_client("bob");
    alice.secure_join(world.broker_id_at(0), "alice", "pw-a").unwrap();
    bob.secure_join(world.broker_id_at(2), "bob", "pw-b").unwrap();
    alice.publish_secure_pipe(&group).unwrap();
    bob.publish_secure_pipe(&group).unwrap();
    assert!(world.federation().await_convergence(Duration::from_secs(2)));

    alice.secure_msg_peer_relayed(&group, bob.id(), "ping").unwrap();
    assert_eq!(receive_relayed(&mut bob)[0].text, "ping");
    bob.secure_msg_peer_relayed(&group, alice.id(), "pong").unwrap();
    let at_alice = receive_relayed(&mut alice);
    assert_eq!(at_alice[0].text, "pong");
    assert_eq!(at_alice[0].sender_username, "bob");
    world.shutdown();
}

#[test]
fn replication_keeps_every_broker_index_identical() {
    let mut world = three_broker_setup(34);
    let group = GroupId::new("ops");

    let mut clients = Vec::new();
    for (i, (user, pw)) in [("alice", "pw-a"), ("bob", "pw-b"), ("carol", "pw-c")]
        .iter()
        .enumerate()
    {
        let mut client = world.secure_client(user);
        client.secure_join(world.broker_id_at(i), user, pw).unwrap();
        client.publish_secure_pipe(&group).unwrap();
        clients.push(client);
    }
    assert!(world.federation().await_convergence(Duration::from_secs(2)));

    let reference = world.broker_at(0).advertisement_snapshot();
    assert_eq!(reference.len(), 3, "all three signed pipes are indexed");
    for i in 1..3 {
        assert_eq!(world.broker_at(i).advertisement_snapshot(), reference);
    }
    // Sessions stay local — one client homed per broker — while the
    // replicated routing table agrees everywhere.
    for i in 0..3 {
        assert_eq!(world.broker_at(i).session_count(), 1);
        assert_eq!(
            world.broker_at(i).home_of(&clients[1].id()),
            Some(world.broker_id_at(1))
        );
    }
    world.shutdown();
}

#[test]
fn relayed_wire_time_charges_every_hop_of_the_backbone() {
    // Client links are ideal; the broker backbone edge costs 40 ms.  The
    // receiver must be charged the full multi-hop wire time, not just the
    // first hop.
    let mut world = SecureNetworkBuilder::new(35)
        .with_key_bits(512)
        .with_broker_count(2)
        .with_user("alice", "pw-a", &["ops"])
        .with_user("bob", "pw-b", &["ops"])
        .build();
    let backbone = LinkModel::new(Duration::from_millis(40), 0);
    world
        .network()
        .set_link_between(world.broker_id_at(0), world.broker_id_at(1), backbone);
    let group = GroupId::new("ops");

    let mut alice = world.secure_client("alice");
    let mut bob = world.secure_client("bob");
    alice.secure_join(world.broker_id_at(0), "alice", "pw-a").unwrap();
    bob.secure_join(world.broker_id_at(1), "bob", "pw-b").unwrap();
    alice.publish_secure_pipe(&group).unwrap();
    bob.publish_secure_pipe(&group).unwrap();
    assert!(world.federation().await_convergence(Duration::from_secs(2)));

    let _ = bob.inner_mut().take_wire_time();
    alice.secure_msg_peer_relayed(&group, bob.id(), "hop hop").unwrap();
    let received = receive_relayed(&mut bob);
    assert_eq!(received[0].text, "hop hop");
    // alice→brokerA (0 ms) + brokerA→brokerB (40 ms) + brokerB→bob (0 ms).
    assert_eq!(
        bob.inner_mut().take_wire_time(),
        Duration::from_millis(40),
        "the backbone hop's wire time reaches the receiver"
    );
    world.shutdown();
}

/// Polls `condition` until it holds or two seconds elapse.
fn eventually(mut condition: impl FnMut() -> bool) -> bool {
    let deadline = Deadline::after(Duration::from_secs(2));
    loop {
        if condition() {
            return true;
        }
        if deadline.expired() {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn live_broker_admission_and_removal_on_the_spawned_path() {
    // The threaded deployment grows and shrinks like the inline one: a new
    // broker joins the running backbone (identity, credential, beacons,
    // shard migration included), serves secure clients, and a departing
    // broker's shard is re-replicated by the survivors.
    let mut world = SecureNetworkBuilder::new(37)
        .with_key_bits(512)
        .with_broker_count(3)
        .with_replication_factor(2)
        .with_user("alice", "pw-a", &["ops"])
        .with_user("bob", "pw-b", &["ops"])
        .with_user("carol", "pw-c", &["ops"])
        .build();
    let group = GroupId::new("ops");
    let mut alice = world.secure_client("alice");
    alice.secure_join(world.broker_id_at(0), "alice", "pw-a").unwrap();
    alice.publish_secure_pipe(&group).unwrap();
    assert!(world.federation().await_convergence(Duration::from_secs(2)));

    let index = world.add_broker("broker-4");
    assert_eq!(index, 3);
    assert_eq!(world.broker_count(), 4);
    assert!(world.federation().await_convergence(Duration::from_secs(2)));
    // The newcomer's credential chains to the same administrator, and a
    // secure client can join the federation through it.
    world
        .broker_extension_at(3)
        .credential()
        .verify(world.admin().public_key())
        .unwrap();
    let broker_d = world.broker_id_at(3);
    let mut bob = world.secure_client("bob");
    bob.secure_join(broker_d, "bob", "pw-b").unwrap();
    bob.publish_secure_pipe(&group).unwrap();
    // Carol joins broker 1 *after* the admission, so her credential beacons
    // include broker-4's credential and she can validate bob end to end
    // (clients that joined earlier get the newcomer's credential through the
    // pushed credential-set update — see
    // `live_clients_learn_a_newly_admitted_brokers_credentials`).
    let mut carol = world.secure_client("carol");
    carol.secure_join(world.broker_id_at(1), "carol", "pw-c").unwrap();
    carol.publish_secure_pipe(&group).unwrap();
    assert!(world.federation().await_convergence(Duration::from_secs(2)));

    // Cross-broker messaging works through the late-joined broker, in both
    // directions.
    bob.secure_msg_peer_relayed(&group, carol.id(), "from the newcomer").unwrap();
    assert!(eventually(|| {
        carol
            .receive_secure_messages()
            .map(|m| m.iter().any(|m| m.text == "from the newcomer"))
            .unwrap_or(false)
    }));
    carol.secure_msg_peer_relayed(&group, bob.id(), "to the newcomer").unwrap();
    assert!(eventually(|| {
        bob.receive_secure_messages()
            .map(|m| m.iter().any(|m| m.text == "to the newcomer"))
            .unwrap_or(false)
    }));

    // Removing a broker keeps every entry at its replication factor.
    world.remove_broker(2);
    assert_eq!(world.broker_count(), 3);
    assert!(world.federation().await_convergence(Duration::from_secs(2)));
    let total: usize = (0..3)
        .map(|i| world.broker_at(i).advertisement_entry_count())
        .sum();
    assert_eq!(total, 3 * 2, "three signed pipes, two replicas each");
    world.shutdown();
}

#[test]
fn live_clients_learn_a_newly_admitted_brokers_credentials() {
    // Regression for ROADMAP open item #2: a client that ran
    // `secureConnection` *before* a broker was admitted only knew the
    // credential beacons of that moment, so it could never validate
    // advertisements signed under credentials the newcomer issues.  Broker
    // admission now pushes a signed credential-set update to every live
    // client, and the client absorbs it (verifying the push against its
    // authenticated home broker and each credential against the admin
    // anchor) before retrying a failed validation.
    let mut world = SecureNetworkBuilder::new(73)
        .with_key_bits(512)
        .with_broker_count(2)
        .with_user("alice", "pw-a", &["ops"])
        .with_user("dave", "pw-d", &["ops"])
        .build();
    let group = GroupId::new("ops");

    // Alice joins *before* the admission: her anchors cover brokers 1-2.
    let mut alice = world.secure_client("alice");
    alice.secure_join(world.broker_id_at(0), "alice", "pw-a").unwrap();
    alice.publish_secure_pipe(&group).unwrap();
    assert_eq!(alice.trust().brokers().len(), 2);

    let index = world.add_broker("broker-3");
    let broker_c = world.broker_id_at(index);
    assert!(world.federation().await_convergence(Duration::from_secs(2)));

    // Dave joins the newcomer: his signed pipe advertisement embeds a
    // credential issued by broker-3 — one alice never saw at join time.
    let mut dave = world.secure_client("dave");
    dave.secure_join(broker_c, "dave", "pw-d").unwrap();
    dave.publish_secure_pipe(&group).unwrap();
    assert!(world.federation().await_convergence(Duration::from_secs(2)));

    // Pre-admission alice validates dave's advertisement: the pushed update
    // waiting in her inbox is absorbed on the validation miss and the
    // newcomer's credential now chains.
    let validated = alice.resolve_secure_pipe(&group, dave.id()).unwrap();
    assert_eq!(validated.credential.issuer_name, "broker-3");
    assert_eq!(
        alice.trust().brokers().len(),
        3,
        "the newcomer's credential joined alice's trust anchors"
    );

    // And the full secure path works on top of it.
    alice
        .secure_msg_peer_relayed(&group, dave.id(), "hello post-admission world")
        .unwrap();
    assert!(eventually(|| {
        dave.receive_secure_messages()
            .map(|m| m.iter().any(|m| m.text == "hello post-admission world"))
            .unwrap_or(false)
    }));
    world.shutdown();
}

#[test]
fn late_joining_broker_learns_prior_revocations() {
    // PR 3's `revoke` pushed the list in-process to the brokers that existed
    // at call time, so a broker joining afterwards never learned it.  Now
    // the admin-signed list travels the backbone and rides in anti-entropy
    // snapshots: the newcomer catches up automatically and refuses the
    // revoked identity.
    let mut world = SecureNetworkBuilder::new(38)
        .with_key_bits(512)
        .with_broker_count(2)
        .with_user("alice", "pw-a", &["ops"])
        .with_user("mallory", "pw-m", &["ops"])
        .build();
    let mut mallory = world.secure_client("mallory-pc");
    mallory.secure_join(world.broker_id_at(0), "mallory", "pw-m").unwrap();

    world.revoke(&[mallory.id()], &["mallory"]);
    // The backbone gossip reaches the *current* brokers.
    assert!(eventually(|| world
        .broker_extension_at(1)
        .is_revoked(&mallory.id(), Some("mallory"))));

    // A broker deployed *after* the revocation starts empty; the admission
    // anti-entropy round carries the signed lists across the backbone, so
    // it catches up with no in-process push.
    let index = world.add_broker("broker-3");
    assert!(world.federation().await_convergence(Duration::from_secs(2)));
    assert!(
        eventually(|| world
            .broker_extension_at(index)
            .is_revoked(&mallory.id(), Some("mallory"))),
        "anti-entropy must deliver prior revocations to the late joiner"
    );

    // The late joiner now enforces them: a fresh device logging in under
    // the revoked account is refused a credential.
    let broker_c = world.broker_id_at(index);
    let mut mallory_again = world.secure_client("mallory-tablet");
    let err = mallory_again.secure_join(broker_c, "mallory", "pw-m");
    assert!(err.is_err(), "revoked account must be refused at the late joiner");
    assert!(world.broker_extension_at(index).stats().revoked_rejected >= 1);
    world.shutdown();
}

#[test]
fn relay_to_a_peer_unknown_to_the_federation_is_rejected() {
    let mut world = three_broker_setup(36);
    let group = GroupId::new("ops");
    let mut alice = world.secure_client("alice");
    let mut bob = world.secure_client("bob");
    alice.secure_join(world.broker_id_at(0), "alice", "pw-a").unwrap();
    bob.secure_join(world.broker_id_at(1), "bob", "pw-b").unwrap();
    bob.publish_secure_pipe(&group).unwrap();
    assert!(world.federation().await_convergence(Duration::from_secs(2)));

    // Bob logs out; once the departure replicates, relays towards him fail
    // at alice's broker.
    world.broker_at(1).drop_session(&bob.id());
    assert!(world.federation().await_convergence(Duration::from_secs(2)));
    let result = alice.secure_msg_peer_relayed(&group, bob.id(), "anyone there?");
    assert!(result.is_err());
    assert!(world.broker_at(0).federation_stats().relays_failed >= 1);
    world.shutdown();
}

/// The PR 10 acceptance scenario: a 128-broker epidemic federation loses one
/// broker to a crash-stop mid-broadcast, and *every* surviving broker's
/// active view excludes the dead broker within the SWIM probe budget —
/// purely through the failure detector riding the repair cadence, with no
/// operator `remove_broker` call anywhere.
#[test]
fn swim_evicts_a_crashed_broker_from_a_128_broker_federation() {
    use jxta_crypto::drbg::HmacDrbg;
    use jxta_overlay::broker::{Broker, BrokerConfig};
    use jxta_overlay::federation::InlineFederation;
    use jxta_overlay::net::{FaultPlan, SimNetwork};
    use jxta_overlay::swim::{PeerState, PROBE_BUDGET_TICKS};
    use jxta_overlay::{PeerId, UserDatabase};
    use std::sync::Arc;

    const N: usize = 128;
    let mut rng = HmacDrbg::from_seed_u64(0x128B);
    let network = SimNetwork::new(LinkModel::ideal());
    let database = Arc::new(UserDatabase::new());
    let brokers: Vec<Arc<Broker>> = (0..N)
        .map(|i| {
            Broker::new(
                PeerId::random(&mut rng),
                BrokerConfig::named(format!("b{i}")).with_view_capacities(4),
                Arc::clone(&network),
                Arc::clone(&database),
            )
        })
        .collect();
    let ids: Vec<PeerId> = brokers.iter().map(|b| b.id()).collect();
    let federation = InlineFederation::new(brokers);
    assert!(federation.broker(0).epidemic_engaged());

    let victim = 1usize;
    let plan = FaultPlan::new(0x128C).crash_stop(ids[victim], 0).into_adversary();
    network.set_adversary(plan.clone());

    // The crash lands mid-broadcast.
    federation.broker(0).index_and_distribute(
        PeerId::random(&mut rng),
        &GroupId::new("ops"),
        "jxta:PipeAdvertisement",
        "<casualty/>",
    );
    federation.pump();

    for _ in 0..PROBE_BUDGET_TICKS {
        for (i, id) in ids.iter().enumerate() {
            if !plan.is_crashed(id) {
                federation.broker(i).start_repair_round();
            }
        }
        federation.pump();
        plan.advance_tick();
    }

    for (i, _) in ids.iter().enumerate() {
        if i == victim {
            continue;
        }
        assert!(
            matches!(
                federation.broker(i).swim_record(&ids[victim]).map(|r| r.state),
                Some(PeerState::Dead)
            ),
            "survivor {i} has not confirmed the crashed broker dead within the budget"
        );
        assert!(
            !federation.broker(i).active_view().contains(&ids[victim]),
            "survivor {i} still keeps the crashed broker in its active view"
        );
        assert_eq!(
            federation.broker(i).swim_dead_members(),
            vec![ids[victim]],
            "survivor {i} buried a live broker along the way"
        );
    }
}
