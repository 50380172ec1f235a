//! `steady_messaging`: Figure 2's `secureMsgPeer` path with validation
//! already done — envelope sealing, RSA, AES/HMAC and message encoding carry
//! the load.
//!
//! One broker and eight peers whose signed advertisements are all resolved
//! at set-up.  Each operation is a `secureMsgPeer` between two seeded-random
//! peers followed by the receiver's receive-and-verify; every 16th operation
//! is instead a 1 KiB `secureMsgPeerGroup` to the other seven.  Payload
//! sizes follow a seeded deck of 20 (14 × 256 B, 5 × 4 KiB, 1 × 64 KiB), so
//! the median lands in the small, RSA-bound class and the 90th percentile in
//! the 4 KiB class on every seed.

use crate::clock::Clock;
use crate::probes;
use crate::stats;
use crate::trace::{Tap, Tracer};
use crate::workload::{self, Outcome, Settings};
use jxta_crypto::drbg::HmacDrbg;
use jxta_overlay::{GroupId, LinkModel, MessageKind};
use jxta_overlay_secure::setup::{SecureNetwork, SecureNetworkBuilder};
use jxta_overlay_secure::{PeerIdentity, SecureClient};
use std::sync::Arc;

const PEERS: usize = 8;
const GROUP_EVERY: usize = 16;
const GROUP_TEXT_LEN: usize = 1024;
/// The payload deck: reshuffled (seeded) every time it runs out.
const DECK: [(usize, usize); 3] = [(256, 14), (4 * 1024, 5), (64 * 1024, 1)];
const GROUP: &str = "messaging";

struct World {
    net: SecureNetwork,
    peers: Vec<SecureClient>,
}

fn build(seed: u64, pool: &[PeerIdentity]) -> World {
    let mut builder = SecureNetworkBuilder::new(seed).with_link(LinkModel::ideal());
    for i in 0..PEERS {
        builder = builder.with_user(
            &format!("peer-{i}"),
            &format!("peer-{i}-password"),
            &[GROUP],
        );
    }
    let mut net = builder.build();
    let broker = net.broker_id();
    let group = GroupId::new(GROUP);
    let mut peers: Vec<SecureClient> = pool
        .iter()
        .enumerate()
        .map(|(i, identity)| {
            let user = format!("peer-{i}");
            let mut peer = net.secure_client_with_identity(&user, identity.clone());
            peer.secure_join(broker, &user, &format!("{user}-password"))
                .expect("peer join");
            peer.publish_secure_pipe(&group).expect("peer publish");
            peer
        })
        .collect();
    let ids: Vec<_> = peers.iter().map(SecureClient::id).collect();
    for peer in &mut peers {
        for id in &ids {
            peer.resolve_secure_pipe(&group, *id)
                .expect("resolve at set-up");
        }
        peer.drain_other_events();
        peer.inner_mut().poll_events();
    }
    World { net, peers }
}

/// A seeded shuffle of the payload deck.
fn deal(rng: &mut HmacDrbg) -> Vec<usize> {
    let mut deck: Vec<usize> = DECK
        .iter()
        .flat_map(|&(size, count)| std::iter::repeat_n(size, count))
        .collect();
    for i in (1..deck.len()).rev() {
        deck.swap(i, workload::pick(rng, i + 1));
    }
    deck
}

/// Runs the workload.
pub fn run(settings: &Settings, clock: &Arc<Clock>) -> Outcome {
    let mut outcome = Outcome::default();
    let pool = workload::identities(settings.seed, PEERS);
    let mut world = workload::timed_setup(
        &mut outcome,
        clock,
        |repeat| build(workload::derive(settings.seed, repeat), &pool),
        |world| world.net.shutdown(),
    );
    let tracer = settings
        .trace
        .then(|| Tracer::new(Arc::clone(clock), vec![world.net.broker_id()]));
    if let Some(tracer) = &tracer {
        world
            .net
            .network()
            .set_adversary(Tap::new(Arc::clone(tracer), None));
    }
    let group = GroupId::new(GROUP);
    let mut rng = workload::rng(settings.seed, 0x3E55);
    let bodies: Vec<(usize, String)> = DECK
        .iter()
        .map(|&(size, _)| (size, workload::text(&mut rng, size)))
        .collect();
    let mut deck = Vec::new();
    let mut delivered = 0usize;
    let mut msg_ms = Vec::new();
    let mut group_ms = Vec::new();
    let mut payload_bytes = 0u64;
    let mut op = 0usize;
    let mut net_before = world.net.network().stats();
    let mut started = false;

    let phase = workload::phases(settings, clock, tracer.as_deref(), |timed| {
        if timed && !started {
            started = true;
            net_before = world.net.network().stats();
        }
        op += 1;
        if let Some(tracer) = &tracer {
            tracer.set_op(op as u64);
        }
        let tracer = tracer.as_deref();
        let from = workload::pick(&mut rng, PEERS);
        // A distinct prefix per operation: no two messages are equal.
        let tag = format!("{op:012}:");
        if op.is_multiple_of(GROUP_EVERY) {
            let text = format!("{tag}{}", &bodies[1].1[..GROUP_TEXT_LEN - tag.len()]);
            let start = clock.now();
            let sender = world.peers[from].id();
            let sent = Tracer::call(tracer, "secure_msg_peer_group", || {
                world.peers[from].secure_msg_peer_group(&group, &text)
            });
            let Some((count, _)) = outcome.check("secure_msg_peer_group", sent) else {
                return;
            };
            let mut all = count == PEERS - 1;
            for (i, peer) in world.peers.iter_mut().enumerate() {
                if i == from {
                    continue;
                }
                let received = Tracer::call(tracer, "receive_secure_messages", || {
                    peer.receive_secure_messages()
                });
                all &= received
                    .is_ok_and(|r| r.len() == 1 && r[0].text == text && r[0].from == sender);
            }
            if outcome.expect("every member receives the group message intact", all) && timed {
                group_ms.push(clock.ms_since(start));
                delivered += count;
                payload_bytes += (count * text.len()) as u64;
            }
            return;
        }
        let to = (from + 1 + workload::pick(&mut rng, PEERS - 1)) % PEERS;
        if deck.is_empty() {
            deck = deal(&mut rng);
        }
        let size = deck.pop().expect("dealt deck");
        let body = &bodies
            .iter()
            .find(|(s, _)| *s == size)
            .expect("dealt size")
            .1;
        let text = format!("{tag}{}", &body[..size - tag.len()]);
        let (sender, receiver) = (world.peers[from].id(), world.peers[to].id());
        let start = clock.now();
        let sent = Tracer::call(tracer, "secure_msg_peer", || {
            world.peers[from].secure_msg_peer(&group, receiver, &text)
        });
        if outcome.check("secure_msg_peer", sent).is_none() {
            return;
        }
        let received = Tracer::call(tracer, "receive_secure_messages", || {
            world.peers[to].receive_secure_messages()
        });
        let intact =
            received.is_ok_and(|r| r.len() == 1 && r[0].text == text && r[0].from == sender);
        if outcome.expect("the message arrives intact from its sender", intact) && timed {
            msg_ms.push(clock.ms_since(start));
            delivered += 1;
            payload_bytes += size as u64;
        }
    });
    let net = world.net.network().stats();
    outcome.phase_s = phase;
    outcome.ops = delivered as f64;
    outcome.wire_bytes = net.bytes_sent - net_before.bytes_sent;
    outcome.reading(
        "msg_ms_p50",
        stats::median(&msg_ms).unwrap_or(f64::NAN),
        "ms",
    );
    outcome.reading(
        "msg_ms_p99",
        stats::percentile(&msg_ms, 0.99).unwrap_or(f64::NAN),
        "ms",
    );
    outcome.reading(
        "group_msg_ms_p50",
        stats::median(&group_ms).unwrap_or(f64::NAN),
        "ms",
    );

    if let Some(tracer) = &tracer {
        let share = |name: &str| stats::ratio(tracer.span_totals(name).1, phase);
        let (_, group_time) = tracer.span_totals("secure_msg_peer_group");
        let lookup = tracer.service(MessageKind::LookupRequest).total;
        outcome.layer("op.traced_ms_p50", stats::median(&msg_ms).unwrap_or(0.0));
        // One-to-one messages travel peer to peer: no broker in the op.
        outcome.layer("op.broker_share", 0.0);
        outcome.layer(
            "op.self_ms_mean",
            stats::ratio(msg_ms.iter().sum(), msg_ms.len() as f64),
        );
        outcome.layer(
            "broker.in_service_mean",
            stats::ratio(tracer.all_service().total, phase),
        );
        outcome.layer("call.send_share", share("secure_msg_peer"));
        outcome.layer("call.receive_share", share("receive_secure_messages"));
        outcome.layer("call.group_share", share("secure_msg_peer_group"));
        outcome.layer("group.lookup_share", stats::ratio(lookup, group_time));
        outcome.layer(
            "app.goodput_mib_s",
            payload_bytes as f64 / (1024.0 * 1024.0) / phase,
        );
        let ops = outcome.ops.max(1.0);
        workload::wire_layers(&mut outcome, tracer, ops);
        probes::measure(
            &mut outcome,
            clock,
            &probes::Inputs::from_client(&world.net, &world.peers[0]),
        );
        outcome.tracer = Some(Arc::clone(tracer));
    }
    outcome.latencies_ms = msg_ms;
    world.net.shutdown();
    outcome
}
