//! `session_churn`: a stream of short secure sessions against one broker —
//! the paper's E1 (join) plus signed publish and cold search/resolve.
//!
//! Each session is a new client: it joins (`secureConnection` +
//! `secureLogin`), publishes its signed pipe advertisement, then four times
//! resolves a seeded-random directory peer (lookup plus full validation,
//! every cache cold), sends it 1 KiB with `secureMsgPeer` and lets the
//! receiver verify it.  The directory peers then drain their inboxes (the
//! broker pushes each publish to every group member).  The deployment
//! clock advances one second per session, so every credential and signed
//! advertisement is new bytes to the broker's verify cache.

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

/// Sizes of the deployment.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Directory peers joined and published at set-up.
    pub directory: usize,
    /// Session identities, reused round-robin (key generation is boot cost).
    pub identities: usize,
}

/// The benchmark's shape.
pub const FULL: Shape = Shape {
    directory: 64,
    identities: 16,
};

/// The `--quick` shape.
pub const QUICK: Shape = Shape {
    directory: 8,
    identities: 4,
};

/// Resolve-and-message rounds per session.
const ROUNDS: usize = 4;
/// Message size.
const TEXT_LEN: usize = 1024;
const GROUP: &str = "directory";

fn password(user: &str) -> String {
    format!("{user}-password")
}

struct World {
    net: SecureNetwork,
    directory: Vec<SecureClient>,
    clock: u64,
}

fn build(shape: Shape, seed: u64, pool: &[PeerIdentity]) -> World {
    let mut builder = SecureNetworkBuilder::new(seed).with_link(LinkModel::ideal());
    for i in 0..shape.directory {
        let user = format!("dir-{i}");
        builder = builder.with_user(&user, &password(&user), &[GROUP]);
    }
    for i in 0..shape.identities {
        let user = format!("session-{i}");
        builder = builder.with_user(&user, &password(&user), &[GROUP]);
    }
    let mut net = builder.build();
    let broker = net.broker_id();
    let group = GroupId::new(GROUP);
    let directory = pool[..shape.directory]
        .iter()
        .enumerate()
        .map(|(i, identity)| {
            let user = format!("dir-{i}");
            let mut client = net.secure_client_with_identity(&user, identity.clone());
            client
                .secure_join(broker, &user, &password(&user))
                .expect("directory peer join");
            client
                .publish_secure_pipe(&group)
                .expect("directory peer publish");
            client
        })
        .collect();
    World {
        net,
        directory,
        clock: 0,
    }
}

/// Latencies of the sessions' primitives.
#[derive(Default)]
struct Samples {
    join_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    resolve_ms: Vec<f64>,
    msg_ms: Vec<f64>,
}

/// One session, its latencies added to `samples`; returns whether it
/// completed.
#[allow(clippy::too_many_arguments)]
fn session(
    world: &mut World,
    identity: &PeerIdentity,
    user: &str,
    rng: &mut HmacDrbg,
    clock: &Clock,
    tracer: Option<&Tracer>,
    outcome: &mut Outcome,
    samples: &mut Samples,
) -> bool {
    let group = GroupId::new(GROUP);
    let broker = world.net.broker_id();
    world.clock += 1;
    world.net.set_time(world.clock);
    let mut client = world
        .net
        .secure_client_with_identity(user, identity.clone());

    let start = clock.now();
    let connected = Tracer::call(tracer, "secure_connection", || {
        client.secure_connection(broker)
    });
    if outcome.check("secure_connection", connected).is_none() {
        return false;
    }
    let login = Tracer::call(tracer, "secure_login", || {
        client.secure_login(user, &password(user))
    });
    if outcome.check("secure_login", login).is_none() {
        return false;
    }
    samples.join_ms.push(clock.ms_since(start));

    let start = clock.now();
    let published = Tracer::call(tracer, "publish_secure_pipe", || {
        client.publish_secure_pipe(&group)
    });
    if outcome.check("publish_secure_pipe", published).is_none() {
        return false;
    }
    samples.publish_ms.push(clock.ms_since(start));

    for _ in 0..ROUNDS {
        let pick = workload::pick(rng, world.directory.len());
        let peer = &mut world.directory[pick];
        let start = clock.now();
        let resolved = Tracer::call(tracer, "resolve_secure_pipe", || {
            client.resolve_secure_pipe(&group, peer.id())
        });
        let Some(validated) = outcome.check("resolve_secure_pipe", resolved) else {
            return false;
        };
        samples.resolve_ms.push(clock.ms_since(start));
        outcome.expect(
            "resolve yields the owner's credential key",
            validated.credential.public_key == *peer.identity().public_key()
                && validated.advertisement.owner == peer.id(),
        );

        let text = workload::text(rng, TEXT_LEN);
        let start = clock.now();
        let sent = Tracer::call(tracer, "secure_msg_peer", || {
            client.secure_msg_peer(&group, peer.id(), &text)
        });
        if outcome.check("secure_msg_peer", sent).is_none() {
            return false;
        }
        let received = Tracer::call(tracer, "receive_secure_messages", || {
            peer.receive_secure_messages()
        });
        let Some(received) = outcome.check("receive_secure_messages", received) else {
            return false;
        };
        samples.msg_ms.push(clock.ms_since(start));
        outcome.expect(
            "the message arrives intact from its sender",
            received.len() == 1
                && received[0].text == text
                && received[0].from == client.id()
                && received[0].sender_username == user,
        );
        peer.drain_other_events();
    }
    Tracer::call(tracer, "drain", || {
        for peer in &mut world.directory {
            peer.inner_mut().poll_events();
        }
    });
    true
}

/// Runs the workload.
pub fn run(settings: &Settings, clock: &Arc<Clock>) -> Outcome {
    let shape = if settings.quick { QUICK } else { FULL };
    let mut outcome = Outcome::default();
    let pool = workload::identities(settings.seed, shape.directory + shape.identities);
    let sessions = &pool[shape.directory..];
    let mut world = workload::timed_setup(
        &mut outcome,
        clock,
        |repeat| build(shape, workload::derive(settings.seed, repeat), &pool),
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
    let extension = Arc::clone(world.net.broker_extension());
    let mut rng = workload::rng(settings.seed, 0x5E55);
    let mut samples = Samples::default();
    let mut sessions_done = 0usize;
    let mut next = 0usize;
    let mut cache_before = extension.verify_cache_stats();
    let mut net_before = world.net.network().stats();
    let mut started = false;
    let phase = workload::phases(settings, clock, tracer.as_deref(), |timed| {
        if timed && !started {
            started = true;
            samples = Samples::default();
            cache_before = extension.verify_cache_stats();
            net_before = world.net.network().stats();
        }
        let k = next % sessions.len();
        next += 1;
        if let Some(tracer) = &tracer {
            tracer.set_op(next as u64);
        }
        let user = format!("session-{k}");
        let done = session(
            &mut world,
            &sessions[k],
            &user,
            &mut rng,
            clock,
            tracer.as_deref(),
            &mut outcome,
            &mut samples,
        );
        sessions_done += usize::from(timed && done);
    });
    let net = world.net.network().stats();
    let cache = extension.verify_cache_stats();

    outcome.phase_s = phase;
    outcome.wire_bytes = net.bytes_sent - net_before.bytes_sent;
    outcome.ops = sessions_done as f64;
    for (name, values) in [
        ("join_ms_p50", &samples.join_ms),
        ("publish_ms_p50", &samples.publish_ms),
        ("resolve_ms_p50", &samples.resolve_ms),
        ("msg_ms_p50", &samples.msg_ms),
    ] {
        outcome.reading(name, stats::median(values).unwrap_or(f64::NAN), "ms");
    }
    let hits = (cache.hits - cache_before.hits) as f64;
    let lookups = hits + (cache.misses - cache_before.misses) as f64;
    outcome.reading(
        "verify_cache_hit_ratio",
        stats::ratio(hits, lookups),
        "ratio",
    );

    if let Some(tracer) = &tracer {
        let share = |name: &str| stats::ratio(tracer.span_totals(name).1, phase);
        let join_broker = tracer.service(MessageKind::SecureConnectChallenge).total
            + tracer.service(MessageKind::SecureLoginRequest).total;
        let join_total: f64 = samples.join_ms.iter().sum::<f64>() / 1e3;
        outcome.layer(
            "op.traced_ms_p50",
            stats::median(&samples.join_ms).unwrap_or(0.0),
        );
        outcome.layer("op.broker_share", stats::ratio(join_broker, join_total));
        outcome.layer(
            "op.self_ms_mean",
            (join_total - join_broker) * 1e3 / samples.join_ms.len().max(1) as f64,
        );
        outcome.layer(
            "broker.in_service_mean",
            stats::ratio(tracer.all_service().total, phase),
        );
        outcome.layer("call.connect_share", share("secure_connection"));
        outcome.layer("call.login_share", share("secure_login"));
        outcome.layer("call.publish_share", share("publish_secure_pipe"));
        outcome.layer("call.resolve_share", share("resolve_secure_pipe"));
        outcome.layer("call.send_share", share("secure_msg_peer"));
        outcome.layer("call.receive_share", share("receive_secure_messages"));
        outcome.layer("call.drain_share", share("drain"));
        outcome.layer(
            "app.goodput_mib_s",
            (samples.msg_ms.len() * TEXT_LEN) as f64 / (1024.0 * 1024.0) / phase,
        );
        outcome.layer("broker.verify_cache.hit_ratio", stats::ratio(hits, lookups));
        outcome.layer(
            "broker.push_per_publish",
            stats::ratio(
                tracer.kind_totals(MessageKind::AdvertisementPush).count as f64,
                tracer.kind_totals(MessageKind::PublishAdvertisement).count as f64,
            ),
        );
        let ops = outcome.ops.max(1.0);
        workload::wire_layers(&mut outcome, tracer, ops);
        probes::measure(
            &mut outcome,
            clock,
            &probes::Inputs::from_client(&world.net, &world.directory[0]),
        );
        outcome.tracer = Some(Arc::clone(tracer));
    }
    outcome.latencies_ms = samples.join_ms;
    world.net.shutdown();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use std::time::Duration;

    #[test]
    fn a_quick_traced_run_completes_without_failures() {
        let settings = Settings {
            seed: 3,
            phase: Duration::from_millis(500),
            warmup: Duration::ZERO,
            quick: true,
            trace: true,
        };
        let outcome = run(&settings, &Arc::new(Clock::new()));
        assert_eq!(outcome.failed, 0, "{:?}", outcome.failures);
        assert!(outcome.attempted > 0);
        assert!(outcome.ops >= 1.0);
        // Every per-layer timing is measured on this workload.
        for metric in spec::PER_LAYER
            .iter()
            .filter(|m| m.unit == "ms" || m.unit == "us")
        {
            assert!(
                outcome.layers[metric.name] > 0.0,
                "{} not measured",
                metric.name
            );
        }
    }
}
