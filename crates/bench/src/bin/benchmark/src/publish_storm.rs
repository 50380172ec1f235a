//! `publish_storm`: the broker's write path under a deep closed loop.
//!
//! Two fully replicating brokers with pipelined ingress (two verify workers,
//! the host's core count), bounded inboxes of 256 and a backpressure timeout
//! far above any drain, so overload blocks senders instead of shedding.
//! Sixteen clients joined at broker 0, each in its own group (no member
//! pushes).  The generator keeps 512 publishes outstanding; each is its
//! owner's identical signed-advertisement refresh, so the verify cache
//! absorbs every RSA call and decode, ticket reorder, lanes, apply,
//! backpressure and gossip to broker 1 do the work.  A publish counts when
//! its `Ack` arrives.  The generator keeps the window full in bursts of a
//! quarter second, each ending when both brokers have drained: only then is
//! the program idle, so the clock calibrates between bursts.

use crate::clock::Clock;
use crate::probes;
use crate::stats;
use crate::trace::{Tap, Tracer};
use crate::workload::{self, Outcome, Settings};
use jxta_overlay::advertisement::{Advertisement, PipeAdvertisement};
use jxta_overlay::client::ClientEvent;
use jxta_overlay::metrics::PipelineStats;
use jxta_overlay::{GroupId, LinkModel, Message, MessageKind, PeerId};
use jxta_overlay_secure::setup::{SecureNetwork, SecureNetworkBuilder};
use jxta_overlay_secure::signed_adv::signed_pipe_advertisement;
use jxta_overlay_secure::{PeerIdentity, SecureClient};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sizes of the storm.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Publishing clients, one group each.
    pub clients: usize,
    /// Publishes kept outstanding.
    pub window: usize,
}

/// The benchmark's shape.
pub const FULL: Shape = Shape {
    clients: 16,
    window: 512,
};

/// The `--quick` shape.
pub const QUICK: Shape = Shape {
    clients: 4,
    window: 64,
};

/// Wall time one burst keeps the window full.
const BURST: Duration = Duration::from_millis(250);
/// One publish in this many (by request id) is a latency sample; the rest
/// only count, so the samples kept barely move the run's peak memory.
const SAMPLE_EVERY: u64 = 64;
/// How long one `Ack` may take before the publish counts as failed.
const ACK_TIMEOUT: Duration = Duration::from_secs(30);
/// How long both brokers may take to drain after a burst's last ack.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

struct Publisher {
    client: SecureClient,
    group: GroupId,
    xml: String,
    next_request: u64,
    /// Request ids in flight, oldest first, with their send times.
    in_flight: VecDeque<(u64, f64)>,
}

struct World {
    net: SecureNetwork,
    publishers: Vec<Publisher>,
}

fn build(shape: Shape, seed: u64, pool: &[PeerIdentity]) -> World {
    let mut builder = SecureNetworkBuilder::new(seed)
        .with_link(LinkModel::ideal())
        .with_broker_count(2)
        .with_verify_workers(2)
        .with_inbox_capacity(256);
    for i in 0..shape.clients {
        builder = builder.with_user(
            &format!("storm-{i}"),
            "storm-password",
            &[&format!("storm-{i}")],
        );
    }
    let mut net = builder.build();
    net.network()
        .set_backpressure_timeout(Duration::from_secs(120));
    let broker = net.broker_id();
    let publishers = pool
        .iter()
        .enumerate()
        .map(|(i, identity)| {
            let user = format!("storm-{i}");
            let group = GroupId::new(user.clone());
            let mut client = net.secure_client_with_identity(&user, identity.clone());
            client
                .secure_join(broker, &user, "storm-password")
                .expect("storm client join");
            let advertisement = PipeAdvertisement {
                owner: client.id(),
                group: group.clone(),
                name: format!("{user}-inbox"),
            };
            let xml = signed_pipe_advertisement(
                &advertisement,
                client.identity(),
                client.credential().expect("joined"),
            )
            .expect("signing");
            client
                .inner_mut()
                .publish_advertisement(&group, PipeAdvertisement::DOC_TYPE, &xml)
                .expect("first publish");
            Publisher {
                client,
                group,
                xml,
                next_request: 1_000_000,
                in_flight: VecDeque::new(),
            }
        })
        .collect();
    assert!(
        net.federation().await_convergence(Duration::from_secs(30)),
        "set-up publishes must replicate"
    );
    World { net, publishers }
}

/// Whether every broker has processed everything delivered to it.
fn drained(net: &SecureNetwork) -> bool {
    (0..net.broker_count()).all(|i| {
        let broker = net.broker_at(i);
        broker.processed_count() == net.network().delivered_to(&broker.id())
    })
}

fn pipeline_delta(after: PipelineStats, before: PipelineStats) -> PipelineStats {
    PipelineStats {
        messages_pipelined: after.messages_pipelined - before.messages_pipelined,
        apply_batches: after.apply_batches - before.apply_batches,
        reorder_waits: after.reorder_waits - before.reorder_waits,
        barrier_drains: after.barrier_drains - before.barrier_drains,
        ..after
    }
}

/// One burst: keeps `shape.window` publishes outstanding for [`BURST`],
/// then collects every ack and waits until both brokers have drained.
/// Latency samples go to `samples` when given.  Returns the acks, or `None`
/// after a failure, which `outcome` records.
fn burst(
    world: &mut World,
    shape: Shape,
    clock: &Clock,
    tracer: Option<&Tracer>,
    outcome: &mut Outcome,
    mut samples: Option<&mut Vec<f64>>,
) -> Option<u64> {
    let network = world.net.network();
    let broker = world.net.broker_id();
    // Publisher of each outstanding publish, oldest first.
    let mut order: VecDeque<usize> = VecDeque::with_capacity(shape.window);
    let mut next_client = 0usize;
    let mut acks = 0u64;
    let start = Instant::now();
    loop {
        while order.len() < shape.window && start.elapsed() < BURST {
            let publisher = &mut world.publishers[next_client];
            publisher.next_request += 1;
            let request = publisher.next_request;
            let bytes = Message::new(
                MessageKind::PublishAdvertisement,
                publisher.client.id(),
                request,
            )
            .with_str("group", publisher.group.as_str())
            .with_str("doc-type", PipeAdvertisement::DOC_TYPE)
            .with_str("xml", &publisher.xml)
            .to_bytes();
            if let Some(tracer) = tracer {
                tracer.set_op(request);
            }
            let sent_at = clock.now();
            let sent = Tracer::call(tracer, "publish", || {
                network.send(publisher.client.id(), broker, bytes)
            });
            if outcome.check("publish send", sent).is_some() {
                publisher.in_flight.push_back((request, sent_at));
                order.push_back(next_client);
            }
            next_client = (next_client + 1) % shape.clients;
        }
        let Some(oldest) = order.pop_front() else {
            break;
        };
        let publisher = &mut world.publishers[oldest];
        let (request, sent_at) = publisher.in_flight.pop_front().expect("in flight");
        let event = Tracer::call(tracer, "ack_wait", || {
            publisher.client.inner_mut().wait_for_event(ACK_TIMEOUT)
        });
        let ok = matches!(
            &event,
            Some(ClientEvent::Raw(m)) if m.kind == MessageKind::Ack
                && m.request_id == request
                && m.element_str("status").as_deref() == Some("ok")
        );
        if !outcome.expect("publish acknowledged in order", ok) {
            return None;
        }
        acks += 1;
        if let Some(samples) = samples.as_mut().filter(|_| request % SAMPLE_EVERY == 0) {
            samples.push(clock.ms_since(sent_at));
        }
    }
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while !drained(&world.net) {
        if Instant::now() >= deadline {
            outcome.expect("both brokers drained", false);
            return None;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Some(acks)
}

/// Runs the workload.
pub fn run(settings: &Settings, clock: &Arc<Clock>) -> Outcome {
    let shape = if settings.quick { QUICK } else { FULL };
    let mut outcome = Outcome::default();
    let pool = workload::identities(settings.seed, shape.clients);
    let mut world = workload::timed_setup(
        &mut outcome,
        clock,
        |repeat| build(shape, workload::derive(settings.seed, repeat), &pool),
        |world| world.net.shutdown(),
    );
    let broker_ids: Vec<PeerId> = (0..2).map(|i| world.net.broker_id_at(i)).collect();
    let tracer = settings
        .trace
        .then(|| Tracer::new(Arc::clone(clock), broker_ids));
    if let Some(tracer) = &tracer {
        world
            .net
            .network()
            .set_adversary(Tap::new(Arc::clone(tracer), None));
    }
    let network = Arc::clone(world.net.network());
    let brokers = [
        Arc::clone(world.net.broker_at(0)),
        Arc::clone(world.net.broker_at(1)),
    ];
    let extensions = [
        Arc::clone(world.net.broker_extension_at(0)),
        Arc::clone(world.net.broker_extension_at(1)),
    ];
    let cache = || {
        extensions
            .iter()
            .map(|e| e.verify_cache_stats())
            .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses))
    };
    let snapshot = || {
        (
            network.stats(),
            brokers[0].pipeline_stats(),
            brokers[0].federation_stats(),
            cache(),
        )
    };

    let span_tracer = tracer.as_deref();
    let mut latencies = Vec::new();
    let mut acked = 0u64;
    let wall = Instant::now();
    // Wall and scaled start of the timed phase, once it has begun.
    let mut timed: Option<(Instant, f64)> = None;
    let mut before = snapshot();
    loop {
        if timed.is_none() && wall.elapsed() >= settings.warmup {
            timed = Some((Instant::now(), clock.now()));
            before = snapshot();
            if let Some(tracer) = span_tracer {
                tracer.arm(true);
            }
        }
        if timed.is_some_and(|(start, _)| start.elapsed() >= settings.phase) {
            break;
        }
        clock.calibrate();
        let samples = timed.is_some().then_some(&mut latencies);
        let Some(acks) = burst(&mut world, shape, clock, span_tracer, &mut outcome, samples) else {
            break;
        };
        if timed.is_some() {
            acked += acks;
        }
    }
    let phase = timed.map_or(0.0, |(_, start)| clock.now() - start);
    if let Some(tracer) = span_tracer {
        tracer.arm(false);
    }
    let (net_before, pipe_before, fed_before, cache_before) = before;
    let net = network.stats();
    let shed = net.overflow_dropped - net_before.overflow_dropped;
    outcome.expect("no publish shed under backpressure", shed == 0);
    for publisher in &world.publishers {
        for broker in &brokers {
            let found = broker.lookup(
                &publisher.group,
                PipeAdvertisement::DOC_TYPE,
                Some(publisher.client.id()),
            );
            outcome.expect(
                "both brokers hold every client's advertisement",
                found == [publisher.xml.clone()],
            );
        }
    }

    outcome.phase_s = phase;
    outcome.ops = acked as f64;
    outcome.wire_bytes = net.bytes_sent - net_before.bytes_sent;
    let (hits, misses) = cache();
    let hits = (hits - cache_before.0) as f64;
    let lookups = hits + (misses - cache_before.1) as f64;
    outcome.reading(
        "verify_cache_hit_ratio",
        stats::ratio(hits, lookups),
        "ratio",
    );
    outcome.reading("shed", shed as f64, "count");

    if let Some(tracer) = &tracer {
        let ops = outcome.ops.max(1.0);
        let service = tracer.service(MessageKind::PublishAdvertisement);
        let pipe = pipeline_delta(brokers[0].pipeline_stats(), pipe_before);
        let fed = brokers[0].federation_stats();
        let mean_load = pipe.lane_messages as f64 / pipe.apply_lanes.max(1) as f64;
        // Service is request send to `Ack` send, queueing included.
        let service_ms = stats::ratio(service.total * 1e3, service.count as f64);
        let op_mean = stats::ratio(latencies.iter().sum(), latencies.len() as f64);
        outcome.layer("op.traced_ms_p50", stats::median(&latencies).unwrap_or(0.0));
        outcome.layer("op.broker_share", stats::ratio(service_ms, op_mean));
        outcome.layer("op.self_ms_mean", (op_mean - service_ms).max(0.0));
        outcome.layer("broker.in_service_mean", stats::ratio(service.total, phase));
        let share = |name: &str| stats::ratio(tracer.span_totals(name).1, phase);
        outcome.layer("call.publish_share", share("publish"));
        outcome.layer("call.ack_wait_share", share("ack_wait"));
        outcome.layer(
            "app.goodput_mib_s",
            ops * world.publishers[0].xml.len() as f64 / (1024.0 * 1024.0) / phase,
        );
        outcome.layer("broker.verify_cache.hit_ratio", stats::ratio(hits, lookups));
        outcome.layer(
            "ingress.reorder_waits_per_msg",
            stats::ratio(pipe.reorder_waits as f64, pipe.messages_pipelined as f64),
        );
        outcome.layer(
            "ingress.mean_apply_batch",
            stats::ratio(pipe.messages_pipelined as f64, pipe.apply_batches as f64),
        );
        outcome.layer(
            "ingress.lane_skew",
            stats::ratio(pipe.busiest_lane_messages as f64, mean_load),
        );
        outcome.layer(
            "ingress.barrier_drains_per_kmsg",
            stats::ratio(
                pipe.barrier_drains as f64 * 1e3,
                pipe.messages_pipelined as f64,
            ),
        );
        outcome.layer(
            "net.inbox_overflows_per_kmsg",
            (net.inbox_overflows - net_before.inbox_overflows) as f64 * 1e3 / ops,
        );
        outcome.layer("net.shed", shed as f64);
        outcome.layer(
            "gossip.syncs_per_publish",
            (fed.syncs_sent - fed_before.syncs_sent) as f64 / ops,
        );
        workload::wire_layers(&mut outcome, tracer, ops);
        let publisher = &world.publishers[0];
        probes::measure(
            &mut outcome,
            clock,
            &probes::Inputs::from_client(&world.net, &publisher.client),
        );
        outcome.tracer = Some(Arc::clone(tracer));
    }
    outcome.latencies_ms = latencies;
    world.net.shutdown();
    outcome
}
