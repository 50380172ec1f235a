//! `backbone_multi_origin`: every broker of an epidemic federation
//! publishes, over a lossy backbone, with the repair cadence running.
//!
//! Overlay-level brokers only (no secure extension, so crypto does no work):
//! Plumtree, HyParView shuffles, SWIM and anti-entropy carry the load.  The
//! benchmark drives the brokers with its own deterministic inline pump —
//! round-robin over the inboxes, exactly the order of
//! `InlineFederation::try_pump` — so it can time each `Broker::process_net`
//! call.  One epoch is a fixed number of publishes on a fresh federation
//! built from its own seed, and all counts are deterministic per seed.  The
//! headline operation is a publish until every broker's lookup returns it,
//! timed on the program's busy clock: the scaled time of publishes, pumps
//! and repair ticks, without the benchmark's own visibility checks.

use crate::clock::Clock;
use crate::probes;
use crate::stats;
use crate::trace::{peek_header, Tap, Tracer};
use crate::workload::{self, Outcome, Settings};
use crossbeam::channel::Receiver;
use jxta_overlay::advertisement::{Advertisement, PipeAdvertisement};
use jxta_overlay::broker::{Broker, BrokerConfig};
use jxta_overlay::federation;
use jxta_overlay::metrics::FederationStats;
use jxta_overlay::net::{Adversary, NetMessage, RandomDrop, SimNetwork};
use jxta_overlay::{GroupId, LinkModel, MessageKind, PeerId, UserDatabase};
use std::sync::Arc;
use std::time::Instant;

/// Size of one epoch.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Brokers in the federation (above the active-view capacity, so the
    /// epidemic fabric is engaged).
    pub brokers: usize,
    /// Publishes per epoch; publish `i` originates at broker `i mod brokers`.
    pub publishes: usize,
    /// Publishes between two repair ticks.
    pub tick_every: usize,
    /// Seeded drop probability on all backbone traffic, in percent.
    pub drop_percent: u32,
    /// Nominal length of one epoch on a 2-core host: the timed phase runs
    /// `phase / epoch_seconds` epochs (at least one).
    pub epoch_seconds: f64,
}

/// The benchmark's shape.
pub const FULL: Shape = Shape {
    brokers: 64,
    publishes: 256,
    tick_every: 8,
    drop_percent: 2,
    epoch_seconds: 2.5,
};

/// The `--quick` shape.
pub const QUICK: Shape = Shape {
    brokers: 16,
    publishes: 128,
    tick_every: 8,
    drop_percent: 2,
    epoch_seconds: 0.5,
};

/// Repair ticks allowed after the last publish for every entry to become
/// visible everywhere and the replicas to converge.
const FINAL_TICKS: usize = 16;

/// Messages one pump may process before the backbone counts as livelocked.
const PUMP_BUDGET: usize = 5_000_000;

const GROUP: &str = "backbone";

/// An inline-driven federation of overlay brokers.
struct Fabric {
    network: Arc<SimNetwork>,
    brokers: Vec<Arc<Broker>>,
    inboxes: Vec<Receiver<NetMessage>>,
}

impl Fabric {
    fn build(shape: Shape, seed: u64) -> Fabric {
        let mut rng = workload::rng(seed, 0xB0);
        let network = SimNetwork::new(LinkModel::ideal());
        let database = Arc::new(UserDatabase::new());
        let brokers: Vec<Arc<Broker>> = (0..shape.brokers)
            .map(|i| {
                Broker::new(
                    PeerId::random(&mut rng),
                    BrokerConfig::named(format!("broker-{}", i + 1)),
                    Arc::clone(&network),
                    Arc::clone(&database),
                )
            })
            .collect();
        federation::interconnect(&brokers);
        let inboxes = brokers.iter().map(|b| network.register(b.id())).collect();
        Fabric {
            network,
            brokers,
            inboxes,
        }
    }

    /// Delivers queued messages round-robin until every inbox is empty.
    /// When traced, each `process_net` call is timed per message kind.
    fn pump(&self, tracer: Option<&Tracer>, by_kind: &mut [f64; 256]) -> Result<(), String> {
        let mut processed = 0usize;
        loop {
            let mut progressed = false;
            for (broker, inbox) in self.brokers.iter().zip(&self.inboxes) {
                while let Ok(message) = inbox.try_recv() {
                    match tracer {
                        None => broker.process_net(message),
                        Some(tracer) => {
                            let kind = peek_header(&message.payload).map(|(kind, _)| kind);
                            let start = tracer.now();
                            broker.process_net(message);
                            if let Some(kind) = kind {
                                by_kind[kind as usize] += tracer.now() - start;
                            }
                            tracer.span("process_net", kind, start);
                        }
                    }
                    processed += 1;
                    progressed = true;
                    if processed >= PUMP_BUDGET {
                        return Err(format!("pump did not quiesce after {processed} messages"));
                    }
                }
            }
            if !progressed {
                return Ok(());
            }
        }
    }

    fn visible_everywhere(&self, owner: &PeerId) -> usize {
        let group = GroupId::new(GROUP);
        self.brokers
            .iter()
            .filter(|b| {
                !b.lookup(&group, PipeAdvertisement::DOC_TYPE, Some(*owner))
                    .is_empty()
            })
            .count()
    }

    fn stats(&self) -> FederationStats {
        self.brokers
            .iter()
            .fold(FederationStats::default(), |sum, b| {
                combine(&sum, &b.federation_stats(), u64::wrapping_add)
            })
    }
}

/// Combines the federation counters this workload reports, field by field.
fn combine(a: &FederationStats, b: &FederationStats, op: fn(u64, u64) -> u64) -> FederationStats {
    FederationStats {
        syncs_sent: op(a.syncs_sent, b.syncs_sent),
        repair_bytes: op(a.repair_bytes, b.repair_bytes),
        descent_rounds: op(a.descent_rounds, b.descent_rounds),
        repair_pages: op(a.repair_pages, b.repair_pages),
        entries_repaired: op(a.entries_repaired, b.entries_repaired),
        eager_pushes: op(a.eager_pushes, b.eager_pushes),
        ihaves_sent: op(a.ihaves_sent, b.ihaves_sent),
        grafts_sent: op(a.grafts_sent, b.grafts_sent),
        prunes_sent: op(a.prunes_sent, b.prunes_sent),
        swim_probes: op(a.swim_probes, b.swim_probes),
        swim_suspicions: op(a.swim_suspicions, b.swim_suspicions),
        swim_refutations: op(a.swim_refutations, b.swim_refutations),
        ..FederationStats::default()
    }
}

/// The counts one epoch produced: identical for identical seeds, traced or
/// not.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochCounts {
    /// Repair ticks until each publish was visible at every broker.
    pub visible_ticks: Vec<u64>,
    /// Sum over publishes of the share of brokers the eager pump reached.
    pub eager_coverage: f64,
    /// Repair ticks run (including the final ones).
    pub ticks: u64,
    /// Bytes delivered over the epoch.
    pub bytes_sent: u64,
    /// Messages delivered over the epoch.
    pub messages_sent: u64,
    /// Messages the seeded drop discarded.
    pub messages_dropped: u64,
    /// Federation counters summed over brokers.
    pub federation: FederationStats,
    /// `(broker, live peer)` pairs held dead at the end.
    pub false_dead: u64,
    /// Whether the replicas converged and every publish became visible.
    pub healed: bool,
}

impl EpochCounts {
    /// Adds another epoch's counts to these.
    fn merge(&mut self, other: EpochCounts) {
        self.visible_ticks.extend(other.visible_ticks);
        self.eager_coverage += other.eager_coverage;
        self.ticks += other.ticks;
        self.bytes_sent += other.bytes_sent;
        self.messages_sent += other.messages_sent;
        self.messages_dropped += other.messages_dropped;
        self.federation = combine(&self.federation, &other.federation, u64::wrapping_add);
        self.false_dead += other.false_dead;
        self.healed &= other.healed;
    }
}

/// Timings of one epoch, in scaled time.
struct EpochTimes {
    /// Per publish: busy time from its start until every broker's lookup
    /// returns it.
    visible_ms: Vec<f64>,
    /// Per publish: the publish call and its eager pump.
    publish_ms: Vec<f64>,
    xml_bytes: usize,
    /// Seconds spent in the program (publishes, pumps, ticks): the clock
    /// the latencies are read on.
    busy: f64,
    ticks: f64,
    pump: f64,
    /// `process_net` seconds per message kind (traced runs only).
    by_kind: Box<[f64; 256]>,
}

/// Runs one epoch on a fresh federation built from `seed`.  The program is
/// idle between steps, so the clock calibrates there.
fn epoch(
    shape: Shape,
    seed: u64,
    clock: &Clock,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(EpochCounts, EpochTimes), String> {
    let fabric = Fabric::build(shape, seed);
    let drop: Arc<dyn Adversary> =
        RandomDrop::new(workload::derive(seed, 0xD0), shape.drop_percent);
    match tracer {
        Some(tracer) => fabric
            .network
            .set_adversary(Tap::new(Arc::clone(tracer), Some(drop))),
        None => fabric.network.set_adversary(drop),
    }
    let tracer = tracer.map(|t| t.as_ref());
    let group = GroupId::new(GROUP);
    let mut rng = workload::rng(seed, 0xB1);
    let mut times = EpochTimes {
        visible_ms: Vec::with_capacity(shape.publishes),
        publish_ms: Vec::with_capacity(shape.publishes),
        xml_bytes: 0,
        busy: 0.0,
        ticks: 0.0,
        pump: 0.0,
        by_kind: Box::new([0.0; 256]),
    };
    let mut counts = EpochCounts {
        visible_ticks: Vec::with_capacity(shape.publishes),
        eager_coverage: 0.0,
        ticks: 0,
        bytes_sent: 0,
        messages_sent: 0,
        messages_dropped: 0,
        federation: FederationStats::default(),
        false_dead: 0,
        healed: false,
    };
    let net_before = fabric.network.stats();
    let fed_before = fabric.stats();
    // Publishes not yet visible everywhere: owner, tick count and busy time
    // at the publish.
    let mut pending: Vec<(PeerId, u64, f64)> = Vec::new();

    let tick = |counts: &mut EpochCounts,
                times: &mut EpochTimes,
                pending: &mut Vec<(PeerId, u64, f64)>| {
        counts.ticks += 1;
        if let Some(tracer) = tracer {
            tracer.set_op(1 << 63 | counts.ticks);
        }
        clock.idle();
        let start = clock.now();
        for broker in &fabric.brokers {
            Tracer::call(tracer, "start_repair_round", || broker.start_repair_round());
        }
        fabric.pump(tracer, &mut times.by_kind)?;
        let elapsed = clock.now() - start;
        times.ticks += elapsed;
        times.busy += elapsed;
        pending.retain(|(owner, since, published)| {
            let visible = fabric.visible_everywhere(owner) == shape.brokers;
            if visible {
                counts.visible_ticks.push(counts.ticks - since);
                times.visible_ms.push((times.busy - published) * 1e3);
            }
            !visible
        });
        Ok::<(), String>(())
    };

    for i in 0..shape.publishes {
        let origin = &fabric.brokers[i % shape.brokers];
        let owner = PeerId::random(&mut rng);
        let xml = PipeAdvertisement {
            owner,
            group: group.clone(),
            name: format!("inbox-{i}"),
        }
        .to_xml();
        times.xml_bytes += xml.len();
        if let Some(tracer) = tracer {
            tracer.set_op(i as u64 + 1);
        }
        clock.idle();
        let published = times.busy;
        let start = clock.now();
        Tracer::call(tracer, "index_and_distribute", || {
            origin.index_and_distribute(owner, &group, PipeAdvertisement::DOC_TYPE, &xml)
        });
        let pump_start = clock.now();
        fabric.pump(tracer, &mut times.by_kind)?;
        let end = clock.now();
        times.pump += end - pump_start;
        times.busy += end - start;
        times.publish_ms.push((end - start) * 1e3);

        let reached = fabric.visible_everywhere(&owner);
        counts.eager_coverage += reached as f64 / shape.brokers as f64;
        if reached == shape.brokers {
            counts.visible_ticks.push(0);
            times.visible_ms.push((end - start) * 1e3);
        } else {
            pending.push((owner, counts.ticks, published));
        }
        if (i + 1) % shape.tick_every == 0 {
            tick(&mut counts, &mut times, &mut pending)?;
        }
    }
    for _ in 0..FINAL_TICKS {
        if pending.is_empty() && federation::converged(&fabric.brokers) {
            counts.healed = true;
            break;
        }
        tick(&mut counts, &mut times, &mut pending)?;
    }
    let net = fabric.network.stats();
    counts.bytes_sent = net.bytes_sent - net_before.bytes_sent;
    counts.messages_sent = net.messages_sent - net_before.messages_sent;
    counts.messages_dropped = net.messages_dropped - net_before.messages_dropped;
    counts.federation = combine(&fabric.stats(), &fed_before, u64::wrapping_sub);
    counts.false_dead = fabric
        .brokers
        .iter()
        .map(|b| b.swim_dead_members().len() as u64)
        .sum();
    Ok((counts, times))
}

/// Runs the workload.
pub fn run(settings: &Settings, clock: &Arc<Clock>) -> Outcome {
    let shape = if settings.quick { QUICK } else { FULL };
    let mut outcome = Outcome::default();
    // The set-up this workload pays is building the federation itself.
    let _ = workload::timed_setup(
        &mut outcome,
        clock,
        |repeat| Fabric::build(shape, workload::derive(settings.seed, repeat)),
        drop,
    );
    let tracer = settings
        .trace
        .then(|| Tracer::new(Arc::clone(clock), Vec::new()));
    let warmup = Instant::now();
    let mut warm = 0;
    while warm == 0 || warmup.elapsed() < settings.warmup {
        let result = epoch(
            shape,
            workload::derive(settings.seed, 0xA000 + warm),
            clock,
            None,
        );
        if outcome.check("warm-up epoch", result).is_none() {
            return outcome;
        }
        warm += 1;
    }

    // The timed phase is a whole number of epochs sized to the phase, each
    // on a seed of its own: every count then depends on the seed and the
    // phase length alone.
    let epochs = ((settings.phase.as_secs_f64() / shape.epoch_seconds).round() as u64).max(1);
    if let Some(tracer) = &tracer {
        tracer.arm(true);
    }
    let mut total: Option<EpochCounts> = None;
    let mut busy = 0.0;
    let mut ticks = 0.0;
    let mut pump = 0.0;
    let mut by_kind = [0.0; 256];
    let mut xml_bytes = 0usize;
    let mut publish_ms = Vec::new();
    for e in 0..epochs {
        let result = epoch(
            shape,
            workload::derive(settings.seed, e),
            clock,
            tracer.as_ref(),
        );
        let Some((counts, times)) = outcome.check("epoch", result) else {
            return outcome;
        };
        outcome.attempted += shape.publishes as u64;
        outcome.expect(
            "every publish visible at every broker and replicas converged",
            counts.healed,
        );
        outcome.latencies_ms.extend(&times.visible_ms);
        publish_ms.extend(&times.publish_ms);
        xml_bytes += times.xml_bytes;
        busy += times.busy;
        ticks += times.ticks;
        pump += times.pump;
        for (sum, part) in by_kind.iter_mut().zip(times.by_kind.iter()) {
            *sum += *part;
        }
        match &mut total {
            None => total = Some(counts),
            Some(total) => total.merge(counts),
        }
    }
    if let Some(tracer) = &tracer {
        tracer.arm(false);
    }
    let counts = total.expect("one epoch ran");
    let publishes = (epochs * shape.publishes as u64) as f64;
    outcome.ops = publishes;
    outcome.phase_s = busy;
    outcome.wire_bytes = counts.bytes_sent;

    let visible: Vec<f64> = counts.visible_ticks.iter().map(|t| *t as f64).collect();
    let fed = &counts.federation;
    let tick_count = counts.ticks as f64;
    let visible_p50 = stats::median(&visible).unwrap_or(f64::NAN);
    let visible_p90 = stats::percentile(&visible, 0.9).unwrap_or(f64::NAN);
    outcome.reading("visible_ticks_p50", visible_p50, "ticks");
    outcome.reading("visible_ticks_p90", visible_p90, "ticks");
    outcome.reading("eager_coverage", counts.eager_coverage / publishes, "ratio");
    outcome.reading(
        "msgs_per_publish",
        counts.messages_sent as f64 / publishes,
        "count",
    );
    outcome.reading("dropped", counts.messages_dropped as f64, "count");
    outcome.reading("epochs", epochs as f64, "count");
    outcome.reading("tick_ms_mean", ticks * 1e3 / tick_count, "ms");
    outcome.reading(
        "publish_pump_ms_p50",
        stats::median(&publish_ms).unwrap_or(f64::NAN),
        "ms",
    );

    if let Some(tracer) = &tracer {
        let index_time = tracer.span_totals("index_and_distribute").1;
        let process_time = tracer.span_totals("process_net").1;
        outcome.layer(
            "op.traced_ms_p50",
            stats::median(&outcome.latencies_ms).unwrap_or(0.0),
        );
        // The op is a publish until visible everywhere: the origin's call
        // is its self time, the remote brokers' pumps and ticks the rest.
        outcome.layer("op.self_ms_mean", index_time * 1e3 / publishes);
        outcome.layer("op.broker_share", stats::ratio(busy - index_time, busy));
        outcome.layer("broker.in_service_mean", stats::ratio(process_time, busy));
        outcome.layer("call.publish_share", stats::ratio(index_time, busy));
        outcome.layer("call.pump_share", stats::ratio(pump, busy));
        outcome.layer("call.tick_share", stats::ratio(ticks, busy));
        outcome.layer(
            "app.goodput_mib_s",
            xml_bytes as f64 / (1024.0 * 1024.0) / busy,
        );
        workload::wire_layers(&mut outcome, tracer, publishes);
        outcome.layer("backbone.visible_ticks_p50", visible_p50);
        outcome.layer("backbone.visible_ticks_p90", visible_p90);
        outcome.layer("plumtree.eager_coverage", counts.eager_coverage / publishes);
        outcome.layer(
            "plumtree.eager_per_publish",
            fed.eager_pushes as f64 / publishes,
        );
        outcome.layer(
            "plumtree.ihave_per_publish",
            fed.ihaves_sent as f64 / publishes,
        );
        outcome.layer(
            "plumtree.graft_per_publish",
            fed.grafts_sent as f64 / publishes,
        );
        outcome.layer(
            "plumtree.prune_per_publish",
            fed.prunes_sent as f64 / publishes,
        );
        outcome.layer(
            "gossip.syncs_per_publish",
            fed.syncs_sent as f64 / publishes,
        );
        outcome.layer(
            "antientropy.kib_per_publish",
            fed.repair_bytes as f64 / 1024.0 / publishes,
        );
        outcome.layer(
            "antientropy.descent_legs_per_tick",
            fed.descent_rounds as f64 / tick_count,
        );
        outcome.layer(
            "antientropy.pages_per_tick",
            fed.repair_pages as f64 / tick_count,
        );
        outcome.layer(
            "antientropy.entries_repaired_per_mib",
            stats::ratio(
                fed.entries_repaired as f64,
                fed.repair_bytes as f64 / (1024.0 * 1024.0),
            ),
        );
        outcome.layer("swim.probes_per_tick", fed.swim_probes as f64 / tick_count);
        outcome.layer("swim.suspicions", fed.swim_suspicions as f64);
        outcome.layer("swim.refutations", fed.swim_refutations as f64);
        outcome.layer("swim.false_dead", counts.false_dead as f64);
        outcome.layer(
            "membership.shuffles_per_tick",
            tracer.kind_totals(MessageKind::MembershipShuffle).count as f64 / tick_count,
        );
        let process_total: f64 = by_kind.iter().sum();
        for (kind, name) in PROCESS_SHARES {
            outcome.layer(name, stats::ratio(by_kind[kind as usize], process_total));
        }
        probes::measure(
            &mut outcome,
            clock,
            &probes::Inputs::standalone(settings.seed),
        );
        outcome.tracer = Some(Arc::clone(tracer));
    }
    outcome
}

/// Message kinds whose share of `process_net` time the traced run reports.
pub const PROCESS_SHARES: [(MessageKind, &str); 6] = [
    (
        MessageKind::BrokerSync,
        "broker.process_net.share.BrokerSync",
    ),
    (
        MessageKind::PlumtreeIHave,
        "broker.process_net.share.PlumtreeIHave",
    ),
    (
        MessageKind::AntiEntropyDigest,
        "broker.process_net.share.AntiEntropyDigest",
    ),
    (
        MessageKind::AntiEntropyRange,
        "broker.process_net.share.AntiEntropyRange",
    ),
    (
        MessageKind::AntiEntropySnapshot,
        "broker.process_net.share.AntiEntropySnapshot",
    ),
    (MessageKind::SwimPing, "broker.process_net.share.SwimPing"),
];

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Shape = Shape {
        brokers: 16,
        publishes: 64,
        tick_every: 8,
        drop_percent: 2,
        epoch_seconds: 0.1,
    };

    #[test]
    fn epoch_counts_repeat_exactly() {
        let clock = Clock::new();
        let (a, _) = epoch(SMALL, 7, &clock, None).expect("epoch");
        let (b, _) = epoch(SMALL, 7, &clock, None).expect("epoch");
        assert!(a.healed);
        assert_eq!(a.visible_ticks.len(), SMALL.publishes);
        assert!(a.messages_dropped > 0, "the seeded drop must bite");
        assert_eq!(a, b);
    }

    #[test]
    fn the_tap_does_not_change_delivery() {
        let clock = Arc::new(Clock::new());
        let (untraced, _) = epoch(SMALL, 9, &clock, None).expect("epoch");
        let tracer = Tracer::new(Arc::clone(&clock), Vec::new());
        tracer.arm(true);
        let (traced, _) = epoch(SMALL, 9, &clock, Some(&tracer)).expect("epoch");
        assert_eq!(untraced, traced);
        assert_eq!(
            tracer.all_kinds().count - tracer.all_kinds().dropped,
            traced.messages_sent
        );
        assert!(tracer.span_totals("process_net").0 > 0);
    }
}
