//! The benchmark's definition: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics.  `BENCHMARK.json` at the
//! repository root states the same; a test keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every untraced run of every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// A per-layer metric: reported by every traced run of every workload (0
/// where the workload does not reach the layer).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Stated in `BENCHMARK.json`; per-layer metrics have no bound to judge.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

/// Workload names with the reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "session_churn",
        "new client per session: join, signed publish, cold resolve, 1 KiB message; broker RSA, XMLdsig and verify-cache misses",
    ),
    (
        "steady_messaging",
        "secureMsgPeer between resolved peers, 256 B to 64 KiB, every 16th a group send; envelope, RSA, AES/HMAC and encoding",
    ),
    (
        "publish_storm",
        "512 outstanding identical signed refreshes into a pipelined 2-broker federation; cache-hit write path and ingress",
    ),
    (
        "backbone_multi_origin",
        "64 overlay brokers all publishing over 2% loss with repair ticks; Plumtree, HyParView, SWIM, anti-entropy, no crypto",
    ),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics.  An "op" is each workload's headline operation:
/// a join (session_churn), a one-to-one secure message sent and verified
/// (steady_messaging), a publish until its ack (publish_storm), a publish
/// until every broker's lookup returns it (backbone_multi_origin).  Times
/// are on the scaled clock ([`crate::clock`]).
///
/// Each bound is about three times the quartile spread the metric showed
/// over ten seeds on the shared 2-vCPU reference host, or more.  Bytes per
/// op differ by seed but repeat exactly for a given one; peak memory
/// steps with hash-table growth, by seed.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_ms_p50", "ms", Better::Lower, 0.25),
    e2e("op_ms_p90", "ms", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("wire_kib_per_op", "KiB", Better::Lower, 0.2),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics.
pub const PER_LAYER: &[PerLayer] = &[
    // The headline operation, split at the broker boundary.
    layer("op.traced_ms_p50", "ms", Lower),
    layer("op.self_ms_mean", "ms", Lower),
    layer("op.broker_share", "ratio", Lower),
    layer("broker.in_service_mean", "count", Lower),
    layer("app.goodput_mib_s", "MiB/s", Higher),
    layer("net.msgs_per_op", "count", Lower),
    // Share of the timed phase spent in each public call.
    layer("call.connect_share", "ratio", Lower),
    layer("call.login_share", "ratio", Lower),
    layer("call.publish_share", "ratio", Lower),
    layer("call.resolve_share", "ratio", Lower),
    layer("call.send_share", "ratio", Lower),
    layer("call.receive_share", "ratio", Lower),
    layer("call.group_share", "ratio", Lower),
    layer("call.drain_share", "ratio", Lower),
    layer("call.ack_wait_share", "ratio", Lower),
    layer("call.pump_share", "ratio", Lower),
    layer("call.tick_share", "ratio", Lower),
    layer("group.lookup_share", "ratio", Lower),
    // Broker requests and ingress.
    layer("broker.verify_cache.hit_ratio", "ratio", Higher),
    layer("broker.push_per_publish", "count", Lower),
    layer("ingress.reorder_waits_per_msg", "count", Lower),
    layer("ingress.mean_apply_batch", "count", Higher),
    layer("ingress.lane_skew", "ratio", Lower),
    layer("ingress.barrier_drains_per_kmsg", "count", Lower),
    layer("net.inbox_overflows_per_kmsg", "count", Lower),
    layer("net.shed", "count", Lower),
    layer("gossip.syncs_per_publish", "count", Lower),
    // The epidemic backbone.
    layer("backbone.visible_ticks_p50", "ticks", Lower),
    layer("backbone.visible_ticks_p90", "ticks", Lower),
    layer("plumtree.eager_coverage", "ratio", Higher),
    layer("plumtree.eager_per_publish", "count", Lower),
    layer("plumtree.ihave_per_publish", "count", Lower),
    layer("plumtree.graft_per_publish", "count", Lower),
    layer("plumtree.prune_per_publish", "count", Lower),
    layer("antientropy.kib_per_publish", "KiB", Lower),
    layer("antientropy.descent_legs_per_tick", "count", Lower),
    layer("antientropy.pages_per_tick", "count", Lower),
    layer("antientropy.entries_repaired_per_mib", "1/MiB", Higher),
    layer("swim.probes_per_tick", "count", Lower),
    layer("swim.suspicions", "count", Lower),
    layer("swim.refutations", "count", Lower),
    layer("swim.false_dead", "count", Lower),
    layer("membership.shuffles_per_tick", "count", Lower),
    layer("net.msgs_per_op.LookupRequest", "count", Lower),
    layer("net.msgs_per_op.AdvertisementPush", "count", Lower),
    layer("net.msgs_per_op.BrokerSync", "count", Lower),
    layer("net.msgs_per_op.PlumtreeIHave", "count", Lower),
    layer("net.msgs_per_op.PlumtreeGraft", "count", Lower),
    layer("net.msgs_per_op.AntiEntropyDigest", "count", Lower),
    layer("net.msgs_per_op.AntiEntropyRange", "count", Lower),
    layer("net.msgs_per_op.AntiEntropySnapshot", "count", Lower),
    layer("net.msgs_per_op.MembershipShuffle", "count", Lower),
    layer("net.msgs_per_op.SwimPing", "count", Lower),
    layer("broker.process_net.share.BrokerSync", "ratio", Lower),
    layer("broker.process_net.share.PlumtreeIHave", "ratio", Lower),
    layer("broker.process_net.share.AntiEntropyDigest", "ratio", Lower),
    layer("broker.process_net.share.AntiEntropyRange", "ratio", Lower),
    layer(
        "broker.process_net.share.AntiEntropySnapshot",
        "ratio",
        Lower,
    ),
    layer("broker.process_net.share.SwimPing", "ratio", Lower),
    // Layer probes: crypto/bigint, xmldoc, overlay message, signed adverts.
    layer("rsa.sign_us", "us", Lower),
    layer("rsa.verify_us", "us", Lower),
    layer("credential.verify_us", "us", Lower),
    layer("envelope.seal_us.256B", "us", Lower),
    layer("envelope.open_us.256B", "us", Lower),
    layer("envelope.seal_us.64KiB", "us", Lower),
    layer("envelope.open_us.64KiB", "us", Lower),
    layer("message.encode_us.64KiB", "us", Lower),
    layer("message.decode_us.64KiB", "us", Lower),
    layer("advert.sign_us", "us", Lower),
    layer("advert.validate.self_us", "us", Lower),
    layer("message.decode_us.publish", "us", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark definition the repository publishes.
    const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

    #[test]
    fn benchmark_json_states_the_same_definition() {
        let json = BENCHMARK_JSON;
        for (name, why) in WORKLOADS {
            let entry = format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // Nothing else is named: no metric or workload the binary lacks.
        let named = json.matches("\"name\":").count();
        assert_eq!(named, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
        assert!(json.contains("\"paths\": [\"crates/bench/src/bin/benchmark\"]"));
    }

    #[test]
    fn definition_respects_the_format_limits() {
        let names = WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        let mut seen = std::collections::BTreeSet::new();
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(seen.insert(name), "{name} is used twice");
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128);
    }
}
