//! E2 — Figure 2: plain `sendMsgPeer` vs `secureMsgPeer` end-to-end cost as
//! a function of the payload size (overhead falls as latency dominates).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use jxta_bench::{
    build_messaging_pair, build_world, make_payload, measure_plain_message,
    measure_secure_message, ExperimentConfig, FIGURE2_PAYLOAD_SIZES,
};

fn bench_msg(c: &mut Criterion) {
    let config = ExperimentConfig::default();
    let mut world = build_world(&config, 2);
    let mut pair = build_messaging_pair(&mut world);

    let mut group = c.benchmark_group("msg_overhead");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for &size in &FIGURE2_PAYLOAD_SIZES {
        let payload = make_payload(size);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("plain", size), &payload, |b, payload| {
            b.iter(|| measure_plain_message(&mut pair, payload).total())
        });
        group.bench_with_input(BenchmarkId::new("secure", size), &payload, |b, payload| {
            b.iter(|| measure_secure_message(&mut pair, payload).total())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_msg);
criterion_main!(benches);
