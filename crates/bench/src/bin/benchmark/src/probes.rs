//! Layer probes: after a traced run's timed phase, time the public crypto,
//! XML and message functions a primitive is built from, on inputs taken
//! from the run's deployment (a live client's identity, its broker-issued
//! credential and its real signed advertisement).  Times are scaled, as on
//! the rest of the run's clock.  The probes run in rounds, one call each per
//! round, so that every probe sees the same mix of host speeds.

use crate::clock::Clock;
use crate::stats;
use crate::workload::{self, Outcome};
use jxta_crypto::envelope::{open_envelope, seal_envelope};
use jxta_crypto::rsa::RsaPublicKey;
use jxta_overlay::advertisement::{Advertisement, PipeAdvertisement};
use jxta_overlay::{GroupId, LinkModel, Message, MessageKind, PeerId};
use jxta_overlay_secure::broker_ext::message_signed_content;
use jxta_overlay_secure::setup::{SecureNetwork, SecureNetworkBuilder};
use jxta_overlay_secure::signed_adv::{
    signed_pipe_advertisement, validate_signed_pipe_advertisement_with,
};
use jxta_overlay_secure::{Credential, PeerIdentity, SecureClient, TrustAnchors};
use std::cell::Cell;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time the rounds of probe calls take together.
const PROBE_TIME: Duration = Duration::from_secs(2);
/// Fewest rounds, however slow the calls.
const PROBE_MIN_ROUNDS: usize = 20;

/// What the probes run on.
pub struct Inputs {
    identity: PeerIdentity,
    credential: Credential,
    issuer_key: RsaPublicKey,
    trust: TrustAnchors,
    group: GroupId,
}

impl Inputs {
    /// Takes the inputs from a joined client of a running deployment.
    pub fn from_client(net: &SecureNetwork, client: &SecureClient) -> Inputs {
        let mut trust = TrustAnchors::new(net.admin().credential().clone()).expect("admin anchor");
        let broker = net.broker_extension().credential().clone();
        trust
            .add_broker(broker.clone())
            .expect("broker credential chains to the admin");
        Inputs {
            identity: client.identity().clone(),
            credential: client.credential().expect("joined client").clone(),
            issuer_key: broker.public_key,
            trust,
            group: client.inner().groups()[0].clone(),
        }
    }

    /// A one-broker, one-client deployment built only to take inputs from
    /// (for workloads that run without the secure extension).
    pub fn standalone(seed: u64) -> Inputs {
        let mut net = SecureNetworkBuilder::new(seed)
            .with_link(LinkModel::ideal())
            .with_user("probe", "probe-password", &["probe"])
            .build();
        let mut client = net.secure_client("probe");
        client
            .secure_join(net.broker_id(), "probe", "probe-password")
            .expect("probe client join");
        let inputs = Inputs::from_client(&net, &client);
        net.shutdown();
        inputs
    }
}

/// One probe: a call that returns the scaled seconds spent in a child
/// span, which its time excludes (zero for a probe without one).
type Probe<'a> = (&'static str, Box<dyn FnMut() -> f64 + 'a>);

/// Runs every probe and records the median scaled time of a call, in
/// microseconds, as a per-layer metric.
pub fn measure(outcome: &mut Outcome, clock: &Clock, inputs: &Inputs) {
    let mut rng = workload::rng(0x9B0B, 1);
    let id = &inputs.identity;
    let key = id.public_key();
    let content = message_signed_content(inputs.group.as_str(), &workload::text(&mut rng, 1024));
    let signature = id.sign(&content).expect("sign");
    let small = workload::text(&mut rng, 256).into_bytes();
    let large = workload::text(&mut rng, 64 * 1024).into_bytes();
    let small_envelope = seal_envelope(&mut rng, key, &small).expect("seal");
    let large_envelope = seal_envelope(&mut rng, key, &large).expect("seal");
    let message = Message::new(MessageKind::SecurePeerText, id.peer_id(), 1)
        .with_element("envelope", large_envelope.to_bytes());
    let message_bytes = message.to_bytes();
    let advertisement = PipeAdvertisement {
        owner: id.peer_id(),
        group: inputs.group.clone(),
        name: "probe-inbox".to_string(),
    };
    let xml =
        signed_pipe_advertisement(&advertisement, id, &inputs.credential).expect("sign advert");
    let owner: PeerId = id.peer_id();
    let publish = Message::new(MessageKind::PublishAdvertisement, owner, 1)
        .with_str("group", inputs.group.as_str())
        .with_str("doc-type", PipeAdvertisement::DOC_TYPE)
        .with_str("xml", &xml)
        .to_bytes();
    let (mut small_rng, mut large_rng) = (workload::rng(0x9B0B, 2), workload::rng(0x9B0B, 3));

    let mut probes: Vec<Probe> = vec![
        (
            "rsa.sign_us",
            Box::new(|| {
                black_box(id.sign(black_box(&content)).expect("sign"));
                0.0
            }),
        ),
        (
            "rsa.verify_us",
            Box::new(|| {
                key.verify(black_box(&content), &signature).expect("verify");
                0.0
            }),
        ),
        (
            "credential.verify_us",
            Box::new(|| {
                black_box(&inputs.credential)
                    .verify(&inputs.issuer_key)
                    .expect("credential");
                0.0
            }),
        ),
        (
            "envelope.seal_us.256B",
            Box::new(|| {
                black_box(seal_envelope(&mut small_rng, key, black_box(&small)).expect("seal"));
                0.0
            }),
        ),
        (
            "envelope.open_us.256B",
            Box::new(|| {
                black_box(
                    open_envelope(id.private_key(), black_box(&small_envelope)).expect("open"),
                );
                0.0
            }),
        ),
        (
            "envelope.seal_us.64KiB",
            Box::new(|| {
                black_box(seal_envelope(&mut large_rng, key, black_box(&large)).expect("seal"));
                0.0
            }),
        ),
        (
            "envelope.open_us.64KiB",
            Box::new(|| {
                black_box(
                    open_envelope(id.private_key(), black_box(&large_envelope)).expect("open"),
                );
                0.0
            }),
        ),
        (
            "message.encode_us.64KiB",
            Box::new(|| {
                black_box(black_box(&message).to_bytes());
                0.0
            }),
        ),
        (
            "message.decode_us.64KiB",
            Box::new(|| {
                black_box(Message::from_bytes(black_box(&message_bytes)).expect("decode"));
                0.0
            }),
        ),
        (
            "advert.sign_us",
            Box::new(|| {
                black_box(
                    signed_pipe_advertisement(&advertisement, id, &inputs.credential)
                        .expect("sign"),
                );
                0.0
            }),
        ),
        // Validation minus its RSA child span: XML parse, canonicalisation,
        // credential decoding and the owner checks.
        (
            "advert.validate.self_us",
            Box::new(|| {
                let rsa = Cell::new(0.0);
                validate_signed_pipe_advertisement_with(&xml, owner, &inputs.trust, |k, m, s| {
                    let child = clock.now();
                    let result = k.verify(m, s);
                    rsa.set(rsa.get() + clock.now() - child);
                    result
                })
                .expect("validate");
                rsa.get()
            }),
        ),
        (
            "message.decode_us.publish",
            Box::new(|| {
                black_box(Message::from_bytes(black_box(&publish)).expect("decode"));
                0.0
            }),
        ),
    ];

    let mut samples = vec![Vec::new(); probes.len()];
    let wall = Instant::now();
    let mut rounds = 0;
    while rounds < PROBE_MIN_ROUNDS || wall.elapsed() < PROBE_TIME {
        for ((_, probe), samples) in probes.iter_mut().zip(&mut samples) {
            clock.idle();
            let start = clock.now();
            let child = probe();
            samples.push((clock.now() - start - child) * 1e6);
        }
        rounds += 1;
    }
    for ((name, _), samples) in probes.iter().zip(&samples) {
        outcome.layer(name, stats::median(samples).expect("probe ran"));
    }
}
