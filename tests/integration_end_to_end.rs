//! End-to-end scenario test: a small e-learning deployment exercising every
//! secure primitive together, plus the experiment harness's invariants.

use jxta_bench::{
    experiment_join_overhead, experiment_msg_overhead, ExperimentConfig,
};
use jxta_overlay::net::LinkModel;
use jxta_overlay::GroupId;
use jxta_overlay_secure::setup::SecureNetworkBuilder;

#[test]
fn full_classroom_scenario() {
    let mut setup = SecureNetworkBuilder::new(30)
        .with_key_bits(512)
        .with_link(LinkModel::lan())
        .with_user("teacher", "pw-t", &["class"])
        .with_user("s1", "pw-1", &["class"])
        .with_user("s2", "pw-2", &["class"])
        .with_user("s3", "pw-3", &["class"])
        .build();
    let broker = setup.broker_id();
    let class = GroupId::new("class");

    let mut teacher = setup.secure_client("teacher");
    teacher.secure_join(broker, "teacher", "pw-t").unwrap();
    teacher.publish_secure_pipe(&class).unwrap();

    let mut students: Vec<_> = (1..=3)
        .map(|i| {
            let mut student = setup.secure_client(&format!("student-{i}"));
            student
                .secure_join(broker, &format!("s{i}"), &format!("pw-{i}"))
                .unwrap();
            student.publish_secure_pipe(&class).unwrap();
            student
        })
        .collect();

    // Group announcement (sequential) and a follow-up (parallel).
    let (sent, _) = teacher.secure_msg_peer_group(&class, "welcome to the course").unwrap();
    assert_eq!(sent, 3);
    let (sent, _) = teacher
        .secure_msg_peer_group_parallel(&class, "first assignment is out")
        .unwrap();
    assert_eq!(sent, 3);

    // Every student receives both, authenticated as coming from the teacher,
    // and answers privately.
    for (i, student) in students.iter_mut().enumerate() {
        let received = student.receive_secure_messages().unwrap();
        let texts: Vec<_> = received.iter().map(|m| m.text.clone()).collect();
        assert!(texts.contains(&"welcome to the course".to_string()));
        assert!(texts.contains(&"first assignment is out".to_string()));
        assert!(received.iter().all(|m| m.sender_username == "teacher"));
        student
            .secure_msg_peer(&class, teacher.id(), &format!("question from student {i}"))
            .unwrap();
    }
    let questions = teacher.receive_secure_messages().unwrap();
    assert_eq!(questions.len(), 3);

    // The broker saw exactly four secure logins and issued four credentials.
    assert_eq!(setup.broker_extension().stats().credentials_issued, 4);
    assert_eq!(setup.broker().session_count(), 4);
}

#[test]
fn experiment_e1_shape_holds() {
    // The reproduction claim for E1: the secure join costs more than the
    // plain join (the paper reports +81.76%).  Elapsed time decides no
    // verdict here; `experiments -- e1` prints the measured overhead.  The
    // modelled wire time repeats exactly: the secure join's challenge,
    // signatures and credential make its messages longer.
    let result = experiment_join_overhead(&ExperimentConfig::quick());
    assert!(
        result.secure_wire_ms > result.plain_wire_ms,
        "secure join should put more bytes on the wire: {:.3} vs {:.3} ms",
        result.secure_wire_ms,
        result.plain_wire_ms
    );
}

#[test]
fn experiment_e2_shape_holds() {
    // The reproduction claim for Figure 2: relative overhead decreases as
    // the payload grows.  The envelope adds a fixed number of bytes while
    // the plain message's wire time grows with the payload, so the modelled
    // wire overhead decays; it repeats exactly, where elapsed time does not.
    let config = ExperimentConfig {
        iterations: 3,
        ..ExperimentConfig::quick()
    };
    let rows = experiment_msg_overhead(&config, &[512, 64 << 10, 1 << 20]);
    assert_eq!(rows.len(), 3);
    assert!(
        rows.first().unwrap().wire_overhead_percent > rows.last().unwrap().wire_overhead_percent,
        "wire overhead must decay from smallest to largest payload: {rows:?}"
    );
    for row in &rows {
        assert!(row.secure_wire_ms > row.plain_wire_ms, "sanity: {row:?}");
    }
}

#[test]
fn identically_seeded_deployments_are_identical() {
    // Every RNG in the test suite is explicitly seeded — no OS entropy — so
    // two deployments built from the same seed must agree bit-for-bit on all
    // derived identities.  This is what makes any integration failure
    // reproducible from its seed alone.
    let build = || {
        SecureNetworkBuilder::new(0xD37E)
            .with_key_bits(512)
            .with_user("carol", "pw-c", &["repro"])
            .build()
    };
    let mut a = build();
    let mut b = build();
    assert_eq!(a.broker_id(), b.broker_id());

    let broker = a.broker_id();
    let mut carol_a = a.secure_client("carol-dev");
    let mut carol_b = b.secure_client("carol-dev");
    assert_eq!(carol_a.id(), carol_b.id());
    carol_a.secure_join(broker, "carol", "pw-c").unwrap();
    carol_b.secure_join(b.broker_id(), "carol", "pw-c").unwrap();
    // Compare the full serialised credentials: subject, public key, issuer
    // signature and validity must all be derived identically from the seed.
    assert_eq!(
        carol_a.credential().unwrap().to_bytes(),
        carol_b.credential().unwrap().to_bytes()
    );
}
