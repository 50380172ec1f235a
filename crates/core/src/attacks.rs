//! Programmable adversaries.
//!
//! Section 2.3 of the paper lists the threats the plain JXTA-Overlay is
//! exposed to: eavesdropping of transmitted data (including the clear-text
//! username and password), advertisement forgery by legitimate users, and
//! fake brokers reached through traffic redirection (e.g. DNS spoofing).
//! The paper argues informally that the secure primitives defeat them; this
//! module makes those arguments *testable* by implementing each adversary
//! against the simulated network:
//!
//! * [`Eavesdropper`] — records every payload crossing the network and can be
//!   asked whether a given byte string (e.g. a password) was visible.
//! * [`LoginReplayAttacker`] — captures login traffic and replays it later,
//!   the attack `secureLogin`'s session identifier defeats.
//! * [`RedirectToFakeBroker`] — redirects all traffic addressed to the real
//!   broker towards a rogue peer, modelling DNS spoofing.
//! * [`FakeBroker`] — the rogue peer itself: it happily answers `connect`
//!   and `secureConnection` requests with a self-made credential, which a
//!   plain client accepts and a secure client rejects.
//!
//! With a broker *federation*, the attack surface grows by the inter-broker
//! links, which group-security work on structured overlays shows must be
//! re-validated separately: a message that was safe client→broker may become
//! attackable while transiting the backbone.  The edge-targeting adversaries
//! model that:
//!
//! * [`InterBrokerReplayAttacker`] — captures gossip/relay traffic on a
//!   specific broker–broker edge and re-injects it later (the per-origin
//!   sequence numbers of the federation protocol defeat it).
//! * [`EdgeAdversary`] — redirects, tampers with or drops traffic on one
//!   directed edge only, leaving everything else untouched (a compromised
//!   backbone router between two brokers).

use crate::credential::{Credential, CredentialRole};
use crate::identity::PeerIdentity;
use jxta_crypto::drbg::HmacDrbg;
use jxta_overlay::net::{Adversary, NetMessage, SimNetwork, Verdict};
use jxta_overlay::{Message, MessageKind, PeerId};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ----------------------------------------------------------------------
// Eavesdropper
// ----------------------------------------------------------------------

/// A passive adversary that records every payload it sees.
pub struct Eavesdropper {
    captured: Mutex<Vec<Vec<u8>>>,
}

impl Default for Eavesdropper {
    fn default() -> Self {
        Eavesdropper {
            captured: Mutex::with_class("attacks.captured", Vec::new()),
        }
    }
}

impl Eavesdropper {
    /// Creates an eavesdropper.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Number of messages observed.
    pub fn observed_count(&self) -> usize {
        self.captured.lock().len()
    }

    /// Returns `true` if `needle` appears anywhere in the captured traffic —
    /// used to show that the plain `login` leaks the password while
    /// `secureLogin` does not.
    pub fn saw_bytes(&self, needle: &[u8]) -> bool {
        if needle.is_empty() {
            return false;
        }
        self.captured
            .lock()
            .iter()
            .any(|payload| payload.windows(needle.len()).any(|w| w == needle))
    }

    /// Convenience for textual needles.
    pub fn saw_text(&self, needle: &str) -> bool {
        self.saw_bytes(needle.as_bytes())
    }

    /// Total bytes captured.
    pub fn bytes_captured(&self) -> usize {
        self.captured.lock().iter().map(|p| p.len()).sum()
    }
}

impl Adversary for Eavesdropper {
    fn observe(&self, message: &NetMessage) {
        self.captured.lock().push(message.payload.clone());
    }
}

// ----------------------------------------------------------------------
// Replay attacker
// ----------------------------------------------------------------------

/// Captures messages of one kind and can replay the first one on demand.
pub struct LoginReplayAttacker {
    kind: MessageKind,
    captured: Mutex<Option<NetMessage>>,
}

impl LoginReplayAttacker {
    /// Creates an attacker interested in messages of `kind` (typically
    /// [`MessageKind::LoginRequest`] or [`MessageKind::SecureLoginRequest`]).
    pub fn new(kind: MessageKind) -> Arc<Self> {
        Arc::new(LoginReplayAttacker {
            kind,
            captured: Mutex::with_class("attacks.captured", None),
        })
    }

    /// Returns `true` once a matching message has been captured.
    pub fn has_capture(&self) -> bool {
        self.captured.lock().is_some()
    }

    /// The captured message, if any.
    pub fn capture(&self) -> Option<NetMessage> {
        self.captured.lock().clone()
    }

    /// Re-injects the captured message into the network, optionally
    /// impersonating a different sender at the transport level.
    ///
    /// Returns `false` when nothing was captured yet.
    pub fn replay(&self, network: &SimNetwork, impersonate_as: Option<PeerId>) -> bool {
        let Some(captured) = self.capture() else {
            return false;
        };
        let from = impersonate_as.unwrap_or(captured.from);
        network.send(from, captured.to, captured.payload).is_ok()
    }
}

impl Adversary for LoginReplayAttacker {
    fn observe(&self, message: &NetMessage) {
        let mut slot = self.captured.lock();
        if slot.is_some() {
            return;
        }
        if let Ok(parsed) = Message::from_bytes(&message.payload) {
            if parsed.kind == self.kind {
                *slot = Some(message.clone());
            }
        }
    }
}

// ----------------------------------------------------------------------
// Inter-broker (backbone) adversaries
// ----------------------------------------------------------------------

/// Captures inter-broker traffic of one [`MessageKind`] crossing the
/// directed `from → to` edge and can re-inject the first captured message
/// later, optionally spoofing the transport-level sender.
///
/// Used to show that replays on the *broker–broker* links are detected: the
/// federation protocol's per-origin sequence numbers make the receiving
/// broker reject the duplicate (`rejected_replayed` in its
/// [`jxta_overlay::metrics::FederationStats`]).
pub struct InterBrokerReplayAttacker {
    edge: (PeerId, PeerId),
    kind: MessageKind,
    captured: Mutex<Option<NetMessage>>,
}

impl InterBrokerReplayAttacker {
    /// Creates an attacker sitting on the `from → to` backbone edge,
    /// interested in messages of `kind` (typically
    /// [`MessageKind::BrokerSync`] or [`MessageKind::BrokerRelay`]).
    pub fn new(from: PeerId, to: PeerId, kind: MessageKind) -> Arc<Self> {
        Arc::new(InterBrokerReplayAttacker {
            edge: (from, to),
            kind,
            captured: Mutex::with_class("attacks.captured", None),
        })
    }

    /// Returns `true` once a matching message has been captured.
    pub fn has_capture(&self) -> bool {
        self.captured.lock().is_some()
    }

    /// The captured message, if any.
    pub fn capture(&self) -> Option<NetMessage> {
        self.captured.lock().clone()
    }

    /// Re-injects the captured message, optionally impersonating a different
    /// transport-level sender.  Returns `false` when nothing was captured.
    pub fn replay(&self, network: &SimNetwork, impersonate_as: Option<PeerId>) -> bool {
        let Some(captured) = self.capture() else {
            return false;
        };
        let from = impersonate_as.unwrap_or(captured.from);
        network.send(from, captured.to, captured.payload).is_ok()
    }
}

impl Adversary for InterBrokerReplayAttacker {
    fn observe(&self, message: &NetMessage) {
        if (message.from, message.to) != self.edge {
            return;
        }
        let mut slot = self.captured.lock();
        if slot.is_some() {
            return;
        }
        if let Ok(parsed) = Message::from_bytes(&message.payload) {
            if parsed.kind == self.kind {
                *slot = Some(message.clone());
            }
        }
    }
}

/// What an [`EdgeAdversary`] does with the traffic on its edge.
enum EdgeBehavior {
    /// Deliver to a rogue peer instead of the real destination.
    Redirect(PeerId),
    /// Flip a byte in the middle of every payload.
    Tamper,
    /// Silently drop.
    Drop,
}

/// An adversary controlling exactly one directed edge of the network —
/// a compromised router between two brokers.  All other traffic flows
/// untouched.
pub struct EdgeAdversary {
    edge: (PeerId, PeerId),
    behavior: EdgeBehavior,
    intercepted: AtomicU64,
}

impl EdgeAdversary {
    /// Redirects everything on `from → to` towards `rogue`.
    pub fn redirect(from: PeerId, to: PeerId, rogue: PeerId) -> Arc<Self> {
        Arc::new(EdgeAdversary {
            edge: (from, to),
            behavior: EdgeBehavior::Redirect(rogue),
            intercepted: AtomicU64::new(0),
        })
    }

    /// Corrupts every payload on `from → to`.
    pub fn tamper(from: PeerId, to: PeerId) -> Arc<Self> {
        Arc::new(EdgeAdversary {
            edge: (from, to),
            behavior: EdgeBehavior::Tamper,
            intercepted: AtomicU64::new(0),
        })
    }

    /// Drops every message on `from → to`.
    pub fn drop_all(from: PeerId, to: PeerId) -> Arc<Self> {
        Arc::new(EdgeAdversary {
            edge: (from, to),
            behavior: EdgeBehavior::Drop,
            intercepted: AtomicU64::new(0),
        })
    }

    /// Number of messages this adversary acted upon.
    pub fn intercepted_count(&self) -> u64 {
        self.intercepted.load(Ordering::Relaxed)
    }
}

impl Adversary for EdgeAdversary {
    fn intercept(&self, message: &NetMessage) -> Verdict {
        if (message.from, message.to) != self.edge {
            return Verdict::Deliver;
        }
        self.intercepted.fetch_add(1, Ordering::Relaxed);
        match &self.behavior {
            EdgeBehavior::Redirect(rogue) => Verdict::Redirect(*rogue),
            EdgeBehavior::Tamper => {
                let mut forged = message.payload.clone();
                let idx = forged.len() / 2;
                if let Some(byte) = forged.get_mut(idx) {
                    *byte ^= 0xff;
                }
                Verdict::Tamper(forged)
            }
            EdgeBehavior::Drop => Verdict::Drop,
        }
    }
}

// ----------------------------------------------------------------------
// Traffic redirection and the fake broker
// ----------------------------------------------------------------------

/// Redirects every message addressed to `victim` towards `rogue`, modelling
/// DNS spoofing of the broker's well-known name.
pub struct RedirectToFakeBroker {
    victim: PeerId,
    rogue: PeerId,
}

impl RedirectToFakeBroker {
    /// Creates the redirection adversary.
    pub fn new(victim: PeerId, rogue: PeerId) -> Arc<Self> {
        Arc::new(RedirectToFakeBroker { victim, rogue })
    }
}

impl Adversary for RedirectToFakeBroker {
    fn intercept(&self, message: &NetMessage) -> Verdict {
        if message.to == self.victim {
            Verdict::Redirect(self.rogue)
        } else {
            Verdict::Deliver
        }
    }
}

/// A rogue peer that pretends to be a broker.
///
/// It answers plain `connect` requests convincingly (a plain client has no
/// way to notice) and answers `secureConnection` challenges with a
/// self-issued "broker" credential, which the secure client rejects because
/// the credential does not chain to the administrator.
pub struct FakeBroker {
    identity: PeerIdentity,
    credential: Credential,
    /// Username/password pairs harvested from plain logins.
    harvested: Mutex<Vec<(String, String)>>,
}

impl FakeBroker {
    /// Creates the fake broker with a self-issued credential and registers it
    /// on the network, spawning its answering thread.
    pub fn spawn(network: &Arc<SimNetwork>, seed: u64, key_bits: usize) -> Arc<Self> {
        let mut rng = HmacDrbg::from_seed_u64(seed);
        let identity = PeerIdentity::generate(&mut rng, key_bits).expect("fake broker keys");
        // Self-issued "broker" credential: mallory vouching for herself.
        let credential = Credential::issue(
            CredentialRole::Broker,
            "totally-legit-broker",
            identity.peer_id(),
            identity.public_key().clone(),
            "totally-legit-admin",
            u64::MAX,
            identity.private_key(),
        )
        .expect("fake broker credential");
        let fake = Arc::new(FakeBroker {
            identity,
            credential,
            harvested: Mutex::with_class("attacks.harvested", Vec::new()),
        });

        let receiver = network.register(fake.id());
        let network = Arc::clone(network);
        let this = Arc::clone(&fake);
        std::thread::Builder::new()
            .name("fake-broker".to_string())
            .spawn(move || {
                while let Ok(net_message) = receiver.recv() {
                    if let Ok(message) = Message::from_bytes(&net_message.payload) {
                        if let Some(response) = this.answer(&message) {
                            let _ = network.send(this.id(), net_message.from, response.to_bytes());
                        }
                    }
                }
            })
            .expect("failed to spawn fake broker thread");
        fake
    }

    /// The rogue peer's identifier.
    pub fn id(&self) -> PeerId {
        self.identity.peer_id()
    }

    /// Credentials (username/password pairs) harvested from plain-text logins
    /// that were redirected to this rogue broker.
    pub fn harvested_credentials(&self) -> Vec<(String, String)> {
        self.harvested.lock().clone()
    }

    fn answer(&self, message: &Message) -> Option<Message> {
        match message.kind {
            MessageKind::ConnectRequest => Some(
                Message::new(MessageKind::ConnectResponse, self.id(), message.request_id)
                    .with_str("status", "ok")
                    .with_str("broker-name", "broker-1"),
            ),
            MessageKind::LoginRequest => {
                // Harvest the clear-text credentials, then pretend everything
                // is fine.
                let username = message.element_str("username").unwrap_or_default();
                let password = message.element_str("password").unwrap_or_default();
                self.harvested.lock().push((username.clone(), password));
                Some(
                    Message::new(MessageKind::LoginResponse, self.id(), message.request_id)
                        .with_str("status", "ok")
                        .with_str("username", &username)
                        .with_str("groups", "everything"),
                )
            }
            MessageKind::SecureConnectChallenge => {
                let challenge = message.element("challenge").unwrap_or_default().to_vec();
                let signature = self.identity.sign(&challenge).ok()?;
                Some(
                    Message::new(
                        MessageKind::SecureConnectResponse,
                        self.id(),
                        message.request_id,
                    )
                    .with_str("status", "ok")
                    .with_element("sid", vec![0u8; 32])
                    .with_element("challenge-signature", signature)
                    .with_element("broker-credential", self.credential.to_bytes()),
                )
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::SecureNetworkBuilder;
    use jxta_overlay::OverlayError;

    #[test]
    fn eavesdropper_sees_plain_login_but_not_secure_login() {
        let mut setup = SecureNetworkBuilder::new(0xEAE5)
            .with_key_bits(512)
            .with_user("alice", "hunter2-secret", &["g"])
            .build();
        let spy = Eavesdropper::new();
        setup.network().set_adversary(spy.clone());

        // Plain login: the password crosses the wire in the clear.
        let mut plain = setup.plain_client("old-client");
        plain.connect(setup.broker_id()).unwrap();
        plain.login("alice", "hunter2-secret").unwrap();
        assert!(spy.saw_text("hunter2-secret"), "plain login leaks the password");
        assert!(spy.observed_count() > 0);
        assert!(spy.bytes_captured() > 0);

        // Secure login: the password never appears on the wire.
        let spy2 = Eavesdropper::new();
        setup.network().set_adversary(spy2.clone());
        let mut secure = setup.secure_client("new-client");
        secure.secure_join(setup.broker_id(), "alice", "hunter2-secret").unwrap();
        assert!(
            !spy2.saw_text("hunter2-secret"),
            "secureLogin must not leak the password"
        );
        assert!(!spy2.saw_bytes(b""), "empty needle never matches");
    }

    #[test]
    fn eavesdropper_sees_plain_chat_but_not_secure_chat() {
        let mut setup = SecureNetworkBuilder::new(0xEAE6)
            .with_key_bits(512)
            .with_user("alice", "pw-a", &["g"])
            .with_user("bob", "pw-b", &["g"])
            .build();
        let group = jxta_overlay::GroupId::new("g");

        // Plain messaging leaks content.
        let spy = Eavesdropper::new();
        setup.network().set_adversary(spy.clone());
        let mut alice = setup.plain_client("alice");
        let mut bob = setup.plain_client("bob");
        alice.connect(setup.broker_id()).unwrap();
        alice.login("alice", "pw-a").unwrap();
        bob.connect(setup.broker_id()).unwrap();
        bob.login("bob", "pw-b").unwrap();
        alice.publish_pipe(&group).unwrap();
        bob.publish_pipe(&group).unwrap();
        alice.send_msg_peer(&group, bob.id(), "meet at midnight").unwrap();
        assert!(spy.saw_text("meet at midnight"));

        // Secure messaging does not.
        let spy2 = Eavesdropper::new();
        setup.network().set_adversary(spy2.clone());
        let mut s_alice = setup.secure_client("s-alice");
        let mut s_bob = setup.secure_client("s-bob");
        s_alice.secure_join(setup.broker_id(), "alice", "pw-a").unwrap();
        s_bob.secure_join(setup.broker_id(), "bob", "pw-b").unwrap();
        s_alice.publish_secure_pipe(&group).unwrap();
        s_bob.publish_secure_pipe(&group).unwrap();
        s_alice.secure_msg_peer(&group, s_bob.id(), "meet at midnight").unwrap();
        let received = s_bob.receive_secure_messages().unwrap();
        assert_eq!(received[0].text, "meet at midnight");
        assert!(!spy2.saw_text("meet at midnight"));
    }

    #[test]
    fn replayed_plain_login_succeeds_but_secure_replay_is_rejected() {
        let mut setup = SecureNetworkBuilder::new(0x5E71A)
            .with_key_bits(512)
            .with_user("alice", "pw-a", &["g"])
            .build();

        // Plain login capture and replay: the broker cannot tell the replay
        // apart and creates a session for the attacker-controlled sender.
        let replayer = LoginReplayAttacker::new(MessageKind::LoginRequest);
        setup.network().set_adversary(replayer.clone());
        let mut victim = setup.plain_client("victim");
        victim.connect(setup.broker_id()).unwrap();
        victim.login("alice", "pw-a").unwrap();
        assert!(replayer.has_capture());
        setup.network().clear_adversary();
        let sessions_before = setup.broker().session_count();
        assert!(replayer.replay(setup.network(), None));
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert_eq!(
            setup.broker().session_count(),
            sessions_before,
            "replaying re-authenticates the same peer id (session already present)"
        );

        // Secure login capture and replay: rejected because the session
        // identifier was consumed.
        let replayer2 = LoginReplayAttacker::new(MessageKind::SecureLoginRequest);
        setup.network().set_adversary(replayer2.clone());
        let mut secure_victim = setup.secure_client("secure-victim");
        secure_victim.secure_join(setup.broker_id(), "alice", "pw-a").unwrap();
        assert!(replayer2.has_capture());
        setup.network().clear_adversary();

        let rejected_before = setup.broker_extension().stats().replays_rejected;
        assert!(replayer2.replay(setup.network(), None));
        // Give the broker thread a moment to process the injected message.
        let deadline = jxta_overlay::clock::now() + std::time::Duration::from_secs(2);
        while setup.broker_extension().stats().replays_rejected == rejected_before
            && jxta_overlay::clock::now() < deadline
        {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(
            setup.broker_extension().stats().replays_rejected,
            rejected_before + 1,
            "the broker must reject the replayed secureLogin"
        );
    }

    #[test]
    fn fake_broker_fools_plain_client_but_not_secure_client() {
        let mut setup = SecureNetworkBuilder::new(0xFAB)
            .with_key_bits(512)
            .with_user("alice", "pw-a", &["g"])
            .build();
        let fake = FakeBroker::spawn(setup.network(), 0xBAD5EED, 512);
        let redirect = RedirectToFakeBroker::new(setup.broker_id(), fake.id());
        setup.network().set_adversary(redirect);

        // The plain client connects and "logs in" against the rogue broker,
        // handing over the password.
        let mut plain = setup.plain_client("naive");
        plain.connect(setup.broker_id()).unwrap();
        plain.login("alice", "pw-a").unwrap();
        assert!(plain.is_logged_in(), "the plain client cannot tell");
        assert_eq!(
            fake.harvested_credentials(),
            vec![("alice".to_string(), "pw-a".to_string())],
            "the rogue broker harvested the clear-text password"
        );

        // The secure client detects the rogue broker during secureConnection
        // and aborts before any secret is sent.
        let mut secure = setup.secure_client("careful");
        let err = secure.secure_connection(setup.broker_id()).unwrap_err();
        assert!(matches!(err, OverlayError::SecurityViolation(_)), "{err}");
        assert!(secure.broker_credential().is_none());
        assert!(fake.harvested_credentials().len() == 1, "nothing new harvested");

        setup.network().clear_adversary();
    }

    #[test]
    fn fake_broker_ignores_unknown_kinds() {
        let setup = SecureNetworkBuilder::new(0xFAC).with_key_bits(512).build();
        let fake = FakeBroker::spawn(setup.network(), 1, 512);
        assert!(fake
            .answer(&Message::new(MessageKind::PeerText, fake.id(), 1))
            .is_none());
    }
}
