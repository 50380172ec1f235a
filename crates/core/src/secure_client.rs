//! The client-side secure primitives.
//!
//! [`SecureClient`] wraps a plain [`ClientPeer`] and adds the paper's secure
//! primitives while keeping the plain ones available (the extension is
//! *transparent*: applications keep calling primitives with the same inputs
//! and outputs, plus a security context managed here):
//!
//! | Paper primitive        | Method |
//! |------------------------|--------|
//! | `secureConnection`     | [`SecureClient::secure_connection`] |
//! | `secureLogin`          | [`SecureClient::secure_login`] |
//! | `secureMsgPeer`        | [`SecureClient::secure_msg_peer`] / [`SecureClient::secure_msg_peer_relayed`] |
//! | `secureMsgPeerGroup`   | [`SecureClient::secure_msg_peer_group`] / [`SecureClient::secure_msg_peer_group_parallel`] |
//!
//! plus the signed-advertisement publication that distributes credentials
//! ([`SecureClient::publish_secure_pipe`]) and the receive path that
//! decrypts, authenticates and surfaces incoming secure messages
//! ([`SecureClient::receive_secure_messages`]).

use crate::broker_ext::{
    credential_update_signed_content, decode_credential_list, login_signed_content,
    message_signed_content,
};
use crate::credential::{Credential, CredentialRole};
use crate::identity::PeerIdentity;
use crate::signed_adv::{
    signed_pipe_advertisement, validate_signed_pipe_advertisement_with, TrustAnchors,
    ValidatedAdvertisement,
};
use jxta_crypto::drbg::HmacDrbg;
use jxta_crypto::envelope::{open_envelope, seal_envelope, Envelope};
use jxta_crypto::rsa::RsaPublicKey;
use jxta_crypto::sigcache::{SigCacheStats, VerifiedSigCache};
use jxta_overlay::advertisement::{Advertisement, PipeAdvertisement};
use jxta_overlay::client::{ClientConfig, ClientEvent, ClientPeer};
use jxta_overlay::metrics::{OperationTiming, Stopwatch};
use jxta_overlay::{GroupId, Message, MessageKind, OverlayError, PeerId, SimNetwork};
use rand::RngCore;
use std::collections::HashMap;
use std::sync::Arc;

/// A secure message received and authenticated by
/// [`SecureClient::receive_secure_messages`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceivedSecureMessage {
    /// The sending peer.
    pub from: PeerId,
    /// The username asserted by the sender's broker-issued credential.
    pub sender_username: String,
    /// Group context.
    pub group: GroupId,
    /// Decrypted message body.
    pub text: String,
}

/// A client peer running the secure extension.
pub struct SecureClient {
    client: ClientPeer,
    identity: PeerIdentity,
    trust: TrustAnchors,
    rng: HmacDrbg,
    /// `Cred^Adm_Br` of the broker we authenticated during secureConnection.
    broker_credential: Option<Credential>,
    /// The single-use session identifier from secureConnection.
    session_id: Option<Vec<u8>>,
    /// Our own `Cred^Br_Cl`, obtained by secureLogin.
    credential: Option<Credential>,
    /// Cache of validated signed pipe advertisements.
    validated_pipes: HashMap<(GroupId, PeerId), ValidatedAdvertisement<PipeAdvertisement>>,
    /// Client-side verified-signature cache: pipe-advertisement validation
    /// routes its RSA checks (credential chain walk + XMLdsig) through it,
    /// so a `validated_pipes` miss on bytes whose signatures were already
    /// verified — the same owner's advertisement in another group embeds the
    /// identical credential, a re-resolved advertisement repeats both
    /// checks — skips the RSA instead of recomputing it.
    sig_cache: Arc<VerifiedSigCache>,
    /// Non-secure events set aside by the secure receive path.
    other_events: Vec<ClientEvent>,
    /// Events drained from the inbox while looking for credential updates
    /// (see [`SecureClient::absorb_pending_credential_updates`]); the next
    /// [`SecureClient::receive_secure_messages`] consumes them first so
    /// nothing is lost or reordered.
    deferred_events: Vec<ClientEvent>,
}

impl SecureClient {
    /// Creates a secure client peer.
    ///
    /// * `identity` — the key pair generated at boot time (§4.1); the peer's
    ///   overlay identifier is derived from it.
    /// * `admin_credential` — the copy of `Cred^Adm_Adm` every client peer is
    ///   provided with at deployment time.
    /// * `rng_seed` — seeds the DRBG used for challenges and envelopes.
    pub fn new(
        network: Arc<SimNetwork>,
        config: ClientConfig,
        identity: PeerIdentity,
        admin_credential: Credential,
        rng_seed: u64,
    ) -> Result<Self, OverlayError> {
        let trust = TrustAnchors::new(admin_credential)?;
        let client = ClientPeer::new(network, config, identity.peer_id());
        Ok(SecureClient {
            client,
            identity,
            trust,
            rng: HmacDrbg::from_seed_u64(rng_seed),
            broker_credential: None,
            session_id: None,
            credential: None,
            validated_pipes: HashMap::new(),
            sig_cache: Arc::new(VerifiedSigCache::default()),
            other_events: Vec::new(),
            deferred_events: Vec::new(),
        })
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// This peer's identifier (CBID-derived).
    pub fn id(&self) -> PeerId {
        self.client.id()
    }

    /// The wrapped plain client (for plain primitives, events and stats).
    pub fn inner(&self) -> &ClientPeer {
        &self.client
    }

    /// Hit/miss counters of this client's verified-signature cache (the RSA
    /// layer behind pipe-advertisement validation).
    pub fn sig_cache_stats(&self) -> SigCacheStats {
        self.sig_cache.stats()
    }

    /// Mutable access to the wrapped plain client.
    pub fn inner_mut(&mut self) -> &mut ClientPeer {
        &mut self.client
    }

    /// The peer's cryptographic identity.
    pub fn identity(&self) -> &PeerIdentity {
        &self.identity
    }

    /// The trust anchors (administrator plus verified brokers).
    pub fn trust(&self) -> &TrustAnchors {
        &self.trust
    }

    /// The broker credential learned during `secureConnection`.
    pub fn broker_credential(&self) -> Option<&Credential> {
        self.broker_credential.as_ref()
    }

    /// This peer's own credential (`Cred^Br_Cl`), if `secureLogin` succeeded.
    pub fn credential(&self) -> Option<&Credential> {
        self.credential.as_ref()
    }

    /// Events that were set aside while receiving secure messages (plain
    /// texts, advertisement pushes, unknown kinds).
    pub fn drain_other_events(&mut self) -> Vec<ClientEvent> {
        std::mem::take(&mut self.other_events)
    }

    // ------------------------------------------------------------------
    // secureConnection (paper §4.2.1)
    // ------------------------------------------------------------------

    /// The `secureConnection` primitive: challenge/response authentication of
    /// the broker before anything sensitive is sent to it.
    pub fn secure_connection(&mut self, broker: PeerId) -> Result<OperationTiming, OverlayError> {
        let stopwatch = Stopwatch::start();
        let _ = self.client.take_wire_time();

        // Steps 2-3: random challenge to the broker.
        let challenge = self.rng.generate_vec(32);
        let request_id = self.client.next_request_id();
        let message = Message::new(MessageKind::SecureConnectChallenge, self.id(), request_id)
            .with_element("challenge", challenge.clone());
        let response = self
            .client
            .request(broker, &message, MessageKind::SecureConnectResponse)?;
        if response.element_str("status").as_deref() != Some("ok") {
            return Err(OverlayError::Rejected(
                response
                    .element_str("reason")
                    .unwrap_or_else(|| "secureConnection rejected".to_string()),
            ));
        }

        let sid = response.require("sid")?.to_vec();
        let signature = response.require("challenge-signature")?.to_vec();
        let credential_bytes = response.require("broker-credential")?;

        // Step 6: check the authenticity of Cred^Adm_Br with PK_Adm.
        let broker_credential = Credential::from_bytes(credential_bytes)
            .map_err(|e| OverlayError::SecurityViolation(format!("broker credential: {e}")))?;
        self.trust
            .add_broker(broker_credential.clone())
            .map_err(|_| {
                OverlayError::SecurityViolation("broker is not legitimate: credential not issued by the administrator".into())
            })?;
        // The credential must describe the peer we are talking to.
        if broker_credential.subject_id != broker {
            return Err(OverlayError::SecurityViolation(
                "broker credential subject differs from the contacted peer".into(),
            ));
        }

        // Step 7: check S_SKBr(chall) with PK_Br.
        broker_credential
            .public_key
            .verify(&challenge, &signature)
            .map_err(|_| {
                OverlayError::SecurityViolation(
                    "broker does not possess the credential's private key (impersonator)".into(),
                )
            })?;

        // Federation extension: the broker beacons the credentials of its
        // peer brokers.  Each one is verified against the administrator
        // anchor before it is trusted — a rogue broker cannot smuggle an
        // unauthentic credential past this step.
        if let Some(bytes) = response.element("federation-credentials") {
            let peers = crate::broker_ext::decode_credential_list(bytes)?;
            for peer in peers {
                self.trust.add_broker(peer).map_err(|_| {
                    OverlayError::SecurityViolation(
                        "beaconed federation credential does not chain to the administrator".into(),
                    )
                })?;
            }
        }

        // Step 8-9: broker is legitimate; store sid and the credential.
        self.session_id = Some(sid);
        self.broker_credential = Some(broker_credential);
        self.client.set_broker(broker);

        let wire = self.client.take_wire_time();
        Ok(OperationTiming::new(stopwatch.elapsed(), wire))
    }

    // ------------------------------------------------------------------
    // secureLogin (paper §4.2.2)
    // ------------------------------------------------------------------

    /// The `secureLogin` primitive: authenticates the end user over an
    /// encrypted, replay-protected channel and obtains the client credential.
    pub fn secure_login(
        &mut self,
        username: &str,
        password: &str,
    ) -> Result<OperationTiming, OverlayError> {
        let broker = self.client.broker_id().ok_or(OverlayError::NotConnected)?;
        let broker_credential = self
            .broker_credential
            .clone()
            .ok_or_else(|| OverlayError::SecurityViolation("secureConnection must run before secureLogin".into()))?;
        let sid = self
            .session_id
            .clone()
            .ok_or_else(|| OverlayError::SecurityViolation("no session identifier available".into()))?;

        let stopwatch = Stopwatch::start();
        let _ = self.client.take_wire_time();

        // Step 1: req = S_SKCl(username, password, PK_Cl).
        let public_key_bytes = self.identity.public_key().to_bytes();
        let signature = self
            .identity
            .sign(&login_signed_content(username, password, &public_key_bytes))?;
        let inner = Message::new(MessageKind::SecureLoginRequest, self.id(), 0)
            .with_str("username", username)
            .with_str("password", password)
            .with_element("public-key", public_key_bytes)
            .with_element("signature", signature)
            .with_element("sid", sid);

        // Step 3: Cl → Br: E_PKBr(req, sid).
        let envelope = seal_envelope(
            &mut self.rng,
            &broker_credential.public_key,
            &inner.to_bytes(),
        )?;
        let request_id = self.client.next_request_id();
        let message = Message::new(MessageKind::SecureLoginRequest, self.id(), request_id)
            .with_element("envelope", envelope.to_bytes());
        let response = self
            .client
            .request(broker, &message, MessageKind::SecureLoginResponse)?;
        // Whatever the outcome, the session identifier is single-use.
        self.session_id = None;

        if response.element_str("status").as_deref() != Some("ok") {
            let reason = response
                .element_str("reason")
                .unwrap_or_else(|| "secureLogin rejected".to_string());
            return if reason.contains("authentication") {
                Err(OverlayError::AuthenticationFailed)
            } else {
                Err(OverlayError::Rejected(reason))
            };
        }

        // Steps 9-10: store Cred^Br_Cl after checking it really covers us and
        // was issued by the authenticated broker.
        let credential = Credential::from_bytes(response.require("credential")?)
            .map_err(|e| OverlayError::SecurityViolation(format!("issued credential: {e}")))?;
        credential
            .verify(&broker_credential.public_key)
            .map_err(|_| OverlayError::SecurityViolation("issued credential not signed by the broker".into()))?;
        if credential.subject_id != self.id()
            || credential.role != CredentialRole::Client
            || credential.subject_name != username
            || !credential.binds_key_to_subject()
        {
            return Err(OverlayError::SecurityViolation(
                "issued credential does not describe this peer".into(),
            ));
        }

        let groups: Vec<GroupId> = response
            .element_str("groups")
            .unwrap_or_default()
            .split(',')
            .filter(|s| !s.is_empty())
            .map(GroupId::new)
            .collect();
        self.credential = Some(credential);
        self.client.set_session(username, groups);

        let wire = self.client.take_wire_time();
        Ok(OperationTiming::new(stopwatch.elapsed(), wire))
    }

    /// Convenience: `secureConnection` followed by `secureLogin`, returning
    /// the combined timing (the quantity the paper's §5 join-overhead
    /// experiment reports).
    pub fn secure_join(
        &mut self,
        broker: PeerId,
        username: &str,
        password: &str,
    ) -> Result<OperationTiming, OverlayError> {
        let connection = self.secure_connection(broker)?;
        let login = self.secure_login(username, password)?;
        Ok(connection + login)
    }

    // ------------------------------------------------------------------
    // Signed advertisement publication and resolution
    // ------------------------------------------------------------------

    /// Publishes this peer's pipe advertisement for `group`, signed and
    /// carrying the peer's credential (the credential-distribution mechanism
    /// of §4.1).
    pub fn publish_secure_pipe(&mut self, group: &GroupId) -> Result<(), OverlayError> {
        let credential = self
            .credential
            .clone()
            .ok_or(OverlayError::NotLoggedIn)?;
        let advertisement = PipeAdvertisement {
            owner: self.id(),
            group: group.clone(),
            name: format!("{}-inbox", self.client.config().nickname),
        };
        let xml = signed_pipe_advertisement(&advertisement, &self.identity, &credential)?;
        self.client
            .publish_advertisement(group, PipeAdvertisement::DOC_TYPE, &xml)?;
        // Cache our own validated advertisement.
        self.validated_pipes.insert(
            (group.clone(), self.id()),
            ValidatedAdvertisement {
                advertisement,
                credential,
            },
        );
        Ok(())
    }

    /// Resolves and validates the signed pipe advertisement of `owner` in
    /// `group` (steps 1-3 of `secureMsgPeer`).  Results are cached.
    ///
    /// A validation failure is retried once after absorbing any pending
    /// [`MessageKind::CredentialUpdate`] pushes: the advertisement may be
    /// signed under the credential of a broker admitted *after* this client
    /// joined, in which case the re-beaconed credential set is what makes it
    /// validate.
    pub fn resolve_secure_pipe(
        &mut self,
        group: &GroupId,
        owner: PeerId,
    ) -> Result<ValidatedAdvertisement<PipeAdvertisement>, OverlayError> {
        if let Some(validated) = self.validated_pipes.get(&(group.clone(), owner)) {
            return Ok(validated.clone());
        }
        let xml = self.client.resolve_pipe_xml(group, owner)?;
        let cache = Arc::clone(&self.sig_cache);
        let validate = |trust: &TrustAnchors| {
            validate_signed_pipe_advertisement_with(&xml, owner, trust, |key, message, signature| {
                cache.verify(key, message, signature)
            })
        };
        let validated = match validate(&self.trust) {
            Ok(validated) => validated,
            Err(error) => {
                if self.absorb_pending_credential_updates() == 0 {
                    return Err(error);
                }
                validate(&self.trust)?
            }
        };
        self.validated_pipes
            .insert((group.clone(), owner), validated.clone());
        Ok(validated)
    }

    /// Drains the inbox looking for broker-pushed credential updates and
    /// applies them; every other event is deferred for the next
    /// [`SecureClient::receive_secure_messages`] in its original order.
    /// Returns the number of broker credentials accepted.
    fn absorb_pending_credential_updates(&mut self) -> usize {
        let mut added = 0usize;
        for event in self.client.poll_events() {
            match event {
                ClientEvent::Raw(message) if message.kind == MessageKind::CredentialUpdate => {
                    added += self.process_credential_update(&message).unwrap_or(0);
                }
                other => self.deferred_events.push(other),
            }
        }
        added
    }

    /// Asks the home broker whether `peer` is currently a member of `group`.
    /// In a sharded federation the broker transparently routes the question
    /// to the shard replica owning the `(group, peer)` entry.
    pub fn query_membership(
        &mut self,
        group: &GroupId,
        peer: PeerId,
    ) -> Result<bool, OverlayError> {
        self.client.query_membership(group, peer)
    }

    // ------------------------------------------------------------------
    // secureMsgPeer / secureMsgPeerGroup (paper §4.3)
    // ------------------------------------------------------------------

    fn check_can_message(&self, group: &GroupId) -> Result<(), OverlayError> {
        if !self.client.is_logged_in() {
            return Err(OverlayError::NotLoggedIn);
        }
        if !self.client.groups().contains(group) {
            return Err(OverlayError::NotAGroupMember(group.as_str().to_string()));
        }
        Ok(())
    }

    /// Builds the encrypted+signed payload for one recipient.
    fn seal_text_for(
        rng: &mut HmacDrbg,
        identity: &PeerIdentity,
        sender: PeerId,
        recipient_key: &RsaPublicKey,
        group: &GroupId,
        text: &str,
    ) -> Result<Envelope, OverlayError> {
        let signature = identity.sign(&message_signed_content(group.as_str(), text))?;
        let inner = Message::new(MessageKind::SecurePeerText, sender, 0)
            .with_str("group", group.as_str())
            .with_str("text", text)
            .with_element("signature", signature);
        Ok(seal_envelope(rng, recipient_key, &inner.to_bytes())?)
    }

    /// The `secureMsgPeer` primitive: validates the destination's signed
    /// advertisement, then sends `E_PKCl2(m, S_SKCl1(m))`.
    pub fn secure_msg_peer(
        &mut self,
        group: &GroupId,
        to: PeerId,
        text: &str,
    ) -> Result<OperationTiming, OverlayError> {
        self.check_can_message(group)?;
        let stopwatch = Stopwatch::start();
        let _ = self.client.take_wire_time();

        // Steps 1-3: signed advertisement validation and key extraction.
        let validated = self.resolve_secure_pipe(group, to)?;

        // Step 4: encrypt the message and its signature for the recipient.
        let envelope = Self::seal_text_for(
            &mut self.rng,
            &self.identity,
            self.client.id(),
            &validated.credential.public_key,
            group,
            text,
        )?;
        let request_id = self.client.next_request_id();
        let message = Message::new(MessageKind::SecurePeerText, self.id(), request_id)
            .with_element("envelope", envelope.to_bytes());
        self.client.send_message(to, &message)?;

        let wire = self.client.take_wire_time();
        Ok(OperationTiming::new(stopwatch.elapsed(), wire))
    }

    /// The broker-relayed variant of `secureMsgPeer`: the sealed envelope is
    /// handed to this peer's home broker, which routes it across the broker
    /// federation to the destination's home broker.
    ///
    /// The brokers only see (and forward) the opaque envelope bytes — the
    /// encryption and the signature are produced and verified end-to-end by
    /// the two clients, so confidentiality and authenticity survive the
    /// extra hops unmodified.
    pub fn secure_msg_peer_relayed(
        &mut self,
        group: &GroupId,
        to: PeerId,
        text: &str,
    ) -> Result<OperationTiming, OverlayError> {
        self.check_can_message(group)?;
        let stopwatch = Stopwatch::start();
        let _ = self.client.take_wire_time();

        // Identical sealing path to secure_msg_peer: validate the signed
        // advertisement, then encrypt the message plus its signature.
        let validated = self.resolve_secure_pipe(group, to)?;
        let envelope = Self::seal_text_for(
            &mut self.rng,
            &self.identity,
            self.client.id(),
            &validated.credential.public_key,
            group,
            text,
        )?;
        let request_id = self.client.next_request_id();
        let message = Message::new(MessageKind::SecurePeerText, self.id(), request_id)
            .with_element("envelope", envelope.to_bytes());
        // Only the delivery differs: via the federation instead of directly.
        self.client.relay_payload(to, message.to_bytes())?;

        let wire = self.client.take_wire_time();
        Ok(OperationTiming::new(stopwatch.elapsed(), wire))
    }

    /// The `secureMsgPeerGroup` primitive: iteratively applies
    /// [`SecureClient::secure_msg_peer`] to every other member of the group,
    /// exactly as the plain primitive is resolved.
    pub fn secure_msg_peer_group(
        &mut self,
        group: &GroupId,
        text: &str,
    ) -> Result<(usize, OperationTiming), OverlayError> {
        self.check_can_message(group)?;
        let stopwatch = Stopwatch::start();
        let _ = self.client.take_wire_time();

        let members = self.client.resolve_group_pipes(group)?;
        // Wire time spent resolving the member list.
        let mut total_wire = self.client.take_wire_time();
        let mut sent = 0usize;
        for advertisement in members {
            if advertisement.owner == self.id() {
                continue;
            }
            // secure_msg_peer drains the accumulator itself, so its per-call
            // wire time is added back into the aggregate explicitly.
            let timing = self.secure_msg_peer(group, advertisement.owner, text)?;
            total_wire += timing.wire;
            sent += 1;
        }
        total_wire += self.client.take_wire_time();
        Ok((sent, OperationTiming::new(stopwatch.elapsed(), total_wire)))
    }

    /// Parallel variant of `secureMsgPeerGroup`: the per-recipient public-key
    /// encryption (the dominant CPU cost of the fan-out) is performed on a
    /// scoped thread per recipient, and the sealed messages are then sent
    /// sequentially.  This is an extension over the paper, measured by the
    /// `group_fanout` ablation benchmark.
    pub fn secure_msg_peer_group_parallel(
        &mut self,
        group: &GroupId,
        text: &str,
    ) -> Result<(usize, OperationTiming), OverlayError> {
        self.check_can_message(group)?;
        let stopwatch = Stopwatch::start();
        let _ = self.client.take_wire_time();

        // Resolve and validate every member's signed advertisement first.
        let members = self.client.resolve_group_pipes(group)?;
        let mut recipients: Vec<(PeerId, RsaPublicKey)> = Vec::with_capacity(members.len());
        for advertisement in members {
            if advertisement.owner == self.id() {
                continue;
            }
            let validated = self.resolve_secure_pipe(group, advertisement.owner)?;
            recipients.push((advertisement.owner, validated.credential.public_key.clone()));
        }

        // Seal one envelope per recipient in parallel.
        let signature = self
            .identity
            .sign(&message_signed_content(group.as_str(), text))?;
        let sender = self.id();
        let group_str = group.as_str().to_string();
        let text_owned = text.to_string();
        let seeds: Vec<u64> = recipients.iter().map(|_| self.rng.next_u64()).collect();

        let sealed: Vec<Result<(PeerId, Vec<u8>), OverlayError>> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = recipients
                .iter()
                .zip(seeds.iter())
                .map(|((peer, key), seed)| {
                    let signature = signature.clone();
                    let group_str = group_str.clone();
                    let text_owned = text_owned.clone();
                    scope.spawn(move |_| -> Result<(PeerId, Vec<u8>), OverlayError> {
                        let mut rng = HmacDrbg::from_seed_u64(*seed);
                        let inner = Message::new(MessageKind::SecurePeerText, sender, 0)
                            .with_str("group", &group_str)
                            .with_str("text", &text_owned)
                            .with_element("signature", signature);
                        let envelope = seal_envelope(&mut rng, key, &inner.to_bytes())?;
                        Ok((*peer, envelope.to_bytes()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sealing thread panicked"))
                .collect()
        })
        .expect("crossbeam scope failed");

        let mut sent = 0usize;
        for result in sealed {
            let (peer, envelope_bytes) = result?;
            let request_id = self.client.next_request_id();
            let message = Message::new(MessageKind::SecurePeerText, sender, request_id)
                .with_element("envelope", envelope_bytes);
            self.client.send_message(peer, &message)?;
            sent += 1;
        }

        let wire = self.client.take_wire_time();
        Ok((sent, OperationTiming::new(stopwatch.elapsed(), wire)))
    }

    // ------------------------------------------------------------------
    // Receiving secure messages
    // ------------------------------------------------------------------

    /// Drains the inbox and returns every secure message that decrypts and
    /// authenticates correctly (steps 5-7 of §4.3.1).
    ///
    /// Messages that fail any check are counted and dropped; plain events are
    /// set aside and can be retrieved with
    /// [`SecureClient::drain_other_events`].
    pub fn receive_secure_messages(&mut self) -> Result<Vec<ReceivedSecureMessage>, OverlayError> {
        let mut events = std::mem::take(&mut self.deferred_events);
        events.extend(self.client.poll_events());
        let mut received = Vec::new();
        for event in events {
            match event {
                ClientEvent::Raw(message) if message.kind == MessageKind::SecurePeerText => {
                    match self.process_secure_text(&message) {
                        Ok(secure) => received.push(secure),
                        Err(_) => {
                            // Undecryptable or unauthentic messages are
                            // silently discarded (best-effort security, §4.3).
                        }
                    }
                }
                ClientEvent::Raw(message) if message.kind == MessageKind::CredentialUpdate => {
                    // A broker-pushed federation credential-set update
                    // (broker admitted after we joined).  Unauthentic pushes
                    // are discarded like any other forged message.
                    let _ = self.process_credential_update(&message);
                }
                other => self.other_events.push(other),
            }
        }
        Ok(received)
    }

    /// Processes a broker-pushed [`MessageKind::CredentialUpdate`]: checks
    /// that it comes from — and is signed by — the broker this client
    /// authenticated with `secureConnection`, then adds each contained
    /// broker credential to the trust anchors.  Every credential is still
    /// individually verified against the administrator anchor inside
    /// [`TrustAnchors::add_broker`]; unverifiable entries are skipped.
    /// Returns the number of credentials accepted.
    pub fn process_credential_update(&mut self, message: &Message) -> Result<usize, OverlayError> {
        let broker = self.client.broker_id().ok_or(OverlayError::NotConnected)?;
        if message.sender != broker {
            return Err(OverlayError::SecurityViolation(
                "credential update does not come from this peer's broker".into(),
            ));
        }
        let broker_credential = self.broker_credential.clone().ok_or_else(|| {
            OverlayError::SecurityViolation(
                "no authenticated broker credential to verify the update against".into(),
            )
        })?;
        let blob = message.require("credentials")?;
        let signature = message.require("signature")?;
        broker_credential
            .public_key
            .verify(&credential_update_signed_content(blob), signature)
            .map_err(|_| {
                OverlayError::SecurityViolation(
                    "credential update not signed by the authenticated broker".into(),
                )
            })?;
        let mut added = 0usize;
        for credential in decode_credential_list(blob)? {
            if self.trust.add_broker(credential).is_ok() {
                added += 1;
            }
        }
        Ok(added)
    }

    /// Processes a single incoming `SecurePeerText` message.
    fn process_secure_text(
        &mut self,
        message: &Message,
    ) -> Result<ReceivedSecureMessage, OverlayError> {
        // Step 5: decrypt with our private key.
        let envelope = Envelope::from_bytes(message.require("envelope")?)?;
        let plaintext = open_envelope(self.identity.private_key(), &envelope)?;
        let inner = Message::from_bytes(&plaintext)?;
        let group = GroupId::new(inner.require_str("group")?);
        let text = inner.require_str("text")?;
        let signature = inner.require("signature")?.to_vec();

        // The envelope sender and the transport sender must agree.
        let sender = message.sender;
        if inner.sender != sender {
            return Err(OverlayError::SecurityViolation(
                "inner and transport sender identifiers differ".into(),
            ));
        }

        // Step 6: retrieve and validate the sender's signed advertisement.
        let validated = self.resolve_secure_pipe(&group, sender)?;

        // Step 7: verify the message signature with PK_Cl1.
        validated
            .credential
            .public_key
            .verify(&message_signed_content(group.as_str(), &text), &signature)
            .map_err(|_| OverlayError::SecurityViolation("message signature does not verify".into()))?;

        Ok(ReceivedSecureMessage {
            from: sender,
            sender_username: validated.credential.subject_name.clone(),
            group,
            text,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::SecureNetworkBuilder;
    use jxta_overlay::net::LinkModel;
    use std::time::Duration;

    /// Models a 1 ms link (latency only) between `a` and `b`.
    fn one_ms_link(setup: &crate::setup::SecureNetwork, a: PeerId, b: PeerId) {
        setup.network().set_link_between(a, b, LinkModel::new(Duration::from_millis(1), 0));
    }

    fn two_peer_setup() -> (crate::setup::SecureNetwork, SecureClient, SecureClient) {
        let mut setup = SecureNetworkBuilder::new(0x5EC1)
            .with_user("alice", "pw-a", &["math", "chem"])
            .with_user("bob", "pw-b", &["math"])
            .build();
        let alice = setup.secure_client("alice-pc");
        let bob = setup.secure_client("bob-pc");
        (setup, alice, bob)
    }

    /// Checking the broker keys before the administrator key: once one of
    /// bob's advertisements validated, a second one under the same
    /// broker-issued credential costs a single new signature-cache miss, for
    /// its own XMLdsig.  (With the administrator key first, every check of
    /// the credential repeats one failing verify, which is never cached.)
    #[test]
    fn trust_model_revalidation_under_a_known_credential_pays_only_its_xmldsig() {
        let mut setup = SecureNetworkBuilder::new(0x7A57)
            .with_key_bits(512)
            .with_user("alice", "pw-a", &["math", "chem"])
            .with_user("bob", "pw-b", &["math", "chem"])
            .build();
        let (math, chem) = (GroupId::new("math"), GroupId::new("chem"));
        let mut alice = setup.secure_client("alice-pc");
        let mut bob = setup.secure_client("bob-pc");
        alice.secure_join(setup.broker_id(), "alice", "pw-a").unwrap();
        bob.secure_join(setup.broker_id(), "bob", "pw-b").unwrap();
        bob.publish_secure_pipe(&math).unwrap();
        bob.publish_secure_pipe(&chem).unwrap();

        alice.resolve_secure_pipe(&math, bob.id()).unwrap();
        let first = alice.sig_cache_stats();
        alice.resolve_secure_pipe(&chem, bob.id()).unwrap();
        let second = alice.sig_cache_stats();
        assert_eq!(second.misses, first.misses + 1, "{first:?} -> {second:?}");
        assert_eq!(second.hits, first.hits + 1, "the credential chain is a cache hit");
        setup.shutdown();
    }

    #[test]
    fn secure_connection_authenticates_broker() {
        let (setup, mut alice, _bob) = two_peer_setup();
        one_ms_link(&setup, alice.id(), setup.broker_id());
        let timing = alice.secure_connection(setup.broker_id()).unwrap();
        // The challenge and the broker's response each cross the link.
        assert_eq!(timing.wire, Duration::from_millis(2));
        assert!(alice.broker_credential().is_some());
        assert_eq!(alice.trust().brokers().len(), 1);
        assert!(alice.credential().is_none(), "no credential before login");
    }

    #[test]
    fn secure_login_requires_secure_connection_first() {
        let (_setup, mut alice, _bob) = two_peer_setup();
        assert!(matches!(
            alice.secure_login("alice", "pw-a"),
            Err(OverlayError::NotConnected | OverlayError::SecurityViolation(_))
        ));
    }

    #[test]
    fn secure_join_issues_credential_and_session() {
        let (setup, mut alice, _bob) = two_peer_setup();
        one_ms_link(&setup, alice.id(), setup.broker_id());
        let timing = alice
            .secure_join(setup.broker_id(), "alice", "pw-a")
            .unwrap();
        // Two request/response exchanges: secureConnection, secureLogin.
        assert_eq!(timing.wire, Duration::from_millis(4));
        assert!(alice.inner().is_logged_in());
        let credential = alice.credential().unwrap();
        assert_eq!(credential.subject_name, "alice");
        assert_eq!(credential.subject_id, alice.id());
        assert_eq!(alice.inner().groups().len(), 2);
    }

    #[test]
    fn secure_login_with_wrong_password_fails() {
        let (setup, mut alice, _bob) = two_peer_setup();
        alice.secure_connection(setup.broker_id()).unwrap();
        assert!(matches!(
            alice.secure_login("alice", "wrong"),
            Err(OverlayError::AuthenticationFailed)
        ));
        assert!(alice.credential().is_none());
        // The session identifier was consumed; a retry needs a new
        // secureConnection.
        assert!(matches!(
            alice.secure_login("alice", "pw-a"),
            Err(OverlayError::SecurityViolation(_))
        ));
        alice.secure_connection(setup.broker_id()).unwrap();
        alice.secure_login("alice", "pw-a").unwrap();
    }

    #[test]
    fn publish_requires_login() {
        let (_setup, mut alice, _bob) = two_peer_setup();
        assert!(matches!(
            alice.publish_secure_pipe(&GroupId::new("math")),
            Err(OverlayError::NotLoggedIn)
        ));
    }

    #[test]
    fn secure_message_roundtrip() {
        let (setup, mut alice, mut bob) = two_peer_setup();
        let group = GroupId::new("math");
        alice.secure_join(setup.broker_id(), "alice", "pw-a").unwrap();
        bob.secure_join(setup.broker_id(), "bob", "pw-b").unwrap();
        alice.publish_secure_pipe(&group).unwrap();
        bob.publish_secure_pipe(&group).unwrap();

        one_ms_link(&setup, alice.id(), bob.id());
        let timing = alice
            .secure_msg_peer(&group, bob.id(), "the exam is on friday")
            .unwrap();
        // One hop to bob; the broker lookup crosses an ideal link.
        assert_eq!(timing.wire, Duration::from_millis(1));

        let received = bob.receive_secure_messages().unwrap();
        assert_eq!(received.len(), 1);
        assert_eq!(received[0].text, "the exam is on friday");
        assert_eq!(received[0].from, alice.id());
        assert_eq!(received[0].sender_username, "alice");
        assert_eq!(received[0].group, group);
    }

    #[test]
    fn secure_message_to_unpublished_peer_fails() {
        let (setup, mut alice, mut bob) = two_peer_setup();
        let group = GroupId::new("math");
        alice.secure_join(setup.broker_id(), "alice", "pw-a").unwrap();
        bob.secure_join(setup.broker_id(), "bob", "pw-b").unwrap();
        alice.publish_secure_pipe(&group).unwrap();
        // Bob never published a signed pipe advertisement.
        assert!(alice.secure_msg_peer(&group, bob.id(), "hello?").is_err());
    }

    #[test]
    fn secure_message_requires_group_membership() {
        let (setup, mut alice, mut bob) = two_peer_setup();
        alice.secure_join(setup.broker_id(), "alice", "pw-a").unwrap();
        bob.secure_join(setup.broker_id(), "bob", "pw-b").unwrap();
        // Bob is not in "chem".
        assert!(matches!(
            bob.secure_msg_peer(&GroupId::new("chem"), alice.id(), "x"),
            Err(OverlayError::NotAGroupMember(_))
        ));
    }

    #[test]
    fn secure_group_fanout_sequential_and_parallel_agree() {
        let mut setup = SecureNetworkBuilder::new(0xFA0)
            .with_user("alice", "pw-a", &["g"])
            .with_user("bob", "pw-b", &["g"])
            .with_user("carol", "pw-c", &["g"])
            .with_user("dave", "pw-d", &["g"])
            .build();
        let group = GroupId::new("g");
        let mut alice = setup.secure_client("alice");
        let mut others: Vec<SecureClient> = ["bob", "carol", "dave"]
            .iter()
            .map(|name| {
                let mut c = setup.secure_client(name);
                c.secure_join(setup.broker_id(), name, &format!("pw-{}", &name[..1])).unwrap();
                c.publish_secure_pipe(&group).unwrap();
                c
            })
            .collect();
        alice.secure_join(setup.broker_id(), "alice", "pw-a").unwrap();
        alice.publish_secure_pipe(&group).unwrap();

        let (sent_seq, _) = alice.secure_msg_peer_group(&group, "sequential hello").unwrap();
        let (sent_par, _) = alice
            .secure_msg_peer_group_parallel(&group, "parallel hello")
            .unwrap();
        assert_eq!(sent_seq, 3);
        assert_eq!(sent_par, 3);

        for other in &mut others {
            let received = other.receive_secure_messages().unwrap();
            let texts: Vec<&str> = received.iter().map(|m| m.text.as_str()).collect();
            assert!(texts.contains(&"sequential hello"));
            assert!(texts.contains(&"parallel hello"));
            for message in &received {
                assert_eq!(message.sender_username, "alice");
            }
        }
    }

    #[test]
    fn tampered_secure_message_is_dropped() {
        use jxta_overlay::net::{Adversary, NetMessage, Verdict};
        struct FlipBits;
        impl Adversary for FlipBits {
            fn intercept(&self, message: &NetMessage) -> Verdict {
                // Only corrupt direct peer traffic (large payloads), leave the
                // broker protocol alone.
                if let Ok(m) = Message::from_bytes(&message.payload) {
                    if m.kind == MessageKind::SecurePeerText {
                        let mut forged = message.payload.clone();
                        let idx = forged.len() - 10;
                        forged[idx] ^= 0xff;
                        return Verdict::Tamper(forged);
                    }
                }
                Verdict::Deliver
            }
        }

        let (setup, mut alice, mut bob) = two_peer_setup();
        let group = GroupId::new("math");
        alice.secure_join(setup.broker_id(), "alice", "pw-a").unwrap();
        bob.secure_join(setup.broker_id(), "bob", "pw-b").unwrap();
        alice.publish_secure_pipe(&group).unwrap();
        bob.publish_secure_pipe(&group).unwrap();

        setup.network().set_adversary(std::sync::Arc::new(FlipBits));
        alice.secure_msg_peer(&group, bob.id(), "secret").unwrap();
        setup.network().clear_adversary();

        // The corrupted message is rejected, never surfaced as authentic.
        let received = bob.receive_secure_messages().unwrap();
        assert!(received.is_empty());
    }

}
