//! The Client Module.
//!
//! "Applications developed on top of JXTA-Overlay are always based on the
//! invocation of Client Module primitives and the processing of events thrown
//! by functions, executed as a result of message reception from other peers"
//! (paper, §2.2).  [`ClientPeer`] exposes those primitives:
//!
//! * **Discovery primitives** — [`ClientPeer::connect`] (locate a broker and
//!   open a connection) and [`ClientPeer::login`] (authenticate the end user
//!   with a clear-text username and password — the vulnerability the secure
//!   extension later removes).
//! * **Messenger primitives** — [`ClientPeer::send_msg_peer`] and
//!   [`ClientPeer::send_msg_peer_group`], which resolve the destination's
//!   pipe advertisement and deliver a simple text message without broker
//!   intervention.
//! * **Advertisement publication** — pipe, file, presence and statistics
//!   advertisements are published through the broker, which indexes them and
//!   pushes them to the other members of the group.
//! * **Events** — incoming messages surface through
//!   [`ClientPeer::poll_events`].
//!
//! Every primitive returns an [`OperationTiming`] so the benchmark harness
//! can decompose cost into CPU and wire time; the same accounting is reused
//! by the secure primitives in the `jxta-overlay-secure` crate, which wrap a
//! `ClientPeer`.

use crate::advertisement::{Advertisement, FileEntry, FileAdvertisement, PipeAdvertisement};
use crate::error::OverlayError;
use crate::group::GroupId;
use crate::id::PeerId;
use crate::message::{Message, MessageKind};
use crate::metrics::{OperationTiming, Stopwatch, WireTimeAccumulator};
use crate::net::{NetMessage, SimNetwork};
use crate::record;
use crossbeam::channel::Receiver;
use rand::RngCore;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of a client peer.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// End-user visible nickname.
    pub nickname: String,
    /// How long primitives wait for a broker/peer response.
    pub request_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            nickname: "peer".to_string(),
            request_timeout: Duration::from_secs(5),
        }
    }
}

impl ClientConfig {
    /// Convenience constructor setting only the nickname.
    pub fn named(nickname: impl Into<String>) -> Self {
        ClientConfig {
            nickname: nickname.into(),
            ..Default::default()
        }
    }
}

/// The client-side view of a logged-in session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientSession {
    /// Authenticated username.
    pub username: String,
    /// Groups the broker placed this user in.
    pub groups: Vec<GroupId>,
}

/// Events produced by incoming messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// A simple text message from another peer (`sendMsgPeer`).
    Text {
        /// Sending peer.
        from: PeerId,
        /// Group context of the message.
        group: GroupId,
        /// Message body.
        text: String,
    },
    /// An advertisement pushed by the broker.
    Advertisement {
        /// Group the advertisement belongs to.
        group: GroupId,
        /// Advertisement document type.
        doc_type: String,
        /// Raw advertisement XML.
        xml: String,
    },
    /// A message kind the plain client does not interpret (consumed by the
    /// secure extension).
    Raw(Message),
}

/// Counters describing a client's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Messages sent by this peer.
    pub messages_sent: u64,
    /// Payload bytes sent by this peer.
    pub bytes_sent: u64,
    /// Messages received by this peer.
    pub messages_received: u64,
}

/// A JXTA-Overlay client peer.
pub struct ClientPeer {
    id: PeerId,
    config: ClientConfig,
    network: Arc<SimNetwork>,
    inbox: Receiver<NetMessage>,
    broker: Option<PeerId>,
    session: Option<ClientSession>,
    next_request: u64,
    wire: WireTimeAccumulator,
    pipe_cache: HashMap<(GroupId, PeerId), PipeAdvertisement>,
    pending: VecDeque<ClientEvent>,
    stats: ClientStats,
}

impl ClientPeer {
    /// Creates a client peer with an explicit identifier and registers it
    /// with the network.
    pub fn new(network: Arc<SimNetwork>, config: ClientConfig, id: PeerId) -> Self {
        let inbox = network.register(id);
        ClientPeer {
            id,
            config,
            network,
            inbox,
            broker: None,
            session: None,
            next_request: 1,
            wire: WireTimeAccumulator::new(),
            pipe_cache: HashMap::new(),
            pending: VecDeque::new(),
            stats: ClientStats::default(),
        }
    }

    /// Creates a client peer with a random identifier.
    pub fn with_random_id<R: RngCore + ?Sized>(
        network: Arc<SimNetwork>,
        config: ClientConfig,
        rng: &mut R,
    ) -> Self {
        let id = PeerId::random(rng);
        Self::new(network, config, id)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// This peer's identifier.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// The peer's configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// The network the peer is attached to.
    pub fn network(&self) -> &Arc<SimNetwork> {
        &self.network
    }

    /// The broker this peer connected to, if any.
    pub fn broker_id(&self) -> Option<PeerId> {
        self.broker
    }

    /// The current session, if logged in.
    pub fn session(&self) -> Option<&ClientSession> {
        self.session.as_ref()
    }

    /// Returns `true` once `login` (or `secureLogin`) succeeded.
    pub fn is_logged_in(&self) -> bool {
        self.session.is_some()
    }

    /// Groups the user belongs to (empty before login).
    pub fn groups(&self) -> Vec<GroupId> {
        self.session
            .as_ref()
            .map(|s| s.groups.clone())
            .unwrap_or_default()
    }

    /// Activity counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Accumulated virtual wire time since the last call to
    /// [`ClientPeer::take_wire_time`].
    pub fn take_wire_time(&self) -> Duration {
        self.wire.take()
    }

    // ------------------------------------------------------------------
    // Low-level plumbing shared with the secure extension
    // ------------------------------------------------------------------

    /// Allocates a fresh request identifier.
    pub fn next_request_id(&mut self) -> u64 {
        let id = self.next_request;
        self.next_request += 1;
        id
    }

    /// Marks this peer as connected to `broker` (used by `connect` and by the
    /// secure extension's `secureConnection`).
    pub fn set_broker(&mut self, broker: PeerId) {
        self.broker = Some(broker);
    }

    /// Installs a session (used by `login` and by `secureLogin`).
    pub fn set_session(&mut self, username: impl Into<String>, groups: Vec<GroupId>) {
        self.session = Some(ClientSession {
            username: username.into(),
            groups,
        });
    }

    /// Sends a message to an arbitrary peer, accounting wire time and
    /// counters.
    pub fn send_message(&mut self, to: PeerId, message: &Message) -> Result<Duration, OverlayError> {
        let bytes = message.to_bytes();
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += bytes.len() as u64;
        let wire = self.network.send(self.id, to, bytes)?;
        self.wire.add(wire);
        Ok(wire)
    }

    /// Sends `message` to `to` and waits for a response with the same request
    /// id.  Responses of kind `expected` are returned; an `Ack` carrying
    /// `status = "error"` is turned into [`OverlayError::Rejected`]; unrelated
    /// messages received while waiting are queued as events.
    pub fn request(
        &mut self,
        to: PeerId,
        message: &Message,
        expected: MessageKind,
    ) -> Result<Message, OverlayError> {
        let request_id = message.request_id;
        self.send_message(to, message)?;
        let deadline = crate::clock::Deadline::after(self.config.request_timeout);
        loop {
            let remaining = deadline
                .remaining()
                .ok_or_else(|| OverlayError::Timeout {
                    operation: format!("{expected:?}"),
                })?;
            let net_message = self
                .inbox
                .recv_timeout(remaining)
                .map_err(|_| OverlayError::Timeout {
                    operation: format!("{expected:?}"),
                })?;
            self.wire.add(net_message.wire_time);
            self.stats.messages_received += 1;
            let incoming = match Message::from_bytes(&net_message.payload) {
                Ok(m) => m,
                Err(_) => continue,
            };
            if incoming.request_id == request_id {
                if incoming.kind == expected {
                    return Ok(incoming);
                }
                // A rejection for our request.
                if incoming.kind == MessageKind::Ack {
                    let reason = incoming
                        .element_str("reason")
                        .unwrap_or_else(|| "unspecified".to_string());
                    return Err(OverlayError::Rejected(reason));
                }
            }
            self.queue_incoming(incoming);
        }
    }

    /// Converts an unsolicited incoming message into an event.
    fn queue_incoming(&mut self, message: Message) {
        let event = match message.kind {
            MessageKind::PeerText => {
                let group = GroupId::new(message.element_str("group").unwrap_or_default());
                let text = message.element_str("text").unwrap_or_default();
                ClientEvent::Text {
                    from: message.sender,
                    group,
                    text,
                }
            }
            MessageKind::AdvertisementPush => {
                let group = GroupId::new(message.element_str("group").unwrap_or_default());
                let doc_type = message.element_str("doc-type").unwrap_or_default();
                let xml = message.element_str("xml").unwrap_or_default();
                // Opportunistically refresh the pipe-advertisement cache.
                if doc_type == PipeAdvertisement::DOC_TYPE {
                    if let Ok(adv) = PipeAdvertisement::from_xml(&xml) {
                        self.pipe_cache.insert((adv.group.clone(), adv.owner), adv);
                    }
                }
                ClientEvent::Advertisement {
                    group,
                    doc_type,
                    xml,
                }
            }
            _ => ClientEvent::Raw(message),
        };
        self.pending.push_back(event);
    }

    /// Drains the inbox (non-blocking) and returns all pending events.
    pub fn poll_events(&mut self) -> Vec<ClientEvent> {
        while let Ok(net_message) = self.inbox.try_recv() {
            self.wire.add(net_message.wire_time);
            self.stats.messages_received += 1;
            if let Ok(message) = Message::from_bytes(&net_message.payload) {
                self.queue_incoming(message);
            }
        }
        self.pending.drain(..).collect()
    }

    /// Blocks until at least one event is available or the timeout expires.
    pub fn wait_for_event(&mut self, timeout: Duration) -> Option<ClientEvent> {
        let deadline = crate::clock::Deadline::after(timeout);
        loop {
            if let Some(event) = self.pending.pop_front() {
                return Some(event);
            }
            let remaining = deadline.remaining()?;
            match self.inbox.recv_timeout(remaining) {
                Ok(net_message) => {
                    self.wire.add(net_message.wire_time);
                    self.stats.messages_received += 1;
                    if let Ok(message) = Message::from_bytes(&net_message.payload) {
                        self.queue_incoming(message);
                    }
                }
                Err(_) => return None,
            }
        }
    }

    // ------------------------------------------------------------------
    // Discovery primitives: connect and login
    // ------------------------------------------------------------------

    /// The `connect` primitive: locates the broker and opens a connection.
    pub fn connect(&mut self, broker: PeerId) -> Result<OperationTiming, OverlayError> {
        let stopwatch = Stopwatch::start();
        let wire_before = self.wire.take();
        let request_id = self.next_request_id();
        let message = Message::new(MessageKind::ConnectRequest, self.id, request_id)
            .with_str("nickname", &self.config.nickname);
        let response = self.request(broker, &message, MessageKind::ConnectResponse)?;
        if response.element_str("status").as_deref() != Some("ok") {
            return Err(OverlayError::Rejected(
                response
                    .element_str("reason")
                    .unwrap_or_else(|| "connect rejected".to_string()),
            ));
        }
        self.broker = Some(broker);
        let wire = self.wire.take();
        self.wire.add(wire_before);
        Ok(OperationTiming::new(stopwatch.elapsed().saturating_sub(Duration::ZERO), wire))
    }

    /// The `login` primitive: authenticates the end user by sending the
    /// username and password **in the clear** — exactly the vulnerability the
    /// paper's `secureLogin` addresses.
    pub fn login(
        &mut self,
        username: &str,
        password: &str,
    ) -> Result<OperationTiming, OverlayError> {
        let broker = self.broker.ok_or(OverlayError::NotConnected)?;
        let stopwatch = Stopwatch::start();
        let wire_before = self.wire.take();
        let request_id = self.next_request_id();
        let message = Message::new(MessageKind::LoginRequest, self.id, request_id)
            .with_str("username", username)
            .with_str("password", password);
        let response = self.request(broker, &message, MessageKind::LoginResponse)?;
        if response.element_str("status").as_deref() != Some("ok") {
            return Err(OverlayError::AuthenticationFailed);
        }
        let groups: Vec<GroupId> = response
            .element_str("groups")
            .unwrap_or_default()
            .split(',')
            .filter(|s| !s.is_empty())
            .map(GroupId::new)
            .collect();
        self.set_session(username, groups);
        let wire = self.wire.take();
        self.wire.add(wire_before);
        Ok(OperationTiming::new(stopwatch.elapsed(), wire))
    }

    // ------------------------------------------------------------------
    // Advertisement publication and lookup
    // ------------------------------------------------------------------

    /// Publishes an arbitrary advertisement document through the broker.
    pub fn publish_advertisement(
        &mut self,
        group: &GroupId,
        doc_type: &str,
        xml: &str,
    ) -> Result<(), OverlayError> {
        let broker = self.broker.ok_or(OverlayError::NotConnected)?;
        if !self.is_logged_in() {
            return Err(OverlayError::NotLoggedIn);
        }
        let request_id = self.next_request_id();
        let message = Message::new(MessageKind::PublishAdvertisement, self.id, request_id)
            .with_str("group", group.as_str())
            .with_str("doc-type", doc_type)
            .with_str("xml", xml);
        let response = self.request(broker, &message, MessageKind::Ack)?;
        if response.element_str("status").as_deref() == Some("ok") {
            Ok(())
        } else {
            Err(OverlayError::Rejected(
                response
                    .element_str("reason")
                    .unwrap_or_else(|| "publish rejected".to_string()),
            ))
        }
    }

    /// Publishes this peer's input-pipe advertisement for `group`.
    pub fn publish_pipe(&mut self, group: &GroupId) -> Result<PipeAdvertisement, OverlayError> {
        let advertisement = PipeAdvertisement {
            owner: self.id,
            group: group.clone(),
            name: format!("{}-inbox", self.config.nickname),
        };
        self.publish_advertisement(group, PipeAdvertisement::DOC_TYPE, &advertisement.to_xml())?;
        self.pipe_cache
            .insert((group.clone(), self.id), advertisement.clone());
        Ok(advertisement)
    }

    /// Publishes the list of files this peer shares with `group`.
    pub fn publish_files(
        &mut self,
        group: &GroupId,
        entries: Vec<FileEntry>,
    ) -> Result<(), OverlayError> {
        let advertisement = FileAdvertisement {
            owner: self.id,
            group: group.clone(),
            entries,
        };
        self.publish_advertisement(group, FileAdvertisement::DOC_TYPE, &advertisement.to_xml())
    }

    /// Performs a broker lookup and returns the raw advertisement XML strings.
    pub fn lookup_advertisements(
        &mut self,
        group: &GroupId,
        doc_type: &str,
        owner: Option<PeerId>,
    ) -> Result<Vec<String>, OverlayError> {
        let broker = self.broker.ok_or(OverlayError::NotConnected)?;
        if !self.is_logged_in() {
            return Err(OverlayError::NotLoggedIn);
        }
        let request_id = self.next_request_id();
        let mut message = Message::new(MessageKind::LookupRequest, self.id, request_id)
            .with_str("group", group.as_str())
            .with_str("doc-type", doc_type);
        if let Some(owner) = owner {
            message.push_element("owner", owner.to_urn().into_bytes());
        }
        let response = self.request(broker, &message, MessageKind::LookupResponse)?;
        Ok(response.element("adverts").map(record::decode).unwrap_or_default())
    }

    /// Asks the broker whether `peer` is currently a member of `group`.
    ///
    /// The requester must be logged in and a member of `group` itself.  In a
    /// sharded federation the broker answers from its own shard when it owns
    /// the `(group, peer)` entry and routes the query to an owning replica
    /// otherwise — transparently to the client.
    pub fn query_membership(
        &mut self,
        group: &GroupId,
        peer: PeerId,
    ) -> Result<bool, OverlayError> {
        let broker = self.broker.ok_or(OverlayError::NotConnected)?;
        if !self.is_logged_in() {
            return Err(OverlayError::NotLoggedIn);
        }
        let request_id = self.next_request_id();
        let message = Message::new(MessageKind::LookupRequest, self.id, request_id)
            .with_str("group", group.as_str())
            .with_str("member", &peer.to_urn());
        let response = self.request(broker, &message, MessageKind::LookupResponse)?;
        Ok(response.element_str("member").as_deref() == Some("true"))
    }

    /// Resolves the pipe advertisement of `owner` within `group`, consulting
    /// the local cache first (paper §4.3: locating the advertisement is
    /// always necessary, secure or not).
    pub fn resolve_pipe(
        &mut self,
        group: &GroupId,
        owner: PeerId,
    ) -> Result<PipeAdvertisement, OverlayError> {
        if let Some(adv) = self.pipe_cache.get(&(group.clone(), owner)) {
            return Ok(adv.clone());
        }
        let results =
            self.lookup_advertisements(group, PipeAdvertisement::DOC_TYPE, Some(owner))?;
        let xml = results.first().ok_or_else(|| {
            OverlayError::AdvertisementNotFound(format!("pipe of {owner} in {group}"))
        })?;
        let advertisement = PipeAdvertisement::from_xml(xml)?;
        self.pipe_cache
            .insert((group.clone(), owner), advertisement.clone());
        Ok(advertisement)
    }

    /// Resolves every pipe advertisement published in `group` (the member
    /// list used by `sendMsgPeerGroup`).
    pub fn resolve_group_pipes(
        &mut self,
        group: &GroupId,
    ) -> Result<Vec<PipeAdvertisement>, OverlayError> {
        let results = self.lookup_advertisements(group, PipeAdvertisement::DOC_TYPE, None)?;
        let mut advertisements = Vec::with_capacity(results.len());
        for xml in &results {
            let adv = PipeAdvertisement::from_xml(xml)?;
            self.pipe_cache
                .insert((group.clone(), adv.owner), adv.clone());
            advertisements.push(adv);
        }
        Ok(advertisements)
    }

    /// Looks up the raw pipe-advertisement XML of `owner` in `group`,
    /// bypassing the typed cache.  The secure extension uses this to obtain
    /// the signed advertisement document for validation.
    pub fn resolve_pipe_xml(
        &mut self,
        group: &GroupId,
        owner: PeerId,
    ) -> Result<String, OverlayError> {
        let results =
            self.lookup_advertisements(group, PipeAdvertisement::DOC_TYPE, Some(owner))?;
        results.into_iter().next().ok_or_else(|| {
            OverlayError::AdvertisementNotFound(format!("pipe of {owner} in {group}"))
        })
    }

    // ------------------------------------------------------------------
    // Messenger primitives
    // ------------------------------------------------------------------

    /// The `sendMsgPeer` primitive: sends a simple text message to another
    /// peer without broker intervention.
    pub fn send_msg_peer(
        &mut self,
        group: &GroupId,
        to: PeerId,
        text: &str,
    ) -> Result<OperationTiming, OverlayError> {
        if !self.is_logged_in() {
            return Err(OverlayError::NotLoggedIn);
        }
        if !self.groups().contains(group) {
            return Err(OverlayError::NotAGroupMember(group.as_str().to_string()));
        }
        let stopwatch = Stopwatch::start();
        // Step 1 (paper §4.3): retrieve the destination's pipe advertisement.
        let advertisement = self.resolve_pipe(group, to)?;
        debug_assert_eq!(advertisement.owner, to);
        // Step 2: deliver the message over the pipe.
        let request_id = self.next_request_id();
        let message = Message::new(MessageKind::PeerText, self.id, request_id)
            .with_str("group", group.as_str())
            .with_str("text", text);
        let wire = self.send_message(to, &message)?;
        Ok(OperationTiming::new(stopwatch.elapsed(), wire))
    }

    /// Asks this peer's home broker to relay an opaque `payload` to `to`,
    /// wherever in the federation that peer is homed.  Returns the broker's
    /// acknowledgement (whose `route` element says whether the destination
    /// was local or reached over the backbone).
    ///
    /// The payload travels unmodified: the destination receives exactly
    /// these bytes, so the secure extension can relay sealed envelopes
    /// without the brokers being able to read or alter them.
    pub fn relay_payload(&mut self, to: PeerId, payload: Vec<u8>) -> Result<Message, OverlayError> {
        let broker = self.broker.ok_or(OverlayError::NotConnected)?;
        if !self.is_logged_in() {
            return Err(OverlayError::NotLoggedIn);
        }
        let request_id = self.next_request_id();
        let message = Message::new(MessageKind::RelayViaBroker, self.id, request_id)
            .with_str("to", &to.to_urn())
            .with_element("payload", payload);
        let response = self.request(broker, &message, MessageKind::Ack)?;
        if response.element_str("status").as_deref() == Some("ok") {
            Ok(response)
        } else {
            Err(OverlayError::Rejected(
                response
                    .element_str("reason")
                    .unwrap_or_else(|| "relay rejected".to_string()),
            ))
        }
    }

    /// The broker-relayed variant of `sendMsgPeer`: the text is handed to
    /// this peer's home broker, which routes it through the federation to
    /// the destination's home broker.  Used when the destination is homed at
    /// another broker of the backbone.
    pub fn relay_msg_peer(
        &mut self,
        group: &GroupId,
        to: PeerId,
        text: &str,
    ) -> Result<OperationTiming, OverlayError> {
        if !self.is_logged_in() {
            return Err(OverlayError::NotLoggedIn);
        }
        if !self.groups().contains(group) {
            return Err(OverlayError::NotAGroupMember(group.as_str().to_string()));
        }
        let stopwatch = Stopwatch::start();
        let wire_before = self.wire.take();
        let request_id = self.next_request_id();
        let message = Message::new(MessageKind::PeerText, self.id, request_id)
            .with_str("group", group.as_str())
            .with_str("text", text);
        self.relay_payload(to, message.to_bytes())?;
        let wire = self.wire.take();
        self.wire.add(wire_before);
        Ok(OperationTiming::new(stopwatch.elapsed(), wire))
    }

    /// The `sendMsgPeerGroup` primitive: sends the same message to every
    /// member of the group by iteratively calling [`ClientPeer::send_msg_peer`]
    /// (exactly how the original JXTA-Overlay resolves it).
    ///
    /// Returns the number of peers the message was sent to and the combined
    /// timing.
    pub fn send_msg_peer_group(
        &mut self,
        group: &GroupId,
        text: &str,
    ) -> Result<(usize, OperationTiming), OverlayError> {
        if !self.is_logged_in() {
            return Err(OverlayError::NotLoggedIn);
        }
        let stopwatch = Stopwatch::start();
        let members = self.resolve_group_pipes(group)?;
        let mut total_wire = Duration::ZERO;
        let mut sent = 0usize;
        for advertisement in members {
            if advertisement.owner == self.id {
                continue;
            }
            let timing = self.send_msg_peer(group, advertisement.owner, text)?;
            total_wire += timing.wire;
            sent += 1;
        }
        Ok((sent, OperationTiming::new(stopwatch.elapsed(), total_wire)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::{Broker, BrokerConfig};
    use crate::database::UserDatabase;
    use crate::net::LinkModel;
    use jxta_crypto::drbg::HmacDrbg;

    struct Fixture {
        network: Arc<SimNetwork>,
        broker: crate::broker::BrokerHandle,
        rng: HmacDrbg,
    }

    fn fixture() -> Fixture {
        let mut rng = HmacDrbg::from_seed_u64(0xC11E);
        let network = SimNetwork::new(LinkModel::ideal());
        let database = Arc::new(UserDatabase::new());
        database.register_user(&mut rng, "alice", "pw-a", &[GroupId::new("math")]);
        database.register_user(&mut rng, "bob", "pw-b", &[GroupId::new("math")]);
        database.register_user(&mut rng, "carol", "pw-c", &[GroupId::new("math"), GroupId::new("chem")]);
        let broker = Broker::new(
            PeerId::random(&mut rng),
            BrokerConfig::named("fit-broker"),
            Arc::clone(&network),
            database,
        )
        .spawn();
        Fixture { network, broker, rng }
    }

    fn logged_in_client(fx: &mut Fixture, nickname: &str, user: &str, pw: &str) -> ClientPeer {
        let mut client = ClientPeer::with_random_id(
            Arc::clone(&fx.network),
            ClientConfig::named(nickname),
            &mut fx.rng,
        );
        client.connect(fx.broker.id()).unwrap();
        client.login(user, pw).unwrap();
        client
    }

    #[test]
    fn connect_and_login_flow() {
        let mut fx = fixture();
        let mut client = ClientPeer::with_random_id(
            Arc::clone(&fx.network),
            ClientConfig::named("alice-laptop"),
            &mut fx.rng,
        );
        assert!(!client.is_logged_in());
        assert!(client.broker_id().is_none());

        client.connect(fx.broker.id()).unwrap();
        assert_eq!(client.broker_id(), Some(fx.broker.id()));

        // Both legs of the login cross a modelled 1 ms link.
        let link = LinkModel::new(Duration::from_millis(1), 0);
        fx.network.set_link_between(client.id(), fx.broker.id(), link);
        let timing = client.login("alice", "pw-a").unwrap();
        assert!(client.is_logged_in());
        assert_eq!(client.session().unwrap().username, "alice");
        assert_eq!(client.groups(), vec![GroupId::new("math")]);
        assert_eq!(timing.wire, Duration::from_millis(2));
    }

    #[test]
    fn login_before_connect_fails() {
        let mut fx = fixture();
        let mut client = ClientPeer::with_random_id(
            Arc::clone(&fx.network),
            ClientConfig::default(),
            &mut fx.rng,
        );
        assert!(matches!(
            client.login("alice", "pw-a"),
            Err(OverlayError::NotConnected)
        ));
    }

    #[test]
    fn login_with_bad_password_fails() {
        let mut fx = fixture();
        let mut client = ClientPeer::with_random_id(
            Arc::clone(&fx.network),
            ClientConfig::default(),
            &mut fx.rng,
        );
        client.connect(fx.broker.id()).unwrap();
        assert!(matches!(
            client.login("alice", "nope"),
            Err(OverlayError::AuthenticationFailed)
        ));
        assert!(!client.is_logged_in());
    }

    #[test]
    fn connect_to_unreachable_broker_times_out_or_fails() {
        let mut fx = fixture();
        let mut client = ClientPeer::with_random_id(
            Arc::clone(&fx.network),
            ClientConfig {
                nickname: "x".into(),
                request_timeout: Duration::from_millis(50),
            },
            &mut fx.rng,
        );
        let ghost = PeerId::random(&mut fx.rng);
        assert!(client.connect(ghost).is_err());
    }

    #[test]
    fn publish_and_resolve_pipe_advertisements() {
        let mut fx = fixture();
        let group = GroupId::new("math");
        let mut alice = logged_in_client(&mut fx, "alice-pc", "alice", "pw-a");
        let mut bob = logged_in_client(&mut fx, "bob-pc", "bob", "pw-b");

        alice.publish_pipe(&group).unwrap();
        bob.publish_pipe(&group).unwrap();

        let resolved = alice.resolve_pipe(&group, bob.id()).unwrap();
        assert_eq!(resolved.owner, bob.id());
        assert_eq!(resolved.name, "bob-pc-inbox");

        // Second resolution hits the cache (no new lookup traffic).
        let before = fx.network.stats().messages_sent;
        let _ = alice.resolve_pipe(&group, bob.id()).unwrap();
        assert_eq!(fx.network.stats().messages_sent, before);

        let all = alice.resolve_group_pipes(&group).unwrap();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn resolve_missing_pipe_fails() {
        let mut fx = fixture();
        let group = GroupId::new("math");
        let mut alice = logged_in_client(&mut fx, "alice-pc", "alice", "pw-a");
        let stranger = PeerId::random(&mut fx.rng);
        assert!(matches!(
            alice.resolve_pipe(&group, stranger),
            Err(OverlayError::AdvertisementNotFound(_))
        ));
    }

    #[test]
    fn send_msg_peer_delivers_text() {
        let mut fx = fixture();
        let group = GroupId::new("math");
        let mut alice = logged_in_client(&mut fx, "alice-pc", "alice", "pw-a");
        let mut bob = logged_in_client(&mut fx, "bob-pc", "bob", "pw-b");
        alice.publish_pipe(&group).unwrap();
        bob.publish_pipe(&group).unwrap();

        alice.send_msg_peer(&group, bob.id(), "hi bob!").unwrap();

        let events = bob.poll_events();
        assert!(events.iter().any(|e| matches!(
            e,
            ClientEvent::Text { from, text, group: g }
                if *from == alice.id() && text == "hi bob!" && g.as_str() == "math"
        )));
    }

    #[test]
    fn send_msg_peer_requires_login_and_membership() {
        let mut fx = fixture();
        let group = GroupId::new("chem");
        let mut alice = logged_in_client(&mut fx, "alice-pc", "alice", "pw-a");
        let target = PeerId::random(&mut fx.rng);
        // alice is only in "math".
        assert!(matches!(
            alice.send_msg_peer(&group, target, "x"),
            Err(OverlayError::NotAGroupMember(_))
        ));

        let mut fresh = ClientPeer::with_random_id(
            Arc::clone(&fx.network),
            ClientConfig::default(),
            &mut fx.rng,
        );
        assert!(matches!(
            fresh.send_msg_peer(&GroupId::new("math"), target, "x"),
            Err(OverlayError::NotLoggedIn)
        ));
    }

    #[test]
    fn send_msg_peer_group_reaches_all_members() {
        let mut fx = fixture();
        let group = GroupId::new("math");
        let mut alice = logged_in_client(&mut fx, "alice-pc", "alice", "pw-a");
        let mut bob = logged_in_client(&mut fx, "bob-pc", "bob", "pw-b");
        let mut carol = logged_in_client(&mut fx, "carol-pc", "carol", "pw-c");
        alice.publish_pipe(&group).unwrap();
        bob.publish_pipe(&group).unwrap();
        carol.publish_pipe(&group).unwrap();

        // Each member is one hop away over a modelled 1 ms link.
        let link = LinkModel::new(Duration::from_millis(1), 0);
        for member in [bob.id(), carol.id()] {
            fx.network.set_link_between(alice.id(), member, link);
        }
        let (sent, timing) = alice.send_msg_peer_group(&group, "hello everyone").unwrap();
        assert_eq!(sent, 2, "alice does not send to herself");
        assert_eq!(timing.wire, Duration::from_millis(2));

        for receiver in [&mut bob, &mut carol] {
            let events = receiver.poll_events();
            assert!(
                events.iter().any(|e| matches!(e, ClientEvent::Text { text, .. } if text == "hello everyone")),
                "every member receives the text"
            );
        }
    }

    #[test]
    fn relay_msg_peer_delivers_via_the_broker() {
        let mut fx = fixture();
        let group = GroupId::new("math");
        let mut alice = logged_in_client(&mut fx, "alice-pc", "alice", "pw-a");
        let mut bob = logged_in_client(&mut fx, "bob-pc", "bob", "pw-b");

        alice.relay_msg_peer(&group, bob.id(), "routed hi").unwrap();
        let event = bob.wait_for_event(Duration::from_secs(2)).unwrap();
        assert!(matches!(
            event,
            ClientEvent::Text { from, text, group: g }
                if from == alice.id() && text == "routed hi" && g.as_str() == "math"
        ));
        assert_eq!(fx.broker.broker().federation_stats().relays_delivered, 1);
    }

    #[test]
    fn relay_msg_peer_requires_login_membership_and_known_destination() {
        let mut fx = fixture();
        let mut fresh = ClientPeer::with_random_id(
            Arc::clone(&fx.network),
            ClientConfig::default(),
            &mut fx.rng,
        );
        let target = PeerId::random(&mut fx.rng);
        assert!(matches!(
            fresh.relay_msg_peer(&GroupId::new("math"), target, "x"),
            Err(OverlayError::NotLoggedIn)
        ));
        assert!(matches!(
            fresh.relay_payload(target, b"x".to_vec()),
            Err(OverlayError::NotConnected)
        ));

        let mut alice = logged_in_client(&mut fx, "alice-pc", "alice", "pw-a");
        assert!(matches!(
            alice.relay_msg_peer(&GroupId::new("chem"), target, "x"),
            Err(OverlayError::NotAGroupMember(_))
        ));
        // Logged in, member, but the destination is unknown to the broker.
        assert!(matches!(
            alice.relay_msg_peer(&GroupId::new("math"), target, "x"),
            Err(OverlayError::Rejected(reason)) if reason.contains("unknown destination")
        ));
    }

    #[test]
    fn advertisement_pushes_surface_as_events_and_fill_cache() {
        let mut fx = fixture();
        let group = GroupId::new("math");
        let mut alice = logged_in_client(&mut fx, "alice-pc", "alice", "pw-a");
        let mut bob = logged_in_client(&mut fx, "bob-pc", "bob", "pw-b");

        alice.publish_pipe(&group).unwrap();
        let events = bob.poll_events();
        assert!(events.iter().any(|e| matches!(
            e,
            ClientEvent::Advertisement { doc_type, .. } if doc_type == PipeAdvertisement::DOC_TYPE
        )));
        // The push pre-populated bob's cache: resolving alice's pipe costs no
        // further lookup.
        let before = fx.network.stats().messages_sent;
        let adv = bob.resolve_pipe(&group, alice.id()).unwrap();
        assert_eq!(adv.owner, alice.id());
        assert_eq!(fx.network.stats().messages_sent, before);
    }

    #[test]
    fn publish_files_and_lookup() {
        let mut fx = fixture();
        let group = GroupId::new("math");
        let mut alice = logged_in_client(&mut fx, "alice-pc", "alice", "pw-a");
        let mut bob = logged_in_client(&mut fx, "bob-pc", "bob", "pw-b");

        alice
            .publish_files(
                &group,
                vec![FileEntry {
                    name: "homework.pdf".into(),
                    size: 1024,
                    digest: "00".repeat(32),
                }],
            )
            .unwrap();

        let found = bob
            .lookup_advertisements(&group, FileAdvertisement::DOC_TYPE, Some(alice.id()))
            .unwrap();
        assert_eq!(found.len(), 1);
        let adv = FileAdvertisement::from_xml(&found[0]).unwrap();
        assert_eq!(adv.entries[0].name, "homework.pdf");
    }

    #[test]
    fn stats_and_wire_time_accounting() {
        let mut fx = fixture();
        let mut client = ClientPeer::with_random_id(
            Arc::clone(&fx.network),
            ClientConfig::default(),
            &mut fx.rng,
        );
        client.connect(fx.broker.id()).unwrap();
        let stats = client.stats();
        assert!(stats.messages_sent >= 1);
        assert!(stats.messages_received >= 1);
        assert!(stats.bytes_sent > 0);
        // Ideal link → zero wire time, but the accumulator still works.
        assert_eq!(client.take_wire_time(), Duration::ZERO);
    }

    #[test]
    fn wire_time_reflects_link_model() {
        let mut rng = HmacDrbg::from_seed_u64(0x11AB);
        let network = SimNetwork::new(LinkModel::new(Duration::from_millis(3), 0));
        let database = Arc::new(UserDatabase::new());
        database.register_user(&mut rng, "alice", "pw", &[GroupId::new("g")]);
        let broker = Broker::new(
            PeerId::random(&mut rng),
            BrokerConfig::default(),
            Arc::clone(&network),
            database,
        )
        .spawn();
        let mut client =
            ClientPeer::with_random_id(Arc::clone(&network), ClientConfig::default(), &mut rng);
        let timing = client.connect(broker.id()).unwrap();
        // Request plus response → two legs of 3 ms each.
        assert_eq!(timing.wire, Duration::from_millis(6));
        broker.shutdown();
    }

    #[test]
    fn wait_for_event_blocks_until_delivery() {
        let mut fx = fixture();
        let group = GroupId::new("math");
        let mut alice = logged_in_client(&mut fx, "alice-pc", "alice", "pw-a");
        let mut bob = logged_in_client(&mut fx, "bob-pc", "bob", "pw-b");
        alice.publish_pipe(&group).unwrap();
        bob.publish_pipe(&group).unwrap();
        // Drain the publication pushes first.
        let _ = bob.poll_events();

        alice.send_msg_peer(&group, bob.id(), "ping").unwrap();
        let event = bob.wait_for_event(Duration::from_secs(2)).unwrap();
        assert!(matches!(event, ClientEvent::Text { text, .. } if text == "ping"));
        // No further events → timeout returns None.
        assert!(bob.wait_for_event(Duration::from_millis(10)).is_none());
    }

    /// A lookup's documents are text records sized by their own length
    /// prefixes, so the decode stops at the element's end: a record after
    /// `<a/>` whose prefix claims 10⁶ bytes, with nothing behind it, ends
    /// the decode in a handful of element lookups and allocates nothing
    /// for the claim.
    #[test]
    fn forged_lookup_record_length_stops_at_the_element_end() {
        let mut rng = HmacDrbg::from_seed_u64(0xC0DE);
        let network = SimNetwork::new(LinkModel::ideal());
        let fake_broker = PeerId::random(&mut rng);
        let _broker_inbox = network.register(fake_broker);
        let mut client = ClientPeer::with_random_id(
            Arc::clone(&network),
            ClientConfig::named("probe"),
            &mut rng,
        );
        client.set_broker(fake_broker);
        client.set_session("alice", vec![GroupId::new("math")]);
        // Answer the lookup below (it takes the next request id) up front.
        let request_id = client.next_request_id() + 1;
        let mut adverts = record::encode(&["<a/>".to_string()]);
        adverts.extend_from_slice(&1_000_000u32.to_be_bytes());
        let forged = Message::new(MessageKind::LookupResponse, fake_broker, request_id)
            .with_str("status", "ok")
            .with_element("adverts", adverts);
        network
            .send(fake_broker, client.id(), forged.to_bytes())
            .unwrap();
        let before = crate::message::scan_probe::visited();
        let results = client
            .lookup_advertisements(&GroupId::new("math"), "jxta:PipeAdvertisement", None)
            .unwrap();
        let visited = crate::message::scan_probe::visited() - before;
        assert_eq!(results, vec!["<a/>".to_string()]);
        let elements = forged.elements.len() as u64;
        assert!(
            visited <= 64 * elements,
            "{visited} element lookups for {elements} elements"
        );
    }
}
