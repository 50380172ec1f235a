//! JXTA-style messages: a message kind plus a set of named binary elements.
//!
//! JXTA transports application data as *messages* containing named message
//! elements.  JXTA-Overlay's Control Module builds its primitives and
//! functions on top of that.  The simulator keeps the same shape: a
//! [`Message`] has a [`MessageKind`] (which primitive or function it belongs
//! to) and a list of `(name, bytes)` elements, and serialises to a compact
//! length-prefixed binary layout so that the network layer can charge
//! bandwidth for realistic message sizes.

use crate::error::OverlayError;
use crate::id::{PeerId, PEER_ID_LEN};

/// The kind of a JXTA-Overlay message — which primitive or broker function
/// it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MessageKind {
    /// Client → broker: open a connection (discovery primitive `connect`).
    ConnectRequest = 1,
    /// Broker → client: connection accepted.
    ConnectResponse = 2,
    /// Client → broker: authenticate an end user (`login`).
    LoginRequest = 3,
    /// Broker → client: login outcome.
    LoginResponse = 4,
    /// Client ↔ client: a simple text message (`sendMsgPeer`).
    PeerText = 5,
    /// Client → broker: publish an advertisement for distribution.
    PublishAdvertisement = 6,
    /// Broker → clients: an advertisement forwarded to group members.
    AdvertisementPush = 7,
    /// Client → broker: look up advertisements / peer info.
    LookupRequest = 8,
    /// Broker → client: lookup results.
    LookupResponse = 9,
    /// Client → broker: ask the home broker to relay an opaque payload to a
    /// peer that may be homed at another broker of the federation.
    RelayViaBroker = 10,
    /// Secure extension: challenge sent by the client (`secureConnection`).
    SecureConnectChallenge = 20,
    /// Secure extension: broker's signed response to the challenge.
    SecureConnectResponse = 21,
    /// Secure extension: encrypted login request (`secureLogin`).
    SecureLoginRequest = 22,
    /// Secure extension: broker's response carrying the issued credential.
    SecureLoginResponse = 23,
    /// Secure extension: encrypted and signed peer message (`secureMsgPeer`).
    SecurePeerText = 24,
    /// Secure extension: a broker-pushed update of the federation's
    /// credential set, sent to *live* clients when a broker is admitted so
    /// peers that joined earlier can validate advertisements signed under
    /// the newcomer's credentials.
    CredentialUpdate = 25,
    /// Generic acknowledgement / error report.
    Ack = 30,
    /// Broker ↔ broker: federation gossip replicating the advertisement
    /// index, group membership and peer→broker routing.
    BrokerSync = 40,
    /// Broker ↔ broker: a relayed client payload crossing the backbone.
    BrokerRelay = 41,
    /// Broker ↔ broker: a lookup (advertisement search / pipe resolution /
    /// group-membership query) routed to a shard replica of the queried key.
    ShardQuery = 42,
    /// Broker ↔ broker: a shard replica's answer to a [`MessageKind::ShardQuery`].
    ShardResponse = 43,
    /// Broker ↔ broker: an anti-entropy digest — per-section hashes of the
    /// state the sender and receiver are jointly responsible for.  A receiver
    /// whose own hashes disagree answers with
    /// [`MessageKind::AntiEntropySnapshot`].
    AntiEntropyDigest = 44,
    /// Broker ↔ broker: a full snapshot of the mismatched anti-entropy
    /// sections, merged with last-writer-wins versions so repair can never
    /// regress a newer write.  Also carries range-scoped *pages* during a
    /// hash-tree descent: the same element layout plus a `[range-lo,
    /// range-hi]` shard-key window that bounds what the page covers.
    AntiEntropySnapshot = 45,
    /// Broker ↔ broker: one leg of a hash-tree descent.  Carries the child
    /// summaries of repair-tree nodes the two brokers disagree on; the
    /// receiver compares them against its own tree and answers with the next
    /// level down, or with range-scoped [`MessageKind::AntiEntropySnapshot`]
    /// pages once a divergent range is small enough to ship.
    AntiEntropyRange = 46,
    /// Broker ↔ broker: a membership shuffle — a pseudo-random sample of the
    /// sender's known peer set and its SWIM incarnation, sent each repair
    /// tick to a view member as first-hand liveness evidence.  Answered with
    /// [`MessageKind::MembershipShuffleReply`].
    MembershipShuffle = 47,
    /// Broker ↔ broker: the receiver's own sample answering a
    /// [`MessageKind::MembershipShuffle`] (not answered further).
    MembershipShuffleReply = 48,
    /// Broker ↔ broker: a lazy Plumtree digest — the gossip ids of broadcast
    /// events the sender holds but did not push eagerly over this edge.  A
    /// receiver missing one answers [`MessageKind::PlumtreeGraft`].
    PlumtreeIHave = 49,
    /// Broker ↔ broker: pulls broadcast events a digest revealed as missed
    /// and promotes the advertising edge into the sender's eager tree.
    PlumtreeGraft = 50,
    /// Broker ↔ broker: demotes the edge to lazy — the receiver keeps
    /// delivering duplicates the tree already covers.
    PlumtreePrune = 51,
    /// Broker ↔ broker: a SWIM direct probe.  Carries the sender's
    /// incarnation; an optional `reply-to` element names the broker the ack
    /// must go to (set when the ping travels an indirect route on behalf of
    /// another prober).  Answered with [`MessageKind::SwimAck`].
    SwimPing = 52,
    /// Broker ↔ broker: an indirect probe request — the sender's direct
    /// probe of `target` timed out, so the receiver pings `target` itself
    /// with `reply-to` pointing back at the original prober.
    SwimPingReq = 53,
    /// Broker ↔ broker: a liveness acknowledgement carrying the acking
    /// broker's incarnation (direct evidence overriding gossiped verdicts).
    SwimAck = 54,
}

impl MessageKind {
    /// Decodes a kind from its wire byte.
    pub fn from_u8(value: u8) -> Option<Self> {
        use MessageKind::*;
        Some(match value {
            1 => ConnectRequest,
            2 => ConnectResponse,
            3 => LoginRequest,
            4 => LoginResponse,
            5 => PeerText,
            6 => PublishAdvertisement,
            7 => AdvertisementPush,
            8 => LookupRequest,
            9 => LookupResponse,
            10 => RelayViaBroker,
            20 => SecureConnectChallenge,
            21 => SecureConnectResponse,
            22 => SecureLoginRequest,
            23 => SecureLoginResponse,
            24 => SecurePeerText,
            25 => CredentialUpdate,
            30 => Ack,
            40 => BrokerSync,
            41 => BrokerRelay,
            42 => ShardQuery,
            43 => ShardResponse,
            44 => AntiEntropyDigest,
            45 => AntiEntropySnapshot,
            46 => AntiEntropyRange,
            47 => MembershipShuffle,
            48 => MembershipShuffleReply,
            49 => PlumtreeIHave,
            50 => PlumtreeGraft,
            51 => PlumtreePrune,
            52 => SwimPing,
            53 => SwimPingReq,
            54 => SwimAck,
            _ => return None,
        })
    }

    /// Whether this kind is broker ↔ broker backbone traffic (every kind
    /// numbered from [`MessageKind::BrokerSync`] up).  A broker admits such
    /// a message only from a known peer broker, over that broker's own
    /// link, with a fresh sequence number — see [`crate::broker::Broker::process_net`].
    pub fn is_inter_broker(self) -> bool {
        self as u8 >= MessageKind::BrokerSync as u8
    }
}

/// A named message element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageElement {
    /// Element name (e.g. `"username"`, `"payload"`).
    pub name: String,
    /// Raw element content.
    pub content: Vec<u8>,
}

/// A JXTA-Overlay message: a kind, a sender, a request identifier and a set
/// of named elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Which primitive/function this message belongs to.
    pub kind: MessageKind,
    /// The peer that created the message.
    pub sender: PeerId,
    /// Correlates requests with responses.
    pub request_id: u64,
    /// Named data elements.
    pub elements: Vec<MessageElement>,
}

impl Message {
    /// Creates an empty message.
    pub fn new(kind: MessageKind, sender: PeerId, request_id: u64) -> Self {
        Message {
            kind,
            sender,
            request_id,
            elements: Vec::new(),
        }
    }

    /// Adds an element (builder style).
    pub fn with_element(mut self, name: impl Into<String>, content: impl Into<Vec<u8>>) -> Self {
        self.push_element(name, content);
        self
    }

    /// Adds a UTF-8 string element (builder style).
    pub fn with_str(self, name: impl Into<String>, content: &str) -> Self {
        self.with_element(name, content.as_bytes().to_vec())
    }

    /// Appends an element.
    pub fn push_element(&mut self, name: impl Into<String>, content: impl Into<Vec<u8>>) {
        self.elements.push(MessageElement {
            name: name.into(),
            content: content.into(),
        });
    }

    /// Looks up an element's raw content by name.
    ///
    /// This is a linear scan — fine for the handful of named fields a normal
    /// message carries, quadratic when called per entry of a bulk message.
    /// Loops over `{prefix}{i}-{field}` style names must build an
    /// [`ElementIndex`] once instead.
    pub fn element(&self, name: &str) -> Option<&[u8]> {
        let position = self.elements.iter().position(|e| e.name == name);
        #[cfg(test)]
        scan_probe::record(match position {
            Some(found) => found + 1,
            None => self.elements.len(),
        });
        position.map(|at| self.elements[at].content.as_slice())
    }

    /// Builds a one-pass name→content index over the elements.
    pub fn index(&self) -> ElementIndex<'_> {
        ElementIndex::new(self)
    }

    /// Number of elements this message carries.  Bulk decoders use it to cap
    /// allocations sized by a count that arrived on the wire: entries cannot
    /// outnumber the elements that encode them.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Parses element `name` as an entry count, capped at
    /// [`Message::element_count`].  The count arrives on the wire, and every
    /// entry is encoded by at least one element, so the cap loses nothing
    /// genuine while a forged count (up to `u64::MAX`) can no longer drive a
    /// decoder loop past the size of the message that carries it.
    pub fn entry_count(&self, name: &str) -> Option<usize> {
        let count = self.element_str(name)?.parse::<usize>().ok()?;
        Some(count.min(self.element_count()))
    }

    /// Looks up an element and decodes it as UTF-8.
    pub fn element_str(&self, name: &str) -> Option<String> {
        self.element(name)
            .map(|b| String::from_utf8_lossy(b).into_owned())
    }

    /// Looks up a required element, producing a descriptive error when absent.
    pub fn require(&self, name: &str) -> Result<&[u8], OverlayError> {
        self.element(name)
            .ok_or_else(|| OverlayError::MalformedMessage(format!("missing element {name:?}")))
    }

    /// Looks up a required element as a UTF-8 string.
    pub fn require_str(&self, name: &str) -> Result<String, OverlayError> {
        Ok(String::from_utf8_lossy(self.require(name)?).into_owned())
    }

    /// Total payload size (sum of element contents), used by workload
    /// generators and tests.
    pub fn payload_len(&self) -> usize {
        self.elements.iter().map(|e| e.content.len()).sum()
    }

    /// Serialises the message to its wire format.
    ///
    /// Layout: `"JXMS"`, kind byte, 16-byte sender, 8-byte request id,
    /// 4-byte element count, then per element a 2-byte name length, the name,
    /// a 4-byte content length and the content (all integers big-endian).
    ///
    /// The element count is 32-bit: a 16-bit count would wrap silently past
    /// 65 535 elements, producing bytes the receiver rejects as trailing
    /// garbage.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut size = 4 + 1 + PEER_ID_LEN + 8 + 4;
        for e in &self.elements {
            size += 2 + e.name.len() + 4 + e.content.len();
        }
        let mut out = Vec::with_capacity(size);
        out.extend_from_slice(b"JXMS");
        out.push(self.kind as u8);
        out.extend_from_slice(self.sender.as_bytes());
        out.extend_from_slice(&self.request_id.to_be_bytes());
        out.extend_from_slice(&(self.elements.len() as u32).to_be_bytes());
        for e in &self.elements {
            out.extend_from_slice(&(e.name.len() as u16).to_be_bytes());
            out.extend_from_slice(e.name.as_bytes());
            out.extend_from_slice(&(e.content.len() as u32).to_be_bytes());
            out.extend_from_slice(&e.content);
        }
        out
    }

    /// Parses a message from its wire format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, OverlayError> {
        let err = |what: &str| OverlayError::MalformedMessage(what.to_string());
        if bytes.len() < 4 + 1 + PEER_ID_LEN + 8 + 4 || &bytes[..4] != b"JXMS" {
            return Err(err("missing JXMS header"));
        }
        let mut offset = 4usize;
        let kind = MessageKind::from_u8(bytes[offset]).ok_or_else(|| err("unknown message kind"))?;
        offset += 1;
        let mut sender_bytes = [0u8; PEER_ID_LEN];
        sender_bytes.copy_from_slice(&bytes[offset..offset + PEER_ID_LEN]);
        let sender = PeerId::from_bytes(sender_bytes);
        offset += PEER_ID_LEN;
        let request_id = u64::from_be_bytes(bytes[offset..offset + 8].try_into().unwrap());
        offset += 8;
        let count = u32::from_be_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        offset += 4;

        // Cap the pre-allocation: a forged count must not reserve memory the
        // payload cannot back (each element costs at least 6 bytes on the wire).
        let mut elements = Vec::with_capacity(count.min(bytes.len() / 6 + 1));
        for _ in 0..count {
            if bytes.len() < offset + 2 {
                return Err(err("truncated element name length"));
            }
            let name_len = u16::from_be_bytes(bytes[offset..offset + 2].try_into().unwrap()) as usize;
            offset += 2;
            if bytes.len() < offset + name_len {
                return Err(err("truncated element name"));
            }
            let name = String::from_utf8_lossy(&bytes[offset..offset + name_len]).into_owned();
            offset += name_len;
            if bytes.len() < offset + 4 {
                return Err(err("truncated element content length"));
            }
            let content_len =
                u32::from_be_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
            offset += 4;
            if bytes.len() < offset + content_len {
                return Err(err("truncated element content"));
            }
            let content = bytes[offset..offset + content_len].to_vec();
            offset += content_len;
            elements.push(MessageElement { name, content });
        }
        if offset != bytes.len() {
            return Err(err("trailing bytes"));
        }
        Ok(Message {
            kind,
            sender,
            request_id,
            elements,
        })
    }
}

/// A name→content index built in one pass over a message's elements.
///
/// Handlers that address entries via `{section}{i}-{field}` style names must
/// use this instead of per-name [`Message::element`] calls: each of those is
/// a linear scan, so an n-entry bulk message merged field-by-field costs
/// O(n²) element visits.  First occurrence of a name wins, matching
/// [`Message::element`].
pub struct ElementIndex<'a> {
    by_name: std::collections::HashMap<&'a str, &'a [u8]>,
}

impl<'a> ElementIndex<'a> {
    /// Indexes every element of `message`.
    pub fn new(message: &'a Message) -> Self {
        let mut by_name = std::collections::HashMap::with_capacity(message.elements.len());
        for element in &message.elements {
            by_name
                .entry(element.name.as_str())
                .or_insert_with(|| element.content.as_slice());
        }
        ElementIndex { by_name }
    }

    /// Raw content of element `name`.
    pub fn get(&self, name: &str) -> Option<&'a [u8]> {
        #[cfg(test)]
        scan_probe::record(1);
        self.by_name.get(name).copied()
    }

    /// UTF-8 decoded content of element `name`.
    pub fn get_str(&self, name: &str) -> Option<String> {
        self.get(name).map(|b| String::from_utf8_lossy(b).into_owned())
    }
}

/// Test-only instrumentation counting element lookups: the elements each
/// linear [`Message::element`] scan visits plus one per [`ElementIndex`]
/// lookup, so regression tests can pin bulk decode paths to work linear in
/// the message size.  Counted per thread, so tests running in parallel do
/// not see each other's lookups.
#[cfg(test)]
pub(crate) mod scan_probe {
    use std::cell::Cell;

    thread_local! {
        static VISITED: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn record(elements: usize) {
        VISITED.with(|visited| visited.set(visited.get() + elements as u64));
    }

    /// Cumulative element lookups on the calling thread.
    pub(crate) fn visited() -> u64 {
        VISITED.with(Cell::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxta_crypto::drbg::HmacDrbg;

    fn peer() -> PeerId {
        let mut rng = HmacDrbg::from_seed_u64(1);
        PeerId::random(&mut rng)
    }

    #[test]
    fn kind_roundtrip() {
        for kind in [
            MessageKind::ConnectRequest,
            MessageKind::ConnectResponse,
            MessageKind::LoginRequest,
            MessageKind::LoginResponse,
            MessageKind::PeerText,
            MessageKind::PublishAdvertisement,
            MessageKind::AdvertisementPush,
            MessageKind::LookupRequest,
            MessageKind::LookupResponse,
            MessageKind::RelayViaBroker,
            MessageKind::SecureConnectChallenge,
            MessageKind::SecureConnectResponse,
            MessageKind::SecureLoginRequest,
            MessageKind::SecureLoginResponse,
            MessageKind::SecurePeerText,
            MessageKind::CredentialUpdate,
            MessageKind::Ack,
            MessageKind::BrokerSync,
            MessageKind::BrokerRelay,
            MessageKind::ShardQuery,
            MessageKind::ShardResponse,
            MessageKind::AntiEntropyDigest,
            MessageKind::AntiEntropySnapshot,
            MessageKind::AntiEntropyRange,
            MessageKind::MembershipShuffle,
            MessageKind::MembershipShuffleReply,
            MessageKind::PlumtreeIHave,
            MessageKind::PlumtreeGraft,
            MessageKind::PlumtreePrune,
            MessageKind::SwimPing,
            MessageKind::SwimPingReq,
            MessageKind::SwimAck,
        ] {
            assert_eq!(MessageKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(MessageKind::from_u8(250), None);
    }

    #[test]
    fn build_and_access_elements() {
        let msg = Message::new(MessageKind::LoginRequest, peer(), 7)
            .with_str("username", "alice")
            .with_element("password", b"secret".to_vec());
        assert_eq!(msg.element_str("username"), Some("alice".to_string()));
        assert_eq!(msg.element("password"), Some(&b"secret"[..]));
        assert_eq!(msg.element("missing"), None);
        assert_eq!(msg.payload_len(), 5 + 6);
        assert_eq!(msg.require_str("username").unwrap(), "alice");
        assert!(matches!(
            msg.require("missing"),
            Err(OverlayError::MalformedMessage(_))
        ));
    }

    #[test]
    fn wire_roundtrip() {
        let msg = Message::new(MessageKind::PeerText, peer(), 42)
            .with_str("text", "hello group")
            .with_element("binary", vec![0u8, 1, 2, 255])
            .with_element("empty", Vec::new());
        let bytes = msg.to_bytes();
        let parsed = Message::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, msg);
    }

    #[test]
    fn wire_roundtrip_no_elements() {
        let msg = Message::new(MessageKind::Ack, peer(), 0);
        assert_eq!(Message::from_bytes(&msg.to_bytes()).unwrap(), msg);
    }

    #[test]
    fn wire_roundtrip_large_payload() {
        let payload = vec![0xabu8; 1 << 20];
        let msg = Message::new(MessageKind::PeerText, peer(), 1).with_element("payload", payload.clone());
        let bytes = msg.to_bytes();
        assert!(bytes.len() > payload.len());
        let parsed = Message::from_bytes(&bytes).unwrap();
        assert_eq!(parsed.element("payload").unwrap(), &payload[..]);
    }

    #[test]
    fn wire_roundtrip_beyond_u16_element_count() {
        // A message may carry more than 65 535 elements; the old 16-bit
        // element count wrapped silently and the receiver rejected the bytes
        // as trailing garbage.
        let mut msg = Message::new(MessageKind::AntiEntropySnapshot, peer(), 3);
        for i in 0..70_000u32 {
            msg.push_element(format!("e{i}"), i.to_be_bytes().to_vec());
        }
        let parsed = Message::from_bytes(&msg.to_bytes()).unwrap();
        assert_eq!(parsed.elements.len(), 70_000);
        assert_eq!(parsed, msg);
    }

    #[test]
    fn element_index_matches_linear_lookup() {
        let msg = Message::new(MessageKind::Ack, peer(), 0)
            .with_str("first", "1")
            .with_element("blob", vec![7u8, 8])
            .with_str("first", "shadowed");
        let idx = msg.index();
        assert_eq!(idx.get_str("first").as_deref(), Some("1"));
        assert_eq!(idx.get("blob"), msg.element("blob"));
        assert_eq!(idx.get("missing"), None);
        assert_eq!(idx.get_str("first"), msg.element_str("first"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Message::from_bytes(b"").is_err());
        assert!(Message::from_bytes(b"JXMS").is_err());
        assert!(Message::from_bytes(&[0u8; 64]).is_err());
        let msg = Message::new(MessageKind::Ack, peer(), 0).with_str("a", "b");
        let mut bytes = msg.to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(Message::from_bytes(&bytes).is_err());
        let mut bytes = msg.to_bytes();
        bytes.push(9);
        assert!(Message::from_bytes(&bytes).is_err());
        // Unknown kind byte.
        let mut bytes = msg.to_bytes();
        bytes[4] = 200;
        assert!(Message::from_bytes(&bytes).is_err());
    }

    #[test]
    fn sender_and_request_id_preserved() {
        let p = peer();
        let msg = Message::new(MessageKind::LookupRequest, p, 0xdead_beef);
        let parsed = Message::from_bytes(&msg.to_bytes()).unwrap();
        assert_eq!(parsed.sender, p);
        assert_eq!(parsed.request_id, 0xdead_beef);
        assert_eq!(parsed.kind, MessageKind::LookupRequest);
    }
}
