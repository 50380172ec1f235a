//! One record codec for every entry a bulk message carries: gossip events,
//! snapshot sections, shard results, gossip ids, hashes, node summaries and
//! a lookup's documents each travel as one element of back-to-back binary
//! records.  Ids take 16 bytes, counters and hashes 8 big-endian bytes, a
//! rank one byte, text or a blob a 4-byte big-endian length and its bytes;
//! a version is laid out as a gossip id (origin, then sequence).  Nothing
//! counts the records: [`decode`] reads to the element's end.  A record
//! that cannot be framed (truncated, a length past the end, text that is
//! not UTF-8, an unknown kind or tag) ends the decode; one holding a
//! counter at or above 2^63 is dropped alone (see `crate::counter`).

use crate::counter;
use crate::group::GroupId;
use crate::id::{PeerId, PEER_ID_LEN};
use crate::message::{Message, MessageKind};
use crate::plumtree::GossipId;
use crate::replica::{FlatEntry, MembershipEntry, PresenceEntry};
use crate::shard::NodeSummary;

/// The element of a `BrokerSync` digest that carries its events.
const EVENTS: &str = "events";

/// Event kinds on the wire (a verdict's kind names the verdict), and flags.
const PUBLISH: u8 = 1;
const JOIN: u8 = 2;
const LEAVE: u8 = 3;
const MEMBERSHIP: u8 = 4;
const EXT: u8 = 5;
const SUSPECT: u8 = 6;
const ALIVE: u8 = 7;
const DEAD: u8 = 8;
const BROADCAST: u8 = 1;
const REPAIR: u8 = 2;

/// One replicated write or SWIM verdict gossiped between brokers, coalesced
/// per destination into one `BrokerSync` digest per flush ([`sync_message`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GossipEvent {
    /// The sequence `origin` versioned it at: with `origin`, its gossip id.
    pub seq: u64,
    /// The broker that versioned the event.
    pub origin: PeerId,
    /// Disseminated epidemically: deduplicated by gossip id and forwarded.
    pub broadcast: bool,
    /// A copy re-sent for a `Graft` (or relayed from one): never prunes.
    pub repair: bool,
    /// What the event does.
    pub body: GossipBody,
}

/// What a [`GossipEvent`] does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GossipBody {
    /// An advertisement published (or migrated): group, owner, doc type, XML.
    Publish(GroupId, PeerId, String, String),
    /// A peer homed at the event's origin now, with its groups.
    Join(PeerId, Vec<GroupId>),
    /// A peer that left the event's origin.
    Leave(PeerId),
    /// A membership migrated after a ring change: group, member, version rank.
    Membership(GroupId, PeerId, u8),
    /// The extension's state, which it authenticates (the version is unused).
    Ext(Vec<u8>),
    /// A SWIM verdict about a broker at an incarnation.
    Verdict(SwimVerdict, PeerId, u64),
}

/// A gossiped SWIM verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwimVerdict {
    /// The broker missed its probes.
    Suspect,
    /// The broker refutes a suspicion or death at a higher incarnation.
    Alive,
    /// The broker's suspicion expired unrefuted.
    Dead,
}

/// The `BrokerSync` digest carrying `events` from `sender`: the encoder every
/// gossip flush uses.  The endpoint adds the transport `seq` when it sends.
pub fn sync_message(sender: PeerId, events: &[GossipEvent]) -> Message {
    Message::new(MessageKind::BrokerSync, sender, 0).with_element(EVENTS, encode(events))
}

/// The events a `BrokerSync` digest carries (see [`decode`]).
pub(crate) fn sync_events(message: &Message) -> Vec<GossipEvent> {
    message.element(EVENTS).map(decode).unwrap_or_default()
}

/// One kind of record.
pub trait Record: Sized {
    /// Appends the record to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads one record off `input`: `None` when it cannot be framed.
    fn get(input: &mut Input<'_>) -> Option<Self>;
}

/// Encodes `records` back to back.
pub fn encode<R: Record>(records: &[R]) -> Vec<u8> {
    let mut out = Vec::new();
    for record in records {
        record.put(&mut out);
    }
    out
}

/// Decodes the records of one element, in order, up to the first that
/// cannot be framed; a record with a counter out of range is dropped alone.
pub fn decode<R: Record>(element: &[u8]) -> Vec<R> {
    let mut input = Input { rest: element, out_of_range: false };
    let mut records = Vec::new();
    while !input.rest.is_empty() {
        let Some(record) = R::get(&mut input) else {
            break;
        };
        if !std::mem::take(&mut input.out_of_range) {
            records.push(record);
        }
    }
    records
}

/// The unread rest of an element; whether the record read holds a counter ≥ 2^63.
pub struct Input<'a> {
    rest: &'a [u8],
    out_of_range: bool,
}

impl<'a> Input<'a> {
    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.rest.split_at_checked(len)?;
        self.rest = rest;
        Some(head)
    }

    fn byte(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn id(&mut self) -> Option<PeerId> {
        Some(PeerId::from_bytes(self.take(PEER_ID_LEN)?.try_into().ok()?))
    }

    fn word(&mut self) -> Option<u64> {
        Some(u64::from_be_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A received counter; one at or above 2^63 marks the record dropped.
    fn counter(&mut self) -> Option<u64> {
        let value = self.word()?;
        self.out_of_range |= counter::received(value).is_none();
        Some(value)
    }

    /// A version: origin, then sequence.
    fn version(&mut self) -> Option<(PeerId, u64)> {
        Some((self.id()?, self.counter()?))
    }

    fn blob(&mut self) -> Option<&'a [u8]> {
        let len = u32::from_be_bytes(self.take(4)?.try_into().ok()?);
        self.take(usize::try_from(len).ok()?)
    }

    fn text(&mut self) -> Option<String> {
        std::str::from_utf8(self.blob()?).ok().map(str::to_owned)
    }
}

fn put_version(out: &mut Vec<u8>, origin: &PeerId, seq: u64) {
    out.extend_from_slice(origin.as_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
}

fn put_blob(out: &mut Vec<u8>, blob: &[u8]) {
    let len = u32::try_from(blob.len()).expect("a record field is below 4 GiB, as a message element is");
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(blob);
}

/// An advertisement's owner, group, doc type and XML: an advertisement
/// record after its version, and a publish event's body.
fn put_advert(out: &mut Vec<u8>, group: &GroupId, owner: &PeerId, doc_type: &str, xml: &str) {
    out.extend_from_slice(owner.as_bytes());
    for text in [group.as_str(), doc_type, xml] {
        put_blob(out, text.as_bytes());
    }
}

fn get_advert(input: &mut Input<'_>) -> Option<(GroupId, PeerId, String, String)> {
    let owner = input.id()?;
    Some((GroupId::new(input.text()?), owner, input.text()?, input.text()?))
}

/// A membership's rank, member and group: a membership record after its
/// version, and a migrated membership event's body.
fn put_membership(out: &mut Vec<u8>, group: &GroupId, member: &PeerId, rank: u8) {
    out.push(rank);
    out.extend_from_slice(member.as_bytes());
    put_blob(out, group.as_str().as_bytes());
}

fn get_membership(input: &mut Input<'_>) -> Option<(GroupId, PeerId, u8)> {
    let (rank, member) = (input.byte()?, input.id()?);
    Some((GroupId::new(input.text()?), member, rank))
}

/// A text record: a `LookupResponse`'s advertisement documents.
impl Record for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_blob(out, self.as_bytes());
    }

    fn get(input: &mut Input<'_>) -> Option<Self> {
        input.text()
    }
}

/// A hash list's record: an entry's (or a section's) 8-byte repair hash.
impl Record for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }

    fn get(input: &mut Input<'_>) -> Option<Self> {
        input.word()
    }
}

/// A descent leg's record: a repair-tree node's depth, prefix and summary.
impl Record for (u32, u64, NodeSummary) {
    fn put(&self, out: &mut Vec<u8>) {
        let (depth, prefix, summary) = self;
        out.push(u8::try_from(*depth).expect("a repair-tree depth fits a byte"));
        for word in [*prefix, summary.xor, summary.count] {
            word.put(out);
        }
    }

    fn get(input: &mut Input<'_>) -> Option<Self> {
        let (depth, prefix) = (u32::from(input.byte()?), input.word()?);
        Some((depth, prefix, NodeSummary { xor: input.word()?, count: input.word()? }))
    }
}

impl Record for GossipId {
    fn put(&self, out: &mut Vec<u8>) {
        put_version(out, &self.0, self.1);
    }

    fn get(input: &mut Input<'_>) -> Option<Self> {
        input.version()
    }
}

impl Record for FlatEntry {
    fn put(&self, out: &mut Vec<u8>) {
        let (group, owner, doc_type, xml, (seq, origin)) = self;
        put_version(out, origin, *seq);
        put_advert(out, group, owner, doc_type, xml);
    }

    fn get(input: &mut Input<'_>) -> Option<Self> {
        let (origin, seq) = input.version()?;
        let (group, owner, doc_type, xml) = get_advert(input)?;
        Some((group, owner, doc_type, xml, (seq, origin)))
    }
}

impl Record for MembershipEntry {
    fn put(&self, out: &mut Vec<u8>) {
        let (group, member, (seq, rank, origin)) = self;
        put_version(out, origin, *seq);
        put_membership(out, group, member, *rank);
    }

    fn get(input: &mut Input<'_>) -> Option<Self> {
        let (origin, seq) = input.version()?;
        let (group, member, rank) = get_membership(input)?;
        Some((group, member, (seq, rank, origin)))
    }
}

impl Record for PresenceEntry {
    fn put(&self, out: &mut Vec<u8>) {
        let (peer, (seq, rank, origin), home) = self;
        put_version(out, origin, *seq);
        out.push(*rank);
        out.extend_from_slice(peer.as_bytes());
        out.push(u8::from(home.is_some()));
        out.extend(home.iter().flat_map(PeerId::as_bytes));
    }

    fn get(input: &mut Input<'_>) -> Option<Self> {
        let (origin, seq) = input.version()?;
        let (rank, peer) = (input.byte()?, input.id()?);
        let home = match input.byte()? {
            0 => None,
            1 => Some(input.id()?),
            _ => return None,
        };
        Some((peer, (seq, rank, origin), home))
    }
}

impl Record for GossipEvent {
    fn put(&self, out: &mut Vec<u8>) {
        let kind = match self.body {
            GossipBody::Publish(..) => PUBLISH,
            GossipBody::Join(..) => JOIN,
            GossipBody::Leave(..) => LEAVE,
            GossipBody::Membership(..) => MEMBERSHIP,
            GossipBody::Ext(..) => EXT,
            GossipBody::Verdict(SwimVerdict::Suspect, ..) => SUSPECT,
            GossipBody::Verdict(SwimVerdict::Alive, ..) => ALIVE,
            GossipBody::Verdict(SwimVerdict::Dead, ..) => DEAD,
        };
        out.push(kind);
        out.push((u8::from(self.broadcast) * BROADCAST) | (u8::from(self.repair) * REPAIR));
        put_version(out, &self.origin, self.seq);
        match &self.body {
            GossipBody::Publish(group, owner, doc_type, xml) => put_advert(out, group, owner, doc_type, xml),
            GossipBody::Join(peer, groups) => {
                out.extend_from_slice(peer.as_bytes());
                let count = u32::try_from(groups.len()).expect("a peer joins fewer than 2^32 groups");
                out.extend_from_slice(&count.to_be_bytes());
                for group in groups {
                    put_blob(out, group.as_str().as_bytes());
                }
            }
            GossipBody::Leave(peer) => out.extend_from_slice(peer.as_bytes()),
            GossipBody::Membership(group, peer, rank) => put_membership(out, group, peer, *rank),
            GossipBody::Ext(blob) => put_blob(out, blob),
            GossipBody::Verdict(_, peer, incarnation) => {
                out.extend_from_slice(peer.as_bytes());
                out.extend_from_slice(&incarnation.to_be_bytes());
            }
        }
    }

    fn get(input: &mut Input<'_>) -> Option<Self> {
        let (kind, flags) = (input.byte()?, input.byte()?);
        let (origin, seq) = input.version()?;
        let mut verdict = |verdict| Some(GossipBody::Verdict(verdict, input.id()?, input.counter()?));
        let body = match kind {
            PUBLISH => {
                let (group, owner, doc_type, xml) = get_advert(input)?;
                GossipBody::Publish(group, owner, doc_type, xml)
            }
            JOIN => {
                let peer = input.id()?;
                let count = u32::from_be_bytes(input.take(4)?.try_into().ok()?);
                // Each group read consumes its length at least, so a forged
                // count stops at the element's end.
                GossipBody::Join(peer, (0..count).map(|_| input.text().map(GroupId::new)).collect::<Option<_>>()?)
            }
            LEAVE => GossipBody::Leave(input.id()?),
            MEMBERSHIP => {
                let (group, peer, rank) = get_membership(input)?;
                GossipBody::Membership(group, peer, rank)
            }
            EXT => GossipBody::Ext(input.blob()?.to_vec()),
            SUSPECT => verdict(SwimVerdict::Suspect)?,
            ALIVE => verdict(SwimVerdict::Alive)?,
            DEAD => verdict(SwimVerdict::Dead)?,
            _ => return None,
        };
        let (broadcast, repair) = (flags & BROADCAST != 0, flags & REPAIR != 0);
        Some(GossipEvent { seq, origin, broadcast, repair, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::{PRESENCE_JOIN, PRESENCE_LEAVE};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// The largest counter a peer accepts on the wire.
    const IN_RANGE: u64 = (1 << 63) - 1;

    fn id(rng: &mut TestRng) -> PeerId {
        let mut bytes = [0u8; PEER_ID_LEN];
        for byte in &mut bytes {
            *byte = rng.next_u32() as u8;
        }
        PeerId::from_bytes(bytes)
    }

    /// Empty about one time in four, any Unicode scalar otherwise.
    fn text(rng: &mut TestRng) -> String {
        let len = rng.below(4) * rng.below(5);
        (0..len).map(|_| any::<char>().generate(rng)).collect()
    }

    fn counter(rng: &mut TestRng) -> u64 {
        [0, IN_RANGE, rng.next_u64() >> 1][rng.below(3)]
    }

    fn advert(rng: &mut TestRng) -> FlatEntry {
        (GroupId::new(text(rng)), id(rng), text(rng), text(rng), (counter(rng), id(rng)))
    }

    fn membership(rng: &mut TestRng) -> MembershipEntry {
        (GroupId::new(text(rng)), id(rng), (counter(rng), rng.next_u32() as u8, id(rng)))
    }

    fn presence(rng: &mut TestRng) -> PresenceEntry {
        let home = (rng.below(2) == 0).then(|| id(rng));
        (id(rng), (counter(rng), [PRESENCE_LEAVE, PRESENCE_JOIN][rng.below(2)], id(rng)), home)
    }

    /// An event of every body kind in turn (`kind` picks it).
    fn event(rng: &mut TestRng, kind: usize) -> GossipEvent {
        let body = match kind % 8 {
            0 => GossipBody::Publish(GroupId::new(text(rng)), id(rng), text(rng), text(rng)),
            1 => GossipBody::Join(id(rng), (0..rng.below(3)).map(|_| GroupId::new(text(rng))).collect()),
            2 => GossipBody::Leave(id(rng)),
            3 => GossipBody::Membership(GroupId::new(text(rng)), id(rng), rng.next_u32() as u8),
            4 => GossipBody::Ext(text(rng).into_bytes()),
            verdict => GossipBody::Verdict(
                [SwimVerdict::Suspect, SwimVerdict::Alive, SwimVerdict::Dead][verdict - 5],
                id(rng),
                counter(rng),
            ),
        };
        GossipEvent {
            seq: counter(rng),
            origin: id(rng),
            broadcast: rng.below(2) == 0,
            repair: rng.below(2) == 0,
            body,
        }
    }

    fn events(rng: &mut TestRng) -> Vec<GossipEvent> {
        (0..rng.below(12)).map(|kind| event(rng, kind)).collect()
    }

    fn records<R>(rng: &mut TestRng, record: fn(&mut TestRng) -> R) -> Vec<R> {
        (0..rng.below(6)).map(|_| record(rng)).collect()
    }

    /// Encodes `records`, and decodes the result back.
    fn round_trip<R: Record + Clone + PartialEq + std::fmt::Debug>(records: &[R]) -> Vec<R> {
        decode(&encode(records))
    }

    /// The smallest record of each kind: empty strings, no home, an empty
    /// extension blob.
    fn smallest() -> [usize; 8] {
        let zero = PeerId::from_bytes([0; PEER_ID_LEN]);
        let group = GroupId::new("");
        let ext = GossipEvent {
            seq: 0,
            origin: zero,
            broadcast: false,
            repair: false,
            body: GossipBody::Ext(Vec::new()),
        };
        [
            encode(&[ext]).len(),
            encode(&[(group.clone(), zero, String::new(), String::new(), (0, zero))]).len(),
            encode(&[(group, zero, (0, 0, zero))]).len(),
            encode(&[(zero, (0, 0, zero), None)]).len(),
            encode(&[(zero, 0)]).len(),
            encode(&[0u64]).len(),
            encode(&[(0, 0, NodeSummary::default())]).len(),
            encode(&[String::new()]).len(),
        ]
    }

    fn node(rng: &mut TestRng) -> (u32, u64, NodeSummary) {
        let summary = NodeSummary { xor: rng.next_u64(), count: rng.next_u64() };
        (rng.below(6) as u32, rng.next_u64(), summary)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every record kind round-trips: events of every body, empty
        /// strings and XML, absent and present homes, counters up to 2^63 −
        /// 1, gossip ids, hashes, node summaries and text, and a sync digest
        /// carries its events.
        #[test]
        fn record_round_trip_over_every_kind(
            drawn in BoxedStrategy::from_fn(|rng| {
                let repair = (records(rng, advert), records(rng, membership), records(rng, presence));
                let fixed = (records(rng, |rng| (id(rng), counter(rng))), records(rng, |rng| rng.next_u64()));
                (events(rng), repair, fixed, (records(rng, node), records(rng, text)), id(rng))
            }),
        ) {
            let (events, (adverts, memberships, presences), (gids, hashes), (nodes, texts), sender) = drawn;
            prop_assert_eq!(round_trip(&events), events.clone());
            prop_assert_eq!(round_trip(&adverts), adverts);
            prop_assert_eq!(round_trip(&memberships), memberships);
            prop_assert_eq!(round_trip(&presences), presences);
            prop_assert_eq!(round_trip(&gids), gids);
            prop_assert_eq!(round_trip(&hashes), hashes);
            prop_assert_eq!(round_trip(&nodes), nodes);
            prop_assert_eq!(round_trip(&texts), texts);
            let sync = sync_message(sender, &events);
            prop_assert_eq!(sync.kind, MessageKind::BrokerSync);
            prop_assert_eq!(sync_events(&Message::from_bytes(&sync.to_bytes()).unwrap()), events);
        }

        /// Arbitrary bytes decode without panicking, into at most the
        /// element's length over the smallest record of its kind.
        #[test]
        fn forged_bytes_decode_into_at_most_len_over_the_smallest_record(
            bytes in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let [event, advert, membership, presence, gid, hash, node, text] = smallest();
            let len = bytes.len();
            prop_assert!(decode::<GossipEvent>(&bytes).len() <= len / event);
            prop_assert!(decode::<FlatEntry>(&bytes).len() <= len / advert);
            prop_assert!(decode::<MembershipEntry>(&bytes).len() <= len / membership);
            prop_assert!(decode::<PresenceEntry>(&bytes).len() <= len / presence);
            prop_assert!(decode::<GossipId>(&bytes).len() <= len / gid);
            prop_assert!(decode::<u64>(&bytes).len() <= len / hash);
            prop_assert!(decode::<(u32, u64, NodeSummary)>(&bytes).len() <= len / node);
            prop_assert!(decode::<String>(&bytes).len() <= len / text);
        }
    }

    /// The framing faults of one record kind: a truncated trailing record,
    /// a length prefix past the element's end and a non-UTF-8 text field
    /// each drop their record and stop the decode, so the valid record
    /// after the faulty one is not read either.  `text_at` is the offset of
    /// a text field's length prefix within `faulty`'s encoding.
    fn framing_faults_stop_the_decode<R: Record + Clone + PartialEq + std::fmt::Debug>(
        valid: &[R; 2],
        faulty: &R,
        text_at: usize,
    ) {
        let (head, tail) = (encode(&valid[..1]), encode(&valid[1..]));
        let record = encode(std::slice::from_ref(faulty));
        assert_eq!(decode::<R>(&[head.clone(), record.clone(), tail.clone()].concat()).len(), 3);

        let truncated = [head.clone(), record[..record.len() - 1].to_vec()].concat();
        assert_eq!(decode::<R>(&truncated), valid[..1], "truncated trailing record");

        let mut past_end = record.clone();
        past_end[text_at..text_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        let past_end = [head.clone(), past_end, tail.clone()].concat();
        assert_eq!(decode::<R>(&past_end), valid[..1], "a length prefix past the end");

        // The faulty record's text field holds one byte, replaced by a lone
        // continuation byte.
        let mut non_utf8 = record;
        assert_eq!(non_utf8[text_at..text_at + 4], 1u32.to_be_bytes());
        non_utf8[text_at + 4] = 0x80;
        let non_utf8 = [head, non_utf8, tail].concat();
        assert_eq!(decode::<R>(&non_utf8), valid[..1], "non-UTF-8 text");
    }

    #[test]
    fn forged_framing_drops_the_record_and_stops_the_decode() {
        let mut rng = TestRng::deterministic("forged_framing_drops_the_record_and_stops_the_decode");
        let owner = id(&mut rng);
        let version = (5, id(&mut rng));
        // Fixed-width heads before the first text: version (24), then an
        // advertisement's owner (16); a membership's rank and member (17);
        // an event's kind and flags (2) before its version.
        let group = GroupId::new("g");
        let advert = (group.clone(), owner, String::new(), String::new(), version);
        framing_faults_stop_the_decode(&[advert.clone(), advert.clone()], &advert, 24 + 16);
        let membership = (group.clone(), owner, (5, PRESENCE_JOIN, version.1));
        framing_faults_stop_the_decode(&[membership.clone(), membership.clone()], &membership, 24 + 17);
        let publish = GossipEvent {
            seq: 5,
            origin: version.1,
            broadcast: true,
            repair: false,
            body: GossipBody::Publish(group, owner, String::new(), String::new()),
        };
        framing_faults_stop_the_decode(&[publish.clone(), publish.clone()], &publish, 2 + 24 + 16);

        // Presence carries no text: a truncated record, and an unknown home
        // tag, stop the decode.
        let presence = (owner, (5, PRESENCE_JOIN, version.1), Some(owner));
        let bytes = encode(&[presence, presence]);
        assert_eq!(decode::<PresenceEntry>(&bytes[..bytes.len() - 1]), [presence]);
        let mut bad_tag = bytes.clone();
        bad_tag[24 + 17] = 2;
        assert_eq!(decode::<PresenceEntry>(&bad_tag), []);
        // So does an event of an unknown kind.
        let mut unknown = encode(&[publish.clone(), publish.clone()]);
        unknown[0] = 0xEE;
        assert_eq!(decode::<GossipEvent>(&unknown), []);
    }

    /// A record whose version sequence, or a verdict whose incarnation, is
    /// at or above 2^63 is dropped alone: the records around it decode.
    #[test]
    fn forged_counter_record_is_dropped_alone() {
        let mut rng = TestRng::deterministic("forged_counter_record_is_dropped_alone");
        for forged in [1 << 63, u64::MAX] {
            let mut adverts = [advert(&mut rng), advert(&mut rng), advert(&mut rng)];
            adverts[1].4.0 = forged;
            assert_eq!(decode::<FlatEntry>(&encode(&adverts)), [adverts[0].clone(), adverts[2].clone()]);
            let mut memberships = [membership(&mut rng), membership(&mut rng), membership(&mut rng)];
            memberships[1].2.0 = forged;
            assert_eq!(
                decode::<MembershipEntry>(&encode(&memberships)),
                [memberships[0].clone(), memberships[2].clone()]
            );
            let mut presences = [presence(&mut rng), presence(&mut rng), presence(&mut rng)];
            presences[1].1.0 = forged;
            assert_eq!(decode::<PresenceEntry>(&encode(&presences)), [presences[0], presences[2]]);
            let mut events: Vec<GossipEvent> = (0..8).map(|kind| event(&mut rng, kind)).collect();
            events[2].seq = forged;
            if let GossipBody::Verdict(_, _, incarnation) = &mut events[6].body {
                *incarnation = forged;
            }
            let kept: Vec<GossipEvent> =
                events.iter().enumerate().filter(|(i, _)| *i != 2 && *i != 6).map(|(_, e)| e.clone()).collect();
            assert_eq!(decode::<GossipEvent>(&encode(&events)), kept);
        }
    }
}
