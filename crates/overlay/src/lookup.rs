//! The lookup protocol, without IO.
//!
//! Brokers keep the advertisement index and answer every peer's search
//! (paper §2.1).  A client's `LookupRequest` asks its home broker a
//! [`Query`] about a group.  A sharded broker with no replica of the key
//! sends the same query over the backbone as `ShardQuery`s ([`targets`]);
//! each replica answers from its own index with a `ShardResponse`, and the
//! broker merges the [`Answer`]s and replies once no broker it awaits is
//! left ([`Pending`]).  The four lookup messages are read and written here
//! and nowhere else.  Nothing here sends or takes a lock: these functions
//! read a [`Replica`] or the pending table and hand back what to send.

use crate::group::GroupId;
use crate::id::PeerId;
use crate::message::{Message, MessageKind};
use crate::net::LinkModel;
use crate::record;
use crate::replica::{FlatEntry, Replica};
use std::collections::BTreeMap;
use std::time::Duration;

/// The refusal of a lookup request without its group or document type.
pub(crate) const MISSING_FIELDS: &str = "missing lookup fields";

/// Nominal shard-query size used to price replica links against each other
/// (queries are small; only the relative order of the links matters).
const NOMINAL_QUERY_BYTES: usize = 512;

/// What a lookup asks about a group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Query {
    /// The documents of `doc_type`: one owner's, or (`None`) every owner's.
    Adverts { doc_type: String, owner: Option<PeerId> },
    /// Whether the peer is a member.
    Member(PeerId),
}

impl Query {
    /// The peer whose shard holds the answer; `None` for a group-wide search.
    pub(crate) fn key(&self) -> Option<PeerId> {
        match self {
            Query::Adverts { owner, .. } => *owner,
            Query::Member(member) => Some(*member),
        }
    }
}

/// Reads a `LookupRequest` or `ShardQuery`: its id (as [`write()`] takes
/// it) and group, `None` without them, then its query or the reason to
/// refuse it.  An owner that does not parse reads as a group-wide search.
pub(crate) fn read(message: &Message) -> Option<(u64, GroupId, Result<Query, &'static str>)> {
    let id = match message.kind {
        MessageKind::ShardQuery => message.element_str("query")?.parse().ok()?,
        _ => message.request_id,
    };
    let group = GroupId::new(message.element_str("group")?);
    let query = match message.element_str("member") {
        Some(urn) => PeerId::from_urn(&urn).map(Query::Member).ok_or("malformed member identifier"),
        None => message.element_str("doc-type").ok_or(MISSING_FIELDS).map(|doc_type| Query::Adverts {
            doc_type,
            owner: message.element_str("owner").and_then(|urn| PeerId::from_urn(&urn)),
        }),
    };
    Some((id, group, query))
}

/// Writes `query` about `group` as a client's `LookupRequest` (`id` is its
/// request id) or as a broker's `ShardQuery` (`id` is the query id).
pub(crate) fn write(kind: MessageKind, sender: PeerId, id: u64, group: &GroupId, query: &Query) -> Message {
    let mut message = match kind {
        MessageKind::ShardQuery => Message::new(kind, sender, 0).with_str("query", &id.to_string()),
        _ => Message::new(kind, sender, id),
    };
    message.push_element("group", group.as_str());
    match query {
        Query::Adverts { doc_type, owner } => {
            message.push_element("doc-type", doc_type.as_str());
            if let Some(owner) = owner {
                message.push_element("owner", owner.to_urn());
            }
        }
        Query::Member(member) => message.push_element("member", member.to_urn()),
    }
    message
}

/// What a lookup answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Answer {
    /// Each owner's document with its last-writer-wins version, by owner.
    Adverts(Vec<(PeerId, (u64, PeerId), String)>),
    /// Whether the peer is a member.
    Member(bool),
}

impl Answer {
    /// `replica`'s answer to `query` about `group`.
    pub(crate) fn local(replica: &Replica, group: &GroupId, query: &Query) -> Answer {
        match query {
            Query::Adverts { doc_type, owner } => Answer::Adverts(replica.lookup(group, doc_type, *owner)),
            Query::Member(member) => Answer::Member(replica.groups().is_member(group, member)),
        }
    }

    /// The answer to `query` that found nothing.
    pub(crate) fn none(query: &Query) -> Answer {
        match query {
            Query::Adverts { .. } => Answer::Adverts(Vec::new()),
            Query::Member(_) => Answer::Member(false),
        }
    }

    /// Merges another replica's answer: a member at any replica is a
    /// member, and replicas may race a re-publish, so each owner keeps its
    /// greatest version (the first to arrive on a tie), as the index does.
    /// An answer of the other shape merges nothing.
    fn merge(&mut self, other: Answer) {
        match (self, other) {
            (Answer::Member(mine), Answer::Member(theirs)) => *mine |= theirs,
            (Answer::Adverts(mine), Answer::Adverts(theirs)) => {
                mine.extend(theirs);
                mine.sort_by(|(a, a_version, _), (b, b_version, _)| a.cmp(b).then(b_version.cmp(a_version)));
                mine.dedup_by_key(|(owner, ..)| *owner);
            }
            _ => {}
        }
    }

    /// Writes the answer as the `LookupResponse` to client request `request`.
    pub(crate) fn response(self, sender: PeerId, request: u64) -> Message {
        let response = Message::new(MessageKind::LookupResponse, sender, request).with_str("status", "ok");
        match self {
            Answer::Adverts(found) => {
                let documents: Vec<String> = found.into_iter().map(|(.., xml)| xml).collect();
                response.with_element("adverts", record::encode(&documents))
            }
            Answer::Member(is_member) => response.with_str("member", &is_member.to_string()),
        }
    }

    /// Writes the answer to `query` about `group` as the `ShardResponse` to
    /// query `id`: each document an advertisement record of the group and
    /// the queried type.
    pub(crate) fn shard_response(self, sender: PeerId, id: u64, group: &GroupId, query: &Query) -> Message {
        let response = Message::new(MessageKind::ShardResponse, sender, 0).with_str("query", &id.to_string());
        match (self, query) {
            (Answer::Adverts(found), Query::Adverts { doc_type, .. }) => {
                let records: Vec<FlatEntry> = found
                    .into_iter()
                    .map(|(owner, version, xml)| (group.clone(), owner, doc_type.clone(), xml, version))
                    .collect();
                response.with_element("results", record::encode(&records))
            }
            (Answer::Member(is_member), _) => response.with_str("member", &is_member.to_string()),
            (Answer::Adverts(_), Query::Member(_)) => unreachable!("a membership query has a membership answer"),
        }
    }

    /// Reads a `ShardResponse`: the query id it answers and the answer.
    pub(crate) fn read_shard_response(message: &Message) -> Option<(u64, Answer)> {
        let answer = match message.element_str("member") {
            Some(bit) => Answer::Member(bit == "true"),
            None => {
                let records: Vec<FlatEntry> = message.element("results").map(record::decode).unwrap_or_default();
                Answer::Adverts(records.into_iter().map(|(_, owner, _, xml, version)| (owner, version, xml)).collect())
            }
        };
        Some((message.element_str("query")?.parse().ok()?, answer))
    }
}

/// The documents a `LookupResponse` to an advertisement query carries.
pub(crate) fn documents(response: &Message) -> Vec<String> {
    response.element("adverts").map(record::decode).unwrap_or_default()
}

/// The bit a `LookupResponse` to a membership query carries.
pub(crate) fn is_member(response: &Message) -> bool {
    response.element_str("member").as_deref() == Some("true")
}

/// The brokers a routed `query` goes to, of the live `candidates`: every
/// one for a group-wide search.  A keyed query goes to one, behind the
/// cheapest link (`link` gives each), rotating among equally cheap ones by
/// query `id`: a hot key's queries spread over its replicas, and the
/// choice stays reproducible.
pub(crate) fn targets(query: &Query, id: u64, candidates: Vec<PeerId>, link: impl Fn(PeerId) -> LinkModel) -> Vec<PeerId> {
    if query.key().is_none() || candidates.is_empty() {
        return candidates;
    }
    let costs: Vec<Duration> = candidates.iter().map(|peer| link(*peer).transfer_time(NOMINAL_QUERY_BYTES)).collect();
    let cheapest_cost = *costs.iter().min().expect("candidates is non-empty");
    let cheapest: Vec<PeerId> =
        candidates.into_iter().zip(costs).filter(|(_, cost)| *cost == cheapest_cost).map(|(peer, _)| peer).collect();
    vec![cheapest[(id as usize) % cheapest.len()]]
}

/// The lookups a broker routed and has not answered, by query id.
#[derive(Debug)]
pub(crate) struct Pending {
    /// The broker, which sends the replies.
    own: PeerId,
    /// The last query id allocated: ids run 1, 2, 3, …
    last: u64,
    routed: BTreeMap<u64, Routed>,
}

/// A routed lookup: who asked, the brokers whose answers it still awaits,
/// and what merged so far.  It is answered once `awaiting` empties, by
/// their answers or by releases.
#[derive(Debug)]
struct Routed {
    client: PeerId,
    request: u64,
    awaiting: Vec<PeerId>,
    answer: Answer,
}

impl Pending {
    pub(crate) fn new(own: PeerId) -> Self {
        Pending { own, last: 0, routed: BTreeMap::new() }
    }

    /// Allocates the next query id.
    pub(crate) fn next_id(&mut self) -> u64 {
        self.last += 1;
        self.last
    }

    /// Records lookup `id`, `client`'s request `request`, awaiting the
    /// brokers in `awaiting` and starting from `seed`.
    pub(crate) fn open(&mut self, id: u64, client: PeerId, request: u64, awaiting: Vec<PeerId>, seed: Answer) {
        self.routed.insert(id, Routed { client, request, awaiting, answer: seed });
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.routed.is_empty()
    }

    /// Merges `from`'s answer to lookup `id`; the client and its reply once
    /// no broker is awaited.  An answer from a broker the lookup does not
    /// await (not asked, already answered or released) merges nothing.
    pub(crate) fn merge(&mut self, id: u64, from: &PeerId, answer: Answer) -> Option<(PeerId, Message)> {
        let routed = self.routed.get_mut(&id)?;
        let at = routed.awaiting.iter().position(|broker| broker == from)?;
        routed.awaiting.swap_remove(at);
        routed.answer.merge(answer);
        if !routed.awaiting.is_empty() {
            return None;
        }
        let routed = self.routed.remove(&id)?;
        Some((routed.client, routed.answer.response(self.own, routed.request)))
    }

    /// Stops waiting on every broker `gone` names; the clients and replies
    /// of the lookups left awaiting none, in query order.
    pub(crate) fn release(&mut self, gone: impl Fn(&PeerId) -> bool) -> Vec<(PeerId, Message)> {
        self.routed
            .extract_if(.., |_, routed| {
                routed.awaiting.retain(|broker| !gone(broker));
                routed.awaiting.is_empty()
            })
            .map(|(_, routed)| (routed.client, routed.answer.response(self.own, routed.request)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const PIPE: &str = "jxta:PipeAdvertisement";

    fn peer(byte: u8) -> PeerId {
        PeerId::from_bytes([byte; 16])
    }

    fn adverts(doc_type: &str, owner: Option<PeerId>) -> Query {
        Query::Adverts { doc_type: doc_type.to_string(), owner }
    }

    /// Every lookup message the module writes has the layout brokers and
    /// clients built by hand before it existed, byte for byte.
    #[test]
    fn every_lookup_message_keeps_its_hand_built_layout() {
        let (me, owner, origin) = (peer(1), peer(2), peer(3));
        let math = GroupId::new("math");
        let keyed = adverts(PIPE, Some(owner));
        let cases = [
            (
                write(MessageKind::LookupRequest, me, 5, &math, &keyed),
                Message::new(MessageKind::LookupRequest, me, 5)
                    .with_str("group", "math")
                    .with_str("doc-type", PIPE)
                    .with_element("owner", owner.to_urn().into_bytes()),
            ),
            (
                write(MessageKind::LookupRequest, me, 5, &math, &adverts(PIPE, None)),
                Message::new(MessageKind::LookupRequest, me, 5).with_str("group", "math").with_str("doc-type", PIPE),
            ),
            (
                write(MessageKind::LookupRequest, me, 5, &math, &Query::Member(owner)),
                Message::new(MessageKind::LookupRequest, me, 5)
                    .with_str("group", "math")
                    .with_str("member", &owner.to_urn()),
            ),
            (
                Answer::Adverts(vec![(owner, (4, origin), "<a/>".to_string())]).response(me, 5),
                Message::new(MessageKind::LookupResponse, me, 5)
                    .with_str("status", "ok")
                    .with_element("adverts", record::encode(&["<a/>".to_string()])),
            ),
            (
                Answer::Member(true).response(me, 5),
                Message::new(MessageKind::LookupResponse, me, 5).with_str("status", "ok").with_str("member", "true"),
            ),
            (
                write(MessageKind::ShardQuery, me, 7, &math, &keyed),
                Message::new(MessageKind::ShardQuery, me, 0)
                    .with_str("query", "7")
                    .with_str("group", "math")
                    .with_str("doc-type", PIPE)
                    .with_str("owner", &owner.to_urn()),
            ),
            (
                write(MessageKind::ShardQuery, me, 7, &math, &Query::Member(owner)),
                Message::new(MessageKind::ShardQuery, me, 0)
                    .with_str("query", "7")
                    .with_str("group", "math")
                    .with_str("member", &owner.to_urn()),
            ),
            (
                write(MessageKind::ShardQuery, me, 7, &math, &adverts(PIPE, None)),
                Message::new(MessageKind::ShardQuery, me, 0)
                    .with_str("query", "7")
                    .with_str("group", "math")
                    .with_str("doc-type", PIPE),
            ),
            (
                Answer::Adverts(vec![(owner, (4, origin), "<a/>".to_string())]).shard_response(me, 7, &math, &keyed),
                Message::new(MessageKind::ShardResponse, me, 0).with_str("query", "7").with_element(
                    "results",
                    record::encode(&[(math.clone(), owner, PIPE.to_string(), "<a/>".to_string(), (4, origin))]),
                ),
            ),
            (
                Answer::Member(false).shard_response(me, 7, &math, &Query::Member(owner)),
                Message::new(MessageKind::ShardResponse, me, 0).with_str("query", "7").with_str("member", "false"),
            ),
        ];
        for (written, by_hand) in cases {
            assert_eq!(written.to_bytes(), by_hand.to_bytes(), "{:?}", by_hand.kind);
        }
    }

    fn any_peer() -> impl Strategy<Value = PeerId> {
        proptest::array::uniform16(any::<u8>()).prop_map(PeerId::from_bytes)
    }

    fn any_query() -> impl Strategy<Value = Query> {
        prop_oneof![
            ("[a-zA-Z0-9:_.-]{0,12}", proptest::option::of(any_peer()))
                .prop_map(|(doc_type, owner)| Query::Adverts { doc_type, owner }),
            any_peer().prop_map(Query::Member),
        ]
    }

    /// One replica's answer: at most one document per owner, versioned by
    /// (sequence, origin), the document naming its version.
    fn replica_answer() -> impl Strategy<Value = Answer> {
        proptest::collection::vec((0u8..6, 0u64..4, 0u8..3), 0..5).prop_map(|mut found| {
            found.sort_by_key(|(owner, ..)| *owner);
            found.dedup_by_key(|(owner, ..)| *owner);
            let document = |owner, seq, origin| format!("<{owner}-{seq}-{origin}/>");
            Answer::Adverts(
                found
                    .into_iter()
                    .map(|(owner, seq, origin)| (peer(owner), (seq, peer(origin)), document(owner, seq, origin)))
                    .collect(),
            )
        })
    }

    proptest! {
        #[test]
        fn a_written_query_reads_back(
            query in any_query(),
            group in "[a-zA-Z0-9:_.-]{0,12}",
            id in any::<u64>(),
            shard in any::<bool>(),
        ) {
            let kind = if shard { MessageKind::ShardQuery } else { MessageKind::LookupRequest };
            let written = write(kind, peer(1), id, &GroupId::new(group.clone()), &query);
            let message = Message::from_bytes(&written.to_bytes()).expect("a written query decodes");
            prop_assert_eq!(read(&message), Some((id, GroupId::new(group), Ok(query))));
        }

        #[test]
        fn merged_answers_do_not_depend_on_arrival_order(
            answers in proptest::collection::vec(replica_answer(), 1..5),
            keys in proptest::collection::vec(any::<u64>(), 4),
        ) {
            let in_order: Vec<usize> = (0..answers.len()).collect();
            let mut arrival = in_order.clone();
            arrival.sort_by_key(|&i| keys[i]);
            let reply = merged_reply(&answers, &in_order);
            prop_assert_eq!(reply.to_bytes(), merged_reply(&answers, &arrival).to_bytes());
            prop_assert_eq!(documents(&reply), greatest_versions(&answers));
        }
    }

    /// The client reply of one lookup awaiting a broker per answer, once
    /// every answer merged in `order`.
    fn merged_reply(answers: &[Answer], order: &[usize]) -> Message {
        let brokers: Vec<PeerId> = (0..answers.len()).map(|i| peer(100 + i as u8)).collect();
        let mut pending = Pending::new(peer(1));
        let id = pending.next_id();
        pending.open(id, peer(2), 9, brokers.clone(), Answer::Adverts(Vec::new()));
        let mut replies: Vec<Message> = order
            .iter()
            .filter_map(|&i| pending.merge(id, &brokers[i], answers[i].clone()))
            .map(|(_, reply)| reply)
            .collect();
        assert_eq!(replies.len(), 1, "the last awaited answer replies, once");
        replies.pop().expect("one reply")
    }

    /// Each owner's document at its greatest version, by owner.
    fn greatest_versions(answers: &[Answer]) -> Vec<String> {
        let mut greatest: BTreeMap<PeerId, ((u64, PeerId), String)> = BTreeMap::new();
        for answer in answers {
            let Answer::Adverts(found) = answer else { unreachable!("advertisement answers") };
            for (owner, version, xml) in found {
                if greatest.get(owner).is_none_or(|(stored, _)| version > stored) {
                    greatest.insert(*owner, (*version, xml.clone()));
                }
            }
        }
        greatest.into_values().map(|(_, xml)| xml).collect()
    }

    #[test]
    fn an_answer_from_a_broker_the_lookup_does_not_await_merges_nothing() {
        let (x, y) = (peer(10), peer(11));
        let mut pending = Pending::new(peer(1));
        let id = pending.next_id();
        pending.open(id, peer(2), 9, vec![x], Answer::Adverts(Vec::new()));
        let stray = Answer::Adverts(vec![(peer(5), (1, y), "<stray/>".to_string())]);
        assert!(pending.merge(id, &y, stray.clone()).is_none(), "y was not asked");
        assert!(pending.merge(id + 1, &x, stray.clone()).is_none(), "no such lookup");
        let (client, reply) = pending.merge(id, &x, Answer::Adverts(Vec::new())).expect("x answers");
        assert_eq!((client, reply.kind, reply.request_id), (peer(2), MessageKind::LookupResponse, 9));
        assert!(documents(&reply).is_empty(), "the stray answer merged nothing");
        assert!(pending.merge(id, &x, stray).is_none(), "a lookup is answered once");
        assert!(pending.is_empty());
    }

    #[test]
    fn a_release_answers_each_lookup_once() {
        let (x, y) = (peer(10), peer(11));
        let mut pending = Pending::new(peer(1));
        let (first, second) = (pending.next_id(), pending.next_id());
        assert_eq!((first, second), (1, 2), "query ids run 1, 2, 3, …");
        pending.open(first, peer(2), 8, vec![x, y], Answer::Member(false));
        pending.open(second, peer(3), 9, vec![x], Answer::Adverts(Vec::new()));
        let released = pending.release(|broker| *broker == x);
        assert_eq!(released.len(), 1, "the first lookup still awaits y");
        assert_eq!((released[0].0, released[0].1.request_id), (peer(3), 9));
        assert!(pending.release(|broker| *broker == x).is_empty());
        assert!(pending.merge(first, &y, Answer::Member(true)).is_some_and(|(_, reply)| is_member(&reply)));
        assert!(pending.release(|_| true).is_empty());
        assert!(pending.is_empty());
    }
}
