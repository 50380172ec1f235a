//! Anti-entropy repair, without IO.
//!
//! Gossip is fire-and-forget, so a digest lost on a backbone edge diverges
//! the replicas until something compares them.  Each repair round a broker
//! sends a peer a digest of the state the two hold jointly, one hash per
//! [`Section`] read off the summaries the replica keeps current on write
//! (`crate::repair`).  A receiver whose hashes disagree answers with a flat
//! snapshot of the mismatched sections and asks for the sender's in return,
//! or, for the shard-keyed sections, descends the hash tree one leg per
//! level to the divergent key ranges and ships those as bounded pages.  An
//! advertisement leg lists the entry hashes of its small children, so the
//! pages ship only what each side lacks.  Snapshots merge under the same
//! last-writer-wins versions as gossip, so repair never regresses a newer
//! write.  Every snapshot and leg carries one binary [`Scope`] record; one
//! without a decodable scope is ignored.
//!
//! These functions only read a [`Replica`] or merge into one: they never
//! send, call the extension or take a lock.  Each returns the messages to
//! send and what the broker does once the replica guard is released
//! ([`Effects`]), so nothing is sent while `broker.replica` is held.

use crate::id::PeerId;
use crate::message::{Message, MessageKind};
use crate::record::{self, Record};
use crate::replica::{FlatEntry, JoinGossip, MembershipEntry, PresenceEntry, PresenceVersion, Replica};
use crate::shard::{self, NodeSummary, SectionTree};
use std::collections::{HashMap, HashSet};

/// A divergent repair-tree node whose entry count (on both sides) is at or
/// below this threshold stops the hash-tree descent: shipping the entries
/// outright is cheaper than another narrowing leg.  A leg lists the entry
/// hashes of every advertisement child at or below it, so the page for
/// that child can skip what the leg's sender holds already.
const REPAIR_PAGE_ENTRIES: u64 = 256;

/// Size of an anti-entropy digest's one `digests` element: the
/// advertisement, membership, presence and extension digests as four 8-byte
/// hash records.
pub(crate) const DIGEST_BYTES: usize = 4 * 8;

/// Entries per range page.  Pages bound the size of a repair message:
/// healing a million-entry divergence ships many pages, never one
/// million-entry `Message`.
const REPAIR_PAGE_MAX: usize = 256;

/// Node summaries per descent leg (a 25 KB range message at most).
/// Divergent nodes past the budget are shipped as (coarser) pages instead
/// of descending further — massive divergence degrades toward the flat
/// snapshot cost, never to an unbounded descent message.
const REPAIR_MAX_RANGE_NODES: usize = 1024;

/// The element a snapshot or leg carries its [`Scope`] in: one byte of name
/// keeps a flat reply's scope within the bytes of the text field it
/// replaced.
pub(crate) const SCOPE: &str = "s";

/// The whole shard-key space: the range a flat snapshot speaks for.
const KEY_SPACE: (u64, u64) = (0, u64::MAX);

/// One anti-entropy section.  Its discriminant is its bit in a
/// [`SectionSet`] and its byte in a [`Scope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Section {
    /// The advertisement index, shard-keyed (element `a`).
    Adverts = 1,
    /// Group membership, shard-keyed (element `m`).
    Membership = 2,
    /// The fully replicated presence/routing register (element `p`).
    Presence = 4,
    /// The extension's replicated state, opaque (element `ext`).
    Extension = 8,
}

impl Section {
    /// The sections with a repair tree to descend and key ranges to page.
    const SHARD_KEYED: [Section; 2] = [Section::Adverts, Section::Membership];

    /// The shard-keyed section whose byte is `byte`.
    fn shard_keyed(byte: u8) -> Option<Section> {
        Section::SHARD_KEYED.into_iter().find(|section| *section as u8 == byte)
    }
}

/// A set of sections, one bit each.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SectionSet(u8);

impl SectionSet {
    fn contains(self, section: Section) -> bool {
        self.0 & section as u8 != 0
    }

    fn insert(&mut self, section: Section) {
        self.0 |= section as u8;
    }

    fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The sections a snapshot of `self` ships: membership repair needs the
    /// sender's presence versions to decide deletions, so `m` travels with
    /// `p`.
    fn shipped(self) -> SectionSet {
        if self.contains(Section::Membership) {
            SectionSet(self.0 | Section::Presence as u8)
        } else {
            self
        }
    }
}

/// What a snapshot or descent leg speaks for, as one binary record in its
/// [`SCOPE`] element: a variant byte, then a flat scope's `want` set, a
/// leg's section, or a page's section and range bounds (two 8-byte
/// big-endian words).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scope {
    /// A snapshot of whole sections; the receiver answers with its own
    /// snapshot of the `want` sections (none on an exchange's final leg).
    Flat { want: SectionSet },
    /// A descent leg over a shard-keyed section's repair tree.
    Leg(Section),
    /// A page of a shard-keyed section's key range `[lo, hi]`: an entry the
    /// page lacks is evidence of deletion only inside it.  `want` asks the
    /// receiver for its own entries of the range.
    Page { section: Section, range: (u64, u64), want: bool },
}

const FLAT: u8 = 1;
const LEG: u8 = 2;
const PAGE: u8 = 3;
const WANT_PAGE: u8 = 4;

impl Scope {
    /// An exchange's final flat snapshot: it asks for nothing back.
    pub(crate) const FINAL: Scope = Scope::Flat { want: SectionSet(0) };

    pub(crate) fn encode(self) -> Vec<u8> {
        match self {
            Scope::Flat { want } => vec![FLAT, want.0],
            Scope::Leg(section) => vec![LEG, section as u8],
            Scope::Page { section, range: (lo, hi), want } => {
                let tag = if want { WANT_PAGE } else { PAGE };
                [&[tag, section as u8][..], &lo.to_be_bytes(), &hi.to_be_bytes()].concat()
            }
        }
    }

    /// The scope `bytes` hold, exactly: `None` when they are truncated or
    /// long, name an unknown variant, section or want bit, scope a leg or
    /// page to a section off the repair tree, or bound a page with `lo > hi`.
    fn decode(bytes: &[u8]) -> Option<Scope> {
        let word = |at: usize| Some(u64::from_be_bytes(bytes.get(at..at + 8)?.try_into().ok()?));
        match *bytes {
            [FLAT, want] if want < 16 => Some(Scope::Flat { want: SectionSet(want) }),
            [LEG, section] => Some(Scope::Leg(Section::shard_keyed(section)?)),
            [tag @ (PAGE | WANT_PAGE), section, ..] if bytes.len() == 18 => {
                let (section, range) = (Section::shard_keyed(section)?, (word(2)?, word(10)?));
                let want = tag == WANT_PAGE;
                (range.0 <= range.1).then_some(Scope::Page { section, range, want })
            }
            _ => None,
        }
    }

    fn of(message: &Message) -> Option<Scope> {
        message.element(SCOPE).and_then(Scope::decode)
    }

    /// A message from `sender` carrying this scope: a descent leg for
    /// [`Scope::Leg`], a snapshot otherwise.
    fn message(self, sender: PeerId) -> Message {
        let kind = match self {
            Scope::Leg(_) => MessageKind::AntiEntropyRange,
            _ => MessageKind::AntiEntropySnapshot,
        };
        Message::new(kind, sender, 0).with_element(SCOPE, self.encode())
    }
}

/// What the broker does once the replica guard is released, in this order.
#[derive(Default)]
pub(crate) struct Effects<'m> {
    /// Count a repair mismatch: a digest disagreed.
    pub(crate) mismatch: bool,
    /// Push each healed advertisement to the local members that missed it.
    pub(crate) healed: Vec<(FlatEntry, Vec<PeerId>)>,
    /// Gossip the joins a merge re-asserted for live local sessions.
    pub(crate) joins: Vec<JoinGossip>,
    /// Hand the extension the state a snapshot carried, to authenticate and
    /// merge.
    pub(crate) extension_blob: Option<&'m [u8]>,
    /// Count the replica entries brought up to date (and the extension's).
    pub(crate) repaired: u64,
    /// Append the extension's state to `send[0]`, a flat snapshot.
    pub(crate) with_extension: bool,
    /// Count the range pages, the last `pages` messages of `send`.
    pub(crate) pages: usize,
    /// Send these backbone messages to the peer, in order.
    pub(crate) send: Vec<Message>,
}

/// One round's digests: towards each of `peers`, the advertisement and
/// membership digests of what the two share, the presence digest and this
/// broker's extension digest `x`.  Read off the summaries, so a round
/// hashes no entry.
pub(crate) fn digests(replica: &Replica, peers: Vec<PeerId>, x: u64) -> Vec<(PeerId, Message)> {
    let p = replica.presence_hash();
    let digest = |peer: &PeerId| {
        let (a, m) = replica.repair_digests(peer);
        let digests = record::encode(&[a, m, p, x]);
        Message::new(MessageKind::AntiEntropyDigest, replica.id(), 0).with_element("digests", digests)
    };
    peers.into_iter().map(|peer| (peer, digest(&peer))).collect()
}

/// Answers a peer's digest: on any mismatch, the sections off the tree
/// (presence, extension) go back as a flat snapshot that asks for the
/// peer's in return, so one exchange heals both replicas.  With
/// `descend_tree` (`BrokerConfig::repair_tree`) a mismatched shard-keyed
/// section starts a hash-tree descent instead, when this broker `drive`s
/// it (the tie-break the broker reads off its fabric); without it the
/// section joins the flat snapshot.  `x` is this broker's extension digest.
///
/// A digest whose `digests` element is missing or not exactly
/// [`DIGEST_BYTES`] long is ignored: read as a mismatch, one garbled digest
/// would start a descent plus flat snapshots both ways.
pub(crate) fn on_digest(
    replica: &Replica,
    digest: &Message,
    x: u64,
    descend_tree: bool,
    drive: bool,
) -> Effects<'static> {
    let mut effects = Effects::default();
    let Some(theirs) = digest.element("digests").filter(|d| d.len() == DIGEST_BYTES) else {
        return effects;
    };
    let peer = digest.sender;
    let ((a, m), p) = (replica.repair_digests(&peer), replica.presence_hash());
    let ours = [Section::Adverts, Section::Membership, Section::Presence, Section::Extension].into_iter().zip([a, m, p, x]);
    let (mut flat, mut descend) = (SectionSet::default(), SectionSet::default());
    for ((section, ours), theirs) in ours.zip(record::decode::<u64>(theirs)) {
        match section {
            _ if ours == theirs => {}
            Section::Adverts | Section::Membership if descend_tree => descend.insert(section),
            _ => flat.insert(section),
        }
    }
    effects.mismatch = !flat.is_empty() || !descend.is_empty();
    if !flat.is_empty() {
        let sections = flat.shipped();
        effects.send.push(flat_snapshot(replica, &peer, sections, Scope::Flat { want: sections }));
        effects.with_extension = sections.contains(Section::Extension);
    }
    for section in Section::SHARD_KEYED.into_iter().filter(|section| drive && descend.contains(*section)) {
        // First descent leg: our children of the root.
        let tree = replica.section_tree(section, &peer);
        effects.send.push(descent_leg(replica, section, &tree, &peer, &[(0, 0)]));
    }
    effects
}

/// Answers one descent leg: compares the peer's node summaries against the
/// local tree.  Agreeing nodes are dropped; a divergent node either descends
/// one more level (its children go into the reply leg) or — at the leaf
/// level, once both sides' counts fit a page, or past the per-message node
/// budget — has its key range shipped as pages.  A node the leg lists the
/// entry hashes of is paged against that list: the pages ship only what the
/// peer lacks, and list this broker's own hashes for the peer's reply.  The
/// exchange is stateless and the depth strictly increases leg over leg, so a
/// descent ends within [`shard::REPAIR_TREE_DEPTH`] legs however the trees
/// differ.  A leg without a leg scope or a `nodes` element is ignored.
pub(crate) fn on_leg(replica: &Replica, leg: &Message) -> Effects<'static> {
    let mut effects = Effects::default();
    let (Some(Scope::Leg(section)), Some(blob)) = (Scope::of(leg), leg.element("nodes")) else {
        return effects;
    };
    let peer = leg.sender;
    // Only advertisement legs carry hash lists: a membership page must list
    // its range in full, since its deletion rule reads the sender's whole
    // listing.
    let hashes: Vec<u64> = leg.element("hashes").map(record::decode).unwrap_or_default();
    let mut lists = (section == Section::Adverts).then_some(&hashes[..]);
    let tree = replica.section_tree(section, &peer);
    let (mut parents, mut pages) = (Vec::new(), Vec::new());
    for (depth, prefix, theirs) in record::decode::<(u32, u64, NodeSummary)>(blob) {
        // The lists are read in node order: a node of at most
        // `REPAIR_PAGE_ENTRIES` entries at the sender takes the next `count`
        // hashes, even a malformed node, so the lists after it stay aligned.
        // A list the element cannot back reads as absent, and so does every
        // list after it, which pages those nodes in full.
        let listed = match lists {
            Some(rest) if theirs.count <= REPAIR_PAGE_ENTRIES => {
                let (list, rest) = rest.split_at_checked(theirs.count as usize).unzip();
                lists = rest;
                list
            }
            _ => None,
        };
        if depth == 0 || depth > shard::REPAIR_TREE_DEPTH || prefix >= 1u64 << (4 * depth).min(63) {
            continue; // malformed node address
        }
        let ours = tree.node(depth, prefix);
        if ours == theirs {
            continue;
        }
        let descend = depth < shard::REPAIR_TREE_DEPTH
            && ours.count.max(theirs.count) > REPAIR_PAGE_ENTRIES
            && (parents.len() + 1) * shard::REPAIR_TREE_ARITY <= REPAIR_MAX_RANGE_NODES;
        if descend {
            parents.push((depth, prefix));
        } else {
            // Small enough to ship (or the node budget is spent — massive
            // divergence degrades to shipping coarser ranges, never to an
            // unbounded message).
            pages.push((shard::node_range(depth, prefix), listed));
        }
    }
    if !parents.is_empty() {
        effects.send.push(descent_leg(replica, section, &tree, &peer, &parents));
    }
    for (range, listed) in pages {
        let listed: Option<HashSet<u64>> = listed.map(|list| list.iter().copied().collect());
        range_pages(replica, &peer, section, range, true, listed.as_ref(), &mut effects);
    }
    effects
}

/// Merges a peer's snapshot and answers it.  Each section is one element of
/// records (see `crate::record`); only the key range the scope speaks for
/// authorises membership deletions.  A flat snapshot's `want` sections go
/// back as a final flat snapshot, and a page that wants this broker's side
/// of its range is answered with final pages of the range shipping what the
/// page's hash list lacks.  A snapshot without a flat or page scope merges
/// nothing and draws no reply.
pub(crate) fn on_snapshot<'m>(replica: &mut Replica, snapshot: &'m Message) -> Effects<'m> {
    let mut effects = Effects::default();
    let scope = Scope::of(snapshot);
    let range = match scope {
        Some(Scope::Flat { .. }) => KEY_SPACE,
        Some(Scope::Page { range, .. }) => range,
        _ => return effects,
    };
    let peer = snapshot.sender;
    // Presence/routing first, and decoded up front: the membership deletion
    // rule compares against the *sender's* versions, and a version stored
    // by the membership merge first would make the presence merge skip the
    // entry as already known, leaving routing unhealed.
    if let Some(presence) = snapshot.element("p").map(record::decode::<PresenceEntry>) {
        effects.repaired += replica.merge_presence(&presence, &mut effects.joins);
        if let Some(entries) = snapshot.element("m").map(record::decode::<MembershipEntry>) {
            let versions: HashMap<PeerId, PresenceVersion> =
                presence.iter().map(|(peer, version, _)| (*peer, *version)).collect();
            effects.repaired += replica.merge_membership(&peer, entries, &versions, range);
        }
    }
    // Advertisements: pure LWW merge — repair only ever *adds* missed
    // writes (reshard moves ownership identically everywhere).
    effects.healed = replica.merge_advertisements(snapshot.element("a").map(record::decode).unwrap_or_default());
    effects.repaired += effects.healed.len() as u64;
    effects.extension_blob = snapshot.element("ext");
    match scope {
        Some(Scope::Flat { want }) if !want.is_empty() => {
            let sections = want.shipped();
            effects.send.push(flat_snapshot(replica, &peer, sections, Scope::FINAL));
            effects.with_extension = sections.contains(Section::Extension);
        }
        Some(Scope::Page { section, range, want: true }) => {
            // The page lists what its sender holds (nothing, when it lists
            // nothing): the reply ships the rest.
            let hashes: Vec<u64> = snapshot.element("hashes").map(record::decode).unwrap_or_default();
            let listed: HashSet<u64> = hashes.into_iter().collect();
            range_pages(replica, &peer, section, range, false, Some(&listed), &mut effects);
        }
        _ => {}
    }
    effects
}

/// A snapshot of whole `sections` for `peer` under a flat `scope`.  The
/// shard-keyed sections are range reads over the whole key space, so their
/// entries come in shard-key order.  The extension's section is the
/// broker's to append ([`Effects::with_extension`]).
fn flat_snapshot(replica: &Replica, peer: &PeerId, sections: SectionSet, scope: Scope) -> Message {
    let mut snapshot = scope.message(replica.id());
    if sections.contains(Section::Adverts) {
        let entries = replica.repair_adv_entries_in(peer, KEY_SPACE, None);
        let entries: Vec<FlatEntry> = entries.into_iter().filter_map(|(_, (_, entry))| entry).collect();
        snapshot.push_element("a", record::encode(&entries));
    }
    if sections.contains(Section::Membership) {
        let entries = replica.repair_membership_entries_in(peer, KEY_SPACE);
        let entries: Vec<MembershipEntry> = entries.into_iter().map(|(_, entry)| entry).collect();
        snapshot.push_element("m", record::encode(&entries));
    }
    if sections.contains(Section::Presence) {
        snapshot.push_element("p", record::encode(&replica.repair_presence_entries()));
    }
    snapshot
}

/// Appends to `effects` the pages of the entries of `section` shared with
/// `peer` in the divergent key `range`.  `want` asks the peer to send its
/// own entries of each page's sub-range back (the final legs of a descent);
/// the peer's replies go out with `want` unset, which ends the exchange.
///
/// An advertisement page ships only the entries whose hashes `listed`
/// lacks (every entry without a list), and a `want` page built against a
/// list also lists this broker's hashes of its sub-range, so the reply
/// ships only what this broker lacks in turn.  Membership pages ignore
/// `listed`: they always carry the whole range, with the whole presence
/// register, since membership deletions compare against the sender's
/// presence versions.
pub(crate) fn range_pages(
    replica: &Replica,
    peer: &PeerId,
    section: Section,
    range: (u64, u64),
    want: bool,
    listed: Option<&HashSet<u64>>,
    effects: &mut Effects,
) {
    let pages = if section == Section::Adverts {
        let entries = replica.repair_adv_entries_in(peer, range, listed);
        let list_own = want && listed.is_some();
        split_pages(replica.id(), section, range, want, entries, |page, entries| {
            if list_own {
                let hashes: Vec<u64> = entries.iter().map(|(hash, _)| *hash).collect();
                page.push_element("hashes", record::encode(&hashes));
            }
            let entries: Vec<FlatEntry> = entries.into_iter().filter_map(|(_, entry)| entry).collect();
            page.push_element("a", record::encode(&entries));
        })
    } else {
        let presence = record::encode(&replica.repair_presence_entries());
        let entries = replica.repair_membership_entries_in(peer, range);
        split_pages(replica.id(), section, range, want, entries, |page, entries| {
            page.push_element("m", record::encode(&entries));
            page.push_element("p", presence.clone());
        })
    };
    effects.pages += pages.len();
    effects.send.extend(pages);
}

/// Splits `entries` (sorted by shard key) into pages of at most
/// [`REPAIR_PAGE_MAX`] entries — never splitting one shard key across pages
/// — each `fill`ed with its entries.  The page ranges partition `[lo, hi]`
/// exactly, so a `want` request reaches every peer-side entry of the
/// divergent range exactly once; an entry-less range still gets one empty
/// page, because the peer may hold entries this broker lacks, and for the
/// membership section the empty page is also what authorises deletions in
/// the range.  The split counts every entry held, so a page whose entries
/// the peer's hash list names all still goes out, empty: the lists move an
/// exchange's bytes, never its messages.
fn split_pages<T>(
    sender: PeerId,
    section: Section,
    (lo, hi): (u64, u64),
    want: bool,
    entries: Vec<(u64, T)>,
    fill: impl Fn(&mut Message, Vec<T>),
) -> Vec<Message> {
    let mut bounds: Vec<(u64, u64, usize)> = Vec::new();
    let (mut page_lo, mut start) = (lo, 0usize);
    while start < entries.len() || bounds.is_empty() {
        let mut end = (start + REPAIR_PAGE_MAX).min(entries.len());
        while end < entries.len() && entries[end].0 == entries[end - 1].0 {
            end += 1;
        }
        let page_hi = if end == entries.len() { hi } else { entries[end - 1].0 };
        bounds.push((page_lo, page_hi, end - start));
        page_lo = page_hi.wrapping_add(1);
        start = end;
    }
    let mut entries = entries.into_iter().map(|(_, entry)| entry);
    let page = |(lo, hi, len): (u64, u64, usize)| {
        let mut page = Scope::Page { section, range: (lo, hi), want }.message(sender);
        fill(&mut page, entries.by_ref().take(len).collect());
        page
    };
    bounds.into_iter().map(page).collect()
}

/// A descent leg of `section`: the children of each repair-tree node in
/// `parents`, as `replica` holds them towards `peer`.  All
/// [`shard::REPAIR_TREE_ARITY`] summaries of a node travel, empty ones
/// included — the peer needs the zero summaries to notice entries only it
/// holds.  On an advertisement leg, each child the peer may page (at most
/// [`REPAIR_PAGE_ENTRIES`] entries here) also lists its stored entry hashes,
/// `count` records in child order: a range read of the replica's ordered
/// index.
fn descent_leg(
    replica: &Replica,
    section: Section,
    tree: &SectionTree,
    peer: &PeerId,
    parents: &[(u32, u64)],
) -> Message {
    let (mut nodes, mut hashes) = (Vec::new(), Vec::new());
    for &(depth, prefix) in parents {
        for (child, summary) in tree.children(depth, prefix).into_iter().enumerate() {
            let child = (depth + 1, (prefix << 4) | child as u64);
            (child.0, child.1, summary).put(&mut nodes);
            if section == Section::Adverts && summary.count > 0 && summary.count <= REPAIR_PAGE_ENTRIES {
                for hash in replica.repair_adv_hashes_in(peer, shard::node_range(child.0, child.1)) {
                    hash.put(&mut hashes);
                }
            }
        }
    }
    let mut leg = Scope::Leg(section).message(replica.id()).with_element("nodes", nodes);
    if !hashes.is_empty() {
        leg.push_element("hashes", hashes);
    }
    leg
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// A well-formed scope of any variant.
    fn scope(rng: &mut TestRng) -> Scope {
        let section = Section::SHARD_KEYED[rng.below(2)];
        match rng.below(3) {
            0 => Scope::Flat { want: SectionSet(rng.below(16) as u8) },
            1 => Scope::Leg(section),
            _ => {
                let (a, b) = (rng.next_u64(), rng.next_u64() >> rng.below(64));
                Scope::Page { section, range: (a.min(b), a.max(b)), want: rng.below(2) == 0 }
            }
        }
    }

    /// Up to 19 bytes, the first two small enough to name a variant and a
    /// section often.
    fn bytes(rng: &mut TestRng) -> Vec<u8> {
        let mut bytes: Vec<u8> = (0..rng.below(20)).map(|_| rng.next_u32() as u8).collect();
        for (at, bound) in [(0, 6), (1, 18)] {
            if let Some(byte) = bytes.get_mut(at) {
                *byte %= bound;
            }
        }
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every scope decodes from its encoding, and any other byte string
        /// decodes only to the one scope that encodes back to it: a
        /// truncated or long record, an unknown variant, section or want
        /// bit, a leg or page off the shard-keyed sections and a page with
        /// `lo > hi` decode to nothing.
        #[test]
        fn scope_records_decode_exactly_their_encodings(
            drawn in BoxedStrategy::from_fn(|rng| (scope(rng), bytes(rng))),
        ) {
            let (scope, bytes) = drawn;
            prop_assert_eq!(Scope::decode(&scope.encode()), Some(scope));
            if let Some(decoded) = Scope::decode(&bytes) {
                prop_assert_eq!(decoded.encode(), bytes.clone());
                if let Scope::Page { range, .. } = decoded {
                    prop_assert!(range.0 <= range.1);
                }
            }
        }

        /// The pages of a range partition it exactly, in order: each page
        /// holds the entries inside its own sub-range, at most
        /// [`REPAIR_PAGE_MAX`] of them plus the rest of its last key's run,
        /// and no key is split across two pages.  An empty range is one
        /// page.
        #[test]
        fn pages_partition_their_range_without_splitting_a_key(
            drawn in BoxedStrategy::from_fn(|rng| {
                let lo = rng.next_u64() >> 1;
                let span = 1 + (rng.next_u64() >> (1 + rng.below(63)));
                // The keys crowd the range's first positions, so runs of one
                // key often straddle a page bound.
                let crowd = span.min(1 + rng.below(600) as u64);
                let mut keys: Vec<u64> = (0..rng.below(900)).map(|_| lo + rng.next_u64() % crowd).collect();
                keys.sort();
                (lo, lo + (span - 1), keys, rng.below(2) == 0)
            }),
        ) {
            let (lo, hi, keys, want) = drawn;
            let sender = PeerId::from_bytes([7; crate::id::PEER_ID_LEN]);
            let entries: Vec<(u64, u64)> = keys.iter().map(|key| (*key, *key)).collect();
            let pages = split_pages(sender, Section::Membership, (lo, hi), want, entries, |page, keys| {
                page.push_element("keys", record::encode(&keys));
            });
            let mut next = lo;
            let mut carried = Vec::new();
            for (i, page) in pages.iter().enumerate() {
                let Some(Scope::Page { section, range, want: asked }) = Scope::of(page) else {
                    panic!("page {i} has no page scope");
                };
                prop_assert_eq!((section, range.0, asked), (Section::Membership, next, want));
                let keys: Vec<u64> = record::decode(page.element("keys").unwrap());
                prop_assert!(keys.iter().all(|key| (range.0..=range.1).contains(key)));
                prop_assert!(keys.len() <= REPAIR_PAGE_MAX || keys[REPAIR_PAGE_MAX - 1] == keys[keys.len() - 1]);
                if i + 1 < pages.len() {
                    prop_assert!(!keys.is_empty() && keys.last() == Some(&range.1));
                }
                carried.extend(keys);
                next = range.1.wrapping_add(1);
            }
            prop_assert_eq!(next, hi.wrapping_add(1));
            prop_assert_eq!(carried, keys);
        }
    }

    /// A snapshot of membership ships presence too; nothing else does.
    #[test]
    fn membership_snapshots_ship_the_presence_register() {
        let set = |sections: &[Section]| SectionSet(sections.iter().fold(0, |bits, s| bits | *s as u8));
        let (a, m, p, x) = (Section::Adverts, Section::Membership, Section::Presence, Section::Extension);
        assert_eq!(set(&[m]).shipped(), set(&[m, p]));
        assert_eq!(set(&[a, m, x]).shipped(), set(&[a, m, p, x]));
        assert_eq!(set(&[a, x]).shipped(), set(&[a, x]));
        assert_eq!(SectionSet::default().shipped(), SectionSet::default());
    }
}
