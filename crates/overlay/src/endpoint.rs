//! A broker's one way onto the network.
//!
//! Every message a broker sends leaves through its [`Endpoint`], which owns
//! the broker's [`SimNetwork`] handle; no other broker code may hold one.
//! Two invariants of the backbone live here, so they hold by construction:
//!
//! * **Allocation order is wire order.**  The receivers' replay protection
//!   (the admission gate in `Broker::process_net`) drops any sequence number
//!   at or below the highest it has seen from the origin.  Several threads
//!   send on a broker's behalf (its event loop, the federation repair loop,
//!   in-process callers), so [`Endpoint::to_broker`] stamps the next `seq`
//!   and sends under one lock, `broker.send_lock`: without it, seqs S and
//!   S+1 could leave in the opposite order and the genuine S be dropped.
//! * **Every backbone send is counted by kind**, once it succeeds, through
//!   the one kind → counter table (`FederationMetrics::count_sent`).
//!
//! Client-facing traffic carries no `seq` and counts nothing.  The client
//! methods refuse an inter-broker kind and `to_broker` refuses a client
//! kind, so neither path can stand in for the other.

use crate::counter::SyncClock;
use crate::id::PeerId;
use crate::message::Message;
use crate::metrics::FederationMetrics;
use crate::net::{LinkModel, NetMessage, SimNetwork};
use crossbeam::channel::Receiver;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// A broker's network handle, send lock and sequence clock.
pub(crate) struct Endpoint {
    id: PeerId,
    network: Arc<SimNetwork>,
    /// Shared with the replica, which versions local writes with it.
    clock: Arc<SyncClock>,
    send_lock: Mutex<()>,
}

impl Endpoint {
    pub(crate) fn new(id: PeerId, network: Arc<SimNetwork>, clock: Arc<SyncClock>) -> Self {
        Endpoint { id, network, clock, send_lock: Mutex::with_class("broker.send_lock", ()) }
    }

    /// Stamps `message` with the next sequence number, sends it to the peer
    /// broker `to` on top of the `carried_wire` earlier hops accumulated, and
    /// counts it.  Returns the wire size, `seq` included; `None` when the
    /// send failed or `message` is not an inter-broker kind.
    pub(crate) fn to_broker(
        &self,
        to: PeerId,
        mut message: Message,
        carried_wire: Duration,
        metrics: &FederationMetrics,
    ) -> Option<usize> {
        if !message.kind.is_inter_broker() {
            return None;
        }
        let size = {
            let _guard = self.send_lock.lock();
            message.push_element("seq", self.clock.next().to_string().into_bytes());
            let bytes = message.to_bytes();
            let size = bytes.len();
            self.network.forward(self.id, to, bytes, carried_wire).ok()?;
            size
        };
        metrics.count_sent(message.kind, size as u64);
        Some(size)
    }

    /// Sends a reply or a routed-lookup answer to the client `to`; `false`
    /// when the send failed or `message` is an inter-broker kind.
    pub(crate) fn to_client(&self, to: PeerId, message: &Message) -> bool {
        !message.kind.is_inter_broker()
            && self.network.send(self.id, to, message.to_bytes()).is_ok()
    }

    /// Pushes `message`, serialised once, to every client in `peers`.
    /// Returns how many sends succeeded (none for an inter-broker kind).
    pub(crate) fn to_clients(&self, peers: &[PeerId], message: &Message) -> usize {
        if message.kind.is_inter_broker() {
            return 0;
        }
        let bytes = message.to_bytes();
        peers
            .iter()
            .filter(|peer| self.network.send(self.id, **peer, bytes.clone()).is_ok())
            .count()
    }

    /// Delivers a relayed client payload to the locally homed peer `to`,
    /// charging this hop on top of `carried_wire`.
    pub(crate) fn relay_leaf(&self, to: PeerId, payload: &[u8], carried_wire: Duration) -> bool {
        self.network.forward(self.id, to, payload.to_vec(), carried_wire).is_ok()
    }

    /// Registers the broker's inbox, bounded at `capacity` messages if set.
    pub(crate) fn register(&self, capacity: Option<usize>) -> Receiver<NetMessage> {
        match capacity {
            Some(capacity) => self.network.register_bounded(self.id, capacity),
            None => self.network.register(self.id),
        }
    }

    /// Closes the broker's inbox: it becomes unreachable.
    pub(crate) fn unregister(&self) {
        self.network.unregister(&self.id);
    }

    /// Messages ever delivered to the broker's inbox (monotone).
    pub(crate) fn delivered(&self) -> u64 {
        self.network.delivered_to(&self.id)
    }

    /// The link model between the broker and `peer`.
    pub(crate) fn link_to(&self, peer: PeerId) -> LinkModel {
        self.network.link_between(self.id, peer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageKind;
    use crate::metrics::FederationStats;
    use jxta_crypto::drbg::HmacDrbg;

    /// An endpoint plus one registered peer and its inbox.
    fn setup() -> (Endpoint, PeerId, Receiver<NetMessage>) {
        let mut rng = HmacDrbg::from_seed_u64(0xE4D);
        let network = SimNetwork::new(LinkModel::ideal());
        let endpoint = Endpoint::new(PeerId::random(&mut rng), network, Arc::default());
        let peer = PeerId::random(&mut rng);
        let inbox = endpoint.network.register(peer);
        (endpoint, peer, inbox)
    }

    fn inter_broker_kinds() -> Vec<MessageKind> {
        let kinds: Vec<MessageKind> = (40..=54).filter_map(MessageKind::from_u8).collect();
        assert_eq!(kinds.len(), 15);
        assert!(kinds.iter().all(|kind| kind.is_inter_broker()));
        kinds
    }

    #[test]
    fn client_sends_refuse_every_inter_broker_kind() {
        let (endpoint, peer, inbox) = setup();
        for kind in inter_broker_kinds() {
            let message = Message::new(kind, peer, 0);
            assert!(!endpoint.to_client(peer, &message), "{kind:?}");
            assert_eq!(endpoint.to_clients(&[peer, peer], &message), 0, "{kind:?}");
        }
        // Nothing arrived and no counter moved: the client paths take no
        // metrics, and the network counted no send.
        assert!(inbox.try_recv().is_err(), "a refused kind reached the client");
        assert_eq!(endpoint.network.stats().messages_sent, 0);
        assert_eq!(endpoint.network.sent_by(&endpoint.id), 0);

        // A client kind goes through both paths, uncounted and unstamped.
        let reply = Message::new(MessageKind::Ack, peer, 7);
        assert!(endpoint.to_client(peer, &reply));
        assert_eq!(endpoint.to_clients(&[peer, peer], &reply), 2);
        for _ in 0..3 {
            let delivered = Message::from_bytes(&inbox.try_recv().unwrap().payload).unwrap();
            assert_eq!(delivered, reply);
        }
    }

    #[test]
    fn backbone_sends_arrive_with_strictly_increasing_seqs() {
        let (endpoint, peer, inbox) = setup();
        let metrics = FederationMetrics::new();
        let mut last = 0;
        for kind in inter_broker_kinds().into_iter().cycle().take(40) {
            let message = Message::new(kind, peer, 0);
            let size = endpoint.to_broker(peer, message, Duration::ZERO, &metrics);
            let delivered = inbox.try_recv().unwrap();
            assert_eq!(size, Some(delivered.payload.len()));
            let message = Message::from_bytes(&delivered.payload).unwrap();
            let seq: u64 = message.element_str("seq").unwrap().parse().unwrap();
            assert!(seq > last, "seq {seq} after {last}");
            last = seq;
        }
        // A client kind never takes the sequenced path.
        let reply = Message::new(MessageKind::LookupResponse, peer, 1);
        assert_eq!(endpoint.to_broker(peer, reply, Duration::ZERO, &metrics), None);
        assert!(inbox.try_recv().is_err());
    }

    #[test]
    fn each_counted_kind_moves_only_its_own_field() {
        use MessageKind::*;
        let (endpoint, peer, inbox) = setup();
        for kind in inter_broker_kinds() {
            let metrics = FederationMetrics::new();
            let size = endpoint
                .to_broker(peer, Message::new(kind, peer, 0), Duration::ZERO, &metrics)
                .unwrap() as u64;
            inbox.try_recv().unwrap();
            let zero = FederationStats::default();
            let expected = match kind {
                BrokerSync => FederationStats { syncs_sent: 1, ..zero },
                BrokerRelay => FederationStats { relays_forwarded: 1, ..zero },
                PlumtreeIHave => FederationStats { ihaves_sent: 1, ..zero },
                PlumtreeGraft => FederationStats { grafts_sent: 1, ..zero },
                PlumtreePrune => FederationStats { prunes_sent: 1, ..zero },
                SwimPing => FederationStats { swim_probes: 1, ..zero },
                SwimPingReq => FederationStats { swim_indirect_probes: 1, ..zero },
                SwimAck => FederationStats { swim_acks: 1, ..zero },
                AntiEntropyDigest | AntiEntropySnapshot => {
                    FederationStats { repair_bytes: size, ..zero }
                }
                AntiEntropyRange => {
                    FederationStats { repair_bytes: size, descent_rounds: 1, ..zero }
                }
                MembershipShuffle | MembershipShuffleReply | ShardQuery | ShardResponse => zero,
                other => unreachable!("{other:?} is not an inter-broker kind"),
            };
            assert_eq!(metrics.snapshot(), expected, "{kind:?}");
        }
        // A failed send counts nothing: the endpoint's own id has no inbox.
        let metrics = FederationMetrics::new();
        let sync = Message::new(BrokerSync, peer, 0);
        assert_eq!(endpoint.to_broker(endpoint.id, sync, Duration::ZERO, &metrics), None);
        assert_eq!(metrics.snapshot(), FederationStats::default());
    }
}
