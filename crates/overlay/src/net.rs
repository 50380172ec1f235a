//! The simulated network substrate.
//!
//! Real JXTA-Overlay deployments exchange messages over TCP/HTTP transports
//! between machines; the paper's measurements therefore mix CPU cost (the
//! cryptography) with wire cost (latency and serialisation of the payload).
//! The simulator reproduces that split explicitly:
//!
//! * Delivery happens in-process over crossbeam channels, so the *real* time
//!   spent is the compute cost of whatever the peers do with the messages.
//! * Every delivered message is charged a *virtual wire time* computed by the
//!   [`LinkModel`] (`latency + bytes / bandwidth`), which the client and
//!   broker modules accumulate in their [`crate::metrics`] so experiments can
//!   report `total = cpu + wire` exactly as a testbed measurement would.
//!
//! The network also supports pluggable [`Adversary`] implementations used by
//! the security evaluation: an adversary can observe (eavesdrop), drop,
//! rewrite or redirect messages, and inject new ones (replay).
//!
//! A delivery only reads the network's three locks (endpoints, link
//! overrides, adversary): every count, the backpressure timeout and the
//! seeded adversaries' SplitMix64 streams are atomics.

use crate::error::OverlayError;
use crate::id::PeerId;
use crate::metrics::WireTimeAccumulator;
use crate::shard::SplitMix64;
use crossbeam::channel::{bounded, unbounded, Receiver, SendTimeoutError, Sender, TrySendError};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long a delivery into a full bounded inbox waits for the receiver to
/// make room before the message is dropped (see
/// [`SimNetwork::set_backpressure_timeout`]).
pub const DEFAULT_BACKPRESSURE_TIMEOUT: Duration = Duration::from_secs(2);

/// Latency/bandwidth model of the links between peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkModel {
    /// One-way latency charged per message.
    pub latency: Duration,
    /// Link bandwidth in bytes per second (0 means infinite bandwidth).
    pub bandwidth_bytes_per_sec: u64,
}

impl LinkModel {
    /// An ideal link: no latency, infinite bandwidth.  Useful for isolating
    /// pure CPU cost in ablation benchmarks.
    pub fn ideal() -> Self {
        LinkModel {
            latency: Duration::ZERO,
            bandwidth_bytes_per_sec: 0,
        }
    }

    /// A local-area network similar to the paper's testbed: 2 ms one-way
    /// latency, 100 Mbit/s (12.5 MB/s).
    pub fn lan() -> Self {
        LinkModel {
            latency: Duration::from_millis(2),
            bandwidth_bytes_per_sec: 12_500_000,
        }
    }

    /// A wide-area link: 40 ms latency, 10 Mbit/s.
    pub fn wan() -> Self {
        LinkModel {
            latency: Duration::from_millis(40),
            bandwidth_bytes_per_sec: 1_250_000,
        }
    }

    /// Creates a custom link model.
    pub fn new(latency: Duration, bandwidth_bytes_per_sec: u64) -> Self {
        LinkModel {
            latency,
            bandwidth_bytes_per_sec,
        }
    }

    /// Virtual time needed to move `bytes` across this link.
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        if self.bandwidth_bytes_per_sec == 0 {
            return self.latency;
        }
        let nanos = (bytes as u128 * 1_000_000_000u128) / self.bandwidth_bytes_per_sec as u128;
        self.latency + Duration::from_nanos(nanos as u64)
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel::lan()
    }
}

/// A message in flight on the simulated network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetMessage {
    /// Sending peer.
    pub from: PeerId,
    /// Destination peer.
    pub to: PeerId,
    /// Serialised [`crate::message::Message`] bytes.
    pub payload: Vec<u8>,
    /// Virtual wire time charged to this delivery.
    pub wire_time: Duration,
}

/// What an adversary decides to do with an intercepted message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver the message unchanged.
    Deliver,
    /// Silently drop the message.
    Drop,
    /// Deliver the message to a different peer instead of the original
    /// destination (traffic redirection, e.g. DNS spoofing towards a fake
    /// broker).
    Redirect(PeerId),
    /// Replace the payload before delivery (man-in-the-middle tampering).
    Tamper(Vec<u8>),
    /// Deliver, but charge the given extra virtual wire time on top of the
    /// link model's cost (a latency spike on a congested or rerouted edge).
    Delay(Duration),
}

/// A network-level adversary.
///
/// The default implementations make an adversary that does nothing; concrete
/// attacks (eavesdropper, fake broker, replay attacker, advertisement forger)
/// live in the `jxta-overlay-secure` crate's `attacks` module.
pub trait Adversary: Send + Sync {
    /// Called for every message with read-only access (eavesdropping).
    fn observe(&self, _message: &NetMessage) {}

    /// Decides the fate of the message.
    fn intercept(&self, _message: &NetMessage) -> Verdict {
        Verdict::Deliver
    }

    /// Messages to inject into the network after this delivery (replay or
    /// forgery).  Each is delivered verbatim to its `to` peer.
    fn inject(&self, _message: &NetMessage) -> Vec<NetMessage> {
        Vec::new()
    }
}

/// A deterministic lossy-network adversary: drops each intercepted message
/// with a fixed probability, driven by a seeded SplitMix64 stream so runs
/// reproduce exactly.  Optionally scoped to messages *between* a set of
/// peers (e.g. the broker backbone, leaving client links untouched) — the
/// workload the anti-entropy repair experiments and proptests subject the
/// federation to.
pub struct RandomDrop {
    percent: u32,
    stream: SplitMix64,
    scope: Option<Vec<PeerId>>,
    dropped: AtomicU64,
}

impl RandomDrop {
    /// Drops every message with probability `percent`/100 (clamped to 100),
    /// deterministically from `seed`.
    pub fn new(seed: u64, percent: u32) -> Arc<Self> {
        Self::scoped(seed, percent, None)
    }

    /// Like [`RandomDrop::new`], but only messages whose sender *and*
    /// receiver are both in `peers` are subject to dropping.
    pub fn between(seed: u64, percent: u32, peers: Vec<PeerId>) -> Arc<Self> {
        Self::scoped(seed, percent, Some(peers))
    }

    fn scoped(seed: u64, percent: u32, scope: Option<Vec<PeerId>>) -> Arc<Self> {
        Arc::new(RandomDrop {
            percent: percent.min(100),
            stream: SplitMix64::new(seed),
            scope,
            dropped: AtomicU64::new(0),
        })
    }

    /// Number of messages dropped so far.
    pub fn dropped_count(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Adversary for RandomDrop {
    fn intercept(&self, message: &NetMessage) -> Verdict {
        if let Some(scope) = &self.scope {
            if !scope.contains(&message.from) || !scope.contains(&message.to) {
                return Verdict::Deliver;
            }
        }
        if (self.stream.next() % 100) < u64::from(self.percent) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            Verdict::Drop
        } else {
            Verdict::Deliver
        }
    }
}

/// One scheduled fault of a [`FaultPlan`].  Tick windows are half-open:
/// a fault is active while `from_tick <= tick < until_tick`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// `peer` crash-stops at `at_tick`: every message from or to it is
    /// dropped from then on.  The peer stays registered — a crash is not an
    /// operator-driven `remove_broker`, which is exactly the blindness the
    /// SWIM detector exists to cure.
    CrashStop {
        /// The crashing peer.
        peer: PeerId,
        /// First tick at which the peer is dark.
        at_tick: u64,
    },
    /// `peer` crashes at `at_tick` and recovers `recover_after` ticks later
    /// (process restart): messages drop only inside the window.
    CrashRecover {
        /// The crashing peer.
        peer: PeerId,
        /// First tick at which the peer is dark.
        at_tick: u64,
        /// Ticks until it answers again.
        recover_after: u64,
    },
    /// One-way partition: messages from `from` to `to` are dropped inside
    /// the window while the reverse direction keeps flowing (the asymmetric
    /// reachability NAT and routing failures produce).
    PartitionOneWay {
        /// Sending side of the severed direction.
        from: PeerId,
        /// Receiving side of the severed direction.
        to: PeerId,
        /// First tick of the partition window.
        from_tick: u64,
        /// First tick after the window.
        until_tick: u64,
    },
    /// The edge between `a` and `b` (both directions) charges `extra`
    /// virtual wire time inside the window (congestion, a rerouted path).
    LatencySpike {
        /// One endpoint of the slow edge.
        a: PeerId,
        /// The other endpoint.
        b: PeerId,
        /// Extra wire time charged per delivery.
        extra: Duration,
        /// First tick of the spike window.
        from_tick: u64,
        /// First tick after the window.
        until_tick: u64,
    },
    /// The edge between `a` and `b` (both directions) drops each message
    /// with probability `drop_percent`/100, from the plan's seeded stream.
    FlakyLink {
        /// One endpoint of the flaky edge.
        a: PeerId,
        /// The other endpoint.
        b: PeerId,
        /// Drop probability in percent (clamped to 100).
        drop_percent: u32,
    },
}

/// A deterministic fault-injection adversary: a scripted set of [`Fault`]s
/// evaluated against a logical tick counter the driving harness advances
/// (usually once per federation repair round).  Every decision — including
/// the flaky-link coin flips — derives from the seed and the tick, so a
/// failing run replays exactly.
///
/// ```
/// # use jxta_overlay::net::{FaultPlan, LinkModel, SimNetwork};
/// # use jxta_overlay::id::PeerId;
/// # use jxta_crypto::drbg::HmacDrbg;
/// # let mut rng = HmacDrbg::from_seed_u64(7);
/// # let a = PeerId::random(&mut rng);
/// # let b = PeerId::random(&mut rng);
/// let plan = FaultPlan::new(0xFEED)
///     .crash_stop(a, 3)
///     .partition_one_way(b, a, 1, 4)
///     .flaky_link(a, b, 20)
///     .into_adversary();
/// let network = SimNetwork::new(LinkModel::ideal());
/// network.set_adversary(plan.clone());
/// // ... per harness round: drive the federation, then
/// plan.advance_tick();
/// ```
pub struct FaultPlan {
    faults: Vec<Fault>,
    tick: AtomicU64,
    /// Seeded stream behind the flaky-link decisions.
    stream: SplitMix64,
    dropped: AtomicU64,
}

impl FaultPlan {
    /// Creates an empty plan whose flaky links draw from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            faults: Vec::new(),
            tick: AtomicU64::new(0),
            stream: SplitMix64::new(seed),
            dropped: AtomicU64::new(0),
        }
    }

    /// Adds a [`Fault::CrashStop`].
    pub fn crash_stop(mut self, peer: PeerId, at_tick: u64) -> Self {
        self.faults.push(Fault::CrashStop { peer, at_tick });
        self
    }

    /// Adds a [`Fault::CrashRecover`].
    pub fn crash_recover(mut self, peer: PeerId, at_tick: u64, recover_after: u64) -> Self {
        self.faults.push(Fault::CrashRecover {
            peer,
            at_tick,
            recover_after,
        });
        self
    }

    /// Adds a [`Fault::PartitionOneWay`] active for `from_tick <= tick <
    /// until_tick`.
    pub fn partition_one_way(
        mut self,
        from: PeerId,
        to: PeerId,
        from_tick: u64,
        until_tick: u64,
    ) -> Self {
        self.faults.push(Fault::PartitionOneWay {
            from,
            to,
            from_tick,
            until_tick,
        });
        self
    }

    /// Adds a [`Fault::LatencySpike`] on the `a`↔`b` edge.
    pub fn latency_spike(
        mut self,
        a: PeerId,
        b: PeerId,
        extra: Duration,
        from_tick: u64,
        until_tick: u64,
    ) -> Self {
        self.faults.push(Fault::LatencySpike {
            a,
            b,
            extra,
            from_tick,
            until_tick,
        });
        self
    }

    /// Adds a [`Fault::FlakyLink`] on the `a`↔`b` edge (always active).
    pub fn flaky_link(mut self, a: PeerId, b: PeerId, drop_percent: u32) -> Self {
        self.faults.push(Fault::FlakyLink {
            a,
            b,
            drop_percent: drop_percent.min(100),
        });
        self
    }

    /// Finishes the builder for [`SimNetwork::set_adversary`].
    pub fn into_adversary(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// Advances the logical clock by one tick and returns the new value.
    /// The harness calls this once per round (after pumping the round's
    /// traffic), so every fault window is expressed in rounds.
    pub fn advance_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The current logical tick.
    pub fn tick(&self) -> u64 {
        self.tick.load(Ordering::Relaxed)
    }

    /// Messages dropped by this plan so far.
    pub fn dropped_count(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Returns `true` while `peer` is dark at the current tick — harnesses
    /// use it to stop driving a crashed broker's repair cadence.
    pub fn is_crashed(&self, peer: &PeerId) -> bool {
        let now = self.tick();
        self.faults.iter().any(|fault| match fault {
            Fault::CrashStop { peer: p, at_tick } => p == peer && now >= *at_tick,
            Fault::CrashRecover {
                peer: p,
                at_tick,
                recover_after,
            } => p == peer && now >= *at_tick && now < at_tick + recover_after,
            _ => false,
        })
    }

    fn count_drop(&self) -> Verdict {
        self.dropped.fetch_add(1, Ordering::Relaxed);
        Verdict::Drop
    }
}

impl Adversary for FaultPlan {
    fn intercept(&self, message: &NetMessage) -> Verdict {
        let now = self.tick();
        if self.is_crashed(&message.from) || self.is_crashed(&message.to) {
            return self.count_drop();
        }
        let mut delay = Duration::ZERO;
        for fault in &self.faults {
            match fault {
                Fault::PartitionOneWay {
                    from,
                    to,
                    from_tick,
                    until_tick,
                } => {
                    if message.from == *from
                        && message.to == *to
                        && now >= *from_tick
                        && now < *until_tick
                    {
                        return self.count_drop();
                    }
                }
                Fault::FlakyLink { a, b, drop_percent } => {
                    let on_edge = (message.from == *a && message.to == *b)
                        || (message.from == *b && message.to == *a);
                    if on_edge && (self.stream.next() % 100) < u64::from(*drop_percent) {
                        return self.count_drop();
                    }
                }
                Fault::LatencySpike {
                    a,
                    b,
                    extra,
                    from_tick,
                    until_tick,
                } => {
                    let on_edge = (message.from == *a && message.to == *b)
                        || (message.from == *b && message.to == *a);
                    if on_edge && now >= *from_tick && now < *until_tick {
                        delay += *extra;
                    }
                }
                Fault::CrashStop { .. } | Fault::CrashRecover { .. } => {}
            }
        }
        if delay > Duration::ZERO {
            Verdict::Delay(delay)
        } else {
            Verdict::Deliver
        }
    }
}

/// Aggregate traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Number of messages accepted for delivery.
    pub messages_sent: u64,
    /// Number of messages dropped by the adversary.
    pub messages_dropped: u64,
    /// Total payload bytes accepted for delivery.
    pub bytes_sent: u64,
    /// Accumulated virtual wire time of all deliveries.
    pub total_wire_time: Duration,
    /// Deliveries that found a bounded inbox full and had to wait for the
    /// receiver (backpressure events — the sender stalls instead of queueing
    /// without bound).
    pub inbox_overflows: u64,
    /// Deliveries abandoned because a bounded inbox stayed full past the
    /// backpressure timeout (the overload analogue of an adversarial drop —
    /// anti-entropy repair is what heals whatever state they carried).
    pub overflow_dropped: u64,
}

/// The in-process message-passing network connecting all peers.
pub struct SimNetwork {
    /// Every peer ever registered or counted as a sender: its inbox while
    /// registered, and its traffic counts, which outlive
    /// [`SimNetwork::unregister`] and a later registration.
    endpoints: RwLock<HashMap<PeerId, PeerSlot>>,
    link: LinkModel,
    /// Per-edge link overrides (e.g. WAN links between brokers while clients
    /// stay on the default LAN).  Keyed by the directed `(from, to)` pair;
    /// [`SimNetwork::set_link_between`] installs both directions.
    link_overrides: RwLock<HashMap<(PeerId, PeerId), LinkModel>>,
    adversary: RwLock<Option<Arc<dyn Adversary>>>,
    counts: NetCounts,
    /// How long a delivery into a full bounded inbox waits before dropping,
    /// in nanoseconds.
    backpressure_timeout: AtomicU64,
}

/// One peer's slot in the network.
#[derive(Default)]
struct PeerSlot {
    inbox: Option<Sender<NetMessage>>,
    /// Shared with deliveries in flight, which count after the slot's lock
    /// is released.
    counts: Arc<PeerCounts>,
}

/// A peer's monotone traffic counts.
#[derive(Default)]
struct PeerCounts {
    /// Messages successfully enqueued for the peer.  Paired with a
    /// receiver-side processed counter this gives a race-free quiescence
    /// check (see `BrokerNetwork::converged`): a destination is idle exactly
    /// when it has processed as many messages as were delivered to it.
    delivered: AtomicU64,
    /// Messages shed at the peer's inbox after the backpressure timeout —
    /// the per-peer breakdown of [`NetStats::overflow_dropped`].  Benchmarks
    /// use it to prove a measured row dropped nothing at a specific broker.
    shed: AtomicU64,
    /// Messages successfully enqueued with the peer as **sender**.  The
    /// per-broker load view the backbone experiments need: a full-mesh
    /// origin sends O(N) messages per publish while an epidemic origin sends
    /// O(fanout), which only a sender-side counter can show.
    sent: AtomicU64,
}

/// The counters behind [`NetStats`].
#[derive(Default)]
struct NetCounts {
    messages_sent: AtomicU64,
    messages_dropped: AtomicU64,
    bytes_sent: AtomicU64,
    wire_time: WireTimeAccumulator,
    inbox_overflows: AtomicU64,
    overflow_dropped: AtomicU64,
}

impl NetCounts {
    /// Counts one accepted delivery of `bytes`, charging `wire` of this hop.
    fn delivered(&self, bytes: usize, wire: Duration) {
        self.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
        self.wire_time.add(wire);
    }
}

impl SimNetwork {
    /// Creates a network with the given link model.
    pub fn new(link: LinkModel) -> Arc<Self> {
        Arc::new(SimNetwork {
            endpoints: RwLock::with_class("net.endpoints", HashMap::new()),
            link,
            link_overrides: RwLock::with_class("net.link_overrides", HashMap::new()),
            adversary: RwLock::with_class("net.adversary", None),
            counts: NetCounts::default(),
            backpressure_timeout: AtomicU64::new(DEFAULT_BACKPRESSURE_TIMEOUT.as_nanos() as u64),
        })
    }

    /// The link model used for wire-time accounting.
    pub fn link(&self) -> LinkModel {
        self.link
    }

    /// Installs a dedicated link model for the edge between `a` and `b`
    /// (both directions).  Other pairs keep using the default link.
    pub fn set_link_between(&self, a: PeerId, b: PeerId, link: LinkModel) {
        let mut overrides = self.link_overrides.write();
        overrides.insert((a, b), link);
        overrides.insert((b, a), link);
    }

    /// The link model in effect between `from` and `to`.
    pub fn link_between(&self, from: PeerId, to: PeerId) -> LinkModel {
        self.link_overrides
            .read()
            .get(&(from, to))
            .copied()
            .unwrap_or(self.link)
    }

    /// Registers a peer and returns the receiving end of its inbox.
    ///
    /// Registering an already-registered peer replaces its endpoint (the old
    /// receiver stops getting messages), mirroring a peer that reconnects.
    pub fn register(&self, peer: PeerId) -> Receiver<NetMessage> {
        let (tx, rx) = unbounded();
        self.endpoints.write().entry(peer).or_default().inbox = Some(tx);
        rx
    }

    /// Registers a peer with a **bounded** inbox of at most `capacity`
    /// queued messages.  A delivery that finds the inbox full waits for the
    /// receiver (explicit backpressure, counted in
    /// [`NetStats::inbox_overflows`]); if the inbox is still full after the
    /// backpressure timeout the message is dropped and counted in
    /// [`NetStats::overflow_dropped`] — an overloaded receiver sheds load
    /// instead of growing an unbounded queue.
    pub fn register_bounded(&self, peer: PeerId, capacity: usize) -> Receiver<NetMessage> {
        let (tx, rx) = bounded(capacity);
        self.endpoints.write().entry(peer).or_default().inbox = Some(tx);
        rx
    }

    /// Sets how long a delivery into a full bounded inbox waits for the
    /// receiver before the message is dropped (default
    /// [`DEFAULT_BACKPRESSURE_TIMEOUT`]).  Tests use a tiny timeout to
    /// exercise the shedding path deterministically.
    pub fn set_backpressure_timeout(&self, timeout: Duration) {
        let nanos = u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX);
        self.backpressure_timeout.store(nanos, Ordering::Relaxed);
    }

    /// Removes a peer from the network (it becomes unreachable).  Its
    /// traffic counts stay.
    pub fn unregister(&self, peer: &PeerId) {
        if let Some(slot) = self.endpoints.write().get_mut(peer) {
            slot.inbox = None;
        }
    }

    /// Returns `true` if the peer currently has a registered endpoint.
    pub fn is_registered(&self, peer: &PeerId) -> bool {
        self.endpoints.read().get(peer).is_some_and(|slot| slot.inbox.is_some())
    }

    /// Number of registered peers.
    pub fn peer_count(&self) -> usize {
        self.endpoints.read().values().filter(|slot| slot.inbox.is_some()).count()
    }

    /// Installs (or replaces) the network adversary.
    pub fn set_adversary(&self, adversary: Arc<dyn Adversary>) {
        *self.adversary.write() = Some(adversary);
    }

    /// Removes the adversary.
    pub fn clear_adversary(&self) {
        *self.adversary.write() = None;
    }

    /// Snapshot of the aggregate traffic statistics.  Each field is read
    /// once; a snapshot taken while traffic flows may see a delivery in some
    /// fields and not yet in others.
    pub fn stats(&self) -> NetStats {
        let counts = &self.counts;
        NetStats {
            messages_sent: counts.messages_sent.load(Ordering::Relaxed),
            messages_dropped: counts.messages_dropped.load(Ordering::Relaxed),
            bytes_sent: counts.bytes_sent.load(Ordering::Relaxed),
            total_wire_time: counts.wire_time.total(),
            inbox_overflows: counts.inbox_overflows.load(Ordering::Relaxed),
            overflow_dropped: counts.overflow_dropped.load(Ordering::Relaxed),
        }
    }

    /// Sends `payload` from `from` to `to`.
    ///
    /// Returns the virtual wire time charged for the delivery.  Fails with
    /// [`OverlayError::PeerUnreachable`] if the destination (after possible
    /// adversarial redirection) has no registered endpoint.
    pub fn send(&self, from: PeerId, to: PeerId, payload: Vec<u8>) -> Result<Duration, OverlayError> {
        self.forward(from, to, payload, Duration::ZERO)
    }

    /// Sends `payload` as the next hop of a relayed delivery.
    ///
    /// `carried_wire` is the wire time the message already accumulated on
    /// previous hops; this hop's cost is computed from its own
    /// [`LinkModel`] (see [`SimNetwork::link_between`]) and *added* to it, so
    /// a multi-hop delivery charges every hop separately instead of only the
    /// first one.  The delivered [`NetMessage::wire_time`] and the returned
    /// duration are the cumulative end-to-end wire time; the network's
    /// aggregate [`NetStats`] are charged only this hop (previous hops were
    /// charged when they were sent).
    pub fn forward(
        &self,
        from: PeerId,
        to: PeerId,
        payload: Vec<u8>,
        carried_wire: Duration,
    ) -> Result<Duration, OverlayError> {
        let mut hop_time = self.link_between(from, to).transfer_time(payload.len());
        let wire_time = carried_wire + hop_time;
        let mut message = NetMessage {
            from,
            to,
            payload,
            wire_time,
        };

        let adversary = self.adversary.read().clone();
        if let Some(adv) = &adversary {
            adv.observe(&message);
            match adv.intercept(&message) {
                Verdict::Deliver => {}
                Verdict::Drop => {
                    self.counts.messages_dropped.fetch_add(1, Ordering::Relaxed);
                    // The sender still paid the wire time; the message just
                    // never arrives.
                    return Ok(wire_time);
                }
                Verdict::Redirect(new_to) => message.to = new_to,
                Verdict::Tamper(new_payload) => message.payload = new_payload,
                Verdict::Delay(extra) => {
                    hop_time += extra;
                    message.wire_time += extra;
                }
            }
        }

        if !self.deliver(&message)? {
            // The destination's bounded inbox stayed full past the
            // backpressure timeout: the message was shed (and counted) but
            // the sender still paid the wire time, like an adversarial drop.
            return Ok(message.wire_time);
        }
        // Aggregate accounting is per hop: previous hops of a relayed
        // delivery were already charged when they were sent.
        self.counts.delivered(message.payload.len(), hop_time);

        if let Some(adv) = &adversary {
            for injected in adv.inject(&message) {
                // Injected traffic is delivered on a best-effort basis and
                // counted as ordinary traffic.
                if matches!(self.deliver(&injected), Ok(true)) {
                    self.counts.delivered(injected.payload.len(), injected.wire_time);
                }
            }
        }

        Ok(message.wire_time)
    }

    /// Enqueues `message` at its destination.  Returns `Ok(true)` when it was
    /// delivered, `Ok(false)` when a bounded inbox shed it after the
    /// backpressure timeout, and `Err` when the destination has no endpoint.
    fn deliver(&self, message: &NetMessage) -> Result<bool, OverlayError> {
        let unreachable = || OverlayError::PeerUnreachable(message.to);
        // Clone the inbox and the counts out of the map so a backpressure
        // wait never blocks registrations.
        let (inbox, to, from) = {
            let endpoints = self.endpoints.read();
            let slot = endpoints.get(&message.to).ok_or_else(unreachable)?;
            let inbox = slot.inbox.clone().ok_or_else(unreachable)?;
            let from = endpoints.get(&message.from).map(|slot| Arc::clone(&slot.counts));
            (inbox, Arc::clone(&slot.counts), from)
        };
        match inbox.try_send(message.clone()) {
            Ok(()) => {}
            Err(TrySendError::Disconnected(_)) => return Err(unreachable()),
            Err(TrySendError::Full(queued)) => {
                self.counts.inbox_overflows.fetch_add(1, Ordering::Relaxed);
                let timeout = Duration::from_nanos(self.backpressure_timeout.load(Ordering::Relaxed));
                match inbox.send_timeout(queued, timeout) {
                    Ok(()) => {}
                    Err(SendTimeoutError::Timeout(_)) => {
                        self.counts.overflow_dropped.fetch_add(1, Ordering::Relaxed);
                        to.shed.fetch_add(1, Ordering::Relaxed);
                        return Ok(false);
                    }
                    Err(SendTimeoutError::Disconnected(_)) => return Err(unreachable()),
                }
            }
        }
        // Release pairs with `delivered_to`'s Acquire, as the broker's
        // processed count does with its reader.
        to.delivered.fetch_add(1, Ordering::Release);
        let sent = |counts: &PeerCounts| counts.sent.fetch_add(1, Ordering::Relaxed);
        match from {
            Some(from) => sent(&from),
            // A sender that never registered an inbox gets a slot for its
            // count.
            None => sent(&self.endpoints.write().entry(message.from).or_default().counts),
        };
        Ok(true)
    }

    /// `peer`'s counts, all zero for a peer never registered nor counted.
    fn count(&self, peer: &PeerId, read: impl Fn(&PeerCounts) -> u64) -> u64 {
        self.endpoints.read().get(peer).map_or(0, |slot| read(&slot.counts))
    }

    /// Total messages ever enqueued for `peer` (monotone).
    pub fn delivered_to(&self, peer: &PeerId) -> u64 {
        self.count(peer, |counts| counts.delivered.load(Ordering::Acquire))
    }

    /// Total messages ever shed at `peer`'s bounded inbox after the
    /// backpressure timeout (monotone) — the per-peer view of
    /// [`NetStats::overflow_dropped`].
    pub fn shed_to(&self, peer: &PeerId) -> u64 {
        self.count(peer, |counts| counts.shed.load(Ordering::Relaxed))
    }

    /// Total messages ever successfully sent *by* `peer` (monotone), whether
    /// or not it has an inbox.  Redirected deliveries still count against
    /// the original sender; shed and adversarially dropped messages never
    /// enqueued, so they don't.
    pub fn sent_by(&self, peer: &PeerId) -> u64 {
        self.count(peer, |counts| counts.sent.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxta_crypto::drbg::HmacDrbg;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn peers(n: usize) -> Vec<PeerId> {
        let mut rng = HmacDrbg::from_seed_u64(0x1234);
        (0..n).map(|_| PeerId::random(&mut rng)).collect()
    }

    #[test]
    fn link_model_transfer_time() {
        let ideal = LinkModel::ideal();
        assert_eq!(ideal.transfer_time(1_000_000), Duration::ZERO);

        let link = LinkModel::new(Duration::from_millis(2), 1_000_000);
        assert_eq!(link.transfer_time(0), Duration::from_millis(2));
        assert_eq!(link.transfer_time(1_000_000), Duration::from_millis(1002));
        // Larger payloads cost proportionally more.
        assert!(link.transfer_time(10_000) > link.transfer_time(1_000));
        assert_eq!(LinkModel::default(), LinkModel::lan());
        assert!(LinkModel::wan().latency > LinkModel::lan().latency);
    }

    #[test]
    fn register_send_receive() {
        let net = SimNetwork::new(LinkModel::ideal());
        let ids = peers(2);
        let _rx_a = net.register(ids[0]);
        let rx_b = net.register(ids[1]);
        assert!(net.is_registered(&ids[0]));
        assert_eq!(net.peer_count(), 2);

        net.send(ids[0], ids[1], b"hello".to_vec()).unwrap();
        let msg = rx_b.try_recv().unwrap();
        assert_eq!(msg.from, ids[0]);
        assert_eq!(msg.to, ids[1]);
        assert_eq!(msg.payload, b"hello");
    }

    #[test]
    fn send_to_unknown_peer_fails() {
        let net = SimNetwork::new(LinkModel::lan());
        let ids = peers(2);
        let _rx = net.register(ids[0]);
        assert!(matches!(
            net.send(ids[0], ids[1], b"x".to_vec()),
            Err(OverlayError::PeerUnreachable(_))
        ));
    }

    #[test]
    fn unregister_makes_peer_unreachable() {
        let net = SimNetwork::new(LinkModel::ideal());
        let ids = peers(2);
        let _rx_a = net.register(ids[0]);
        let _rx_b = net.register(ids[1]);
        net.unregister(&ids[1]);
        assert!(!net.is_registered(&ids[1]));
        assert!(net.send(ids[0], ids[1], vec![1]).is_err());
    }

    #[test]
    fn wire_time_matches_link_model() {
        let link = LinkModel::new(Duration::from_millis(5), 1000);
        let net = SimNetwork::new(link);
        let ids = peers(2);
        let _rx_a = net.register(ids[0]);
        let rx_b = net.register(ids[1]);
        let wire = net.send(ids[0], ids[1], vec![0u8; 500]).unwrap();
        assert_eq!(wire, link.transfer_time(500));
        assert_eq!(rx_b.try_recv().unwrap().wire_time, wire);
    }

    #[test]
    fn per_edge_link_overrides_apply_in_both_directions() {
        let lan = LinkModel::new(Duration::from_millis(2), 0);
        let wan = LinkModel::new(Duration::from_millis(40), 0);
        let net = SimNetwork::new(lan);
        let ids = peers(3);
        let _rxs: Vec<_> = ids.iter().map(|id| net.register(*id)).collect();
        net.set_link_between(ids[0], ids[1], wan);

        assert_eq!(net.link_between(ids[0], ids[1]), wan);
        assert_eq!(net.link_between(ids[1], ids[0]), wan);
        assert_eq!(net.link_between(ids[0], ids[2]), lan);

        let wire = net.send(ids[0], ids[1], vec![0u8; 8]).unwrap();
        assert_eq!(wire, Duration::from_millis(40));
        let wire = net.send(ids[0], ids[2], vec![0u8; 8]).unwrap();
        assert_eq!(wire, Duration::from_millis(2));
    }

    #[test]
    fn relayed_forward_charges_every_hop() {
        // A 2-hop relay must charge each hop's LinkModel separately: the
        // delivered wire time is the sum of both links, not just the first.
        let first = LinkModel::new(Duration::from_millis(5), 1000);
        let second = LinkModel::new(Duration::from_millis(7), 500);
        let net = SimNetwork::new(first);
        let ids = peers(3);
        let _rx_a = net.register(ids[0]);
        let rx_b = net.register(ids[1]);
        let rx_c = net.register(ids[2]);
        net.set_link_between(ids[1], ids[2], second);

        let payload = vec![0u8; 100];
        let first_hop = net.send(ids[0], ids[1], payload.clone()).unwrap();
        assert_eq!(first_hop, first.transfer_time(100));
        let relayed = rx_b.try_recv().unwrap();
        let total = net
            .forward(ids[1], ids[2], relayed.payload.clone(), relayed.wire_time)
            .unwrap();
        assert_eq!(
            total,
            first.transfer_time(100) + second.transfer_time(100),
            "2-hop wire time must be the sum of both links"
        );
        assert_eq!(rx_c.try_recv().unwrap().wire_time, total);
        // The aggregate stats are charged per hop, with no double counting.
        assert_eq!(net.stats().total_wire_time, total);
    }

    #[test]
    fn stats_accumulate() {
        let net = SimNetwork::new(LinkModel::ideal());
        let ids = peers(2);
        let _rx_a = net.register(ids[0]);
        let _rx_b = net.register(ids[1]);
        net.send(ids[0], ids[1], vec![0u8; 10]).unwrap();
        net.send(ids[1], ids[0], vec![0u8; 20]).unwrap();
        let stats = net.stats();
        assert_eq!(stats.messages_sent, 2);
        assert_eq!(stats.bytes_sent, 30);
        assert_eq!(stats.messages_dropped, 0);
    }

    struct DropAll;
    impl Adversary for DropAll {
        fn intercept(&self, _m: &NetMessage) -> Verdict {
            Verdict::Drop
        }
    }

    #[test]
    fn adversary_can_drop_messages() {
        let net = SimNetwork::new(LinkModel::ideal());
        let ids = peers(2);
        let _rx_a = net.register(ids[0]);
        let rx_b = net.register(ids[1]);
        net.set_adversary(Arc::new(DropAll));
        net.send(ids[0], ids[1], vec![1, 2, 3]).unwrap();
        assert!(rx_b.try_recv().is_err());
        assert_eq!(net.stats().messages_dropped, 1);
        net.clear_adversary();
        net.send(ids[0], ids[1], vec![1]).unwrap();
        assert!(rx_b.try_recv().is_ok());
    }

    struct RedirectTo(PeerId);
    impl Adversary for RedirectTo {
        fn intercept(&self, _m: &NetMessage) -> Verdict {
            Verdict::Redirect(self.0)
        }
    }

    #[test]
    fn adversary_can_redirect_messages() {
        let net = SimNetwork::new(LinkModel::ideal());
        let ids = peers(3);
        let _rx_a = net.register(ids[0]);
        let rx_b = net.register(ids[1]);
        let rx_c = net.register(ids[2]);
        net.set_adversary(Arc::new(RedirectTo(ids[2])));
        net.send(ids[0], ids[1], b"for b".to_vec()).unwrap();
        assert!(rx_b.try_recv().is_err(), "original destination starves");
        let got = rx_c.try_recv().unwrap();
        assert_eq!(got.payload, b"for b");
    }

    struct CountingObserver(AtomicUsize);
    impl Adversary for CountingObserver {
        fn observe(&self, _m: &NetMessage) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn adversary_observes_every_message() {
        let net = SimNetwork::new(LinkModel::ideal());
        let ids = peers(2);
        let _rx_a = net.register(ids[0]);
        let _rx_b = net.register(ids[1]);
        let observer = Arc::new(CountingObserver(AtomicUsize::new(0)));
        net.set_adversary(observer.clone());
        for _ in 0..5 {
            net.send(ids[0], ids[1], vec![0u8; 8]).unwrap();
        }
        assert_eq!(observer.0.load(Ordering::SeqCst), 5);
    }

    struct Replayer;
    impl Adversary for Replayer {
        fn inject(&self, message: &NetMessage) -> Vec<NetMessage> {
            vec![message.clone()]
        }
    }

    #[test]
    fn adversary_can_inject_replays() {
        let net = SimNetwork::new(LinkModel::ideal());
        let ids = peers(2);
        let _rx_a = net.register(ids[0]);
        let rx_b = net.register(ids[1]);
        net.set_adversary(Arc::new(Replayer));
        net.send(ids[0], ids[1], b"once".to_vec()).unwrap();
        // The original plus one replay.
        assert_eq!(rx_b.try_iter().count(), 2);
        assert_eq!(net.stats().messages_sent, 2);
    }

    struct Tamperer;
    impl Adversary for Tamperer {
        fn intercept(&self, _m: &NetMessage) -> Verdict {
            Verdict::Tamper(b"forged".to_vec())
        }
    }

    #[test]
    fn adversary_can_tamper_payloads() {
        let net = SimNetwork::new(LinkModel::ideal());
        let ids = peers(2);
        let _rx_a = net.register(ids[0]);
        let rx_b = net.register(ids[1]);
        net.set_adversary(Arc::new(Tamperer));
        net.send(ids[0], ids[1], b"original".to_vec()).unwrap();
        assert_eq!(rx_b.try_recv().unwrap().payload, b"forged");
    }

    #[test]
    fn random_drop_is_deterministic_and_scoped() {
        let net = SimNetwork::new(LinkModel::ideal());
        let ids = peers(3);
        let _rx_a = net.register(ids[0]);
        let rx_b = net.register(ids[1]);
        let rx_c = net.register(ids[2]);
        net.set_adversary(RandomDrop::between(7, 100, vec![ids[0], ids[1]]));
        net.send(ids[0], ids[1], vec![1]).unwrap(); // in scope: dropped
        net.send(ids[0], ids[2], vec![2]).unwrap(); // out of scope: delivered
        assert!(rx_b.try_recv().is_err());
        assert!(rx_c.try_recv().is_ok());

        // Same seed, same decisions — runs reproduce exactly.
        let msg = NetMessage {
            from: ids[0],
            to: ids[1],
            payload: Vec::new(),
            wire_time: Duration::ZERO,
        };
        let a = RandomDrop::new(42, 50);
        let b = RandomDrop::new(42, 50);
        for _ in 0..32 {
            assert_eq!(a.intercept(&msg), b.intercept(&msg));
        }
        assert_eq!(a.dropped_count(), b.dropped_count());
        assert_eq!(RandomDrop::new(1, 0).intercept(&msg), Verdict::Deliver);
    }

    #[test]
    fn bounded_inbox_applies_backpressure_then_sheds() {
        let net = SimNetwork::new(LinkModel::ideal());
        let ids = peers(2);
        let _rx_a = net.register(ids[0]);
        let rx_b = net.register_bounded(ids[1], 2);
        net.set_backpressure_timeout(Duration::from_millis(5));

        net.send(ids[0], ids[1], vec![1]).unwrap();
        net.send(ids[0], ids[1], vec![2]).unwrap();
        assert_eq!(net.stats().inbox_overflows, 0);

        // Third delivery finds the inbox full; nobody drains it, so after
        // the backpressure timeout the message is shed (not an error).
        net.send(ids[0], ids[1], vec![3]).unwrap();
        let stats = net.stats();
        assert_eq!(stats.inbox_overflows, 1);
        assert_eq!(stats.overflow_dropped, 1);
        assert_eq!(stats.messages_sent, 2, "the shed message was never counted as sent");
        assert_eq!(net.delivered_to(&ids[1]), 2, "nor as delivered");
        assert_eq!(net.shed_to(&ids[1]), 1, "the shed is attributed to its destination");
        assert_eq!(net.shed_to(&ids[0]), 0);

        // Draining makes room; deliveries resume without further overflow.
        assert_eq!(rx_b.try_iter().count(), 2);
        net.send(ids[0], ids[1], vec![4]).unwrap();
        assert_eq!(net.stats().overflow_dropped, 1);
        assert_eq!(rx_b.try_recv().unwrap().payload, vec![4]);
    }

    #[test]
    fn bounded_inbox_backpressure_waits_for_a_live_consumer() {
        let net = SimNetwork::new(LinkModel::ideal());
        let ids = peers(2);
        let _rx_a = net.register(ids[0]);
        let rx_b = net.register_bounded(ids[1], 1);
        net.send(ids[0], ids[1], vec![1]).unwrap();

        // A consumer drains concurrently: the overflowing delivery blocks
        // briefly (counted as an overflow) and then lands — nothing is lost.
        let net2 = Arc::clone(&net);
        let from = ids[0];
        let to = ids[1];
        crossbeam::thread::scope(|s| {
            s.spawn(move |_| net2.send(from, to, vec![2]).unwrap());
            let mut got = Vec::new();
            while got.len() < 2 {
                if let Ok(message) = rx_b.recv_timeout(Duration::from_secs(2)) {
                    got.push(message.payload[0]);
                }
            }
            assert_eq!(got, vec![1, 2], "per-sender FIFO order survives backpressure");
        })
        .unwrap();
        assert_eq!(net.stats().overflow_dropped, 0);
    }

    #[test]
    fn reregistering_replaces_endpoint() {
        let net = SimNetwork::new(LinkModel::ideal());
        let ids = peers(3);
        let _rx_a = net.register(ids[0]);
        let rx_old = net.register(ids[1]);
        let rx_new = net.register(ids[1]);
        assert_eq!(net.peer_count(), 2);
        net.send(ids[0], ids[1], vec![7]).unwrap();
        assert!(rx_old.try_recv().is_err());
        assert!(rx_new.try_recv().is_ok());

        // The per-peer counts are monotone: unregistering and registering
        // again neither resets nor loses them.
        let counts = |peer: &PeerId| (net.delivered_to(peer), net.shed_to(peer), net.sent_by(peer));
        assert_eq!((counts(&ids[0]), counts(&ids[1])), ((0, 0, 1), (1, 0, 0)));
        net.set_backpressure_timeout(Duration::from_millis(1));
        let _rx_bounded = net.register_bounded(ids[1], 1);
        net.send(ids[0], ids[1], vec![8]).unwrap();
        net.send(ids[0], ids[1], vec![9]).unwrap(); // the inbox is full: shed
        assert_eq!(counts(&ids[1]), (2, 1, 0));
        net.unregister(&ids[1]);
        assert!(!net.is_registered(&ids[1]));
        assert_eq!(net.peer_count(), 1);
        assert_eq!(counts(&ids[1]), (2, 1, 0), "unregistering keeps the counts");
        net.send(ids[1], ids[0], vec![10]).unwrap();
        assert_eq!(counts(&ids[1]), (2, 1, 1), "an unregistered peer's sends count");
        let rx_again = net.register(ids[1]);
        assert_eq!(counts(&ids[1]), (2, 1, 1), "registering again keeps the counts");
        net.send(ids[0], ids[1], vec![11]).unwrap();
        assert_eq!(rx_again.try_recv().unwrap().payload, vec![11]);
        assert_eq!(counts(&ids[1]), (3, 1, 1));
        assert_eq!(counts(&ids[0]), (1, 0, 3), "the shed message was never sent");

        // A sender that never registered an inbox is counted, and stays
        // unregistered.
        net.send(ids[2], ids[0], vec![12]).unwrap();
        assert_eq!(counts(&ids[2]), (0, 0, 1));
        assert!(!net.is_registered(&ids[2]));
        assert_eq!(net.peer_count(), 2);
        assert!(net.send(ids[0], ids[2], vec![13]).is_err(), "a counted sender has no inbox");
    }

    #[test]
    fn concurrent_sends_from_many_threads() {
        let net = SimNetwork::new(LinkModel::ideal());
        let ids = peers(5);
        let receivers: Vec<_> = ids.iter().map(|id| net.register(*id)).collect();
        let net2 = Arc::clone(&net);
        crossbeam::thread::scope(|s| {
            for (i, &from) in ids.iter().enumerate() {
                let net = Arc::clone(&net2);
                let targets = ids.clone();
                s.spawn(move |_| {
                    for (j, &to) in targets.iter().enumerate() {
                        if i != j {
                            net.send(from, to, vec![i as u8, j as u8]).unwrap();
                        }
                    }
                });
            }
        })
        .unwrap();
        let total: usize = receivers.iter().map(|r| r.try_iter().count()).sum();
        assert_eq!(total, 5 * 4);
        assert_eq!(net.stats().messages_sent, 20);
    }

    #[test]
    fn fault_plan_crash_windows() {
        let ids = peers(2);
        let plan = FaultPlan::new(1)
            .crash_stop(ids[0], 3)
            .crash_recover(ids[1], 2, 4)
            .into_adversary();
        // tick 0..=2: the crash-stop peer is up; the crash-recover peer goes
        // dark at 2 and returns at 6, the crash-stop peer never returns.
        assert!(!plan.is_crashed(&ids[0]));
        assert!(!plan.is_crashed(&ids[1]));
        for _ in 0..2 {
            plan.advance_tick();
        }
        assert_eq!(plan.tick(), 2);
        assert!(!plan.is_crashed(&ids[0]));
        assert!(plan.is_crashed(&ids[1]));
        for _ in 0..4 {
            plan.advance_tick();
        }
        assert_eq!(plan.tick(), 6);
        assert!(plan.is_crashed(&ids[0]), "crash-stop is permanent");
        assert!(!plan.is_crashed(&ids[1]), "crash-recover returns");
    }

    #[test]
    fn fault_plan_crashed_peer_sends_and_receives_nothing() {
        let net = SimNetwork::new(LinkModel::ideal());
        let ids = peers(3);
        let rx: Vec<_> = ids.iter().map(|id| net.register(*id)).collect();
        let plan = FaultPlan::new(2).crash_stop(ids[0], 1).into_adversary();
        net.set_adversary(plan.clone());

        net.send(ids[0], ids[1], vec![1]).unwrap();
        assert!(rx[1].try_recv().is_ok(), "not crashed yet at tick 0");
        plan.advance_tick();
        net.send(ids[0], ids[1], vec![2]).unwrap();
        net.send(ids[1], ids[0], vec![3]).unwrap();
        net.send(ids[1], ids[2], vec![4]).unwrap();
        assert!(rx[1].try_recv().is_err(), "outbound from the crashed peer dropped");
        assert!(rx[0].try_recv().is_err(), "inbound to the crashed peer dropped");
        assert_eq!(rx[2].try_recv().unwrap().payload, vec![4], "third parties unaffected");
        assert_eq!(plan.dropped_count(), 2);
    }

    #[test]
    fn fault_plan_one_way_partition_drops_only_that_direction() {
        let net = SimNetwork::new(LinkModel::ideal());
        let ids = peers(2);
        let rx: Vec<_> = ids.iter().map(|id| net.register(*id)).collect();
        let plan = FaultPlan::new(3)
            .partition_one_way(ids[0], ids[1], 0, 2)
            .into_adversary();
        net.set_adversary(plan.clone());

        net.send(ids[0], ids[1], vec![1]).unwrap();
        net.send(ids[1], ids[0], vec![2]).unwrap();
        assert!(rx[1].try_recv().is_err(), "partitioned direction dropped");
        assert_eq!(rx[0].try_recv().unwrap().payload, vec![2], "reverse direction flows");

        plan.advance_tick();
        plan.advance_tick();
        net.send(ids[0], ids[1], vec![3]).unwrap();
        assert_eq!(
            rx[1].try_recv().unwrap().payload,
            vec![3],
            "the window is half-open: tick 2 is already healed"
        );
    }

    #[test]
    fn fault_plan_flaky_link_is_seeded_and_deterministic() {
        let ids = peers(3);
        let run = |seed: u64| {
            let net = SimNetwork::new(LinkModel::ideal());
            let rx: Vec<_> = ids.iter().map(|id| net.register(*id)).collect();
            let plan = FaultPlan::new(seed).flaky_link(ids[0], ids[1], 40).into_adversary();
            net.set_adversary(plan.clone());
            let mut delivered = Vec::new();
            for i in 0..50u8 {
                net.send(ids[0], ids[1], vec![i]).unwrap();
                net.send(ids[1], ids[0], vec![i]).unwrap();
                net.send(ids[0], ids[2], vec![i]).unwrap();
            }
            delivered.push(rx[1].try_iter().count());
            delivered.push(rx[0].try_iter().count());
            delivered.push(rx[2].try_iter().count());
            (delivered, plan.dropped_count())
        };
        let (first, first_drops) = run(0xF1A5);
        let (again, again_drops) = run(0xF1A5);
        assert_eq!(first, again, "same seed, same drops");
        assert_eq!(first_drops, again_drops);
        assert!(first_drops > 0, "a 40% link does drop");
        assert!(first[0] < 50, "the flaky edge lost traffic");
        assert!(first[1] < 50, "the flaky edge is bidirectional");
        assert_eq!(first[2], 50, "the off-edge traffic is untouched");
        let (other, _) = run(0x0DD5);
        assert_ne!(first, other, "a different seed draws a different stream");
    }

    #[test]
    fn fault_plan_latency_spike_stretches_wire_time() {
        let base = LinkModel::new(Duration::from_millis(2), 0);
        let net = SimNetwork::new(base);
        let ids = peers(2);
        let _rx_a = net.register(ids[0]);
        let rx_b = net.register(ids[1]);
        let extra = Duration::from_millis(75);
        let plan = FaultPlan::new(4)
            .latency_spike(ids[0], ids[1], extra, 0, 1)
            .into_adversary();
        net.set_adversary(plan.clone());

        let spiked = net.send(ids[0], ids[1], vec![0u8; 8]).unwrap();
        assert_eq!(spiked, Duration::from_millis(2) + extra);
        assert_eq!(rx_b.try_recv().unwrap().wire_time, spiked);

        plan.advance_tick();
        let healed = net.send(ids[0], ids[1], vec![0u8; 8]).unwrap();
        assert_eq!(healed, Duration::from_millis(2), "the spike window closed");
    }
}
