//! A simulated JXTA-Overlay middleware.
//!
//! JXTA-Overlay (Xhafa et al., NBiS 2007) is a middleware on top of the JXTA
//! protocol suite that gives P2P application developers a set of *primitives*
//! (client side) and *functions* (broker side) covering network join, group
//! management, presence, file sharing and direct messaging.  The original
//! implementation is Java on top of Sun's JXTA stack; since JXTA is no longer
//! available, this crate rebuilds the pieces the security extension needs as
//! an in-process simulator:
//!
//! * [`net`] — the message-passing substrate: peers register endpoints with a
//!   [`net::SimNetwork`], messages are delivered over crossbeam channels, and
//!   a configurable [`net::LinkModel`] charges per-message latency and
//!   per-byte bandwidth cost as *virtual wire time* (wall-clock stays the cost
//!   of real computation, so experiments can separate CPU from network as the
//!   paper's Figure 2 discussion does).  Adversaries can be attached to the
//!   network to eavesdrop, drop, redirect or replay traffic.
//! * [`message`] — JXTA-style messages: a kind plus a set of named binary
//!   elements, with a compact binary wire encoding; [`record`] — the binary
//!   records bulk backbone messages carry their entries in.
//! * [`advertisement`] — XML advertisements (peer, pipe, file, presence,
//!   statistics) built on [`jxta_xmldoc`], the metadata documents that peers
//!   periodically broadcast for every group they belong to.
//! * [`database`] — the central user database that only brokers may access:
//!   usernames, salted password verifiers and group membership.
//! * [`broker`] — the Broker Module: end-user authentication, the global
//!   resource index, advertisement distribution and group publication.
//! * [`client`] — the Client Module: the primitives applications invoke
//!   (`connect`, `login`, `sendMsgPeer`, `sendMsgPeerGroup`, file publication,
//!   presence) and the event stream produced by incoming messages.
//! * [`group`] — overlapping peer groups and membership bookkeeping.
//! * [`federation`] — the broker backbone: broker interconnection (the known
//!   peer set every broker admits traffic from), gossip-based replication of
//!   the index/membership/routing state, and cross-broker relaying of client
//!   payloads.
//! * [`membership`] — symmetric active views derived from the known live
//!   peer set: a bounded view that caps every broker's routing degree, holds
//!   each edge at both ends and pins the ring successor, keeping the overlay
//!   provably connected; a death heals by recomputation.  Small federations
//!   keep complete views (the full-mesh behaviour);
//!   [`broker::BrokerConfig::with_full_mesh`] pins it.
//! * [`plumtree`] — Plumtree-style dissemination over the active view: eager
//!   push along a self-repairing spanning tree, lazy `IHave` digests on the
//!   remaining active edges, `Graft`/`Prune` tree repair, with anti-entropy
//!   as the last-resort safety net.
//! * [`swim`] — SWIM-style failure detection over the same fabric: per-tick
//!   direct probes with indirect fan-out on timeout, an
//!   `Alive → Suspect → Dead` state machine with incarnation-numbered
//!   refutation, and a Lifeguard local-health multiplier.  Confirmed deaths
//!   feed the membership view and Plumtree edges automatically.
//! * [`shard`] — the consistent-hash ring that partitions the advertisement
//!   index and group membership across K replica brokers instead of fully
//!   replicating them (the peer→home-broker routing table stays fully
//!   replicated: it is small and hot).
//! * [`metrics`] — CPU/wire time accounting used by the benchmark harness,
//!   plus the federation activity counters.
//!
//! The plain primitives implemented here intentionally have **no security**:
//! passwords travel in the clear, advertisements are unsigned, and the broker
//! is never authenticated.  That is the baseline the paper measures against;
//! the `jxta-overlay-secure` crate adds the secure counterparts on top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advertisement;
mod antientropy;
pub mod broker;
pub mod client;
pub mod clock;
mod counter;
pub mod database;
mod endpoint;
pub mod error;
mod fabric;
pub mod federation;
pub mod group;
pub mod id;
mod lookup;
pub mod membership;
pub mod message;
pub mod metrics;
pub mod net;
pub mod plumtree;
pub mod record;
mod repair;
mod replica;
pub mod shard;
pub mod swim;

pub use broker::{Broker, BrokerConfig, BrokerHandle};
pub use federation::BrokerNetwork;
pub use client::{ClientConfig, ClientEvent, ClientPeer};
pub use database::UserDatabase;
pub use error::OverlayError;
pub use group::GroupId;
pub use id::PeerId;
pub use message::{Message, MessageKind};
pub use metrics::OperationTiming;
pub use net::{LinkModel, SimNetwork};
