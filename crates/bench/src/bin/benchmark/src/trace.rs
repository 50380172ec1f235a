//! The traced run's instruments, all on the benchmark side of the public
//! API: a wire tap on the simulated network, call spans around the public
//! calls a workload makes, and a bounded log of both written out at exit.
//!
//! Nothing here reaches into the program: the tap is a
//! [`jxta_overlay::net::Adversary`] that only observes (and delegates to the
//! workload's own adversary, so delivery is unchanged), and spans wrap calls
//! the workload makes anyway.  Every time is read on the run's
//! [`Clock`], in scaled seconds.

use crate::clock::Clock;
use jxta_overlay::net::{Adversary, NetMessage, Verdict};
use jxta_overlay::{MessageKind, PeerId};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Raw spans and wire records kept for the trace file; aggregates keep
/// counting past it.
const LOG_CAPACITY: usize = 100_000;

/// Byte offset of the kind in the wire layout of `Message::to_bytes`
/// (after the `"JXMS"` magic), and of the request id (after kind and the
/// 16-byte sender).
const KIND_OFFSET: usize = 4;
const REQUEST_ID_OFFSET: usize = 5 + jxta_overlay::id::PEER_ID_LEN;

/// Reads kind and request id from a serialised message's header without
/// decoding its elements (the tap runs on every send).
pub fn peek_header(payload: &[u8]) -> Option<(MessageKind, u64)> {
    let kind = MessageKind::from_u8(*payload.get(KIND_OFFSET)?)?;
    let id = payload.get(REQUEST_ID_OFFSET..REQUEST_ID_OFFSET + 8)?;
    Some((kind, u64::from_be_bytes(id.try_into().ok()?)))
}

/// Per message kind: sends seen by the tap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindTotals {
    /// Sends (delivered or dropped).
    pub count: u64,
    /// Sends the delegated adversary dropped.
    pub dropped: u64,
}

/// Broker service time of one request kind: from the request's send to the
/// broker's reply send, both seen on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceTotals {
    /// Request/reply pairs matched.
    pub count: u64,
    /// Summed service time, in scaled seconds.
    pub total: f64,
}

struct WireRecord {
    at: f64,
    op: u64,
    from: PeerId,
    to: PeerId,
    kind: MessageKind,
    bytes: usize,
    dropped: bool,
}

struct SpanRecord {
    name: &'static str,
    kind: Option<MessageKind>,
    parent: u64,
    start: f64,
    duration: f64,
}

#[derive(Default)]
struct WireState {
    kinds: BTreeMap<u8, KindTotals>,
    /// Requests awaiting the broker's reply: (requester, request id) →
    /// (send time, request kind).
    pending: HashMap<(PeerId, u64), (f64, MessageKind)>,
    service: BTreeMap<u8, ServiceTotals>,
    log: Vec<WireRecord>,
    log_overflow: u64,
}

#[derive(Default)]
struct SpanState {
    totals: BTreeMap<&'static str, (u64, f64)>,
    log: Vec<SpanRecord>,
    log_overflow: u64,
}

/// Collects wire records and spans while armed (the timed phase).
pub struct Tracer {
    clock: Arc<Clock>,
    armed: AtomicBool,
    current_op: AtomicU64,
    brokers: Vec<PeerId>,
    wire: Mutex<WireState>,
    spans: Mutex<SpanState>,
}

impl Tracer {
    /// A tracer reading `clock`, for a deployment whose broker identifiers
    /// are `brokers` (what tells a client request from peer or backbone
    /// traffic).
    pub fn new(clock: Arc<Clock>, brokers: Vec<PeerId>) -> Arc<Self> {
        Arc::new(Tracer {
            clock,
            armed: AtomicBool::new(false),
            current_op: AtomicU64::new(0),
            brokers,
            wire: Mutex::with_class("bench.trace.wire", WireState::default()),
            spans: Mutex::with_class("bench.trace.spans", SpanState::default()),
        })
    }

    /// Starts or stops recording (warm-up and checks are not recorded).
    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::SeqCst);
    }

    fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Declares the operation the generator is running: wire records and
    /// spans until the next call are attributed to it.
    pub fn set_op(&self, op: u64) {
        self.current_op.store(op, Ordering::Relaxed);
    }

    /// Reads the clock: the start of a span.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Records a span named `name` (optionally per message kind) that
    /// started at `start` (a reading of [`Tracer::now`]) and ends now, under
    /// the current operation.
    pub fn span(&self, name: &'static str, kind: Option<MessageKind>, start: f64) {
        if !self.armed() {
            return;
        }
        let duration = self.clock.now() - start;
        let record = SpanRecord {
            name,
            kind,
            parent: self.current_op.load(Ordering::Relaxed),
            start,
            duration,
        };
        let mut spans = self.spans.lock();
        let total = spans.totals.entry(name).or_default();
        total.0 += 1;
        total.1 += duration;
        if spans.log.len() < LOG_CAPACITY {
            spans.log.push(record);
        } else {
            spans.log_overflow += 1;
        }
    }

    /// Runs `f` inside a span when a tracer is present.
    pub fn call<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
        match tracer {
            None => f(),
            Some(tracer) => {
                let start = tracer.now();
                let result = f();
                tracer.span(name, None, start);
                result
            }
        }
    }

    /// Count and summed duration (scaled seconds) of the spans named `name`.
    pub fn span_totals(&self, name: &str) -> (u64, f64) {
        self.spans
            .lock()
            .totals
            .get(name)
            .copied()
            .unwrap_or_default()
    }

    /// Sends of `kind` the tap saw.
    pub fn kind_totals(&self, kind: MessageKind) -> KindTotals {
        self.wire
            .lock()
            .kinds
            .get(&(kind as u8))
            .copied()
            .unwrap_or_default()
    }

    /// Sends of every kind the tap saw.
    pub fn all_kinds(&self) -> KindTotals {
        self.wire
            .lock()
            .kinds
            .values()
            .fold(KindTotals::default(), |a, k| KindTotals {
                count: a.count + k.count,
                dropped: a.dropped + k.dropped,
            })
    }

    /// Broker service time of requests of `kind`.
    pub fn service(&self, kind: MessageKind) -> ServiceTotals {
        self.wire
            .lock()
            .service
            .get(&(kind as u8))
            .copied()
            .unwrap_or_default()
    }

    /// Broker service time summed over every request kind.
    pub fn all_service(&self) -> ServiceTotals {
        self.wire
            .lock()
            .service
            .values()
            .fold(ServiceTotals::default(), |a, s| ServiceTotals {
                count: a.count + s.count,
                total: a.total + s.total,
            })
    }

    fn record_send(&self, message: &NetMessage, dropped: bool) {
        if !self.armed() {
            return;
        }
        let Some((kind, request_id)) = peek_header(&message.payload) else {
            return;
        };
        let at = self.clock.now();
        let op = self.current_op.load(Ordering::Relaxed);
        let mut wire = self.wire.lock();
        let totals = wire.kinds.entry(kind as u8).or_default();
        totals.count += 1;
        totals.dropped += u64::from(dropped);
        let to_broker = self.brokers.contains(&message.to);
        let from_broker = self.brokers.contains(&message.from);
        if request_id != 0 && to_broker && !from_broker {
            wire.pending.insert((message.from, request_id), (at, kind));
        } else if request_id != 0 && from_broker && !to_broker {
            if let Some((sent, request)) = wire.pending.remove(&(message.to, request_id)) {
                let service = wire.service.entry(request as u8).or_default();
                service.count += 1;
                service.total += at - sent;
            }
        }
        if wire.log.len() < LOG_CAPACITY {
            wire.log.push(WireRecord {
                at,
                op,
                from: message.from,
                to: message.to,
                kind,
                bytes: message.payload.len(),
                dropped,
            });
        } else {
            wire.log_overflow += 1;
        }
    }

    /// Serialises the logs as the trace file's JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let us = |seconds: f64| seconds * 1e6;
        let short = |id: &PeerId| {
            id.as_bytes()[..4].iter().fold(String::new(), |mut s, b| {
                let _ = write!(s, "{b:02x}");
                s
            })
        };
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [");
        let spans = self.spans.lock();
        for (i, span) in spans.log.iter().enumerate() {
            let kind = span.kind.map(|k| format!("{k:?}")).unwrap_or_default();
            let _ = write!(
                out,
                "{}\n{{\"name\": \"{}\", \"kind\": \"{kind}\", \"parent\": {}, \"start_us\": {:.3}, \"dur_us\": {:.3}}}",
                if i == 0 { "" } else { "," },
                span.name,
                span.parent,
                us(span.start),
                us(span.duration)
            );
        }
        let _ = write!(
            out,
            "], \"spans_dropped\": {}, \"wire\": [",
            spans.log_overflow
        );
        drop(spans);
        let wire = self.wire.lock();
        for (i, record) in wire.log.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n{{\"t_us\": {:.3}, \"op\": {}, \"from\": \"{}\", \"to\": \"{}\", \"kind\": \"{:?}\", \"bytes\": {}, \"verdict\": \"{}\"}}",
                if i == 0 { "" } else { "," },
                us(record.at),
                record.op,
                short(&record.from),
                short(&record.to),
                record.kind,
                record.bytes,
                if record.dropped { "drop" } else { "deliver" }
            );
        }
        let _ = writeln!(out, "], \"wire_dropped\": {}}}", wire.log_overflow);
        out
    }
}

/// The wire tap: records every send and otherwise behaves exactly like the
/// adversary it wraps (or like no adversary at all).
pub struct Tap {
    tracer: Arc<Tracer>,
    inner: Option<Arc<dyn Adversary>>,
}

impl Tap {
    /// Installs a tap in front of `inner` (the workload's own adversary).
    pub fn new(tracer: Arc<Tracer>, inner: Option<Arc<dyn Adversary>>) -> Arc<Self> {
        Arc::new(Tap { tracer, inner })
    }
}

impl Adversary for Tap {
    fn observe(&self, message: &NetMessage) {
        if let Some(inner) = &self.inner {
            inner.observe(message);
        }
    }

    fn intercept(&self, message: &NetMessage) -> Verdict {
        let verdict = match &self.inner {
            Some(inner) => inner.intercept(message),
            None => Verdict::Deliver,
        };
        self.tracer.record_send(message, verdict == Verdict::Drop);
        verdict
    }

    fn inject(&self, message: &NetMessage) -> Vec<NetMessage> {
        match &self.inner {
            Some(inner) => inner.inject(message),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxta_crypto::drbg::HmacDrbg;
    use jxta_overlay::Message;
    use std::time::Duration;

    #[test]
    fn header_peek_matches_the_encoder() {
        let mut rng = HmacDrbg::from_seed_u64(1);
        let sender = PeerId::random(&mut rng);
        let bytes = Message::new(MessageKind::LookupRequest, sender, 0xDEAD_BEEF)
            .with_str("group", "g")
            .to_bytes();
        assert_eq!(
            peek_header(&bytes),
            Some((MessageKind::LookupRequest, 0xDEAD_BEEF))
        );
        assert_eq!(peek_header(&bytes[..10]), None);
    }

    #[test]
    fn tap_pairs_requests_with_broker_replies() {
        let mut rng = HmacDrbg::from_seed_u64(2);
        let (client, broker) = (PeerId::random(&mut rng), PeerId::random(&mut rng));
        let tracer = Tracer::new(Arc::new(Clock::new()), vec![broker]);
        let tap = Tap::new(Arc::clone(&tracer), None);
        let send = |from, to, kind, id| {
            let payload = Message::new(kind, from, id).to_bytes();
            let message = NetMessage {
                from,
                to,
                payload,
                wire_time: Duration::ZERO,
            };
            assert_eq!(tap.intercept(&message), Verdict::Deliver);
        };
        send(client, broker, MessageKind::LookupRequest, 1); // not armed yet
        tracer.arm(true);
        send(client, broker, MessageKind::LookupRequest, 2);
        send(broker, client, MessageKind::AdvertisementPush, 0);
        send(broker, client, MessageKind::LookupResponse, 2);
        assert_eq!(tracer.service(MessageKind::LookupRequest).count, 1);
        assert_eq!(tracer.kind_totals(MessageKind::LookupRequest).count, 1);
        assert_eq!(tracer.all_kinds().count, 3);
    }
}
