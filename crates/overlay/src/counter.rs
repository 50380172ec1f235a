//! Wire counters (sequence numbers, presence versions, SWIM incarnations):
//! a received one parses only below 2^63, and whatever a broker derives from
//! it — its [`SyncClock`], a presence version floored above it, a SWIM
//! refutation — credits it with at most 2^62.  So every counter a broker
//! sends is below 2^62 plus its own increments and parses on every peer; a
//! forged one can neither overflow a local increment nor push the broker's
//! output out of range.  (It can still pin a last-writer-wins register above
//! 2^62: Byzantine brokers are outside the overlay's threat model.)

use std::sync::atomic::{AtomicU64, Ordering};

/// Received counters at or above this are rejected.
const CEILING: u64 = 1 << 63;
/// The most a received counter counts for in anything derived from it.
const MERGE_CAP: u64 = 1 << 62;

/// Parses a received counter: `None` when unparseable or not below 2^63.
pub(crate) fn parse(text: &str) -> Option<u64> {
    text.parse::<u64>().ok().and_then(received)
}

/// A received binary counter: `None` when not below 2^63.
pub(crate) fn received(value: u64) -> Option<u64> {
    (value < CEILING).then_some(value)
}

/// `own` pulled up to a received counter `seen`, credited with at most 2^62.
pub(crate) fn merge(own: u64, seen: u64) -> u64 {
    own.max(seen.min(MERGE_CAP))
}

/// One above both `own` and a received `seen` (see [`merge`]).
pub(crate) fn above(own: u64, seen: u64) -> u64 {
    merge(own, seen) + 1
}

/// What a received accusation at `seen` counts for against a member known
/// at `known`: at most `known` or 2^62, whichever is higher, so the accused's
/// [`above`] answer outranks it however high it was forged.
pub(crate) fn credit(seen: u64, known: u64) -> u64 {
    seen.min(known.max(MERGE_CAP))
}

/// The broker's Lamport clock: the sequence number stamped on outgoing
/// inter-broker messages, which doubles as the version of local writes.
#[derive(Default)]
pub(crate) struct SyncClock(AtomicU64);

impl SyncClock {
    /// Allocates the next sequence number.
    pub(crate) fn next(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Pulls the clock up to a received sequence number (see [`merge`]), so
    /// later local writes version-dominate every write already seen.
    pub(crate) fn observe(&self, seq: u64) {
        self.0.fetch_max(seq.min(MERGE_CAP), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nothing derived from any parseable counter reaches the ceiling, so
    /// it parses on the receiving side.
    #[test]
    fn forged_counter_answers_parse_on_every_peer() {
        for seen in [0, 5, MERGE_CAP - 1, MERGE_CAP, MERGE_CAP + 1, CEILING - 1] {
            assert_eq!(parse(&seen.to_string()), Some(seen));
            let clock = SyncClock::default();
            clock.observe(seen);
            for answer in [clock.next(), above(0, seen), above(5, seen)] {
                assert_eq!(parse(&answer.to_string()), Some(answer), "answer to {seen}");
            }
        }
        assert_eq!(parse(&CEILING.to_string()), None);
        assert_eq!(parse(&u64::MAX.to_string()), None);
    }

    /// Below the cap the rules are the plain Lamport ones; above it an
    /// answer still outranks whatever an accusation is credited with.
    #[test]
    fn forged_counter_answers_outrank_their_credit() {
        assert_eq!((merge(3, 9), above(3, 9), credit(9, 3)), (9, 10, 9));
        assert_eq!(above(9, 3), 10);
        let mut own = 0;
        for _ in 0..3 {
            let accusation = credit(CEILING - 1, own);
            own = above(own, CEILING - 1);
            assert!(own > accusation && own <= MERGE_CAP + 3);
        }
    }
}
