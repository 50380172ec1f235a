//! The benchmark's clock: wall time rescaled to the host's full speed.
//!
//! The reference host is a 2-vCPU guest on cores it shares with other
//! guests.  For a quarter second to several seconds at a time the same code
//! runs 1.4 to 1.8 times as slowly there, so a wall-clock timing swings with
//! the share of slow seconds in a run: over ten runs, the quartile spread of
//! a median latency reached 20-40 %.  The clock therefore times a fixed
//! computation of the benchmark's own, the gauge, whenever the program under
//! test is idle, and counts the wall time that follows at the rate
//! `GAUGE_US / measured gauge time`.  No change to the program can speed the
//! gauge up or slow it down, so a slower program still reads slower.
//!
//! A slow stretch does not slow all code alike: plain multiply loops lose
//! more than the program does, hash tables less.  The gauge therefore mixes
//! four kernels, one per kind of work the program does (bignum arithmetic,
//! parsing, hash-table indexing, allocation and copying).  Slowed down with
//! the host, the mix kept the scaled times of RSA signing, SHA-256, XML
//! parsing and hash-map inserts within 2-9 % of their full-speed times,
//! against 10-22 % for the multiply loop alone.
//!
//! Timings are in seconds of a host on which one gauge run takes
//! [`GAUGE_US`], which is the reference host at full speed.  The gauge runs
//! on the generator thread and on a helper thread (see [`Clock`]) while the
//! program is idle.  A program that kept a core busy between operations
//! would slow the gauge and so hide part of its own cost; `gauge_us_p50` in
//! the result lines shows how fast the host ran.

use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Gauge time, in microseconds, of the reference host at full speed: the
/// rate at which the clock counts is `GAUGE_US / measured`.
pub const GAUGE_US: f64 = 65.0;
/// Runs per gauge measurement; the median is taken, so one run preempted
/// by another thread does not set the rate.
const GAUGE_RUNS: usize = 5;
/// Least wall time between two gauge measurements taken by [`Clock::idle`]
/// (well below the quarter second a speed regime lasts at the shortest).
const RECALIBRATE: Duration = Duration::from_millis(25);
/// Bytes the parsing kernel scans.
const SCAN_BYTES: usize = 4096;

/// The gauge's kernels, of about equal length: one run of all four takes
/// [`GAUGE_US`] on the reference host at full speed.
struct Gauge {
    /// Seeded bytes for the parsing kernel, so its branches are
    /// unpredictable.
    scan: Vec<u8>,
}

impl Gauge {
    fn new() -> Gauge {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let scan = (0..SCAN_BYTES)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        Gauge { scan }
    }

    /// Bignum arithmetic: a multiply-accumulate chain over 32 limbs.
    fn multiply() -> u64 {
        let mut limbs = [0u64; 32];
        for (i, limb) in limbs.iter_mut().enumerate() {
            *limb = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        }
        let mut acc: u128 = 0;
        for _ in 0..700 {
            for i in 0..limbs.len() {
                acc = acc.wrapping_add(
                    u128::from(black_box(limbs[i])) * u128::from(limbs[(i + 7) % 32]),
                );
                limbs[i] = (acc as u64) ^ (acc >> 64) as u64;
            }
        }
        acc as u64
    }

    /// Parsing: a branchy state machine over the seeded bytes.
    fn scan(&self) -> u64 {
        let (mut tokens, mut state, mut acc) = (0u64, 0u8, 0u64);
        for &byte in black_box(&self.scan) {
            if byte < 40 {
                tokens += u64::from(state != 1);
                state = 1;
                acc = acc.wrapping_add(u64::from(byte));
            } else if byte < 90 {
                state = 2;
                acc ^= u64::from(byte) << (byte & 31);
            } else if byte < 200 {
                tokens += if state == 2 { 2 } else { 0 };
                state = 3;
            } else {
                state = 0;
                acc = acc.rotate_left(3);
            }
        }
        tokens ^ acc
    }

    /// Indexing: inserts and lookups in a fresh `HashMap`.
    fn index() -> u64 {
        let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        let key = |k: u64| black_box(k).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for k in 0..400 {
            map.insert(key(k), k);
        }
        (0..400).filter_map(|k| map.get(&key(k))).sum()
    }

    /// Allocation and copying: 1 KiB buffers made, cloned and dropped.
    fn copy() -> u64 {
        (0..black_box(512u32))
            .map(|i| {
                let buffer = vec![i as u8; 1024];
                u64::from(buffer.clone()[1000])
            })
            .sum()
    }

    /// One gauge measurement: the median of [`GAUGE_RUNS`] runs of the four
    /// kernels, in microseconds of wall time.
    fn measure_us(&self) -> f64 {
        let mut runs: Vec<f64> = (0..GAUGE_RUNS)
            .map(|_| {
                let start = Instant::now();
                black_box(Gauge::multiply() ^ self.scan() ^ Gauge::index() ^ Gauge::copy());
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        runs.sort_by(f64::total_cmp);
        runs[GAUGE_RUNS / 2]
    }
}

/// A thread that takes gauge measurements on request.  A channel wakes it,
/// as a request wakes a broker thread, so the scheduler places it as it
/// places one.
struct Helper {
    ask: Option<Sender<()>>,
    answers: Receiver<f64>,
    thread: Option<JoinHandle<()>>,
}

impl Helper {
    fn spawn() -> Helper {
        let (ask, asked) = channel::bounded::<()>(1);
        let (answer, answers) = channel::bounded(1);
        let thread = std::thread::Builder::new()
            .name("bench-gauge".into())
            .spawn(move || {
                let gauge = Gauge::new();
                while asked.recv().is_ok() && answer.send(gauge.measure_us()).is_ok() {}
            })
            .expect("spawn the gauge thread");
        Helper {
            ask: Some(ask),
            answers,
            thread: Some(thread),
        }
    }

    fn measure_us(&self) -> f64 {
        let alive = "the gauge thread runs until the helper is dropped";
        self.ask.as_ref().expect(alive).send(()).expect(alive);
        self.answers.recv().expect(alive)
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        // Closing the request channel ends the thread's loop.
        drop(self.ask.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

struct State {
    /// Wall time of the last gauge measurement.
    mark: Instant,
    /// Clock reading at `mark`, in scaled seconds.
    at_mark: f64,
    /// Scaled seconds per wall second since `mark`.
    rate: f64,
    /// Every gauge measurement taken, in microseconds.
    gauges: Vec<f64>,
    helper: Helper,
}

/// Scaled time, readable from any thread; only the generator thread
/// calibrates it.
///
/// The program's broker threads run on either vCPU, and the two vCPUs slow
/// down independently.  So each gauge measurement runs both on the calling
/// thread and on a [`Helper`] thread, and the clock counts at the mean of
/// the two.
pub struct Clock {
    gauge: Gauge,
    state: Mutex<State>,
}

impl Clock {
    /// A calibrated clock reading 0.
    pub fn new() -> Clock {
        let clock = Clock {
            gauge: Gauge::new(),
            state: Mutex::with_class(
                "bench.clock",
                State {
                    mark: Instant::now(),
                    at_mark: 0.0,
                    rate: 1.0,
                    gauges: Vec::new(),
                    helper: Helper::spawn(),
                },
            ),
        };
        clock.calibrate();
        clock
    }

    /// Scaled seconds since the clock was made.
    pub fn now(&self) -> f64 {
        let state = self.state.lock();
        state.at_mark + state.mark.elapsed().as_secs_f64() * state.rate
    }

    /// Scaled milliseconds since `start`, a reading of [`Clock::now`].
    pub fn ms_since(&self, start: f64) -> f64 {
        (self.now() - start) * 1e3
    }

    /// Measures the gauge and counts on at the new rate.  The clock stands
    /// still while the gauge runs.  Call only while the program under test
    /// is idle.
    pub fn calibrate(&self) {
        let mut state = self.state.lock();
        state.at_mark += state.mark.elapsed().as_secs_f64() * state.rate;
        let gauge = (self.gauge.measure_us() + state.helper.measure_us()) / 2.0;
        state.gauges.push(gauge);
        state.rate = GAUGE_US / gauge;
        state.mark = Instant::now();
    }

    /// Runs `f` between two gauge measurements and returns its result and
    /// its time in scaled seconds, counted at the mean of the two rates: for
    /// work long enough that the host's speed may change during it.  Call
    /// only while the program under test is idle.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        self.calibrate();
        let before = self.state.lock().rate;
        let wall = Instant::now();
        let value = f();
        let elapsed = wall.elapsed().as_secs_f64();
        self.calibrate();
        let after = self.state.lock().rate;
        (value, elapsed * (before + after) / 2.0)
    }

    /// Calibrates when [`RECALIBRATE`] has passed since the last gauge
    /// measurement.  Call between operations, while the program is idle.
    pub fn idle(&self) {
        let due = self.state.lock().mark.elapsed() >= RECALIBRATE;
        if due {
            self.calibrate();
        }
    }

    /// Median gauge measurement so far, in microseconds: how fast the host
    /// ran ([`GAUGE_US`] at full speed).
    pub fn gauge_us_p50(&self) -> f64 {
        crate::stats::median(&self.state.lock().gauges).expect("calibrated at creation")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_runs_backwards_across_calibrations() {
        let clock = Clock::new();
        let mut last = clock.now();
        for _ in 0..20 {
            clock.calibrate();
            let now = clock.now();
            assert!(now >= last);
            last = now;
        }
        assert!(clock.gauge_us_p50() > 0.0);
    }
}
