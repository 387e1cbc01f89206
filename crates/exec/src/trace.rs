//! Optional event tracing of the simulated machines.
//!
//! Every memory access the discrete-event engine performs can be streamed
//! to a [`TraceSink`]. The run loops are generic over the sink and the
//! default [`NullSink`] is a zero-sized no-op, so the traced and untraced
//! paths compile to the same code when tracing is off — observability
//! must never perturb the experiment it observes.
//!
//! The crate's tests record into `RingTrace`, a bounded ring buffer that
//! keeps the most recent `capacity` events and counts what it evicted.
//!
//! Alongside the access stream, the engines report synchronization
//! operations as [`SyncEvent`]s through [`TraceSink::sync`]. These carry
//! the happens-before structure of a run (thread create/join, lock
//! hand-offs, barrier epochs, message rendezvous) and are what lets the
//! sharing-soundness oracle in [`crate::oracle`] distinguish an ordered
//! access from a data race. The default implementation is a no-op, so
//! existing sinks and the untraced path are unaffected.

use scc_sim::Region;

/// One memory access observed by the execution engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Issuing core (RCCE mode) or 0 (pthread mode runs on core 0).
    pub core: usize,
    /// Issuing logical execution unit: the pthread thread id in pthread
    /// mode (all threads share core 0), the core id in RCCE mode.
    pub unit: usize,
    /// The issuing core's local clock when the access started.
    pub cycle: u64,
    /// Simulated address.
    pub addr: u64,
    /// Address-space region the access landed in.
    pub region: Region,
    /// Cycles the access cost (cache/mesh/queue/service combined).
    pub latency: u64,
    /// Store (`true`) or load (`false`).
    pub write: bool,
}

/// One synchronization operation observed by the execution engine.
///
/// Each variant is a happens-before edge (or half of one): everything the
/// source unit did before the event is ordered before everything the
/// destination unit does after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncEvent {
    /// `parent` spawned `unit`, whose entry function is `func` (an index
    /// into the compiled program's function table).
    ThreadStart {
        /// The spawning unit.
        parent: usize,
        /// The new unit.
        unit: usize,
        /// Entry function index of the new unit.
        func: u32,
        /// Parent-side clock at the spawn.
        cycle: u64,
    },
    /// `unit` observed the termination of `target` (pthread_join).
    ThreadJoin {
        /// The joining unit.
        unit: usize,
        /// The unit that finished.
        target: usize,
        /// Joiner-side clock when the join completed.
        cycle: u64,
    },
    /// `unit` acquired lock `lock` (mutex or RCCE test-and-set).
    LockAcquire {
        /// The acquiring unit.
        unit: usize,
        /// Lock identity: address (pthread mutex) or lock id (RCCE).
        lock: u64,
        /// Clock at the acquisition.
        cycle: u64,
    },
    /// `unit` released lock `lock`.
    LockRelease {
        /// The releasing unit.
        unit: usize,
        /// Lock identity: address (pthread mutex) or lock id (RCCE).
        lock: u64,
        /// Clock at the release.
        cycle: u64,
    },
    /// `unit` arrived at barrier epoch `epoch`. Emitted for every
    /// participant when the barrier opens, before any
    /// [`SyncEvent::BarrierRelease`] of the same epoch.
    BarrierArrive {
        /// The arriving unit.
        unit: usize,
        /// Monotone barrier-episode counter.
        epoch: u64,
        /// Clock at the arrival.
        cycle: u64,
    },
    /// `unit` left barrier epoch `epoch`: ordered after every arrival of
    /// that epoch.
    BarrierRelease {
        /// The released unit.
        unit: usize,
        /// Monotone barrier-episode counter.
        epoch: u64,
        /// Clock at the release.
        cycle: u64,
    },
    /// A point-to-point hand-off from `from` to `to` (message rendezvous
    /// or an observed flag write).
    Message {
        /// The sending unit.
        from: usize,
        /// The receiving unit.
        to: usize,
        /// Receiver-side clock at the hand-off.
        cycle: u64,
    },
}

/// A consumer of [`TraceEvent`]s and [`SyncEvent`]s.
///
/// The run loops are monomorphized over the sink type, so a no-op
/// implementation costs nothing.
pub trait TraceSink {
    /// Compile-time switch the engine checks before *building* events:
    /// sinks that discard everything (the default [`NullSink`]) set this
    /// to `false`, so the untraced hot path skips event construction
    /// entirely rather than constructing and then discarding. Observing
    /// sinks keep the default `true`.
    const ENABLED: bool = true;

    /// Observes one memory access.
    fn record(&mut self, event: TraceEvent);

    /// Observes one synchronization operation. Defaults to a no-op so
    /// access-only sinks need not care.
    #[inline(always)]
    fn sync(&mut self, _event: SyncEvent) {}

    /// Observes one bulk data transfer (the task runtime's explicit
    /// canonical↔worker DMA). `bytes` is the payload size; the cycle is
    /// the initiating unit's clock when the transfer was billed. Defaults
    /// to a no-op so access-only sinks need not care.
    #[inline(always)]
    fn dma(&mut self, _from: usize, _to: usize, _bytes: u64, _cycle: u64) {}
}

/// The default sink: discards everything, compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _event: TraceEvent) {}
}

/// A bounded ring buffer of the most recent events.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct RingTrace {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

#[cfg(test)]
impl RingTrace {
    /// A ring keeping at most `capacity` events (at least 1).
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingTrace {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Events currently held, oldest first.
    pub(crate) fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Number of events currently held.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events have been recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted to stay within capacity.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever observed (held + dropped).
    pub(crate) fn total_seen(&self) -> u64 {
        self.buf.len() as u64 + self.dropped
    }
}

#[cfg(test)]
impl TraceSink for RingTrace {
    fn record(&mut self, event: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent {
            core: 1,
            unit: 1,
            cycle,
            addr: 0x8000_0000,
            region: Region::SharedDram,
            latency: 50,
            write: cycle.is_multiple_of(2),
        }
    }

    #[test]
    fn ring_holds_everything_under_capacity() {
        let mut r = RingTrace::new(8);
        for c in 0..5 {
            r.record(ev(c));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.dropped(), 0);
        assert_eq!(
            r.events().iter().map(|e| e.cycle).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn ring_keeps_most_recent_when_full() {
        let mut r = RingTrace::new(3);
        for c in 0..10 {
            r.record(ev(c));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 7);
        assert_eq!(r.total_seen(), 10);
        assert_eq!(
            r.events().iter().map(|e| e.cycle).collect::<Vec<_>>(),
            vec![7, 8, 9],
            "oldest-first order survives wraparound"
        );
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = RingTrace::new(0);
        r.record(ev(1));
        r.record(ev(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.events()[0].cycle, 2);
    }

    #[test]
    fn null_sink_discards() {
        let mut n = NullSink;
        n.record(ev(1));
    }
}
