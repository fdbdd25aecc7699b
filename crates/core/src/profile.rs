//! Stage-level event-loop profiler.
//!
//! A [`LoopProfile`] buckets monotonic-clock time spent by one node's event
//! loop into a fixed set of [`LoopStage`]s — decode, guard checks, inline
//! verify, apply/block-adoption, storage append, encode/broadcast, timers,
//! control, idle — so every throughput claim is attributable to a stage.
//! Recording is allocation-free: fixed arrays of relaxed atomic counters,
//! two `Instant` reads per span (begin/end, with [`LoopProfile::rollover`]
//! sharing the boundary read between adjacent spans).
//!
//! **Attribution model.** Spans nest: the runtime opens a *root* span around
//! each handler call (`on_message`, `on_timer`, `on_job_complete`), and the
//! server opens *sub*-spans around the expensive regions inside the handler
//! (block adoption, WAL appends, inline crypto). Each sub-span records its
//! *self* time — elapsed minus its own nested sub-spans — to its stage and
//! adds that self time to a per-profile child accumulator; the root span
//! subtracts the accumulator's delta, so every nanosecond is counted exactly
//! once and the stages partition the loop's busy time by construction.
//!
//! **Determinism.** The profiler is attached only by the real runtime
//! (`prestige-net`); the simulator never attaches one, so the `None` branch
//! of every helper below is the simulated path and simulated runs take zero
//! clock reads — profiling cannot perturb replayable schedules.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of profiled stages.
pub const STAGE_COUNT: usize = 9;

/// One bucket of event-loop time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum LoopStage {
    /// Pulling one inbound message off the transport (queue pop + any frame
    /// work done on the loop thread). When a message arrives partway through
    /// the loop's bounded wait, the remaining wait is booked here too; under
    /// load the queue is non-empty and this converges to the pop cost.
    Decode = 0,
    /// Protocol handler self time: dispatch, guard checks, quorum
    /// bookkeeping — everything in a handler not claimed by a sub-span.
    Guards = 1,
    /// Leader-signature, QC and batch-digest checks.
    InlineVerify = 2,
    /// Committed-block adoption: dedup marking, block-store insert, client
    /// notification assembly.
    Apply = 3,
    /// Durable WAL appends.
    StorageAppend = 4,
    /// Replaying handler effects into the transport: message encode, send
    /// and broadcast fan-out.
    EncodeBroadcast = 5,
    /// Timer handler self time (batch flush, retransmit scans, pacemaker).
    Timer = 6,
    /// Runtime control messages (inspect closures, stop).
    Control = 7,
    /// Bounded waits that ended without a message.
    Idle = 8,
}

impl LoopStage {
    /// Every stage, in index order.
    pub const ALL: [LoopStage; STAGE_COUNT] = [
        LoopStage::Decode,
        LoopStage::Guards,
        LoopStage::InlineVerify,
        LoopStage::Apply,
        LoopStage::StorageAppend,
        LoopStage::EncodeBroadcast,
        LoopStage::Timer,
        LoopStage::Control,
        LoopStage::Idle,
    ];

    /// Stable snake_case name, used as the JSON report key.
    pub fn name(self) -> &'static str {
        match self {
            LoopStage::Decode => "decode",
            LoopStage::Guards => "guards",
            LoopStage::InlineVerify => "inline_verify",
            LoopStage::Apply => "apply",
            LoopStage::StorageAppend => "storage_append",
            LoopStage::EncodeBroadcast => "encode_broadcast",
            LoopStage::Timer => "timer",
            LoopStage::Control => "control",
            LoopStage::Idle => "idle",
        }
    }
}

/// Accumulated per-stage time and event counts for one event loop. Shared as
/// `Arc<LoopProfile>` between the runtime thread (writer) and whoever builds
/// the report (reader); counters are relaxed atomics, exact because the loop
/// is single-threaded.
#[derive(Debug, Default)]
pub struct LoopProfile {
    nanos: [AtomicU64; STAGE_COUNT],
    events: [AtomicU64; STAGE_COUNT],
    /// Self time of closed sub-spans, subtracted by the enclosing root span.
    child_nanos: AtomicU64,
    /// Total loop wall time, stored once at loop exit.
    total_nanos: AtomicU64,
}

/// An open span: the begin instant plus the child accumulator at begin.
#[derive(Debug, Clone, Copy)]
pub struct SpanStart {
    at: Instant,
    child0: u64,
}

impl LoopProfile {
    /// Adds one event of `nanos` duration to `stage`.
    pub fn record(&self, stage: LoopStage, nanos: u64) {
        self.nanos[stage as usize].fetch_add(nanos, Ordering::Relaxed);
        self.events[stage as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Stores the loop's total wall time (called once, at loop exit).
    pub fn set_total(&self, nanos: u64) {
        self.total_nanos.store(nanos, Ordering::Relaxed);
    }

    /// Opens a span. `None` profile (the simulator, `--no-profile`) costs
    /// nothing: no clock read.
    pub fn begin(this: &Option<Arc<LoopProfile>>) -> Option<SpanStart> {
        this.as_ref().map(|p| SpanStart {
            at: Instant::now(),
            child0: p.child_nanos.load(Ordering::Relaxed),
        })
    }

    /// Closes a root span: elapsed minus nested sub-span self time goes to
    /// `stage`.
    pub fn end_root(this: &Option<Arc<LoopProfile>>, span: Option<SpanStart>, stage: LoopStage) {
        if let (Some(p), Some(s)) = (this, span) {
            p.close(s, stage, false, Instant::now());
        }
    }

    /// Closes a root span and opens the next one at the same instant,
    /// sharing one clock read across the boundary (recv → handler).
    pub fn rollover(
        this: &Option<Arc<LoopProfile>>,
        span: Option<SpanStart>,
        stage: LoopStage,
    ) -> Option<SpanStart> {
        match (this, span) {
            (Some(p), Some(s)) => {
                let now = Instant::now();
                p.close(s, stage, false, now);
                Some(SpanStart {
                    at: now,
                    child0: p.child_nanos.load(Ordering::Relaxed),
                })
            }
            _ => None,
        }
    }

    /// Closes a sub-span: self time goes to `stage` *and* to the child
    /// accumulator the enclosing span subtracts.
    pub fn end_sub(this: &Option<Arc<LoopProfile>>, span: Option<SpanStart>, stage: LoopStage) {
        if let (Some(p), Some(s)) = (this, span) {
            p.close(s, stage, true, Instant::now());
        }
    }

    fn close(&self, span: SpanStart, stage: LoopStage, feeds_parent: bool, now: Instant) {
        let elapsed = now.duration_since(span.at).as_nanos() as u64;
        let nested = self
            .child_nanos
            .load(Ordering::Relaxed)
            .wrapping_sub(span.child0);
        let self_nanos = elapsed.saturating_sub(nested);
        self.record(stage, self_nanos);
        if feeds_parent {
            self.child_nanos.fetch_add(self_nanos, Ordering::Relaxed);
        }
    }

    /// A copyable snapshot of the counters.
    pub fn snapshot(&self) -> LoopSnapshot {
        let mut snap = LoopSnapshot::default();
        for i in 0..STAGE_COUNT {
            snap.nanos[i] = self.nanos[i].load(Ordering::Relaxed);
            snap.events[i] = self.events[i].load(Ordering::Relaxed);
        }
        snap.total_nanos = self.total_nanos.load(Ordering::Relaxed);
        snap
    }
}

/// Plain-data snapshot of a [`LoopProfile`], mergeable across servers for a
/// cluster-wide report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopSnapshot {
    /// Nanoseconds per stage (indexed by `LoopStage as usize`).
    pub nanos: [u64; STAGE_COUNT],
    /// Events per stage.
    pub events: [u64; STAGE_COUNT],
    /// Total loop wall time.
    pub total_nanos: u64,
}

impl LoopSnapshot {
    /// Accumulates `other` into `self` (summing across event loops).
    pub fn merge(&mut self, other: &LoopSnapshot) {
        for i in 0..STAGE_COUNT {
            self.nanos[i] += other.nanos[i];
            self.events[i] += other.events[i];
        }
        self.total_nanos += other.total_nanos;
    }

    /// Nanoseconds recorded for `stage`.
    pub fn stage_nanos(&self, stage: LoopStage) -> u64 {
        self.nanos[stage as usize]
    }

    /// Events recorded for `stage`.
    pub fn stage_events(&self, stage: LoopStage) -> u64 {
        self.events[stage as usize]
    }

    /// Loop wall time not spent idle.
    pub fn busy_nanos(&self) -> u64 {
        self.total_nanos
            .saturating_sub(self.stage_nanos(LoopStage::Idle))
    }

    /// Busy time attributed to a (non-idle) stage. The remainder up to
    /// [`Self::busy_nanos`] is un-instrumented loop overhead (wait
    /// computation, empty queue polls).
    pub fn accounted_busy_nanos(&self) -> u64 {
        LoopStage::ALL
            .iter()
            .filter(|s| !matches!(s, LoopStage::Idle))
            .map(|s| self.stage_nanos(*s))
            .sum()
    }

    /// Fraction of busy loop time attributed to a stage (1.0 when the loop
    /// never ran).
    pub fn coverage(&self) -> f64 {
        let busy = self.busy_nanos();
        if busy == 0 {
            return 1.0;
        }
        (self.accounted_busy_nanos() as f64 / busy as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn record_and_snapshot_roundtrip() {
        let p = LoopProfile::default();
        p.record(LoopStage::Decode, 100);
        p.record(LoopStage::Decode, 50);
        p.record(LoopStage::Idle, 1_000);
        p.set_total(2_000);
        let s = p.snapshot();
        assert_eq!(s.stage_nanos(LoopStage::Decode), 150);
        assert_eq!(s.stage_events(LoopStage::Decode), 2);
        assert_eq!(s.busy_nanos(), 1_000);
        assert_eq!(s.accounted_busy_nanos(), 150);
    }

    #[test]
    fn merge_sums_every_counter() {
        let a = LoopProfile::default();
        a.record(LoopStage::Apply, 10);
        a.set_total(100);
        let b = LoopProfile::default();
        b.record(LoopStage::Apply, 5);
        b.record(LoopStage::Timer, 7);
        b.set_total(50);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.stage_nanos(LoopStage::Apply), 15);
        assert_eq!(m.stage_events(LoopStage::Apply), 2);
        assert_eq!(m.stage_nanos(LoopStage::Timer), 7);
        assert_eq!(m.total_nanos, 150);
    }

    #[test]
    fn nested_sub_spans_partition_the_root_span() {
        let p = Some(Arc::new(LoopProfile::default()));
        let t0 = Instant::now();
        let root = LoopProfile::begin(&p);
        let outer = LoopProfile::begin(&p);
        let inner = LoopProfile::begin(&p);
        std::thread::sleep(Duration::from_millis(2));
        LoopProfile::end_sub(&p, inner, LoopStage::StorageAppend);
        std::thread::sleep(Duration::from_millis(2));
        LoopProfile::end_sub(&p, outer, LoopStage::Apply);
        std::thread::sleep(Duration::from_millis(2));
        LoopProfile::end_root(&p, root, LoopStage::Guards);
        let elapsed_all = t0.elapsed().as_nanos() as u64;
        let s = p.as_ref().unwrap().snapshot();
        let storage = s.stage_nanos(LoopStage::StorageAppend);
        let apply = s.stage_nanos(LoopStage::Apply);
        let guards = s.stage_nanos(LoopStage::Guards);
        // Each stage's self time covers at least its own sleep (sleeps may
        // stretch under scheduler contention, so only lower bounds hold)…
        for (name, v) in [("storage", storage), ("apply", apply), ("guards", guards)] {
            assert!(v >= 2_000_000, "{name} self time too small: {v} ns ({s:?})");
        }
        // …and the self times *partition* the enclosing wall time: any
        // double counting (a parent re-claiming a child's nanos) would push
        // the sum past what actually elapsed.
        assert!(
            storage + apply + guards <= elapsed_all,
            "self times must not double count: {storage} + {apply} + {guards} > {elapsed_all}"
        );
    }

    #[test]
    fn none_profile_is_free_and_inert() {
        let none: Option<Arc<LoopProfile>> = None;
        let span = LoopProfile::begin(&none);
        assert!(span.is_none());
        LoopProfile::end_root(&none, span, LoopStage::Guards);
        assert!(LoopProfile::rollover(&none, span, LoopStage::Decode).is_none());
    }

    #[test]
    fn coverage_is_one_for_an_unused_profile() {
        let s = LoopProfile::default().snapshot();
        assert_eq!(s.coverage(), 1.0);
    }

    #[test]
    fn stage_names_are_stable_report_keys() {
        let names: Vec<&str> = LoopStage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "decode",
                "guards",
                "inline_verify",
                "apply",
                "storage_append",
                "encode_broadcast",
                "timer",
                "control",
                "idle"
            ]
        );
    }
}
