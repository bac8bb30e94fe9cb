//! Where a simulation puts each completed operation.
//!
//! Pablo offered full event traces and lifetime summaries side by side
//! (§3.1 of the paper); "Tools for Analyzing Parallel I/O" describes the
//! same split as full tracing where the events are read and bounded
//! counters everywhere else. A [`Sink`] is that choice. The simulator's
//! event loop is generic over it and monomorphized per sink, so
//! recording an event is a static call with no branch on the sink.

use crate::event::IoEvent;
use crate::recorder::TraceRecorder;
use sioscope_sim::Time;

/// What a run records of each completed I/O operation. The run's
/// caller builds the sink, so a sink may carry what only its caller
/// knows, or wrap another sink.
pub trait Sink {
    /// Record one completed operation.
    fn record(&mut self, event: IoEvent);

    /// Called once, when the run completes.
    fn finish(&mut self);

    /// Number of recorded operations.
    fn len(&self) -> usize;

    /// `true` iff nothing was recorded.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total client-observed I/O time: the sum of the recorded
    /// durations.
    fn total_io_time(&self) -> Time;
}

/// The full trace, sorted into canonical order when the run completes.
impl Sink for TraceRecorder {
    #[inline]
    fn record(&mut self, event: IoEvent) {
        TraceRecorder::record(self, event);
    }

    fn finish(&mut self) {
        self.sort();
    }

    fn len(&self) -> usize {
        TraceRecorder::len(self)
    }

    fn total_io_time(&self) -> Time {
        TraceRecorder::total_io_time(self)
    }
}

/// An operation count and a duration sum, and nothing else: what a run
/// reports when no one reads its events. It allocates nothing, and adds
/// durations with the same `Time` addition as
/// [`TraceRecorder::total_io_time`], so both sinks report the same
/// totals for the same run.
///
/// ```
/// use sioscope_trace::{IoEvent, IoTotals, Sink, TraceRecorder};
/// use sioscope_pfs::{IoMode, OpKind};
/// use sioscope_sim::{FileId, Pid, Time};
///
/// let event = IoEvent {
///     pid: Pid(0),
///     file: FileId(0),
///     kind: OpKind::Read,
///     start: Time::ZERO,
///     duration: Time::from_millis(3),
///     bytes: 4096,
///     offset: 0,
///     mode: IoMode::MUnix,
/// };
/// let mut totals = IoTotals::default();
/// let mut trace = TraceRecorder::new();
/// for _ in 0..2 {
///     totals.record(event);
///     trace.record(event);
/// }
/// assert_eq!(Sink::len(&totals), trace.len());
/// assert_eq!(Sink::total_io_time(&totals), trace.total_io_time());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoTotals {
    ops: usize,
    io_time: Time,
}

impl Sink for IoTotals {
    #[inline]
    fn record(&mut self, event: IoEvent) {
        self.ops += 1;
        self.io_time += event.duration;
    }

    fn finish(&mut self) {}

    fn len(&self) -> usize {
        self.ops
    }

    fn total_io_time(&self) -> Time {
        self.io_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sioscope_pfs::{IoMode, OpKind};
    use sioscope_sim::{FileId, Pid};

    fn ev(pid: u32, start_ms: u64, dur_ms: u64) -> IoEvent {
        IoEvent {
            pid: Pid(pid),
            file: FileId(0),
            kind: OpKind::Write,
            start: Time::from_millis(start_ms),
            duration: Time::from_millis(dur_ms),
            bytes: 64,
            offset: 0,
            mode: IoMode::MUnix,
        }
    }

    #[test]
    fn totals_count_and_sum_what_the_recorder_keeps() {
        let events = [ev(1, 20, 3), ev(0, 10, 5), ev(0, 30, 0), ev(2, 10, 7)];
        let mut totals = IoTotals::default();
        let mut trace = TraceRecorder::with_capacity(events.len());
        assert!(Sink::is_empty(&totals) && Sink::is_empty(&trace));
        for e in events {
            totals.record(e);
            Sink::record(&mut trace, e);
        }
        totals.finish();
        Sink::finish(&mut trace);
        assert_eq!(Sink::len(&totals), 4);
        assert_eq!(Sink::len(&trace), 4);
        assert_eq!(Sink::total_io_time(&totals), Time::from_millis(15));
        assert_eq!(Sink::total_io_time(&trace), Time::from_millis(15));
        // Finishing the recorder sorts it into canonical order.
        let starts: Vec<Time> = trace.events().iter().map(|e| e.start).collect();
        assert!(starts.windows(2).all(|w| w[0] <= w[1]), "{starts:?}");
    }
}
