//! Process-wide metrics meter for the experiment suite.
//!
//! Experiments fan out over [`crate::parallel_map`] worker threads, so the
//! per-run counters cannot live in a single owned
//! [`MetricsSink`](mm_trace::MetricsSink). Instead
//! every traced call site passes [`MeterSink`], a zero-sized handle onto one
//! global [`Metrics`] accumulator behind a mutex. `exp_all --csv <dir>`
//! resets the meter before each experiment and writes the aggregate as
//! `<name>.metrics.json` next to the experiment's CSV.
//!
//! The lock is taken once per trace event, never on the hot arithmetic path,
//! and only when a caller opts in by passing `MeterSink` (library defaults
//! stay on `NoopSink`).

use std::sync::{LazyLock, Mutex};

use mm_trace::{Metrics, TraceEvent, TraceSink};

static METER: LazyLock<Mutex<Metrics>> = LazyLock::new(Default::default);

/// A copyable [`TraceSink`] that folds every event into the global meter.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeterSink;

impl TraceSink for MeterSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: &TraceEvent) {
        METER.lock().unwrap().observe(event);
    }
}

/// Clears the global meter (call before an experiment).
pub fn reset() {
    *METER.lock().unwrap() = Metrics::default();
}

/// A copy of the counters accumulated since the last [`reset`].
pub fn snapshot() -> Metrics {
    METER.lock().unwrap().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_numeric::Rat;

    #[test]
    fn meter_accumulates() {
        // Other tests share the global meter, so only monotone assertions
        // are safe here.
        let mut sink = MeterSink;
        assert!(sink.enabled());
        let before = snapshot();
        sink.record(&TraceEvent::JobReleased {
            job: 0,
            time: Rat::zero(),
        });
        sink.record(&TraceEvent::FeasibilityProbe {
            machines: 2,
            jobs: 1,
            feasible: true,
        });
        let after = snapshot();
        assert!(after.jobs_released > before.jobs_released);
        assert!(after.feasibility_probes > before.feasibility_probes);
    }
}
