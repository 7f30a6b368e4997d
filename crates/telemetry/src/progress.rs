//! Campaign progress events and sinks.

use std::sync::{Arc, Mutex};

/// A point-in-time campaign progress event.
///
/// Emitted by the evaluator after every real (uncached) simulation, and
/// by campaign drivers at iteration boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Progress {
    /// Who emitted the event (method label, e.g. `"archexplorer"`).
    pub source: String,
    /// Simulations completed so far.
    pub sims_done: u64,
    /// Total simulation budget for the campaign (0 when unbounded).
    pub sim_budget: u64,
    /// Current hypervolume of the Pareto frontier (0 when not tracked).
    pub hypervolume: f64,
    /// Best `Perf²/(Power·Area)` trade-off seen so far (0 when none).
    pub best_tradeoff: f64,
}

/// Receives [`Progress`] events. Implementations must be cheap and
/// non-blocking: they run inline on the simulation worker threads.
pub trait ProgressSink: Send + Sync {
    /// Called once per progress event, in emission order per thread.
    fn on_progress(&self, event: &Progress);
}

/// Relabels every event's `source` with a fixed run label before
/// forwarding to an inner sink.
///
/// Concurrent campaigns attach one `LabelledSink` per (method × seed) run
/// around a single shared sink, so interleaved events remain attributable
/// to their run (`"ArchExplorer[s3]"`) no matter which worker thread
/// emitted them.
pub struct LabelledSink {
    label: String,
    inner: Arc<dyn ProgressSink>,
}

impl LabelledSink {
    /// Wraps `inner`, stamping every forwarded event with `label`.
    pub fn new(label: impl Into<String>, inner: Arc<dyn ProgressSink>) -> Self {
        LabelledSink {
            label: label.into(),
            inner,
        }
    }

    /// The label stamped onto forwarded events.
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl std::fmt::Debug for LabelledSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LabelledSink")
            .field("label", &self.label)
            .finish()
    }
}

impl ProgressSink for LabelledSink {
    fn on_progress(&self, event: &Progress) {
        let mut event = event.clone();
        event.source = self.label.clone();
        self.inner.on_progress(&event);
    }
}

/// A sink that stores every event — the test/inspection workhorse.
#[derive(Debug, Default)]
pub struct CollectingSink {
    events: Mutex<Vec<Progress>>,
}

impl CollectingSink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events received so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when no events have been received.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all events received so far.
    pub fn events(&self) -> Vec<Progress> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The most recent event, if any.
    pub fn last(&self) -> Option<Progress> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .last()
            .cloned()
    }

    /// The largest `sims_done` across all events (0 when empty).
    pub fn max_sims_done(&self) -> u64 {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|p| p.sims_done)
            .max()
            .unwrap_or(0)
    }
}

impl ProgressSink for CollectingSink {
    fn on_progress(&self, event: &Progress) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn collecting_sink_accumulates_across_threads() {
        let sink = Arc::new(CollectingSink::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let sink = Arc::clone(&sink);
                s.spawn(move || {
                    for i in 0..25 {
                        sink.on_progress(&Progress {
                            source: "test".into(),
                            sims_done: t * 25 + i + 1,
                            sim_budget: 100,
                            hypervolume: 0.0,
                            best_tradeoff: 0.0,
                        });
                    }
                });
            }
        });
        assert_eq!(sink.len(), 100);
        assert_eq!(sink.max_sims_done(), 100);
        assert!(!sink.is_empty());
        assert!(sink.last().is_some());
    }

    #[test]
    fn labelled_sink_relabels_and_forwards() {
        let inner = Arc::new(CollectingSink::new());
        let a = LabelledSink::new("Random[s1]", inner.clone());
        let b = LabelledSink::new("Random[s2]", inner.clone());
        assert_eq!(a.label(), "Random[s1]");
        let event = Progress {
            source: "Random".into(),
            sims_done: 3,
            sim_budget: 10,
            hypervolume: 1.0,
            best_tradeoff: 0.5,
        };
        a.on_progress(&event);
        b.on_progress(&event);
        let seen = inner.events();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].source, "Random[s1]");
        assert_eq!(seen[1].source, "Random[s2]");
        assert_eq!(seen[0].sims_done, 3, "payload fields pass through");
    }
}
