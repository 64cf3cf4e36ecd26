//! The [`Recorder`]: the single handle the pipeline threads around.
//!
//! A recorder is either *enabled* (a span log, an instant log and a
//! metrics registry behind one mutex) or the zero-cost [`NOOP`]
//! (`inner: None` — every call is a branch on an `Option` and returns
//! immediately, so instrumented hot paths cost nothing when tracing is
//! off). The recorder keeps no clock: every span and instant carries
//! exactly the times its caller passes in — virtual seconds from the
//! discrete-event loop, [`WallClock`](crate::WallClock) readings from
//! the OS-thread backend.

use crate::registry::MetricsRegistry;
use crate::span::{InstantEvent, Span, SpanCtx, Stage};
use std::sync::Mutex;

/// Mutable recorder state (span log + registry + ambient context).
#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    instants: Vec<InstantEvent>,
    registry: MetricsRegistry,
    ctx: SpanCtx,
}

/// A deterministic trace + metrics recorder (or the no-op when disabled).
#[derive(Debug, Default)]
pub struct Recorder {
    inner: Option<Mutex<State>>,
}

/// The shared disabled recorder: every method is a no-op.
pub static NOOP: Recorder = Recorder::disabled();

/// Locks a poisoned-or-not mutex; a panicking recording thread must not
/// take the whole trace down with it.
fn lock(m: &Mutex<State>) -> std::sync::MutexGuard<'_, State> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Recorder {
    /// An enabled recorder with empty logs.
    pub fn new() -> Self {
        Recorder {
            inner: Some(Mutex::default()),
        }
    }

    /// The disabled recorder (`const`, so it can back the [`NOOP`] static).
    const fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Whether this recorder actually records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the ambient span context subsequent ctx-less records attach to.
    pub fn set_ctx(&self, ctx: SpanCtx) {
        if let Some(inner) = &self.inner {
            lock(inner).ctx = ctx;
        }
    }

    /// Records a closed span with args under the ambient context.
    pub fn record_span_args(
        &self,
        stage: Stage,
        start: f64,
        end: f64,
        args: Vec<(&'static str, f64)>,
    ) {
        if let Some(inner) = &self.inner {
            let mut state = lock(inner);
            let ctx = state.ctx;
            state.spans.push(Span {
                stage,
                ctx,
                start,
                end,
                args,
            });
        }
    }

    /// Records a closed span under an explicit context.
    pub fn record_span_for(
        &self,
        stage: Stage,
        ctx: SpanCtx,
        start: f64,
        end: f64,
        args: Vec<(&'static str, f64)>,
    ) {
        if let Some(inner) = &self.inner {
            lock(inner).spans.push(Span {
                stage,
                ctx,
                start,
                end,
                args,
            });
        }
    }

    /// Records a zero-duration event under the ambient context.
    pub fn instant(&self, stage: Stage, at: f64, args: Vec<(&'static str, f64)>) {
        if let Some(inner) = &self.inner {
            let mut state = lock(inner);
            let ctx = state.ctx;
            state.instants.push(InstantEvent {
                stage,
                ctx,
                at,
                args,
            });
        }
    }

    /// Records a zero-duration event under an explicit context.
    pub fn instant_for(&self, stage: Stage, ctx: SpanCtx, at: f64, args: Vec<(&'static str, f64)>) {
        if let Some(inner) = &self.inner {
            lock(inner).instants.push(InstantEvent {
                stage,
                ctx,
                at,
                args,
            });
        }
    }

    /// Adds `delta` to a registry counter.
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            lock(inner).registry.add(name, delta);
        }
    }

    /// Sets a registry gauge.
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            lock(inner).registry.gauge(name, value);
        }
    }

    /// Records a registry histogram sample.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            lock(inner).registry.observe(name, value);
        }
    }

    /// A copy of all spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        match &self.inner {
            Some(inner) => lock(inner).spans.clone(),
            None => Vec::new(),
        }
    }

    /// A copy of all instant events recorded so far.
    pub fn instants(&self) -> Vec<InstantEvent> {
        match &self.inner {
            Some(inner) => lock(inner).instants.clone(),
            None => Vec::new(),
        }
    }

    /// A snapshot of the metrics registry.
    pub fn registry_snapshot(&self) -> MetricsRegistry {
        match &self.inner {
            Some(inner) => lock(inner).registry.clone(),
            None => MetricsRegistry::default(),
        }
    }

    /// Runs `f` against the live registry (no-op when disabled).
    pub fn with_registry(&self, f: impl FnOnce(&mut MetricsRegistry)) {
        if let Some(inner) = &self.inner {
            f(&mut lock(inner).registry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_records_nothing() {
        NOOP.record_span_args(Stage::Prefill, 0.0, 1.0, Vec::new());
        NOOP.instant(Stage::Admission, 0.5, vec![("shed", 1.0)]);
        NOOP.add("c", 3);
        NOOP.observe("h", 1.0);
        assert!(!NOOP.is_enabled());
        assert!(NOOP.spans().is_empty());
        assert!(NOOP.instants().is_empty());
        assert_eq!(NOOP.registry_snapshot().counter("c"), None);
    }

    #[test]
    fn ambient_ctx_attaches_to_ctxless_records() {
        let r = Recorder::new();
        let ctx = SpanCtx::new(3, 2, 1);
        r.set_ctx(ctx);
        r.record_span_args(Stage::WireDelivery, 1.0, 2.0, Vec::new());
        r.instant(Stage::FecRecovery, 1.5, Vec::new());
        assert_eq!(r.spans()[0].ctx, ctx);
        assert_eq!(r.instants()[0].ctx, ctx);
    }

    #[test]
    fn registry_via_recorder() {
        let r = Recorder::new();
        r.add("cachegen.test.count", 2);
        r.add("cachegen.test.count", 3);
        r.gauge("cachegen.test.g", 1.5);
        r.observe("cachegen.test.h", 4.0);
        let snap = r.registry_snapshot();
        assert_eq!(snap.counter("cachegen.test.count"), Some(5));
        assert_eq!(snap.gauge_value("cachegen.test.g"), Some(1.5));
        assert_eq!(snap.histogram("cachegen.test.h").unwrap().count(), 1);
    }
}
