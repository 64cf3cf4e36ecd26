//! The [`Recorder`]: the single handle the pipeline threads around.
//!
//! A recorder is either *enabled* (owns a clock, a span log, and a
//! metrics registry behind one mutex) or the zero-cost [`NOOP`]
//! (`inner: None` — every call is a branch on an `Option` and returns
//! immediately, so instrumented hot paths cost nothing when tracing is
//! off). Spans can be recorded explicitly with start/end times (the
//! discrete-event simulator knows both) or via the RAII [`SpanGuard`]
//! stamped from the injected [`ManualClock`].

use crate::registry::MetricsRegistry;
use crate::span::{Clock, InstantEvent, ManualClock, Span, SpanCtx, Stage};
use crate::wall::WallClock;
use std::sync::Mutex;

/// Mutable recorder state (span log + registry + ambient context).
#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    instants: Vec<InstantEvent>,
    registry: MetricsRegistry,
    ctx: SpanCtx,
}

/// The time source an enabled recorder stamps RAII spans with: the
/// virtual clock the simulator advances explicitly, or real elapsed
/// time for the OS-thread execution backend. Only the clock differs —
/// spans, instants, and the registry behave identically, which is what
/// makes the two backends' exports structurally comparable.
#[derive(Debug)]
enum ClockSource {
    /// Simulator-advanced virtual seconds (via [`Recorder::set_time`]).
    Manual(ManualClock),
    /// Monotonic wall-clock seconds since the recorder was created.
    Wall(WallClock),
}

impl Default for ClockSource {
    fn default() -> Self {
        ClockSource::Manual(ManualClock::default())
    }
}

/// Backing storage of an enabled recorder.
#[derive(Debug, Default)]
struct RecorderInner {
    clock: ClockSource,
    state: Mutex<State>,
}

/// A deterministic trace + metrics recorder (or the no-op when disabled).
#[derive(Debug, Default)]
pub struct Recorder {
    inner: Option<RecorderInner>,
}

/// The shared disabled recorder: every method is a no-op.
pub static NOOP: Recorder = Recorder::disabled();

/// Locks a poisoned-or-not mutex; a panicking recording thread must not
/// take the whole trace down with it.
fn lock(m: &Mutex<State>) -> std::sync::MutexGuard<'_, State> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Recorder {
    /// An enabled recorder with its clock at zero.
    pub fn new() -> Self {
        Recorder {
            inner: Some(RecorderInner::default()),
        }
    }

    /// An enabled recorder stamping RAII spans with *wall-clock* seconds
    /// since this call — the recorder the OS-thread execution backend
    /// hands around. [`set_time`](Self::set_time) is ignored on a wall
    /// recorder: real time cannot be rewound, and a backend that tried
    /// would silently corrupt span containment.
    pub fn new_wall() -> Self {
        Recorder {
            inner: Some(RecorderInner {
                clock: ClockSource::Wall(WallClock::start()),
                state: Mutex::new(State::default()),
            }),
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

    /// Advances the injected clock to virtual time `t` seconds. A no-op
    /// on a wall-clock recorder (real time is not settable).
    pub fn set_time(&self, t: f64) {
        if let Some(RecorderInner {
            clock: ClockSource::Manual(clock),
            ..
        }) = &self.inner
        {
            clock.set(t);
        }
    }

    /// Current time on the injected clock (0.0 when disabled).
    pub fn now(&self) -> f64 {
        match &self.inner {
            Some(inner) => match &inner.clock {
                ClockSource::Manual(clock) => clock.now(),
                ClockSource::Wall(clock) => clock.now(),
            },
            None => 0.0,
        }
    }

    /// Sets the ambient span context subsequent ctx-less records attach to.
    pub fn set_ctx(&self, ctx: SpanCtx) {
        if let Some(inner) = &self.inner {
            lock(&inner.state).ctx = ctx;
        }
    }

    /// The current ambient span context (default when disabled).
    pub fn ctx(&self) -> SpanCtx {
        match &self.inner {
            Some(inner) => lock(&inner.state).ctx,
            None => SpanCtx::default(),
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
            let mut state = lock(&inner.state);
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
            lock(&inner.state).spans.push(Span {
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
            let mut state = lock(&inner.state);
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
            lock(&inner.state).instants.push(InstantEvent {
                stage,
                ctx,
                at,
                args,
            });
        }
    }

    /// Opens a RAII span stamped from the injected clock; the span is
    /// recorded when the guard drops. Returns a guard even when
    /// disabled (the drop is then a no-op).
    pub fn span(&self, stage: Stage, ctx: SpanCtx) -> SpanGuard<'_> {
        SpanGuard {
            recorder: self,
            stage,
            ctx,
            start: self.now(),
            args: Vec::new(),
        }
    }

    /// Adds `delta` to a registry counter.
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            lock(&inner.state).registry.add(name, delta);
        }
    }

    /// Sets a registry gauge.
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            lock(&inner.state).registry.gauge(name, value);
        }
    }

    /// Records a registry histogram sample.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            lock(&inner.state).registry.observe(name, value);
        }
    }

    /// A copy of all spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        match &self.inner {
            Some(inner) => lock(&inner.state).spans.clone(),
            None => Vec::new(),
        }
    }

    /// A copy of all instant events recorded so far.
    pub fn instants(&self) -> Vec<InstantEvent> {
        match &self.inner {
            Some(inner) => lock(&inner.state).instants.clone(),
            None => Vec::new(),
        }
    }

    /// A snapshot of the metrics registry.
    pub fn registry_snapshot(&self) -> MetricsRegistry {
        match &self.inner {
            Some(inner) => lock(&inner.state).registry.clone(),
            None => MetricsRegistry::default(),
        }
    }

    /// Runs `f` against the live registry (no-op when disabled).
    pub fn with_registry(&self, f: impl FnOnce(&mut MetricsRegistry)) {
        if let Some(inner) = &self.inner {
            f(&mut lock(&inner.state).registry);
        }
    }
}

/// RAII guard returned by [`Recorder::span`]; records on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    recorder: &'a Recorder,
    stage: Stage,
    ctx: SpanCtx,
    start: f64,
    args: Vec<(&'static str, f64)>,
}

impl SpanGuard<'_> {
    /// Attaches a numeric arg to the span before it closes.
    pub fn arg(&mut self, key: &'static str, value: f64) {
        if self.recorder.is_enabled() {
            self.args.push((key, value));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.recorder.is_enabled() {
            let args = std::mem::take(&mut self.args);
            self.recorder.record_span_for(
                self.stage,
                self.ctx,
                self.start,
                self.recorder.now(),
                args,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_records_nothing() {
        NOOP.set_time(5.0);
        NOOP.record_span_args(Stage::Prefill, 0.0, 1.0, Vec::new());
        NOOP.instant(Stage::Admission, 0.5, vec![("shed", 1.0)]);
        NOOP.add("c", 3);
        NOOP.observe("h", 1.0);
        assert!(!NOOP.is_enabled());
        assert_eq!(NOOP.now(), 0.0);
        assert!(NOOP.spans().is_empty());
        assert!(NOOP.instants().is_empty());
        assert_eq!(NOOP.registry_snapshot().counter("c"), None);
    }

    #[test]
    fn raii_span_stamps_clock_times() {
        let r = Recorder::new();
        let ctx = SpanCtx::new(7, 1, 0);
        r.set_time(2.0);
        {
            let mut g = r.span(Stage::StoreFetch, ctx);
            g.arg("bytes", 128.0);
            r.set_time(3.5);
        }
        let spans = r.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].stage, Stage::StoreFetch);
        assert_eq!(spans[0].ctx, ctx);
        assert_eq!(spans[0].start, 2.0);
        assert_eq!(spans[0].end, 3.5);
        assert_eq!(spans[0].args, vec![("bytes", 128.0)]);
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
    fn wall_recorder_ignores_set_time_and_moves_forward() {
        let r = Recorder::new_wall();
        assert!(r.is_enabled());
        let before = r.now();
        r.set_time(1_000.0); // must be a no-op on real time
        let after = r.now();
        assert!(before >= 0.0 && after >= before);
        assert!(after < 100.0, "set_time must not jump a wall clock");
        // The RAII span API stamps non-decreasing wall times.
        let ctx = SpanCtx::new(1, 0, 0);
        drop(r.span(Stage::Prefill, ctx));
        let spans = r.spans();
        assert_eq!(spans.len(), 1);
        assert!(spans[0].end >= spans[0].start);
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
