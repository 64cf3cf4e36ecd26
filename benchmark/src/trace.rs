//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the program: one `op` root per
//! operation and one child around every call into a crate's public
//! function, named `<crate>.<fn>`. With the tracer off, [`Tracer::span`]
//! is a plain call. A layer's self time is its spans' duration (children
//! never nest here); the `op` root's self time — everything between the
//! calls — is the `harness` layer, so the shares tile the operation.
//!
//! Every span is folded into per-name totals as its operation ends; the
//! raw spans of the first [`KEPT_OPS`] operations stay in memory and are
//! written as Chrome trace-event JSON when the run ends.

use cachegen_telemetry::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;

/// Operations whose raw spans are kept for the trace file.
pub const KEPT_OPS: u64 = 64;

/// One recorded span. `parent` is the index of the op root span in the
/// kept list (`None` for a root).
#[derive(Clone, Debug)]
pub struct Span {
    /// `op` or `<crate>.<fn>`.
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
    /// Index of the parent span in [`Tracer::kept`].
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// Children of the operation in flight: `(name, start, end)`.
    current: Vec<(&'static str, f64, f64)>,
    op_start: Option<f64>,
    ops: u64,
    op_secs: f64,
    /// Seconds inside spans of each name, over the traced run.
    totals: BTreeMap<&'static str, f64>,
    kept: Vec<Span>,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            current: Vec::new(),
            op_start: None,
            ops: 0,
            op_secs: 0.0,
            totals: BTreeMap::new(),
            kept: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `<crate>.<fn>`.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.current.push((name, start, end));
        out
    }

    /// Opens the `op` root of one operation.
    pub fn begin_op(&mut self) {
        if self.on {
            self.current.clear();
            self.op_start = Some(self.now());
        }
    }

    /// Closes the operation in flight and folds its spans.
    pub fn end_op(&mut self) {
        let Some(start) = self.op_start.take() else {
            return;
        };
        let end = self.now();
        self.op_secs += end - start;
        for &(name, s, e) in &self.current {
            *self.totals.entry(name).or_default() += e - s;
        }
        if self.ops < KEPT_OPS {
            let root = self.kept.len();
            self.kept.push(Span {
                name: "op",
                start,
                end,
                parent: None,
                op: self.ops,
            });
            let op = self.ops;
            self.kept
                .extend(self.current.iter().map(|&(name, start, end)| Span {
                    name,
                    start,
                    end,
                    parent: Some(root),
                    op,
                }));
        }
        self.ops += 1;
    }

    /// Operations folded so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Mean milliseconds per operation inside spans named `name`.
    pub fn ms_per_op(&self, name: &str) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.secs(name) * 1e3 / self.ops as f64
        }
    }

    /// Total seconds inside spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// Self time per layer as a share of the traced operations' wall
    /// time, in `layers` order. The last layer must be `harness`: it
    /// takes the op roots' self time.
    pub fn layer_shares(&self, layers: &[&str]) -> Vec<f64> {
        assert_eq!(layers.last(), Some(&"harness"));
        let mut secs = vec![0.0f64; layers.len()];
        let mut in_children = 0.0;
        for (name, &total) in &self.totals {
            let layer = name.split('.').next().unwrap_or("");
            let slot = layers
                .iter()
                .position(|l| *l == layer)
                .unwrap_or_else(|| panic!("span {name} names no layer"));
            secs[slot] += total;
            in_children += total;
        }
        *secs.last_mut().expect("layers is not empty") += self.op_secs - in_children;
        if self.op_secs > 0.0 {
            secs.iter_mut().for_each(|s| *s /= self.op_secs);
        }
        secs
    }

    /// The kept spans as Chrome trace-event JSON (`ph: "X"`, microseconds;
    /// `args` carry the op id and the parent's name).
    pub fn chrome_json(&self, workload: &str) -> String {
        let events: Vec<JsonValue> = self
            .kept
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("", |p| self.kept[p].name);
                JsonValue::Object(vec![
                    ("name".into(), JsonValue::String(s.name.into())),
                    ("cat".into(), JsonValue::String(workload.into())),
                    ("ph".into(), JsonValue::String("X".into())),
                    ("ts".into(), JsonValue::Number(s.start * 1e6)),
                    ("dur".into(), JsonValue::Number((s.end - s.start) * 1e6)),
                    ("pid".into(), JsonValue::Number(1.0)),
                    ("tid".into(), JsonValue::Number(1.0)),
                    (
                        "args".into(),
                        JsonValue::Object(vec![
                            ("op".into(), JsonValue::Number(s.op as f64)),
                            ("parent".into(), JsonValue::String(parent.into())),
                        ]),
                    ),
                ])
            })
            .collect();
        JsonValue::Object(vec![("traceEvents".into(), JsonValue::Array(events))]).to_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.begin_op();
        assert_eq!(t.span("codec.x", || 7), 7);
        t.end_op();
        assert_eq!(t.ops(), 0);
        assert_eq!(t.ms_per_op("codec.x"), 0.0);
    }

    #[test]
    fn shares_tile_the_operation() {
        let mut t = Tracer::on();
        for _ in 0..3 {
            t.begin_op();
            t.span("codec.decode", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("net.recover", || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
            t.end_op();
        }
        assert_eq!(t.ops(), 3);
        let layers = ["codec", "net", "harness"];
        let shares = t.layer_shares(&layers);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(shares[0] > shares[1] && shares[1] > shares[2]);
        let json = cachegen_telemetry::json::parse(&t.chrome_json("w")).expect("valid JSON");
        let events = json
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("events");
        assert_eq!(events.len(), 9);
    }
}
