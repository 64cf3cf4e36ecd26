//! The workspace's one executor, as the codec and the crates above it
//! reach it: [`cachegen_tensor::pool`]'s items, re-exported, plus
//! [`report_shape`], which publishes a batch's [`PoolShape`] to
//! telemetry (the executor itself is `std`-only, so that the sim
//! transformer's prefill can run on it too).

pub use cachegen_tensor::pool::{bounded_workers, run_pooled, run_queued, PoolShape};

use cachegen_telemetry::Recorder;

/// Publishes `shape` under the `cachegen.codec.pool.*` namespace:
/// `workers` and `queue_depth` gauges plus a `jobs_per_worker` histogram
/// sample. Every [`run_pooled`] caller that reports, the codec's decode
/// and the thread backend's chunk loads, reports through this one
/// function, so both execution backends' registries carry identical pool
/// metric names.
pub fn report_shape(shape: PoolShape, recorder: &Recorder) {
    if recorder.is_enabled() && shape.jobs > 0 {
        recorder.gauge("cachegen.codec.pool.workers", shape.workers as f64);
        recorder.gauge("cachegen.codec.pool.queue_depth", shape.jobs as f64);
        recorder.observe(
            "cachegen.codec.pool.jobs_per_worker",
            shape.jobs as f64 / shape.workers.max(1) as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_report_publishes_pool_namespace() {
        let r = Recorder::new();
        report_shape(
            PoolShape {
                jobs: 12,
                workers: 3,
            },
            &r,
        );
        let snap = r.registry_snapshot();
        assert_eq!(snap.gauge_value("cachegen.codec.pool.workers"), Some(3.0));
        assert_eq!(
            snap.gauge_value("cachegen.codec.pool.queue_depth"),
            Some(12.0)
        );
        let h = snap
            .histogram("cachegen.codec.pool.jobs_per_worker")
            .expect("histogram recorded");
        assert_eq!(h.count(), 1);
        // An empty shape reports nothing (no zero-job noise in exports).
        let quiet = Recorder::new();
        report_shape(
            PoolShape {
                jobs: 0,
                workers: 1,
            },
            &quiet,
        );
        assert_eq!(quiet.registry_snapshot().gauges().count(), 0);
    }
}
