//! The names this benchmark prints: workloads, end-to-end metrics and
//! per-layer metrics, each with its unit. `BENCHMARK.json` at the
//! repository root lists the same names with direction and regression
//! bound; `tests/smoke.rs` checks the two stay equal.

use std::collections::BTreeMap;

/// Workload names, in run order.
pub const WORKLOADS: [&str; 5] = [
    "load_clean",
    "load_lossy",
    "store_ingest",
    "transport_burst",
    "serve_mixed",
];

/// End-to-end metrics `(name, unit)`, printed by every workload with
/// tracing off.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("ttft_virtual_p50_ms", "ms"),
    ("ttft_virtual_p99_ms", "ms"),
    ("wire_bytes_per_token", "B"),
    ("stored_bytes_per_token", "B"),
    ("kv_nmse", "ratio"),
    ("intact_share", "ratio"),
    ("slo_met_share", "ratio"),
];

/// End-to-end metrics that depend on the seed alone, never on the clock:
/// two runs of one binary with one seed must print the same value.
/// `kv_nmse` is compared to 1e-6 relative, the rest bit for bit.
pub const EXACT: [&str; 8] = [
    "ok_share",
    "ttft_virtual_p50_ms",
    "ttft_virtual_p99_ms",
    "wire_bytes_per_token",
    "stored_bytes_per_token",
    "kv_nmse",
    "intact_share",
    "slo_met_share",
];

/// Per-layer metrics `(name, unit)`, printed by every workload's traced
/// run. `<crate>.<name>`; a row a workload does not exercise reads 0,
/// which is the bypass prediction made checkable.
pub const PER_LAYER: [(&str, &str); 86] = [
    ("codec.decode_ms", "ms/op"),
    ("codec.decode_melem_per_s", "Melem/s"),
    ("codec.repair_decode_ms", "ms/op"),
    ("codec.parse_ms", "ms/op"),
    ("codec.encode_ms", "ms/op"),
    ("codec.encode_melem_per_s", "Melem/s"),
    ("codec.serialize_ms", "ms/op"),
    ("codec.rans_decode_melem_per_s", "Melem/s"),
    ("codec.rans_encode_melem_per_s", "Melem/s"),
    ("codec.decode_serial_whole_ms", "ms"),
    ("codec.decode_parallel_ms", "ms"),
    ("codec.pool_workers", "count"),
    ("codec.chunks_decoded", "count"),
    ("codec.decode_errors", "count"),
    ("quant.quantize_melem_per_s", "Melem/s"),
    ("quant.dequantize_melem_per_s", "Melem/s"),
    ("llm.prefill_ms_per_ktoken", "ms"),
    ("llm.concat_ms", "ms/op"),
    ("kvstore.get_ms", "ms/op"),
    ("kvstore.put_ms", "ms/op"),
    ("kvstore.lru_ops_per_s", "1/s"),
    ("kvstore.cache_hit_share", "ratio"),
    ("net.rs_parity_mb_per_s.r1", "MB/s"),
    ("net.rs_parity_mb_per_s.r2", "MB/s"),
    ("net.rs_parity_mb_per_s.r4", "MB/s"),
    ("net.rs_recover_mb_per_s.r1", "MB/s"),
    ("net.rs_recover_mb_per_s.r2", "MB/s"),
    ("net.rs_recover_mb_per_s.r4", "MB/s"),
    ("net.parity_ms", "ms/op"),
    ("net.recover_ms", "ms/op"),
    ("net.send_packets_per_s", "1/s"),
    ("net.packets_sent", "count"),
    ("net.packets_dropped", "count"),
    ("net.fec_recovered_packets", "count"),
    ("net.unrecovered_packets", "count"),
    ("net.recovered_share", "ratio"),
    ("net.parity_byte_share", "ratio"),
    ("streamer.simulate_stream_ms", "ms/op"),
    ("streamer.deliver_ms", "ms/op"),
    ("streamer.deliver_packets_per_s", "1/s"),
    ("streamer.wire_packets_per_s", "1/s"),
    ("streamer.level_share.l0", "ratio"),
    ("streamer.level_share.l1", "ratio"),
    ("streamer.level_share.l2", "ratio"),
    ("streamer.level_share.l3", "ratio"),
    ("streamer.level_share.l4", "ratio"),
    ("streamer.level_share.text", "ratio"),
    ("streamer.kv_chunk_share", "ratio"),
    ("streamer.fec_rung_share.14_1", "ratio"),
    ("streamer.fec_rung_share.10_1", "ratio"),
    ("streamer.fec_rung_share.12_2", "ratio"),
    ("streamer.retransmits", "count"),
    ("core.encode_context_ms", "ms"),
    ("core.packet_schedule_ms", "ms/op"),
    ("core.load_context_ms", "ms"),
    ("core.reencode_share", "ratio"),
    ("serving.plan_ms", "ms"),
    ("serving.plan_req_per_s", "1/s"),
    ("serving.thread_wall_s", "s"),
    ("serving.req_per_s.pool1", "1/s"),
    ("serving.pool_scaling", "ratio"),
    ("serving.wall_ttft_p90_ms", "ms"),
    ("serving.batches", "count"),
    ("serving.coalesced_requests", "count"),
    ("serving.degraded", "count"),
    ("serving.shed", "count"),
    ("serving.decoded_chunks", "count"),
    ("serving.mean_quality", "ratio"),
    ("serving.max_rate_slo_hz", "Hz"),
    ("tail.op_p95_ms", "ms"),
    ("tail.op_p99_ms", "ms"),
    ("tail.op_samples", "count"),
    ("share.llm", "ratio"),
    ("share.quant", "ratio"),
    ("share.codec", "ratio"),
    ("share.kvstore", "ratio"),
    ("share.net", "ratio"),
    ("share.streamer", "ratio"),
    ("share.core", "ratio"),
    ("share.serving", "ratio"),
    ("share.harness", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.ops", "count"),
    ("micro.samples", "count"),
    ("micro.min_scaling", "ratio"),
    ("host.available_parallelism", "count"),
];

/// The `share.<layer>` rows, in ledger order. A span's name starts with
/// its layer; `harness` is the time between the calls.
pub const SHARE_ROWS: [&str; 9] = [
    "share.llm",
    "share.quant",
    "share.codec",
    "share.kvstore",
    "share.net",
    "share.streamer",
    "share.core",
    "share.serving",
    "share.harness",
];

/// Whether `name` is made of the characters the benchmark contract
/// allows (`[A-Za-z0-9_.-]+`, leading letter or digit, at most 64).
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Metric values of one run, keyed by name.
#[derive(Default, Debug)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records one value. Recording a name twice is a harness bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let previous = self.0.insert(name, value);
        assert!(previous.is_none(), "metric {name} recorded twice");
    }

    /// The values in `table` order. Recording a name that is not in the
    /// table is a harness bug and panics. A name of the table that was
    /// not recorded panics too, unless `unset_reads_zero`: in the
    /// per-layer ledger a row the workload did not exercise reads 0.
    pub fn into_ordered(
        self,
        table: &[(&'static str, &'static str)],
        unset_reads_zero: bool,
    ) -> Vec<(&'static str, f64, &'static str)> {
        for name in self.0.keys() {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric {name} is not in the table"
            );
        }
        table
            .iter()
            .map(|&(name, unit)| {
                let value = match self.0.get(name) {
                    Some(value) => *value,
                    None if unset_reads_zero => 0.0,
                    None => panic!("metric {name} was not recorded"),
                };
                (name, value, unit)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for exact in EXACT {
            assert!(END_TO_END.iter().any(|m| m.0 == exact), "{exact}");
        }
    }
}
