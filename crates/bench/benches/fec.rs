//! Erasure-layer throughput: the `gf256::mul_acc` slice kernel and
//! `RsCode::{parity, recover}` at `r = 1, 2, 4`, written to
//! `BENCH_net.json` at the workspace root for the `ratchet` bin.
//!
//! The bytes are the traffic the FEC rung really protects: every
//! entropy-chunk payload of one 480-token context encoded at level 2, in
//! wire (K then V, layer, group) order, taken twelve at a time as
//! RS(12, r) groups — unequal member lengths included. Recovery rows
//! lose the first `r` members of every group (the most a group
//! survives) with all parity alive.
//!
//! Every row is [`SAMPLES`] timed calls through `harness::sample`, each
//! call [`PASSES`] passes over the whole context so that it runs for tens
//! of microseconds at least. Rates are data bytes per second (parity
//! bytes produced are not counted).

use cachegen_bench::harness::{context_fixture, sample, Snapshot, Summary, CONTEXT_TOKENS};
use cachegen_codec::EncodedKv;
use cachegen_net::{gf256, RsCode};
use std::hint::black_box;

/// Encoding level whose payloads are measured (the ladder's middle).
const LEVEL: usize = 2;
/// Data packets per parity group.
const GROUP: usize = 12;
/// Timed calls per row.
const SAMPLES: usize = 31;
/// Passes over the context's payloads per timed call.
const PASSES: usize = 16;

/// MB/s over [`SAMPLES`] timed calls of `pass`, [`PASSES`] repetitions
/// per call, `bytes` of data per repetition.
fn mb_per_s<T>(bytes: usize, mut pass: impl FnMut() -> T) -> Summary {
    let secs = sample(SAMPLES, || {
        for _ in 0..PASSES {
            black_box(pass());
        }
    });
    secs.rate((PASSES * bytes) as f64 / 1e6)
}

fn main() {
    let (engine, _, chunks) = context_fixture();
    let encoded: Vec<EncodedKv> = chunks
        .iter()
        .map(|chunk| engine.encode_at_level(chunk, LEVEL))
        .collect();
    let payloads: Vec<&[u8]> = encoded
        .iter()
        .flat_map(|enc| enc.k_chunks.iter().chain(&enc.v_chunks).flatten())
        .map(Vec::as_slice)
        .collect();
    let groups: Vec<&[&[u8]]> = payloads.chunks_exact(GROUP).collect();
    let grouped_bytes: usize = groups.iter().flat_map(|g| g.iter()).map(|p| p.len()).sum();

    let mut snap = Snapshot::new("net", SAMPLES);

    // The kernel alone: every payload accumulated into one buffer.
    let total_bytes: usize = payloads.iter().map(|p| p.len()).sum();
    let widest = payloads.iter().map(|p| p.len()).max().unwrap_or(0);
    for (name, c) in [("c1", 1u8), ("c29", 29)] {
        let mut acc = vec![0u8; widest];
        let rate = mb_per_s(total_bytes, || {
            for p in &payloads {
                gf256::mul_acc(&mut acc, p, black_box(c));
            }
            acc[0]
        });
        snap.row(&format!("gf256_mul_acc_mb_per_s_{name}"), "MB/s", rate);
    }

    for r in [1usize, 2, 4] {
        let code = RsCode::new(GROUP, r).expect("12 + r fits GF(256)");
        let rate = mb_per_s(grouped_bytes, || {
            groups.iter().map(|g| code.parity(g).len()).sum::<usize>()
        });
        snap.row(&format!("rs_parity_mb_per_s_r{r}"), "MB/s", rate);

        let sent: Vec<Vec<Vec<u8>>> = groups.iter().map(|g| code.parity(g)).collect();
        type Shards<'a> = Vec<Option<&'a [u8]>>;
        let received: Vec<(Shards<'_>, Shards<'_>)> = groups
            .iter()
            .zip(&sent)
            .map(|(g, parity)| {
                let data = g.iter().enumerate().map(|(i, d)| (i >= r).then_some(*d));
                let parity = parity.iter().map(|p| Some(p.as_slice()));
                (data.collect(), parity.collect())
            })
            .collect();
        let rate = mb_per_s(grouped_bytes, || {
            received
                .iter()
                .map(|(data, parity)| code.recover(data, parity).map_or(0, |out| out.len()))
                .sum::<usize>()
        });
        snap.row(&format!("rs_recover_mb_per_s_r{r}"), "MB/s", rate);
        for ((data, parity), g) in received.iter().zip(&groups) {
            let rebuilt = code.recover(data, parity).expect("r losses, r parity");
            assert_eq!(rebuilt.len(), r);
            for (i, bytes) in rebuilt {
                assert_eq!(bytes[..g[i].len()], *g[i], "RS(12,{r}) rebuilt other bytes");
            }
        }
    }

    snap.info("context_tokens", CONTEXT_TOKENS as f64);
    snap.info("level", LEVEL as f64);
    snap.info("group_size", GROUP as f64);
    snap.info("groups", groups.len() as f64);
    snap.info("payload_bytes", grouped_bytes as f64);
    snap.write("BENCH_net.json");
}
