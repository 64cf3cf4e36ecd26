//! Multi-tenant serving workloads: shared-prefix (RAG fan-out) documents
//! and seeded Poisson arrival traces.
//!
//! CacheGen's value proposition — loading a long context faster than
//! prefilling it — only shows up under real traffic: many tenants firing
//! queries against a *shared* pool of long documents, so the same KV
//! bitstream is fetched over and over (and, under load, concurrently).
//! This module generates that traffic shape:
//!
//! * [`SharedPrefixGen`] builds a corpus of long documents (the shared
//!   prefixes a RAG frontend would retrieve) with the same topical
//!   structure as the single-context generators, plus per-request probe
//!   prompts (the unique suffix each query appends).
//! * [`MultiTenantWorkload`] is a document corpus plus an arrival trace:
//!   requests with exponential inter-arrival times, Zipf-skewed document
//!   popularity (a few hot documents dominate — that is what makes
//!   same-context batching pay off), and round-robin-ish tenant mixing.
//!
//! Everything is seeded and deterministic: the same seed reproduces the
//! same corpus, arrival times, and request order bit for bit.

use rand::rngs::StdRng;
use rand::Rng;

use crate::generator::MarkovTextGen;

/// One request in a multi-tenant arrival trace.
#[derive(Clone, Debug, PartialEq)]
pub struct ServingRequest {
    /// Virtual arrival time, seconds.
    pub arrival: f64,
    /// Tenant issuing the request (dense index in `0..num_tenants`).
    pub tenant: usize,
    /// Which stored context (document) the request reads.
    pub context_id: u64,
    /// The query's unique suffix, appended after the shared prefix.
    pub prompt: Vec<usize>,
}

/// A document corpus plus the arrival trace that reads it.
#[derive(Clone, Debug)]
pub struct MultiTenantWorkload {
    /// `(context_id, tokens)` per document; ids are dense from 0.
    pub documents: Vec<(u64, Vec<usize>)>,
    /// Requests sorted by arrival time.
    pub requests: Vec<ServingRequest>,
    /// Number of tenants the trace mixes.
    pub num_tenants: usize,
}

impl MultiTenantWorkload {}

/// Shared-prefix (RAG fan-out) workload generator.
#[derive(Clone, Debug)]
pub struct SharedPrefixGen {
    /// Token generator for document bodies.
    text: MarkovTextGen,
    /// Vocabulary size (must match the serving model).
    vocab: usize,
    /// Number of shared-prefix documents in the corpus.
    n_documents: usize,
    /// Tokens per document at functional scale.
    doc_tokens: usize,
    /// Tokens in each query's unique suffix.
    prompt_tokens: usize,
    /// Zipf exponent for document popularity (0 = uniform; ~1 = web-like).
    zipf_s: f64,
}

impl SharedPrefixGen {
    /// Creates a generator. Documents reuse the RAG-ish profile of the
    /// single-context generators: few topics, strong local coherence.
    pub fn new(vocab: usize, n_documents: usize, doc_tokens: usize) -> Self {
        assert!(n_documents >= 1, "need at least one document");
        assert!(doc_tokens >= 8, "documents must be long enough to chunk");
        SharedPrefixGen {
            text: MarkovTextGen::new(vocab, 4, 0.5),
            vocab,
            n_documents,
            doc_tokens,
            prompt_tokens: 4,
            zipf_s: 1.0,
        }
    }

    /// Cumulative Zipf popularity weights and their total (the last
    /// weight; `new` guarantees a document), built once per trace.
    fn popularity_cdf(&self) -> (Vec<f64>, f64) {
        let mut acc = 0.0;
        let cdf = (0..self.n_documents)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(self.zipf_s);
                acc
            })
            .collect();
        (cdf, acc)
    }

    /// Samples a document index from a precomputed cumulative
    /// distribution summing to `total`.
    fn sample_document(cdf: &[f64], total: f64, rng: &mut StdRng) -> usize {
        let u = rng.gen::<f64>() * total;
        cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
    }

    /// Generates the corpus plus a Poisson arrival trace: `n_requests`
    /// requests across `num_tenants` tenants at an aggregate rate of
    /// `rate_hz` requests/second. Deterministic per seed.
    pub fn generate(
        &self,
        rng: &mut StdRng,
        num_tenants: usize,
        n_requests: usize,
        rate_hz: f64,
    ) -> MultiTenantWorkload {
        assert!(num_tenants >= 1, "need at least one tenant");
        assert!(rate_hz > 0.0, "arrival rate must be positive");
        let documents: Vec<(u64, Vec<usize>)> = (0..self.n_documents)
            .map(|i| (i as u64, self.text.generate(rng, self.doc_tokens)))
            .collect();
        let (cdf, total) = self.popularity_cdf();
        let mut t = 0.0f64;
        let mut requests = Vec::with_capacity(n_requests);
        for i in 0..n_requests {
            // Exponential inter-arrival via inverse CDF; clamp the uniform
            // away from 1.0 so ln() stays finite.
            let u = rng.gen::<f64>().min(1.0 - 1e-12);
            t += -(1.0 - u).ln() / rate_hz;
            let doc = Self::sample_document(&cdf, total, rng);
            // Mix tenants without letting one tenant own one document:
            // rotate a random tenant offset per request.
            let tenant = (i + rng.gen::<usize>() % num_tenants) % num_tenants;
            let prompt = self
                .text
                .probe_prompt(rng, doc % 4, self.prompt_tokens)
                .iter()
                .map(|&tok| tok % self.vocab)
                .collect();
            requests.push(ServingRequest {
                arrival: t,
                tenant,
                context_id: doc as u64,
                prompt,
            });
        }
        MultiTenantWorkload {
            documents,
            requests,
            num_tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload_rng;

    fn workload(seed: u64) -> MultiTenantWorkload {
        let g = SharedPrefixGen::new(64, 6, 120);
        g.generate(&mut workload_rng(seed), 4, 200, 10.0)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = workload(3);
        let b = workload(3);
        assert_eq!(a.documents, b.documents);
        assert_eq!(a.requests, b.requests);
    }

    #[test]
    fn arrivals_are_sorted_and_rate_is_plausible() {
        let w = workload(5);
        assert!(w.requests.windows(2).all(|p| p[0].arrival <= p[1].arrival));
        let span = w.requests.last().unwrap().arrival;
        // 200 requests at 10 Hz ≈ 20 s; allow generous Poisson slack.
        assert!((10.0..40.0).contains(&span), "span {span}");
    }

    #[test]
    fn zipf_skews_popularity_toward_hot_documents() {
        let w = workload(7);
        let mut counts = [0usize; 6];
        for r in &w.requests {
            counts[r.context_id as usize] += 1;
        }
        assert!(
            counts[0] > counts[5] * 2,
            "hot doc {} vs cold doc {}",
            counts[0],
            counts[5]
        );
        assert_eq!(counts.iter().sum::<usize>(), 200);
    }

    #[test]
    fn uniform_popularity_when_zipf_zero() {
        let mut g = SharedPrefixGen::new(64, 4, 120);
        g.zipf_s = 0.0;
        let w = g.generate(&mut workload_rng(9), 2, 400, 10.0);
        let mut counts = [0usize; 4];
        for r in &w.requests {
            counts[r.context_id as usize] += 1;
        }
        for &c in &counts {
            assert!((50..150).contains(&c), "uniform counts {counts:?}");
        }
    }

    #[test]
    fn every_tenant_gets_traffic() {
        let w = workload(11);
        for t in 0..4 {
            let issued = w.requests.iter().filter(|r| r.tenant == t).count();
            assert!(issued > 10, "tenant {t} starved: {issued}");
        }
    }

    #[test]
    fn documents_and_prompts_are_well_formed() {
        let w = workload(13);
        assert_eq!(w.documents.len(), 6);
        for (id, toks) in &w.documents {
            assert!(*id < 6);
            assert_eq!(toks.len(), 120);
            assert!(toks.iter().all(|&t| t < 64));
        }
        for r in &w.requests {
            assert_eq!(r.prompt.len(), 4);
            assert!(r.prompt.iter().all(|&t| t < 64));
        }
        let distinct: std::collections::BTreeSet<u64> =
            w.requests.iter().map(|r| r.context_id).collect();
        assert_eq!(distinct.len(), 6);
    }
}
