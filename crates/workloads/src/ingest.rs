//! Streaming-ingest (chat append) workloads: sessions that append token
//! deltas to an existing context.
//!
//! The shared-prefix traces model read-heavy RAG traffic; chat serving is
//! different — each session's context *grows* between queries (the user's
//! new turn plus the model's reply get appended), and the store must
//! re-ingest the grown context before the next query reads it. Because
//! CacheGen's chunks are group-aligned and independently decodable, an
//! append only re-encodes the tail chunk; everything before the append
//! point is byte-identical — that is what makes streaming ingest cheap,
//! and what these traces exercise.
//!
//! A [`ChatAppendGen`] produces [`ChatSession`]s: a base context, then
//! `rounds` of `(append delta, query)` pairs with exponential think-time
//! gaps. [`IngestWorkload::context_at`] materialises the context a
//! session has accumulated by a given round, and
//! [`IngestWorkload::round_requests`] yields the round's queries as
//! ordinary [`ServingRequest`]s so a serving cluster can replay ingest
//! round by round (re-store the grown contexts, then run the queries).

use rand::rngs::StdRng;
use rand::Rng;

use crate::generator::MarkovTextGen;
use crate::multitenant::ServingRequest;

/// One append round of a chat session.
#[derive(Clone, Debug, PartialEq)]
pub struct AppendRound {
    /// Virtual time the round's query arrives (the delta was ingested by
    /// then).
    pub arrival: f64,
    /// Tokens appended to the session's context before this query (the
    /// user turn + prior reply).
    pub delta: Vec<usize>,
    /// The query's prompt suffix.
    pub prompt: Vec<usize>,
}

/// One chat session: a tenant appending to its own long-lived context.
#[derive(Clone, Debug, PartialEq)]
pub struct ChatSession {
    /// Tenant that owns the session.
    pub tenant: usize,
    /// The stored context's id (stable across appends — the store
    /// re-ingests the grown context under the same id).
    pub context_id: u64,
    /// The context at session start.
    pub base: Vec<usize>,
    /// Append rounds in arrival order.
    pub rounds: Vec<AppendRound>,
}

/// A full streaming-ingest trace: many sessions interleaved.
#[derive(Clone, Debug)]
pub struct IngestWorkload {
    /// All sessions, one per `(tenant, context)` pair.
    pub sessions: Vec<ChatSession>,
    /// Number of tenants.
    pub num_tenants: usize,
}

impl IngestWorkload {
    /// Number of append rounds every session runs.
    pub fn num_rounds(&self) -> usize {
        self.sessions.first().map_or(0, |s| s.rounds.len())
    }

    /// The context a session has accumulated entering round `round`
    /// (base plus the deltas of rounds `0..=round`).
    pub fn context_at(&self, session: usize, round: usize) -> Vec<usize> {
        let s = &self.sessions[session];
        let mut ctx = s.base.clone();
        for r in &s.rounds[..=round] {
            ctx.extend_from_slice(&r.delta);
        }
        ctx
    }

    /// The queries of one round across all sessions, sorted by arrival —
    /// ready for [`ServingCluster::run`] after the round's grown contexts
    /// are re-stored.
    ///
    /// [`ServingCluster::run`]: https://docs.rs/cachegen-serving
    pub fn round_requests(&self, round: usize) -> Vec<ServingRequest> {
        let mut out: Vec<ServingRequest> = self
            .sessions
            .iter()
            .map(|s| {
                let r = &s.rounds[round];
                ServingRequest {
                    arrival: r.arrival,
                    tenant: s.tenant,
                    context_id: s.context_id,
                    prompt: r.prompt.clone(),
                }
            })
            .collect();
        out.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        out
    }
}

/// Generator for streaming-ingest chat traces.
#[derive(Clone, Debug)]
pub struct ChatAppendGen {
    text: MarkovTextGen,
    vocab: usize,
    /// Sessions in the trace (one growing context each).
    n_sessions: usize,
    /// Tokens in each session's base context.
    base_tokens: usize,
    /// Tokens appended per round.
    delta_tokens: usize,
    /// Append rounds per session.
    rounds: usize,
    /// Mean think time between a session's rounds, seconds.
    think_secs: f64,
}

impl ChatAppendGen {
    /// Creates a generator. Chat histories reuse the LongChat-ish text
    /// profile: many short topical segments, high repetition.
    pub fn new(vocab: usize, n_sessions: usize, base_tokens: usize, delta_tokens: usize) -> Self {
        assert!(n_sessions >= 1, "need at least one session");
        assert!(
            base_tokens >= 8,
            "base context must be long enough to chunk"
        );
        assert!(delta_tokens >= 1, "appends must add at least one token");
        ChatAppendGen {
            text: MarkovTextGen::new(vocab, 6, 0.55),
            vocab,
            n_sessions,
            base_tokens,
            delta_tokens,
            rounds: 3,
            think_secs: 4.0,
        }
    }

    /// Overrides the number of append rounds per session.
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        assert!(rounds >= 1);
        self.rounds = rounds;
        self
    }

    /// Generates the trace: each session starts at a staggered offset and
    /// appends `delta_tokens` before each of its queries, with
    /// exponential think-time gaps. Deterministic per seed.
    pub fn generate(&self, rng: &mut StdRng, num_tenants: usize) -> IngestWorkload {
        assert!(num_tenants >= 1, "need at least one tenant");
        let sessions = (0..self.n_sessions)
            .map(|i| {
                let base = self.text.generate(rng, self.base_tokens);
                // Stagger session starts so ingest interleaves.
                let mut t = rng.gen::<f64>() * self.think_secs;
                let rounds = (0..self.rounds)
                    .map(|_| {
                        let u = rng.gen::<f64>().min(1.0 - 1e-12);
                        t += -(1.0 - u).ln() * self.think_secs;
                        AppendRound {
                            arrival: t,
                            delta: self.text.generate(rng, self.delta_tokens),
                            prompt: self
                                .text
                                .probe_prompt(rng, i % 6, 4)
                                .iter()
                                .map(|&tok| tok % self.vocab)
                                .collect(),
                        }
                    })
                    .collect();
                ChatSession {
                    tenant: i % num_tenants,
                    context_id: i as u64,
                    base,
                    rounds,
                }
            })
            .collect();
        IngestWorkload {
            sessions,
            num_tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload_rng;

    fn workload(seed: u64) -> IngestWorkload {
        ChatAppendGen::new(64, 4, 60, 20)
            .with_rounds(3)
            .generate(&mut workload_rng(seed), 2)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = workload(5);
        let b = workload(5);
        assert_eq!(a.sessions, b.sessions);
    }

    #[test]
    fn contexts_grow_monotonically_and_preserve_prefixes() {
        let w = workload(7);
        for s in 0..w.sessions.len() {
            let mut prev = w.sessions[s].base.clone();
            for r in 0..w.num_rounds() {
                let ctx = w.context_at(s, r);
                assert_eq!(ctx.len(), prev.len() + 20, "each round appends 20 tokens");
                assert_eq!(
                    &ctx[..prev.len()],
                    &prev[..],
                    "append never rewrites history"
                );
                prev = ctx;
            }
        }
    }

    #[test]
    fn round_requests_are_sorted_and_cover_every_session() {
        let w = workload(9);
        for r in 0..w.num_rounds() {
            let reqs = w.round_requests(r);
            assert_eq!(reqs.len(), 4);
            assert!(reqs.windows(2).all(|p| p[0].arrival <= p[1].arrival));
            let mut ids: Vec<u64> = reqs.iter().map(|q| q.context_id).collect();
            ids.sort_unstable();
            assert_eq!(ids, vec![0, 1, 2, 3]);
        }
        // Later rounds arrive later per session.
        for s in &w.sessions {
            assert!(s.rounds.windows(2).all(|p| p[0].arrival < p[1].arrival));
        }
    }

    #[test]
    fn ingested_tokens_accounts_base_and_deltas() {
        let w = workload(11);
        let ingested: usize = w
            .sessions
            .iter()
            .map(|s| s.base.len() + s.rounds.iter().map(|r| r.delta.len()).sum::<usize>())
            .sum();
        assert_eq!(ingested, 4 * (60 + 3 * 20));
    }

    #[test]
    fn tokens_stay_in_vocab() {
        let w = workload(13);
        for s in &w.sessions {
            assert!(s.base.iter().all(|&t| t < 64));
            for r in &s.rounds {
                assert!(r.delta.iter().all(|&t| t < 64));
                assert!(r.prompt.iter().all(|&t| t < 64));
            }
        }
    }
}
