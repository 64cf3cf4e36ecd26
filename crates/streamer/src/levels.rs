//! Encoding levels and streaming configurations.
//!
//! A **level** is one quantization operating point: CacheGen scales the
//! whole per-layer-group bin vector by a factor (level 0 = finest bins =
//! highest quality = biggest bitstream). A **streaming configuration**
//! (§5.3) is what the adapter picks per chunk: one of the levels, or the
//! text fallback where the LLM recomputes that chunk's KV from raw text.

/// An ordered ladder of encoding levels, finest (highest quality) first.
#[derive(Clone, Debug, PartialEq)]
pub struct LevelLadder {
    factors: Vec<f32>,
}

impl LevelLadder {
    /// The workspace default: five levels from 0.3× (finer than the paper's
    /// default bins — near-lossless on the simulator substrate) to 3×
    /// (aggressive).
    pub fn paper_default() -> Self {
        LevelLadder::new(vec![0.3, 0.6, 1.0, 1.8, 3.0])
    }

    /// Custom ladder; factors must be positive and strictly increasing
    /// (coarser levels have larger bins).
    pub fn new(factors: Vec<f32>) -> Self {
        assert!(!factors.is_empty(), "need at least one level");
        assert!(factors.iter().all(|&f| f > 0.0 && f.is_finite()));
        assert!(
            factors.windows(2).all(|w| w[0] < w[1]),
            "factors must strictly increase"
        );
        LevelLadder { factors }
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.factors.len()
    }

    /// Whether the ladder is empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.factors.is_empty()
    }

    /// The bin-scaling factor of level `id`.
    pub fn factor(&self, id: usize) -> f32 {
        self.factors[id]
    }

    /// All factors, finest first.
    pub fn factors(&self) -> &[f32] {
        &self.factors
    }

    /// The default medium level used for the first chunk when no throughput
    /// estimate exists (§5.3 "starts with a default medium encoding level").
    pub fn default_medium(&self) -> usize {
        self.factors.len() / 2
    }
}

/// A per-chunk streaming configuration (§5.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StreamConfig {
    /// Send the KV bitstream at encoding level `id` (0 = finest).
    Level(usize),
    /// Send the raw text and let the LLM recompute this chunk's KV during
    /// streaming (zero compression loss, GPU cost instead).
    Text,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ladder_is_increasing() {
        let l = LevelLadder::paper_default();
        assert_eq!(l.len(), 5);
        assert!(l.factors().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(l.default_medium(), 2);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn rejects_non_monotone_ladder() {
        let _ = LevelLadder::new(vec![1.0, 1.0]);
    }
}
