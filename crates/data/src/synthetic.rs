//! Synthetic datasets with controlled key-value correlation.
//!
//! Section V-A1 of the paper builds four synthetic datasets by sampling TPC-H / TPC-DS
//! columns: single-column and multi-column variants with either *low* key-value
//! correlation (values statistically independent of the key — the model can only
//! memorize by brute force) or *high* correlation (values follow periodic patterns
//! along the key dimension — the model compresses them dramatically, e.g. the 13 MB
//! vs 10 GB row of Table I).  The insertion experiments (Tables III/IV) additionally
//! need to generate *more* data that either follows or violates the original
//! distribution; [`SyntheticConfig::generate_range`] serves both cases.

use crate::schema::{Column, Dataset};
use dm_storage::Row;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How strongly values correlate with the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Correlation {
    /// Values are pseudo-random functions of a per-dataset seed only — statistically
    /// independent of the key (Pearson ≈ 1e-4, as in the paper).
    Low,
    /// Values follow periodic/banded patterns along the key dimension, so a small
    /// model can learn the mapping almost exactly.
    High,
}

/// Configuration of a synthetic dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Number of rows.
    pub rows: usize,
    /// Number of value columns (1 for the single-column datasets, 5 for multi-column).
    pub columns: usize,
    /// Correlation regime.
    pub correlation: Correlation,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticConfig {
    /// The paper's single-column low-correlation dataset (scaled by `rows`).
    pub fn single_low(rows: usize) -> Self {
        SyntheticConfig {
            rows,
            columns: 1,
            correlation: Correlation::Low,
            seed: 0x51,
        }
    }

    /// The paper's single-column high-correlation dataset.
    pub fn single_high(rows: usize) -> Self {
        SyntheticConfig {
            rows,
            columns: 1,
            correlation: Correlation::High,
            seed: 0x52,
        }
    }

    /// The paper's multi-column low-correlation dataset.
    pub fn multi_low(rows: usize) -> Self {
        SyntheticConfig {
            rows,
            columns: 5,
            correlation: Correlation::Low,
            seed: 0x53,
        }
    }

    /// The paper's multi-column high-correlation dataset.
    pub fn multi_high(rows: usize) -> Self {
        SyntheticConfig {
            rows,
            columns: 5,
            correlation: Correlation::High,
            seed: 0x54,
        }
    }

    /// All four synthetic datasets at the same row count, in the order Table I lists
    /// them.
    pub fn paper_suite(rows: usize) -> Vec<SyntheticConfig> {
        vec![
            Self::single_low(rows),
            Self::single_high(rows),
            Self::multi_low(rows),
            Self::multi_high(rows),
        ]
    }

    /// Column cardinalities: modelled on the TPC-H/TPC-DS columns the paper samples.
    ///
    /// The low-correlation family uses TPC-H-like domains (order status, ship mode,
    /// nations, sizes, types); the high-correlation family uses power-of-two domains so
    /// that the periodic key→value patterns (sampled from TPC-DS-style cross-product
    /// columns in the paper) are exactly representable as functions of key bits.
    pub fn cardinalities(&self) -> Vec<u32> {
        let base: [u32; 5] = match self.correlation {
            Correlation::Low => [3, 7, 25, 50, 150],
            Correlation::High => [4, 8, 16, 32, 64],
        };
        base.iter().copied().cycle().take(self.columns).collect()
    }

    /// Descriptive name matching the paper's workload labels.
    pub fn name(&self) -> String {
        format!(
            "synthetic.{}-column.{}-correlation",
            if self.columns == 1 { "single" } else { "multi" },
            match self.correlation {
                Correlation::Low => "low",
                Correlation::High => "high",
            }
        )
    }

    /// Generates the value codes of row `key` for column `col`.
    fn value_for(&self, key: u64, col: usize, card: u32) -> u32 {
        match self.correlation {
            Correlation::Low => {
                // A splittable hash of (seed, key, col): independent of key ordering.
                let mut h = self
                    .seed
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(key)
                    .wrapping_mul(0xBF58476D1CE4E5B9)
                    .wrapping_add(col as u64 + 1);
                h ^= h >> 31;
                h = h.wrapping_mul(0x94D049BB133111EB);
                h ^= h >> 29;
                (h % card as u64) as u32
            }
            Correlation::High => {
                // Periodic bands along the key dimension: column `col` repeats a
                // pattern of `card` values in runs of `band` keys (period = band*card),
                // mirroring the periodic patterns of customer_demographics.  Cards are
                // powers of two, so the value is a contiguous group of key bits.
                let band_shift = 4 + 2 * (col as u64 % 4);
                (((key >> band_shift) & (card as u64 - 1)) as u32).min(card - 1)
            }
        }
    }

    /// Generates rows for an arbitrary key range, used by the insertion workloads:
    /// with the same config the new rows follow the original distribution; with a
    /// different correlation/seed they do not.
    pub fn generate_range(&self, start_key: u64, count: usize) -> Vec<Row> {
        let cards = self.cardinalities();
        (0..count as u64)
            .map(|i| {
                let key = start_key + i;
                Row::new(
                    key,
                    cards
                        .iter()
                        .enumerate()
                        .map(|(c, &card)| self.value_for(key, c, card))
                        .collect(),
                )
            })
            .collect()
    }

    /// Generates the full dataset.
    pub fn generate(&self) -> Dataset {
        let cards = self.cardinalities();
        let keys: Vec<u64> = (0..self.rows as u64).collect();
        let columns = cards
            .iter()
            .enumerate()
            .map(|(c, &card)| {
                let codes: Vec<u32> = keys.iter().map(|&k| self.value_for(k, c, card)).collect();
                Column::from_codes(format!("v{c}"), codes, &format!("c{c}_"))
            })
            .collect();
        Dataset::new(self.name(), keys, columns)
    }

    /// Draws `count` random rows whose values are sampled uniformly at random — the
    /// "does NOT follow the original distribution" insertion workload of Table IV.
    pub fn generate_range_off_distribution(&self, start_key: u64, count: usize, seed: u64) -> Vec<Row> {
        let cards = self.cardinalities();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count as u64)
            .map(|i| {
                Row::new(
                    start_key + i,
                    cards.iter().map(|&card| rng.gen_range(0..card)).collect(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_named() {
        let cfg = SyntheticConfig::multi_high(1000);
        assert_eq!(cfg.generate(), cfg.generate());
        assert_eq!(cfg.name(), "synthetic.multi-column.high-correlation");
        assert_eq!(SyntheticConfig::single_low(10).name(), "synthetic.single-column.low-correlation");
    }

    #[test]
    fn low_correlation_is_near_zero_and_high_is_learnable() {
        let low = SyntheticConfig::single_low(20_000).generate();
        let high = SyntheticConfig::single_high(20_000).generate();
        assert!(low.mean_key_correlation() < 0.02, "low corr {}", low.mean_key_correlation());
        // The high-correlation dataset is a deterministic function of the key: verify
        // by re-deriving values.
        let cfg = SyntheticConfig::single_high(20_000);
        for (i, &k) in high.keys.iter().enumerate().step_by(997) {
            assert_eq!(high.columns[0].codes[i], cfg.value_for(k, 0, 4));
        }
    }

    #[test]
    fn paper_suite_contains_four_datasets() {
        let suite = SyntheticConfig::paper_suite(100);
        assert_eq!(suite.len(), 4);
        assert_eq!(suite[0].columns, 1);
        assert_eq!(suite[2].columns, 5);
        let names: Vec<String> = suite.iter().map(|c| c.name()).collect();
        assert_eq!(names.iter().collect::<std::collections::HashSet<_>>().len(), 4);
    }

    #[test]
    fn generate_range_continues_the_same_distribution() {
        let cfg = SyntheticConfig::multi_high(1000);
        let ds = cfg.generate();
        let extension = cfg.generate_range(1000, 500);
        assert_eq!(extension.len(), 500);
        assert_eq!(extension[0].key, 1000);
        // Values in the extension follow the same generating function as the dataset:
        // re-derive one directly.
        let cards = cfg.cardinalities();
        for row in extension.iter().step_by(97) {
            for (c, &card) in cards.iter().enumerate() {
                assert_eq!(row.values[c], cfg.value_for(row.key, c, card));
            }
        }
        // And the original dataset's own keys reproduce their stored values.
        assert_eq!(ds.row(10).values[0], cfg.value_for(10, 0, cards[0]));
    }

    #[test]
    fn off_distribution_rows_differ_from_the_generating_function() {
        let cfg = SyntheticConfig::multi_high(1000);
        let off = cfg.generate_range_off_distribution(1000, 2000, 7);
        let cards = cfg.cardinalities();
        let mismatches = off
            .iter()
            .filter(|row| {
                row.values
                    .iter()
                    .enumerate()
                    .any(|(c, &v)| v != cfg.value_for(row.key, c, cards[c]))
            })
            .count();
        assert!(mismatches > off.len() / 2, "only {mismatches} rows deviated");
        // Values stay within each column's cardinality.
        for row in &off {
            for (c, &v) in row.values.iter().enumerate() {
                assert!(v < cards[c]);
            }
        }
    }

    #[test]
    fn cardinalities_cycle_for_many_columns() {
        let cfg = SyntheticConfig {
            rows: 10,
            columns: 7,
            correlation: Correlation::Low,
            seed: 1,
        };
        assert_eq!(cfg.cardinalities(), vec![3, 7, 25, 50, 150, 3, 7]);
    }
}
