//! Storage-breakdown statistics (Figure 6).
//!
//! Figure 6 of the paper shows, per table, how the DeepMapping footprint splits across
//! the existence vector, the learned model and the auxiliary table, together with the
//! fraction of tuples the model memorizes versus the fraction stored in the auxiliary
//! table.  [`StorageBreakdown`] carries exactly those numbers.

/// Breakdown of a DeepMapping structure's storage footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageBreakdown {
    /// Serialized size of the learned model `M`, in bytes.
    pub model_bytes: usize,
    /// Size of the auxiliary table `Taux`, in bytes: the framed, bit-packed
    /// value columns of the corrected rows (no keys) plus the modification
    /// overlay at its in-memory width.
    pub aux_table_bytes: usize,
    /// Compressed size of the existence bit vector `Vexist`, in bytes.
    pub existence_bytes: usize,
    /// Compressed size of the corrected-key bit vector `Vaux`, in bytes — the
    /// bit per key that routes a lookup to the model or to `Taux`, never both,
    /// and (as the table's frozen `base`) the only record of which keys the
    /// auxiliary rows belong to.
    pub corrected_bytes: usize,
    /// Serialized size of the decoding map `fdecode`, in bytes.
    pub decode_map_bytes: usize,
    /// Uncompressed size of the represented data (the `size(D)` denominator of Eq. 1).
    pub uncompressed_bytes: usize,
    /// Number of tuples represented.
    pub tuple_count: usize,
    /// Number of tuples the model answers (they are *not* in `Taux`):
    /// `|Vexist| − |Vaux|`, exact at all times.
    pub memorized_tuples: usize,
}

impl StorageBreakdown {
    /// Total hybrid-structure size:
    /// `size(M) + size(Taux) + size(Vexist) + size(Vaux) + size(fdecode)`.
    pub fn total_bytes(&self) -> usize {
        self.model_bytes
            + self.aux_table_bytes
            + self.existence_bytes
            + self.corrected_bytes
            + self.decode_map_bytes
    }

    /// The Eq.-1 objective: total hybrid size relative to the uncompressed data
    /// (lower is better; 1.0 means no compression).
    pub fn compression_ratio(&self) -> f64 {
        if self.uncompressed_bytes == 0 {
            return 1.0;
        }
        self.total_bytes() as f64 / self.uncompressed_bytes as f64
    }

    /// Fraction of tuples stored in the model rather than the auxiliary table
    /// (the paper reports 66–81 % across its workloads).
    pub fn memorized_fraction(&self) -> f64 {
        if self.tuple_count == 0 {
            return 1.0;
        }
        self.memorized_tuples as f64 / self.tuple_count as f64
    }

    /// Percentage shares of (bit vectors `Vexist` + `Vaux`, model, auxiliary table)
    /// in the total footprint — the stacked bars of Figure 6.
    pub fn share_percentages(&self) -> (f64, f64, f64) {
        let total = self.total_bytes().max(1) as f64;
        (
            100.0 * (self.existence_bytes + self.corrected_bytes) as f64 / total,
            100.0 * self.model_bytes as f64 / total,
            100.0 * self.aux_table_bytes as f64 / total,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StorageBreakdown {
        StorageBreakdown {
            model_bytes: 1_000,
            aux_table_bytes: 8_000,
            existence_bytes: 400,
            corrected_bytes: 100,
            decode_map_bytes: 500,
            uncompressed_bytes: 100_000,
            tuple_count: 1_000,
            memorized_tuples: 700,
        }
    }

    #[test]
    fn totals_and_ratio() {
        let b = sample();
        assert_eq!(b.total_bytes(), 10_000);
        assert!((b.compression_ratio() - 0.1).abs() < 1e-12);
        assert!((b.memorized_fraction() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn share_percentages_sum_to_less_than_100_with_decode_map() {
        let b = sample();
        let (exist, model, aux) = b.share_percentages();
        assert!((exist - 5.0).abs() < 1e-9);
        assert!((model - 10.0).abs() < 1e-9);
        assert!((aux - 80.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs_do_not_divide_by_zero() {
        let b = StorageBreakdown {
            model_bytes: 0,
            aux_table_bytes: 0,
            existence_bytes: 0,
            corrected_bytes: 0,
            decode_map_bytes: 0,
            uncompressed_bytes: 0,
            tuple_count: 0,
            memorized_tuples: 0,
        };
        assert_eq!(b.compression_ratio(), 1.0);
        assert_eq!(b.memorized_fraction(), 1.0);
        let (a, m, x) = b.share_percentages();
        assert_eq!((a, m, x), (0.0, 0.0, 0.0));
    }
}
