//! The decoding map `fdecode` and schema inference for a key-value mapping.
//!
//! The model predicts dense class codes; `fdecode` converts them back to the original
//! categorical values (Section IV-B1 lists it as part of the auxiliary structure, and
//! its serialized size is charged in Eq. 1).  [`MappingSchema`] captures everything the
//! model needs to know about the relation being memorized: the key-encoding width and
//! each value column's cardinality.

use crate::{CoreError, Result};
use dm_nn::KeyEncoder;
use dm_storage::Row;

/// The decode map for one relation: per column, `labels[col][code]` is the original
/// value string.  Columns without labels decode to the code's decimal representation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecodeMap {
    labels: Vec<Vec<String>>,
}

impl DecodeMap {
    /// A decode map with no label tables (codes decode to their decimal form).
    pub fn identity(columns: usize) -> Self {
        DecodeMap {
            labels: vec![Vec::new(); columns],
        }
    }

    /// Builds a decode map from per-column label tables.
    pub fn from_labels(labels: Vec<Vec<String>>) -> Self {
        DecodeMap { labels }
    }

    /// Number of columns covered.
    pub fn num_columns(&self) -> usize {
        self.labels.len()
    }

    /// The per-column label tables (`labels[col][code]`), e.g. for serialization.
    pub fn labels(&self) -> &[Vec<String>] {
        &self.labels
    }

    /// Decodes one column's code.
    pub fn decode(&self, column: usize, code: u32) -> String {
        match self.labels.get(column).and_then(|l| l.get(code as usize)) {
            Some(label) => label.clone(),
            None => code.to_string(),
        }
    }

    /// Decodes a whole predicted tuple.
    pub fn decode_row(&self, codes: &[u32]) -> Vec<String> {
        codes
            .iter()
            .enumerate()
            .map(|(c, &code)| self.decode(c, code))
            .collect()
    }

    /// Serialized size in bytes (length-prefixed UTF-8 labels) — the `size(fdecode)`
    /// term of Eq. 1.
    pub fn size_bytes(&self) -> usize {
        8 + self
            .labels
            .iter()
            .map(|col| 8 + col.iter().map(|l| 4 + l.len()).sum::<usize>())
            .sum::<usize>()
    }
}

/// Everything the model needs to know about the mapping being learned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingSchema {
    /// Encoder turning keys into input features.
    pub key_encoder: KeyEncoder,
    /// Per-column number of distinct values (output classes).
    pub cardinalities: Vec<u32>,
}

impl MappingSchema {
    /// Infers a schema from rows: the key width covers the largest key and each
    /// column's cardinality is `max code + 1`.
    ///
    /// `headroom_keys` extends the key-encoder range beyond the current maximum so
    /// future insertions (Section IV-D) stay encodable without rebuilding the model.
    pub fn infer(rows: &[Row], headroom_keys: u64) -> Result<Self> {
        if rows.is_empty() {
            return Err(CoreError::InvalidConfig(
                "cannot infer a mapping schema from zero rows".into(),
            ));
        }
        let columns = rows[0].values.len();
        if columns == 0 {
            return Err(CoreError::InvalidConfig(
                "mapping needs at least one value column".into(),
            ));
        }
        let mut cardinalities = vec![0u32; columns];
        let mut max_key = 0u64;
        for row in rows {
            if row.values.len() != columns {
                return Err(CoreError::InvalidConfig(format!(
                    "row {} has {} value columns, expected {columns}",
                    row.key,
                    row.values.len()
                )));
            }
            max_key = max_key.max(row.key);
            for (c, &v) in row.values.iter().enumerate() {
                cardinalities[c] = cardinalities[c].max(v + 1);
            }
        }
        let ramp_periods = detect_column_periods(rows);
        Ok(MappingSchema {
            key_encoder: KeyEncoder::with_periodic_features(max_key.saturating_add(headroom_keys))
                .with_ramp_periods(&ramp_periods),
            cardinalities,
        })
    }

    /// Number of value columns (= number of model output heads).
    pub fn num_columns(&self) -> usize {
        self.cardinalities.len()
    }

    /// Model input width.
    pub fn input_dim(&self) -> usize {
        self.key_encoder.input_dim()
    }

    /// Checks that a row's values fit within the schema's cardinalities.
    pub fn validate_row(&self, row: &Row) -> Result<()> {
        if row.values.len() != self.num_columns() {
            return Err(CoreError::InvalidConfig(format!(
                "row {} has {} value columns, schema expects {}",
                row.key,
                row.values.len(),
                self.num_columns()
            )));
        }
        Ok(())
    }
}

/// Upper bound on how many distinct ramp periods inference will inject.
const MAX_RAMP_PERIODS: usize = 8;

/// Detects value columns that are periodic functions of the key and returns the set
/// of distinct periods found (at most [`MAX_RAMP_PERIODS`], shortest first).
///
/// Cross-product tables (TPC-DS customer_demographics, the synthetic high-correlation
/// generators) have columns of the form `(key / d) % c`, which repeat with period
/// `d * c`.  Such long-period staircases are nearly unlearnable from key bits alone at
/// the model widths used here, but become simple threshold functions once the encoder
/// emits the matching scalar ramp `(key % p) / p` — so inference detects the periods
/// from the data and the schema injects them into the key encoder.
///
/// Detection only runs when the keys form a dense consecutive range (the structured
/// generators and most surrogate-key tables); the minimal period of each column's
/// value sequence is then found in `O(n)` with the KMP failure function and accepted
/// only when the data covers at least two full repetitions.
fn detect_column_periods(rows: &[Row]) -> Vec<u64> {
    let n = rows.len();
    if n < 4 {
        return Vec::new();
    }
    let min_key = rows.iter().map(|r| r.key).min().expect("rows not empty");
    let max_key = rows.iter().map(|r| r.key).max().expect("rows not empty");
    // Dense consecutive keys, no duplicates?  (Span compared without the +1 so a
    // table containing both 0 and u64::MAX cannot overflow.)
    if max_key - min_key != n as u64 - 1 {
        return Vec::new();
    }
    let mut by_offset: Vec<Option<&Row>> = vec![None; n];
    for row in rows {
        let slot = &mut by_offset[(row.key - min_key) as usize];
        if slot.is_some() {
            return Vec::new(); // duplicate key — not a dense range
        }
        *slot = Some(row);
    }
    let columns = rows[0].values.len();
    let mut periods = Vec::new();
    for c in 0..columns {
        let seq: Vec<u32> = by_offset
            .iter()
            .map(|r| r.expect("dense range").values[c])
            .collect();
        if let Some(p) = minimal_period(&seq) {
            // Require at least two full repetitions so a chance border in short data
            // does not fabricate a period, and skip constants (period 1).
            if p > 1 && p * 2 <= n {
                periods.push(p as u64);
            }
        }
    }
    periods.sort_unstable();
    periods.dedup();
    periods.truncate(MAX_RAMP_PERIODS);
    periods
}

/// Minimal `p` such that `seq[i] == seq[i + p]` for all valid `i`, via the KMP
/// failure function; `None` when the sequence has no repetition at all (`p == len`).
fn minimal_period(seq: &[u32]) -> Option<usize> {
    let n = seq.len();
    if n == 0 {
        return None;
    }
    let mut fail = vec![0usize; n + 1];
    let mut k = 0usize;
    for i in 1..n {
        while k > 0 && seq[i] != seq[k] {
            k = fail[k];
        }
        if seq[i] == seq[k] {
            k += 1;
        }
        fail[i + 1] = k;
    }
    let p = n - fail[n];
    (p < n).then_some(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_map_decodes_labels_and_falls_back_to_codes() {
        let map = DecodeMap::from_labels(vec![
            vec!["Shipping".into(), "Pick-Up".into()],
            Vec::new(),
        ]);
        assert_eq!(map.decode(0, 1), "Pick-Up");
        assert_eq!(map.decode(0, 9), "9");
        assert_eq!(map.decode(1, 3), "3");
        assert_eq!(map.decode_row(&[0, 7]), vec!["Shipping".to_string(), "7".to_string()]);
        assert!(map.size_bytes() > 8);
        assert_eq!(DecodeMap::identity(3).num_columns(), 3);
    }

    #[test]
    fn schema_inference_covers_keys_and_cardinalities() {
        let rows = vec![
            Row::new(5, vec![2, 0]),
            Row::new(1000, vec![0, 4]),
            Row::new(17, vec![1, 1]),
        ];
        let schema = MappingSchema::infer(&rows, 0).unwrap();
        assert_eq!(schema.num_columns(), 2);
        assert_eq!(schema.cardinalities, vec![3, 5]);
        assert_eq!(schema.input_dim(), 10 + 17); // 10 key bits + one-hot residues mod 2,3,5,7
        assert!(schema.validate_row(&rows[0]).is_ok());
        assert!(schema.validate_row(&Row::new(1, vec![1])).is_err());
    }

    #[test]
    fn headroom_extends_the_key_encoder() {
        let rows = vec![Row::new(10, vec![0])];
        let tight = MappingSchema::infer(&rows, 0).unwrap();
        let roomy = MappingSchema::infer(&rows, 1_000_000).unwrap();
        assert!(roomy.input_dim() > tight.input_dim());
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(MappingSchema::infer(&[], 0).is_err());
        assert!(MappingSchema::infer(&[Row::new(1, vec![])], 0).is_err());
        assert!(MappingSchema::infer(&[Row::new(1, vec![1]), Row::new(2, vec![1, 2])], 0).is_err());
    }

    #[test]
    fn minimal_period_finds_the_shortest_repetition() {
        assert_eq!(minimal_period(&[1, 2, 3, 1, 2, 3, 1, 2]), Some(3));
        assert_eq!(minimal_period(&[7, 7, 7, 7]), Some(1));
        assert_eq!(minimal_period(&[1, 2, 3, 4]), None);
        assert_eq!(minimal_period(&[]), None);
        assert_eq!(minimal_period(&[5]), None);
    }

    #[test]
    fn periodic_columns_inject_ramp_features() {
        // Cross-product style: col0 = (k/5) % 4 (period 20), col1 = k % 3 (period 3).
        let rows: Vec<Row> = (0..100u64)
            .map(|k| Row::new(k, vec![((k / 5) % 4) as u32, (k % 3) as u32]))
            .collect();
        assert_eq!(detect_column_periods(&rows), vec![3, 20]);
        let schema = MappingSchema::infer(&rows, 0).unwrap();
        assert_eq!(schema.key_encoder.ramp_periods(), &[3, 20]);
        // Dense keys shifted away from zero still detect (phase is absorbed).
        let shifted: Vec<Row> = (1000..1100u64)
            .map(|k| Row::new(k, vec![((k / 5) % 4) as u32, (k % 3) as u32]))
            .collect();
        assert_eq!(detect_column_periods(&shifted), vec![3, 20]);
    }

    #[test]
    fn aperiodic_or_sparse_tables_get_no_ramps() {
        // Sparse keys: detection declines even though values would be periodic.
        let sparse: Vec<Row> = (0..50u64).map(|k| Row::new(k * 3, vec![(k % 4) as u32])).collect();
        assert!(detect_column_periods(&sparse).is_empty());
        // Dense keys but pseudo-random values: no period exists.
        let random: Vec<Row> = (0..64u64)
            .map(|k| Row::new(k, vec![(k.wrapping_mul(0x9E3779B97F4A7C15) >> 13) as u32 % 5]))
            .collect();
        assert!(detect_column_periods(&random).is_empty());
        // Constant column: period 1 is skipped (bits already cover it).
        let constant: Vec<Row> = (0..32u64).map(|k| Row::new(k, vec![7])).collect();
        assert!(detect_column_periods(&constant).is_empty());
        // A period must repeat at least twice within the data to count.
        let once: Vec<Row> = (0..10u64).map(|k| Row::new(k, vec![(k % 7) as u32])).collect();
        assert!(detect_column_periods(&once).is_empty());
    }
}
