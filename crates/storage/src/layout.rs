//! Partition layouts: the baselines' array and hash forms, and the auxiliary
//! table's keyless packed columns.
//!
//! The paper's baselines store each partition either as a serialized array (rows
//! sorted by key, looked up by binary search — the `AB`/`ABC-*` systems, mirroring
//! serialized numpy arrays) or as a serialized hash table (`HB`/`HBC-*`, mirroring
//! pickled Python dicts).  Two cost asymmetries from the paper are reproduced here
//! because the experiments depend on them:
//!
//! * hash partitions are *larger* on disk (the serialized form carries the bucket
//!   directory, not just the entries), and
//! * hash partitions are *slower to deserialize* (the table must be rebuilt entry by
//!   entry on load), which is why HB/HBC lose badly once partitions no longer fit in
//!   memory (Section V-C, Figure 7).
//!
//! DeepMapping's own auxiliary table uses neither: its rows are addressed by
//! ordinal ([`crate::RankedBits::rank1`]), so a [`PackedPartition`] stores values
//! only, one bit-packed stream per column, and is probed in its serialized form.

use crate::row::Row;
use crate::{Result, StorageError};
use dm_compress::{bitpack, varint};
use std::collections::HashMap;

/// Which in-memory/on-disk representation a partition uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionLayout {
    /// Rows sorted by key, fixed-width records, binary-search lookups.
    Array,
    /// An explicit bucket directory plus entries, constant-time lookups.
    Hash,
}

impl PartitionLayout {
    /// The paper's prefix for stores using this layout (`AB`/`ABC` vs `HB`/`HBC`).
    pub fn paper_prefix(&self, compressed: bool) -> &'static str {
        match (self, compressed) {
            (PartitionLayout::Array, false) => "AB",
            (PartitionLayout::Array, true) => "ABC",
            (PartitionLayout::Hash, false) => "HB",
            (PartitionLayout::Hash, true) => "HBC",
        }
    }
}

/// Splits rows into partitions whose serialized (uncompressed) size is close to
/// `target_bytes`.  Rows are sorted by key first so array partitions support binary
/// search and partition key ranges are disjoint.
pub fn partition_rows(rows: &[Row], num_value_columns: usize, target_bytes: usize) -> Vec<Vec<Row>> {
    if rows.is_empty() {
        return Vec::new();
    }
    let mut sorted: Vec<Row> = rows.to_vec();
    sorted.sort_by_key(|r| r.key);
    sorted
        .chunks(rows_per_partition(num_value_columns, target_bytes))
        .map(|chunk| chunk.to_vec())
        .collect()
}

/// How many rows a partition of `target_bytes` holds, counted at the fixed
/// (uncompressed, keyed) row width — the one partition-size rule every store in
/// the workspace shares, whatever its partitions actually store.
pub fn rows_per_partition(num_value_columns: usize, target_bytes: usize) -> usize {
    (target_bytes / Row::fixed_width(num_value_columns)).max(1)
}

/// A keyless, columnar, bit-packed partition: `rows` value tuples addressed by
/// slot, nothing else.  Which key a slot belongs to is the caller's knowledge
/// (the auxiliary table derives it from a rank over its key bitmap).
///
/// The serialized form *is* the in-memory form — loading is one validation
/// pass, and a probe reads `columns` packed values straight out of the bytes:
///
/// ```text
/// varint rows | varint columns | columns × u32 LE stream end offsets
/// | column 0 stream | column 1 stream | ...
/// ```
///
/// Each stream is a [`dm_compress::bitpack::pack`] stream of exactly `rows`
/// values at `bits_for(max value in the column)` bits; offsets are relative to
/// the first stream.  The length is exactly header + offsets + streams: there
/// is no room for a key column, padding or trailing bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedPartition {
    rows: usize,
    bytes: Vec<u8>,
    /// Per column: the stream's bit width and where its packed data lies in
    /// `bytes`, parsed once by `from_bytes`.
    columns: Vec<(u32, std::ops::Range<usize>)>,
}

impl PackedPartition {
    /// Packs `rows` (in slot order; their keys are not stored), each holding
    /// `value_columns` values.
    pub fn from_rows(rows: &[&Row], value_columns: usize) -> Result<Self> {
        let mut columns = vec![Vec::with_capacity(rows.len()); value_columns];
        for row in rows {
            if row.values.len() != value_columns {
                return Err(StorageError::InvalidConfig(format!(
                    "row {} has {} value columns, partition expects {value_columns}",
                    row.key,
                    row.values.len()
                )));
            }
            for (column, &value) in columns.iter_mut().zip(&row.values) {
                column.push(value);
            }
        }
        Self::from_columns(rows.len(), &columns)
    }

    /// Packs `columns` (column-major, each `rows` long).
    pub fn from_columns(rows: usize, columns: &[Vec<u32>]) -> Result<Self> {
        let mut streams = Vec::with_capacity(columns.len());
        let mut widened: Vec<u64> = Vec::with_capacity(rows);
        for (index, column) in columns.iter().enumerate() {
            if column.len() != rows {
                return Err(StorageError::InvalidConfig(format!(
                    "column {index} has {} values, partition expects {rows}",
                    column.len()
                )));
            }
            widened.clear();
            widened.extend(column.iter().map(|&v| v as u64));
            let bits = bitpack::bits_for(widened.iter().copied().max().unwrap_or(0));
            streams.push(bitpack::pack(&widened, bits)?);
        }
        let mut bytes = Vec::with_capacity(
            20 + 4 * columns.len() + streams.iter().map(Vec::len).sum::<usize>(),
        );
        varint::write_u64(&mut bytes, rows as u64);
        varint::write_u64(&mut bytes, columns.len() as u64);
        let mut end = 0usize;
        for stream in &streams {
            end += stream.len();
            let end = u32::try_from(end).map_err(|_| {
                StorageError::InvalidConfig("packed partition exceeds 4 GiB".into())
            })?;
            bytes.extend_from_slice(&end.to_le_bytes());
        }
        for stream in &streams {
            bytes.extend_from_slice(stream);
        }
        Self::from_bytes(bytes)
    }

    /// The serialized form (also the resident form).
    pub fn to_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Adopts a buffer produced by [`to_bytes`](Self::to_bytes) after checking
    /// that it is exactly what it declares: monotone offsets ending at the end
    /// of the buffer, and per column a stream of `rows` values, at most 32 bits
    /// wide, neither truncated nor padded.  Everything
    /// [`read_row`](Self::read_row) relies on is established here.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
        let corrupt = |detail: String| StorageError::Corrupt(format!("packed partition: {detail}"));
        let (rows, pos) = varint::read_u64(&bytes, 0).map_err(|e| corrupt(e.to_string()))?;
        let (columns, pos) = varint::read_u64(&bytes, pos).map_err(|e| corrupt(e.to_string()))?;
        let streams_at = columns
            .checked_mul(4)
            .and_then(|table| table.checked_add(pos as u64))
            .filter(|&at| at <= bytes.len() as u64)
            .ok_or_else(|| corrupt(format!("{columns} column offsets do not fit")))?
            as usize;
        let rows = usize::try_from(rows).map_err(|_| corrupt("row count overflows".into()))?;
        let mut parsed = Vec::with_capacity(columns as usize);
        let mut start = streams_at;
        for (column, entry) in bytes[pos..streams_at].chunks_exact(4).enumerate() {
            let end = streams_at + u32::from_le_bytes(entry.try_into().expect("4 bytes")) as usize;
            if end < start || end > bytes.len() {
                return Err(corrupt("column offsets are not monotone inside the buffer".into()));
            }
            let (count, bits, data) =
                bitpack::header(&bytes[start..end]).map_err(|e| corrupt(e.to_string()))?;
            if count != rows || bits > 32 || data.len() != (rows * bits as usize).div_ceil(8) {
                return Err(corrupt(format!(
                    "column {column} holds {count} x {bits}-bit values in {} bytes, expected {rows} rows",
                    data.len()
                )));
            }
            parsed.push((bits, end - data.len()..end));
            start = end;
        }
        if start != bytes.len() {
            return Err(corrupt("bytes past the last column stream".into()));
        }
        Ok(PackedPartition {
            rows,
            bytes,
            columns: parsed,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the partition holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of value columns.
    pub fn columns(&self) -> usize {
        self.columns.len()
    }

    /// Bytes the partition pins while resident: its serialized length.
    pub fn resident_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Reads the values at `slot` into `out` (one entry per column).
    ///
    /// # Panics
    /// When `slot >= len()` or `out.len() != columns()`.
    pub fn read_row(&self, slot: usize, out: &mut [u32]) {
        assert!(slot < self.rows, "slot {slot} out of range ({} rows)", self.rows);
        assert_eq!(out.len(), self.columns(), "one output per column");
        for (value, (bits, data)) in out.iter_mut().zip(&self.columns) {
            *value = bitpack::value_at(&self.bytes[data.clone()], *bits, slot) as u32;
        }
    }
}

/// A decoded array partition: keys sorted ascending, values stored row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayPartition {
    keys: Vec<u64>,
    values: Vec<u32>,
    value_columns: usize,
}

impl ArrayPartition {
    /// Builds a partition from rows (sorted internally).
    pub fn from_rows(rows: &[Row], value_columns: usize) -> Result<Self> {
        let mut sorted: Vec<&Row> = rows.iter().collect();
        sorted.sort_by_key(|r| r.key);
        let mut keys = Vec::with_capacity(rows.len());
        let mut values = Vec::with_capacity(rows.len() * value_columns);
        for row in sorted {
            if row.values.len() != value_columns {
                return Err(StorageError::InvalidConfig(format!(
                    "row {} has {} value columns, partition expects {value_columns}",
                    row.key,
                    row.values.len()
                )));
            }
            keys.push(row.key);
            values.extend_from_slice(&row.values);
        }
        Ok(ArrayPartition {
            keys,
            values,
            value_columns,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the partition holds no rows.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Smallest key in the partition (None when empty).
    pub fn min_key(&self) -> Option<u64> {
        self.keys.first().copied()
    }

    /// Largest key in the partition (None when empty).
    pub fn max_key(&self) -> Option<u64> {
        self.keys.last().copied()
    }

    /// Binary-search lookup.
    pub fn get(&self, key: u64) -> Option<&[u32]> {
        let idx = self.keys.binary_search(&key).ok()?;
        Some(&self.values[idx * self.value_columns..(idx + 1) * self.value_columns])
    }

    /// Iterates rows in key order.
    pub fn iter(&self) -> impl Iterator<Item = Row> + '_ {
        self.keys.iter().enumerate().map(|(i, &key)| {
            Row::new(
                key,
                self.values[i * self.value_columns..(i + 1) * self.value_columns].to_vec(),
            )
        })
    }

    /// Serializes to the fixed-width array format:
    /// `varint count | varint value_columns | per row: key u64 LE, values u32 LE...`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(16 + self.keys.len() * Row::fixed_width(self.value_columns));
        varint::write_u64(&mut out, self.keys.len() as u64);
        varint::write_u64(&mut out, self.value_columns as u64);
        for (i, &key) in self.keys.iter().enumerate() {
            out.extend_from_slice(&key.to_le_bytes());
            for &v in &self.values[i * self.value_columns..(i + 1) * self.value_columns] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Deserializes a buffer produced by [`ArrayPartition::to_bytes`].  This is the
    /// cheap deserialization path: one pass, no index rebuild.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let (count, pos) = varint::read_u64(bytes, 0).map_err(StorageError::from)?;
        let (value_columns, mut pos) = varint::read_u64(bytes, pos).map_err(StorageError::from)?;
        let count = count as usize;
        let value_columns = value_columns as usize;
        let row_width = Row::fixed_width(value_columns);
        if bytes.len() < pos + count * row_width {
            return Err(StorageError::Corrupt(format!(
                "array partition truncated: need {} bytes, have {}",
                pos + count * row_width,
                bytes.len()
            )));
        }
        let mut keys = Vec::with_capacity(count);
        let mut values = Vec::with_capacity(count * value_columns);
        let mut prev_key: Option<u64> = None;
        for _ in 0..count {
            let key = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"));
            pos += 8;
            if let Some(p) = prev_key {
                if key < p {
                    return Err(StorageError::Corrupt(
                        "array partition keys are not sorted".into(),
                    ));
                }
            }
            prev_key = Some(key);
            keys.push(key);
            for _ in 0..value_columns {
                values.push(u32::from_le_bytes(
                    bytes[pos..pos + 4].try_into().expect("4 bytes"),
                ));
                pos += 4;
            }
        }
        Ok(ArrayPartition {
            keys,
            values,
            value_columns,
        })
    }
}

/// A decoded hash partition: an open-addressing style serialized form rebuilt into a
/// `HashMap` on load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashPartition {
    map: HashMap<u64, Vec<u32>>,
    value_columns: usize,
}

impl HashPartition {
    /// Builds a partition from rows.
    pub fn from_rows(rows: &[Row], value_columns: usize) -> Result<Self> {
        let mut map = HashMap::with_capacity(rows.len() * 2);
        for row in rows {
            if row.values.len() != value_columns {
                return Err(StorageError::InvalidConfig(format!(
                    "row {} has {} value columns, partition expects {value_columns}",
                    row.key,
                    row.values.len()
                )));
            }
            map.insert(row.key, row.values.clone());
        }
        Ok(HashPartition { map, value_columns })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the partition holds no rows.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Constant-time lookup.
    pub fn get(&self, key: u64) -> Option<&[u32]> {
        self.map.get(&key).map(|v| v.as_slice())
    }

    /// Iterates rows in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = Row> + '_ {
        self.map
            .iter()
            .map(|(&key, values)| Row::new(key, values.clone()))
    }

    /// Serializes to the hash format.  The serialized form mirrors a persisted hash
    /// table: a bucket directory sized at twice the entry count (8 bytes per slot:
    /// entry index or the empty marker) followed by the entries themselves.  The
    /// directory is what makes hash partitions bigger on disk than array partitions.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.map.len();
        let buckets = (n * 2).next_power_of_two().max(8);
        let mut directory = vec![u64::MAX; buckets];
        let mut entries: Vec<(&u64, &Vec<u32>)> = self.map.iter().collect();
        // Deterministic output: order entries by key.
        entries.sort_by_key(|(k, _)| **k);
        for (i, (key, _)) in entries.iter().enumerate() {
            let mut slot = (*(*key) as usize).wrapping_mul(0x9E3779B97F4A7C15_usize % buckets) % buckets;
            // Linear probing for a free directory slot.
            while directory[slot] != u64::MAX {
                slot = (slot + 1) % buckets;
            }
            directory[slot] = i as u64;
        }
        let mut out = Vec::with_capacity(16 + buckets * 8 + n * Row::fixed_width(self.value_columns));
        varint::write_u64(&mut out, n as u64);
        varint::write_u64(&mut out, self.value_columns as u64);
        varint::write_u64(&mut out, buckets as u64);
        for slot in &directory {
            out.extend_from_slice(&slot.to_le_bytes());
        }
        for (key, values) in entries {
            out.extend_from_slice(&key.to_le_bytes());
            for &v in values.iter() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Deserializes a buffer produced by [`HashPartition::to_bytes`].  This is the
    /// expensive deserialization path: every entry is re-inserted into a fresh map,
    /// reproducing the cost profile of unpickling a Python dict.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let (count, pos) = varint::read_u64(bytes, 0).map_err(StorageError::from)?;
        let (value_columns, pos) = varint::read_u64(bytes, pos).map_err(StorageError::from)?;
        let (buckets, mut pos) = varint::read_u64(bytes, pos).map_err(StorageError::from)?;
        let count = count as usize;
        let value_columns = value_columns as usize;
        let buckets = buckets as usize;
        let dir_bytes = buckets * 8;
        let row_width = Row::fixed_width(value_columns);
        if bytes.len() < pos + dir_bytes + count * row_width {
            return Err(StorageError::Corrupt("hash partition truncated".into()));
        }
        // The directory is validated (every non-empty slot must reference a valid
        // entry) and then discarded — the in-memory representation is a std HashMap.
        for slot_bytes in bytes[pos..pos + dir_bytes].chunks_exact(8) {
            let slot = u64::from_le_bytes(slot_bytes.try_into().expect("8 bytes"));
            if slot != u64::MAX && slot as usize >= count {
                return Err(StorageError::Corrupt(format!(
                    "hash directory references entry {slot} of {count}"
                )));
            }
        }
        pos += dir_bytes;
        let mut map = HashMap::with_capacity(count * 2);
        for _ in 0..count {
            let key = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"));
            pos += 8;
            let mut values = Vec::with_capacity(value_columns);
            for _ in 0..value_columns {
                values.push(u32::from_le_bytes(
                    bytes[pos..pos + 4].try_into().expect("4 bytes"),
                ));
                pos += 4;
            }
            map.insert(key, values);
        }
        Ok(HashPartition { map, value_columns })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows(n: u64) -> Vec<Row> {
        (0..n)
            .map(|k| Row::new(k * 3 + 1, vec![(k % 5) as u32, (k % 7) as u32]))
            .collect()
    }

    #[test]
    fn partition_rows_respects_target_size_and_sorts() {
        let mut rows = sample_rows(100);
        rows.reverse();
        let partitions = partition_rows(&rows, 2, 160);
        // 16 bytes per row -> 10 rows per partition -> 10 partitions.
        assert_eq!(partitions.len(), 10);
        let mut last_key = 0u64;
        for p in &partitions {
            for r in p {
                assert!(r.key >= last_key);
                last_key = r.key;
            }
        }
        assert!(partition_rows(&[], 2, 160).is_empty());
    }

    #[test]
    fn array_partition_lookup_and_bounds() {
        let rows = sample_rows(50);
        let p = ArrayPartition::from_rows(&rows, 2).unwrap();
        assert_eq!(p.len(), 50);
        assert_eq!(p.min_key(), Some(1));
        assert_eq!(p.max_key(), Some(148));
        assert_eq!(p.get(4), Some(&[1u32, 1u32][..]));
        assert_eq!(p.get(5), None);
        let all: Vec<Row> = p.iter().collect();
        assert_eq!(all.len(), 50);
    }

    #[test]
    fn array_partition_round_trips() {
        let rows = sample_rows(200);
        let p = ArrayPartition::from_rows(&rows, 2).unwrap();
        let bytes = p.to_bytes();
        let restored = ArrayPartition::from_bytes(&bytes).unwrap();
        assert_eq!(restored, p);
    }

    #[test]
    fn array_partition_rejects_mismatched_columns_and_corruption() {
        let rows = vec![Row::new(1, vec![1])];
        assert!(ArrayPartition::from_rows(&rows, 2).is_err());
        let good = ArrayPartition::from_rows(&sample_rows(10), 2).unwrap();
        let bytes = good.to_bytes();
        assert!(ArrayPartition::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        assert!(ArrayPartition::from_bytes(&[]).is_err());
    }

    #[test]
    fn unsorted_serialized_array_is_rejected() {
        // Hand-craft a buffer with keys out of order.
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 2);
        varint::write_u64(&mut bytes, 0);
        bytes.extend_from_slice(&5u64.to_le_bytes());
        bytes.extend_from_slice(&3u64.to_le_bytes());
        assert!(ArrayPartition::from_bytes(&bytes).is_err());
    }

    #[test]
    fn hash_partition_lookup_and_round_trip() {
        let rows = sample_rows(100);
        let p = HashPartition::from_rows(&rows, 2).unwrap();
        assert_eq!(p.len(), 100);
        assert_eq!(p.get(1), Some(&[0u32, 0u32][..]));
        assert_eq!(p.get(2), None);
        let bytes = p.to_bytes();
        let restored = HashPartition::from_bytes(&bytes).unwrap();
        assert_eq!(restored.len(), p.len());
        for row in p.iter() {
            assert_eq!(restored.get(row.key), Some(row.values.as_slice()));
        }
    }

    #[test]
    fn hash_serialization_is_larger_than_array() {
        // The paper's observation: serialized hash tables carry directory overhead.
        let rows = sample_rows(1000);
        let array_bytes = ArrayPartition::from_rows(&rows, 2).unwrap().to_bytes();
        let hash_bytes = HashPartition::from_rows(&rows, 2).unwrap().to_bytes();
        assert!(
            hash_bytes.len() > array_bytes.len() + rows.len() * 4,
            "hash {} vs array {}",
            hash_bytes.len(),
            array_bytes.len()
        );
    }

    #[test]
    fn hash_partition_rejects_corruption() {
        let p = HashPartition::from_rows(&sample_rows(20), 2).unwrap();
        let bytes = p.to_bytes();
        assert!(HashPartition::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        assert!(HashPartition::from_bytes(&[]).is_err());
        assert!(HashPartition::from_rows(&[Row::new(1, vec![1, 2, 3])], 2).is_err());
    }

    #[test]
    fn packed_partition_round_trips_at_every_width() {
        // Width 1 (all zero), small domains, and the full 32 bits.
        let rows = 293usize;
        let columns: Vec<Vec<u32>> = vec![
            vec![0; rows],
            (0..rows as u32).map(|i| i % 4).collect(),
            (0..rows as u32).map(|i| i.wrapping_mul(2_654_435_761) % 64).collect(),
            (0..rows as u32).map(|i| if i == 7 { u32::MAX } else { i }).collect(),
        ];
        let packed = PackedPartition::from_columns(rows, &columns).unwrap();
        assert_eq!((packed.len(), packed.columns()), (rows, 4));
        assert_eq!(packed.resident_bytes(), packed.to_bytes().len());
        // Values only: header + offsets + the four streams, to the byte.
        let stream = |bits: usize| 2 + 1 + (rows * bits).div_ceil(8);
        assert_eq!(
            packed.to_bytes().len(),
            2 + 1 + 4 * 4 + stream(1) + stream(2) + stream(6) + stream(32)
        );
        let restored = PackedPartition::from_bytes(packed.to_bytes().to_vec()).unwrap();
        assert_eq!(restored, packed);
        let mut row = [0u32; 4];
        for slot in 0..rows {
            restored.read_row(slot, &mut row);
            let expected: Vec<u32> = columns.iter().map(|c| c[slot]).collect();
            assert_eq!(row.as_slice(), expected.as_slice(), "slot {slot}");
        }
        let rows: Vec<Row> =
            (0..rows).map(|slot| Row::new(0, columns.iter().map(|c| c[slot]).collect())).collect();
        assert_eq!(PackedPartition::from_rows(&rows.iter().collect::<Vec<_>>(), 4).unwrap(), packed);
        let empty = PackedPartition::from_columns(0, &[Vec::new(), Vec::new()]).unwrap();
        assert!(empty.is_empty());
        assert_eq!(PackedPartition::from_bytes(empty.to_bytes().to_vec()).unwrap(), empty);
    }

    #[test]
    fn packed_partition_rejects_anything_but_exactly_its_streams() {
        let columns = vec![(0..100u32).map(|i| i % 5).collect::<Vec<_>>(), vec![9; 100]];
        let good = PackedPartition::from_columns(100, &columns).unwrap().to_bytes().to_vec();
        let is_corrupt = |bytes: Vec<u8>| {
            matches!(PackedPartition::from_bytes(bytes), Err(StorageError::Corrupt(_)))
        };
        for cut in [0, 1, 2, 9, good.len() / 2, good.len() - 1] {
            assert!(is_corrupt(good[..cut].to_vec()), "truncated to {cut} bytes");
        }
        let mut padded = good.clone();
        padded.push(0);
        assert!(is_corrupt(padded), "trailing byte");
        // A stream cut short by moving the boundary between the two columns.
        let mut shifted = good.clone();
        shifted[2] -= 1;
        assert!(is_corrupt(shifted), "first stream one byte short");
        // A header row count the streams do not hold.
        let mut miscounted = good.clone();
        miscounted[0] = 99;
        assert!(is_corrupt(miscounted), "row count disagrees with the streams");
        assert!(PackedPartition::from_columns(3, &[vec![1, 2]]).is_err());
        assert!(PackedPartition::from_rows(&[&Row::new(1, vec![1])], 2).is_err());
        assert!(PackedPartition::from_bytes(good).is_ok());
    }

    #[test]
    fn layout_prefixes_match_paper_names() {
        assert_eq!(PartitionLayout::Array.paper_prefix(false), "AB");
        assert_eq!(PartitionLayout::Array.paper_prefix(true), "ABC");
        assert_eq!(PartitionLayout::Hash.paper_prefix(false), "HB");
        assert_eq!(PartitionLayout::Hash.paper_prefix(true), "HBC");
    }
}
