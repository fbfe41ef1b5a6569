//! The array-based (AB/ABC-*) and hash-based (HB/HBC-*) baseline stores.
//!
//! Both families follow the same lifecycle as in the paper:
//!
//! 1. **Build**: rows are sorted by key and split into partitions of a target
//!    uncompressed size; each partition is serialized with its layout's format
//!    (sorted array or hash table with a bucket directory), compressed with the
//!    configured codec and written to the simulated disk.
//! 2. **Lookup**: for each query key the store locates the partition (binary search
//!    over key ranges), brings it into the LRU buffer pool — paying load +
//!    decompression + deserialization on a miss — and then searches inside the
//!    partition (binary search for arrays, hash probe for hash tables).  Query keys
//!    are grouped by partition so each partition is decompressed at most once per
//!    batch, matching the paper's batching optimization.  A batch is traced like
//!    the DeepMapping pipeline's on a serial pool: one [`Stage::Plan`] span
//!    around the whole locate loop, the pool's [`Stage::PoolLoad`] /
//!    [`Stage::PoolWait`] span per cold partition, and one [`Stage::Probe`]
//!    span around the whole group loop, net of those pool spans.
//! 3. **Modification**: the affected partitions are loaded, rewritten and flushed
//!    back; inserts beyond the key range extend the last partition or open new ones.

use dm_compress::Codec;
use dm_storage::layout::{partition_rows, ArrayPartition, HashPartition, PartitionLayout};
use dm_storage::{
    span_net_of, BufferPool, DiskProfile, LookupBuffer, Metrics, MutableStore, Row,
    SimulatedDisk, Stage, StorageError, StoreStats, Trace, TupleStore,
};
use std::sync::Arc;

/// Configuration of a partitioned baseline store.
#[derive(Debug, Clone)]
pub struct PartitionedStoreConfig {
    /// Array or hash layout.
    pub layout: PartitionLayout,
    /// Codec applied to every partition (use [`Codec::None`] for AB / HB).
    pub codec: Codec,
    /// Target uncompressed partition size in bytes (the paper tunes 128 KB – 8 MB).
    pub partition_target_bytes: usize,
    /// Buffer-pool budget in bytes (models the machine's available memory).
    pub memory_budget_bytes: usize,
    /// I/O model of the simulated disk.
    pub disk_profile: DiskProfile,
}

impl PartitionedStoreConfig {
    /// An array-based configuration with the given codec.
    pub fn array(codec: Codec) -> Self {
        PartitionedStoreConfig {
            layout: PartitionLayout::Array,
            codec,
            partition_target_bytes: 512 * 1024,
            memory_budget_bytes: usize::MAX,
            disk_profile: DiskProfile::edge_ssd(),
        }
    }

    /// A hash-based configuration with the given codec.
    pub fn hash(codec: Codec) -> Self {
        PartitionedStoreConfig {
            layout: PartitionLayout::Hash,
            codec,
            partition_target_bytes: 128 * 1024,
            memory_budget_bytes: usize::MAX,
            disk_profile: DiskProfile::edge_ssd(),
        }
    }

    /// Sets the memory budget (bytes) available to the buffer pool.
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget_bytes = bytes;
        self
    }

    /// Sets the target uncompressed partition size.
    pub fn with_partition_bytes(mut self, bytes: usize) -> Self {
        self.partition_target_bytes = bytes.max(1024);
        self
    }

    /// Sets the disk I/O profile.
    pub fn with_disk_profile(mut self, profile: DiskProfile) -> Self {
        self.disk_profile = profile;
        self
    }

    /// The paper's name for a store with this configuration (`AB`, `ABC-Z`, `HB`, ...).
    pub fn paper_name(&self) -> String {
        let compressed = self.codec != Codec::None;
        let prefix = self.layout.paper_prefix(compressed);
        if compressed {
            format!("{prefix}-{}", self.codec.paper_suffix())
        } else {
            prefix.to_string()
        }
    }
}

/// A decoded partition held in the buffer pool.
#[derive(Debug)]
enum DecodedPartition {
    Array(ArrayPartition),
    Hash(HashPartition),
}

impl DecodedPartition {
    fn get(&self, key: u64) -> Option<&[u32]> {
        match self {
            DecodedPartition::Array(p) => p.get(key),
            DecodedPartition::Hash(p) => p.get(key),
        }
    }

    fn rows(&self) -> Vec<Row> {
        match self {
            DecodedPartition::Array(p) => p.iter().collect(),
            DecodedPartition::Hash(p) => {
                let mut rows: Vec<Row> = p.iter().collect();
                rows.sort_by_key(|r| r.key);
                rows
            }
        }
    }

    fn resident_bytes(&self, value_columns: usize) -> usize {
        let len = match self {
            DecodedPartition::Array(p) => p.len(),
            DecodedPartition::Hash(p) => p.len(),
        };
        // Hash partitions keep a table with per-entry overhead; arrays are flat.
        let per_row = Row::fixed_width(value_columns);
        match self {
            DecodedPartition::Array(_) => len * per_row,
            DecodedPartition::Hash(_) => len * (per_row + 48),
        }
    }
}

/// Directory entry describing one on-disk partition.
#[derive(Debug, Clone, Copy)]
struct PartitionMeta {
    disk_id: u64,
    min_key: u64,
    max_key: u64,
    rows: usize,
}

/// An array- or hash-partitioned key-value store backed by the simulated disk.
pub struct PartitionedStore {
    config: PartitionedStoreConfig,
    /// Paper-style name, computed once so [`TupleStore::name`] can borrow it.
    name: String,
    value_columns: usize,
    disk: SimulatedDisk,
    pool: BufferPool<DecodedPartition>,
    directory: Vec<PartitionMeta>,
    metrics: Metrics,
    tuple_count: usize,
}

impl std::fmt::Debug for PartitionedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionedStore")
            .field("name", &self.config.paper_name())
            .field("partitions", &self.directory.len())
            .field("tuples", &self.tuple_count)
            .finish()
    }
}

impl PartitionedStore {
    /// Builds a store from rows.  `value_columns` is the number of value columns every
    /// row must carry.
    pub fn build(
        rows: &[Row],
        value_columns: usize,
        config: PartitionedStoreConfig,
        metrics: Metrics,
    ) -> dm_storage::Result<Self> {
        let disk = SimulatedDisk::new(config.disk_profile);
        let pool = BufferPool::new(config.memory_budget_bytes, metrics.clone());
        let mut store = PartitionedStore {
            name: config.paper_name(),
            config,
            value_columns,
            disk,
            pool,
            directory: Vec::new(),
            metrics,
            tuple_count: 0,
        };
        let partitions = partition_rows(rows, value_columns, store.config.partition_target_bytes);
        for chunk in partitions {
            store.write_new_partition(&chunk)?;
        }
        store.tuple_count = rows.len();
        Ok(store)
    }

    /// The metrics handle this store charges its work to.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The store's configuration.
    pub fn config(&self) -> &PartitionedStoreConfig {
        &self.config
    }

    /// `(bytes, partitions)` the buffer pool holds right now.
    pub fn pool_usage(&self) -> (usize, usize) {
        (self.pool.used_bytes(), self.pool.len())
    }

    fn serialize_partition(&self, rows: &[Row]) -> dm_storage::Result<Vec<u8>> {
        match self.config.layout {
            PartitionLayout::Array => {
                Ok(ArrayPartition::from_rows(rows, self.value_columns)?.to_bytes())
            }
            PartitionLayout::Hash => {
                Ok(HashPartition::from_rows(rows, self.value_columns)?.to_bytes())
            }
        }
    }

    fn write_new_partition(&mut self, rows: &[Row]) -> dm_storage::Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        let payload = self.serialize_partition(rows)?;
        let disk_id = self.disk.write_partition(&self.config.codec, &payload);
        let min_key = rows.iter().map(|r| r.key).min().expect("non-empty");
        let max_key = rows.iter().map(|r| r.key).max().expect("non-empty");
        self.directory.push(PartitionMeta {
            disk_id,
            min_key,
            max_key,
            rows: rows.len(),
        });
        self.directory.sort_by_key(|m| m.min_key);
        Ok(())
    }

    /// Index into the directory of the partition that should hold `key`, if any
    /// partition's range covers or could cover it.
    fn locate(&self, key: u64) -> Option<usize> {
        if self.directory.is_empty() {
            return None;
        }
        // Binary search over min_key.
        let idx = match self.directory.binary_search_by_key(&key, |m| m.min_key) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        if key <= self.directory[idx].max_key {
            Some(idx)
        } else {
            None
        }
    }

    /// Partition index whose range is nearest to `key` (used when inserting keys that
    /// fall outside every existing range).
    fn locate_for_insert(&self, key: u64) -> Option<usize> {
        if self.directory.is_empty() {
            return None;
        }
        match self.directory.binary_search_by_key(&key, |m| m.min_key) {
            Ok(i) => Some(i),
            Err(0) => Some(0),
            Err(i) => Some(i - 1),
        }
    }

    /// Partition `idx` through the buffer pool, which records its load or wait
    /// span on `trace` when the caller carries one.
    fn load_partition(
        &self,
        idx: usize,
        trace: Option<&Trace>,
    ) -> dm_storage::Result<Arc<DecodedPartition>> {
        let meta = self.directory[idx];
        self.pool.get_or_load(meta.disk_id, trace, || {
            let payload = self.disk.read_partition(meta.disk_id, &self.metrics)?;
            let decoded = match self.config.layout {
                PartitionLayout::Array => {
                    ArrayPartition::from_bytes(&payload).map(DecodedPartition::Array)
                }
                PartitionLayout::Hash => {
                    HashPartition::from_bytes(&payload).map(DecodedPartition::Hash)
                }
            }?;
            let bytes = decoded.resident_bytes(self.value_columns);
            Ok((decoded, bytes))
        })
    }

    /// Rewrites partition `idx` with new rows (or deletes it when `rows` is empty).
    fn rewrite_partition(&mut self, idx: usize, rows: &[Row]) -> dm_storage::Result<()> {
        let meta = self.directory[idx];
        self.pool.invalidate(meta.disk_id);
        if rows.is_empty() {
            self.disk.delete_partition(meta.disk_id)?;
            self.directory.remove(idx);
            return Ok(());
        }
        let payload = self.serialize_partition(rows)?;
        self.disk
            .rewrite_partition(meta.disk_id, &self.config.codec, &payload)?;
        let entry = &mut self.directory[idx];
        entry.min_key = rows.iter().map(|r| r.key).min().expect("non-empty");
        entry.max_key = rows.iter().map(|r| r.key).max().expect("non-empty");
        entry.rows = rows.len();
        Ok(())
    }

    /// The traced body of a lookup batch: plan the partition groups, then load
    /// and probe each group once.
    fn probe_groups(
        &self,
        keys: &[u64],
        out: &mut LookupBuffer,
        trace: &Trace,
    ) -> dm_storage::Result<()> {
        let (groups, _unlocated) = {
            let _plan = trace.span(Stage::Plan);
            self.group_by_partition(keys)
        };
        let _probe = span_net_of(Some(trace), Stage::Probe, &[Stage::PoolLoad, Stage::PoolWait]);
        for (partition_idx, query_indices) in groups {
            let partition = self.load_partition(partition_idx, Some(trace))?;
            for qi in query_indices {
                if let Some(values) = partition.get(keys[qi]) {
                    out.set_hit(qi, values);
                }
            }
        }
        Ok(())
    }

    /// Groups query positions by the partition that should serve them.
    fn group_by_partition(&self, keys: &[u64]) -> (Vec<(usize, Vec<usize>)>, Vec<usize>) {
        let mut groups: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        let mut unlocated = Vec::new();
        for (qi, &key) in keys.iter().enumerate() {
            match self.locate(key) {
                Some(p) => groups.entry(p).or_default().push(qi),
                None => unlocated.push(qi),
            }
        }
        (groups.into_iter().collect(), unlocated)
    }
}

impl TupleStore for PartitionedStore {
    fn name(&self) -> &str {
        &self.name
    }

    fn lookup_batch_into(&self, keys: &[u64], out: &mut LookupBuffer) -> dm_storage::Result<()> {
        out.reset(keys);
        let trace = Trace::start("lookup_batch");
        let result = self.probe_groups(keys, out, &trace);
        trace.finish();
        result
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            disk_bytes: self.disk.total_bytes(),
            resident_bytes: self.directory.len() * std::mem::size_of::<PartitionMeta>(),
            tuple_count: self.tuple_count,
            partition_count: self.directory.len(),
        }
    }

    fn scan_range(&self, lo: u64, hi: u64) -> dm_storage::Result<Vec<Row>> {
        if lo > hi {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        // The directory is sorted by disjoint key ranges, so visiting overlapping
        // partitions in order (each loaded through the pool at most once) yields the
        // rows already key-ordered — `DecodedPartition::rows` is sorted for both
        // layouts.
        for (idx, meta) in self.directory.iter().enumerate() {
            if meta.max_key < lo {
                continue;
            }
            if meta.min_key > hi {
                break;
            }
            let partition = self.load_partition(idx, None)?;
            out.extend(
                partition
                    .rows()
                    .into_iter()
                    .filter(|row| (lo..=hi).contains(&row.key)),
            );
        }
        Ok(out)
    }
}

impl MutableStore for PartitionedStore {
    fn insert(&mut self, rows: &[Row]) -> dm_storage::Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        for row in rows {
            if row.values.len() != self.value_columns {
                return Err(StorageError::InvalidConfig(format!(
                    "row {} has {} value columns, store expects {}",
                    row.key,
                    row.values.len(),
                    self.value_columns
                )));
            }
        }
        // Group inserts by target partition (nearest existing range).
        let mut by_partition: std::collections::BTreeMap<usize, Vec<&Row>> =
            std::collections::BTreeMap::new();
        let mut fresh: Vec<Row> = Vec::new();
        for row in rows {
            match self.locate_for_insert(row.key) {
                Some(idx) => by_partition.entry(idx).or_default().push(row),
                None => fresh.push(row.clone()),
            }
        }
        // Process from the highest partition index down so directory indices stay
        // valid while we rewrite.
        for (idx, new_rows) in by_partition.into_iter().rev() {
            let partition = self.load_partition(idx, None)?;
            let mut merged: Vec<Row> = partition.rows();
            for row in new_rows {
                match merged.binary_search_by_key(&row.key, |r| r.key) {
                    Ok(pos) => {
                        if merged[pos].values != row.values {
                            merged[pos] = row.clone();
                        } else {
                            continue;
                        }
                    }
                    Err(pos) => {
                        merged.insert(pos, row.clone());
                        self.tuple_count += 1;
                    }
                }
            }
            // Split oversized partitions back to the target size.
            let row_width = Row::fixed_width(self.value_columns);
            let max_rows = (self.config.partition_target_bytes / row_width).max(1) * 2;
            if merged.len() > max_rows {
                let halves: Vec<Vec<Row>> = partition_rows(
                    &merged,
                    self.value_columns,
                    self.config.partition_target_bytes,
                );
                self.rewrite_partition(idx, &halves[0])?;
                for half in &halves[1..] {
                    self.write_new_partition(half)?;
                }
            } else {
                self.rewrite_partition(idx, &merged)?;
            }
        }
        if !fresh.is_empty() {
            let chunks = partition_rows(&fresh, self.value_columns, self.config.partition_target_bytes);
            for chunk in chunks {
                self.tuple_count += chunk.len();
                self.write_new_partition(&chunk)?;
            }
        }
        Ok(())
    }

    fn delete(&mut self, keys: &[u64]) -> dm_storage::Result<()> {
        let mut by_partition: std::collections::BTreeMap<usize, Vec<u64>> =
            std::collections::BTreeMap::new();
        for &key in keys {
            if let Some(idx) = self.locate(key) {
                by_partition.entry(idx).or_default().push(key);
            }
        }
        for (idx, victim_keys) in by_partition.into_iter().rev() {
            let partition = self.load_partition(idx, None)?;
            let victims: std::collections::HashSet<u64> = victim_keys.into_iter().collect();
            let before = partition.rows();
            let after: Vec<Row> = before
                .into_iter()
                .filter(|r| !victims.contains(&r.key))
                .collect();
            let removed = self.directory[idx].rows - after.len();
            self.tuple_count -= removed;
            self.rewrite_partition(idx, &after)?;
        }
        Ok(())
    }

    fn update(&mut self, rows: &[Row]) -> dm_storage::Result<()> {
        let mut by_partition: std::collections::BTreeMap<usize, Vec<&Row>> =
            std::collections::BTreeMap::new();
        for row in rows {
            if let Some(idx) = self.locate(row.key) {
                by_partition.entry(idx).or_default().push(row);
            }
        }
        for (idx, updates) in by_partition.into_iter().rev() {
            let partition = self.load_partition(idx, None)?;
            let mut merged = partition.rows();
            let mut changed = false;
            for row in updates {
                if let Ok(pos) = merged.binary_search_by_key(&row.key, |r| r.key) {
                    if merged[pos].values != row.values {
                        merged[pos].values = row.values.clone();
                        changed = true;
                    }
                }
            }
            if changed {
                self.rewrite_partition(idx, &merged)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_storage::row::ReferenceStore;

    fn sample_rows(n: u64) -> Vec<Row> {
        (0..n)
            .map(|k| Row::new(k * 2 + 1, vec![(k % 5) as u32, (k % 3) as u32]))
            .collect()
    }

    fn configs() -> Vec<PartitionedStoreConfig> {
        vec![
            PartitionedStoreConfig::array(Codec::None).with_partition_bytes(1024),
            PartitionedStoreConfig::array(Codec::Lz).with_partition_bytes(1024),
            PartitionedStoreConfig::array(Codec::LzHuff).with_partition_bytes(1024),
            PartitionedStoreConfig::array(Codec::Dictionary { record_width: 16 })
                .with_partition_bytes(1024),
            PartitionedStoreConfig::hash(Codec::None).with_partition_bytes(1024),
            PartitionedStoreConfig::hash(Codec::Lz).with_partition_bytes(1024),
        ]
    }

    #[test]
    fn paper_names_follow_the_convention() {
        assert_eq!(PartitionedStoreConfig::array(Codec::None).paper_name(), "AB");
        assert_eq!(PartitionedStoreConfig::array(Codec::Lz).paper_name(), "ABC-Z");
        assert_eq!(PartitionedStoreConfig::array(Codec::LzHuff).paper_name(), "ABC-L");
        assert_eq!(PartitionedStoreConfig::hash(Codec::None).paper_name(), "HB");
        assert_eq!(PartitionedStoreConfig::hash(Codec::Deflate).paper_name(), "HBC-G");
    }

    #[test]
    fn lookup_matches_reference_for_all_configs() {
        let rows = sample_rows(500);
        let reference = ReferenceStore::from_rows(&rows);
        let query_keys: Vec<u64> = (0..1000u64).collect();
        let expected = reference.lookup_batch(&query_keys).unwrap();
        let mut buffer = LookupBuffer::new();
        for config in configs() {
            let store =
                PartitionedStore::build(&rows, 2, config.clone(), Metrics::new()).unwrap();
            let got = store.lookup_batch(&query_keys).unwrap();
            assert_eq!(got, expected, "config {}", config.paper_name());
            store.lookup_batch_into(&query_keys, &mut buffer).unwrap();
            assert_eq!(buffer.to_options(), expected, "config {}", config.paper_name());
        }
    }

    #[test]
    fn scan_range_matches_reference_for_all_configs() {
        let rows = sample_rows(500);
        let reference = ReferenceStore::from_rows(&rows);
        for config in configs() {
            let store =
                PartitionedStore::build(&rows, 2, config.clone(), Metrics::new()).unwrap();
            for (lo, hi) in [(0u64, 0u64), (0, 57), (100, 500), (900, 2_000), (7, 3)] {
                assert_eq!(
                    store.scan_range(lo, hi).unwrap(),
                    reference.scan_range(lo, hi).unwrap(),
                    "config {} range {lo}..={hi}",
                    config.paper_name()
                );
            }
        }
    }

    #[test]
    fn compressed_stores_are_smaller_on_disk() {
        let rows = sample_rows(5_000);
        let plain = PartitionedStore::build(
            &rows,
            2,
            PartitionedStoreConfig::array(Codec::None),
            Metrics::new(),
        )
        .unwrap();
        let compressed = PartitionedStore::build(
            &rows,
            2,
            PartitionedStoreConfig::array(Codec::Lz),
            Metrics::new(),
        )
        .unwrap();
        assert!(compressed.stats().disk_bytes < plain.stats().disk_bytes / 2);
        assert_eq!(plain.stats().tuple_count, 5_000);
    }

    #[test]
    fn hash_store_is_larger_than_array_store() {
        let rows = sample_rows(5_000);
        let array = PartitionedStore::build(
            &rows,
            2,
            PartitionedStoreConfig::array(Codec::None),
            Metrics::new(),
        )
        .unwrap();
        let hash = PartitionedStore::build(
            &rows,
            2,
            PartitionedStoreConfig::hash(Codec::None),
            Metrics::new(),
        )
        .unwrap();
        assert!(hash.stats().disk_bytes > array.stats().disk_bytes);
    }

    #[test]
    fn modifications_track_the_reference_store() {
        let rows = sample_rows(300);
        for config in configs() {
            let metrics = Metrics::new();
            let mut store = PartitionedStore::build(&rows, 2, config.clone(), metrics).unwrap();
            let mut reference = ReferenceStore::from_rows(&rows);

            // Insert a mix of fresh keys (inside and beyond the key range).
            let inserts: Vec<Row> = vec![
                Row::new(0, vec![9, 9]),
                Row::new(100, vec![8, 8]),
                Row::new(10_001, vec![7, 7]),
            ];
            store.insert(&inserts).unwrap();
            reference.insert(&inserts).unwrap();

            // Delete some keys (existing and not).
            let deletions = vec![1u64, 3, 10_001, 99_999];
            store.delete(&deletions).unwrap();
            reference.delete(&deletions).unwrap();

            // Update some keys (existing and not).
            let updates = vec![Row::new(5, vec![4, 4]), Row::new(77_777, vec![1, 1])];
            store.update(&updates).unwrap();
            reference.update(&updates).unwrap();

            let probe: Vec<u64> = (0..700u64).chain([10_001, 77_777, 99_999]).collect();
            assert_eq!(
                store.lookup_batch(&probe).unwrap(),
                reference.lookup_batch(&probe).unwrap(),
                "config {}",
                config.paper_name()
            );
            assert_eq!(store.stats().tuple_count, reference.len());
        }
    }

    #[test]
    fn constrained_memory_causes_evictions_and_reloads() {
        let rows = sample_rows(20_000);
        let metrics = Metrics::new();
        let config = PartitionedStoreConfig::array(Codec::Lz)
            .with_partition_bytes(8 * 1024)
            .with_memory_budget(16 * 1024); // far smaller than the dataset
        let store = PartitionedStore::build(&rows, 2, config, metrics.clone()).unwrap();
        let keys: Vec<u64> = (0..40_000u64).step_by(37).collect();
        store.lookup_batch(&keys).unwrap();
        let snap = metrics.snapshot();
        assert!(snap.pool_evictions > 0, "expected evictions, got {snap:?}");
        assert!(snap.decompressions > 0);
        assert!(snap.bytes_read > 0);
        assert!(snap.simulated_io_nanos > 0);
    }

    /// A "20 %" pool holds 20 %: with a fifth of the decoded rows as budget the pool
    /// never holds more, and a pass over every partition reloads each one, every time.
    #[test]
    fn a_fifth_of_the_data_as_budget_is_never_exceeded_and_every_pass_reloads() {
        let rows = sample_rows(4_000);
        let budget = rows.len() * Row::fixed_width(2) / 5;
        let metrics = Metrics::new();
        let config = PartitionedStoreConfig::array(Codec::Lz)
            .with_partition_bytes(4 * 1024)
            .with_memory_budget(budget);
        let store = PartitionedStore::build(&rows, 2, config, metrics.clone()).unwrap();
        assert!(store.directory.len() >= 5);
        for _pass in 0..3 {
            metrics.reset();
            for meta in &store.directory {
                store.get(meta.min_key).unwrap();
                assert!(store.pool_usage().0 <= budget, "{:?}", store.pool_usage());
            }
            assert_eq!(metrics.snapshot().partition_loads, store.directory.len() as u64);
        }
    }

    #[test]
    fn ample_memory_avoids_repeated_decompression() {
        let rows = sample_rows(5_000);
        let metrics = Metrics::new();
        let config = PartitionedStoreConfig::array(Codec::Lz).with_partition_bytes(8 * 1024);
        let store = PartitionedStore::build(&rows, 2, config, metrics.clone()).unwrap();
        let keys: Vec<u64> = (0..10_000u64).collect();
        store.lookup_batch(&keys).unwrap();
        let first = metrics.snapshot().decompressions;
        store.lookup_batch(&keys).unwrap();
        let second = metrics.snapshot().decompressions;
        assert_eq!(first, second, "second pass must be served from the pool");
    }

    #[test]
    fn empty_store_and_empty_batches() {
        let mut store = PartitionedStore::build(
            &[],
            2,
            PartitionedStoreConfig::array(Codec::Lz),
            Metrics::new(),
        )
        .unwrap();
        assert_eq!(store.lookup_batch(&[1, 2, 3]).unwrap(), vec![None, None, None]);
        assert_eq!(store.stats().partition_count, 0);
        store.insert(&[]).unwrap();
        store.delete(&[]).unwrap();
        store.update(&[]).unwrap();
        // Insert into an empty store.
        store.insert(&[Row::new(5, vec![1, 2])]).unwrap();
        assert_eq!(store.get(5).unwrap(), Some(vec![1, 2]));
    }

    /// The baselines share the single-flight buffer pool: many threads
    /// hammering a cold store must decompress each partition exactly once.
    #[test]
    fn concurrent_cold_lookups_load_each_partition_once() {
        let rows = sample_rows(8_000);
        let metrics = Metrics::new();
        let config = PartitionedStoreConfig::array(Codec::Lz).with_partition_bytes(8 * 1024);
        let store = std::sync::Arc::new(
            PartitionedStore::build(&rows, 2, config, metrics.clone()).unwrap(),
        );
        let partitions = store.stats().partition_count as u64;
        assert!(partitions >= 2);
        let reference = ReferenceStore::from_rows(&rows);
        let keys: Vec<u64> = (0..16_000u64).collect();
        let expected = reference.lookup_batch(&keys).unwrap();
        metrics.reset();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let store = std::sync::Arc::clone(&store);
                let keys = &keys;
                let expected = &expected;
                s.spawn(move || {
                    assert_eq!(&store.lookup_batch(keys).unwrap(), expected);
                });
            }
        });
        let snap = metrics.snapshot();
        assert_eq!(
            snap.partition_loads, partitions,
            "racing readers must not duplicate cold loads (single-flight)"
        );
        assert_eq!(snap.decompressions, partitions);
        assert_eq!(snap.pool_misses, partitions);
        assert!(
            snap.pool_hits + snap.pool_single_flight_waits >= 7 * partitions,
            "the other seven threads were served by cache or latch: {snap:?}"
        );
    }

    /// A batch is traced like the pipeline's: one span per stage and partition
    /// group, never one per key.
    #[test]
    fn a_batch_in_one_partition_traces_one_plan_and_one_probe_span() {
        dm_obs::set_enabled(true);
        let rows = sample_rows(25_000);
        let config = PartitionedStoreConfig::array(Codec::Lz);
        let store = PartitionedStore::build(&rows, 2, config, Metrics::new()).unwrap();
        assert_eq!(store.stats().partition_count, 1);
        let keys: Vec<u64> = rows.iter().map(|row| row.key).collect();
        let mut buffer = LookupBuffer::new();
        // Cold, then warm: the first batch loads the partition once.
        for pool_spans in [1, 0] {
            store.lookup_batch_into(&keys, &mut buffer).unwrap();
            assert_eq!(buffer.hit_count(), keys.len());
            let summary = dm_obs::trace::take_last_batch().expect("the batch published a summary");
            assert_eq!(summary.events, 2 + pool_spans, "{summary:?}");
            assert!(summary.stage(Stage::Plan) > 0 && summary.stage(Stage::Probe) > 0, "{summary:?}");
            assert_eq!(summary.stage(Stage::PoolLoad) > 0, pool_spans == 1, "{summary:?}");
        }
    }

    /// Many partitions, one `Probe` span: the group loop is timed once, net
    /// of the cold loads inside it, as the DeepMapping pipeline times it.
    #[test]
    fn a_batch_over_many_partitions_traces_one_probe_span() {
        dm_obs::set_enabled(true);
        let rows = sample_rows(2_000);
        let config = PartitionedStoreConfig::array(Codec::Lz).with_partition_bytes(2 * 1024);
        let store = PartitionedStore::build(&rows, 2, config, Metrics::new()).unwrap();
        let partitions = store.stats().partition_count;
        assert!((4..=40).contains(&partitions), "{partitions} partitions");
        let keys: Vec<u64> = rows.iter().rev().map(|row| row.key).collect();
        let mut buffer = LookupBuffer::new();
        for loads in [partitions, 0] {
            store.lookup_batch_into(&keys, &mut buffer).unwrap();
            assert_eq!(buffer.hit_count(), keys.len());
            let summary = dm_obs::trace::take_last_batch().expect("the batch published a summary");
            assert_eq!(summary.events, 2 + loads, "Plan, the loads, one Probe: {summary:?}");
            let probe_and_pool = summary.stage(Stage::Probe)
                + summary.stage(Stage::PoolLoad)
                + summary.stage(Stage::PoolWait);
            assert!(probe_and_pool <= summary.total_nanos, "{summary:?}");
        }
    }

    #[test]
    fn mismatched_insert_width_is_rejected() {
        let mut store = PartitionedStore::build(
            &sample_rows(10),
            2,
            PartitionedStoreConfig::array(Codec::None),
            Metrics::new(),
        )
        .unwrap();
        assert!(store.insert(&[Row::new(1000, vec![1])]).is_err());
    }
}
