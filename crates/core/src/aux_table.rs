//! The auxiliary accuracy-assurance table `Taux` (Section IV-B1).
//!
//! Misclassified key-value pairs are sorted by key, split into equally-sized
//! partitions, and each partition is compressed (the paper uses Z-Standard or LZMA)
//! and stored on the simulated disk.  Lookups locate the partition covering a key,
//! bring it into the LRU buffer pool (paying load + decompression on a miss) and
//! binary-search inside it — Algorithm 1's validation step.
//!
//! The same structure absorbs modifications (Section IV-D): inserted/updated rows the
//! model cannot infer are staged in an in-memory *delta* overlay and deleted keys in a
//! tombstone set, so modifications never rewrite compressed partitions on the hot
//! path.  `compact()` folds the overlay back into freshly compressed partitions and is
//! invoked by the retraining workflow.

use crate::Result;
use dm_compress::Codec;
use dm_exec::ThreadPool;
use dm_obs::{Stage, Trace};
use dm_storage::layout::{partition_rows, ArrayPartition};
use dm_storage::{BufferPool, DiskProfile, Metrics, PartitionSource, Phase, Row, SimulatedDisk};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Directory entry for one compressed auxiliary partition.
#[derive(Debug, Clone, Copy)]
struct AuxPartitionMeta {
    disk_id: u64,
    min_key: u64,
    max_key: u64,
    rows: usize,
}

/// Public shape of one partition directory entry, in directory (= key) order.
/// Partition ids are implicit: entry `i` is partition id `i` of whatever
/// [`PartitionSource`] serves the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuxPartitionInfo {
    /// Smallest key stored in the partition.
    pub min_key: u64,
    /// Largest key stored in the partition.
    pub max_key: u64,
    /// Number of rows in the partition.
    pub rows: usize,
}

/// One partition's compressed frame plus its directory entry — what
/// `dm-persist` copies verbatim into a snapshot file.
#[derive(Debug, Clone)]
pub struct PartitionFrame {
    /// Directory entry of the partition.
    pub info: AuxPartitionInfo,
    /// The raw compressed frame bytes (self-describing `dm_compress` frame).
    pub frame: Arc<Vec<u8>>,
}

/// Everything needed to reconstitute an [`AuxTable`] over an external
/// (e.g. snapshot-file-backed) [`PartitionSource`] without rebuilding it.
#[derive(Debug, Clone)]
pub struct AuxTableSnapshot {
    /// Codec future compactions will compress with.
    pub codec: Codec,
    /// Target uncompressed partition size for future compactions.
    pub partition_bytes: usize,
    /// Buffer-pool byte budget.
    pub memory_budget_bytes: usize,
    /// Disk profile future compactions rebuild their simulated disk with.
    pub disk_profile: DiskProfile,
    /// Number of value columns per row.
    pub value_columns: usize,
    /// Partition directory; entry `i` describes partition id `i` of the source.
    pub partitions: Vec<AuxPartitionInfo>,
    /// The delta overlay rows (key order not required).
    pub delta: Vec<Row>,
    /// The tombstoned keys.
    pub tombstones: Vec<u64>,
}

/// Which backing serves (and, for the simulated variant, absorbs) partitions.
///
/// Reads and writes are deliberately split: writes always reach the concrete
/// simulated disk, while the *read* side is an `Arc<dyn PartitionSource>` that
/// may be wrapped in a [`dm_faults::FaultyPartitionSource`] — either by the
/// `DM_FAULTS` environment plan at construction or programmatically via
/// [`AuxTable::inject_faults`].  This is what lets chaos tests corrupt or fail
/// reads without ever producing an unwritable table.
#[derive(Debug)]
enum Backing {
    /// The writable in-memory simulated disk — build path and compactions.
    /// `read` serves lookups and is `disk` itself unless fault-wrapped.
    Simulated {
        disk: Arc<SimulatedDisk>,
        read: Arc<dyn PartitionSource>,
    },
    /// A read-only external source (snapshot file extents).  Modifications are
    /// absorbed by the overlay; a compaction migrates back to a fresh
    /// simulated disk.
    External(Arc<dyn PartitionSource>),
}

impl Backing {
    /// A fresh writable backing whose read side honours the `DM_FAULTS`
    /// environment plan (a no-op wrapper-free pass-through when unset).
    fn simulated(disk: SimulatedDisk) -> Self {
        let disk = Arc::new(disk);
        let read = dm_faults::wrap_from_env(Arc::clone(&disk) as Arc<dyn PartitionSource>);
        Backing::Simulated { disk, read }
    }

    fn source(&self) -> &dyn PartitionSource {
        match self {
            Backing::Simulated { read, .. } => read.as_ref(),
            Backing::External(source) => source.as_ref(),
        }
    }
}

/// One batch's auxiliary probe plan (see [`AuxTable::plan_probes`]).
#[derive(Debug, Default)]
struct ProbePlan {
    /// Query indices the delta overlay answers without touching disk.
    resolved: Vec<usize>,
    /// Partition index → query indices that must be checked inside that partition.
    groups: BTreeMap<usize, Vec<usize>>,
}

/// One partition group's probe results, collected by a pool task: hit query
/// indices plus their values in a flat `columns`-stride arena, so the parallel
/// path allocates per *group*, never per key.
struct GroupHits {
    columns: usize,
    qis: Vec<usize>,
    values: Vec<u32>,
}

/// The auxiliary accuracy-assurance table.
pub struct AuxTable {
    codec: Codec,
    partition_bytes: usize,
    memory_budget_bytes: usize,
    disk_profile: DiskProfile,
    value_columns: usize,
    backing: Backing,
    pool: BufferPool<ArrayPartition>,
    directory: Vec<AuxPartitionMeta>,
    /// Rows added/updated since the last compaction (key → values).
    delta: BTreeMap<u64, Vec<u32>>,
    /// Keys removed from the compressed partitions since the last compaction.
    tombstones: BTreeSet<u64>,
    metrics: Metrics,
    /// Decayed per-partition heat, fed by the buffer pool (accesses/misses)
    /// and the loader (decompressions).  Recording is `DM_OBS`-gated inside
    /// `HeatMap`; reports come out through [`heat_report`](Self::heat_report).
    heat: Arc<dm_obs::HeatMap>,
}

impl std::fmt::Debug for AuxTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuxTable")
            .field("partitions", &self.directory.len())
            .field("delta_rows", &self.delta.len())
            .field("tombstones", &self.tombstones.len())
            .finish()
    }
}

impl AuxTable {
    /// Builds the table from the misclassified rows of the model evaluation pass.
    pub fn build(
        misclassified: &[Row],
        value_columns: usize,
        codec: Codec,
        partition_bytes: usize,
        memory_budget_bytes: usize,
        disk_profile: DiskProfile,
        metrics: Metrics,
    ) -> Result<Self> {
        let heat = Arc::new(dm_obs::HeatMap::default());
        let mut pool = BufferPool::new(memory_budget_bytes, metrics.clone());
        pool.attach_heat(Arc::clone(&heat));
        let mut table = AuxTable {
            codec,
            partition_bytes,
            memory_budget_bytes,
            disk_profile,
            value_columns,
            backing: Backing::simulated(SimulatedDisk::new(disk_profile)),
            pool,
            directory: Vec::new(),
            delta: BTreeMap::new(),
            tombstones: BTreeSet::new(),
            metrics,
            heat,
        };
        table.write_partitions(misclassified)?;
        Ok(table)
    }

    /// Reconstitutes a table over an external read-only [`PartitionSource`] —
    /// the lazy-open path of `dm-persist`: only the directory and overlay are
    /// materialized; partitions stay in the source until a lookup touches them.
    pub fn open_from_source(
        source: Arc<dyn PartitionSource>,
        snapshot: AuxTableSnapshot,
        metrics: Metrics,
    ) -> Self {
        let heat = Arc::new(dm_obs::HeatMap::default());
        let mut pool = BufferPool::new(snapshot.memory_budget_bytes, metrics.clone());
        pool.attach_heat(Arc::clone(&heat));
        let mut directory: Vec<AuxPartitionMeta> = snapshot
            .partitions
            .iter()
            .enumerate()
            .map(|(id, info)| AuxPartitionMeta {
                disk_id: id as u64,
                min_key: info.min_key,
                max_key: info.max_key,
                rows: info.rows,
            })
            .collect();
        directory.sort_by_key(|m| m.min_key);
        AuxTable {
            codec: snapshot.codec,
            partition_bytes: snapshot.partition_bytes,
            memory_budget_bytes: snapshot.memory_budget_bytes,
            disk_profile: snapshot.disk_profile,
            value_columns: snapshot.value_columns,
            backing: Backing::External(dm_faults::wrap_from_env(source)),
            pool,
            directory,
            delta: snapshot
                .delta
                .into_iter()
                .map(|row| (row.key, row.values))
                .collect(),
            tombstones: snapshot.tombstones.into_iter().collect(),
            metrics,
            heat,
        }
    }

    /// Rewraps the read side of the backing with `faults` — the programmatic
    /// activation path for chaos tests (the environment path is
    /// `DM_FAULTS` + [`dm_faults::wrap_from_env`] at construction).  The
    /// buffer pool is cleared so the plan applies to the very next probe
    /// instead of waiting for evictions; writes keep reaching the concrete
    /// disk untouched.
    pub fn inject_faults(&mut self, faults: Arc<dm_faults::Faults>) {
        match &mut self.backing {
            Backing::Simulated { disk, read } => {
                *read = Arc::new(dm_faults::FaultyPartitionSource::new(
                    Arc::clone(disk) as Arc<dyn PartitionSource>,
                    faults,
                ));
            }
            Backing::External(source) => {
                *source = Arc::new(dm_faults::FaultyPartitionSource::new(
                    Arc::clone(source),
                    faults,
                ));
            }
        }
        self.pool.clear();
    }

    fn write_partitions(&mut self, rows: &[Row]) -> Result<()> {
        let Backing::Simulated { disk, .. } = &self.backing else {
            return Err(crate::CoreError::InvalidConfig(
                "cannot write partitions into a read-only external partition source".into(),
            ));
        };
        for chunk in partition_rows(rows, self.value_columns, self.partition_bytes) {
            let partition = ArrayPartition::from_rows(&chunk, self.value_columns)
                .map_err(crate::CoreError::from)?;
            let payload = partition.to_bytes();
            let disk_id = disk.write_partition(&self.codec, &payload, &self.metrics);
            self.directory.push(AuxPartitionMeta {
                disk_id,
                min_key: partition.min_key().expect("chunk not empty"),
                max_key: partition.max_key().expect("chunk not empty"),
                rows: partition.len(),
            });
        }
        self.directory.sort_by_key(|m| m.min_key);
        Ok(())
    }

    /// Number of value columns per row.
    pub fn value_columns(&self) -> usize {
        self.value_columns
    }

    /// Number of rows currently represented (partitions + delta − tombstoned rows).
    ///
    /// Tombstones only count against rows that actually live in a partition, so the
    /// value is exact, not an estimate.
    pub fn len(&self) -> usize {
        let partition_rows: usize = self.directory.iter().map(|m| m.rows).sum();
        partition_rows + self.delta.len() - self.tombstones.len()
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of compressed partitions.
    pub fn partition_count(&self) -> usize {
        self.directory.len()
    }

    /// Compressed on-disk footprint plus the in-memory overlay — the `size(Taux)` term
    /// of Eq. 1.
    pub fn size_bytes(&self) -> usize {
        let overlay = self.delta.len() * Row::fixed_width(self.value_columns) + self.tombstones.len() * 8;
        self.backing.source().total_bytes() + overlay
    }

    /// The metrics handle this table charges loads/decompressions to.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Locates the partition whose key range covers `key`.
    fn locate(&self, key: u64) -> Option<usize> {
        if self.directory.is_empty() {
            return None;
        }
        let idx = match self.directory.binary_search_by_key(&key, |m| m.min_key) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        (key <= self.directory[idx].max_key).then_some(idx)
    }

    /// Loads partition `idx` through the single-flight buffer pool, recording
    /// pool wait/load spans on `trace` when the caller carries one.  Keeps the
    /// raw [`dm_storage::StorageError`] so degradation-aware callers
    /// ([`probe_batch`](Self::probe_batch)) can attach the typed error to
    /// exactly the keys it affects.
    fn load_partition(
        &self,
        idx: usize,
        trace: Option<&Trace>,
    ) -> dm_storage::Result<Arc<ArrayPartition>> {
        let meta = self.directory[idx];
        let source = self.backing.source();
        let metrics = &self.metrics;
        let heat = &self.heat;
        self.pool.get_or_load_observed(meta.disk_id, trace, || {
            let payload = metrics.time(Phase::LoadAndDecompress, || {
                source.read_partition(meta.disk_id, metrics)
            })?;
            heat.touch(meta.disk_id, dm_obs::Touch::Decompress);
            let partition = metrics
                .time(Phase::LoadAndDecompress, || ArrayPartition::from_bytes(&payload))?;
            let bytes = partition.len() * Row::fixed_width(partition.iter().next().map(|r| r.values.len()).unwrap_or(0));
            Ok((partition, bytes.max(64)))
        })
    }

    /// Looks up a key in the auxiliary table (Algorithm 1, lines 6–8).
    pub fn get(&self, key: u64) -> Result<Option<Vec<u32>>> {
        // Overlay first: it reflects the most recent modifications.
        if let Some(values) = self.delta.get(&key) {
            return Ok(Some(values.clone()));
        }
        if self.tombstones.contains(&key) {
            return Ok(None);
        }
        let Some(idx) = self
            .metrics
            .time(Phase::LocatePartition, || self.locate(key))
        else {
            return Ok(None);
        };
        let partition = self.load_partition(idx, None)?;
        Ok(self
            .metrics
            .time(Phase::AuxiliaryLookup, || partition.get(key).map(|v| v.to_vec())))
    }

    /// Looks up many keys, visiting each partition at most once (the query keys are
    /// processed grouped by partition, mirroring the batch-sorting optimization of
    /// Section IV-B2).  Answers any key list; the query pipeline asks only for
    /// the keys `Vaux` routes here.
    ///
    /// Runs on the shared [`dm_exec::global`] pool.  The owned shape has no
    /// per-key error channel, so it keeps the strict contract: any failed
    /// partition fails the whole call.
    pub fn get_batch(&self, keys: &[u64]) -> Result<Vec<Option<Vec<u32>>>> {
        let mut results: Vec<Option<Vec<u32>>> = vec![None; keys.len()];
        let degraded = self.probe_batch(keys, dm_exec::global(), None, &mut |qi, values| {
            results[qi] = Some(values.to_vec())
        });
        match degraded.into_iter().next() {
            Some((_, err)) => Err(crate::CoreError::from(err)),
            None => Ok(results),
        }
    }

    /// Plans and probes one batch: calls `sink(query_index, values)` once for
    /// every key the table answers, handing out borrowed slices (from the delta
    /// overlay or the pooled decompressed partitions) instead of allocating per
    /// hit.  Each compressed partition is loaded and decompressed at most once
    /// per batch.
    ///
    /// With a parallel pool and at least two partition groups, the groups are
    /// probed as independent pool tasks — safe because the read path is
    /// `&self + Sync` and the buffer pool's single-flight sharding keeps racing
    /// cold loads deduplicated.  `sink` is always invoked serially on the calling
    /// thread, after the parallel section, so it needs no synchronization.
    ///
    /// **Graceful degradation:** a partition whose load fails (after the
    /// buffer pool's bounded transient retries) does *not* fail the batch.
    /// Its group's query indices are returned, each paired with the typed
    /// [`dm_storage::StorageError`], and every other group is probed and
    /// answered byte-identically to a fault-free run.  Callers decide the
    /// policy: the pipeline marks the affected spans failed in the
    /// [`LookupBuffer`](dm_storage::LookupBuffer); [`get_batch`](Self::get_batch)
    /// surfaces the first error for the whole batch.
    pub(crate) fn probe_batch(
        &self,
        keys: &[u64],
        exec: &ThreadPool,
        trace: Option<&Trace>,
        sink: &mut dyn FnMut(usize, &[u32]),
    ) -> Vec<(usize, dm_storage::StorageError)> {
        let plan_begin = std::time::Instant::now();
        let plan = self.plan_probes(keys);
        if let Some(trace) = trace {
            trace.record_span(Stage::Plan, plan_begin, plan_begin.elapsed());
        }
        for qi in plan.resolved {
            if let Some(values) = self.delta.get(&keys[qi]) {
                sink(qi, values);
            }
        }
        let mut degraded: Vec<(usize, dm_storage::StorageError)> = Vec::new();
        let mut degrade = |query_indices: &[usize], err: dm_storage::StorageError| {
            self.metrics.add_degraded_keys(query_indices.len() as u64);
            degraded.extend(query_indices.iter().map(|&qi| (qi, err.clone())));
        };
        let groups: Vec<(usize, Vec<usize>)> = plan.groups.into_iter().collect();
        if groups.len() >= 2 && exec.threads() > 1 {
            let mut results: Vec<Option<dm_storage::Result<GroupHits>>> =
                std::iter::repeat_with(|| None).take(groups.len()).collect();
            exec.scope(|s| {
                for (slot, (idx, query_indices)) in results.iter_mut().zip(groups.iter()) {
                    s.spawn(move || {
                        *slot = Some(self.probe_group(*idx, query_indices, keys, trace));
                    });
                }
            });
            for (result, (_, query_indices)) in results.into_iter().zip(groups.iter()) {
                match result.expect("scope waits for every probe task") {
                    Ok(hits) => {
                        for (i, &qi) in hits.qis.iter().enumerate() {
                            sink(qi, &hits.values[i * hits.columns..(i + 1) * hits.columns]);
                        }
                    }
                    Err(err) => degrade(query_indices, err),
                }
            }
        } else {
            for (idx, query_indices) in &groups {
                let partition = match self.load_partition(*idx, trace) {
                    Ok(partition) => partition,
                    Err(err) => {
                        degrade(query_indices, err);
                        continue;
                    }
                };
                let begin = std::time::Instant::now();
                self.metrics.time(Phase::AuxiliaryLookup, || {
                    for &qi in query_indices {
                        if let Some(values) = partition.get(keys[qi]) {
                            sink(qi, values);
                        }
                    }
                });
                if let Some(trace) = trace {
                    trace.record_span(Stage::Probe, begin, begin.elapsed());
                }
            }
        }
        degraded
    }

    /// Probes one partition group (pool task body of the parallel stage-3 path):
    /// loads the partition through the single-flight pool and collects the hits
    /// into an owned, flat per-group arena.  The probe search records a
    /// [`Stage::Probe`] span on `trace` (the load records its own pool spans),
    /// which is safe from a pool worker — trace recording is lock-free and the
    /// scope barrier orders it before `finish`.
    fn probe_group(
        &self,
        idx: usize,
        query_indices: &[usize],
        keys: &[u64],
        trace: Option<&Trace>,
    ) -> dm_storage::Result<GroupHits> {
        let partition = self.load_partition(idx, trace)?;
        let mut hits = GroupHits {
            columns: self.value_columns,
            qis: Vec::new(),
            values: Vec::new(),
        };
        let begin = std::time::Instant::now();
        self.metrics.time(Phase::AuxiliaryLookup, || {
            for &qi in query_indices {
                if let Some(values) = partition.get(keys[qi]) {
                    hits.qis.push(qi);
                    hits.values.extend_from_slice(values);
                }
            }
        });
        if let Some(trace) = trace {
            trace.record_span(Stage::Probe, begin, begin.elapsed());
        }
        Ok(hits)
    }

    /// Planning for a probe batch: answers whatever the in-memory delta overlay /
    /// tombstones can resolve immediately and groups the remaining keys by the
    /// compressed partition that covers them, so each partition is loaded and
    /// decompressed at most once per batch no matter how the keys interleave.
    fn plan_probes(&self, keys: &[u64]) -> ProbePlan {
        let mut plan = ProbePlan::default();
        self.metrics.time(Phase::LocatePartition, || {
            for (qi, &key) in keys.iter().enumerate() {
                if self.delta.contains_key(&key) {
                    plan.resolved.push(qi);
                } else if !self.tombstones.contains(&key) {
                    if let Some(idx) = self.locate(key) {
                        plan.groups.entry(idx).or_default().push(qi);
                    }
                }
            }
        });
        plan
    }

    /// Adds (or replaces) a misclassified row — used by `Insert` (Algorithm 3) and
    /// `Update` (Algorithm 5).  `held` is the caller's `Vaux` bit for the key:
    /// whether the table answers it right now.  That bit is what spares the
    /// write path a partition load: a held key outside the overlay is live in a
    /// partition, and that copy must be shadowed until the next compaction (a
    /// key already in the overlay had its partition copy tombstoned on entry).
    pub(crate) fn upsert(&mut self, row: Row, held: bool) {
        debug_assert!(
            !held || self.delta.contains_key(&row.key) || self.live_in_a_partition(row.key),
            "key {} is marked held but neither the overlay nor a partition can hold it",
            row.key
        );
        if held && !self.delta.contains_key(&row.key) {
            self.tombstones.insert(row.key);
        }
        self.delta.insert(row.key, row.values);
    }

    /// Removes a key the table currently answers (the caller's `Vaux` bit is
    /// set) — used by `Delete` (Algorithm 4) and by `Update` when the model
    /// turns out to predict the new value correctly (Algorithm 5, line 4).  A
    /// key outside the overlay is live in a partition and gets a tombstone; an
    /// overlay key's partition copy, if any, already has one.
    pub(crate) fn remove(&mut self, key: u64) {
        debug_assert!(
            self.delta.contains_key(&key) || self.live_in_a_partition(key),
            "key {key} is removed but neither the overlay nor a partition can hold it"
        );
        if self.delta.remove(&key).is_none() {
            self.tombstones.insert(key);
        }
    }

    /// The cheap half of "a partition holds `key`": not tombstoned, and inside
    /// some partition's key range.  Checks the callers' `Vaux` contract in
    /// debug builds without loading anything.
    fn live_in_a_partition(&self, key: u64) -> bool {
        !self.tombstones.contains(&key) && self.locate(key).is_some()
    }

    /// Decodes partition `idx` for a full-table scan *without* caching it: a
    /// resident copy is reused (via `peek`), but a cold partition is read and
    /// decompressed straight from disk and dropped after use.  This is what keeps
    /// retrain-time scans ([`iter_rows`](Self::iter_rows), and
    /// `DeepMapping::materialize_rows` above it) from evicting the hot working
    /// set out of the lookup path's buffer pool.
    fn decode_partition_bypass(&self, idx: usize) -> Result<Arc<ArrayPartition>> {
        let meta = self.directory[idx];
        if let Some(resident) = self.pool.peek(meta.disk_id) {
            return Ok(resident);
        }
        let payload = self
            .metrics
            .time(Phase::LoadAndDecompress, || {
                self.backing.source().read_partition(meta.disk_id, &self.metrics)
            })
            .map_err(crate::CoreError::from)?;
        let partition = self
            .metrics
            .time(Phase::LoadAndDecompress, || ArrayPartition::from_bytes(&payload))
            .map_err(crate::CoreError::from)?;
        Ok(Arc::new(partition))
    }

    /// Iterates every live row (partitions merged with the overlay), in key order.
    ///
    /// Partitions are streamed one at a time through a pool-*bypass* decode (see
    /// `decode_partition_bypass`) and merge-joined
    /// with the sorted delta overlay, so a full-table scan neither evicts the hot
    /// working set nor materializes more than one decoded partition at a time.
    pub fn iter_rows(&self) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(self.len());
        let mut delta = self.delta.iter().peekable();
        // The directory is sorted by disjoint key ranges and rows are sorted
        // within each partition, so partition order is global key order.
        for idx in 0..self.directory.len() {
            let partition = self.decode_partition_bypass(idx)?;
            for row in partition.iter() {
                // Delta rows with smaller keys interleave first.
                while delta.peek().is_some_and(|(&k, _)| k < row.key) {
                    let (&key, values) = delta.next().expect("peeked");
                    out.push(Row::new(key, values.clone()));
                }
                if delta.peek().is_some_and(|(&k, _)| k == row.key) {
                    // The overlay shadows the partition copy.
                    let (&key, values) = delta.next().expect("peeked");
                    out.push(Row::new(key, values.clone()));
                    continue;
                }
                if self.tombstones.contains(&row.key) {
                    continue;
                }
                out.push(row);
            }
        }
        for (&key, values) in delta {
            out.push(Row::new(key, values.clone()));
        }
        Ok(out)
    }

    /// Folds the delta overlay and tombstones back into freshly compressed partitions.
    ///
    /// The rebuild always lands on a fresh in-memory [`SimulatedDisk`] — this is also
    /// how a read-only snapshot-backed table migrates back to a writable backing
    /// (`dm-persist` then re-snapshots the result atomically).
    pub fn compact(&mut self) -> Result<()> {
        let rows = self.iter_rows()?;
        // The fresh disk reuses partition ids from 0, so drop every cached entry
        // before the directory switches over.
        self.pool.clear();
        self.directory.clear();
        self.delta.clear();
        self.tombstones.clear();
        // Note: a compaction re-derives the read wrapper from the environment
        // plan; a programmatically injected [`inject_faults`](Self::inject_faults)
        // wrapper must be re-installed by the test after compacting.
        self.backing = Backing::simulated(SimulatedDisk::new(self.disk_profile));
        self.write_partitions(&rows)?;
        Ok(())
    }

    /// The delta-overlay size in bytes (used by the retraining trigger).
    pub fn overlay_bytes(&self) -> usize {
        self.delta.len() * Row::fixed_width(self.value_columns) + self.tombstones.len() * 8
    }

    /// Rows currently staged in the delta overlay.
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// Live tombstones shadowing partition rows.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// Partition-heat report over this table's buffer pool: top-`top_k`
    /// hot/cold partitions by decayed score plus resident-vs-budget pressure.
    /// Partition ids in the report are this table's disk ids.  Empty (all
    /// zeros) under `DM_OBS=off`, since nothing feeds the tracker.
    pub fn heat_report(&self, top_k: usize) -> dm_obs::HeatReport {
        let mut report = self.heat.report(top_k);
        report.resident_bytes = self.pool.used_bytes() as u64;
        // A budget of usize::MAX models "memory comfortably holds everything"
        // — report it as unknown/unbounded rather than as a pressure ratio.
        if self.memory_budget_bytes != usize::MAX {
            report.budget_bytes = self.memory_budget_bytes as u64;
        }
        report
    }

    /// The advisor's pool-pressure input, extracted from
    /// [`heat_report`](Self::heat_report).
    pub fn pool_pressure(&self) -> dm_obs::PoolPressure {
        let report = self.heat_report(0);
        dm_obs::PoolPressure {
            resident_bytes: report.resident_bytes,
            budget_bytes: report.budget_bytes,
            miss_rate: report.miss_rate(),
        }
    }

    /// The public partition directory, in key order (entry `i` ↔ partition id `i`
    /// once written to a snapshot in this order).
    pub fn partition_directory(&self) -> Vec<AuxPartitionInfo> {
        self.directory
            .iter()
            .map(|m| AuxPartitionInfo {
                min_key: m.min_key,
                max_key: m.max_key,
                rows: m.rows,
            })
            .collect()
    }

    /// Exports one compressed partition frame verbatim, by directory index —
    /// the snapshot writer streams these straight into the file one at a time,
    /// bounding its memory at a single frame.  The read is charged to a scratch
    /// [`Metrics`] so exporting a snapshot does not pollute the store's lookup
    /// counters, and the frame is fetched source-to-source without touching the
    /// buffer pool.
    pub fn partition_frame(&self, idx: usize) -> Result<PartitionFrame> {
        let meta = self.directory.get(idx).ok_or_else(|| {
            crate::CoreError::InvalidConfig(format!(
                "partition index {idx} out of range ({} partitions)",
                self.directory.len()
            ))
        })?;
        let scratch = Metrics::new();
        let frame = self
            .backing
            .source()
            .read_frame(meta.disk_id, &scratch)
            .map_err(crate::CoreError::from)?;
        Ok(PartitionFrame {
            info: AuxPartitionInfo {
                min_key: meta.min_key,
                max_key: meta.max_key,
                rows: meta.rows,
            },
            frame,
        })
    }

    /// Every partition frame at once, in directory order (convenience over
    /// [`partition_frame`](Self::partition_frame); materializes all frames).
    pub fn partition_frames(&self) -> Result<Vec<PartitionFrame>> {
        (0..self.directory.len()).map(|idx| self.partition_frame(idx)).collect()
    }

    /// The delta-overlay rows in key order.
    pub fn delta_rows(&self) -> Vec<Row> {
        self.delta
            .iter()
            .map(|(&key, values)| Row::new(key, values.clone()))
            .collect()
    }

    /// The tombstoned keys in ascending order.
    pub fn tombstone_keys(&self) -> Vec<u64> {
        self.tombstones.iter().copied().collect()
    }

    /// The snapshot description of this table (directory + overlay + rebuild knobs);
    /// pair it with [`partition_frames`](Self::partition_frames) to persist, and with
    /// [`open_from_source`](Self::open_from_source) to reconstitute.
    pub fn to_snapshot(&self) -> AuxTableSnapshot {
        AuxTableSnapshot {
            codec: self.codec,
            partition_bytes: self.partition_bytes,
            memory_budget_bytes: self.memory_budget_bytes,
            disk_profile: self.disk_profile,
            value_columns: self.value_columns,
            partitions: self.partition_directory(),
            delta: self.delta_rows(),
            tombstones: self.tombstone_keys(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_table(rows: &[Row]) -> AuxTable {
        AuxTable::build(
            rows,
            2,
            Codec::Lz,
            4 * 1024,
            usize::MAX,
            DiskProfile::free(),
            Metrics::new(),
        )
        .unwrap()
    }

    fn sample_rows(n: u64) -> Vec<Row> {
        (0..n).map(|k| Row::new(k * 3, vec![(k % 7) as u32, (k % 4) as u32])).collect()
    }

    #[test]
    fn build_and_lookup() {
        let rows = sample_rows(2_000);
        let table = build_table(&rows);
        assert_eq!(table.len(), 2_000);
        assert!(table.partition_count() > 1);
        assert!(table.size_bytes() > 0);
        assert_eq!(table.get(3).unwrap(), Some(vec![1, 1]));
        assert_eq!(table.get(4).unwrap(), None);
    }

    #[test]
    fn batch_lookup_matches_single_lookups() {
        let rows = sample_rows(1_000);
        let table = build_table(&rows);
        let keys: Vec<u64> = (0..3_200u64).collect();
        let batch = table.get_batch(&keys).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(batch[i], table.get(k).unwrap(), "key {k}");
        }
    }

    #[test]
    fn compressed_partitions_are_smaller_than_raw() {
        let rows = sample_rows(20_000);
        let table = build_table(&rows);
        let raw = rows.len() * Row::fixed_width(2);
        assert!(table.size_bytes() < raw / 2, "{} vs raw {raw}", table.size_bytes());
    }

    /// `upsert`/`remove` take the caller's word (its `Vaux` bit) for whether the
    /// table holds the key, and must keep reads and the exact row count right
    /// without loading a partition to check.
    #[test]
    fn upsert_and_remove_shadow_partitions_without_loading_them() {
        let rows = sample_rows(500);
        let mut table = build_table(&rows);
        table.metrics().reset();
        // Update an existing partition row.
        table.upsert(Row::new(3, vec![9, 9]), true);
        // Insert a brand-new row.
        table.upsert(Row::new(1_000_000, vec![5, 5]), false);
        assert_eq!(table.len(), 501);
        // Remove a partition row.
        table.remove(6);
        assert_eq!(table.len(), 500);
        // Remove a delta row.
        table.remove(1_000_000);
        assert_eq!(table.len(), 499);
        // Remove a delta row that shadows a partition row, then resurrect it.
        table.remove(3);
        assert_eq!(table.len(), 498);
        table.upsert(Row::new(3, vec![1, 2]), false);
        // Replace an overlay row in place.
        table.upsert(Row::new(3, vec![4, 4]), true);
        assert_eq!(table.len(), 499);
        let snap = table.metrics().snapshot();
        assert_eq!(snap.partition_loads, 0, "writes must not load partitions");
        assert_eq!(snap.pool_hits + snap.pool_misses, 0);

        assert_eq!(table.get(3).unwrap(), Some(vec![4, 4]));
        assert_eq!(table.get(6).unwrap(), None);
        assert_eq!(table.get(1_000_000).unwrap(), None);
        assert_eq!(table.get(9).unwrap(), Some(vec![3, 3]));
        assert_eq!(table.iter_rows().unwrap().len(), 499);
    }

    #[test]
    fn compaction_preserves_contents_and_clears_overlay() {
        let rows = sample_rows(1_000);
        let mut table = build_table(&rows);
        table.upsert(Row::new(3, vec![9, 9]), true);
        table.upsert(Row::new(999_999, vec![1, 1]), false);
        table.remove(0);
        let before = table.iter_rows().unwrap();
        assert!(table.overlay_bytes() > 0);
        table.compact().unwrap();
        assert_eq!(table.overlay_bytes(), 0);
        let after = table.iter_rows().unwrap();
        assert_eq!(before, after);
        assert_eq!(table.get(3).unwrap(), Some(vec![9, 9]));
        assert_eq!(table.get(0).unwrap(), None);
        assert_eq!(table.get(999_999).unwrap(), Some(vec![1, 1]));
    }

    #[test]
    fn empty_table_behaves() {
        let table = build_table(&[]);
        assert!(table.is_empty());
        assert_eq!(table.get(5).unwrap(), None);
        assert_eq!(table.get_batch(&[1, 2, 3]).unwrap(), vec![None, None, None]);
        assert_eq!(table.iter_rows().unwrap(), Vec::<Row>::new());
        assert_eq!(table.partition_count(), 0);
    }

    /// Full-table scans must not thrash the lookup path's buffer pool: the scan
    /// decodes cold partitions pool-bypass (no miss, no insert, no eviction) and
    /// reuses partitions that already happen to be resident.
    #[test]
    fn iter_rows_bypasses_the_pool_and_keeps_the_hot_set_resident() {
        let rows = sample_rows(4_000);
        let metrics = Metrics::new();
        let table = AuxTable::build(
            &rows,
            2,
            Codec::Lz,
            4 * 1024,
            usize::MAX,
            DiskProfile::free(),
            metrics.clone(),
        )
        .unwrap();
        let partitions = table.partition_count();
        assert!(partitions >= 3);
        // Make the first partition hot.
        assert!(table.get(0).unwrap().is_some());
        metrics.reset();
        let scanned = table.iter_rows().unwrap();
        assert_eq!(scanned.len(), rows.len());
        let snap = metrics.snapshot();
        assert_eq!(snap.pool_misses, 0, "scan decodes must bypass the pool");
        assert_eq!(snap.pool_evictions, 0);
        assert_eq!(
            snap.partition_loads,
            partitions as u64 - 1,
            "the resident hot partition is reused, the rest stream from disk"
        );
        // The hot partition is still resident: a lookup in it is a pure pool hit.
        metrics.reset();
        assert!(table.get(0).unwrap().is_some());
        let snap = metrics.snapshot();
        assert_eq!(snap.pool_hits, 1);
        assert_eq!(snap.partition_loads, 0);
    }

    /// The overlay merge-join in `iter_rows` must agree with ground truth when
    /// delta rows interleave between, inside and beyond the partition key ranges.
    #[test]
    fn iter_rows_merges_interleaved_overlay_rows_in_key_order() {
        let rows = sample_rows(1_000); // keys 0, 3, 6, ..., 2997
        let mut table = build_table(&rows);
        table.upsert(Row::new(1, vec![7, 7]), false); // between partition keys
        table.upsert(Row::new(3, vec![8, 8]), true); // shadows a partition row
        table.upsert(Row::new(10_000, vec![9, 9]), false); // beyond every partition
        table.remove(6); // tombstone a partition row
        let merged = table.iter_rows().unwrap();
        assert!(merged.windows(2).all(|w| w[0].key < w[1].key), "key order");
        assert_eq!(merged.len(), 1_000 + 2 - 1);
        let get = |k: u64| merged.iter().find(|r| r.key == k).map(|r| r.values.clone());
        assert_eq!(get(1), Some(vec![7, 7]));
        assert_eq!(get(3), Some(vec![8, 8]));
        assert_eq!(get(10_000), Some(vec![9, 9]));
        assert_eq!(get(6), None);
        assert_eq!(get(9), Some(vec![3, 3]));
    }

    /// Parallel grouped probing over a 4-thread pool must agree with the serial
    /// path for every key, and still load each partition at most once per batch.
    #[test]
    fn parallel_batch_probes_match_serial() {
        let rows = sample_rows(5_000);
        let metrics = Metrics::new();
        let table = AuxTable::build(
            &rows,
            2,
            Codec::Lz,
            4 * 1024,
            usize::MAX,
            DiskProfile::free(),
            metrics.clone(),
        )
        .unwrap();
        assert!(table.partition_count() >= 2);
        let pool = ThreadPool::new(4);
        let serial = ThreadPool::new(1);
        let keys: Vec<u64> = (0..20_000u64).step_by(5).collect();
        let collect = |exec: &ThreadPool| {
            let mut results: Vec<Option<Vec<u32>>> = vec![None; keys.len()];
            let degraded = table.probe_batch(&keys, exec, None, &mut |qi, values| {
                results[qi] = Some(values.to_vec());
            });
            assert!(degraded.is_empty());
            results
        };
        let expected = collect(&serial);
        metrics.reset();
        let got = collect(&pool);
        assert_eq!(got, expected);
        let snap = metrics.snapshot();
        assert!(
            snap.partition_loads == 0,
            "partitions were already pooled by the serial pass; got {} loads",
            snap.partition_loads
        );
        assert!(pool.stats().tasks_executed >= 2, "groups must fan out");
    }

    /// A read-only frame map standing in for a snapshot file: serves the exact
    /// frames a built table exported, so `open_from_source` can be tested without
    /// the persistence crate.
    #[derive(Debug)]
    struct FrameMapSource {
        frames: Vec<Arc<Vec<u8>>>,
    }

    impl PartitionSource for FrameMapSource {
        fn read_frame(&self, id: u64, metrics: &Metrics) -> dm_storage::Result<Arc<Vec<u8>>> {
            let frame = self
                .frames
                .get(id as usize)
                .ok_or(dm_storage::StorageError::MissingPartition(id))?;
            metrics.add_read(frame.len() as u64, std::time::Duration::ZERO);
            Ok(Arc::clone(frame))
        }

        fn partition_bytes(&self, id: u64) -> dm_storage::Result<usize> {
            self.frames
                .get(id as usize)
                .map(|f| f.len())
                .ok_or(dm_storage::StorageError::MissingPartition(id))
        }

        fn partition_count(&self) -> usize {
            self.frames.len()
        }

        fn total_bytes(&self) -> usize {
            self.frames.iter().map(|f| f.len()).sum()
        }
    }

    /// Export → reconstitute over an external source must preserve every read,
    /// keep serving lazily, and a compaction must migrate back to a writable
    /// simulated backing.
    #[test]
    fn snapshot_round_trip_over_an_external_source() {
        let rows = sample_rows(2_000);
        let mut table = build_table(&rows);
        table.upsert(Row::new(1, vec![8, 8]), false); // overlay row between partition keys
        table.remove(6); // tombstone
        let frames = table.partition_frames().unwrap();
        assert_eq!(frames.len(), table.partition_count());
        let snapshot = table.to_snapshot();
        assert_eq!(snapshot.partitions.len(), frames.len());
        assert_eq!(snapshot.delta.len(), 1);
        assert_eq!(snapshot.tombstones, vec![6]);

        let source = Arc::new(FrameMapSource {
            frames: frames.iter().map(|f| Arc::clone(&f.frame)).collect(),
        });
        let metrics = Metrics::new();
        let reopened = AuxTable::open_from_source(source, snapshot, metrics.clone());
        assert_eq!(reopened.len(), table.len());
        assert_eq!(reopened.partition_count(), table.partition_count());
        assert_eq!(metrics.snapshot().partition_loads, 0, "open must stay lazy");

        let keys: Vec<u64> = (0..6_100u64).collect();
        assert_eq!(reopened.get_batch(&keys).unwrap(), table.get_batch(&keys).unwrap());
        assert_eq!(reopened.iter_rows().unwrap(), table.iter_rows().unwrap());

        // The external backing is read-only; a compaction folds everything back
        // onto a fresh simulated disk and keeps answering identically.
        let mut reopened = reopened;
        let before = reopened.iter_rows().unwrap();
        reopened.compact().unwrap();
        assert_eq!(reopened.iter_rows().unwrap(), before);
        assert_eq!(reopened.overlay_bytes(), 0);
        reopened.upsert(Row::new(9_999_999, vec![1, 2]), false);
        assert_eq!(reopened.get(9_999_999).unwrap(), Some(vec![1, 2]));
    }

    #[test]
    fn constrained_pool_still_answers_correctly() {
        let rows = sample_rows(20_000);
        let metrics = Metrics::new();
        let table = AuxTable::build(
            &rows,
            2,
            Codec::Lz,
            4 * 1024,
            8 * 1024, // much smaller than the data
            DiskProfile::free(),
            metrics.clone(),
        )
        .unwrap();
        let keys: Vec<u64> = (0..60_000u64).step_by(7).collect();
        let results = table.get_batch(&keys).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            let expected = (k % 3 == 0).then(|| vec![((k / 3) % 7) as u32, ((k / 3) % 4) as u32]);
            assert_eq!(results[i], expected, "key {k}");
        }
        assert!(metrics.snapshot().pool_evictions > 0);
    }
}
