//! The auxiliary accuracy-assurance table `Taux` (Section IV-B1), keyless.
//!
//! The paper stores the misclassified key-value pairs sorted by key in compressed
//! partitions and binary-searches them.  Here membership is answered *before* the
//! table is touched (`Vaux` routes every lookup), so partitions neither store nor
//! search keys:
//!
//! * **`base`** is the frozen, rank-indexed bitmap of the keys held in partitions.
//!   A key's ordinal is `rank(base, key)`, its partition `ordinal / R`, its slot
//!   `ordinal % R`, with `R` the workspace's one partition-size rule
//!   ([`rows_per_partition`]).  Partition `i` is id `i` of the
//!   [`PartitionSource`]; all but the last hold exactly `R` rows.
//! * **Partitions** are [`PackedPartition`]s — values only, one bit-packed stream
//!   per column — inside a `dm_compress` frame of the configured codec.  The
//!   buffer pool holds the packed bytes as they are and a probe reads one value
//!   per column at the slot.  A partition whose shape disagrees with what the
//!   ranks address is a typed corruption error, never a shifted answer.
//!
//! Modifications (Section IV-D) land in an in-memory overlay, so they never
//! rewrite partitions on the hot path — and never touch `base`, whose ranks
//! address the rows on disk:
//!
//! * the **delta** is a hashed map from key to values — one multiply to hash a
//!   key (`KeyHasher`) — sorted on demand by the two consumers that need key
//!   order, [`AuxTable::iter_rows`] and [`AuxTable::to_snapshot`];
//! * the **dead-key bitmap** marks the keys of `base` whose partition row is
//!   shadowed, so a key is live in a partition when `base[k] ∧ ¬dead[k]`.
//!
//! Between compactions the table answers `(base − dead) ∪ delta.keys`
//! ([`AuxTable::held_keys`]), which is what the owning structure's mutable
//! `Vaux` equals at all times; `compact()` folds the overlay into freshly
//! packed partitions under a new `base`.
//!
//! The overlay keeps `delta ∩ base ⊆ dead`: a key entering the delta while live
//! in a partition has its partition copy marked dead on the spot.  So a key
//! live in a partition is never shadowed by the delta, and a probe tests
//! liveness first — two bit reads — and looks in the delta only for the keys
//! no partition answers.

use crate::Result;
use dm_compress::Codec;
use dm_obs::trace::{span, span_net_of};
use dm_obs::{Stage, Trace};
use dm_storage::layout::{rows_per_partition, PackedPartition};
use dm_storage::{
    BitVec, BufferPool, DiskProfile, Metrics, PartitionSource, RankedBits, Row, SimulatedDisk,
    StorageError,
};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A derived, diagnostic view of one partition: the key range its ordinals
/// cover.  Nothing stores or persists it — addressing is by rank alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuxPartitionInfo {
    /// Smallest key whose row lives in the partition.
    pub min_key: u64,
    /// Largest key whose row lives in the partition.
    pub max_key: u64,
    /// Number of rows in the partition.
    pub rows: usize,
}

/// One partition's compressed frame plus its row count — what `dm-persist`
/// copies verbatim into a snapshot file.
#[derive(Debug, Clone)]
pub struct PartitionFrame {
    /// Number of rows packed in the partition.
    pub rows: usize,
    /// The raw frame bytes (self-describing `dm_compress` frame).
    pub frame: Arc<Vec<u8>>,
}

/// Everything needed to reconstitute an [`AuxTable`] over an external
/// (e.g. snapshot-file-backed) [`PartitionSource`] without rebuilding it.
#[derive(Debug, Clone)]
pub struct AuxTableSnapshot {
    /// Codec future compactions will compress with.
    pub codec: Codec,
    /// Target partition size (at the fixed row width) for future compactions.
    pub partition_bytes: usize,
    /// Buffer-pool byte budget.
    pub memory_budget_bytes: usize,
    /// Disk profile future compactions rebuild their simulated disk with.
    pub disk_profile: DiskProfile,
    /// Number of value columns per row.
    pub value_columns: usize,
    /// The keys held in the source's partitions; partition `i` of the source
    /// holds the rows of ordinals `[i·R, (i+1)·R)`.
    pub base: BitVec,
    /// The delta overlay rows.  [`AuxTable::to_snapshot`] writes them in
    /// ascending key order; [`check_overlay`](Self::check_overlay) accepts
    /// any order, but no key twice, and a key of `base` only if it is also
    /// tombstoned.
    pub delta: Vec<Row>,
    /// The keys of `base` whose partition row is dead.
    /// [`AuxTable::to_snapshot`] writes them ascending;
    /// [`check_overlay`](Self::check_overlay) accepts any order, but only keys
    /// of `base` and none twice.
    pub tombstones: Vec<u64>,
}

impl AuxTableSnapshot {
    /// Checks the overlay invariants a table opened from this snapshot relies
    /// on: every tombstone names a key of `base`, once; no delta key repeats;
    /// and a delta key of `base` is tombstoned, so a key live in a partition
    /// is never also in the delta.  Returns what is wrong, for the caller to
    /// report as corruption.
    pub fn check_overlay(&self) -> std::result::Result<(), String> {
        let mut dead = BitVec::new();
        for &key in &self.tombstones {
            if !self.base.get(key) {
                return Err(format!("tombstone {key} names no key of base"));
            }
            if dead.get(key) {
                return Err(format!("tombstone {key} repeats"));
            }
            dead.set(key, true);
        }
        let mut keys: Vec<u64> = self.delta.iter().map(|row| row.key).collect();
        keys.sort_unstable();
        if let Some(pair) = keys.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(format!("delta key {} repeats", pair[0]));
        }
        match keys.iter().find(|&&key| self.base.get(key) && !dead.get(key)) {
            Some(key) => Err(format!("delta key {key} is live in base without a tombstone")),
            None => Ok(()),
        }
    }
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

/// The delta's hasher.  A key is one `u64`, so hashing it is one 128-bit
/// product with an odd constant, folded high half xor low half: the map reads
/// both the high bits (its control bytes) and the low bits (its bucket index)
/// of the hash, and the fold makes both depend on every bit of the key.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    /// Unused by the delta, whose keys hash through `write_u64`.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(self.0 ^ u64::from(byte));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let product = u128::from(key) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product >> 64) as u64 ^ product as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The delta overlay: key → values, hashed by [`KeyHasher`].
type Delta = HashMap<u64, Vec<u32>, BuildHasherDefault<KeyHasher>>;

/// One planned probe: the slot of its key's row in the partition whose group
/// holds it, and the index of the key in the probed batch.
#[derive(Debug, Clone, Copy, Default)]
struct Probe {
    slot: u32,
    qi: u32,
}

/// The stages a partition group's load may record inside the probe loop's
/// span, which [`span_net_of`] leaves out of it.
const POOL_STAGES: [Stage; 2] = [Stage::PoolLoad, Stage::PoolWait];

/// A batch's probe plan ([`AuxTable::plan_probes`]): the probes bucketed by
/// partition, each partition's group contiguous and in batch order.  Its
/// vectors scale with the batch and are reused between batches — the query
/// pipeline keeps a plan in the caller's `LookupBuffer` — so a steady-state
/// plan allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct ProbePlan {
    /// Each probe with its partition, in batch order: the counting pass's
    /// input.
    staged: Vec<(u32, Probe)>,
    /// `starts[p]..starts[p + 1]` is partition `p`'s group in `probes`.
    starts: Vec<u32>,
    /// The probes, bucketed by partition.
    probes: Vec<Probe>,
    /// One row of values, read out of a partition for the sink.
    row: Vec<u32>,
}

impl ProbePlan {
    /// The non-empty partition groups, in partition order.
    fn groups(&self) -> impl Iterator<Item = (usize, &[Probe])> + '_ {
        self.starts
            .windows(2)
            .enumerate()
            .filter(|(_, bounds)| bounds[0] < bounds[1])
            .map(|(partition, bounds)| (partition, &self.probes[bounds[0] as usize..bounds[1] as usize]))
    }
}

/// `(gets, misses)` the buffer pool has counted in `metrics`: every get is a
/// hit, a miss or a single-flight wait.
fn pool_gets_and_misses(metrics: &Metrics) -> (u64, u64) {
    let snap = metrics.snapshot();
    (snap.pool_hits + snap.pool_misses + snap.pool_single_flight_waits, snap.pool_misses)
}

/// The auxiliary accuracy-assurance table.
pub struct AuxTable {
    codec: Codec,
    partition_bytes: usize,
    memory_budget_bytes: usize,
    disk_profile: DiskProfile,
    value_columns: usize,
    backing: Backing,
    pool: BufferPool<PackedPartition>,
    /// The keys held in partitions, frozen between compactions.
    base: RankedBits,
    /// `R`: rows in every partition but the last.
    rows_per_partition: usize,
    /// Rows added/updated since the last compaction (key → values).
    delta: Delta,
    /// Keys of `base` whose partition row is dead since the last compaction
    /// (the tombstones): a superset of the delta's keys in `base`.
    dead: BitVec,
    metrics: Metrics,
    /// The pool's `(gets, misses)` in `metrics` when the table was assembled:
    /// `metrics` is monotone and shared with the store, so
    /// [`pool_pressure`](Self::pool_pressure) subtracts this baseline.
    pool_base: (u64, u64),
}

impl std::fmt::Debug for AuxTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuxTable")
            .field("partitions", &self.partition_count())
            .field("delta_rows", &self.delta.len())
            .field("tombstones", &self.dead.count_ones())
            .finish()
    }
}

impl AuxTable {
    /// Builds the table from the misclassified rows of the model evaluation
    /// pass (any order; of rows sharing a key the first is kept).
    pub fn build(
        misclassified: &[Row],
        value_columns: usize,
        codec: Codec,
        partition_bytes: usize,
        memory_budget_bytes: usize,
        disk_profile: DiskProfile,
        metrics: Metrics,
    ) -> Result<Self> {
        let mut table = Self::assemble(
            AuxTableSnapshot {
                codec,
                partition_bytes,
                memory_budget_bytes,
                disk_profile,
                value_columns,
                base: BitVec::new(),
                delta: Vec::new(),
                tombstones: Vec::new(),
            },
            Backing::simulated(SimulatedDisk::new(disk_profile)),
            metrics,
        );
        table.write_partitions(misclassified)?;
        Ok(table)
    }

    /// Reconstitutes a table over an external read-only [`PartitionSource`] —
    /// the lazy-open path of `dm-persist`: only `base` (with its rank index,
    /// derived here) and the overlay are materialized; partitions stay in the
    /// source until a lookup touches them.
    pub fn open_from_source(
        source: Arc<dyn PartitionSource>,
        snapshot: AuxTableSnapshot,
        metrics: Metrics,
    ) -> Self {
        Self::assemble(
            snapshot,
            Backing::External(dm_faults::wrap_from_env(source)),
            metrics,
        )
    }

    fn assemble(snapshot: AuxTableSnapshot, backing: Backing, metrics: Metrics) -> Self {
        let pool_base = pool_gets_and_misses(&metrics);
        AuxTable {
            codec: snapshot.codec,
            partition_bytes: snapshot.partition_bytes,
            memory_budget_bytes: snapshot.memory_budget_bytes,
            disk_profile: snapshot.disk_profile,
            value_columns: snapshot.value_columns,
            backing,
            pool: BufferPool::new(snapshot.memory_budget_bytes, metrics.clone()),
            base: RankedBits::new(snapshot.base),
            rows_per_partition: rows_per_partition(snapshot.value_columns, snapshot.partition_bytes),
            delta: snapshot
                .delta
                .into_iter()
                .map(|row| (row.key, row.values))
                .collect(),
            dead: snapshot.tombstones.into_iter().collect(),
            metrics,
            pool_base,
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

    /// Packs `rows` into partitions of `R` rows on the (fresh) simulated disk
    /// and makes their keys the new `base`.
    fn write_partitions(&mut self, rows: &[Row]) -> Result<()> {
        let Backing::Simulated { disk, .. } = &self.backing else {
            return Err(crate::CoreError::InvalidConfig(
                "cannot write partitions into a read-only external partition source".into(),
            ));
        };
        let mut sorted: Vec<&Row> = rows.iter().collect();
        sorted.sort_by_key(|row| row.key);
        sorted.dedup_by_key(|row| row.key);
        for (idx, chunk) in sorted.chunks(self.rows_per_partition).enumerate() {
            let partition = PackedPartition::from_rows(chunk, self.value_columns)?;
            let id = disk.write_partition(&self.codec, partition.to_bytes());
            assert_eq!(id, idx as u64, "a fresh disk numbers partitions in write order");
        }
        self.base = RankedBits::new(sorted.iter().map(|row| row.key).collect());
        Ok(())
    }

    /// Number of value columns per row.
    pub fn value_columns(&self) -> usize {
        self.value_columns
    }

    /// Number of rows currently represented (partitions + delta − dead rows).
    ///
    /// Only keys of `base` are ever marked dead, so the value is exact.
    pub fn len(&self) -> usize {
        self.base.count_ones() as usize + self.delta.len() - self.dead.count_ones() as usize
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        (self.base.count_ones() as usize).div_ceil(self.rows_per_partition)
    }

    /// Rows in partition `idx`: `R` for all but the last.
    pub fn partition_len(&self, idx: usize) -> usize {
        (self.base.count_ones() as usize)
            .saturating_sub(idx.saturating_mul(self.rows_per_partition))
            .min(self.rows_per_partition)
    }

    /// The frozen bitmap of the keys held in partitions (with its rank index).
    pub fn base(&self) -> &RankedBits {
        &self.base
    }

    /// The keys the table answers right now: `(base − dead) ∪ delta.keys`.
    /// Equal to `base` right after a build or compaction; the owning
    /// structure's `Vaux` equals this set at all times.
    pub fn held_keys(&self) -> BitVec {
        let mut held = self.base.bits().clone();
        for key in self.dead.iter_ones() {
            held.set(key, false);
        }
        for &key in self.delta.keys() {
            held.set(key, true);
        }
        held
    }

    /// On-disk footprint of the partition frames plus the in-memory overlay —
    /// the `size(Taux)` term of Eq. 1 (`base` is accounted with `Vaux`).
    pub fn size_bytes(&self) -> usize {
        self.backing.source().total_bytes() + self.overlay_bytes()
    }

    /// The metrics handle this table charges loads/decompressions to.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Whether a partition holds a live row for `key`.
    fn live_in_base(&self, key: u64) -> bool {
        self.base.get(key) && !self.dead.get(key)
    }

    /// The `(partition, slot)` address of a key of `base`.
    fn address(&self, key: u64) -> (usize, usize) {
        let ordinal = self.base.rank1(key) as usize;
        (ordinal / self.rows_per_partition, ordinal % self.rows_per_partition)
    }

    /// Reads, unframes and validates partition `idx` from the source.  A
    /// partition that is well-formed but not the `idx`-th one of this table
    /// (wrong row count or arity) would shift every answer read from it, so it
    /// is corruption like any other.
    fn read_partition(&self, idx: usize) -> dm_storage::Result<PackedPartition> {
        let payload = self.backing.source().read_partition(idx as u64, &self.metrics)?;
        let partition = PackedPartition::from_bytes(payload)?;
        if partition.len() != self.partition_len(idx) || partition.columns() != self.value_columns {
            return Err(StorageError::Corrupt(format!(
                "partition {idx} holds {} rows x {} columns, the table's ranks address {} x {}",
                partition.len(),
                partition.columns(),
                self.partition_len(idx),
                self.value_columns
            )));
        }
        Ok(partition)
    }

    /// Loads partition `idx` through the single-flight buffer pool, recording
    /// pool wait/load spans on `trace` when the caller carries one.  The pool
    /// is charged the packed payload's real length.  Keeps the raw
    /// [`dm_storage::StorageError`] so degradation-aware callers
    /// ([`probe_batch`](Self::probe_batch)) can attach the typed error to
    /// exactly the keys it affects.
    fn load_partition(
        &self,
        idx: usize,
        trace: Option<&Trace>,
    ) -> dm_storage::Result<Arc<PackedPartition>> {
        self.pool.get_or_load(idx as u64, trace, || {
            let partition = self.read_partition(idx)?;
            let bytes = partition.resident_bytes();
            Ok((partition, bytes))
        })
    }

    /// Looks up a key in the auxiliary table (Algorithm 1, lines 6–8): a batch
    /// of one.
    pub fn get(&self, key: u64) -> Result<Option<Vec<u32>>> {
        Ok(self.get_batch(&[key])?.pop().flatten())
    }

    /// Looks up many keys, visiting each partition at most once (the query keys are
    /// processed grouped by partition, mirroring the batch-sorting optimization of
    /// Section IV-B2).  Answers any key list (`None` for keys the table does
    /// not hold); the query pipeline asks only for the keys `Vaux` routes here.
    ///
    /// The owned shape has no per-key error channel, so it keeps the strict
    /// contract: any failed partition fails the whole call.
    pub fn get_batch(&self, keys: &[u64]) -> Result<Vec<Option<Vec<u32>>>> {
        let mut results: Vec<Option<Vec<u32>>> = vec![None; keys.len()];
        let mut plan = ProbePlan::default();
        let degraded = self.probe_batch(keys, &mut plan, None, &mut |qi, values| {
            results[qi] = Some(values.to_vec())
        });
        match degraded.into_iter().next() {
            Some((_, err)) => Err(crate::CoreError::from(err)),
            None => Ok(results),
        }
    }

    /// Plans and probes one batch: calls `sink(query_index, values)` once for
    /// every key the table answers, handing out borrowed slices (from the delta
    /// overlay or a scratch row filled from the pooled packed partition) instead
    /// of allocating per hit.  Each partition is loaded at most once per batch.
    /// `plan` is the batch's working memory; reused, it makes a probe
    /// allocate nothing.  Everything runs on the calling thread.
    ///
    /// **Timing:** one [`Stage::Plan`] span, then one [`Stage::Probe`] span
    /// over the loop through the partition groups, net of the pool load and
    /// wait spans recorded inside it, so Probe, PoolLoad and PoolWait stay
    /// disjoint.
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
        plan: &mut ProbePlan,
        trace: Option<&Trace>,
        sink: &mut dyn FnMut(usize, &[u32]),
    ) -> Vec<(usize, StorageError)> {
        {
            let _plan = span(trace, Stage::Plan);
            self.plan_probes(keys, plan, sink);
        }
        let mut degraded: Vec<(usize, StorageError)> = Vec::new();
        let mut degrade = |group: &[Probe], err: StorageError| {
            self.metrics.add_degraded_keys(group.len() as u64);
            degraded.extend(group.iter().map(|probe| (probe.qi as usize, err.clone())));
        };
        let mut row = std::mem::take(&mut plan.row);
        row.resize(self.value_columns, 0);
        self.probe_groups(plan.groups(), trace, &mut row, sink, &mut degrade);
        plan.row = row;
        degraded
    }

    /// Probes partition groups one after the other: loads each partition
    /// through the single-flight pool and hands `sink` each probe's row, read
    /// at its slot into the scratch `row`; a group whose partition fails to
    /// load goes to `failed` instead.  The loop records one [`Stage::Probe`]
    /// span on `trace` — or into the stage histogram alone when there is
    /// none — net of the pool spans its loads record.
    fn probe_groups<'p>(
        &self,
        groups: impl IntoIterator<Item = (usize, &'p [Probe])>,
        trace: Option<&Trace>,
        row: &mut [u32],
        sink: &mut dyn FnMut(usize, &[u32]),
        failed: &mut dyn FnMut(&[Probe], StorageError),
    ) {
        let _probe = span_net_of(trace, Stage::Probe, &POOL_STAGES);
        for (partition, group) in groups {
            match self.load_partition(partition, trace) {
                Ok(partition) => {
                    for probe in group {
                        partition.read_row(probe.slot as usize, row);
                        sink(probe.qi as usize, row);
                    }
                }
                Err(err) => failed(group, err),
            }
        }
    }

    /// Planning for a probe batch: turns every key live in a partition into
    /// its `(partition, slot)` address by rank and hands `sink` whatever the
    /// in-memory delta overlay answers of the rest on the spot.  Liveness goes
    /// first — two bit reads — because the delta never shadows a live key
    /// (`delta ∩ base ⊆ dead`), so only a key no partition answers pays a
    /// delta lookup.  One counting pass over the partitions then buckets the
    /// addresses — each partition one contiguous group, its keys in batch
    /// order — so each is loaded at most once per batch no matter how the keys
    /// interleave, with no comparison sort.
    fn plan_probes(&self, keys: &[u64], plan: &mut ProbePlan, sink: &mut dyn FnMut(usize, &[u32])) {
        let ProbePlan {
            staged,
            starts,
            probes,
            ..
        } = plan;
        staged.clear();
        starts.clear();
        starts.resize(self.partition_count() + 1, 0);
        for (qi, &key) in keys.iter().enumerate() {
            if self.live_in_base(key) {
                let (partition, slot) = self.address(key);
                // Ordinals fit `u32` (the rank index counts in it), and so do
                // batch positions (the lookup buffer's spans count in it).
                let probe = Probe {
                    slot: slot as u32,
                    qi: qi as u32,
                };
                staged.push((partition as u32, probe));
                starts[partition + 1] += 1;
            } else if let Some(values) = self.delta.get(&key) {
                sink(qi, values);
            }
        }
        // `starts[p + 1]` counts partition `p`'s probes; summed, `starts[p]`
        // is where group `p` begins.  Placing the probes in batch order moves
        // each `starts[p]` to its group's end, the next group's start, so one
        // shift puts every bound back.
        for p in 1..starts.len() {
            starts[p] += starts[p - 1];
        }
        probes.clear();
        probes.resize(staged.len(), Probe::default());
        for &(partition, probe) in staged.iter() {
            let at = &mut starts[partition as usize];
            probes[*at as usize] = probe;
            *at += 1;
        }
        let groups = starts.len() - 1;
        starts.copy_within(..groups, 1);
        starts[0] = 0;
    }

    /// Adds (or replaces) a misclassified row — used by `Insert` (Algorithm 3) and
    /// `Update` (Algorithm 5).  A key live in a partition has that copy marked
    /// dead until the next compaction, which keeps `delta ∩ base ⊆ dead` and
    /// spares the write path a partition load.  `base` is never touched: its
    /// ranks address the rows on disk.
    pub(crate) fn upsert(&mut self, row: Row) {
        if self.live_in_base(row.key) {
            self.dead.set(row.key, true);
        }
        self.delta.insert(row.key, row.values);
    }

    /// Removes a key the table currently answers (the caller's `Vaux` bit is
    /// set) — used by `Delete` (Algorithm 4) and by `Update` when the model
    /// turns out to predict the new value correctly (Algorithm 5, line 4).  A
    /// key outside the overlay is live in a partition and is marked dead; an
    /// overlay key's partition copy, if any, already is.
    pub(crate) fn remove(&mut self, key: u64) {
        debug_assert!(
            self.delta.contains_key(&key) || self.live_in_base(key),
            "key {key} is removed but neither the overlay nor a partition holds it"
        );
        if self.delta.remove(&key).is_none() {
            self.dead.set(key, true);
        }
    }

    /// Partition `idx` for a full-table scan *without* caching it: a resident
    /// copy is reused (via `peek`), but a cold partition is read straight from
    /// the source and dropped after use.  This is what keeps retrain-time scans
    /// ([`iter_rows`](Self::iter_rows), and `DeepMapping::materialize_rows`
    /// above it) from evicting the hot working set out of the lookup path's
    /// buffer pool.
    fn read_partition_bypass(&self, idx: usize) -> Result<Arc<PackedPartition>> {
        if let Some(resident) = self.pool.peek(idx as u64) {
            return Ok(resident);
        }
        Ok(Arc::new(self.read_partition(idx)?))
    }

    /// Iterates every live row (partitions merged with the overlay), in key order.
    ///
    /// The keys of the partition rows are `base`'s set bits, in order: slot `s`
    /// of partition `i` belongs to the `(i·R + s)`-th of them.  Partitions are
    /// streamed one at a time through a pool-*bypass* read and merge-joined
    /// with the delta overlay, sorted here, so a full-table scan neither evicts
    /// the hot working set nor holds more than one partition at a time.
    pub fn iter_rows(&self) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(self.len());
        let mut delta = self.sorted_delta().into_iter().peekable();
        let mut keys = self.base.iter_ones();
        let mut values = vec![0; self.value_columns];
        for idx in 0..self.partition_count() {
            let partition = self.read_partition_bypass(idx)?;
            for slot in 0..partition.len() {
                let key = keys.next().expect("partition rows sum to base's set bits");
                // Delta rows with smaller keys interleave first.
                while delta.peek().is_some_and(|(&k, _)| k < key) {
                    let (&key, values) = delta.next().expect("peeked");
                    out.push(Row::new(key, values.clone()));
                }
                if delta.peek().is_some_and(|(&k, _)| k == key) {
                    // The overlay shadows the partition copy.
                    let (&key, values) = delta.next().expect("peeked");
                    out.push(Row::new(key, values.clone()));
                } else if !self.dead.get(key) {
                    partition.read_row(slot, &mut values);
                    out.push(Row::new(key, values.clone()));
                }
            }
        }
        for (&key, values) in delta {
            out.push(Row::new(key, values.clone()));
        }
        Ok(out)
    }

    /// Folds the delta overlay and tombstones back into freshly packed
    /// partitions under a new `base`.
    ///
    /// The rebuild always lands on a fresh in-memory [`SimulatedDisk`] — this is also
    /// how a read-only snapshot-backed table migrates back to a writable backing
    /// (`dm-persist` then re-snapshots the result atomically).
    pub fn compact(&mut self) -> Result<()> {
        let rows = self.iter_rows()?;
        // The fresh disk reuses partition ids from 0, so drop every cached entry
        // before the addressing switches over.
        self.pool.clear();
        self.delta.clear();
        self.dead = BitVec::new();
        // Note: a compaction re-derives the read wrapper from the environment
        // plan; a programmatically injected [`inject_faults`](Self::inject_faults)
        // wrapper must be re-installed by the test after compacting.
        self.backing = Backing::simulated(SimulatedDisk::new(self.disk_profile));
        self.write_partitions(&rows)?;
        Ok(())
    }

    /// The delta-overlay size in bytes (used by the retraining trigger).
    pub fn overlay_bytes(&self) -> usize {
        self.delta.len() * Row::fixed_width(self.value_columns) + self.tombstone_count() * 8
    }

    /// Rows currently staged in the delta overlay.
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// Live tombstones shadowing partition rows.
    pub fn tombstone_count(&self) -> usize {
        self.dead.count_ones() as usize
    }

    /// The delta overlay in ascending key order.
    fn sorted_delta(&self) -> Vec<(&u64, &Vec<u32>)> {
        let mut rows: Vec<(&u64, &Vec<u32>)> = self.delta.iter().collect();
        rows.sort_unstable_by_key(|&(&key, _)| key);
        rows
    }

    /// `(bytes, partitions)` the buffer pool holds right now.
    pub fn pool_usage(&self) -> (usize, usize) {
        (self.pool.used_bytes(), self.pool.len())
    }

    /// The advisor's pool-pressure input: the packed payloads the pool holds,
    /// to the byte, against its budget, and the pool's miss rate since the
    /// table was assembled, read from the counters the pool keeps whatever
    /// `DM_OBS` says.
    pub fn pool_pressure(&self) -> dm_obs::PoolPressure {
        let (gets, misses) = pool_gets_and_misses(&self.metrics);
        let gets = gets.saturating_sub(self.pool_base.0);
        let misses = misses.saturating_sub(self.pool_base.1);
        dm_obs::PoolPressure {
            resident_bytes: self.pool.used_bytes() as u64,
            // A budget of usize::MAX models "memory comfortably holds
            // everything": report it as unbounded, not as a pressure ratio.
            budget_bytes: if self.memory_budget_bytes == usize::MAX {
                0
            } else {
                self.memory_budget_bytes as u64
            },
            miss_rate: if gets == 0 { 0.0 } else { misses as f64 / gets as f64 },
        }
    }

    /// The key range each partition's ordinals cover, in partition order — a
    /// diagnostic view derived by walking `base` (tests and tools use it to aim
    /// keys at a partition); addressing never consults it.
    pub fn partition_directory(&self) -> Vec<AuxPartitionInfo> {
        let mut keys = self.base.iter_ones();
        (0..self.partition_count())
            .map(|idx| {
                let rows = self.partition_len(idx);
                let min_key = keys.next().expect("partition rows sum to base's set bits");
                let max_key = keys.by_ref().take(rows - 1).last().unwrap_or(min_key);
                AuxPartitionInfo {
                    min_key,
                    max_key,
                    rows,
                }
            })
            .collect()
    }

    /// Exports one partition frame verbatim, by partition index — the snapshot
    /// writer streams these straight into the file one at a time, bounding its
    /// memory at a single frame.  The read is charged to a scratch [`Metrics`]
    /// so exporting a snapshot does not pollute the store's lookup counters,
    /// and the frame is fetched source-to-source without touching the buffer
    /// pool.
    pub fn partition_frame(&self, idx: usize) -> Result<PartitionFrame> {
        if idx >= self.partition_count() {
            return Err(crate::CoreError::InvalidConfig(format!(
                "partition index {idx} out of range ({} partitions)",
                self.partition_count()
            )));
        }
        let frame = self
            .backing
            .source()
            .read_frame(idx as u64, &Metrics::new())
            .map_err(crate::CoreError::from)?;
        Ok(PartitionFrame {
            rows: self.partition_len(idx),
            frame,
        })
    }

    /// The snapshot description of this table (`base` + overlay in ascending
    /// key order, whatever order the writes came in + rebuild knobs); pair it with every [`partition_frame`](Self::partition_frame)
    /// to persist, and with [`open_from_source`](Self::open_from_source) to
    /// reconstitute.
    pub fn to_snapshot(&self) -> AuxTableSnapshot {
        AuxTableSnapshot {
            codec: self.codec,
            partition_bytes: self.partition_bytes,
            memory_budget_bytes: self.memory_budget_bytes,
            disk_profile: self.disk_profile,
            value_columns: self.value_columns,
            base: self.base.bits().clone(),
            delta: self
                .sorted_delta()
                .into_iter()
                .map(|(&key, values)| Row::new(key, values.clone()))
                .collect(),
            tombstones: self.dead.iter_ones().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_table(rows: &[Row]) -> AuxTable {
        build_with(rows, usize::MAX, Metrics::new())
    }

    fn build_with(rows: &[Row], budget: usize, metrics: Metrics) -> AuxTable {
        AuxTable::build(rows, 2, Codec::Lz, 4 * 1024, budget, DiskProfile::free(), metrics).unwrap()
    }

    fn frames_of(table: &AuxTable) -> Vec<PartitionFrame> {
        (0..table.partition_count()).map(|idx| table.partition_frame(idx).unwrap()).collect()
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

    /// `upsert`/`remove` read the overlay and `base`, never a partition, and
    /// must keep reads and the exact row count right.
    #[test]
    fn upsert_and_remove_shadow_partitions_without_loading_them() {
        let rows = sample_rows(500);
        let mut table = build_table(&rows);
        table.metrics().reset();
        // Update an existing partition row.
        table.upsert(Row::new(3, vec![9, 9]));
        // Insert a brand-new row.
        table.upsert(Row::new(1_000_000, vec![5, 5]));
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
        table.upsert(Row::new(3, vec![1, 2]));
        // Replace an overlay row in place.
        table.upsert(Row::new(3, vec![4, 4]));
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
        table.upsert(Row::new(3, vec![9, 9]));
        table.upsert(Row::new(999_999, vec![1, 1]));
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
        let table = build_with(&rows, usize::MAX, metrics.clone());
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

    /// A scan peeks every partition in index order, and the recency the lookups built
    /// must survive it: room for two partitions, B then A looked up, a scan, then C —
    /// B is the victim (a `peek` that stamps makes it A).
    #[test]
    fn a_full_scan_leaves_the_lookup_recency_alone() {
        let rows = sample_rows(4_000);
        let one = build_table(&rows);
        one.get(0).unwrap();
        let table = build_with(&rows, one.pool_usage().0 * 5 / 2, Metrics::new());
        let directory = table.partition_directory();
        for partition in [1, 0] {
            table.get(directory[partition].min_key).unwrap();
        }
        assert_eq!(table.iter_rows().unwrap().len(), rows.len());
        table.get(directory[2].min_key).unwrap();
        let resident: Vec<bool> = (0..3).map(|id| table.pool.peek(id).is_some()).collect();
        assert_eq!(resident, [true, false, true]);
    }

    /// A "20 %" pool holds 20 %: with a fifth of the decoded table as budget the pool
    /// never holds more, and a pass over every partition reloads each one, every time.
    #[test]
    fn a_fifth_of_the_table_as_budget_is_never_exceeded_and_every_pass_reloads() {
        let rows = sample_rows(4_000);
        let warm = build_table(&rows);
        warm.get_batch(&rows.iter().map(|r| r.key).collect::<Vec<_>>()).unwrap();
        let (decoded, partitions) = warm.pool_usage();
        assert!(partitions >= 5);
        let metrics = Metrics::new();
        let table = build_with(&rows, decoded / 5, metrics.clone());
        for _pass in 0..3 {
            metrics.reset();
            for info in table.partition_directory() {
                table.get(info.min_key).unwrap();
                assert!(table.pool_usage().0 <= decoded / 5, "{:?}", table.pool_usage());
            }
            assert_eq!(metrics.snapshot().partition_loads, partitions as u64);
        }
    }

    /// The overlay merge-join in `iter_rows` must agree with ground truth when
    /// delta rows interleave between, inside and beyond the partition key ranges.
    #[test]
    fn iter_rows_merges_interleaved_overlay_rows_in_key_order() {
        let rows = sample_rows(1_000); // keys 0, 3, 6, ..., 2997
        let mut table = build_table(&rows);
        table.upsert(Row::new(1, vec![7, 7])); // between partition keys
        table.upsert(Row::new(3, vec![8, 8])); // shadows a partition row
        table.upsert(Row::new(10_000, vec![9, 9])); // beyond every partition
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

    /// The bucketed plan puts each partition in exactly one contiguous group,
    /// its keys in batch order at the slots their ranks address; the overlay
    /// answers its keys while planning, tombstoned keys and misses are
    /// dropped — and a reused plan carries nothing over from a longer batch.
    #[test]
    fn the_plan_gives_each_partition_one_contiguous_group_in_batch_order() {
        let rows = sample_rows(4_000); // keys 0, 3, ..., 11_997
        let mut table = build_table(&rows);
        let partitions = table.partition_count();
        assert!(partitions >= 8);
        table.upsert(Row::new(3, vec![9, 9])); // shadows a partition row
        table.upsert(Row::new(1, vec![7, 7])); // a key no partition holds
        table.upsert(Row::new(50_000, vec![5, 5])); // past every partition
        table.remove(6); // tombstones a partition row
        table.remove(3_000);
        // Every partition's keys, interleaved from both ends, with duplicates,
        // overlay keys, tombstoned keys and misses.
        let spread: Vec<u64> = (0..12_000u64)
            .step_by(5)
            .flat_map(|k| [k, 11_999 - k])
            .chain([3, 1, 50_000, 6, 3_000, 0, 0, 11_997, 11_997, 4, 999_999])
            .collect();
        let mut plan = ProbePlan::default();
        for keys in [spread.clone(), spread[..40].iter().rev().copied().collect()] {
            let mut overlay = Vec::new();
            table.plan_probes(&keys, &mut plan, &mut |qi, values| overlay.push((qi, values.to_vec())));
            let groups: Vec<(usize, &[Probe])> = plan.groups().collect();
            assert!(groups.windows(2).all(|w| w[0].0 < w[1].0), "one group a partition");
            let mut planned = Vec::new();
            for &(partition, group) in &groups {
                assert!(!group.is_empty());
                assert!(group.windows(2).all(|w| w[0].qi < w[1].qi), "batch order in a group");
                for probe in group {
                    let key = keys[probe.qi as usize];
                    assert_eq!(table.address(key), (partition, probe.slot as usize), "key {key}");
                    planned.push(probe.qi as usize);
                }
            }
            assert_eq!(plan.probes.len(), planned.len(), "no probe outside a group");
            let expected: Vec<usize> = (0..keys.len())
                .filter(|&qi| table.live_in_base(keys[qi]))
                .collect();
            planned.sort_unstable();
            assert_eq!(planned, expected);
            for (qi, values) in overlay {
                assert_eq!(table.delta.get(&keys[qi]), Some(&values), "key {}", keys[qi]);
            }
        }
        // The whole batch: every partition was touched, each exactly once.
        let mut overlay = 0;
        table.plan_probes(&spread, &mut plan, &mut |_, _| overlay += 1);
        assert_eq!(plan.groups().count(), partitions);
        assert_eq!(overlay, 3);
    }

    /// On a serial pool the whole batch is one `Probe` span, net of the cold
    /// loads inside it: the stage sums stay disjoint and fit the batch.
    #[test]
    fn a_serial_batch_records_one_probe_span_beside_its_cold_loads() {
        dm_obs::set_enabled(true);
        let rows = sample_rows(4_000);
        let table = build_table(&rows);
        let partitions = table.partition_count();
        assert!(partitions >= 8 && partitions + 2 <= dm_obs::trace::TRACE_EVENT_CAPACITY);
        let keys: Vec<u64> = rows.iter().rev().map(|r| r.key).collect();
        let mut plan = ProbePlan::default();
        for cold in [true, false] {
            let trace = Trace::start("probe_batch");
            let mut answered = 0;
            let degraded = table.probe_batch(&keys, &mut plan, Some(&trace), &mut |_, _| {
                answered += 1
            });
            let summary = trace.finish();
            assert!(degraded.is_empty());
            assert_eq!(answered, keys.len());
            let loads = if cold { partitions } else { 0 };
            assert_eq!(summary.events, 2 + loads, "Plan, the loads, one Probe: {summary:?}");
            assert_eq!(summary.stage(Stage::PoolLoad) > 0, cold, "{summary:?}");
            assert!(summary.stage(Stage::Probe) > 0, "{summary:?}");
            let probe_and_pool = summary.stage(Stage::Probe)
                + summary.stage(Stage::PoolLoad)
                + summary.stage(Stage::PoolWait);
            assert!(probe_and_pool <= summary.total_nanos, "{summary:?}");
        }
    }

    /// The same writes in ascending and in descending key order leave the same
    /// overlay, and the snapshot lists it in ascending key order: the hashed
    /// delta's iteration order never reaches the format.
    #[test]
    fn a_snapshot_lists_the_overlay_ascending_whatever_the_write_order() {
        let rows = sample_rows(1_000); // keys 0, 3, ..., 2_997
        let writes: Vec<u64> = (0..3_000u64).filter(|k| k % 3 != 2).collect();
        let apply = |order: &mut dyn Iterator<Item = &u64>| {
            let mut table = build_table(&rows);
            for &key in order {
                match (key % 3, key % 2) {
                    (0, 0) => table.upsert(Row::new(key, vec![1, (key % 4) as u32])), // shadows
                    (0, _) => table.remove(key),                                      // tombstones
                    _ => table.upsert(Row::new(key, vec![(key % 7) as u32, 2])),      // a new key
                }
            }
            table.to_snapshot()
        };
        let ascending = apply(&mut writes.iter());
        let descending = apply(&mut writes.iter().rev());
        assert_eq!(ascending.delta, descending.delta);
        assert_eq!(ascending.tombstones, descending.tombstones);
        assert_eq!(ascending.base, descending.base);
        assert_eq!(ascending.delta.len(), 500 + 1_000);
        assert_eq!(ascending.tombstones.len(), 1_000);
        assert!(ascending.delta.windows(2).all(|w| w[0].key < w[1].key), "delta ascending");
        assert!(ascending.tombstones.windows(2).all(|w| w[0] < w[1]), "tombstones ascending");
        assert_eq!(ascending.check_overlay(), Ok(()));
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
        table.upsert(Row::new(1, vec![8, 8])); // overlay row between partition keys
        table.remove(6); // tombstone
        let frames = frames_of(&table);
        assert_eq!(frames.len(), table.partition_count());
        let snapshot = table.to_snapshot();
        assert_eq!(snapshot.base.count_ones(), 2_000);
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
        reopened.upsert(Row::new(9_999_999, vec![1, 2]));
        assert_eq!(reopened.get(9_999_999).unwrap(), Some(vec![1, 2]));
    }

    /// A partition frame is a `dm_compress` frame around values only: header,
    /// one offsets array and the packed column streams, to the byte — there is
    /// no room for a key column.
    #[test]
    fn partition_payloads_hold_no_key_bytes() {
        let rows = sample_rows(1_000); // columns k % 7 (3 bits) and k % 4 (2 bits)
        let table = build_table(&rows);
        let per_partition = 4 * 1024 / Row::fixed_width(2);
        assert_eq!(table.partition_count(), rows.len().div_ceil(per_partition));
        let mut total_rows = 0;
        for (idx, frame) in frames_of(&table).into_iter().enumerate() {
            assert_eq!(frame.rows, table.partition_len(idx));
            let payload = dm_compress::decompress_frame(&frame.frame).unwrap();
            let stream = |bits: usize| 2 + 1 + (frame.rows * bits).div_ceil(8);
            assert_eq!(payload.len(), 2 + 1 + 2 * 4 + stream(3) + stream(2), "partition {idx}");
            assert!(payload.len() < frame.rows * 8, "smaller than the keys alone would be");
            total_rows += frame.rows;
        }
        assert_eq!(total_rows, rows.len());
    }

    /// The size claim with no model in it: 8 000 rows of five columns with
    /// cardinalities 4..64 carry 20 bits each; the table may spend 10 % and
    /// 64 bytes of framing per partition on top, no more.
    #[test]
    fn packed_table_stays_within_a_tenth_of_its_information() {
        let rows: Vec<Row> = (0..8_000u64)
            .map(|k| {
                let h = (k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let values = [4u64, 8, 16, 32, 64]
                    .iter()
                    .enumerate()
                    .map(|(c, card)| ((h >> (11 * c)) % card) as u32)
                    .collect();
                Row::new(k * 3 + (h >> 62), values)
            })
            .collect();
        let table = AuxTable::build(
            &rows,
            5,
            Codec::Lz,
            8 * 1024,
            usize::MAX,
            DiskProfile::free(),
            Metrics::new(),
        )
        .unwrap();
        let bound = rows.len() * 20 / 8 * 11 / 10 + 64 * table.partition_count();
        assert!(table.size_bytes() <= bound, "{} bytes > bound {bound}", table.size_bytes());
        let keys: Vec<u64> = rows.iter().map(|r| r.key).collect();
        let expected: Vec<Option<Vec<u32>>> = rows.iter().map(|r| Some(r.values.clone())).collect();
        assert_eq!(table.get_batch(&keys).unwrap(), expected);
    }

    /// The pool is charged what it holds: the packed payloads, to the byte.
    #[test]
    fn pool_is_charged_the_resident_payload_lengths() {
        let rows = sample_rows(3_000);
        let table = build_table(&rows);
        assert_eq!(table.pool_pressure().resident_bytes, 0);
        let keys: Vec<u64> = rows.iter().map(|r| r.key).collect();
        table.get_batch(&keys).unwrap();
        let payloads: usize = frames_of(&table)
            .iter()
            .map(|f| dm_compress::decompress_frame(&f.frame).unwrap().len())
            .sum();
        assert_eq!(table.pool.used_bytes(), payloads);
        assert_eq!(table.pool_pressure().resident_bytes, payloads as u64);
    }

    /// With no keys inside, a well-formed frame in the wrong place must not
    /// answer: the short last partition's frame served as partition 0 (and vice
    /// versa) has a valid checksum and the wrong row count, and every key
    /// addressed into either is a typed `Corrupt` — the rest answer exactly.
    #[test]
    fn a_misplaced_partition_frame_is_corruption_not_a_shifted_answer() {
        let rows = sample_rows(1_000);
        let table = build_table(&rows);
        let last = table.partition_count() - 1;
        assert!(last >= 2 && table.partition_len(last) < table.partition_len(0));
        let mut frames: Vec<Arc<Vec<u8>>> =
            frames_of(&table).into_iter().map(|f| f.frame).collect();
        frames.swap(0, last);
        let swapped = AuxTable::open_from_source(
            Arc::new(FrameMapSource { frames }),
            table.to_snapshot(),
            Metrics::new(),
        );
        let directory = swapped.partition_directory();
        for info in [directory[0], directory[last]] {
            for key in [info.min_key, info.max_key] {
                let err = swapped.get(key).unwrap_err();
                assert!(err.to_string().contains("corrupt"), "{err}");
            }
        }
        let keys: Vec<u64> = rows.iter().map(|r| r.key).collect();
        let mut answered = 0;
        let degraded = swapped.probe_batch(&keys, &mut ProbePlan::default(), None, &mut |qi, values| {
            assert_eq!(values, rows[qi].values.as_slice(), "key {}", keys[qi]);
            answered += 1;
        });
        assert!(degraded.iter().all(|(_, err)| matches!(err, StorageError::Corrupt(_))));
        let affected = directory[0].rows + directory[last].rows;
        assert_eq!((answered, degraded.len()), (rows.len() - affected, affected));
        assert!(swapped.iter_rows().is_err(), "scans refuse the misplaced frame too");
    }

    /// The derived directory names exactly the key ranges the ranks address.
    #[test]
    fn partition_directory_is_derived_from_base() {
        let rows = sample_rows(700); // keys 0, 3, ..., 2097
        let table = build_table(&rows);
        let directory = table.partition_directory();
        assert_eq!(directory.len(), table.partition_count());
        let mut next = 0u64;
        for (idx, info) in directory.iter().enumerate() {
            assert_eq!(info.rows, table.partition_len(idx));
            assert_eq!(info.min_key, next * 3);
            next += info.rows as u64;
            assert_eq!(info.max_key, (next - 1) * 3);
            assert_eq!(table.address(info.min_key), (idx, 0));
            assert_eq!(table.address(info.max_key), (idx, info.rows - 1));
        }
        assert_eq!(next, 700);
        assert_eq!(table.held_keys(), *table.base().bits());
    }

    #[test]
    fn constrained_pool_still_answers_correctly() {
        let rows = sample_rows(20_000);
        let metrics = Metrics::new();
        let table = build_with(&rows, 8 * 1024, metrics.clone()); // much smaller than the data
        let keys: Vec<u64> = (0..60_000u64).step_by(7).collect();
        let results = table.get_batch(&keys).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            let expected = (k % 3 == 0).then(|| vec![((k / 3) % 7) as u32, ((k / 3) % 4) as u32]);
            assert_eq!(results[i], expected, "key {k}");
        }
        assert!(metrics.snapshot().pool_evictions > 0);
    }
}
