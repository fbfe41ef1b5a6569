//! The snapshot manifest: everything `open` needs before touching a partition.
//!
//! The manifest is one CRC-protected blob right after the header.  It carries the
//! store configuration, the mapping schema (key encoder + cardinalities), the
//! decode labels, the live counters, the auxiliary overlay (delta rows +
//! tombstones — small by design, so they ride along eagerly) and the section
//! table: lengths and CRC-32s of the model, existence and `base` sections plus the
//! per-partition directory (row count, frame length, frame CRC — no keys: a
//! partition's rows are addressed by rank over `base`).
//! Section *offsets* are never stored — they are the cumulative sums of the
//! recorded lengths in a fixed order, which keeps the encoding single-pass and
//! makes an inconsistent length instantly detectable against the file size.

use crate::error::{PersistError, Result};
use dm_core::{
    DeepMappingConfig, MappingSchema, MhasConfig, Quantization, SearchStrategy, TrainingConfig,
};
use dm_nn::serialize::{ByteReader, ByteWriter};
use dm_nn::{KeyEncoder, MultiTaskSpec, TaskHeadSpec};
use dm_storage::{DiskProfile, Row};
use std::time::Duration;

/// Search-strategy tags.
const SEARCH_DEFAULT: u8 = 0;
const SEARCH_FIXED: u8 = 1;
const SEARCH_MHAS: u8 = 2;

/// Arithmetic tags, the config's last byte.  Every store serves int8; `0` is
/// what an f32 store of an earlier release wrote, and it does not open.
const ARITHMETIC_F32: u8 = 0;
const ARITHMETIC_INT8: u8 = 1;

/// `usize::MAX` budgets are serialized as this sentinel so 32-/64-bit builds
/// agree on "unbounded".
const UNBOUNDED: u64 = u64::MAX;

/// Directory entry of one partition frame inside the snapshot file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionEntry {
    /// Rows packed in the partition — redundant with `base` by design: open
    /// cross-checks the two before any rank is trusted.
    pub rows: u64,
    /// Frame length in bytes.
    pub frame_len: u64,
    /// CRC-32 of the frame bytes.
    pub frame_crc: u32,
}

/// The decoded manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Store configuration the structure was built with.
    pub config: DeepMappingConfig,
    /// Mapping schema (key encoder + per-column cardinalities).
    pub schema: MappingSchema,
    /// Per-column decode labels (`fdecode`).
    pub decode_labels: Vec<Vec<String>>,
    /// Live tuple count.
    pub tuple_count: u64,
    /// Retrains since the original build.
    pub retrain_count: u64,
    /// Value columns per row.
    pub value_columns: u32,
    /// Partition directory in file order (entry `i` ↔ partition id `i`).
    pub partitions: Vec<PartitionEntry>,
    /// Auxiliary delta-overlay rows.
    pub delta: Vec<Row>,
    /// Auxiliary tombstoned keys.
    pub tombstones: Vec<u64>,
    /// Model section length / CRC-32.
    pub model_len: u64,
    /// CRC-32 of the model section.
    pub model_crc: u32,
    /// Existence section length / CRC-32.
    pub exist_len: u64,
    /// CRC-32 of the existence section.
    pub exist_crc: u32,
    /// `base` (keys held in partitions) section length.
    pub base_len: u64,
    /// CRC-32 of the `base` section.
    pub base_crc: u32,
}

fn rd<T>(res: dm_nn::Result<T>) -> Result<T> {
    res.map_err(|err| PersistError::Corrupt {
        section: "manifest",
        detail: err.to_string(),
    })
}

fn corrupt(detail: impl Into<String>) -> PersistError {
    PersistError::Corrupt {
        section: "manifest",
        detail: detail.into(),
    }
}

fn put_str(w: &mut ByteWriter, s: &str) {
    w.put_u32(s.len() as u32);
    w.put_bytes(s.as_bytes());
}

fn get_str(r: &mut ByteReader<'_>) -> Result<String> {
    let len = rd(r.get_u32())? as usize;
    if len > 1 << 24 {
        return Err(corrupt(format!("implausible string length {len}")));
    }
    let bytes = rd(r.get_bytes(len))?;
    String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("label is not valid UTF-8"))
}

fn put_budget(w: &mut ByteWriter, bytes: usize) {
    w.put_u64(if bytes == usize::MAX { UNBOUNDED } else { bytes as u64 });
}

fn get_budget(r: &mut ByteReader<'_>) -> Result<usize> {
    let raw = rd(r.get_u64())?;
    Ok(if raw == UNBOUNDED {
        usize::MAX
    } else {
        usize::try_from(raw).unwrap_or(usize::MAX)
    })
}

fn put_spec(w: &mut ByteWriter, spec: &MultiTaskSpec) {
    w.put_u32(spec.input_dim as u32);
    w.put_u32(spec.shared_hidden.len() as u32);
    for &width in &spec.shared_hidden {
        w.put_u32(width as u32);
    }
    w.put_u32(spec.heads.len() as u32);
    for head in &spec.heads {
        w.put_u32(head.hidden.len() as u32);
        for &width in &head.hidden {
            w.put_u32(width as u32);
        }
        w.put_u32(head.classes as u32);
    }
}

fn get_spec(r: &mut ByteReader<'_>) -> Result<MultiTaskSpec> {
    let input_dim = rd(r.get_u32())? as usize;
    let n_shared = rd(r.get_u32())? as usize;
    if n_shared > 64 {
        return Err(corrupt("implausible shared layer count"));
    }
    let mut shared_hidden = Vec::with_capacity(n_shared);
    for _ in 0..n_shared {
        shared_hidden.push(rd(r.get_u32())? as usize);
    }
    let n_heads = rd(r.get_u32())? as usize;
    if n_heads > 4096 {
        return Err(corrupt("implausible head count"));
    }
    let mut heads = Vec::with_capacity(n_heads);
    for _ in 0..n_heads {
        let n_hidden = rd(r.get_u32())? as usize;
        if n_hidden > 64 {
            return Err(corrupt("implausible private layer count"));
        }
        let mut hidden = Vec::with_capacity(n_hidden);
        for _ in 0..n_hidden {
            hidden.push(rd(r.get_u32())? as usize);
        }
        let classes = rd(r.get_u32())? as usize;
        heads.push(TaskHeadSpec { hidden, classes });
    }
    Ok(MultiTaskSpec {
        input_dim,
        shared_hidden,
        heads,
    })
}

fn put_config(w: &mut ByteWriter, config: &DeepMappingConfig) {
    let (codec_tag, record_width) = match config.codec {
        dm_compress::Codec::Dictionary { record_width } => (config.codec.tag(), record_width as u32),
        _ => (config.codec.tag(), 0),
    };
    w.put_u8(codec_tag);
    w.put_u32(record_width);
    w.put_u64(config.partition_bytes as u64);
    put_budget(w, config.memory_budget_bytes);
    w.put_u64(config.disk_profile.read_bandwidth.to_bits());
    w.put_u64(config.disk_profile.read_latency.as_nanos() as u64);
    w.put_u64(config.training.epochs as u64);
    w.put_u64(config.training.batch_size as u64);
    w.put_f32(config.training.learning_rate);
    w.put_f32(config.training.lr_decay);
    w.put_f32(config.training.loss_tolerance);
    match &config.search {
        SearchStrategy::DefaultArchitecture => w.put_u8(SEARCH_DEFAULT),
        SearchStrategy::Fixed(spec) => {
            w.put_u8(SEARCH_FIXED);
            put_spec(w, spec);
        }
        SearchStrategy::Mhas(mhas) => {
            w.put_u8(SEARCH_MHAS);
            w.put_u64(mhas.iterations as u64);
            w.put_u64(mhas.model_epochs as u64);
            w.put_u64(mhas.controller_every as u64);
            w.put_u64(mhas.batch_size as u64);
            w.put_u64(mhas.sample_rows as u64);
            w.put_u32(mhas.layer_sizes.len() as u32);
            for &size in &mhas.layer_sizes {
                w.put_u32(size as u32);
            }
            w.put_u64(mhas.controller_hidden as u64);
            w.put_f32(mhas.entropy_bonus);
        }
    }
    match config.retrain_aux_bytes {
        Some(bytes) => {
            w.put_u8(1);
            w.put_u64(bytes as u64);
        }
        None => {
            w.put_u8(0);
            w.put_u64(0);
        }
    }
    match config.exec_threads {
        Some(threads) => {
            w.put_u8(1);
            w.put_u64(threads as u64);
        }
        None => {
            w.put_u8(0);
            w.put_u64(0);
        }
    }
    w.put_u64(config.seed);
    w.put_u8(ARITHMETIC_INT8);
}

fn get_config(r: &mut ByteReader<'_>) -> Result<DeepMappingConfig> {
    let codec_tag = rd(r.get_u8())?;
    let record_width = rd(r.get_u32())? as usize;
    let codec = dm_compress::Codec::from_tag(codec_tag, record_width)
        .ok_or_else(|| corrupt(format!("unknown codec tag {codec_tag}")))?;
    let partition_bytes = rd(r.get_u64())? as usize;
    let memory_budget_bytes = get_budget(r)?;
    let read_bandwidth = f64::from_bits(rd(r.get_u64())?);
    let read_latency = Duration::from_nanos(rd(r.get_u64())?);
    let training = TrainingConfig {
        epochs: rd(r.get_u64())? as usize,
        batch_size: rd(r.get_u64())? as usize,
        learning_rate: rd(r.get_f32())?,
        lr_decay: rd(r.get_f32())?,
        loss_tolerance: rd(r.get_f32())?,
    };
    let search = match rd(r.get_u8())? {
        SEARCH_DEFAULT => SearchStrategy::DefaultArchitecture,
        SEARCH_FIXED => SearchStrategy::Fixed(get_spec(r)?),
        SEARCH_MHAS => {
            let iterations = rd(r.get_u64())? as usize;
            let model_epochs = rd(r.get_u64())? as usize;
            let controller_every = rd(r.get_u64())? as usize;
            let batch_size = rd(r.get_u64())? as usize;
            let sample_rows = rd(r.get_u64())? as usize;
            let n_sizes = rd(r.get_u32())? as usize;
            if n_sizes > 256 {
                return Err(corrupt("implausible MHAS layer-size count"));
            }
            let mut layer_sizes = Vec::with_capacity(n_sizes);
            for _ in 0..n_sizes {
                layer_sizes.push(rd(r.get_u32())? as usize);
            }
            let controller_hidden = rd(r.get_u64())? as usize;
            let entropy_bonus = rd(r.get_f32())?;
            SearchStrategy::Mhas(MhasConfig {
                iterations,
                model_epochs,
                controller_every,
                batch_size,
                sample_rows,
                layer_sizes,
                controller_hidden,
                entropy_bonus,
            })
        }
        tag => return Err(corrupt(format!("unknown search-strategy tag {tag}"))),
    };
    let retrain_flag = rd(r.get_u8())?;
    let retrain_bytes = rd(r.get_u64())? as usize;
    let exec_flag = rd(r.get_u8())?;
    let exec_threads = rd(r.get_u64())? as usize;
    let seed = rd(r.get_u64())?;
    match rd(r.get_u8())? {
        ARITHMETIC_INT8 => {}
        ARITHMETIC_F32 => {
            return Err(corrupt(
                "the store serves f32 arithmetic; only int8 stores open",
            ))
        }
        tag => return Err(corrupt(format!("unknown arithmetic tag {tag}"))),
    }
    Ok(DeepMappingConfig {
        codec,
        partition_bytes,
        memory_budget_bytes,
        disk_profile: DiskProfile {
            read_bandwidth,
            read_latency,
        },
        training,
        search,
        retrain_aux_bytes: (retrain_flag == 1).then_some(retrain_bytes),
        exec_threads: (exec_flag == 1).then_some(exec_threads),
        seed,
        quantization: Quantization::Int8,
    })
}

fn put_schema(w: &mut ByteWriter, schema: &MappingSchema) {
    w.put_u32(schema.key_encoder.bits() as u32);
    w.put_u32(schema.key_encoder.moduli().len() as u32);
    for &m in schema.key_encoder.moduli() {
        w.put_u64(m);
    }
    w.put_u32(schema.key_encoder.ramp_periods().len() as u32);
    for &p in schema.key_encoder.ramp_periods() {
        w.put_u64(p);
    }
    w.put_u32(schema.cardinalities.len() as u32);
    for &card in &schema.cardinalities {
        w.put_u32(card);
    }
}

fn get_schema(r: &mut ByteReader<'_>) -> Result<MappingSchema> {
    let bits = rd(r.get_u32())? as usize;
    let n_moduli = rd(r.get_u32())? as usize;
    if bits == 0 || bits > 64 || n_moduli > 64 {
        return Err(corrupt("implausible key-encoder shape"));
    }
    let mut moduli = Vec::with_capacity(n_moduli);
    for _ in 0..n_moduli {
        let m = rd(r.get_u64())?;
        // Each modulus contributes `m` one-hot features: zero would panic at
        // the first `key % 0` and a huge value inflates input_dim to OOM
        // scale.  Legitimate moduli are small primes (see PERIODIC_MODULI).
        if m == 0 || m > 4096 {
            return Err(corrupt("implausible one-hot modulus"));
        }
        moduli.push(m);
    }
    let n_ramps = rd(r.get_u32())? as usize;
    if n_ramps > 64 {
        return Err(corrupt("implausible ramp count"));
    }
    let mut ramps = Vec::with_capacity(n_ramps);
    for _ in 0..n_ramps {
        ramps.push(rd(r.get_u64())?);
    }
    let n_cols = rd(r.get_u32())? as usize;
    if n_cols == 0 || n_cols > 4096 {
        return Err(corrupt("implausible column count"));
    }
    let mut cardinalities = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        cardinalities.push(rd(r.get_u32())?);
    }
    Ok(MappingSchema {
        key_encoder: KeyEncoder::from_parts(bits, moduli, &ramps),
        cardinalities,
    })
}

impl Manifest {
    /// Encodes the manifest into its CRC-protected blob.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        put_config(&mut w, &self.config);
        put_schema(&mut w, &self.schema);
        w.put_u32(self.decode_labels.len() as u32);
        for column in &self.decode_labels {
            w.put_u32(column.len() as u32);
            for label in column {
                put_str(&mut w, label);
            }
        }
        w.put_u64(self.tuple_count);
        w.put_u64(self.retrain_count);
        w.put_u32(self.value_columns);
        w.put_u32(self.partitions.len() as u32);
        for entry in &self.partitions {
            w.put_u64(entry.rows);
            w.put_u64(entry.frame_len);
            w.put_u32(entry.frame_crc);
        }
        w.put_u32(self.delta.len() as u32);
        for row in &self.delta {
            w.put_u64(row.key);
            for &value in &row.values {
                w.put_u32(value);
            }
        }
        w.put_u32(self.tombstones.len() as u32);
        for &key in &self.tombstones {
            w.put_u64(key);
        }
        w.put_u64(self.model_len);
        w.put_u32(self.model_crc);
        w.put_u64(self.exist_len);
        w.put_u32(self.exist_crc);
        w.put_u64(self.base_len);
        w.put_u32(self.base_crc);
        w.into_bytes()
    }

    /// Decodes a manifest blob (the caller has already verified its CRC and
    /// gated on the one snapshot version whose layout this is).
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let config = get_config(&mut r)?;
        let schema = get_schema(&mut r)?;
        let n_label_cols = rd(r.get_u32())? as usize;
        if n_label_cols > 4096 {
            return Err(corrupt("implausible decode-label column count"));
        }
        let mut decode_labels = Vec::with_capacity(n_label_cols);
        for _ in 0..n_label_cols {
            let n_labels = rd(r.get_u32())? as usize;
            if n_labels > 1 << 24 {
                return Err(corrupt("implausible label count"));
            }
            let mut column = Vec::with_capacity(n_labels);
            for _ in 0..n_labels {
                column.push(get_str(&mut r)?);
            }
            decode_labels.push(column);
        }
        let tuple_count = rd(r.get_u64())?;
        let retrain_count = rd(r.get_u64())?;
        let value_columns = rd(r.get_u32())?;
        if value_columns == 0 || value_columns > 4096 {
            return Err(corrupt("implausible value-column count"));
        }
        // Derivable state must agree with its source of truth: delta rows and
        // the aux table are reconstituted `value_columns` wide, the model and
        // lookup path serve `cardinalities.len()` columns — a mismatch would
        // pass every CRC and still produce wrong-arity rows.
        if value_columns as usize != schema.cardinalities.len() {
            return Err(corrupt(
                "value-column count disagrees with the schema's column count",
            ));
        }
        let n_partitions = rd(r.get_u32())? as usize;
        if n_partitions > 1 << 24 {
            return Err(corrupt("implausible partition count"));
        }
        let mut partitions = Vec::with_capacity(n_partitions);
        for _ in 0..n_partitions {
            let rows = rd(r.get_u64())?;
            let frame_len = rd(r.get_u64())?;
            let frame_crc = rd(r.get_u32())?;
            if rows == 0 || frame_len == 0 {
                return Err(corrupt("malformed partition directory entry"));
            }
            partitions.push(PartitionEntry {
                rows,
                frame_len,
                frame_crc,
            });
        }
        let n_delta = rd(r.get_u32())? as usize;
        if n_delta > 1 << 28 {
            return Err(corrupt("implausible delta-row count"));
        }
        let mut delta = Vec::with_capacity(n_delta);
        for _ in 0..n_delta {
            let key = rd(r.get_u64())?;
            let mut values = Vec::with_capacity(value_columns as usize);
            for _ in 0..value_columns {
                values.push(rd(r.get_u32())?);
            }
            delta.push(Row::new(key, values));
        }
        let n_tombstones = rd(r.get_u32())? as usize;
        if n_tombstones > 1 << 28 {
            return Err(corrupt("implausible tombstone count"));
        }
        let mut tombstones = Vec::with_capacity(n_tombstones);
        for _ in 0..n_tombstones {
            tombstones.push(rd(r.get_u64())?);
        }
        let model_len = rd(r.get_u64())?;
        let model_crc = rd(r.get_u32())?;
        let exist_len = rd(r.get_u64())?;
        let exist_crc = rd(r.get_u32())?;
        let base_len = rd(r.get_u64())?;
        let base_crc = rd(r.get_u32())?;
        if r.remaining() != 0 {
            return Err(corrupt(format!("{} trailing bytes", r.remaining())));
        }
        Ok(Manifest {
            config,
            schema,
            decode_labels,
            tuple_count,
            retrain_count,
            value_columns,
            partitions,
            delta,
            tombstones,
            model_len,
            model_crc,
            exist_len,
            exist_crc,
            base_len,
            base_crc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest(search: SearchStrategy) -> Manifest {
        let rows: Vec<Row> = (0..64u64)
            .map(|k| Row::new(k, vec![(k % 3) as u32, ((k / 5) % 4) as u32]))
            .collect();
        Manifest {
            // `exec_threads` is read by nothing, but the manifest still
            // carries it, so a snapshot written with it set opens.
            config: DeepMappingConfig {
                exec_threads: Some(3),
                ..DeepMappingConfig::dm_l()
                    .with_search(search)
                    .with_retrain_threshold(12_345)
                    .with_seed(77)
            },
            schema: MappingSchema::infer(&rows, 1 << 10).unwrap(),
            decode_labels: vec![vec!["a".into(), "b\"c\\".into()], Vec::new()],
            tuple_count: 64,
            retrain_count: 2,
            value_columns: 2,
            partitions: vec![
                PartitionEntry {
                    rows: 10,
                    frame_len: 512,
                    frame_crc: 0xDEAD_BEEF,
                },
                PartitionEntry {
                    rows: 11,
                    frame_len: 600,
                    frame_crc: 42,
                },
            ],
            delta: vec![Row::new(5, vec![1, 2]), Row::new(99, vec![3, 0])],
            tombstones: vec![7, 12],
            model_len: 4_096,
            model_crc: 1,
            exist_len: 128,
            exist_crc: 2,
            base_len: 64,
            base_crc: 3,
        }
    }

    fn assert_round_trip(manifest: &Manifest) {
        let bytes = manifest.encode();
        let decoded = Manifest::decode(&bytes).unwrap();
        assert_eq!(decoded.config, manifest.config);
        assert_eq!(decoded.schema, manifest.schema);
        assert_eq!(decoded.decode_labels, manifest.decode_labels);
        assert_eq!(decoded.tuple_count, manifest.tuple_count);
        assert_eq!(decoded.retrain_count, manifest.retrain_count);
        assert_eq!(decoded.value_columns, manifest.value_columns);
        assert_eq!(decoded.partitions, manifest.partitions);
        assert_eq!(decoded.delta, manifest.delta);
        assert_eq!(decoded.tombstones, manifest.tombstones);
        assert_eq!(decoded.model_len, manifest.model_len);
        assert_eq!(decoded.model_crc, manifest.model_crc);
        assert_eq!(decoded.exist_len, manifest.exist_len);
        assert_eq!(decoded.exist_crc, manifest.exist_crc);
        assert_eq!(decoded.base_len, manifest.base_len);
        assert_eq!(decoded.base_crc, manifest.base_crc);
    }

    #[test]
    fn manifest_round_trips_for_every_search_strategy() {
        assert_round_trip(&sample_manifest(SearchStrategy::DefaultArchitecture));
        assert_round_trip(&sample_manifest(SearchStrategy::Fixed(MultiTaskSpec {
            input_dim: 10,
            shared_hidden: vec![16, 8],
            heads: vec![TaskHeadSpec::with_hidden(vec![12], 5), TaskHeadSpec::direct(7)],
        })));
        assert_round_trip(&sample_manifest(SearchStrategy::Mhas(MhasConfig::quick())));
    }

    #[test]
    fn quantized_configs_round_trip_and_unknown_tags_are_rejected() {
        let manifest = sample_manifest(SearchStrategy::DefaultArchitecture);
        assert_round_trip(&manifest);

        // The manifest opens with the config, and the config ends with the tag.
        let mut config = ByteWriter::new();
        put_config(&mut config, &manifest.config);
        let tag_at = config.into_bytes().len() - 1;
        let bytes = manifest.encode();
        assert_eq!(bytes[tag_at], ARITHMETIC_INT8);

        // An f32 store is refused by name; an unknown tag is refused, not defaulted.
        for (tag, names) in [(ARITHMETIC_F32, "f32"), (0x7F, "unknown arithmetic tag 127")] {
            let mut bad = bytes.clone();
            bad[tag_at] = tag;
            match Manifest::decode(&bad) {
                Err(PersistError::Corrupt { section: "manifest", detail }) => {
                    assert!(detail.contains(names), "{detail}")
                }
                other => panic!("tag {tag} must be Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn unbounded_budgets_survive_the_sentinel() {
        let mut manifest = sample_manifest(SearchStrategy::DefaultArchitecture);
        manifest.config.memory_budget_bytes = usize::MAX;
        manifest.config.disk_profile = DiskProfile::free(); // infinite bandwidth
        assert_round_trip(&manifest);
    }

    #[test]
    fn hostile_schema_and_column_counts_are_rejected() {
        // A zero one-hot modulus would panic (`key % 0`) at the first lookup;
        // a huge one inflates input_dim to OOM scale.  Both must die at decode.
        let mut manifest = sample_manifest(SearchStrategy::DefaultArchitecture);
        manifest.schema.key_encoder = KeyEncoder::from_parts(8, vec![0], &[]);
        assert!(matches!(
            Manifest::decode(&manifest.encode()),
            Err(PersistError::Corrupt { .. })
        ));
        let mut manifest = sample_manifest(SearchStrategy::DefaultArchitecture);
        manifest.schema.key_encoder = KeyEncoder::from_parts(8, vec![1 << 33], &[]);
        assert!(matches!(
            Manifest::decode(&manifest.encode()),
            Err(PersistError::Corrupt { .. })
        ));
        // value_columns is derivable from the schema; a disagreement would
        // reconstitute wrong-arity rows from a CRC-clean file.
        let mut manifest = sample_manifest(SearchStrategy::DefaultArchitecture);
        manifest.value_columns = 3; // the sample schema has 2 columns
        assert!(matches!(
            Manifest::decode(&manifest.encode()),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn truncated_and_trailing_manifests_are_rejected() {
        let bytes = sample_manifest(SearchStrategy::DefaultArchitecture).encode();
        assert!(Manifest::decode(&bytes[..bytes.len() / 2]).is_err());
        assert!(Manifest::decode(&[]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            Manifest::decode(&extended),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn malformed_directory_entries_are_rejected() {
        let mut manifest = sample_manifest(SearchStrategy::DefaultArchitecture);
        manifest.partitions[0].rows = 0; // an empty partition is never written
        assert!(Manifest::decode(&manifest.encode()).is_err());
    }
}
