//! The multi-task network of Section IV-A: shared trunk layers that abstract the key,
//! followed by one private head per value column.
//!
//! A table `R(K, V1, ..., Vm)` becomes one model with `m` output heads.  The trunk is
//! shared across all heads (this is where the compression comes from — common key
//! structure is stored once) while the heads specialize for each output attribute.
//! MHAS (in `dm-core`) searches the number and width of both trunk and head layers;
//! this module only cares about instantiating and training a concrete choice.

use crate::encoding::KeyEncoder;
use crate::kernel::{self, PackedPanels, QuantizedPanels, QuantizedRows, RowsView, LANES};
use crate::layer::{backward_chain, forward_train_chain, Activation, Dense};
use crate::loss::softmax_cross_entropy;
use crate::optimizer::Optimizer;
use crate::tensor::Matrix;
use rand::Rng;
use std::cell::Cell;

/// Rows per forward chunk: a walk holds one chunk of activations (three
/// regions of `chunk × widest layer` f32, plus one byte per input value of the
/// layer running), so bounding chunks keeps them cache-resident however large
/// the batch.
///
/// Tuned against the `vpdpbusd` kernels with a chunk sweep over the serial
/// walk (trained DM-Z network, 25 k-row batch, best-of-7 serial
/// ns/row, two runs on a loud host): 24 → 533 / 546, 48 → 511 / 526,
/// 96 → 510 / 532, 192 → 521 / 522, 256 → 597 / 541, 512 → 524 / 560,
/// 1024 → 533 / 549, 4096 → 647 / 661 — flat up to a few hundred rows and
/// worse at 4096, where the old kernels preferred 256 (845 against 858–935).
/// Among the flat ones the (since removed) parallel path decided: each pool
/// task zeroed its own working memory, and on a 2-thread pool a 2 200-row
/// batch of the 38 → 141 → 141 → 5 × (35 → c) model ran at 662–667 ns/row with 256-row
/// chunks, 464 with 192, 361–434 with 96 and 346 with 48 (scratch harness,
/// median of ten rounds each).  96 is sixteen whole 6-row register tiles of
/// the `vpdpbusd` form and six whole sixteen-key groups.
///
/// Re-checked with a since-removed tile-unit form in place (quantized
/// benchmark-shape model, serial walk, best of 6 × 20, ns/row at 2 445 / 25 000 rows, two
/// rounds, same loud host; the `vpdpbusd` walk beside it moved 590–820 across
/// the same cells, so read ± 60): 32 → 496 / 543 and 649 / 688, 48 → 615 / 702
/// and 621 / 664, 64 → 532 / 556 and 616 / 501, 96 → 518 / 538 and 455 / 492,
/// 128 → 514 / 470 and 507 / 456, 192 → 461 / 450 and 576 / 482, 256 →
/// 531 / 437 and 550 / 453, 512 → 512 / 453 and 506 / 465 — worse under 64,
/// flat from 96 to 512, so the parallel path's preference for small chunks
/// still decided and 96 stayed.
///
/// Re-checked with the keys-in source and the two-phase row quantizer (PR 20;
/// same model, `forward_keys_flat` on a serial pool, best of 6 × 20, ns/row
/// at 2 445 / 25 000 rows, two rounds, same loud host, read ± 30): 32 →
/// 503 / 539 and 465 / 490, 48 → 483 / 508 and 488 / 508, 64 → 451 / 482 and
/// 456 / 481, 96 → 457 / 461 and 467 / 469, 128 → 455 / 463 and 468 / 468,
/// 192 → 485 / 444 and 497 / 466, 256 → 498 / 445 and 488 / 471, 512 →
/// 547 / 466 and 537 / 466 — a lookup-sized batch is best from 64 to 128 and
/// loses 30–90 ns/row from 192 up (fewer, larger chunks leave a longer ragged
/// tail and the key chunk, the quantized rows and three regions no longer sit
/// in L1 together), a 25 000-row one is flat from 96 up.  96 stays.
///
/// Every sweep above ran the 141-wide model, which no longer serves the
/// frozen benchmark: its build now keeps the width ladder's 38 → 16 → 5 × c
/// rung.  Re-checked on that shape (frozen benchmark `mem_mixed`, seed 1,
/// 10 s windows, four interleaved rounds of one tree copy per chunk size,
/// 2-vcore Xeon, with the tile-unit form; M keys/s): 48 → 12.5–14.0 (median 13.2), 96 →
/// 14.1–14.6 (14.4), 192 → 14.0–15.6 (14.8, two rounds at 14.0), 384 →
/// 14.1–14.3 (14.2).  Only 48 loses; 96 to 384 sit within one round's
/// spread, so 96 stays.
///
/// Re-checked on the keys-in-lanes walk (output layers take each head's
/// class in their epilogue, keys quantized by one masked store; same
/// benchmark, seed, windows and host, six interleaved rounds; M keys/s):
/// 96 → 21.2–29.4 (median 22.9), 192 → 23.1–30.2 (24.0), 384 → 22.8–31.5
/// (27.1), 768 → 23.1–30.0 (24.5).  The host ran in two modes, ≈ 23 and
/// ≈ 30, and every size landed in both; 384 won three rounds of six, 96 one,
/// so no size wins and 96 stays.  When the kernels or the rung change, rerun
/// the sweep from a scratch harness (one copy of the tree per chunk size, the
/// constant edited) and judge it on `mem_mixed`'s `keys_per_s`.
pub const CACHE_CHUNK_ROWS: usize = 96;

/// Specification of one private head: hidden widths plus the number of output classes
/// (the cardinality of the target column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskHeadSpec {
    /// Hidden layer widths private to this task (possibly empty).
    pub hidden: Vec<usize>,
    /// Number of distinct values of the target column.
    pub classes: usize,
}

impl TaskHeadSpec {
    /// A head with no private hidden layers.
    pub fn direct(classes: usize) -> Self {
        TaskHeadSpec {
            hidden: Vec::new(),
            classes,
        }
    }

    /// A head with the given private hidden widths.
    pub fn with_hidden(hidden: Vec<usize>, classes: usize) -> Self {
        TaskHeadSpec { hidden, classes }
    }
}

/// Specification of the full multi-task model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiTaskSpec {
    /// Number of input features (key encoding width).
    pub input_dim: usize,
    /// Shared trunk hidden widths (possibly empty — heads then read the input directly).
    pub shared_hidden: Vec<usize>,
    /// One head per value column.
    pub heads: Vec<TaskHeadSpec>,
}

impl MultiTaskSpec {
    /// Total number of trainable parameters this spec instantiates.
    pub fn parameter_count(&self) -> usize {
        let mut count = 0usize;
        let mut prev = self.input_dim;
        for &w in &self.shared_hidden {
            count += prev * w + w;
            prev = w;
        }
        let trunk_out = prev;
        for head in &self.heads {
            let mut prev = trunk_out;
            for &w in &head.hidden {
                count += prev * w + w;
                prev = w;
            }
            count += prev * head.classes + head.classes;
        }
        count
    }

    /// Multiply-accumulates of one row's forward pass — what a predicted key costs:
    /// every parameter but the biases, and a layer has one bias per output.
    pub fn macs_per_key(&self) -> usize {
        let outputs = |head: &TaskHeadSpec| head.hidden.iter().sum::<usize>() + head.classes;
        let biases = self.shared_hidden.iter().sum::<usize>()
            + self.heads.iter().map(outputs).sum::<usize>();
        self.parameter_count() - biases
    }

    fn validate(&self) -> crate::Result<()> {
        if self.input_dim == 0 {
            return Err(crate::NnError::InvalidConfig(
                "multi-task input dimension must be positive".into(),
            ));
        }
        if self.heads.is_empty() {
            return Err(crate::NnError::InvalidConfig(
                "multi-task model needs at least one head".into(),
            ));
        }
        if self.shared_hidden.contains(&0) {
            return Err(crate::NnError::InvalidConfig(
                "shared layer width must be positive".into(),
            ));
        }
        for (i, head) in self.heads.iter().enumerate() {
            if head.classes == 0 {
                return Err(crate::NnError::InvalidConfig(format!(
                    "head {i} has zero output classes"
                )));
            }
            if head.hidden.contains(&0) {
                return Err(crate::NnError::InvalidConfig(format!(
                    "head {i} has a zero-width hidden layer"
                )));
            }
        }
        Ok(())
    }
}

/// What one [`MultiTaskModel::train_batch`] step saw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainStep {
    /// Mean cross-entropy across tasks.
    pub loss: f32,
    /// Rows whose every head's argmax was its target in the step's forward pass.
    pub right_rows: usize,
}

/// The instantiated multi-task model.
#[derive(Debug, Clone)]
pub struct MultiTaskModel {
    spec: MultiTaskSpec,
    trunk: Vec<Dense>,
    heads: Vec<Vec<Dense>>,
    /// Every head's first layer as one panel (see [`FusedEntry`]); `None`
    /// whenever the layers it would be built from are not all quantized.
    fused_entry: Option<FusedEntry>,
    /// The heads' entry's side-by-side matrix in a training step: every
    /// head's first-layer pre-activations on the way up, their gradients on
    /// the way down — reused from step to step, as each layer reuses its own
    /// output.
    entry_wide: Matrix,
}

/// The heads' first layers concatenated column-wise into one int8 panel: they
/// all read the trunk output, so one kernel call over the wide panel replaces
/// one call per head (five 35-column layers are 5 × 3 = 15 panels apart and
/// 11 together).  Output columns are independent in every kernel, so head
/// `h` finds in columns `[Σ_{i<h} nᵢ, … + n_h)` exactly what its own layer
/// computes.  Derived from the layers' quantized panels, never stored.  When
/// every head is direct the panel is every head's output layer, and the walk
/// takes the heads' classes straight off it
/// ([`kernel::argmax_prequantized`] over `widths`); otherwise it writes the
/// panel's output, each deep head runs its layers above its columns, and a
/// direct head among them reads its class off its columns
/// ([`kernel::argmax_rows`]).
///
/// Training runs the same entry over the f32 weights
/// ([`MultiTaskModel::train_batch`]): its forward over
/// [`PackedPanels::concat_columns`] of the heads' first layers, and its
/// backward as one segmented `dy · Wᵀ`.
#[derive(Debug, Clone)]
struct FusedEntry {
    panels: QuantizedPanels,
    activation: Activation,
    /// Whether every head is its first layer alone.
    direct: bool,
    /// The heads' first layers' widths, in head order.
    widths: Vec<usize>,
}

impl FusedEntry {
    /// The fused panel of `heads`, when there is more than one head and
    /// their first layers are all quantized and share an activation.
    fn build(heads: &[Vec<Dense>]) -> crate::Result<Option<Self>> {
        let Some(activation) = heads.first().and_then(|head| head.first()).map(Dense::activation)
        else {
            return Ok(None);
        };
        let parts: Option<Vec<&QuantizedPanels>> = heads
            .iter()
            .map(|head| head.first().filter(|layer| layer.activation() == activation)?.quantized())
            .collect();
        match parts {
            Some(parts) if parts.len() > 1 => Ok(Some(FusedEntry {
                panels: QuantizedPanels::concat_columns(&parts)?,
                activation,
                direct: heads.iter().all(|head| head.len() == 1),
                widths: parts.iter().map(|part| part.n()).collect(),
            })),
            _ => Ok(None),
        }
    }
}

impl MultiTaskModel {
    /// Instantiates a model with Xavier-initialized weights.
    pub fn new<R: Rng>(rng: &mut R, spec: &MultiTaskSpec) -> crate::Result<Self> {
        spec.validate()?;
        let mut trunk = Vec::with_capacity(spec.shared_hidden.len());
        let mut prev = spec.input_dim;
        for &w in &spec.shared_hidden {
            trunk.push(Dense::new(rng, prev, w, Activation::Relu));
            prev = w;
        }
        let trunk_out = prev;
        let mut heads = Vec::with_capacity(spec.heads.len());
        for head_spec in &spec.heads {
            let mut head = Vec::with_capacity(head_spec.hidden.len() + 1);
            let mut prev = trunk_out;
            for &w in &head_spec.hidden {
                head.push(Dense::new(rng, prev, w, Activation::Relu));
                prev = w;
            }
            head.push(Dense::new(rng, prev, head_spec.classes, Activation::Linear));
            heads.push(head);
        }
        Ok(MultiTaskModel {
            spec: spec.clone(),
            trunk,
            heads,
            fused_entry: None,
            entry_wide: Matrix::zeros(0, 0),
        })
    }

    /// Rebuilds a model from explicit layer stacks (used by deserialization).
    pub fn from_layers(
        spec: MultiTaskSpec,
        trunk: Vec<Dense>,
        heads: Vec<Vec<Dense>>,
    ) -> crate::Result<Self> {
        spec.validate()?;
        if heads.len() != spec.heads.len() {
            return Err(crate::NnError::InvalidConfig(format!(
                "spec declares {} heads but {} were provided",
                spec.heads.len(),
                heads.len()
            )));
        }
        if heads.iter().any(Vec::is_empty) {
            return Err(crate::NnError::InvalidConfig(
                "every head needs at least its output layer".into(),
            ));
        }
        let fused_entry = FusedEntry::build(&heads)?;
        Ok(MultiTaskModel {
            spec,
            trunk,
            heads,
            fused_entry,
            entry_wide: Matrix::zeros(0, 0),
        })
    }

    /// The specification this model was built from.
    pub fn spec(&self) -> &MultiTaskSpec {
        &self.spec
    }

    /// The shared trunk layers.
    pub fn trunk(&self) -> &[Dense] {
        &self.trunk
    }

    /// The private head layer stacks, one per task.
    pub fn heads(&self) -> &[Vec<Dense>] {
        &self.heads
    }

    /// Number of tasks (value columns).
    pub fn num_tasks(&self) -> usize {
        self.heads.len()
    }

    /// Total trainable parameter count.
    pub fn parameter_count(&self) -> usize {
        self.trunk.iter().map(Dense::parameter_count).sum::<usize>()
            + self
                .heads
                .iter()
                .flat_map(|h| h.iter())
                .map(Dense::parameter_count)
                .sum::<usize>()
    }

    /// Serialized model size in bytes; the `size(M)` term in Eq. 1.  Accounts
    /// for quantization: int8 layers serialize one byte per weight plus f32
    /// scales and biases, f32 layers four bytes per parameter — so quantizing
    /// a store genuinely shrinks its reported (and snapshot) footprint.
    pub fn size_bytes(&self) -> usize {
        let layer_bytes = |layer: &Dense| {
            let (rows, cols) = (layer.in_dim(), layer.out_dim());
            if layer.is_quantized() {
                // kind/activation/dims header + per-column scales + int8
                // weights + f32 bias.
                16 + cols * 4 + rows * cols + cols * 4
            } else {
                16 + (rows * cols + cols) * 4
            }
        };
        self.trunk.iter().map(layer_bytes).sum::<usize>()
            + self
                .heads
                .iter()
                .flat_map(|h| h.iter())
                .map(layer_bytes)
                .sum::<usize>()
    }

    /// Batched inference: returns one logit matrix per task (`batch × classes`).
    pub fn forward(&self, x: &Matrix) -> crate::Result<Vec<Matrix>> {
        let mut h = x.clone();
        for layer in &self.trunk {
            h = layer.forward(&h)?;
        }
        let mut outputs = Vec::with_capacity(self.heads.len());
        for head in &self.heads {
            let mut t = h.clone();
            for layer in head {
                t = layer.forward(&t)?;
            }
            outputs.push(t);
        }
        Ok(outputs)
    }

    /// Batched inference returning per-task argmax class predictions
    /// (`predictions[task][row]`).
    pub fn predict_classes(&self, x: &Matrix) -> crate::Result<Vec<Vec<usize>>> {
        let logits = self.forward(x)?;
        Ok(logits
            .iter()
            .map(|m| (0..m.rows()).map(|r| m.argmax_row(r)).collect())
            .collect())
    }

    /// Vectorized inference for the lookup path: one trunk matrix-multiply sequence
    /// over the batch followed by the heads — never a per-key pass — appending
    /// row-major class predictions to a caller-owned flat arena
    /// (`out[row * tasks + task]`), the allocation-free layout `dm-core`'s
    /// buffer-reusing lookup path consumes.  Returns the number of tasks (columns
    /// per row).  Keeping it a dense pass per batch is what amortizes inference
    /// across a lookup batch (Section IV-B2 of the paper).
    ///
    /// This is the features-in entry of the walk (training-time evaluation,
    /// MHAS, anything that already holds a feature matrix); a lookup enters
    /// with its keys through [`forward_keys_flat`](Self::forward_keys_flat).
    /// The walk runs on the calling thread, in cache-sized row chunks.
    pub fn forward_batch_flat(&self, x: &Matrix, out: &mut Vec<u32>) -> crate::Result<usize> {
        self.walk(WalkSource::Features(x), x.rows(), out)
    }

    /// [`forward_batch_flat`](Self::forward_batch_flat) over keys instead
    /// of their features: the predictions of `encoder.encode_batch(keys)`,
    /// without the matrix.  Each row chunk of the walk encodes its own keys —
    /// into the first layer's quantized input rows directly when that layer is
    /// an int8 trunk layer ([`KeyEncoder::quantize_keys`]: no f32 features and
    /// no quantizer pass over them), into one chunk of f32 features otherwise —
    /// and from there on it is the same walk, so the same predictions bit for
    /// bit.  This is the entry the lookup path uses: keys in, and for an int8
    /// model classes out, with no logit written on the way.
    pub fn forward_keys_flat(
        &self,
        encoder: &KeyEncoder,
        keys: &[u64],
        out: &mut Vec<u32>,
    ) -> crate::Result<usize> {
        if encoder.input_dim() != self.spec.input_dim {
            return Err(crate::NnError::ShapeMismatch {
                context: format!(
                    "forward_keys_flat: the encoder emits {} features, the model reads {}",
                    encoder.input_dim(),
                    self.spec.input_dim
                ),
            });
        }
        self.walk(WalkSource::Keys(encoder, keys), keys.len(), out)
    }

    /// The walk behind both entries: `rows` rows of `source`.
    fn walk(
        &self,
        source: WalkSource<'_>,
        rows: usize,
        out: &mut Vec<u32>,
    ) -> crate::Result<usize> {
        let tasks = self.heads.len();
        out.clear();
        out.resize(rows * tasks, 0);
        if rows > 0 {
            self.forward_window(source, CACHE_CHUNK_ROWS, out)?;
        }
        Ok(tasks)
    }

    /// Predictions for the `out.len() / num_tasks` rows of `source`,
    /// `chunk_rows` at a time through one working memory sized for a chunk —
    /// never more than a chunk of activations (or of encoded keys) is live,
    /// whatever the batch.
    fn forward_window(
        &self,
        source: WalkSource<'_>,
        chunk_rows: usize,
        out: &mut [u32],
    ) -> crate::Result<()> {
        let tasks = self.heads.len();
        let chunk_rows = chunk_rows.clamp(1, (out.len() / tasks).max(1));
        let mut scratch = SPARE_WALK.with(Cell::take).unwrap_or_default();
        scratch.fit(self, chunk_rows);
        let walked = self.walk_chunks(source, chunk_rows, out, &mut scratch);
        // Gone only while the thread itself is being torn down.
        let _ = SPARE_WALK.try_with(|spare| spare.set(Some(scratch)));
        walked
    }

    /// The chunk loop of [`forward_window`](Self::forward_window), through
    /// `scratch` sized for `chunk_rows` rows.
    fn walk_chunks(
        &self,
        source: WalkSource<'_>,
        chunk_rows: usize,
        out: &mut [u32],
        scratch: &mut WalkScratch,
    ) -> crate::Result<()> {
        let tasks = self.heads.len();
        // Keys go straight to bytes when the layer that reads them first is an
        // int8 trunk layer; with no trunk every head reads the input, and the
        // one quantized-rows buffer cannot stay theirs between heads.
        let bytes_first = self.trunk.first().is_some_and(Dense::is_quantized);
        let dim = self.spec.input_dim;
        let mut features = Vec::new();
        for (ci, out_chunk) in out.chunks_mut(chunk_rows * tasks).enumerate() {
            let count = out_chunk.len() / tasks;
            let at = ci * chunk_rows;
            let input = match source {
                WalkSource::Features(x) => Some(RowsView::of_matrix(x, at, count)?),
                WalkSource::Keys(encoder, keys) if bytes_first => {
                    encoder.quantize_keys(&keys[at..at + count], &mut scratch.qrows);
                    None
                }
                WalkSource::Keys(encoder, keys) => {
                    features.resize(count * dim, 0.0);
                    for (&key, row) in keys[at..at + count].iter().zip(features.chunks_exact_mut(dim)) {
                        encoder.encode_into(key, row);
                    }
                    Some(RowsView::new(&features, dim, count, dim)?)
                }
            };
            self.forward_rows_flat(input, count, scratch, out_chunk)?;
        }
        Ok(())
    }

    /// Switches every dense layer onto the int8 quantized inference path (see
    /// [`Dense::quantize_int8`]).  Quantization replaces each layer's f32
    /// weights with their dequantized image, so serialization, retraining and
    /// backward passes all see exactly the arithmetic inference executes.
    pub fn quantize_int8(&mut self) -> crate::Result<()> {
        for layer in &mut self.trunk {
            layer.quantize_int8()?;
        }
        for head in &mut self.heads {
            for layer in head.iter_mut() {
                layer.quantize_int8()?;
            }
        }
        self.fused_entry = FusedEntry::build(&self.heads)?;
        Ok(())
    }

    /// Whether any layer serves inference through int8 quantized panels.
    pub fn is_quantized(&self) -> bool {
        self.trunk.iter().any(Dense::is_quantized)
            || self.heads.iter().flatten().any(Dense::is_quantized)
    }

    /// One serial trunk + heads pass over the `count` rows of `input`, writing
    /// row-major argmax predictions into `out` (`count * num_tasks` wide).
    /// `None` for `input` says the first trunk layer's rows already sit
    /// quantized in `scratch.qrows` (the keys-in source over an int8 trunk):
    /// that layer runs over them as they are and the walk goes on from its
    /// output.  Every hidden layer runs through its `*_into` entry point
    /// between the regions of `scratch`, so the walk itself allocates nothing.
    /// An int8 output layer writes no logits: its rows are quantized and
    /// [`kernel::argmax_prequantized`] takes each head's class in the layer's
    /// epilogue, keys in lanes — one pass over the fused panel when every
    /// head is direct (it is then every head's output layer), one per deep
    /// head's last layer otherwise.  An f32 output layer writes its logits to
    /// a region and [`kernel::argmax_rows`] reads them, as does a direct head
    /// whose columns a fused entry shared with deep heads wrote.  It is the per-layer
    /// [`Dense::forward`] chain and [`Matrix::argmax_row`] with the buffers
    /// hoisted out: same kernels, same operands, the same integer sums and
    /// epilogue, so the same classes bit for bit.
    fn forward_rows_flat(
        &self,
        input: Option<RowsView<'_>>,
        count: usize,
        scratch: &mut WalkScratch,
        out: &mut [u32],
    ) -> crate::Result<()> {
        let tasks = self.heads.len();
        debug_assert_eq!(out.len(), count * tasks);
        let mut trunk = self.trunk.iter();
        let mut trunk_out = None;
        let input = match input {
            Some(rows) => rows,
            None => {
                let first = trunk.next().expect("rows quantized for a first trunk layer");
                let panels = first.quantized().expect("rows quantized for an int8 layer");
                // Nothing reads the input window after this layer.
                let nothing = RowsView::new(&[], 0, count, 0)?;
                trunk_out = Some(scratch.step(nothing, None, None, panels.n(), |_, q, to, ld| {
                    let kernel = kernel::active();
                    kernel::forward_prequantized_into(kernel, q, panels, first.activation(), to, ld)
                })?);
                nothing
            }
        };
        for layer in trunk {
            trunk_out = Some(scratch.layer(input, trunk_out, None, layer)?);
        }
        let fused = match &self.fused_entry {
            // Every head is direct: the fused panel is their output layer,
            // and one pass over it is every head's classes.
            Some(fused) if fused.direct => {
                let (panels, activation) = (&fused.panels, fused.activation);
                return scratch.classify(input, trunk_out, panels, activation, &fused.widths, out, tasks);
            }
            Some(fused) => {
                let (panels, activation) = (&fused.panels, fused.activation);
                Some(scratch.step(input, trunk_out, None, panels.n(), |rows, q, to, ld| {
                    let kernel = kernel::active();
                    kernel::forward_quantized_into(kernel, rows, q, panels, activation, to, ld)
                })?)
            }
            None => None,
        };
        let mut fused_columns = 0;
        for (task, head) in self.heads.iter().enumerate() {
            // A head starts from its columns of the fused panel's output, one
            // layer in; without one, from the trunk output (or, with no trunk,
            // from the input window).  Either is read by every head, so it
            // stays pinned while this head's layers use the other regions.
            let (mut at, layers) = match fused {
                Some(wide) => {
                    let k = head[0].out_dim();
                    let mine = Activations {
                        offset: fused_columns,
                        k,
                        ..wide
                    };
                    fused_columns += k;
                    (Some(mine), &head[1..])
                }
                None => (trunk_out, &head[..]),
            };
            let pinned = at.map(|a| a.region);
            let out = &mut out[task..];
            let Some((last, hidden)) = layers.split_last() else {
                // A direct head beside deep ones: its columns of the fused
                // output are its logits.
                let logits = at.expect("a fused entry wrote the head's columns");
                let logits = WalkScratch::view(&scratch.regions, logits, count)?;
                kernel::argmax_rows(kernel::active(), logits, out, tasks)?;
                continue;
            };
            for layer in hidden {
                at = Some(scratch.layer(input, at, pinned, layer)?);
            }
            match last.quantized() {
                Some(panels) => {
                    let width = [panels.n()];
                    scratch.classify(input, at, panels, last.activation(), &width, out, tasks)?;
                }
                None => {
                    let logits = scratch.layer(input, at, pinned, last)?;
                    let logits = WalkScratch::view(&scratch.regions, logits, count)?;
                    kernel::argmax_rows(kernel::active(), logits, out, tasks)?;
                }
            }
        }
        Ok(())
    }

    /// One supervised training step on a batch.
    ///
    /// `targets[task][row]` is the class index of `row` for `task`.  The per-task
    /// cross-entropy losses are summed (all tasks share the trunk gradient).  Returns
    /// the mean loss across tasks and how many rows every head already got right
    /// in this step's forward pass, before its update.
    ///
    /// The heads' first layers all read the trunk output (the input, with no
    /// trunk), and run as one layer — the heads' entry, as an int8 model's
    /// inference walk runs them: forward, one pass over their panels side by
    /// side ([`PackedPanels::concat_columns`]), linear, each head's activation
    /// then applied to its own columns; backward, each head's weight gradients
    /// of its own, and one [`kernel::matmul_transpose_segmented`] that writes
    /// the trunk-output gradient once — each head's `dy · Wᵀ` its own sixteen
    /// lane sums, the heads added in order from `+0.0`.  That is the
    /// arithmetic of a per-head step whose heads' gradients are summed into a
    /// zeroed matrix, so the weights are the same, bit for bit.  Any spec
    /// runs this way: one head, direct heads (whose first layer is the
    /// output), heads of mixed depth, no trunk (nothing then reads the
    /// gradient w.r.t. the input, and no `dy · Wᵀ` runs).  The entry runs on
    /// the layers' f32 weights — for an int8 layer, the dequantized image of
    /// its int8 ones — as every layer does once a step has updated it.
    pub fn train_batch<O: Optimizer>(
        &mut self,
        x: &Matrix,
        targets: &[Vec<usize>],
        optimizer: &mut O,
    ) -> crate::Result<TrainStep> {
        if targets.len() != self.heads.len() {
            return Err(crate::NnError::InvalidConfig(format!(
                "expected targets for {} tasks, got {}",
                self.heads.len(),
                targets.len()
            )));
        }
        // The optimizer step below moves every layer back onto its f32 weights;
        // the fused panel was built from the quantized ones and goes with them.
        self.fused_entry = None;
        // Trunk forward.  Every activation is held once, by the layer that made
        // it (`forward_train`), and read from there by the layer above — now,
        // and again when that layer goes backward.
        let has_trunk = !self.trunk.is_empty();
        let trunk_out = forward_train_chain(&mut self.trunk, x)?;
        // The heads' entry forward: each head's first layer keeps its columns.
        let parts: Vec<&PackedPanels> = self.heads.iter().map(|head| head[0].packed()).collect();
        let entry = PackedPanels::concat_columns(&parts)?;
        let wide = &mut self.entry_wide;
        wide.reshape(trunk_out.rows(), entry.n());
        let rows = RowsView::of_matrix(trunk_out, 0, trunk_out.rows())?;
        kernel::forward_packed_into(
            kernel::active(),
            rows,
            &entry,
            Activation::Linear,
            wide.as_mut_slice(),
            entry.n(),
        )?;
        let mut at = 0;
        for head in &mut self.heads {
            head[0].keep_output_columns(wide, at)?;
            at += head[0].out_dim();
        }
        // Each head from its first layer's output up, and back down to it;
        // the gradients w.r.t. the entry's outputs go side by side where the
        // outputs were.  With no trunk, nobody reads them.
        let mut total_loss = 0.0f32;
        let mut right = vec![true; x.rows()];
        let mut at = 0;
        for (head, head_targets) in self.heads.iter_mut().zip(targets.iter()) {
            let (first, rest) = head.split_at_mut(1);
            let first = &mut first[0];
            let logits = forward_train_chain(rest, first.cached_output()?)?;
            let (loss, grad) = softmax_cross_entropy(logits, head_targets, &mut right)?;
            total_loss += loss;
            let grad = backward_chain(rest, first.cached_output()?, grad, true)?;
            let grad = first.backward_parameters(trunk_out, grad)?;
            if has_trunk {
                for r in 0..grad.rows() {
                    wide.row_mut(r)[at..at + grad.cols()].copy_from_slice(grad.row(r));
                }
            }
            at += grad.cols();
        }
        // The trunk-output gradient, once, then the trunk backward (its first
        // layer stops at its own parameters).
        if has_trunk {
            let parts: Vec<&PackedPanels> =
                self.heads.iter().map(|head| head[0].packed()).collect();
            let grad = kernel::matmul_transpose_segmented(wide, &parts)?;
            backward_chain(&mut self.trunk, x, grad, false)?;
        }
        // Optimizer update over all parameters (stable order: trunk then heads).
        let mut pairs = Vec::new();
        for layer in &mut self.trunk {
            pairs.extend(layer.parameters_and_grads());
        }
        for head in &mut self.heads {
            for layer in head.iter_mut() {
                pairs.extend(layer.parameters_and_grads());
            }
        }
        optimizer.step(&mut pairs);
        Ok(TrainStep {
            loss: total_loss / self.heads.len() as f32,
            right_rows: right.iter().filter(|&&r| r).count(),
        })
    }

    /// Drops cached activations on all layers.
    pub fn clear_cache(&mut self) {
        self.entry_wide = Matrix::zeros(0, 0);
        for layer in &mut self.trunk {
            layer.clear_cache();
        }
        for head in &mut self.heads {
            for layer in head.iter_mut() {
                layer.clear_cache();
            }
        }
    }
}

/// Where a walk's first rows come from.  Everything past the first layer's
/// input is the same walk.
#[derive(Clone, Copy)]
enum WalkSource<'a> {
    /// Rows of a feature matrix the caller already holds.
    Features(&'a Matrix),
    /// Keys, which each row chunk encodes for itself.
    Keys(&'a KeyEncoder, &'a [u64]),
}

/// Where a layer's output sits in a [`WalkScratch`]: `k` values per row,
/// `offset` columns into rows `ld` apart in region `region`.
#[derive(Debug, Clone, Copy)]
struct Activations {
    region: usize,
    offset: usize,
    k: usize,
    ld: usize,
}

/// The working memory of one [`MultiTaskModel::forward_rows_flat`] walk, held
/// by the call that runs it and sized for a chunk of at most
/// [`CACHE_CHUNK_ROWS`] rows — never for the batch — so each thread keeps
/// one between walks ([`SPARE_WALK`]) and a steady-state walk allocates
/// nothing: the quantized input rows of the layer running now — which the
/// keys-in source fills itself for an int8 first trunk layer
/// ([`KeyEncoder::quantize_keys`]), every later layer from its f32 input,
/// and which keep beside them the keys-in-lanes copy an output layer
/// reads ([`kernel::argmax_prequantized`]) — and three activation regions
/// with a panel-padded leading dimension, so the kernels store whole lanes.
/// Three, because a layer writes a region other than the one it reads, and
/// other than the one every head reads.  An int8 model's output layers write
/// no region: their classes go straight to the walk's predictions.  (The
/// chunk of f32 features the keys-in source encodes for an f32 first layer
/// lives beside it in [`MultiTaskModel::forward_window`]: it is the walk's
/// input window, which every step borrows next to this.)
#[derive(Default)]
struct WalkScratch {
    qrows: QuantizedRows,
    regions: [Vec<f32>; 3],
}

thread_local! {
    /// The working memory of this thread's last walk, for its next one to
    /// reuse (grown, never shrunk, to the widest model it walked).
    static SPARE_WALK: Cell<Option<WalkScratch>> = const { Cell::new(None) };
}

impl WalkScratch {
    /// Grows the buffers to hold a walk of `model` over `rows` rows (the
    /// quantized rows grow themselves as each layer fills them).
    fn fit(&mut self, model: &MultiTaskModel, rows: usize) {
        let layers = || model.trunk.iter().chain(model.heads.iter().flatten());
        let widest_in = layers().map(Dense::in_dim).max().unwrap_or(0);
        // Regions hold what a layer writes: every layer's output but an int8
        // output layer's (its classes go straight out), and the fused
        // entry's unless it is the heads' output layer.
        let written = model.heads.iter().flat_map(|head| {
            let (last, hidden) = head.split_last().expect("heads have an output layer");
            hidden.iter().chain((!last.is_quantized()).then_some(last))
        });
        let fused_out = match &model.fused_entry {
            Some(fused) if !fused.direct => fused.panels.n(),
            _ => 0,
        };
        let widest_out = model.trunk.iter().chain(written).map(Dense::out_dim).max().unwrap_or(0);
        let region = rows * widest_out.max(fused_out).next_multiple_of(LANES);
        for buffer in &mut self.regions {
            if buffer.len() < region {
                buffer.resize(region, 0.0);
            }
        }
        self.qrows.reserve(rows, widest_in);
    }

    /// The `count` rows `at` describes.  (Takes the regions, not `self`, so
    /// that [`step`](Self::step) can hold them beside `qrows`.)
    fn view(regions: &[Vec<f32>; 3], at: Activations, count: usize) -> crate::Result<RowsView<'_>> {
        RowsView::new(&regions[at.region][at.offset..], at.ld, count, at.k)
    }

    /// The classes an int8 output layer predicts for the rows `from` holds
    /// (the `input` window when `None`): the rows quantized into `qrows`,
    /// then [`kernel::argmax_prequantized`] — head `h` of `heads` to
    /// `out[i * stride + h]`, no logit stored.
    #[allow(clippy::too_many_arguments)]
    fn classify(
        &mut self,
        input: RowsView<'_>,
        from: Option<Activations>,
        panels: &QuantizedPanels,
        activation: Activation,
        heads: &[usize],
        out: &mut [u32],
        stride: usize,
    ) -> crate::Result<()> {
        let rows = match from {
            Some(at) => Self::view(&self.regions, at, input.count())?,
            None => input,
        };
        let kernel = kernel::active();
        self.qrows.fill(kernel, rows);
        kernel::argmax_prequantized(kernel, &mut self.qrows, panels, activation, heads, out, stride)
    }

    /// [`step`](Self::step) for a dense layer.
    fn layer(
        &mut self,
        input: RowsView<'_>,
        from: Option<Activations>,
        pinned: Option<usize>,
        layer: &Dense,
    ) -> crate::Result<Activations> {
        self.step(input, from, pinned, layer.out_dim(), |rows, q, to, ld| {
            layer.forward_into(rows, q, to, ld)
        })
    }

    /// Runs one layer: `run(rows, qrows, out, ld)` reads `from` (the `input`
    /// window when `None`) and writes its `n` output columns, `ld` apart, into
    /// a region that is neither `from`'s nor `pinned`.  Returns where they are.
    fn step(
        &mut self,
        input: RowsView<'_>,
        from: Option<Activations>,
        pinned: Option<usize>,
        n: usize,
        run: impl FnOnce(RowsView<'_>, &mut QuantizedRows, &mut [f32], usize) -> crate::Result<()>,
    ) -> crate::Result<Activations> {
        let busy = [from.map(|a| a.region), pinned];
        let region = (0..self.regions.len())
            .find(|&i| !busy.contains(&Some(i)))
            .expect("three regions, at most two busy");
        let ld = n.next_multiple_of(LANES);
        let count = input.count();
        let mut out = std::mem::take(&mut self.regions[region]);
        let result = match from {
            Some(at) => Self::view(&self.regions, at, count),
            None => Ok(input),
        }
        .and_then(|rows| run(rows, &mut self.qrows, &mut out[..count * ld], ld));
        self.regions[region] = out;
        result.map(|()| Activations {
            region,
            offset: 0,
            k: n,
            ld,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_spec() -> MultiTaskSpec {
        MultiTaskSpec {
            input_dim: 6,
            shared_hidden: vec![32],
            heads: vec![
                TaskHeadSpec::with_hidden(vec![16], 4),
                TaskHeadSpec::direct(3),
            ],
        }
    }

    #[test]
    fn spec_parameter_count_matches_model() {
        let spec = toy_spec();
        let mut rng = StdRng::seed_from_u64(1);
        let model = MultiTaskModel::new(&mut rng, &spec).unwrap();
        assert_eq!(spec.parameter_count(), model.parameter_count());
        assert_eq!(spec.macs_per_key(), 6 * 32 + 32 * 16 + 16 * 4 + 32 * 3);
        assert_eq!(model.num_tasks(), 2);
        assert!(model.size_bytes() > model.parameter_count() * 4);
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = toy_spec();
        s.input_dim = 0;
        assert!(MultiTaskModel::new(&mut rng, &s).is_err());
        let mut s = toy_spec();
        s.heads.clear();
        assert!(MultiTaskModel::new(&mut rng, &s).is_err());
        let mut s = toy_spec();
        s.heads[0].classes = 0;
        assert!(MultiTaskModel::new(&mut rng, &s).is_err());
        let mut s = toy_spec();
        s.shared_hidden = vec![0];
        assert!(MultiTaskModel::new(&mut rng, &s).is_err());
    }

    #[test]
    fn forward_produces_one_logit_matrix_per_task() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = MultiTaskModel::new(&mut rng, &toy_spec()).unwrap();
        let x = Matrix::zeros(7, 6);
        let out = model.forward(&x).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].rows(), 7);
        assert_eq!(out[0].cols(), 4);
        assert_eq!(out[1].cols(), 3);
    }

    #[test]
    fn forward_batch_flat_is_row_major_and_matches_batches_of_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = MultiTaskModel::new(&mut rng, &toy_spec()).unwrap();
        let mut x = Matrix::zeros(9, 6);
        for r in 0..9 {
            for c in 0..6 {
                x.set(r, c, ((r * 6 + c) % 3) as f32 - 1.0);
            }
        }
        let mut batched = Vec::new();
        assert_eq!(model.forward_batch_flat(&x, &mut batched).unwrap(), 2);
        assert_eq!(batched.len(), 9 * 2);
        // One vectorized pass over N rows must agree exactly with N batches of one.
        let mut one = Vec::new();
        for r in 0..9 {
            let single = x.rows_slice(r, 1).unwrap();
            model.forward_batch_flat(&single, &mut one).unwrap();
            assert_eq!(one, batched[r * 2..(r + 1) * 2], "row {r}");
        }
        // And with the task-major view from predict_classes.
        let per_task = model.predict_classes(&x).unwrap();
        for (task, preds) in per_task.iter().enumerate() {
            for (row, &class) in preds.iter().enumerate() {
                assert_eq!(batched[row * 2 + task] as usize, class);
            }
        }
        // An empty batch is an empty answer.
        model.forward_batch_flat(&Matrix::zeros(0, 6), &mut one).unwrap();
        assert!(one.is_empty());
    }

    #[test]
    fn train_batch_rejects_wrong_task_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = MultiTaskModel::new(&mut rng, &toy_spec()).unwrap();
        let x = Matrix::zeros(2, 6);
        let mut opt = Adam::new(0.01);
        assert!(model.train_batch(&x, &[vec![0, 0]], &mut opt).is_err());
    }

    /// A step counts the rows its own forward pass gets right in every head —
    /// the tuples the weights it started from predict, before its update.
    #[test]
    fn train_batch_counts_the_rows_every_head_gets_right() {
        let mut model = MultiTaskModel::new(&mut StdRng::seed_from_u64(8), &toy_spec()).unwrap();
        let x = signed_input(40, 6);
        // Head 0 (4 classes) is told another class than it predicts on every
        // fifth row, head 1 (3 classes) on every third: those rows are wrong,
        // the rest right.
        let mut targets = model.predict_classes(&x).unwrap();
        for (head, (every, classes)) in targets.iter_mut().zip([(5, 4), (3, 3)]) {
            for (_, class) in head.iter_mut().enumerate().filter(|(row, _)| row % every == 0) {
                *class = (*class + 1) % classes;
            }
        }
        let right = (0..40).filter(|row| row % 3 != 0 && row % 5 != 0).count();
        let step = model.train_batch(&x, &targets, &mut Adam::new(0.01)).unwrap();
        assert_eq!(step.right_rows, right);
        assert!(step.loss.is_finite() && step.loss > 0.0);
    }

    /// The multi-task model must memorize a small correlated mapping for both tasks —
    /// this mirrors the "Order_Type / Order_Status" example of Figure 1.
    #[test]
    fn multitask_model_memorizes_two_columns() {
        let mut rng = StdRng::seed_from_u64(13);
        let n = 32usize;
        let mut x = Matrix::zeros(n, 6);
        let mut t0 = Vec::new();
        let mut t1 = Vec::new();
        for k in 0..n {
            for b in 0..6 {
                x.set(k, b, ((k >> b) & 1) as f32);
            }
            t0.push(k % 4); // strongly key-correlated column
            t1.push((k / 8) % 3); // coarser correlated column
        }
        let targets = vec![t0.clone(), t1.clone()];
        let spec = MultiTaskSpec {
            input_dim: 6,
            shared_hidden: vec![48, 48],
            heads: vec![TaskHeadSpec::with_hidden(vec![24], 4), TaskHeadSpec::with_hidden(vec![24], 3)],
        };
        let mut model = MultiTaskModel::new(&mut rng, &spec).unwrap();
        let mut opt = Adam::new(0.01);
        for _ in 0..400 {
            model.train_batch(&x, &targets, &mut opt).unwrap();
        }
        let preds = model.predict_classes(&x).unwrap();
        for (task, (p, t)) in preds.iter().zip(&targets).enumerate() {
            let right = p.iter().zip(t).filter(|(p, t)| p == t).count();
            assert!(right * 10 > n * 9, "task {task}: {right} of {n}");
        }
        // A tuple is memorized only when every column is right.
        let tuples = (0..n).filter(|&r| preds.iter().zip(&targets).all(|(p, t)| p[r] == t[r])).count();
        assert!(tuples * 100 > n * 85, "{tuples} of {n} tuples");
    }

    /// Three bits and a one-hot residue mod 3: the six features `toy_spec` reads.
    fn six_feature_encoder() -> KeyEncoder {
        KeyEncoder::from_parts(3, vec![3], &[])
    }

    /// `rows` keys all over `u64`, the extremes included.
    fn scattered_keys(rows: usize) -> Vec<u64> {
        (0..rows as u64)
            .map(|i| match i % 7 {
                0 => i,
                1 => u64::MAX - i,
                _ => i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 60),
            })
            .collect()
    }

    /// The scalar and vector kernels must produce bit-identical predictions at
    /// the whole-model level — the property that keeps aux-table memorization
    /// lossless no matter which kernel a process selects.
    #[test]
    fn model_predictions_are_bit_identical_across_kernels() {
        use crate::kernel::{self, Kernel};
        let mut rng = StdRng::seed_from_u64(21);
        let model = MultiTaskModel::new(&mut rng, &toy_spec()).unwrap();
        let rows = 700;
        let mut x = Matrix::zeros(rows, 6);
        for r in 0..rows {
            for c in 0..6 {
                x.set(r, c, ((r * 11 + c * 5) % 7) as f32 / 3.0 - 1.0);
            }
        }
        let run = |kernel: Kernel| {
            kernel::with_forced(kernel, || {
                let logits = model.forward(&x).unwrap();
                let mut flat = Vec::new();
                model.forward_batch_flat(&x, &mut flat).unwrap();
                let bits: Vec<Vec<u32>> = logits
                    .iter()
                    .map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect())
                    .collect();
                (bits, flat)
            })
        };
        let (scalar_logits, scalar_classes) = run(Kernel::Scalar);
        let (vector_logits, vector_classes) = run(Kernel::Vector);
        assert_eq!(scalar_logits, vector_logits, "logit bits must match exactly");
        assert_eq!(scalar_classes, vector_classes);
    }

    /// A quantized model must predict bit-identically across kernel
    /// selection and chunk sizes — the invariant that lets a
    /// quantized snapshot serve losslessly anywhere.
    #[test]
    fn quantized_model_predictions_are_bit_identical_across_kernels_and_chunks() {
        use crate::kernel::{self, Kernel};
        let mut rng = StdRng::seed_from_u64(27);
        let mut model = MultiTaskModel::new(&mut rng, &toy_spec()).unwrap();
        model.quantize_int8().unwrap();
        assert!(model.is_quantized());
        let rows = 700;
        let mut x = Matrix::zeros(rows, 6);
        for r in 0..rows {
            for c in 0..6 {
                x.set(r, c, ((r * 11 + c * 5) % 7) as f32 / 3.0 - 1.0);
            }
        }
        let run = |kernel: Kernel| {
            kernel::with_forced(kernel, || {
                let mut flat = Vec::new();
                model.forward_batch_flat(&x, &mut flat).unwrap();
                flat
            })
        };
        let scalar = run(Kernel::Scalar);
        let vector = run(Kernel::Vector);
        assert_eq!(scalar, vector);
        // Chunk size must not change any prediction.
        for chunk in [1usize, 7, 64, 2048] {
            let mut chunked = vec![0u32; rows * 2];
            model
                .forward_window(WalkSource::Features(&x), chunk, &mut chunked)
                .unwrap();
            assert_eq!(scalar, chunked, "chunk={chunk}");
        }
    }

    fn signed_input(rows: usize, cols: usize) -> Matrix {
        let mut x = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                // Every fifth row stays all-zero.
                if r % 5 != 4 {
                    x.set(r, c, ((r * 11 + c * 5) % 7) as f32 / 3.0 - 1.0);
                }
            }
        }
        x
    }

    /// Row-major predictions of the per-layer reference: the allocating
    /// [`Dense::forward`] chain of [`MultiTaskModel::forward`] plus
    /// [`Matrix::argmax_row`].
    fn chain_predictions(model: &MultiTaskModel, x: &Matrix) -> Vec<u32> {
        let per_task = model.predict_classes(x).unwrap();
        (0..x.rows())
            .flat_map(|row| per_task.iter().map(move |task| task[row] as u32))
            .collect()
    }

    fn walk_predictions(model: &MultiTaskModel, x: &Matrix) -> Vec<u32> {
        let mut flat = Vec::new();
        model.forward_batch_flat(x, &mut flat).unwrap();
        flat
    }

    /// The model walk — working memory hoisted, heads entered through the fused
    /// panel — predicts exactly what the per-layer chain predicts: for int8 and
    /// f32 models, with and without a trunk, with heads of equal and of mixed
    /// depth (the latter cannot fuse), under every kernel form.
    #[test]
    fn model_walk_matches_the_per_layer_chain() {
        let heads = |hidden: &[usize]| -> Vec<TaskHeadSpec> {
            [4usize, 9, 33]
                .iter()
                .map(|&classes| TaskHeadSpec::with_hidden(hidden.to_vec(), classes))
                .collect()
        };
        let specs = [
            ("trunk, one hidden layer per head", vec![20, 37], heads(&[35])),
            ("trunk, two hidden layers per head", vec![20], heads(&[18, 12])),
            ("trunk, direct heads", vec![20], heads(&[])),
            ("no trunk", vec![], heads(&[35])),
            ("mixed head depth", toy_spec().shared_hidden, toy_spec().heads),
        ];
        for (name, shared_hidden, heads) in specs {
            let spec = MultiTaskSpec {
                input_dim: 6,
                shared_hidden,
                heads,
            };
            let f32_model = MultiTaskModel::new(&mut StdRng::seed_from_u64(31), &spec).unwrap();
            let mut int8_model = f32_model.clone();
            int8_model.quantize_int8().unwrap();
            assert_eq!(
                int8_model.fused_entry.is_some(),
                name != "mixed head depth",
                "{name}: fused panel"
            );
            assert!(f32_model.fused_entry.is_none());
            // More rows than one chunk, and not a multiple of the row tile.
            let x = signed_input(2 * CACHE_CHUNK_ROWS + 7, 6);
            // The same walk entered with keys: layer 0's bytes straight from
            // them (int8 trunk), or a chunk of f32 features (f32, or no trunk).
            let encoder = six_feature_encoder();
            let keys = scattered_keys(2 * CACHE_CHUNK_ROWS + 7);
            let encoded = encoder.encode_batch(&keys);
            for (precision, model) in [("f32", &f32_model), ("int8", &int8_model)] {
                kernel::tests::under_each_form(|form| {
                    assert_eq!(
                        walk_predictions(model, &x),
                        chain_predictions(model, &x),
                        "{name}, {precision}, {form}"
                    );
                    let mut from_keys = Vec::new();
                    model
                        .forward_keys_flat(&encoder, &keys, &mut from_keys)
                        .unwrap();
                    assert_eq!(
                        from_keys,
                        chain_predictions(model, &encoded),
                        "{name}, {precision}, {form}, keys in"
                    );
                });
            }
        }
    }

    /// An int8 walk takes its classes straight off the output layers (keys
    /// in lanes, the argmax in the epilogue) and predicts what the per-layer
    /// chain — `Dense::forward`, then the argmax of each logit row — does,
    /// under every kernel form and at row counts on both sides of one key
    /// group (16) and of a chunk (96): direct heads of 4 / 8 / 16 / 32 / 64
    /// classes (one fused output layer, heads across panel edges), the same
    /// heads behind a 35-wide private layer (the fused entry, then each
    /// head's own output layer), one direct head and one deep head (no fused
    /// entry), a trunk of two layers, and direct heads beside deep ones whose
    /// first layers share their activation (one fused entry: the direct head
    /// reads its class off its columns, the deep heads go on above theirs).
    #[test]
    fn int8_walk_classes_are_the_per_layer_chain() {
        let classes = [4usize, 8, 16, 32, 64];
        let direct: Vec<TaskHeadSpec> = classes.iter().map(|&c| TaskHeadSpec::direct(c)).collect();
        let deep: Vec<TaskHeadSpec> =
            classes.iter().map(|&c| TaskHeadSpec::with_hidden(vec![35], c)).collect();
        let specs = [
            ("direct heads", vec![16], direct.clone()),
            ("deep heads", vec![16], deep),
            ("one direct head", vec![16], vec![TaskHeadSpec::direct(21)]),
            ("one deep head", vec![16], vec![TaskHeadSpec::with_hidden(vec![35], 9)]),
            ("two trunk layers", vec![20, 16], direct),
        ];
        let mut models: Vec<(&str, MultiTaskModel)> = specs
            .into_iter()
            .map(|(name, shared_hidden, heads)| {
                let spec = MultiTaskSpec {
                    input_dim: 6,
                    shared_hidden,
                    heads,
                };
                (name, MultiTaskModel::new(&mut StdRng::seed_from_u64(51), &spec).unwrap())
            })
            .collect();
        let rng = &mut StdRng::seed_from_u64(52);
        let linear = |rng: &mut StdRng, k, n| Dense::new(rng, k, n, Activation::Linear);
        let mixed = MultiTaskModel::from_layers(
            MultiTaskSpec {
                input_dim: 6,
                shared_hidden: vec![16],
                heads: vec![
                    TaskHeadSpec::with_hidden(vec![35], 8),
                    TaskHeadSpec::direct(5),
                    TaskHeadSpec::with_hidden(vec![35], 17),
                ],
            },
            vec![Dense::new(rng, 6, 16, Activation::Relu)],
            vec![
                vec![linear(rng, 16, 35), linear(rng, 35, 8)],
                vec![linear(rng, 16, 5)],
                vec![linear(rng, 16, 35), linear(rng, 35, 17)],
            ],
        )
        .unwrap();
        models.push(("mixed depth, one activation", mixed));
        let encoder = six_feature_encoder();
        for (name, mut model) in models {
            model.quantize_int8().unwrap();
            let fused = model.fused_entry.as_ref();
            assert_eq!(fused.is_some(), model.heads.len() > 1, "{name}: fused entry");
            let direct = model.heads.iter().all(|head| head.len() == 1);
            assert!(fused.is_none_or(|fused| fused.direct == direct), "{name}: direct");
            for rows in [1usize, 15, 16, 17, 95, 96, 97] {
                let keys = scattered_keys(rows);
                let x = encoder.encode_batch(&keys);
                let expected = chain_predictions(&model, &x);
                kernel::tests::under_each_form(|form| {
                    assert_eq!(walk_predictions(&model, &x), expected, "{name}, {form}, {rows} rows");
                    let mut from_keys = Vec::new();
                    model
                        .forward_keys_flat(&encoder, &keys, &mut from_keys)
                        .unwrap();
                    assert_eq!(from_keys, expected, "{name}, {form}, {rows} rows, keys in");
                });
            }
        }
    }

    /// An encoder of another width than the model reads is an error, not a
    /// walk over rows of the wrong length.
    #[test]
    fn keys_entry_rejects_an_encoder_of_the_wrong_width() {
        let model = MultiTaskModel::new(&mut StdRng::seed_from_u64(5), &toy_spec()).unwrap();
        let mut out = vec![7];
        let wrong = KeyEncoder::with_bits(5);
        assert!(model.forward_keys_flat(&wrong, &[1, 2], &mut out).is_err());
        let tasks = model
            .forward_keys_flat(&six_feature_encoder(), &[], &mut out)
            .unwrap();
        assert_eq!((tasks, out.len()), (2, 0));
    }

    /// The training step before the heads' entry, kept as its oracle: each
    /// head forward from the trunk output and back down to it through its own
    /// layers — its first layer's `dy · Wᵀ` included — and the heads'
    /// trunk-output gradients summed into a zeroed matrix in head order.
    fn per_head_step(
        model: &mut MultiTaskModel,
        x: &Matrix,
        targets: &[Vec<usize>],
        optimizer: &mut Adam,
    ) -> TrainStep {
        let has_trunk = !model.trunk.is_empty();
        let trunk_out = forward_train_chain(&mut model.trunk, x).unwrap();
        let mut total_loss = 0.0f32;
        let mut right = vec![true; x.rows()];
        let mut trunk_grad = has_trunk.then(|| Matrix::zeros(trunk_out.rows(), trunk_out.cols()));
        for (head, head_targets) in model.heads.iter_mut().zip(targets) {
            let logits = forward_train_chain(head, trunk_out).unwrap();
            let (loss, grad) = softmax_cross_entropy(logits, head_targets, &mut right).unwrap();
            total_loss += loss;
            let grad = backward_chain(head, trunk_out, grad, trunk_grad.is_some()).unwrap();
            if let Some(sum) = &mut trunk_grad {
                sum.add_scaled(&grad, 1.0).unwrap();
            }
        }
        if let Some(grad) = trunk_grad {
            backward_chain(&mut model.trunk, x, grad, false).unwrap();
        }
        let mut pairs = Vec::new();
        for layer in model
            .trunk
            .iter_mut()
            .chain(model.heads.iter_mut().flatten())
        {
            pairs.extend(layer.parameters_and_grads());
        }
        optimizer.step(&mut pairs);
        TrainStep {
            loss: total_loss / model.heads.len() as f32,
            right_rows: right.iter().filter(|&&r| r).count(),
        }
    }

    fn weight_bits(model: &MultiTaskModel) -> Vec<u32> {
        let layers = model.trunk.iter().chain(model.heads.iter().flatten());
        layers
            .flat_map(|layer| {
                layer
                    .weight()
                    .as_slice()
                    .iter()
                    .chain(layer.bias().as_slice())
            })
            .map(|v| v.to_bits())
            .collect()
    }

    /// Training through the heads' entry — one forward over every head's
    /// first layer, one segmented `dy · Wᵀ` — ends every step on the weights,
    /// loss and right rows of the per-head step, bit for bit, under every
    /// kernel form: heads of unequal widths (ragged against the panels), a
    /// direct head and a two-layer one, a single head, no trunk, and direct
    /// heads only.
    #[test]
    fn training_through_the_heads_entry_matches_the_per_head_step() {
        let hidden = TaskHeadSpec::with_hidden;
        let specs = [
            (
                "unequal widths, a direct head, a deep head",
                vec![24],
                vec![
                    hidden(vec![19], 4),
                    hidden(vec![35], 9),
                    TaskHeadSpec::direct(5),
                    hidden(vec![7, 6], 3),
                ],
            ),
            ("one head", vec![20], vec![hidden(vec![12], 6)]),
            (
                "no trunk",
                vec![],
                vec![hidden(vec![10], 3), TaskHeadSpec::direct(4)],
            ),
            (
                "direct heads only",
                vec![17, 9],
                vec![TaskHeadSpec::direct(3), TaskHeadSpec::direct(18)],
            ),
        ];
        let rows = 300;
        let x = signed_input(rows, 6);
        for (name, shared_hidden, heads) in specs {
            let spec = MultiTaskSpec {
                input_dim: 6,
                shared_hidden,
                heads,
            };
            let targets: Vec<Vec<usize>> = (0..spec.heads.len())
                .map(|h| {
                    (0..rows)
                        .map(|r| (r * 7 + h * 3) % spec.heads[h].classes)
                        .collect()
                })
                .collect();
            kernel::tests::under_each_form(|form| {
                let mut entry = MultiTaskModel::new(&mut StdRng::seed_from_u64(41), &spec).unwrap();
                let mut per_head = entry.clone();
                let (mut entry_adam, mut per_head_adam) = (Adam::new(0.02), Adam::new(0.02));
                for step in 0..4 {
                    let got = entry.train_batch(&x, &targets, &mut entry_adam).unwrap();
                    let want = per_head_step(&mut per_head, &x, &targets, &mut per_head_adam);
                    assert_eq!(
                        (got.loss.to_bits(), got.right_rows),
                        (want.loss.to_bits(), want.right_rows),
                        "{name}, {form}, step {step}"
                    );
                    assert!(
                        weight_bits(&entry) == weight_bits(&per_head),
                        "{name}, {form}, step {step}"
                    );
                }
            });
        }
    }

    /// A training step moves every layer back onto f32 weights, so it must
    /// take the fused panel — built from the int8 ones — with it: afterwards
    /// the model predicts what a model freshly built from its weights does.
    #[test]
    fn training_after_quantization_drops_the_fused_panel() {
        let spec = MultiTaskSpec {
            input_dim: 6,
            shared_hidden: vec![20],
            heads: vec![
                TaskHeadSpec::with_hidden(vec![12], 4),
                TaskHeadSpec::with_hidden(vec![12], 3),
            ],
        };
        let mut model = MultiTaskModel::new(&mut StdRng::seed_from_u64(33), &spec).unwrap();
        model.quantize_int8().unwrap();
        assert!(model.fused_entry.is_some());
        let x = signed_input(64, 6);
        let targets = vec![vec![1usize; 64], vec![2usize; 64]];
        model.train_batch(&x, &targets, &mut Adam::new(0.05)).unwrap();
        assert!(!model.is_quantized());
        let rebuild = |layer: &Dense| {
            Dense::from_parameters(layer.weight().clone(), layer.bias().clone(), layer.activation())
                .unwrap()
        };
        let fresh = MultiTaskModel::from_layers(
            spec,
            model.trunk().iter().map(rebuild).collect(),
            model
                .heads()
                .iter()
                .map(|head| head.iter().map(rebuild).collect())
                .collect(),
        )
        .unwrap();
        assert_eq!(walk_predictions(&model, &x), walk_predictions(&fresh, &x));
        assert_eq!(walk_predictions(&model, &x), chain_predictions(&model, &x));
    }
}
