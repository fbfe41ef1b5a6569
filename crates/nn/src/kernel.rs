//! Register-blocked, lane-vectorized inference micro-kernels over pre-packed
//! weight panels.
//!
//! The hot path of DeepMapping lookup is `batch × k` times `k × n` dense-layer
//! products.  This module repacks each weight matrix **once** (at build /
//! deserialize time) into column-major panels of [`LANES`] columns — panel `p`
//! holds columns `[16p, 16p+16)` contiguously per `k`-row, zero-padded at the
//! edge — so the inner loop is a streaming load + fused multiply-add over
//! 16-wide f32 lanes (one AVX-512 register; the AVX2 kernel works the same
//! panel as two 8-lane halves), with the bias add and activation fused into
//! the same pass over each output tile.
//!
//! Alongside the f32 panels there is an int8 path: [`QuantizedPanels`] holds
//! per-output-column symmetrically quantized weights in k-**quad**-interleaved
//! panels (one 64-byte block = 16 columns × 4 consecutive `k`) and
//! [`QuantizedRows`] holds each input row as one byte per `k`, so the inner
//! loop is one `vpdpbusd` — 64 int8 products per instruction — into exact i32
//! accumulators, with the dequantize + bias + activation fused into the tile
//! store.  Both layouts are **derived** state, rebuilt from the row-major
//! int8 weights a snapshot stores; no stored byte depends on them.
//!
//! Every forward entry point comes in two shapes: `*_into` writes into a caller-owned
//! buffer with a leading dimension (what the model walk uses, so a batch
//! allocates its working memory once), and the allocating form returns a fresh
//! [`Matrix`] by calling it.
//!
//! ## Bit-identical kernel selection
//!
//! The auxiliary table memorizes *build-time* mispredictions, so any serve-time
//! drift in model predictions would silently break losslessness.  Every kernel
//! here is therefore defined as one fixed arithmetic recipe:
//!
//! * f32 accumulators are laid out as 16 independent lanes, initialized from
//!   the (zero-padded) bias,
//! * every multiply-add is **fused** (`f32::mul_add` in the scalar kernel, FMA
//!   instructions in the vector kernels — all round once, so they agree bit
//!   for bit),
//! * lane reductions (for the `· Wᵀ` kernel) use one **fixed tree**: fold the
//!   16 lanes in half (`s_i = l_i + l_{i+8}`), then
//!   `((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7))` — [`reduce_lanes`]; the vector
//!   forms hold each lane sum in a register of its own and add registers in
//!   that order (see "The gradient kernels" below),
//! * the int8 path quantizes each input row **once** through one recipe
//!   (below), accumulates the integer `Σ qₓ·q_w` exactly, and dequantizes
//!   through one fixed f32 epilogue.  Its three forms reach that same integer
//!   three ways:
//!   the scalar reference is the plain i32 dot product; AVX-512-VNNI runs
//!   `vpdpbusd` (unsigned × signed bytes) over `qₓ + 128` with each
//!   accumulator started at the column's `−128·Σ q_w`, so the bias cancels
//!   exactly — the instruction does not saturate, a transient wrap mod 2³² is
//!   harmless and the final sum is bounded by `k · 127²`; AVX2 moves
//!   the input's sign onto the weight (`vpsignb`), multiplies `|qₓ|` by it with
//!   `vpmaddubsw` — exact because `|q| ≤ 127` keeps every pair sum
//!   `≤ 2 · 127² = 32 258 < 2¹⁵`, short of its i16 saturation — and widens
//!   with `vpmaddwd` against ones (a weight of `-128` would not survive the
//!   sign move, so the panels refuse one),
//! * rows are computed independently, so chunking, batch size and thread count
//!   cannot change any row's result.
//!
//! The scalar fallback emulates exactly this layout, which makes predictions
//! bit-identical across kernel selection (guarded by tests here and by the
//! snapshot round-trip guard in the facade crate).
//!
//! ## The row quantizer
//!
//! A row becomes one byte per value, `q + 128` with
//! `q = round_ties_even(v · min(127 / amax, f32::MAX))`, and the scale
//! `amax / 127` (`quantize_input_row`, the scalar statement of it).  The clamp
//! of the reciprocal is the **tiny-amax rule**: under `127 / f32::MAX`
//! (≈ 3.7e-37) the quotient is `+∞`, `0 · ∞` is a NaN, and scalar and vector
//! conversions make different integers of a NaN — clamped, every product is
//! finite and every form writes the same bytes.  The AVX-512 form works in
//! **two phases** over a window: first every row's `amax` (a `vmaxps` scan and
//! one reduction), then, sixteen rows at a time, their reciprocals and scales
//! in one `vdivps` each (an all-zero row's lane blended to `(0, 1.0)`, so it
//! converts to `q = 0` like any other row, without a branch) and the
//! conversion — a row no longer waits on its own reduce → divide → broadcast
//! chain before its first byte.  One producer knows a row's quantized form
//! without seeing it as f32: an encoded key's `amax` is exactly 1.0, so
//! [`KeyEncoder::quantize_keys`](crate::encoding::KeyEncoder::quantize_keys)
//! writes a first layer's bytes itself — one masked store a row under
//! AVX-512 — through [`QuantizedRows::fill_with`].
//!
//! ## Keys in lanes
//!
//! A model's output layers are not stored: a lookup wants each head's class,
//! the argmax of its logits, and [`argmax_prequantized`] takes it in the
//! layer's epilogue.  Its vector forms turn the product over — Cᵀ, columns
//! by keys — so that one register holds one output column for sixteen keys
//! (AVX2: eight).  The epilogue is then the row-major one lane for lane
//! (`fma(cvt(acc), x_scale · w_scale, bias)` with the column's constants
//! broadcast, the key's scale in its lane — the same operations on the same
//! operands, so the same bits), and a head's argmax is, per lane, an ordered
//! `>` against its best value so far and a masked select of the class:
//! `tensor::argmax`'s own loop, sixteen keys at a time, with no logit row
//! written and no reduction across lanes.
//!
//! The keys' quantized rows are laid out sixteen to a group first
//! (`QuantizedRows::lay_out_lanes`, one gather a k-quad): per quad, one
//! 64-byte block of the sixteen rows' four bytes.  That block is what
//! `vpdpbusd` multiplies by one broadcast weight quad; the last group of a
//! window masks the lanes past its last key.  The AVX2 form takes half a
//! group, eight keys, a step and moves each key's sign onto the broadcast
//! weight (`vpsignb`) as the row-major form does.  Both are one body over the
//! lane traits (see "One body per path"); the scalar reference reads the rows
//! as they are.
//!
//! ## The gradient kernels
//!
//! A training step runs three products of the same size per layer; the two of
//! the backward pass are blocked like the forward one, and — because a retrain
//! must reproduce a build's weights on any host — each keeps, per output
//! element, the exact sequence of fused multiply-adds it has always been.
//! Tiling decides which register a chain lives in and when it runs, never what
//! it adds to what.
//!
//! **`xᵀ · dy`** ([`transpose_matmul`]): output `(i, j)` is one chain over the
//! batch rows `kk`, from `+0.0`, of `x[kk][i] · dy[kk][j]`, skipping every `kk`
//! where `x[kk][i]` is zero.  The scalar body is that sentence, as a rank-1
//! update per row.  The vector forms keep a tile of up to 3 vectors of `i` ×
//! 8 columns `j` (AVX-512: 24 zmm accumulators; AVX2: 3 × 2 ymm) in registers
//! across a block of 512 rows: per row, up to three loads of `x`, one compare
//! of each against zero, and per column one broadcast of `dy[kk][j]` feeding
//! up to three **masked** FMAs — a lane whose `x` is zero keeps its sum
//! untouched, which is the skip, exactly (it leaves a `-0.0` sum `-0.0` and
//! keeps an infinite `dy` out of outputs it does not belong to).  Between row
//! blocks the tile rests in the transposed output, so a chain carries on where
//! it stopped; the blocks exist so both operands stay in L2.
//!
//! **`dy · Wᵀ`** ([`matmul_transpose_packed`]): output `(r, kk)` is sixteen lane
//! sums — lane `l` the chain over panels `p`, from `+0.0`, of
//! `dy[r][16p + l] · w[kk][16p + l]`, a lane past `n` multiplying `0 · 0` —
//! folded by the fixed tree.  The scalar body is that, literally.  The vector
//! forms turn the lanes: [`PackedPanels`] holds the weights a second time on
//! their side, so that one lane of one panel for sixteen adjacent outputs `kk`
//! is one vector; a lane sum is then a *register* of sixteen outputs
//! (`dy[r][c]` broadcast × that vector), and the tree is fifteen vertical adds
//! per sixteen outputs with no shuffle anywhere.  A tile is 4 rows × 4 lanes
//! (16 zmm accumulators; AVX2: 2 rows × 4 lanes over each 8-output half) and
//! takes four passes over the panels, one per aligned run of four lanes in
//! the tree's order (`LANE_ORDER`) — a run is a whole subtree, so each pass
//! ends in one partial sum and the four fold the same way.  32 rows of `dy`
//! run against one block of sixteen outputs before the next, so both stay in
//! L1.  The segmented form ([`matmul_transpose_segmented`]) is the same tile
//! run once per part — several layers that read one input, each over its own
//! columns of `dy` and its own panels — with the parts' folded sums added in
//! order from `+0.0` before the tile is stored: a multi-task model's heads
//! write their trunk-output gradient once, and no lane sum crosses a head.
//!
//! ## One body per path
//!
//! Every vector path — the f32 forward, the int8 forward, the keys-in-lanes
//! argmax and both gradient kernels — is written once, generic over a lane
//! trait: `Lanes`, a register of f32 (16 on AVX-512, 8 on AVX2) with the
//! handful of operations the tiles need, and for int8 `Quads`, its 4-way
//! byte dot product (`vpdpbusd` on VNNI, the sign transfer on AVX2) with the
//! ISA's register tile.  An ISA is its impls and the `#[target_feature]`
//! entry points that compile the bodies for it; only the row quantizer, the
//! logit rows' argmax and the keys-in-lanes layout have an AVX-512 form and
//! no other.  The scalar reference stays as written: it is the oracle the
//! vector forms are tested against, bit for bit.
//!
//! ## Selection
//!
//! [`Kernel::selected`] picks the vector kernel when the CPU supports AVX2+FMA
//! (using the AVX-512 forms when the CPU additionally has AVX-512 F/BW/DQ, and
//! for int8 the `vpdpbusd` form only when it also has AVX-512-VNNI — an
//! AVX-512 host without it takes the AVX2 int8 form) and the scalar fallback
//! otherwise.  Nothing but the CPU decides.  An output layer's classes
//! ([`argmax_prequantized`]) follow the same choice with the keys in lanes:
//! `vpdpbusd` with AVX-512-VNNI, the AVX2 form where it is missing, the
//! scalar reference otherwise — one path per form, whatever the layer's
//! shape; the key quantizer
//! ([`KeyEncoder::quantize_keys`](crate::encoding::KeyEncoder::quantize_keys))
//! takes its AVX-512 form under the same switch.  [`with_forced`]
//! overrides the choice for the calling thread — the hook the bit-identity
//! guard tests use to exercise the kernels in one process — and
//! [`with_avx512_disabled`] steps the vector kernel down a form.

use crate::layer::Activation;
use crate::tensor::Matrix;
use crate::NnError;
use std::cell::Cell;
use std::sync::OnceLock;

/// Vector lane width: 16 f32 lanes (one AVX-512 register; the AVX2 kernel
/// processes each panel as two 8-lane halves).
pub const LANES: usize = 16;

/// Output columns per int8 panel (same 16-column tile as the f32 panels).
pub const QLANES: usize = 16;

/// Largest input dimension the int8 path accepts: `k · 127² < i32::MAX` keeps
/// the integer accumulation exact with headroom to spare.
const QUANT_MAX_K: usize = 1 << 16;

/// Which micro-kernel implementation executes the packed operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Portable fallback emulating the 16-accumulator lane layout with
    /// `f32::mul_add` (and the exact i32 recipe for int8 panels) —
    /// bit-identical to [`Kernel::Vector`].
    Scalar,
    /// AVX-512 (or AVX2 + FMA) lanes on x86-64.  Falls back to the scalar
    /// recipe on other hardware; results are identical either way.
    Vector,
}

impl Kernel {
    /// The process-wide kernel: vector lanes when the CPU has them, the
    /// scalar fallback otherwise.
    pub fn selected() -> Kernel {
        if vector_available() {
            Kernel::Vector
        } else {
            Kernel::Scalar
        }
    }

    /// Human-readable kernel name (bench/report output): the f32 form and,
    /// after it, the int8 form the calling thread runs — so a run record or a
    /// CI log says which of the three int8 forms a green run covered.
    /// `"avx512"` alone is an AVX-512 host without VNNI, whose int8 layers
    /// take the AVX2 form.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Vector if avx512_enabled() && vnni_available() => "avx512-vnni",
            Kernel::Vector if avx512_enabled() => "avx512",
            Kernel::Vector if vector_available() => "avx2+fma",
            _ => "scalar",
        }
    }
}

/// Whether the vector kernel's lanes are actually available on this CPU.
pub fn vector_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the AVX-512 forms of the vector kernels are available (F for the
/// 16-lane f32 panels, BW for the byte narrowing of the input-row quantizer, DQ
/// for the 256-bit extract in the reduction tree).
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether `vpdpbusd` (AVX512-VNNI) is available — the int8 forward's AVX-512
/// form needs it; an AVX-512 host without it runs the AVX2 int8 form.  All
/// forms accumulate the same exact integer, so this only decides speed.
fn vnni_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512vnni")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

thread_local! {
    static FORCED: Cell<Option<Kernel>> = const { Cell::new(None) };
    /// See [`with_avx512_disabled`].
    static DISABLE_AVX512: Cell<bool> = const { Cell::new(false) };
}

/// Whether the vector dispatch should take the AVX-512 forms right now.
pub(crate) fn avx512_enabled() -> bool {
    !DISABLE_AVX512.with(|c| c.get()) && avx512_available()
}

/// Runs `f` with the calling thread's kernel selection overridden — the test
/// hook behind the scalar-vs-vector bit-identity guards.  Only affects the
/// calling thread, which is the one a batch runs on.
pub fn with_forced<T>(kernel: Kernel, f: impl FnOnce() -> T) -> T {
    let previous = FORCED.with(|slot| slot.replace(Some(kernel)));
    let result = f();
    FORCED.with(|slot| slot.set(previous));
    result
}

/// Runs `f` with the AVX-512 forms of the vector kernels disabled on the
/// calling thread, so the AVX2 forms can be bit-compared against them on one
/// machine — the second test hook of the bit-identity guards, with the same
/// calling-thread scope as [`with_forced`].
pub fn with_avx512_disabled<T>(f: impl FnOnce() -> T) -> T {
    let previous = DISABLE_AVX512.with(|c| c.replace(true));
    let result = f();
    DISABLE_AVX512.with(|c| c.set(previous));
    result
}

/// The kernel the current thread will execute packed operations with.
pub fn active() -> Kernel {
    FORCED.with(|slot| slot.get()).unwrap_or_else(Kernel::selected)
}

/// A weight matrix (`k × n`) repacked into column-major panels of [`LANES`]
/// columns, plus the layer's bias zero-padded to the panel edge.  Packed once
/// per weight mutation (build, deserialize, optimizer step); every packed
/// kernel call then streams panels with unit stride.
#[derive(Debug, Clone)]
pub struct PackedPanels {
    k: usize,
    n: usize,
    /// `panel_count() * k * LANES` floats: panel `p`, row `kk`, lane `l` is at
    /// `p * k * LANES + kk * LANES + l` and holds `weight[kk][16p + l]`
    /// (zero for padding lanes `16p + l >= n`).
    data: Vec<f32>,
    /// Bias padded to `panel_count() * LANES` (zeros when the layer has none).
    bias: Vec<f32>,
    /// The panels turned on their side for `dy · Wᵀ`, laid out by the first
    /// [`matmul_transpose_packed`] over them — once per weight mutation, like
    /// the panels themselves, and only where something trains: panels that
    /// only serve never hold it.  `k.div_ceil(16) * panel_count() * 256`
    /// floats.  Block `b` covers the sixteen outputs `kk ∈ [16b, 16b + 16)`;
    /// inside it panel `p`, position `q` is one vector of sixteen floats at
    /// `((b * panel_count() + p) * 16 + q) * 16`, holding
    /// `weight[16b + t][16p + LANE_ORDER[q]]` for `t ∈ 0..16` — the weights
    /// one lane of one panel multiplies, for sixteen adjacent outputs, zero
    /// past either edge.
    transposed: OnceLock<Vec<f32>>,
}

impl PackedPanels {
    /// Packs a weight matrix and its optional `1 × n` bias row.
    pub fn pack(weight: &Matrix, bias: Option<&Matrix>) -> crate::Result<Self> {
        let (k, n) = (weight.rows(), weight.cols());
        if let Some(b) = bias {
            if b.rows() != 1 || b.cols() != n {
                return Err(NnError::ShapeMismatch {
                    context: format!(
                        "pack: weight is {k}x{n}, bias is {}x{}",
                        b.rows(),
                        b.cols()
                    ),
                });
            }
        }
        let panels = n.div_ceil(LANES);
        let mut data = vec![0.0f32; panels * k * LANES];
        for p in 0..panels {
            let base = p * k * LANES;
            for kk in 0..k {
                let row = weight.row(kk);
                for l in 0..LANES.min(n - p * LANES) {
                    data[base + kk * LANES + l] = row[p * LANES + l];
                }
            }
        }
        let mut padded_bias = vec![0.0f32; panels * LANES];
        if let Some(b) = bias {
            padded_bias[..n].copy_from_slice(b.as_slice());
        }
        Ok(PackedPanels {
            k,
            n,
            data,
            bias: padded_bias,
            transposed: OnceLock::new(),
        })
    }

    /// The panels of several layers that read the same input, side by side —
    /// the f32 twin of [`QuantizedPanels::concat_columns`]: columns `[0, n₀)`
    /// are `parts[0]`'s, the next `n₁` are `parts[1]`'s, and so on, each
    /// computing in a forward pass exactly what it computes in its own layer.
    pub fn concat_columns(parts: &[&PackedPanels]) -> crate::Result<Self> {
        let k = parts.first().map_or(0, |p| p.k);
        if parts.iter().any(|p| p.k != k) {
            return Err(NnError::ShapeMismatch {
                context: "concat_columns: panels disagree on the input dimension".into(),
            });
        }
        let n: usize = parts.iter().map(|p| p.n).sum();
        let mut data = vec![0.0f32; n.div_ceil(LANES) * k * LANES];
        let mut bias = vec![0.0f32; n.div_ceil(LANES) * LANES];
        let mut at = 0;
        for part in parts {
            for c in 0..part.n {
                let (from, to) = (part.panel(c / LANES), (at + c) / LANES * k * LANES);
                for kk in 0..k {
                    data[to + kk * LANES + (at + c) % LANES] = from[kk * LANES + c % LANES];
                }
                bias[at + c] = part.bias[c];
            }
            at += part.n;
        }
        Ok(PackedPanels {
            k,
            n,
            data,
            bias,
            transposed: OnceLock::new(),
        })
    }

    /// Input dimension (rows of the original weight).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output dimension (columns of the original weight).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of 16-column panels (including the zero-padded edge panel).
    pub fn panel_count(&self) -> usize {
        self.n.div_ceil(LANES)
    }

    /// Resident bytes of the packed representation.
    pub fn bytes(&self) -> usize {
        (self.data.len() + self.bias.len()) * std::mem::size_of::<f32>()
    }

    #[inline]
    fn panel(&self, p: usize) -> &[f32] {
        &self.data[p * self.k * LANES..(p + 1) * self.k * LANES]
    }

    #[inline]
    fn bias_panel(&self, p: usize) -> &[f32] {
        &self.bias[p * LANES..(p + 1) * LANES]
    }

    /// The transposed layout (see the field), laid out on first use: output
    /// block `b` is the `panel_count() * 16` vectors from
    /// `b * panel_count() * 256` on.
    fn transposed(&self) -> &[f32] {
        let panels = self.panel_count();
        self.transposed.get_or_init(|| {
            let mut data = vec![0.0f32; self.k.div_ceil(LANES) * panels * LANES * LANES];
            for (slot, vector) in data.chunks_exact_mut(LANES).enumerate() {
                let (b, p, q) = (slot / LANES / panels, slot / LANES % panels, slot % LANES);
                let rows = self.panel(p)[b * LANES * LANES..].chunks_exact(LANES);
                for (w, row) in vector.iter_mut().zip(rows) {
                    *w = row[LANE_ORDER[q]];
                }
            }
            data
        })
    }
}

/// The order the `dy · Wᵀ` kernels hold an output's sixteen lane sums in: the
/// fixed reduction tree of [`reduce_lanes`] adds lane `j` to lane `j + 8`,
/// then `s0 + s4`, `s2 + s6`, `s1 + s5`, `s3 + s7`, then `(s04 + s26)` and
/// `(s15 + s37)`, then those two — which is "add neighbours, four times" over
/// the lanes written in this order.  Any aligned run of 2, 4 or 8 positions is
/// a whole subtree, so a kernel may sum a run by itself and combine the runs'
/// sums the same way.
const LANE_ORDER: [usize; LANES] = [0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15];

/// A weight matrix (`k × n`) quantized to int8 with one symmetric scale per
/// output column, packed into [`QLANES`]-column panels interleaved by `k`
/// quads: panel `p`, quad `g` is a 64-byte block whose byte `4c + s` holds
/// `q[4g + s][16p + c]` — one `vpdpbusd` lane per column, its four bytes the
/// four consecutive `k` that instruction multiplies and sums.  `k` that is
/// not a multiple of four (and edge columns) are zero-padded.  Beside the
/// weights sits one i32 per column, `−128 · Σₖ q[k][c]`: what the `vpdpbusd`
/// form starts its accumulators from, because it multiplies by `qₓ + 128`.
/// A weight is in `[-127, 127]`: the AVX2 forms negate it (`vpsignb`), and
/// `-(-128)` does not fit a byte.
///
/// The layout is derived state — a snapshot stores the row-major int8 weights
/// and the scales ([`weights_row_major`](Self::weights_row_major),
/// [`column_scales`](Self::column_scales)) and [`from_parts`](Self::from_parts)
/// rebuilds the panels — so it can change without touching a stored byte.
///
/// Quantization is part of the store's arithmetic recipe: the same panels
/// produce bit-identical predictions under the scalar, AVX2 and `vpdpbusd`
/// forms, so a quantized snapshot serves losslessly on any of them.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedPanels {
    k: usize,
    n: usize,
    /// `k.div_ceil(4)` — number of 64-byte weight blocks per panel.
    kquads: usize,
    /// `panel_count() * kquads * 64` bytes (see the struct docs for layout).
    data: Vec<i8>,
    /// Per-column `−128 · Σₖ q[k][c]`, padded (with zeros) to the panel edge.
    offsets: Vec<i32>,
    /// Per-output-column dequantization scales (`max_abs / 127`, `1.0` for an
    /// all-zero column), padded to the panel edge.
    scales: Vec<f32>,
    /// f32 bias padded to the panel edge (zeros when the layer has none).
    bias: Vec<f32>,
}

/// Bytes of one (panel, k-quad) weight block.
const QBLOCK: usize = 4 * QLANES;

/// Rows ("keys") per group of the keys-in-lanes layout: one i32 lane each of
/// a 64-byte block.
const LANE_KEYS: usize = 16;

impl QuantizedPanels {
    /// Quantizes a weight matrix (and its optional `1 × n` bias row) with one
    /// symmetric per-column scale: `scale_c = max_kk |w[kk][c]| / 127` (1.0
    /// for an all-zero column) and `q = round(w / scale_c)` clamped to
    /// `[-127, 127]`.  One deterministic code path — the panels produced at
    /// build time and at snapshot reload are identical.
    pub fn quantize(weight: &Matrix, bias: Option<&Matrix>) -> crate::Result<Self> {
        let (k, n) = (weight.rows(), weight.cols());
        let mut scales = vec![1.0f32; n];
        for (c, scale) in scales.iter_mut().enumerate() {
            let mut amax = 0.0f32;
            for kk in 0..k {
                let a = weight.get(kk, c).abs();
                if a > amax {
                    amax = a;
                }
            }
            if amax > 0.0 {
                *scale = amax / 127.0;
            }
        }
        let mut q = vec![0i8; k * n];
        for kk in 0..k {
            let row = weight.row(kk);
            for c in 0..n {
                q[kk * n + c] = (row[c] / scales[c]).round().clamp(-127.0, 127.0) as i8;
            }
        }
        Self::from_parts(k, n, &q, &scales, bias)
    }

    /// Reassembles panels from raw row-major quantized weights and per-column
    /// scales — the snapshot-reload path.  The panels are byte-identical to
    /// what [`quantize`](Self::quantize) produced at build time.  A weight of
    /// `-128`, which the quantizer never writes, is an error.
    pub fn from_parts(
        k: usize,
        n: usize,
        q: &[i8],
        scales: &[f32],
        bias: Option<&Matrix>,
    ) -> crate::Result<Self> {
        if q.len() != k * n || scales.len() != n {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "quantized panels: {k}x{n} weights need {} values and {n} scales, got {} and {}",
                    k * n,
                    q.len(),
                    scales.len()
                ),
            });
        }
        if let Some(at) = q.iter().position(|&v| v == i8::MIN) {
            return Err(NnError::Corrupt(format!(
                "quantized panels: weight {at} is -128, outside the quantizer's [-127, 127]"
            )));
        }
        if k > QUANT_MAX_K {
            return Err(NnError::InvalidConfig(format!(
                "quantized panels: input dimension {k} exceeds the exact-i32 bound {QUANT_MAX_K}"
            )));
        }
        if let Some(b) = bias {
            if b.rows() != 1 || b.cols() != n {
                return Err(NnError::ShapeMismatch {
                    context: format!(
                        "quantized panels: weight is {k}x{n}, bias is {}x{}",
                        b.rows(),
                        b.cols()
                    ),
                });
            }
        }
        let panels = n.div_ceil(QLANES);
        let kquads = k.div_ceil(4);
        let mut data = vec![0i8; panels * kquads * QBLOCK];
        let mut offsets = vec![0i32; panels * QLANES];
        for (i, &v) in q.iter().enumerate() {
            let (kk, c) = (i / n, i % n);
            data[((c / QLANES) * kquads + kk / 4) * QBLOCK + 4 * (c % QLANES) + kk % 4] = v;
            offsets[c] -= 128 * v as i32;
        }
        let mut padded_scales = vec![1.0f32; panels * QLANES];
        padded_scales[..n].copy_from_slice(scales);
        let mut padded_bias = vec![0.0f32; panels * QLANES];
        if let Some(b) = bias {
            padded_bias[..n].copy_from_slice(b.as_slice());
        }
        Ok(QuantizedPanels {
            k,
            n,
            kquads,
            data,
            offsets,
            scales: padded_scales,
            bias: padded_bias,
        })
    }

    /// The panels of several layers that read the same input, side by side:
    /// columns `[0, n₀)` are `parts[0]`'s, the next `n₁` are `parts[1]`'s, and
    /// so on.  Output columns are independent in every kernel, so each column
    /// of the result computes exactly what it computes in its own layer — the
    /// multi-task model runs all its heads' first layers as one such panel.
    pub fn concat_columns(parts: &[&QuantizedPanels]) -> crate::Result<Self> {
        let k = parts.first().map_or(0, |p| p.k);
        if parts.iter().any(|p| p.k != k) {
            return Err(NnError::ShapeMismatch {
                context: "concat_columns: panels disagree on the input dimension".into(),
            });
        }
        let n: usize = parts.iter().map(|p| p.n).sum();
        let mut q = vec![0i8; k * n];
        let mut scales = Vec::with_capacity(n);
        let mut bias = Vec::with_capacity(n);
        let mut at = 0;
        for part in parts {
            let rows = part.weights_row_major();
            for kk in 0..k {
                q[kk * n + at..][..part.n].copy_from_slice(&rows[kk * part.n..][..part.n]);
            }
            scales.extend_from_slice(part.column_scales());
            bias.extend_from_slice(&part.bias[..part.n]);
            at += part.n;
        }
        let bias = Matrix::from_vec(1, n, bias)?;
        Self::from_parts(k, n, &q, &scales, Some(&bias))
    }

    /// Input dimension (rows of the original weight).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output dimension (columns of the original weight).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of 16-column panels (including the zero-padded edge panel).
    pub fn panel_count(&self) -> usize {
        self.n.div_ceil(QLANES)
    }

    /// Resident bytes of the quantized representation.
    pub fn bytes(&self) -> usize {
        self.data.len()
            + (self.offsets.len() + self.scales.len() + self.bias.len())
                * std::mem::size_of::<f32>()
    }

    /// Per-output-column dequantization scales (unpadded).
    pub fn column_scales(&self) -> &[f32] {
        &self.scales[..self.n]
    }

    /// The raw quantized weights, row-major — the serialization source of
    /// truth (scales + these bytes reproduce the panels exactly).
    pub fn weights_row_major(&self) -> Vec<i8> {
        let mut q = vec![0i8; self.k * self.n];
        for (i, v) in q.iter_mut().enumerate() {
            let (kk, c) = (i / self.n, i % self.n);
            *v = self.block(c / QLANES, kk / 4)[4 * (c % QLANES) + kk % 4];
        }
        q
    }

    /// The dequantized weight matrix `(q as f32) · scale_c` — what the
    /// backward-pass kernels (`dy · Wᵀ`, `xᵀ · dy`) run against.  Single
    /// rounding per element, so it is deterministic across rebuilds.
    pub fn dequantized_weight(&self) -> Matrix {
        let q = self.weights_row_major();
        let mut w = Matrix::zeros(self.k, self.n);
        for kk in 0..self.k {
            for c in 0..self.n {
                w.set(kk, c, (q[kk * self.n + c] as f32) * self.scales[c]);
            }
        }
        w
    }

    #[inline]
    fn block(&self, p: usize, g: usize) -> &[i8] {
        &self.data[(p * self.kquads + g) * QBLOCK..][..QBLOCK]
    }
}

/// A borrowed window of f32 rows: row `i` is `data[i * ld ..][.. k]`.  What
/// the `*_into` entry points read, so a layer takes its input from a matrix's
/// row window, from a working buffer with a padded leading dimension, or from
/// a column range of either, without a copy.
#[derive(Debug, Clone, Copy)]
pub struct RowsView<'a> {
    data: &'a [f32],
    ld: usize,
    count: usize,
    k: usize,
}

impl<'a> RowsView<'a> {
    /// `count` rows of `k` values, `ld` apart, all inside `data` (checked).
    pub fn new(data: &'a [f32], ld: usize, count: usize, k: usize) -> crate::Result<Self> {
        if k > ld || (count > 0 && (count - 1) * ld + k > data.len()) {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "rows view: {count} rows of {k} values {ld} apart in a buffer of {}",
                    data.len()
                ),
            });
        }
        Ok(RowsView { data, ld, count, k })
    }

    /// Rows `[start, start + count)` of a matrix.
    pub fn of_matrix(m: &'a Matrix, start: usize, count: usize) -> crate::Result<Self> {
        if start + count > m.rows() {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "rows view: rows [{start}, {}) of a matrix with {} rows",
                    start + count,
                    m.rows()
                ),
            });
        }
        let ld = m.cols();
        Self::new(&m.as_slice()[start * ld..(start + count) * ld], ld, count, ld)
    }

    /// Number of rows.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Row `i` (panics past [`count`](Self::count)).
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f32] {
        assert!(i < self.count, "row {i} of a {}-row view", self.count);
        &self.data[i * self.ld..][..self.k]
    }
}

/// Quantizes one f32 input row to one byte per `k`: `q + 128` with
/// `q = round_ties_even(v · min(127 / max_abs, f32::MAX))` clamped to
/// `[-127, 127]`, so a byte is never 0.  The bias is what `vpdpbusd` wants for
/// its unsigned operand; the other forms subtract it again (a flip of the top
/// bit).  `out` is the row padded to whole k-quads, and the padding is written
/// too (as `q = 0`), so the buffer can be reused without clearing.  Returns
/// the row's dequantization scale `max_abs / 127` (an all-zero row quantizes
/// to zeros with scale 1.0).
///
/// The clamp of the reciprocal is the tiny-amax rule of the module docs: it
/// keeps every product finite where `127 / max_abs` overflows, so both copies
/// of the recipe — this one and `x86::quantize_rows_avx512` — agree there too.
///
/// Rounding is ties-to-even — the hardware `vcvtps2dq` mode — so the
/// AVX-512 form is bit-identical to this scalar recipe; the guard tests
/// compare them directly.
fn quantize_input_row(row: &[f32], out: &mut [u8]) -> f32 {
    let mut amax = 0.0f32;
    for &v in row {
        let a = v.abs();
        if a > amax {
            amax = a;
        }
    }
    if amax == 0.0 {
        out.fill(128);
        return 1.0;
    }
    let inv = (127.0 / amax).min(f32::MAX);
    let (real, padding) = out.split_at_mut(row.len());
    for (byte, &v) in real.iter_mut().zip(row) {
        let q = (v * inv).round_ties_even().clamp(-127.0, 127.0) as i8;
        *byte = q as u8 ^ 0x80;
    }
    padding.fill(128);
    amax / 127.0
}

/// Bytes a [`QuantizedRows`] buffer keeps past its last row, so the AVX-512
/// quantizer can finish every row with a whole 16-byte store.
const QROWS_SLACK: usize = 16;

/// A window of input rows quantized into the byte form the int8 kernels
/// consume (`quantize_input_row`), with the per-row scales.  A value of this
/// type is a reusable buffer: [`fill`](Self::fill) overwrites it with a new
/// window and only allocates when the window outgrows it, so a model walk
/// sizes one for its widest layer and quantizes every layer's input into it.
/// Rows are `k.div_ceil(4) * 4` bytes apart.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuantizedRows {
    k: usize,
    count: usize,
    /// At least `count * k.div_ceil(4) * 4 + QROWS_SLACK` bytes, row-major.
    bytes: Vec<u8>,
    /// At least `count` per-row dequantization scales.
    scales: Vec<f32>,
    /// The rows with the keys in lanes, as [`argmax_prequantized`]'s vector
    /// forms read them (`lay_out_lanes`): per group of sixteen rows, per
    /// k-quad, one 64-byte block whose bytes `4j..4j + 4` are the quad of
    /// the group's row `j` — one `vpdpbusd` operand.
    lanes: Vec<u8>,
}

impl QuantizedRows {
    /// Grows the buffer, if it must, to hold `rows` rows of up to `k` values
    /// without allocating again.
    pub fn reserve(&mut self, rows: usize, k: usize) {
        let owned = rows * k.div_ceil(4) * 4 + QROWS_SLACK;
        if self.bytes.len() < owned {
            self.bytes.resize(owned, 0);
        }
        if self.scales.len() < rows {
            self.scales.resize(rows, 0.0);
        }
    }

    /// Quantizes `rows` on the calling thread's [`active`] kernel into a
    /// fresh buffer.
    pub fn quantize(rows: RowsView<'_>) -> Self {
        let mut quantized = Self::default();
        quantized.fill(active(), rows);
        quantized
    }

    /// Makes the buffer one of `count` rows of `k` values — growing it if the
    /// window outgrew it, leaving the bytes stale — and returns the distance
    /// between rows, `k` rounded up to whole k-quads.
    fn resize(&mut self, count: usize, k: usize) -> usize {
        self.k = k;
        self.count = count;
        self.reserve(count, k);
        k.div_ceil(4) * 4
    }

    /// Overwrites the buffer with `rows`, quantized by `kernel`'s form of the
    /// row quantizer — scalar and AVX-512 produce identical bytes; the
    /// bit-identity guards pin that by selecting each explicitly.
    pub fn fill(&mut self, kernel: Kernel, rows: RowsView<'_>) {
        let width = self.resize(rows.count, rows.k);
        #[cfg(target_arch = "x86_64")]
        if matches!(kernel, Kernel::Vector) && avx512_enabled() {
            // Safety: AVX-512 F/BW availability checked at runtime; the
            // buffers were sized above (the callee checks them again).
            unsafe { x86::quantize_rows_avx512(rows, width, &mut self.bytes, &mut self.scales) };
            return;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = kernel;
        for i in 0..rows.count {
            self.scales[i] = quantize_input_row(rows.row(i), &mut self.bytes[i * width..][..width]);
        }
    }

    /// Overwrites the buffer with `count` rows of `k` values whose quantized
    /// form the caller knows without seeing them as f32: `write(bytes,
    /// scales)` gets the window's `count` rows back to back — `k` rounded up
    /// to whole k-quads each — and its `count` scales, and writes all of them,
    /// the padding as `0x80`, exactly as [`fill`](Self::fill) would have.
    /// [`KeyEncoder::quantize_keys`] is the one such caller.
    ///
    /// [`KeyEncoder::quantize_keys`]: crate::encoding::KeyEncoder::quantize_keys
    pub fn fill_with(&mut self, count: usize, k: usize, write: impl FnOnce(&mut [u8], &mut [f32])) {
        let width = self.resize(count, k);
        write(&mut self.bytes[..count * width], &mut self.scales[..count]);
    }

    /// Lays the rows out with the keys in lanes (see the field), one block
    /// per k-quad of a group.  The lanes past the last row are `0x80`
    /// (`q = 0`).  With AVX-512 a block is one gather of sixteen rows' quad,
    /// and the scalar loop is the same copy.
    fn lay_out_lanes(&mut self, kernel: Kernel) {
        let (kquads, count) = (self.k.div_ceil(4), self.count);
        let owned = count.div_ceil(LANE_KEYS) * kquads * QBLOCK;
        if self.lanes.len() < owned {
            self.lanes.resize(owned, 0x80);
        }
        let rows = &self.bytes[..count * kquads * 4];
        #[cfg(target_arch = "x86_64")]
        if matches!(kernel, Kernel::Vector) && avx512_enabled() {
            // Safety: AVX-512 F availability checked at runtime; both buffers
            // were sized above (the callee checks them again).
            unsafe { x86::lay_out_lanes_avx512(rows, kquads, &mut self.lanes) };
            return;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = kernel;
        for (group, rows) in self.lanes.chunks_exact_mut(kquads * QBLOCK).zip(rows.chunks(LANE_KEYS * kquads * 4)) {
            for (g, block) in group.chunks_exact_mut(QBLOCK).enumerate() {
                for (key, lane) in block.chunks_exact_mut(4).enumerate() {
                    let at = (key * kquads + g) * 4;
                    match rows.get(at..at + 4) {
                        Some(quad) => lane.copy_from_slice(quad),
                        None => lane.fill(0x80),
                    }
                }
            }
        }
    }

    /// Number of quantized rows.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Row `i`'s bytes, padding included (panics past [`count`](Self::count)).
    pub fn row(&self, i: usize) -> &[u8] {
        assert!(i < self.count, "row {i} of {} quantized rows", self.count);
        let width = self.k.div_ceil(4) * 4;
        &self.bytes[i * width..][..width]
    }

    /// The rows' dequantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales[..self.count]
    }
}

/// Checks what every `*_into` entry point needs of its destination: `ld`
/// leaves room for the `n` output columns and `out` holds `count` rows of it.
/// The vector kernels store whole lanes up to `ld`, so this is a memory-safety
/// check, not a convenience.
fn check_destination(out: &[f32], ld: usize, count: usize, n: usize) -> crate::Result<()> {
    if ld < n || out.len() < count * ld {
        return Err(NnError::ShapeMismatch {
            context: format!(
                "forward destination: {count} rows of {n} columns {ld} apart in a buffer of {}",
                out.len()
            ),
        });
    }
    Ok(())
}

/// `act(lhs[start .. start+count] · W + b)` over packed panels, written into a
/// fresh `count × n` matrix.  The bias initializes the accumulator lanes and
/// the activation is applied to each output tile while it is hot, so every
/// tile is touched once.
pub fn forward_packed(
    lhs: &Matrix,
    start: usize,
    count: usize,
    panels: &PackedPanels,
    activation: Activation,
) -> crate::Result<Matrix> {
    let rows = RowsView::of_matrix(lhs, start, count)?;
    let mut out = Matrix::zeros(count, panels.n);
    forward_packed_into(active(), rows, panels, activation, out.as_mut_slice(), panels.n)?;
    Ok(out)
}

/// [`forward_packed`] into a caller-owned buffer: output row `i` is
/// `out[i * ld ..][.. n]`.  With `ld` past `n` the kernels also write the
/// panel padding up to `ld` (as `act(0)`), which is what lets them store whole
/// lanes into a buffer whose leading dimension is a multiple of [`LANES`].
pub fn forward_packed_into(
    kernel: Kernel,
    rows: RowsView<'_>,
    panels: &PackedPanels,
    activation: Activation,
    out: &mut [f32],
    ld: usize,
) -> crate::Result<()> {
    if rows.k != panels.k {
        return Err(NnError::ShapeMismatch {
            context: format!(
                "forward_packed: input rows have {} values, panels expect k={}",
                rows.k, panels.k
            ),
        });
    }
    check_destination(out, ld, rows.count, panels.n)?;
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Vector if avx512_enabled() => unsafe {
            // Safety: AVX-512 F/BW/DQ availability checked at runtime; the
            // destination bounds were checked above.
            x86::forward_avx512(rows, panels, activation, out, ld);
        },
        #[cfg(target_arch = "x86_64")]
        Kernel::Vector if vector_available() => unsafe {
            // Safety: AVX2+FMA availability checked at runtime; the
            // destination bounds were checked above.
            x86::forward_avx2(rows, panels, activation, out, ld);
        },
        _ => forward_scalar_dispatch(rows, panels, activation, out, ld),
    }
    Ok(())
}

/// `act((lhs[start .. start+count] quantized) · Q + b)` over int8 panels,
/// written into a fresh `count × n` matrix.  Each input row is quantized once,
/// the integer `Σ qₓ·q_w` is accumulated exactly, and the result is
/// dequantized through the fixed f32 epilogue
/// `y = (acc as f32) · (x_scale · w_scale_c) + bias_c` with the activation
/// fused into the tile store — bit-identical across kernel selection,
/// chunking, batch size and thread count.
pub fn forward_quantized(
    lhs: &Matrix,
    start: usize,
    count: usize,
    panels: &QuantizedPanels,
    activation: Activation,
) -> crate::Result<Matrix> {
    let rows = RowsView::of_matrix(lhs, start, count)?;
    let mut qrows = QuantizedRows::default();
    let mut out = Matrix::zeros(count, panels.n);
    let (dst, ld) = (out.as_mut_slice(), panels.n);
    forward_quantized_into(active(), rows, &mut qrows, panels, activation, dst, ld)?;
    Ok(out)
}

/// [`forward_quantized`] into a caller-owned buffer (see
/// [`forward_packed_into`] for `out` and `ld`), quantizing `rows` into the
/// caller's `qrows` on the way — which is left holding them, for
/// [`forward_prequantized_into`] to run further layers over the same input.
pub fn forward_quantized_into(
    kernel: Kernel,
    rows: RowsView<'_>,
    qrows: &mut QuantizedRows,
    panels: &QuantizedPanels,
    activation: Activation,
    out: &mut [f32],
    ld: usize,
) -> crate::Result<()> {
    // The scalar and AVX-512 row quantizers produce identical bytes, so every
    // kernel reads the same operands.
    qrows.fill(kernel, rows);
    forward_prequantized_into(kernel, qrows, panels, activation, out, ld)
}

/// [`forward_quantized`] over an input window already quantized by
/// [`QuantizedRows::quantize`], for several layers that read the same input.
pub fn forward_prequantized(
    qrows: &QuantizedRows,
    panels: &QuantizedPanels,
    activation: Activation,
) -> crate::Result<Matrix> {
    let mut out = Matrix::zeros(qrows.count, panels.n);
    forward_prequantized_into(active(), qrows, panels, activation, out.as_mut_slice(), panels.n)?;
    Ok(out)
}

/// [`forward_prequantized`] with an explicit kernel, into a caller-owned
/// buffer (see [`forward_packed_into`] for `out` and `ld`).  The one place
/// the int8 forward picks its form: `vpdpbusd` with AVX-512-VNNI, the
/// sign-transfer form with AVX2, the scalar dot product otherwise.
pub fn forward_prequantized_into(
    kernel: Kernel,
    qrows: &QuantizedRows,
    panels: &QuantizedPanels,
    activation: Activation,
    out: &mut [f32],
    ld: usize,
) -> crate::Result<()> {
    if qrows.k != panels.k {
        return Err(NnError::ShapeMismatch {
            context: format!(
                "forward_prequantized: input rows have {} values, panels expect k={}",
                qrows.k, panels.k
            ),
        });
    }
    check_destination(out, ld, qrows.count, panels.n)?;
    let count = qrows.count;
    let (Some(bytes), Some(xscales)) = (
        qrows.bytes.get(..count * panels.kquads * 4),
        qrows.scales.get(..count),
    ) else {
        return Err(NnError::ShapeMismatch {
            context: format!(
                "forward_prequantized: {count} quantized rows of {} values in {} bytes, {} scales",
                qrows.k,
                qrows.bytes.len(),
                qrows.scales.len()
            ),
        });
    };
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Vector if avx512_enabled() && vnni_available() => unsafe {
            // Safety: AVX-512 F/BW/DQ/VNNI availability checked at runtime;
            // the destination bounds were checked above.
            x86::forward_quantized_vnni(bytes, xscales, panels, activation, out, ld);
        },
        #[cfg(target_arch = "x86_64")]
        Kernel::Vector if vector_available() => unsafe {
            // Safety: AVX2+FMA availability checked at runtime; the
            // destination bounds were checked above.
            x86::forward_quantized_avx2(bytes, xscales, panels, activation, out, ld);
        },
        _ => forward_quantized_scalar_dispatch(bytes, xscales, panels, activation, out, ld),
    }
    Ok(())
}

/// The class each logit row predicts — [`tensor::argmax`](crate::tensor::argmax)
/// of every row of `logits`, row `i`'s written to `out[i * stride]` (a model
/// walk interleaves its heads' predictions, so `stride` is its task count).
/// The AVX-512 form takes a row's maximum 16 lanes at a time and then the
/// first lane that equals it, which is the scalar loop's answer on every
/// input: the lowest index among ties (`0.0` and `-0.0` tie in both), NaNs
/// never win, and a row with nothing above `-∞` predicts class 0.
pub fn argmax_rows(
    kernel: Kernel,
    logits: RowsView<'_>,
    out: &mut [u32],
    stride: usize,
) -> crate::Result<()> {
    if logits.count > 0 && (stride == 0 || (logits.count - 1) * stride >= out.len()) {
        return Err(NnError::ShapeMismatch {
            context: format!(
                "argmax_rows: {} predictions {stride} apart in a buffer of {}",
                logits.count,
                out.len()
            ),
        });
    }
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Vector if avx512_enabled() => unsafe {
            // Safety: AVX-512 F availability checked at runtime; the
            // destination was checked above.
            x86::argmax_rows_avx512(logits, out, stride);
        },
        _ => {
            for i in 0..logits.count {
                out[i * stride] = crate::tensor::argmax(logits.row(i)) as u32;
            }
        }
    }
    Ok(())
}

/// The class each row's output layer predicts, straight from its quantized
/// input: for every row `i` of `qrows` and every head `h` of `heads` — the
/// layer's columns side by side, head `h` the next `heads[h]` of them —
/// `out[i * stride + h]` is the [`argmax`](crate::tensor::argmax) of what
/// [`forward_prequantized_into`] writes in the head's columns: the same exact
/// integer sums, the same epilogue `act(fma(cvt(acc), x_scale · w_scale,
/// bias))`, then the ordered `>` from `-∞` over the columns in order — the
/// lowest class wins a tie (`0.0` and `-0.0` tie), a NaN never wins, and a
/// row with nothing above `-∞` predicts 0.  No logit is stored.
///
/// The vector forms run with the keys in lanes (see the module docs): the
/// rows are first laid out sixteen to a group (`qrows` keeps that copy
/// beside its rows), then each column is one register of sixteen keys' sums,
/// its epilogue is lane for lane, and a head's argmax is a running
/// compare-and-select per lane.  With AVX-512-VNNI the `vpdpbusd` form takes
/// groups of sixteen keys (the last one masked); with AVX2 the sign-transfer
/// arithmetic over half groups of eight keys; the scalar reference otherwise
/// reads the rows as they are.
pub fn argmax_prequantized(
    kernel: Kernel,
    qrows: &mut QuantizedRows,
    panels: &QuantizedPanels,
    activation: Activation,
    heads: &[usize],
    out: &mut [u32],
    stride: usize,
) -> crate::Result<()> {
    let count = qrows.count;
    if qrows.k != panels.k || heads.is_empty() || heads.iter().sum::<usize>() != panels.n {
        return Err(NnError::ShapeMismatch {
            context: format!(
                "argmax_prequantized: rows of {} values, heads {heads:?}, panels of {}x{}",
                qrows.k, panels.k, panels.n
            ),
        });
    }
    if count > 0 && (stride < heads.len() || (count - 1) * stride + heads.len() > out.len()) {
        return Err(NnError::ShapeMismatch {
            context: format!(
                "argmax_prequantized: {count} rows of {} predictions {stride} apart in a buffer of {}",
                heads.len(),
                out.len()
            ),
        });
    }
    let width = panels.kquads * 4;
    if qrows.bytes.len() < count * width || qrows.scales.len() < count {
        return Err(NnError::ShapeMismatch {
            context: format!(
                "argmax_prequantized: {count} quantized rows of {} values in {} bytes, {} scales",
                qrows.k,
                qrows.bytes.len(),
                qrows.scales.len()
            ),
        });
    }
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Vector if avx512_enabled() && vnni_available() => {
            qrows.lay_out_lanes(kernel);
            let (lanes, xscales) = (&qrows.lanes[..], &qrows.scales[..count]);
            // Safety: AVX-512 F/BW/DQ/VNNI availability checked at runtime;
            // the lanes were laid out and the destination checked above.
            unsafe { x86::argmax_quantized_vnni(lanes, xscales, panels, activation, heads, out, stride) };
        }
        #[cfg(target_arch = "x86_64")]
        Kernel::Vector if vector_available() => {
            qrows.lay_out_lanes(kernel);
            let (lanes, xscales) = (&qrows.lanes[..], &qrows.scales[..count]);
            // Safety: AVX2+FMA availability checked at runtime; the lanes
            // were laid out and the destination checked above.
            unsafe { x86::argmax_quantized_avx2(lanes, xscales, panels, activation, heads, out, stride) };
        }
        _ => {
            let (bytes, xscales) = (&qrows.bytes[..count * width], &qrows.scales[..count]);
            argmax_quantized_scalar_dispatch(bytes, xscales, panels, activation, heads, out, stride);
        }
    }
    Ok(())
}

/// `lhs (m × n) · Wᵀ (n × k) -> m × k` — the backward-pass shape (`dy · Wᵀ`),
/// over the forward panels turned on their side (laid out on the first call
/// after a weight mutation; see [`PackedPanels`]).  An output
/// element is what it always was: sixteen lane sums, lane `l` one chain of
/// fused multiply-adds from `+0.0` over `lhs[i][16p + l] · w[kk][16p + l]` in
/// ascending `p` (a lane past `n` multiplying zero by zero), folded by the
/// fixed tree of [`reduce_lanes`].  What changed is where the lanes live: a
/// lane sum is one *register* holding sixteen adjacent outputs (`lhs[i][c]`
/// broadcast against one vector of the transposed panel), so the tree is
/// fifteen vertical adds per sixteen outputs and no lane ever crosses a
/// register — see the module docs.
pub fn matmul_transpose_packed(lhs: &Matrix, panels: &PackedPanels) -> crate::Result<Matrix> {
    matmul_wt(lhs, &[panels], false)
}

/// `Σₕ dyₕ · Wₕᵀ` over several layers that read the same input — a
/// multi-task model's heads' first layers, whose gradients meet at the trunk
/// output — in one pass that writes each output once.  `dy` holds the parts'
/// gradients side by side, as [`PackedPanels::concat_columns`] lays out their
/// outputs: part `h` reads columns `[Σ_{i<h} nᵢ, … + n_h)`.  Each part is
/// what [`matmul_transpose_packed`] computes of its columns alone — its own
/// sixteen lane sums over its own panels, folded by [`reduce_lanes`] — and an
/// output element is those values added in `parts` order, from `+0.0`.  No
/// lane sum crosses from one part into the next.
pub fn matmul_transpose_segmented(dy: &Matrix, parts: &[&PackedPanels]) -> crate::Result<Matrix> {
    let k = parts.first().map(|p| p.k);
    if k.is_none() || parts.iter().any(|p| Some(p.k) != k) {
        return Err(NnError::ShapeMismatch {
            context: "matmul_transpose_segmented: no parts, or parts of another k".into(),
        });
    }
    matmul_wt(dy, parts, true)
}

/// Both `dy · Wᵀ` entries: the parts' values added in order, from `+0.0`
/// with `from_zero`, from the first part's otherwise.  `parts` is not empty
/// and agrees on `k`.
fn matmul_wt(dy: &Matrix, parts: &[&PackedPanels], from_zero: bool) -> crate::Result<Matrix> {
    let n: usize = parts.iter().map(|p| p.n).sum();
    if dy.cols() != n {
        return Err(NnError::ShapeMismatch {
            context: format!(
                "matmul_transpose_packed: lhs is {}x{}, panels expect n={n}",
                dy.rows(),
                dy.cols()
            ),
        });
    }
    let mut out = Matrix::zeros(dy.rows(), parts[0].k);
    match active() {
        #[cfg(target_arch = "x86_64")]
        Kernel::Vector if avx512_enabled() => unsafe {
            // Safety: AVX-512 F/BW/DQ availability checked at runtime; the
            // shapes were checked above.
            x86::matmul_wt_avx512(dy, parts, from_zero, out.as_mut_slice());
        },
        #[cfg(target_arch = "x86_64")]
        Kernel::Vector if vector_available() => unsafe {
            // Safety: AVX2+FMA availability checked at runtime; the shapes
            // were checked above.
            x86::matmul_wt_avx2(dy, parts, from_zero, out.as_mut_slice());
        },
        _ => matmul_wt_scalar_dispatch(dy, parts, from_zero, out.as_mut_slice()),
    }
    Ok(out)
}

/// `lhsᵀ (k × m) · rhs (k × n) -> m × n` without materializing the transpose —
/// the weight-gradient shape (`xᵀ · dy`).  Output element `(i, j)` is one chain
/// of fused multiply-adds from `+0.0` over `lhs[kk][i] · rhs[kk][j]` in
/// ascending `kk`, **skipping** every `kk` whose `lhs[kk][i]` is zero (ReLU
/// activations and one-hot key features are zero-heavy; the skip is part of
/// the recipe, not a shortcut — it is what leaves a `−0.0` sum alone and keeps
/// a non-finite `rhs` out of rows it does not belong to).  The scalar body is
/// that sentence; the vector forms hold a tile of chains in registers across
/// the whole `kk` loop and skip with a per-lane mask — see the module docs.
pub fn transpose_matmul(lhs: &Matrix, rhs: &Matrix) -> crate::Result<Matrix> {
    if lhs.rows() != rhs.rows() {
        return Err(NnError::ShapeMismatch {
            context: format!(
                "transpose_matmul: lhs is {}x{}, rhs is {}x{}",
                lhs.rows(),
                lhs.cols(),
                rhs.rows(),
                rhs.cols()
            ),
        });
    }
    let mut out = Matrix::zeros(lhs.cols(), rhs.cols());
    match active() {
        #[cfg(target_arch = "x86_64")]
        Kernel::Vector if avx512_enabled() => unsafe {
            // Safety: AVX-512 F/BW/DQ availability checked at runtime.
            x86::transpose_matmul_avx512(lhs, rhs, out.as_mut_slice());
        },
        #[cfg(target_arch = "x86_64")]
        Kernel::Vector if vector_available() => unsafe {
            // Safety: AVX2+FMA availability checked at runtime.
            x86::transpose_matmul_avx2(lhs, rhs, out.as_mut_slice());
        },
        _ => transpose_matmul_scalar_dispatch(lhs, rhs, out.as_mut_slice()),
    }
    Ok(out)
}

/// The fixed lane-reduction tree every form of `dy · Wᵀ` finishes an output
/// with: fold the halves (`s_i = l_i + l_{i+8}`), then
/// `((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7))` — the order a halving reduction of
/// one 16-lane register takes, which is what the kernels ran when the first
/// snapshots were written; the vector forms now add whole registers in it.
#[inline(always)]
pub fn reduce_lanes(v: [f32; LANES]) -> f32 {
    let mut s = [0.0f32; 8];
    for i in 0..8 {
        s[i] = v[i] + v[i + 8];
    }
    let s04 = s[0] + s[4];
    let s15 = s[1] + s[5];
    let s26 = s[2] + s[6];
    let s37 = s[3] + s[7];
    (s04 + s26) + (s15 + s37)
}

// ---------------------------------------------------------------------------
// Scalar kernel bodies.
//
// Each body is `#[inline(always)]` and compiled twice: once portably, and once
// under `#[target_feature(enable = "fma")]` so that on FMA hardware the forced
// scalar kernel uses hardware fused multiply-adds instead of libm `fmaf` calls.
// Both compute the identical correctly-rounded fused result.
// ---------------------------------------------------------------------------

#[inline(always)]
fn forward_scalar_body(
    rows: RowsView<'_>,
    panels: &PackedPanels,
    activation: Activation,
    out: &mut [f32],
    ld: usize,
) {
    for i in 0..rows.count {
        let lhs_row = rows.row(i);
        let out_row = &mut out[i * ld..(i + 1) * ld];
        for p in 0..panels.panel_count() {
            let panel = panels.panel(p);
            let mut acc: [f32; LANES] = panels.bias_panel(p).try_into().expect("lane width");
            for (kk, &a) in lhs_row.iter().enumerate() {
                let w = &panel[kk * LANES..(kk + 1) * LANES];
                for (lane, &wl) in acc.iter_mut().zip(w) {
                    *lane = a.mul_add(wl, *lane);
                }
            }
            let cols = LANES.min(ld - p * LANES);
            let tile = &mut out_row[p * LANES..p * LANES + cols];
            tile.copy_from_slice(&acc[..cols]);
            activation.apply_to(tile);
        }
    }
}

/// The reference form of the int8 forward: the plain i32 dot product of the
/// un-biased input bytes with the weights, then the fixed epilogue.
#[inline(always)]
fn forward_quantized_scalar_body(
    bytes: &[u8],
    xscales: &[f32],
    panels: &QuantizedPanels,
    activation: Activation,
    out: &mut [f32],
    ld: usize,
) {
    let width = panels.kquads * 4;
    for (i, &x_scale) in xscales.iter().enumerate() {
        let xrow = &bytes[i * width..(i + 1) * width];
        let out_row = &mut out[i * ld..(i + 1) * ld];
        for p in 0..panels.panel_count() {
            let mut acc = [0i32; QLANES];
            for (g, quad) in xrow.chunks_exact(4).enumerate() {
                let block = panels.block(p, g);
                for (c, lane) in acc.iter_mut().enumerate() {
                    for (s, &byte) in quad.iter().enumerate() {
                        *lane += (byte as i32 - 128) * block[4 * c + s] as i32;
                    }
                }
            }
            let cols = QLANES.min(ld - p * QLANES);
            let tile = &mut out_row[p * QLANES..p * QLANES + cols];
            for (c, t) in tile.iter_mut().enumerate() {
                let m = x_scale * panels.scales[p * QLANES + c];
                *t = (acc[c] as f32).mul_add(m, panels.bias[p * QLANES + c]);
            }
            activation.apply_to(tile);
        }
    }
}

/// The reference form of [`argmax_prequantized`]: per row and head, each
/// column's exact i32 dot product and fixed epilogue, in column order, into
/// [`argmax`](crate::tensor::argmax)'s running `>`.
#[inline(always)]
fn argmax_quantized_scalar_body(
    bytes: &[u8],
    xscales: &[f32],
    panels: &QuantizedPanels,
    activation: Activation,
    heads: &[usize],
    out: &mut [u32],
    stride: usize,
) {
    let width = panels.kquads * 4;
    for (i, &x_scale) in xscales.iter().enumerate() {
        let xrow = &bytes[i * width..(i + 1) * width];
        let mut c = 0;
        for (h, &classes) in heads.iter().enumerate() {
            let (mut best, mut best_v) = (0, f32::NEG_INFINITY);
            for class in 0..classes {
                let (p, lane) = (c / QLANES, c % QLANES);
                let mut acc = 0i32;
                for (g, quad) in xrow.chunks_exact(4).enumerate() {
                    let w = &panels.block(p, g)[4 * lane..][..4];
                    for (&byte, &w) in quad.iter().zip(w) {
                        acc += (byte as i32 - 128) * w as i32;
                    }
                }
                let m = x_scale * panels.scales[c];
                let mut y = [(acc as f32).mul_add(m, panels.bias[c])];
                activation.apply_to(&mut y);
                if y[0] > best_v {
                    (best, best_v) = (class, y[0]);
                }
                c += 1;
            }
            out[i * stride + h] = best as u32;
        }
    }
}

/// The reference form of `dy · Wᵀ`: per part, the lane sums of one block of
/// sixteen outputs as a 16 × 16 array, each lane's chain in ascending panel
/// order, then [`reduce_lanes`] per output, added to the parts before it.
#[inline(always)]
fn matmul_wt_scalar_body(dy: &Matrix, parts: &[&PackedPanels], from_zero: bool, out: &mut [f32]) {
    let k = parts[0].k;
    for i in 0..dy.rows() {
        for (b, out_block) in out[i * k..(i + 1) * k].chunks_mut(LANES).enumerate() {
            let mut at = 0;
            for (h, panels) in parts.iter().enumerate() {
                let dy_row = &dy.row(i)[at..at + panels.n];
                at += panels.n;
                let block = panels.panel_count() * LANES * LANES;
                // acc[l][t]: lane l's running sum for output 16b + t.
                let mut acc = [[0.0f32; LANES]; LANES];
                let vectors = panels.transposed()[b * block..][..block].chunks_exact(LANES);
                for (slot, w) in vectors.enumerate() {
                    let (p, lane) = (slot / LANES, LANE_ORDER[slot % LANES]);
                    // A lane past the part's end multiplies zero by the
                    // panel's zero padding — `acc + 0.0`, which is not a no-op
                    // on `-0.0`.
                    let x = dy_row.get(p * LANES + lane).copied().unwrap_or(0.0);
                    for (a, &wl) in acc[lane].iter_mut().zip(w) {
                        *a = x.mul_add(wl, *a);
                    }
                }
                for (t, o) in out_block.iter_mut().enumerate() {
                    let sum = reduce_lanes(std::array::from_fn(|l| acc[l][t]));
                    // `out` starts at `+0.0`.
                    *o = if h == 0 && !from_zero { sum } else { *o + sum };
                }
            }
        }
    }
}

#[inline(always)]
fn transpose_matmul_scalar_body(lhs: &Matrix, rhs: &Matrix, out: &mut [f32]) {
    let n = rhs.cols();
    for kk in 0..lhs.rows() {
        let lhs_row = lhs.row(kk);
        let rhs_row = rhs.row(kk);
        for (i, &a) in lhs_row.iter().enumerate() {
            // The skip every form makes (see `transpose_matmul`).
            if a == 0.0 {
                continue;
            }
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                *o = a.mul_add(b, *o);
            }
        }
    }
}

macro_rules! scalar_dispatch {
    ($dispatch:ident, $body:ident, $fma:ident, ($($arg:ident: $ty:ty),*)) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "fma")]
        unsafe fn $fma($($arg: $ty),*) {
            $body($($arg),*);
        }

        fn $dispatch($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                if is_x86_feature_detected!("fma") {
                    // Safety: FMA availability checked at runtime; the body's
                    // `mul_add` then compiles to hardware FMA (same correctly
                    // rounded result as the portable libm path).
                    unsafe { $fma($($arg),*) };
                    return;
                }
            }
            $body($($arg),*);
        }
    };
}
pub(crate) use scalar_dispatch;

scalar_dispatch!(
    forward_scalar_dispatch,
    forward_scalar_body,
    forward_scalar_fma,
    (
        rows: RowsView<'_>,
        panels: &PackedPanels,
        activation: Activation,
        out: &mut [f32],
        ld: usize
    )
);

scalar_dispatch!(
    forward_quantized_scalar_dispatch,
    forward_quantized_scalar_body,
    forward_quantized_scalar_fma,
    (
        bytes: &[u8],
        xscales: &[f32],
        panels: &QuantizedPanels,
        activation: Activation,
        out: &mut [f32],
        ld: usize
    )
);

scalar_dispatch!(
    argmax_quantized_scalar_dispatch,
    argmax_quantized_scalar_body,
    argmax_quantized_scalar_fma,
    (
        bytes: &[u8],
        xscales: &[f32],
        panels: &QuantizedPanels,
        activation: Activation,
        heads: &[usize],
        out: &mut [u32],
        stride: usize
    )
);

scalar_dispatch!(
    matmul_wt_scalar_dispatch,
    matmul_wt_scalar_body,
    matmul_wt_scalar_fma,
    (dy: &Matrix, parts: &[&PackedPanels], from_zero: bool, out: &mut [f32])
);

scalar_dispatch!(
    transpose_matmul_scalar_dispatch,
    transpose_matmul_scalar_body,
    transpose_matmul_scalar_fma,
    (lhs: &Matrix, rhs: &Matrix, out: &mut [f32])
);

// ---------------------------------------------------------------------------
// AVX2 + FMA and AVX-512 kernels.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{
        PackedPanels, QuantizedPanels, RowsView, LANES, LANE_KEYS, LANE_ORDER, QBLOCK, QLANES,
    };
    use crate::layer::Activation;
    use crate::tensor::Matrix;
    use std::arch::x86_64::*;

    // -----------------------------------------------------------------------
    // The lanes: every path below but three AVX-512 helpers is one body over
    // [`Lanes`] and [`Quads`] (see "One body per path" in the module docs).
    //
    // The bodies and the trait methods are `#[inline(always)]` into the
    // `#[target_feature]` entry points, which is where the intrinsics become
    // instructions; no closure sits between them (one that did kept its
    // intrinsics out of line and made a form ≈ 2× slower).
    // -----------------------------------------------------------------------

    /// One vector register of f32 lanes, and a per-lane predicate over it.
    ///
    /// A value of an implementing type exists only where the CPU has the
    /// type's features: every way to make one from nothing is `unsafe`, and
    /// its caller promises them.  So a method that only combines values it is
    /// given is safe.
    ///
    /// # Safety
    ///
    /// Every `unsafe` method needs the CPU features of the implementing type
    /// (checked by the public entry points before they dispatch); the ones
    /// that take a pointer need the lanes they touch — all of them, or those
    /// of the mask — to be readable (`load*`) or writable (`store*`) f32s.
    trait Lanes: Copy {
        /// Lanes per register.
        const WIDTH: usize;
        /// A per-lane predicate (a mask register, or an all-ones / all-zeros
        /// lane pattern where the ISA has no mask registers).
        type Mask: Copy;
        /// A register of as many i32 lanes.
        type Int: Copy;
        unsafe fn zero() -> Self;
        unsafe fn splat(v: f32) -> Self;
        unsafe fn load(src: *const f32) -> Self;
        unsafe fn store(self, dst: *mut f32);
        /// The first `count` lanes.
        unsafe fn prefix(count: usize) -> Self::Mask;
        /// The lanes of `mask` from `src`, `+0.0` elsewhere (no access there).
        unsafe fn load_where(mask: Self::Mask, src: *const f32) -> Self;
        /// The lanes of `mask` to `dst` (no access elsewhere).
        unsafe fn store_where(self, mask: Self::Mask, dst: *mut f32);
        fn add(self, other: Self) -> Self;
        fn mul(self, other: Self) -> Self;
        /// `self · b + c`, fused.
        fn fmadd(self, b: Self, c: Self) -> Self;
        /// `self · b + c` in the lanes of `mask`, `c` untouched elsewhere.
        fn fmadd_where(self, mask: Self::Mask, b: Self, c: Self) -> Self;
        /// The lanes that are not `±0.0` (a NaN is not zero).
        fn nonzero(self) -> Self::Mask;
        /// The lanes where `self > other`, ordered: a NaN is never greater,
        /// nor anything than a NaN.
        fn greater(self, other: Self) -> Self::Mask;
        /// `self` in the lanes of `mask`, `other` elsewhere.
        fn select(self, mask: Self::Mask, other: Self) -> Self;
        /// The scalar recipe's ReLU, `if v < 0.0 { 0.0 }`: a lane below zero
        /// (ordered) becomes `+0.0`; `-0.0` and NaN pass through.
        fn relu(self) -> Self;
        /// `v`'s lanes converted to f32 (exact: they are below 2²⁴ in
        /// magnitude wherever the int8 forms use it).
        fn from_int(v: Self::Int) -> Self;
    }

    /// The int8 dot product of [`QuantizedPanels`] over one register of i32
    /// lanes: each lane adds the four products of an input k-quad and a
    /// weight k-quad, exactly.  The same integer two ways: `vpdpbusd` (VNNI)
    /// multiplies the biased input bytes `qₓ + 128` by the weights, so an
    /// accumulator starts at its column's `−128 · Σ q_w`; AVX2 moves the
    /// input's sign onto the weights (`vpsignb`), multiplies `|qₓ|` by them
    /// with `vpmaddubsw` (pair sums `≤ 2·127²`, inside i16) and widens the
    /// pairs with `vpmaddwd` against ones, from zero.
    ///
    /// # Safety
    ///
    /// As [`Lanes`]: the `unsafe` methods need the features of the
    /// implementing type's int8 form, and `load_int` its lanes readable.
    trait Quads: Lanes {
        /// Whether the dot product takes the biased input bytes, so that an
        /// accumulator starts at its column's offset (see [`QuantizedPanels`]).
        const BIASED: bool;
        /// Rows of a row-major register tile.
        const TILE_ROWS: usize;
        /// Vectors (of `WIDTH` columns) of a row-major register tile.
        const TILE_VECTORS: usize;
        /// Input quads as [`dot`](Self::dot) takes them.
        type Input: Copy;
        unsafe fn splat_int(v: i32) -> Self::Int;
        unsafe fn load_int(src: *const i32) -> Self::Int;
        unsafe fn store_int(v: Self::Int, dst: *mut i32);
        /// `v` in the lanes of `mask`, `other` elsewhere.
        fn select_int(v: Self::Int, mask: Self::Mask, other: Self::Int) -> Self::Int;
        /// Biased input quads (`qₓ + 128`) made ready for `dot`.
        fn input(quads: Self::Int) -> Self::Input;
        /// `acc` plus, per lane, the four products of `x`'s and `w`'s bytes.
        fn dot(acc: Self::Int, x: Self::Input, w: Self::Int) -> Self::Int;
    }

    /// Sixteen f32 lanes; a value exists only where AVX-512 F does.
    #[derive(Clone, Copy)]
    struct F32x16(__m512);

    /// Sixteen i32 lanes; a value exists only where AVX-512 F and VNNI do.
    #[derive(Clone, Copy)]
    struct I32x16(__m512i);

    impl Lanes for F32x16 {
        const WIDTH: usize = 16;
        type Mask = __mmask16;
        type Int = I32x16;
        #[inline(always)]
        unsafe fn zero() -> Self {
            F32x16(_mm512_setzero_ps())
        }
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            F32x16(_mm512_set1_ps(v))
        }
        #[inline(always)]
        unsafe fn load(src: *const f32) -> Self {
            F32x16(_mm512_loadu_ps(src))
        }
        #[inline(always)]
        unsafe fn store(self, dst: *mut f32) {
            _mm512_storeu_ps(dst, self.0)
        }
        #[inline(always)]
        unsafe fn prefix(count: usize) -> Self::Mask {
            ((1u32 << count) - 1) as __mmask16
        }
        #[inline(always)]
        unsafe fn load_where(mask: Self::Mask, src: *const f32) -> Self {
            F32x16(_mm512_maskz_loadu_ps(mask, src))
        }
        #[inline(always)]
        unsafe fn store_where(self, mask: Self::Mask, dst: *mut f32) {
            _mm512_mask_storeu_ps(dst, mask, self.0)
        }
        #[inline(always)]
        fn add(self, other: Self) -> Self {
            // SAFETY: `self` exists, so AVX-512 F does.
            unsafe { F32x16(_mm512_add_ps(self.0, other.0)) }
        }
        #[inline(always)]
        fn mul(self, other: Self) -> Self {
            // SAFETY: as `add`.
            unsafe { F32x16(_mm512_mul_ps(self.0, other.0)) }
        }
        #[inline(always)]
        fn fmadd(self, b: Self, c: Self) -> Self {
            // SAFETY: as `add`.
            unsafe { F32x16(_mm512_fmadd_ps(self.0, b.0, c.0)) }
        }
        #[inline(always)]
        fn fmadd_where(self, mask: Self::Mask, b: Self, c: Self) -> Self {
            // SAFETY: as `add`.
            unsafe { F32x16(_mm512_mask3_fmadd_ps(self.0, b.0, c.0, mask)) }
        }
        #[inline(always)]
        fn nonzero(self) -> Self::Mask {
            // SAFETY: as `add`.
            unsafe { _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(self.0, _mm512_setzero_ps()) }
        }
        #[inline(always)]
        fn greater(self, other: Self) -> Self::Mask {
            // SAFETY: as `add`.
            unsafe { _mm512_cmp_ps_mask::<_CMP_GT_OQ>(self.0, other.0) }
        }
        #[inline(always)]
        fn select(self, mask: Self::Mask, other: Self) -> Self {
            // SAFETY: as `add`.
            unsafe { F32x16(_mm512_mask_mov_ps(other.0, mask, self.0)) }
        }
        #[inline(always)]
        fn relu(self) -> Self {
            // SAFETY: as `add`.
            unsafe {
                let below = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(self.0, _mm512_setzero_ps());
                F32x16(_mm512_maskz_mov_ps(!below, self.0))
            }
        }
        #[inline(always)]
        fn from_int(v: I32x16) -> Self {
            // SAFETY: `v` exists, so AVX-512 F does.
            unsafe { F32x16(_mm512_cvtepi32_ps(v.0)) }
        }
    }

    /// The `vpdpbusd` form: 6 rows × 4 panels a tile, 24 accumulators + 4
    /// weight blocks + 1 broadcast of the 32 zmm registers, so one weight
    /// load serves 6 rows and one input broadcast serves 4 panels.
    impl Quads for F32x16 {
        const BIASED: bool = true;
        const TILE_ROWS: usize = 6;
        const TILE_VECTORS: usize = 4;
        type Input = I32x16;
        #[inline(always)]
        unsafe fn splat_int(v: i32) -> I32x16 {
            I32x16(_mm512_set1_epi32(v))
        }
        #[inline(always)]
        unsafe fn load_int(src: *const i32) -> I32x16 {
            I32x16(_mm512_loadu_si512(src.cast()))
        }
        #[inline(always)]
        unsafe fn store_int(v: I32x16, dst: *mut i32) {
            _mm512_storeu_si512(dst.cast(), v.0)
        }
        #[inline(always)]
        fn select_int(v: I32x16, mask: __mmask16, other: I32x16) -> I32x16 {
            // SAFETY: `v` exists, so AVX-512 F does.
            unsafe { I32x16(_mm512_mask_mov_epi32(other.0, mask, v.0)) }
        }
        #[inline(always)]
        fn input(quads: I32x16) -> I32x16 {
            quads
        }
        #[inline(always)]
        fn dot(acc: I32x16, x: I32x16, w: I32x16) -> I32x16 {
            // SAFETY: `acc` exists, so AVX-512 F and VNNI do.
            unsafe { I32x16(_mm512_dpbusd_epi32(acc.0, x.0, w.0)) }
        }
    }

    /// Eight f32 lanes; a value exists only where AVX2 and FMA do.
    #[derive(Clone, Copy)]
    struct F32x8(__m256);

    /// Eight i32 lanes; a value exists only where AVX2 and FMA do.
    #[derive(Clone, Copy)]
    struct I32x8(__m256i);

    impl Lanes for F32x8 {
        const WIDTH: usize = 8;
        type Mask = __m256;
        type Int = I32x8;
        #[inline(always)]
        unsafe fn zero() -> Self {
            F32x8(_mm256_setzero_ps())
        }
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            F32x8(_mm256_set1_ps(v))
        }
        #[inline(always)]
        unsafe fn load(src: *const f32) -> Self {
            F32x8(_mm256_loadu_ps(src))
        }
        #[inline(always)]
        unsafe fn store(self, dst: *mut f32) {
            _mm256_storeu_ps(dst, self.0)
        }
        #[inline(always)]
        unsafe fn prefix(count: usize) -> Self::Mask {
            let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            _mm256_castsi256_ps(_mm256_cmpgt_epi32(_mm256_set1_epi32(count as i32), lane))
        }
        #[inline(always)]
        unsafe fn load_where(mask: Self::Mask, src: *const f32) -> Self {
            F32x8(_mm256_maskload_ps(src, _mm256_castps_si256(mask)))
        }
        #[inline(always)]
        unsafe fn store_where(self, mask: Self::Mask, dst: *mut f32) {
            _mm256_maskstore_ps(dst, _mm256_castps_si256(mask), self.0)
        }
        #[inline(always)]
        fn add(self, other: Self) -> Self {
            // SAFETY: `self` exists, so AVX2 and FMA do.
            unsafe { F32x8(_mm256_add_ps(self.0, other.0)) }
        }
        #[inline(always)]
        fn mul(self, other: Self) -> Self {
            // SAFETY: as `add`.
            unsafe { F32x8(_mm256_mul_ps(self.0, other.0)) }
        }
        #[inline(always)]
        fn fmadd(self, b: Self, c: Self) -> Self {
            // SAFETY: as `add`.
            unsafe { F32x8(_mm256_fmadd_ps(self.0, b.0, c.0)) }
        }
        #[inline(always)]
        fn fmadd_where(self, mask: Self::Mask, b: Self, c: Self) -> Self {
            // SAFETY: as `add`.
            unsafe { F32x8(_mm256_blendv_ps(c.0, _mm256_fmadd_ps(self.0, b.0, c.0), mask)) }
        }
        #[inline(always)]
        fn nonzero(self) -> Self::Mask {
            // SAFETY: as `add`.
            unsafe { _mm256_cmp_ps::<_CMP_NEQ_UQ>(self.0, _mm256_setzero_ps()) }
        }
        #[inline(always)]
        fn greater(self, other: Self) -> Self::Mask {
            // SAFETY: as `add`.
            unsafe { _mm256_cmp_ps::<_CMP_GT_OQ>(self.0, other.0) }
        }
        #[inline(always)]
        fn select(self, mask: Self::Mask, other: Self) -> Self {
            // SAFETY: as `add`.
            unsafe { F32x8(_mm256_blendv_ps(other.0, self.0, mask)) }
        }
        #[inline(always)]
        fn relu(self) -> Self {
            // SAFETY: as `add`.
            unsafe {
                let below = _mm256_cmp_ps::<_CMP_LT_OQ>(self.0, _mm256_setzero_ps());
                F32x8(_mm256_andnot_ps(below, self.0))
            }
        }
        #[inline(always)]
        fn from_int(v: I32x8) -> Self {
            // SAFETY: `v` exists, so AVX2 does.
            unsafe { F32x8(_mm256_cvtepi32_ps(v.0)) }
        }
    }

    /// The AVX2 form: 4 rows × one panel's two halves a tile, so 4 rows share
    /// each pair of weight loads (8 accumulators of the 16 ymm registers).
    /// Also what an AVX-512 host without VNNI runs.
    impl Quads for F32x8 {
        const BIASED: bool = false;
        const TILE_ROWS: usize = 4;
        const TILE_VECTORS: usize = 2;
        /// The signed quads (`qₓ`) and their magnitudes.
        type Input = (__m256i, __m256i);
        #[inline(always)]
        unsafe fn splat_int(v: i32) -> I32x8 {
            I32x8(_mm256_set1_epi32(v))
        }
        #[inline(always)]
        unsafe fn load_int(src: *const i32) -> I32x8 {
            I32x8(_mm256_loadu_si256(src.cast()))
        }
        #[inline(always)]
        unsafe fn store_int(v: I32x8, dst: *mut i32) {
            _mm256_storeu_si256(dst.cast(), v.0)
        }
        #[inline(always)]
        fn select_int(v: I32x8, mask: __m256, other: I32x8) -> I32x8 {
            // SAFETY: `v` exists, so AVX2 does.
            unsafe { I32x8(_mm256_blendv_epi8(other.0, v.0, _mm256_castps_si256(mask))) }
        }
        #[inline(always)]
        fn input(quads: I32x8) -> (__m256i, __m256i) {
            // SAFETY: `quads` exists, so AVX2 does.
            unsafe {
                let signed = _mm256_xor_si256(quads.0, _mm256_set1_epi8(-128));
                (signed, _mm256_abs_epi8(signed))
            }
        }
        #[inline(always)]
        fn dot(acc: I32x8, (signed, magnitude): (__m256i, __m256i), w: I32x8) -> I32x8 {
            // SAFETY: `acc` exists, so AVX2 does.
            unsafe {
                let pairs = _mm256_maddubs_epi16(magnitude, _mm256_sign_epi8(w.0, signed));
                I32x8(_mm256_add_epi32(acc.0, _mm256_madd_epi16(pairs, _mm256_set1_epi16(1))))
            }
        }
    }

    /// `activation` over `y`'s lanes: ReLU in the register, sigmoid and tanh
    /// by the scalar recipe through memory.
    ///
    /// # Safety
    /// `V`'s CPU features.
    #[inline(always)]
    unsafe fn activate<V: Lanes>(y: V, activation: Activation) -> V {
        match activation {
            Activation::Linear => y,
            Activation::Relu => y.relu(),
            Activation::Sigmoid | Activation::Tanh => {
                let mut values = [0.0f32; LANES];
                y.store(values.as_mut_ptr());
                apply_scalar(activation, &mut values[..V::WIDTH]);
                V::load(values.as_ptr())
            }
        }
    }

    /// The scalar recipe of `activation` over one register's lanes, out of
    /// line, so that no form's loop holds the sigmoid.
    #[inline(never)]
    #[cold]
    fn apply_scalar(activation: Activation, values: &mut [f32]) {
        activation.apply_to(values);
    }

    /// Stores a finished register of output row `row` (the offset of its
    /// first column in `out`) from column `c` on, after `activation`: the
    /// columns short of `ld`, none when `c` is past it.
    ///
    /// # Safety
    /// `V`'s CPU features; `out` holds `row + ld` floats.
    #[inline(always)]
    unsafe fn store_tile<V: Lanes>(
        y: V,
        activation: Activation,
        out: &mut [f32],
        row: usize,
        c: usize,
        ld: usize,
    ) {
        if c >= ld {
            return;
        }
        let (y, dst) = (activate(y, activation), out.as_mut_ptr().add(row + c));
        match ld - c {
            cols if cols >= V::WIDTH => y.store(dst),
            cols => y.store_where(V::prefix(cols), dst),
        }
    }

    // -----------------------------------------------------------------------
    // The f32 forward.
    // -----------------------------------------------------------------------

    /// Rows of an f32 register tile: 4 rows share each load of the weights.
    const MR: usize = 4;

    /// Rows the f32 forward runs a pair of vectors' columns across before it
    /// takes the next pair: the panels stay in L1 while the block's rows
    /// (`256 × 141` floats, for the frozen benchmark's trunk) stream from L2.
    /// Walking every panel for each 4-row tile instead reads a layer wider
    /// than L1 — the 141 × 141 trunk layer's 9 panels are 81 KiB, the heads'
    /// 141 × 175 entry's 11 are 99 KiB — from L2 for every tile.  Scratch
    /// micro-benchmark, 2 048 rows, AVX-512, µs (best of 30, two rounds):
    /// 141 → 175 took 1 216–1 497 with the old order and 766–803 with blocks
    /// of 256 (512: 822–848, 1 024: 823–850, one block of every row:
    /// 863–1 273); 141 → 141 998–1 385 and 656–669; 141 → 141 over 96-row
    /// windows (the walk's chunks) 985–1 159 and 650–672.  The order moves no
    /// output: every column is its own chain.
    const FORWARD_BLOCK_ROWS: usize = 256;

    /// Rows `r..r+MR` against the `NV` vectors of columns from `c` on — one
    /// panel's halves on AVX2, two panels on AVX-512 — in `MR × NV`
    /// accumulators sharing each load of the weights.  Each output column is
    /// one bias-initialized FMA chain over `k`, the scalar recipe's.
    ///
    /// # Safety
    /// `V`'s CPU features; `c + NV · WIDTH` is at most the panels' padded
    /// width, rows `r..r+MR` are in `x`, and `out` holds them `ld` apart.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::needless_range_loop)] // kk indexes the rows and the panels in lockstep
    unsafe fn forward_tile<V: Lanes, const MR: usize, const NV: usize>(
        x: RowsView<'_>,
        panels: &PackedPanels,
        activation: Activation,
        out: &mut [f32],
        ld: usize,
        r: usize,
        c: usize,
    ) {
        let mut w = [std::ptr::null(); NV];
        let mut acc = [[V::zero(); NV]; MR];
        for v in 0..NV {
            let col = c + v * V::WIDTH;
            w[v] = panels.panel(col / LANES).as_ptr().add(col % LANES);
            let bias = V::load(panels.bias.as_ptr().add(col));
            for row in acc.iter_mut() {
                row[v] = bias;
            }
        }
        let mut rows: [&[f32]; MR] = [&[]; MR];
        for (j, row) in rows.iter_mut().enumerate() {
            *row = x.row(r + j);
        }
        for kk in 0..panels.k {
            let mut wk = [V::zero(); NV];
            for v in 0..NV {
                wk[v] = V::load(w[v].add(kk * LANES));
            }
            for j in 0..MR {
                let a = V::splat(rows[j][kk]);
                for v in 0..NV {
                    acc[j][v] = a.fmadd(wk[v], acc[j][v]);
                }
            }
        }
        for (j, tile) in acc.iter().enumerate() {
            for (v, &y) in tile.iter().enumerate() {
                store_tile(y, activation, out, (r + j) * ld, c + v * V::WIDTH, ld);
            }
        }
    }

    /// The f32 forward: two vectors' columns at a time (one at the edge)
    /// across a block of [`FORWARD_BLOCK_ROWS`] rows, `MR` at a time (single
    /// rows at the edge), before the next two.
    ///
    /// # Safety
    /// `V`'s CPU features; `x.k == panels.k` and `out` holds `x.count` rows
    /// `ld ≥ panels.n` apart (the entry point checks both).
    #[inline(always)]
    unsafe fn forward<V: Lanes>(
        x: RowsView<'_>,
        panels: &PackedPanels,
        activation: Activation,
        out: &mut [f32],
        ld: usize,
    ) {
        let padded = panels.panel_count() * LANES;
        for first in (0..x.count).step_by(FORWARD_BLOCK_ROWS) {
            let end = x.count.min(first + FORWARD_BLOCK_ROWS);
            for c in (0..padded).step_by(2 * V::WIDTH) {
                let pair = c + 2 * V::WIDTH <= padded;
                let mut r = first;
                while r < end {
                    let whole = r + MR <= end;
                    match (whole, pair) {
                        (true, true) => forward_tile::<V, MR, 2>(x, panels, activation, out, ld, r, c),
                        (true, false) => forward_tile::<V, MR, 1>(x, panels, activation, out, ld, r, c),
                        (false, true) => forward_tile::<V, 1, 2>(x, panels, activation, out, ld, r, c),
                        (false, false) => forward_tile::<V, 1, 1>(x, panels, activation, out, ld, r, c),
                    }
                    r += if whole { MR } else { 1 };
                }
            }
        }
    }

    /// [`forward`] in AVX2 + FMA: 2 × 4 ymm accumulators.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn forward_avx2(
        x: RowsView<'_>,
        panels: &PackedPanels,
        activation: Activation,
        out: &mut [f32],
        ld: usize,
    ) {
        forward::<F32x8>(x, panels, activation, out, ld);
    }

    /// [`forward`] in AVX-512: 2 × 4 zmm accumulators.
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512dq")]
    pub(super) unsafe fn forward_avx512(
        x: RowsView<'_>,
        panels: &PackedPanels,
        activation: Activation,
        out: &mut [f32],
        ld: usize,
    ) {
        forward::<F32x16>(x, panels, activation, out, ld);
    }

    // -----------------------------------------------------------------------
    // The AVX-512 helpers with no AVX2 form: the row quantizer, the logit
    // rows' argmax and the keys-in-lanes layout.
    // -----------------------------------------------------------------------

    /// `max |v|` over one row, 16 lanes at a time — two running maxima, so
    /// consecutive loads do not wait on each other.  The reduction is
    /// order-independent, so this is the scalar scan's value.
    #[inline(always)]
    unsafe fn row_amax_avx512(row: &[f32]) -> f32 {
        let (k, src) = (row.len(), row.as_ptr());
        let whole = k / 16 * 16;
        let tail = (1u16 << (k - whole)) - 1;
        let mut vmax = [
            _mm512_abs_ps(_mm512_maskz_loadu_ps(tail, src.add(whole))),
            _mm512_setzero_ps(),
        ];
        for i in (0..whole).step_by(16) {
            let v = _mm512_abs_ps(_mm512_loadu_ps(src.add(i)));
            vmax[i / 16 % 2] = _mm512_max_ps(vmax[i / 16 % 2], v);
        }
        _mm512_reduce_max_ps(_mm512_max_ps(vmax[0], vmax[1]))
    }

    /// Sixteen rows' `(min(127 / amax, f32::MAX), amax / 127)` in one `vdivps`
    /// each, an all-zero row's blended to `(0, 1.0)`: times a reciprocal of 0
    /// its values convert to `q = 0` like any other row's, so no `∞` or NaN
    /// reaches the conversion and the zero row needs no branch.
    #[inline(always)]
    unsafe fn row_scales_avx512(amax: __m512) -> (__m512, __m512) {
        let c127 = _mm512_set1_ps(127.0);
        let zero = _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(amax, _mm512_setzero_ps());
        let inv = _mm512_min_ps(_mm512_div_ps(c127, amax), _mm512_set1_ps(f32::MAX));
        let scale = _mm512_div_ps(amax, c127);
        (
            _mm512_maskz_mov_ps(!zero, inv),
            _mm512_mask_mov_ps(scale, zero, _mm512_set1_ps(1.0)),
        )
    }

    /// AVX-512 form of the input-row quantizer, over a whole window, in two
    /// phases: every row's amax (`vmaxps` scan and one reduction), parked in
    /// `scales`; then, sixteen rows at a time, their reciprocals and scales
    /// ([`row_scales_avx512`] — two divisions a group, not two a row behind a
    /// reduce → divide → broadcast chain) and the conversion
    /// `q = clamp(vcvtps2dq(v · inv), -127, 127)`, biased by 128 and narrowed
    /// to bytes with `vpmovdb`.  Bit-identical to the scalar recipe: the max
    /// reduction is order-independent, division and multiplication round
    /// identically, and `vcvtps2dq` is exactly `round_ties_even` (inputs are
    /// finite — they are activations).  Lanes past a row's end load as 0.0
    /// and so write its padding as `q = 0`; every store is a whole 16 bytes,
    /// running into the next row (quantized after it) or, for the last row,
    /// into the slack `bytes` must have past `rows.count * width`.
    #[target_feature(enable = "avx512f", enable = "avx512bw")]
    pub(super) unsafe fn quantize_rows_avx512(
        rows: RowsView<'_>,
        width: usize,
        bytes: &mut [u8],
        scales: &mut [f32],
    ) {
        assert!(bytes.len() >= rows.count * width + super::QROWS_SLACK);
        assert!(scales.len() >= rows.count && width == rows.k.div_ceil(4) * 4);
        let k = rows.k;
        let whole = k / 16 * 16;
        let tail = (1u16 << (k - whole)) - 1;
        let lo = _mm512_set1_epi32(-127);
        let hi = _mm512_set1_epi32(127);
        let bias = _mm512_set1_epi32(128);
        for (r, amax) in scales.iter_mut().enumerate().take(rows.count) {
            *amax = row_amax_avx512(rows.row(r));
        }
        for group in (0..rows.count).step_by(16) {
            let held = (rows.count - group).min(16);
            let live = ((1u32 << held) - 1) as u16;
            let at = scales.as_mut_ptr().add(group);
            // Rows past the window read as all-zero ones and are not stored.
            let (inv, scale) = row_scales_avx512(_mm512_maskz_loadu_ps(live, at));
            _mm512_mask_storeu_ps(at, live, scale);
            let mut invs = [0.0f32; 16];
            _mm512_storeu_ps(invs.as_mut_ptr(), inv);
            for (j, &inv) in invs.iter().enumerate().take(held) {
                let src = rows.row(group + j).as_ptr();
                let dst = bytes.as_mut_ptr().add((group + j) * width);
                let vinv = _mm512_set1_ps(inv);
                for i in (0..width).step_by(16) {
                    // `width` is `k` rounded up to 4, so `i < k` here.
                    let mask = if i < whole { 0xFFFF } else { tail };
                    let v = _mm512_maskz_loadu_ps(mask, src.add(i));
                    let q = _mm512_min_epi32(
                        _mm512_max_epi32(_mm512_cvtps_epi32(_mm512_mul_ps(v, vinv)), lo),
                        hi,
                    );
                    let narrow = _mm512_cvtepi32_epi8(_mm512_add_epi32(q, bias));
                    _mm_storeu_si128(dst.add(i) as *mut __m128i, narrow);
                }
            }
        }
    }

    /// [`crate::tensor::argmax`] 16 lanes at a time: the running maximum
    /// (`vmaxps` with the loaded lanes as its *first* source returns the
    /// second, the running one, when a loaded lane is NaN — so NaNs never
    /// enter it), one reduction, then the first lane equal to it.  Lanes past
    /// the row's end load as `-∞` and are masked out of the comparison.
    #[inline(always)]
    unsafe fn argmax_avx512(row: &[f32]) -> usize {
        let (n, src) = (row.len(), row.as_ptr());
        let whole = n / LANES * LANES;
        let tail = (1u16 << (n - whole)) - 1;
        let floor = _mm512_set1_ps(f32::NEG_INFINITY);
        let mut best = _mm512_max_ps(_mm512_mask_loadu_ps(floor, tail, src.add(whole)), floor);
        for i in (0..whole).step_by(LANES) {
            best = _mm512_max_ps(_mm512_loadu_ps(src.add(i)), best);
        }
        let top = _mm512_reduce_max_ps(best);
        if top == f32::NEG_INFINITY {
            // Nothing compares above the scalar loop's starting point.
            return 0;
        }
        let top = _mm512_set1_ps(top);
        for i in (0..whole).step_by(LANES) {
            let hit = _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(_mm512_loadu_ps(src.add(i)), top);
            if hit != 0 {
                return i + hit.trailing_zeros() as usize;
            }
        }
        let last = _mm512_maskz_loadu_ps(tail, src.add(whole));
        let hit = _mm512_mask_cmp_ps_mask::<_CMP_EQ_OQ>(tail, last, top);
        whole + hit.trailing_zeros() as usize
    }

    /// [`argmax_avx512`] of every row, row `i`'s to `out[i * stride]`.
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512dq")]
    pub(super) unsafe fn argmax_rows_avx512(rows: RowsView<'_>, out: &mut [u32], stride: usize) {
        for i in 0..rows.count {
            out[i * stride] = argmax_avx512(rows.row(i)) as u32;
        }
    }

    /// [`QuantizedRows::lay_out_lanes`](super::QuantizedRows) over AVX-512:
    /// per group and quad, one gather of the sixteen rows' quads (`kquads`
    /// i32 apart), the lanes past the last row masked to `0x80`.
    ///
    /// # Safety
    /// AVX-512 F must be available.  `rows` is whole rows of `kquads` quads
    /// and `lanes` holds a group's `kquads` blocks for each (both asserted),
    /// so every gathered lane and every store is inside them.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn lay_out_lanes_avx512(rows: &[u8], kquads: usize, lanes: &mut [u8]) {
        let count = rows.len() / (kquads * 4).max(1);
        assert!(rows.len() == count * kquads * 4 && lanes.len() >= count.div_ceil(LANE_KEYS) * kquads * QBLOCK);
        let index = _mm512_mullo_epi32(
            _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
            _mm512_set1_epi32(kquads as i32),
        );
        let cold = _mm512_set1_epi8(0x80u8 as i8);
        for r in (0..count).step_by(LANE_KEYS) {
            let live = ((1u32 << (count - r).min(LANE_KEYS)) - 1) as u16;
            let src = rows.as_ptr().add(r * kquads * 4) as *const i32;
            let dst = lanes.as_mut_ptr().add(r / LANE_KEYS * kquads * QBLOCK);
            for g in 0..kquads {
                let quads = _mm512_mask_i32gather_epi32::<4>(cold, live, index, src.add(g).cast());
                _mm512_storeu_si512(dst.add(g * QBLOCK).cast(), quads);
            }
        }
    }

    // -----------------------------------------------------------------------
    // The int8 forward, row-major.
    // -----------------------------------------------------------------------

    /// Rows `r..r+MR` of the input bytes against the `NV` vectors of columns
    /// from `c` on, in `MR × NV` accumulators: per k-quad, one load of each
    /// vector's weights serves the `MR` rows and one broadcast of a row's
    /// quad serves the `NV` vectors.  Then the fixed f32 epilogue
    /// `act(fma(cvt(acc), x_scale · w_scale, bias))`, stored.
    ///
    /// # Safety
    /// `V`'s int8 CPU features; `c + NV · WIDTH` is at most the panels'
    /// padded width, `bytes` and `xscales` hold rows `r..r+MR` and `out`
    /// holds them `ld` apart.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn quantized_tile<V: Quads, const MR: usize, const NV: usize>(
        bytes: &[u8],
        xscales: &[f32],
        panels: &QuantizedPanels,
        activation: Activation,
        out: &mut [f32],
        ld: usize,
        r: usize,
        c: usize,
    ) {
        let kquads = panels.kquads;
        let x = bytes.as_ptr().add(r * kquads * 4) as *const i32;
        let mut w = [std::ptr::null(); NV];
        let mut acc = [[V::splat_int(0); NV]; MR];
        for v in 0..NV {
            let col = c + v * V::WIDTH;
            w[v] = panels.data.as_ptr().add(col / QLANES * kquads * QBLOCK + 4 * (col % QLANES));
            if V::BIASED {
                let offsets = V::load_int(panels.offsets.as_ptr().add(col));
                for row in acc.iter_mut() {
                    row[v] = offsets;
                }
            }
        }
        for g in 0..kquads {
            let mut wq = [V::splat_int(0); NV];
            for v in 0..NV {
                wq[v] = V::load_int(w[v].add(g * QBLOCK).cast());
            }
            for (i, row) in acc.iter_mut().enumerate() {
                let xq = V::input(V::splat_int(x.add(i * kquads + g).read_unaligned()));
                for v in 0..NV {
                    row[v] = V::dot(row[v], xq, wq[v]);
                }
            }
        }
        for (i, row) in acc.iter().enumerate() {
            let xs = V::splat(xscales[r + i]);
            for (v, &a) in row.iter().enumerate() {
                let col = c + v * V::WIDTH;
                let m = xs.mul(V::load(panels.scales.as_ptr().add(col)));
                let y = V::from_int(a).fmadd(m, V::load(panels.bias.as_ptr().add(col)));
                store_tile(y, activation, out, (r + i) * ld, col, ld);
            }
        }
    }

    /// Rows `r..r+MR` against every column, `V::TILE_VECTORS` vectors at a
    /// time (fewer at the edge).
    ///
    /// # Safety
    /// As [`quantized_tile`].
    #[inline(always)]
    unsafe fn quantized_rows<V: Quads, const MR: usize>(
        bytes: &[u8],
        xscales: &[f32],
        panels: &QuantizedPanels,
        activation: Activation,
        out: &mut [f32],
        ld: usize,
        r: usize,
    ) {
        let padded = panels.panel_count() * QLANES;
        let mut c = 0;
        while c < padded {
            let vectors = ((padded - c) / V::WIDTH).min(V::TILE_VECTORS);
            match vectors {
                4 => quantized_tile::<V, MR, 4>(bytes, xscales, panels, activation, out, ld, r, c),
                3 => quantized_tile::<V, MR, 3>(bytes, xscales, panels, activation, out, ld, r, c),
                2 => quantized_tile::<V, MR, 2>(bytes, xscales, panels, activation, out, ld, r, c),
                _ => quantized_tile::<V, MR, 1>(bytes, xscales, panels, activation, out, ld, r, c),
            }
            c += vectors * V::WIDTH;
        }
    }

    /// The int8 forward: `V::TILE_ROWS` rows at a time (the rest at the end)
    /// against every column.
    ///
    /// # Safety
    /// `V`'s int8 CPU features; `bytes` holds `xscales.len()` rows of
    /// `panels.kquads` quads and `out` holds them `ld ≥ panels.n` apart (the
    /// entry point checks both).
    #[inline(always)]
    unsafe fn forward_quantized<V: Quads>(
        bytes: &[u8],
        xscales: &[f32],
        panels: &QuantizedPanels,
        activation: Activation,
        out: &mut [f32],
        ld: usize,
    ) {
        const { assert!(V::TILE_ROWS <= 6 && V::TILE_VECTORS <= 4) };
        let count = xscales.len();
        let mut r = 0;
        while r < count {
            let rows = (count - r).min(V::TILE_ROWS);
            match rows {
                6 => quantized_rows::<V, 6>(bytes, xscales, panels, activation, out, ld, r),
                5 => quantized_rows::<V, 5>(bytes, xscales, panels, activation, out, ld, r),
                4 => quantized_rows::<V, 4>(bytes, xscales, panels, activation, out, ld, r),
                3 => quantized_rows::<V, 3>(bytes, xscales, panels, activation, out, ld, r),
                2 => quantized_rows::<V, 2>(bytes, xscales, panels, activation, out, ld, r),
                _ => quantized_rows::<V, 1>(bytes, xscales, panels, activation, out, ld, r),
            }
            r += rows;
        }
    }

    /// [`forward_quantized`] with `vpdpbusd`: 64 int8 products an instruction.
    #[target_feature(
        enable = "avx512f",
        enable = "avx512bw",
        enable = "avx512dq",
        enable = "avx512vnni"
    )]
    pub(super) unsafe fn forward_quantized_vnni(
        bytes: &[u8],
        xscales: &[f32],
        panels: &QuantizedPanels,
        activation: Activation,
        out: &mut [f32],
        ld: usize,
    ) {
        forward_quantized::<F32x16>(bytes, xscales, panels, activation, out, ld);
    }

    /// [`forward_quantized`] with AVX2's sign-transfer dot product.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn forward_quantized_avx2(
        bytes: &[u8],
        xscales: &[f32],
        panels: &QuantizedPanels,
        activation: Activation,
        out: &mut [f32],
        ld: usize,
    ) {
        forward_quantized::<F32x8>(bytes, xscales, panels, activation, out, ld);
    }

    // -----------------------------------------------------------------------
    // Keys in lanes: an output layer's argmax in its epilogue.
    //
    // A column of the layer is one register of `WIDTH` keys' exact sums (a
    // group of sixteen keys, or half of one); its epilogue is the row-major
    // one lane for lane — the same product `x_scale · w_scale`, the same
    // `fma` — and each head keeps, per lane, its best value so far and that
    // value's class.
    // -----------------------------------------------------------------------

    /// [`super::argmax_prequantized`] with the keys in lanes: per `W` keys
    /// (the last ones masked) and per `W` columns, `W` accumulators — one a
    /// column, started at its offset where the dot product wants one — and
    /// per k-quad one load of the keys' quads against one broadcast of each
    /// column's; then the columns in order through the epilogue into the
    /// heads' running argmax.  A column replaces a lane's best value and
    /// class where it compares ordered-greater (`>`: a tie keeps the lower
    /// class, a NaN never wins, `-∞` never beats the `-∞` a head starts from,
    /// whose class is 0).  A head's classes go out when the columns leave it.
    ///
    /// Each match arm passes its activation as a constant, so each inlined
    /// copy of the column loop holds its own epilogue and no branch on it.
    ///
    /// # Safety
    /// `V`'s int8 CPU features and `W == V::WIDTH`; `lanes` holds every group
    /// of `xscales.len()` rows laid out (asserted), the heads cover the
    /// panels' columns and `out` has room for every row's heads `stride`
    /// apart (the entry point checks both; the writes are checked indexing).
    #[inline(always)]
    unsafe fn argmax_quantized<V: Quads, const W: usize>(
        lanes: &[u8],
        xscales: &[f32],
        panels: &QuantizedPanels,
        activation: Activation,
        heads: &[usize],
        out: &mut [u32],
        stride: usize,
    ) {
        assert!(lanes.len() >= xscales.len().div_ceil(LANE_KEYS) * panels.kquads * QBLOCK);
        let body = argmax_lanes::<V, W>;
        match activation {
            Activation::Linear => body(lanes, xscales, panels, Activation::Linear, heads, out, stride),
            Activation::Relu => body(lanes, xscales, panels, Activation::Relu, heads, out, stride),
            other => body(lanes, xscales, panels, other, heads, out, stride),
        }
    }

    /// The body of [`argmax_quantized`].
    ///
    /// # Safety
    /// As [`argmax_quantized`], which it is inlined into.
    #[inline(always)]
    unsafe fn argmax_lanes<V: Quads, const W: usize>(
        lanes: &[u8],
        xscales: &[f32],
        panels: &QuantizedPanels,
        activation: Activation,
        heads: &[usize],
        out: &mut [u32],
        stride: usize,
    ) {
        const { assert!(W == V::WIDTH) };
        let count = xscales.len();
        let (kquads, n) = (panels.kquads, panels.n);
        for r in (0..count).step_by(W) {
            let live = (count - r).min(W);
            let x = lanes.as_ptr().add(r / LANE_KEYS * kquads * QBLOCK + r % LANE_KEYS * 4);
            let xs = V::load_where(V::prefix(live), xscales.as_ptr().add(r));
            let (mut head, mut start, mut end) = (0, 0, heads[0]);
            let (mut best, mut class) = (V::splat(f32::NEG_INFINITY), V::splat_int(0));
            for c0 in (0..n).step_by(W) {
                let w = panels.data.as_ptr().add(c0 / QLANES * kquads * QBLOCK + 4 * (c0 % QLANES));
                let mut acc = [V::splat_int(0); W];
                if V::BIASED {
                    let offsets = panels.offsets.as_ptr().add(c0);
                    for (c, a) in acc.iter_mut().enumerate() {
                        *a = V::splat_int(*offsets.add(c));
                    }
                }
                for g in 0..kquads {
                    let xg = V::input(V::load_int(x.add(g * QBLOCK).cast()));
                    let wg = w.add(g * QBLOCK) as *const i32;
                    for (c, a) in acc.iter_mut().enumerate() {
                        *a = V::dot(*a, xg, V::splat_int(wg.add(c).read_unaligned()));
                    }
                }
                for (c, &a) in acc.iter().enumerate().take(n - c0) {
                    let col = c0 + c;
                    let m = xs.mul(V::splat(panels.scales[col]));
                    let y = activate(V::from_int(a).fmadd(m, V::splat(panels.bias[col])), activation);
                    while col >= end {
                        emit_classes::<V>(class, out, r, live, stride, head);
                        (best, class) = (V::splat(f32::NEG_INFINITY), V::splat_int(0));
                        head += 1;
                        (start, end) = (end, end + heads[head]);
                    }
                    let gt = y.greater(best);
                    best = y.select(gt, best);
                    class = V::select_int(V::splat_int((col - start) as i32), gt, class);
                }
            }
            // The head the columns ended in, and any empty heads after it.
            emit_classes::<V>(class, out, r, live, stride, head);
            for later in head + 1..heads.len() {
                emit_classes::<V>(V::splat_int(0), out, r, live, stride, later);
            }
        }
    }

    /// Writes head `head`'s classes of the keys from row `first` on: the
    /// first `live` lanes of `class`.
    ///
    /// # Safety
    /// `V`'s CPU features; the writes are checked indexing.
    #[inline(always)]
    unsafe fn emit_classes<V: Quads>(
        class: V::Int,
        out: &mut [u32],
        first: usize,
        live: usize,
        stride: usize,
        head: usize,
    ) {
        let mut classes = [0u32; LANES];
        V::store_int(class, classes.as_mut_ptr().cast());
        for (key, &class) in classes.iter().enumerate().take(live) {
            out[(first + key) * stride + head] = class;
        }
    }

    /// [`argmax_quantized`] with `vpdpbusd`, sixteen keys a group.
    #[target_feature(
        enable = "avx512f",
        enable = "avx512bw",
        enable = "avx512dq",
        enable = "avx512vnni"
    )]
    pub(super) unsafe fn argmax_quantized_vnni(
        lanes: &[u8],
        xscales: &[f32],
        panels: &QuantizedPanels,
        activation: Activation,
        heads: &[usize],
        out: &mut [u32],
        stride: usize,
    ) {
        argmax_quantized::<F32x16, 16>(lanes, xscales, panels, activation, heads, out, stride);
    }

    /// [`argmax_quantized`] with AVX2's sign-transfer dot product, eight keys
    /// (half a group) at a time.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn argmax_quantized_avx2(
        lanes: &[u8],
        xscales: &[f32],
        panels: &QuantizedPanels,
        activation: Activation,
        heads: &[usize],
        out: &mut [u32],
        stride: usize,
    ) {
        argmax_quantized::<F32x8, 8>(lanes, xscales, panels, activation, heads, out, stride);
    }

    // -----------------------------------------------------------------------
    // The gradient kernels: `dy · Wᵀ` and `xᵀ · dy`.
    // -----------------------------------------------------------------------

    /// Adds neighbours until one is left: over lane sums in [`LANE_ORDER`]
    /// (or the sums of aligned runs of them) this is the fixed tree of
    /// [`super::reduce_lanes`].
    #[inline(always)]
    fn fold_neighbours<V: Lanes, const N: usize>(mut v: [V; N]) -> V {
        let mut len = N;
        while len > 1 {
            len /= 2;
            for i in 0..len {
                v[i] = v[2 * i].add(v[2 * i + 1]);
            }
        }
        v[0]
    }

    /// `R` rows × `V::WIDTH` adjacent outputs of `dy · Wᵀ`: the sixteen lane
    /// sums of each row in `RUNS` passes of `L` lanes (`RUNS · L = 16`,
    /// `R · L` accumulator registers), every vector of the transposed panel
    /// loaded once for the `R` rows.  `rows` point at the `n` values of `dy`
    /// rows this part reads; `w` is the block's first vector (offset by the
    /// half, for 8-lane registers).
    ///
    /// In the last panel the reference multiplies `0 · 0` into every lane past
    /// `n`: `sum + 0.0`, which is `sum` unless that is `-0.0`.  A sum of two
    /// terms is `-0.0` only when both are, so `(a + 0.0) + b` and
    /// `(a + 0.0) + (b + 0.0)` are both `(a + b) + 0.0`, and by induction up
    /// the tree the `+ 0.0` of any number of padded lanes is one `+ 0.0` at
    /// the root — which is where it is added, once.
    ///
    /// # Safety
    ///
    /// `V`'s CPU features; each of `rows` readable for `n` floats; `w`
    /// readable for `n.div_ceil(16) * 256 - (offset into the first vector)`
    /// floats, i.e. one output block of [`PackedPanels::transposed`].
    #[inline(always)]
    #[allow(clippy::needless_range_loop)] // run and q index the tile and name a lane of the tree
    unsafe fn wt_tile<V: Lanes, const R: usize, const L: usize, const RUNS: usize>(
        rows: [*const f32; R],
        n: usize,
        w: *const f32,
    ) -> [V; R] {
        debug_assert_eq!(L * RUNS, LANES);
        let (whole, edge) = (n / LANES, n % LANES);
        let mut runs = [[V::zero(); RUNS]; R];
        for run in 0..RUNS {
            let mut acc = [[V::zero(); L]; R];
            for p in 0..whole + usize::from(edge > 0) {
                for q in 0..L {
                    let at = run * L + q;
                    if p == whole && LANE_ORDER[at] >= edge {
                        continue;
                    }
                    let wv = V::load(w.add((p * LANES + at) * LANES));
                    for r in 0..R {
                        let x = *rows[r].add(p * LANES + LANE_ORDER[at]);
                        acc[r][q] = V::splat(x).fmadd(wv, acc[r][q]);
                    }
                }
            }
            for r in 0..R {
                runs[r][run] = fold_neighbours(acc[r]);
            }
        }
        std::array::from_fn(|r| {
            let sum = fold_neighbours(runs[r]);
            if edge > 0 {
                sum.add(V::zero())
            } else {
                sum
            }
        })
    }

    /// Rows of `dy` that [`matmul_wt`] runs against every output block before
    /// it takes the next rows: they (`32 × n` floats) and a block's vectors
    /// (`panels × 1 KiB`) sit in L1 together, so `dy` comes from L2 once and
    /// the transposed weights once per chunk.  Worth little — over five
    /// alternating runs of the frozen benchmark's shapes `dy · Wᵀ` took 1.10 –
    /// 1.25 × the forward pass's time with it (mean 1.16) and 1.20 – 1.26 ×
    /// (mean 1.23) with all rows against one block at a time; 8 … 128 rows
    /// measured alike.
    const WT_CHUNK_ROWS: usize = 32;

    /// `Σₕ dyₕ · Wₕᵀ` in `R`-row tiles (see [`wt_tile`]) over chunks of
    /// [`WT_CHUNK_ROWS`] rows: per tile, each part's sums in turn, added to
    /// the parts' before it (to `+0.0` first, with `from_zero`) and stored
    /// once.
    ///
    /// # Safety
    ///
    /// `V`'s CPU features; `parts` is not empty and agrees on `k`, `dy` is
    /// their `n`s wide, and `out` holds `dy.rows() * k` floats
    /// ([`super::matmul_wt`] checks the shapes and allocates `out`).
    #[inline(always)]
    unsafe fn matmul_wt<V: Lanes, const R: usize, const L: usize, const RUNS: usize>(
        dy: &Matrix,
        parts: &[&PackedPanels],
        from_zero: bool,
        out: &mut [f32],
    ) {
        let (rows, k, ld) = (dy.rows(), parts[0].k, dy.cols());
        // Per part: its first `dy` column, its width, the transposed layout
        // and one output block's length in it.
        let mut at = 0;
        let parts: Vec<(usize, usize, *const f32, usize)> = parts
            .iter()
            .map(|wt| {
                at += wt.n;
                (
                    at - wt.n,
                    wt.n,
                    wt.transposed().as_ptr(),
                    wt.panel_count() * LANES * LANES,
                )
            })
            .collect();
        let dy = dy.as_slice().as_ptr();
        for first in (0..rows).step_by(WT_CHUNK_ROWS) {
            let end = (first + WT_CHUNK_ROWS).min(rows);
            for at in (0..k).step_by(V::WIDTH) {
                let live = V::prefix(V::WIDTH.min(k - at));
                for r in (first..end).step_by(R) {
                    let mut total = [V::zero(); R];
                    for (h, &(column, n, wt, block)) in parts.iter().enumerate() {
                        let w = wt.add(at / LANES * block + at % LANES);
                        // A tile hanging over the chunk's end reads its last
                        // row again and drops the sums.
                        let rows =
                            std::array::from_fn(|j| dy.add((r + j).min(end - 1) * ld + column));
                        let sums = wt_tile::<V, R, L, RUNS>(rows, n, w);
                        for (sum, part) in total.iter_mut().zip(sums) {
                            *sum = if h == 0 && !from_zero {
                                part
                            } else {
                                sum.add(part)
                            };
                        }
                    }
                    for (j, sum) in total.into_iter().enumerate().take(end - r) {
                        sum.store_where(live, out.as_mut_ptr().add((r + j) * k + at));
                    }
                }
            }
        }
    }

    /// 4 rows × 4 lanes: sixteen zmm accumulators, four passes.
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512dq")]
    pub(super) unsafe fn matmul_wt_avx512(
        dy: &Matrix,
        parts: &[&PackedPanels],
        from_zero: bool,
        out: &mut [f32],
    ) {
        matmul_wt::<F32x16, 4, 4, 4>(dy, parts, from_zero, out);
    }

    /// 2 rows × 4 lanes over each 8-output half: eight ymm accumulators.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn matmul_wt_avx2(
        dy: &Matrix,
        parts: &[&PackedPanels],
        from_zero: bool,
        out: &mut [f32],
    ) {
        matmul_wt::<F32x8, 2, 4, 4>(dy, parts, from_zero, out);
    }

    /// Rows of `lhs` and `rhs` that [`transpose_matmul`] runs every tile over
    /// before it moves on: a block of both (`2 × 512 × 141` floats for the
    /// widest layer of the frozen benchmark's model) stays in L2 while the
    /// tiles sweep it, where a 2 048-row batch of both does not.  Over the
    /// benchmark's shapes `xᵀ · dy` took 0.76 – 0.83 × the forward pass's time
    /// with blocks of 128, 256, 512 or 1 024 rows (three runs each, alike) and
    /// 0.89 – 0.93 × with the whole batch as one.
    const XT_BLOCK_ROWS: usize = 512;

    /// `MI` vectors of `lhs` columns × `NJ` columns of `rhs` over the rows
    /// `[first, first + count)`: `MI · NJ` accumulator registers held across
    /// the row loop, lane `l` of `acc[v][t]` the chain of output
    /// `(i0 + v·WIDTH + l, j0 + t)`.  The vectors run along `lhs`'s columns so
    /// that the recipe's skip is one compare per `lhs` vector and a masked FMA
    /// — a lane whose `lhs` value is zero keeps its sum, bit for bit.  The
    /// chains start from, and end in, `sums` (the output transposed: row `j`,
    /// `ld` floats, holds column `j`), so a block of rows carries on exactly
    /// where the block before stopped.  Columns of `rhs` past the last one
    /// repeat it, into rows of `sums` nobody reads.
    ///
    /// # Safety
    ///
    /// `V`'s CPU features; `lhs` and `rhs` have at least `first + count` rows;
    /// `i0 < lhs.cols()` with at least `MI` vectors' worth of columns from it
    /// on (the last may be partial); `j0 < rhs.cols()`; `sums` holds
    /// `(j0 + NJ) * ld` floats with `ld ≥ i0 + MI * V::WIDTH`.
    #[inline(always)]
    #[allow(clippy::needless_range_loop)] // v and t index the tile, its operands and its place in `sums`
    unsafe fn xt_dy_tile<V: Lanes, const MI: usize, const NJ: usize>(
        lhs: &Matrix,
        rhs: &Matrix,
        (first, count): (usize, usize),
        (sums, ld): (*mut f32, usize),
        (i0, j0): (usize, usize),
    ) {
        let (m, n) = (lhs.cols(), rhs.cols());
        let within: [V::Mask; MI] =
            std::array::from_fn(|v| V::prefix(V::WIDTH.min(m - i0 - v * V::WIDTH)));
        let column: [usize; NJ] = std::array::from_fn(|t| (j0 + t).min(n - 1));
        let at = |v: usize, t: usize| sums.add((j0 + t) * ld + i0 + v * V::WIDTH);
        let mut acc: [[V; NJ]; MI] =
            std::array::from_fn(|v| std::array::from_fn(|t| V::load(at(v, t))));
        let mut x = lhs.as_slice().as_ptr().add(first * m + i0);
        let mut dy = rhs.as_slice().as_ptr().add(first * n);
        for _ in 0..count {
            let xv: [V; MI] = std::array::from_fn(|v| V::load_where(within[v], x.add(v * V::WIDTH)));
            let live: [V::Mask; MI] = std::array::from_fn(|v| xv[v].nonzero());
            for t in 0..NJ {
                let b = V::splat(*dy.add(column[t]));
                for v in 0..MI {
                    acc[v][t] = xv[v].fmadd_where(live[v], b, acc[v][t]);
                }
            }
            x = x.add(m);
            dy = dy.add(n);
        }
        for v in 0..MI {
            for t in 0..NJ {
                acc[v][t].store(at(v, t));
            }
        }
    }

    /// `xᵀ · dy` in tiles of up to 3 vectors × `NJ` columns (see
    /// [`xt_dy_tile`]) over blocks of [`XT_BLOCK_ROWS`] rows.
    ///
    /// # Safety
    ///
    /// `V`'s CPU features; `lhs` and `rhs` have the same row count and `out`
    /// holds `lhs.cols() * rhs.cols()` floats ([`super::transpose_matmul`]
    /// checks the first and allocates the second).
    #[inline(always)]
    unsafe fn transpose_matmul<V: Lanes, const NJ: usize>(lhs: &Matrix, rhs: &Matrix, out: &mut [f32]) {
        let (m, n) = (lhs.cols(), rhs.cols());
        let ld = m.next_multiple_of(V::WIDTH);
        let mut sums = vec![0.0f32; n.next_multiple_of(NJ) * ld];
        let sums_at = (sums.as_mut_ptr(), ld);
        for first in (0..lhs.rows()).step_by(XT_BLOCK_ROWS) {
            let block = (first, XT_BLOCK_ROWS.min(lhs.rows() - first));
            let mut i0 = 0;
            while i0 < m {
                let vectors = (m - i0).div_ceil(V::WIDTH).min(3);
                for j0 in (0..n).step_by(NJ) {
                    match vectors {
                        3 => xt_dy_tile::<V, 3, NJ>(lhs, rhs, block, sums_at, (i0, j0)),
                        2 => xt_dy_tile::<V, 2, NJ>(lhs, rhs, block, sums_at, (i0, j0)),
                        _ => xt_dy_tile::<V, 1, NJ>(lhs, rhs, block, sums_at, (i0, j0)),
                    }
                }
                i0 += vectors * V::WIDTH;
            }
        }
        for (i, out_row) in out.chunks_exact_mut(n.max(1)).enumerate() {
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = sums[j * ld + i];
            }
        }
    }

    /// Up to 3 vectors × 8 columns: twenty-four zmm accumulators.
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512dq")]
    pub(super) unsafe fn transpose_matmul_avx512(lhs: &Matrix, rhs: &Matrix, out: &mut [f32]) {
        transpose_matmul::<F32x16, 8>(lhs, rhs, out);
    }

    /// Up to 3 vectors × 2 columns: six ymm accumulators beside the three
    /// vectors of `lhs` and their three masks.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn transpose_matmul_avx2(lhs: &Matrix, rhs: &Matrix, out: &mut [f32]) {
        transpose_matmul::<F32x8, 2>(lhs, rhs, out);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Deterministic pseudo-random fill that exercises signs, zeros and
    /// magnitudes without a PRNG dependency.
    fn fill(rows: usize, cols: usize, salt: u64) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let h = (r as u64 * 31 + c as u64 * 7 + salt).wrapping_mul(0x9E3779B97F4A7C15);
                let v = ((h >> 40) as i32 % 1000) as f32 / 250.0 - 2.0;
                m.set(r, c, if h.is_multiple_of(5) { 0.0 } else { v });
            }
        }
        m
    }

    fn reference_forward(
        x: &Matrix,
        w: &Matrix,
        b: &Matrix,
        act: Activation,
    ) -> Matrix {
        let mut z = x.matmul(w).unwrap();
        z.add_row_broadcast(b).unwrap();
        act.apply_in_place(&mut z);
        z
    }

    fn assert_close(a: &Matrix, b: &Matrix) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for (&x, &y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|f| f.to_bits()).collect()
    }

    fn both_kernels() -> Vec<Kernel> {
        vec![Kernel::Scalar, Kernel::Vector]
    }

    #[test]
    fn pack_lays_out_panels_with_zero_padding() {
        let w = fill(3, 18, 1);
        let b = fill(1, 18, 2);
        let panels = PackedPanels::pack(&w, Some(&b)).unwrap();
        assert_eq!(panels.k(), 3);
        assert_eq!(panels.n(), 18);
        assert_eq!(panels.panel_count(), 2);
        assert!(panels.bytes() > 0);
        // Panel 0, row 1, lane 3 is weight[1][3]; panel 1, row 2, lane 1 is
        // weight[2][17]; padding lanes are zero.
        assert_eq!(panels.panel(0)[LANES + 3], w.get(1, 3));
        assert_eq!(panels.panel(1)[2 * LANES + 1], w.get(2, 17));
        for lane in 2..LANES {
            assert_eq!(panels.panel(1)[2 * LANES + lane], 0.0);
            assert_eq!(panels.bias_panel(1)[lane], 0.0);
        }
        assert_eq!(panels.bias_panel(1)[1], b.get(0, 17));
    }

    #[test]
    fn pack_rejects_mismatched_bias() {
        let w = Matrix::zeros(3, 4);
        let bad = Matrix::zeros(1, 5);
        assert!(PackedPanels::pack(&w, Some(&bad)).is_err());
    }

    /// The packed forward kernel must agree with the textbook matmul + bias +
    /// activation across every m/n/k remainder class of the lane and panel
    /// widths — including empty and single-row inputs.
    #[test]
    fn forward_packed_matches_reference_across_remainders() {
        for kernel in both_kernels() {
            for &m in &[0usize, 1, 3, 4, 5, 9] {
                for &k in &[1usize, 4, 7, 8, 9, 17] {
                    for &n in &[1usize, 7, 8, 15, 16, 17, 31, 32, 35] {
                        for act in [Activation::Linear, Activation::Relu, Activation::Tanh] {
                            let x = fill(m, k, 3);
                            let w = fill(k, n, 4);
                            let b = fill(1, n, 5);
                            let panels = PackedPanels::pack(&w, Some(&b)).unwrap();
                            let got =
                                with_forced(kernel, || forward_packed(&x, 0, m, &panels, act)).unwrap();
                            let expected = reference_forward(&x, &w, &b, act);
                            assert_close(&got, &expected);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn forward_packed_row_windows_match_full_pass() {
        let x = fill(10, 9, 6);
        let w = fill(9, 18, 7);
        let b = fill(1, 18, 8);
        let panels = PackedPanels::pack(&w, Some(&b)).unwrap();
        let full = forward_packed(&x, 0, 10, &panels, Activation::Relu).unwrap();
        for start in 0..10 {
            for count in 0..=(10 - start) {
                let window =
                    forward_packed(&x, start, count, &panels, Activation::Relu).unwrap();
                for r in 0..count {
                    assert_eq!(window.row(r), full.row(start + r), "window [{start}; {count})");
                }
            }
        }
        assert!(forward_packed(&x, 8, 3, &panels, Activation::Relu).is_err());
        let wrong_k = fill(4, 8, 1);
        assert!(forward_packed(&wrong_k, 0, 4, &panels, Activation::Relu).is_err());
    }

    /// Scalar and vector kernels must agree bit for bit — the invariant that
    /// keeps aux-table memorization lossless across kernel selection — under
    /// every form [`under_each_form`] runs.
    #[test]
    fn scalar_and_vector_kernels_are_bit_identical() {
        for &(m, k, n) in &[
            (1usize, 5usize, 3usize),
            (4, 8, 8),
            (5, 16, 16),
            (7, 33, 21),
            (9, 40, 48),
            (64, 40, 100),
        ] {
            let x = fill(m, k, 11);
            let w = fill(k, n, 12);
            let b = fill(1, n, 13);
            let panels = PackedPanels::pack(&w, Some(&b)).unwrap();
            for act in [
                Activation::Linear,
                Activation::Relu,
                Activation::Sigmoid,
                Activation::Tanh,
            ] {
                let what = format!("forward {m}x{k}x{n} {act:?}");
                assert_forms_agree(&what, &|| forward_packed(&x, 0, m, &panels, act).unwrap());
            }
            let dy = fill(m, n, 14);
            let what = format!("matmul_wt {m}x{n}x{k}");
            assert_forms_agree(&what, &|| matmul_transpose_packed(&dy, &panels).unwrap());
            let xt = fill(k, m, 15);
            let rhs = fill(k, n, 16);
            let what = format!("transpose_matmul {k}x{m}x{n}");
            assert_forms_agree(&what, &|| transpose_matmul(&xt, &rhs).unwrap());
        }
    }

    /// `f`'s result under every form [`under_each_form`] runs is the scalar
    /// form's, bit for bit.
    fn assert_forms_agree(what: &str, f: &dyn Fn() -> Matrix) {
        let mut reference = None;
        under_each_form(|form| {
            let got = bits(&f());
            let reference = reference.get_or_insert_with(|| got.clone());
            let differs = reference.iter().zip(&got).position(|(a, b)| a != b);
            assert_eq!(differs, None, "{what}: {form} vs scalar");
        });
    }

    /// Both gradient kernels agree in every form: `xᵀ · dy` of `x` with `dy`,
    /// and `dy · Wᵀ` of `dy` with `w`.
    fn assert_gradient_forms_agree(x: &Matrix, dy: &Matrix, w: &Matrix, what: &str) {
        let panels = PackedPanels::pack(w, None).unwrap();
        let shapes = format!("{what}: x {}x{}, dy {}x{}", x.rows(), x.cols(), dy.rows(), dy.cols());
        assert_forms_agree(&format!("xᵀ·dy {shapes}"), &|| transpose_matmul(x, dy).unwrap());
        assert_forms_agree(&format!("dy·Wᵀ {shapes}"), &|| matmul_transpose_packed(dy, &panels).unwrap());
    }

    /// What [`matmul_transpose_segmented`] is defined as: each part's
    /// [`matmul_transpose_packed`] of its own columns of `dy`, scalar form,
    /// added in order into a matrix of `+0.0` — a per-head backward's trunk
    /// gradient.
    fn segmented_reference(dy: &Matrix, parts: &[&PackedPanels]) -> Matrix {
        let mut sum = Matrix::zeros(dy.rows(), parts[0].k());
        let mut at = 0;
        for part in parts {
            let mut columns = Matrix::zeros(dy.rows(), part.n());
            for r in 0..dy.rows() {
                columns
                    .row_mut(r)
                    .copy_from_slice(&dy.row(r)[at..at + part.n()]);
            }
            at += part.n();
            let own =
                with_forced(Kernel::Scalar, || matmul_transpose_packed(&columns, part)).unwrap();
            sum.add_scaled(&own, 1.0).unwrap();
        }
        sum
    }

    /// The segmented `dy · Wᵀ` under every form equals [`segmented_reference`]
    /// bit for bit.
    fn assert_segmented_forms_agree(dy: &Matrix, parts: &[&PackedPanels], what: &str) {
        let reference = bits(&segmented_reference(dy, parts));
        under_each_form(|form| {
            let got = bits(&matmul_transpose_segmented(dy, parts).unwrap());
            let differs = reference.iter().zip(&got).position(|(a, b)| a != b);
            assert_eq!(
                differs,
                None,
                "segmented dy·Wᵀ {form}, {what}: dy {}x{}",
                dy.rows(),
                dy.cols()
            );
        });
    }

    fn relu(mut m: Matrix) -> Matrix {
        Activation::Relu.apply_in_place(&mut m);
        m
    }

    /// The shapes training runs, which the guard above stops short of: the
    /// frozen benchmark's network (38 → 141 → 141 → 5 × (35 → 4 … 64)) and the
    /// paper runner's widest (346) at the benchmark's batch sizes, a ragged
    /// last batch, and row counts and widths that are whole multiples of no
    /// tile of either ISA — over a dense, a ReLU-sparse and an all-zero `x`.
    #[test]
    fn gradient_kernels_are_bit_identical_on_the_shapes_training_runs() {
        if !vector_available() {
            return;
        }
        for &(rows, m, n) in &[
            (2048usize, 38usize, 141usize),
            (2048, 141, 141),
            (2048, 141, 35),
            (512, 35, 4),
            (512, 35, 8),
            (512, 35, 16),
            (2048, 35, 32),
            (512, 35, 64),
            (512, 346, 346),
            (512, 346, 35),
            (907, 141, 141),
            (33, 141, 35),
            (31, 49, 23),
            (5, 17, 9),
            (3, 7, 1),
            (1, 1, 5),
        ] {
            let w = fill(m, n, 41);
            let dy = fill(rows, n, 42);
            assert_gradient_forms_agree(&fill(rows, m, 43), &dy, &w, "dense x");
            assert_gradient_forms_agree(&relu(fill(rows, m, 44)), &dy, &w, "ReLU-sparse x");
        }
        let (w, dy) = (fill(141, 35, 45), fill(512, 35, 46));
        assert_gradient_forms_agree(&Matrix::zeros(512, 141), &dy, &w, "all-zero x");
        assert_gradient_forms_agree(&fill(512, 141, 47), &Matrix::zeros(512, 35), &w, "all-zero dy");
        // The heads' entry: the trunk-output gradient of heads of every width
        // a build trains, ragged against both ISAs' panels, as one pass — and
        // one head, and heads of one width.
        for widths in [&[1usize, 3, 17, 35, 48, 64][..], &[35; 5], &[17]] {
            let panels: Vec<PackedPanels> = (0u64..)
                .zip(widths)
                .map(|(salt, &n)| PackedPanels::pack(&fill(141, n, 48 + salt), None).unwrap())
                .collect();
            let parts: Vec<&PackedPanels> = panels.iter().collect();
            let n: usize = widths.iter().sum();
            for rows in [2048usize, 907, 33, 5, 1] {
                let what = format!("head widths {widths:?}");
                assert_segmented_forms_agree(&fill(rows, n, 55), &parts, &what);
                assert_segmented_forms_agree(
                    &relu(fill(rows, n, 56)),
                    &parts,
                    &format!("{what}, ReLU-sparse"),
                );
            }
        }
    }

    /// What makes the zero skip of `xᵀ · dy` and the padded lanes of `dy · Wᵀ`
    /// part of the recipe rather than shortcuts: products that underflow to
    /// `-0.0` leave sums a skipped term must not touch (`-0.0 + 0.0` is
    /// `+0.0`) and a padded lane must (the reference adds `0 · 0` there), and
    /// an infinite `dy` belongs only to the outputs whose `x` is not zero.
    #[test]
    fn gradient_kernels_agree_on_signed_zeros_underflow_and_infinities() {
        if !vector_available() {
            return;
        }
        let pick = |rows: usize, cols: usize, salt: u64, values: &[f32]| {
            let mut m = Matrix::zeros(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    let h = (r as u64 * 37 + c as u64 * 11 + salt).wrapping_mul(0x9E3779B97F4A7C15);
                    m.set(r, c, values[(h >> 33) as usize % values.len()]);
                }
            }
            m
        };
        let tiny = [0.0f32, -0.0, 1e-30, -1e-30, 1e-30, -1e-30, 0.0];
        for &(rows, m, n) in &[(64usize, 35usize, 19usize), (40, 49, 35), (9, 141, 4)] {
            let x = pick(rows, m, 1, &tiny);
            let dy = pick(rows, n, 2, &[1e-30, -1e-30, -0.0, 0.0, -1e-25]);
            let w = pick(m, n, 3, &tiny);
            assert_gradient_forms_agree(&x, &dy, &w, "underflowing products");
            let s = with_forced(Kernel::Scalar, || transpose_matmul(&x, &dy)).unwrap();
            assert!(
                s.as_slice().iter().any(|v| v.to_bits() == (-0.0f32).to_bits()),
                "the inputs are meant to leave some sum at -0.0"
            );
        }
        // Every product `-0.0`: a whole panel's lanes stay there, and a padded
        // lane's `+ 0 · 0` is what turns the output to `+0.0`.
        for (n, expected) in [(16usize, -0.0f32), (32, -0.0), (19, 0.0), (35, 0.0)] {
            let (dy, w) = (Matrix::filled(20, n, 1e-30), Matrix::filled(23, n, -1e-30));
            assert_gradient_forms_agree(&Matrix::filled(20, 23, 1e-30), &dy, &w, "all products -0.0");
            let panels = PackedPanels::pack(&w, None).unwrap();
            let s = with_forced(Kernel::Scalar, || matmul_transpose_packed(&dy, &panels)).unwrap();
            assert!(s.as_slice().iter().all(|v| v.to_bits() == expected.to_bits()), "n = {n}");
        }
        // One +∞ in `dy`: the outputs whose `x` is zero in that row skip it.
        let x = pick(24, 35, 4, &[0.0, 1.0, 0.0, 2.0, 0.5]);
        let mut dy = fill(24, 19, 5);
        dy.set(7, 3, f32::INFINITY);
        assert_forms_agree("xᵀ·dy with an infinite dy", &|| transpose_matmul(&x, &dy).unwrap());
        let s = with_forced(Kernel::Scalar, || transpose_matmul(&x, &dy)).unwrap();
        for i in 0..35 {
            assert_eq!(s.get(i, 3).is_infinite(), x.get(7, i) != 0.0, "output ({i}, 3)");
        }
    }

    #[test]
    fn matmul_transpose_packed_matches_explicit_transpose() {
        for kernel in both_kernels() {
            for &(m, n, k) in &[(1usize, 1usize, 1usize), (3, 9, 7), (5, 16, 8), (6, 21, 33)] {
                let lhs = fill(m, n, 21);
                let w = fill(k, n, 22);
                let panels = PackedPanels::pack(&w, None).unwrap();
                let got = with_forced(kernel, || matmul_transpose_packed(&lhs, &panels)).unwrap();
                let expected = lhs.matmul(&w.transpose()).unwrap();
                assert_close(&got, &expected);
            }
        }
        let lhs = Matrix::zeros(2, 5);
        let panels = PackedPanels::pack(&Matrix::zeros(3, 4), None).unwrap();
        assert!(matmul_transpose_packed(&lhs, &panels).is_err());
    }

    #[test]
    fn transpose_matmul_matches_explicit_transpose() {
        for kernel in both_kernels() {
            for &(k, m, n) in &[(1usize, 1usize, 1usize), (4, 3, 9), (9, 8, 16), (17, 5, 21)] {
                let lhs = fill(k, m, 31);
                let rhs = fill(k, n, 32);
                let got = with_forced(kernel, || transpose_matmul(&lhs, &rhs)).unwrap();
                let expected = lhs.transpose().matmul(&rhs).unwrap();
                assert_close(&got, &expected);
            }
        }
        assert!(transpose_matmul(&Matrix::zeros(2, 3), &Matrix::zeros(4, 5)).is_err());
    }

    #[test]
    fn reduce_lanes_is_the_documented_tree() {
        let v: [f32; LANES] = std::array::from_fn(|i| (i + 1) as f32);
        assert_eq!(reduce_lanes(v), 136.0);
        // Order sensitivity: fold halves first, then the 8-lane tree.
        let mut v = [0.0f32; LANES];
        v[0] = 1e8;
        v[8] = 1.0;
        v[2] = -1e8;
        v[10] = 0.5;
        v[1] = 0.25;
        let s0 = 1e8f32 + 1.0;
        let s2 = -1e8f32 + 0.5;
        let expected = ((s0 + s2) + 0.0) + ((0.25 + 0.0) + 0.0);
        assert_eq!(reduce_lanes(v), expected);
    }

    // -----------------------------------------------------------------------
    // Int8 quantized path.
    // -----------------------------------------------------------------------

    /// Independent re-implementation of the quantized recipe (row
    /// quantization, exact i32 dot, fixed dequantization epilogue) used to
    /// cross-check the panel layout end to end.
    fn naive_quantized_forward(
        x: &Matrix,
        w: &Matrix,
        b: &Matrix,
        act: Activation,
    ) -> Matrix {
        let (m, k, n) = (x.rows(), w.rows(), w.cols());
        // Per-column weight quantization.
        let mut wscale = vec![1.0f32; n];
        let mut q = vec![0i32; k * n];
        for c in 0..n {
            let mut amax = 0.0f32;
            for kk in 0..k {
                amax = amax.max(w.get(kk, c).abs());
            }
            if amax > 0.0 {
                wscale[c] = amax / 127.0;
            }
            for kk in 0..k {
                q[kk * n + c] =
                    (w.get(kk, c) / wscale[c]).round().clamp(-127.0, 127.0) as i32;
            }
        }
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let row = x.row(i);
            let mut amax = 0.0f32;
            for &v in row {
                if v.abs() > amax {
                    amax = v.abs();
                }
            }
            let (xq, xscale): (Vec<i32>, f32) = if amax == 0.0 {
                (vec![0; k], 1.0)
            } else {
                let inv = (127.0 / amax).min(f32::MAX);
                (
                    row.iter()
                        // Input rows round ties-to-even (the `vcvtps2dq` mode).
                        .map(|&v| (v * inv).round_ties_even().clamp(-127.0, 127.0) as i32)
                        .collect(),
                    amax / 127.0,
                )
            };
            for c in 0..n {
                let mut acc = 0i32;
                for kk in 0..k {
                    acc += xq[kk] * q[kk * n + c];
                }
                let mscale = xscale * wscale[c];
                out.set(i, c, (acc as f32).mul_add(mscale, b.get(0, c)));
            }
        }
        act.apply_in_place(&mut out);
        out
    }

    /// Runs `f` with the calling thread forced onto each kernel form this
    /// machine has — the scalar reference, the vector kernel as selected (for
    /// int8, `vpdpbusd` on an AVX-512-VNNI host) and with AVX-512 off (the
    /// AVX2 forms) — passing the form's name.
    pub(crate) fn under_each_form(mut f: impl FnMut(&str)) {
        with_forced(Kernel::Scalar, || f("scalar"));
        with_forced(Kernel::Vector, || f(Kernel::Vector.name()));
        with_forced(Kernel::Vector, || with_avx512_disabled(|| f("vector without AVX-512")));
    }

    /// `fill` with every third row all-zero: the row quantizer's sentinel
    /// branch, next to rows with negatives and scattered zeros.
    fn fill_with_zero_rows(rows: usize, cols: usize, salt: u64) -> Matrix {
        let mut m = fill(rows, cols, salt);
        for r in (2..rows).step_by(3) {
            m.row_mut(r).fill(0.0);
        }
        m
    }

    /// Every form's quantized forward must agree bit for bit with the
    /// independent recipe across all lane/panel/k-quad remainder classes.
    #[test]
    fn quantized_forward_matches_the_recipe_across_remainders() {
        for &m in &[0usize, 1, 3, 5, 6, 7, 13] {
            for &k in &[1usize, 2, 3, 4, 5, 7, 16, 17, 33] {
                for &n in &[1usize, 8, 15, 16, 17, 33, 65] {
                    for act in [Activation::Linear, Activation::Relu, Activation::Sigmoid] {
                        let x = fill_with_zero_rows(m, k, 43);
                        let w = fill(k, n, 44);
                        let b = fill(1, n, 45);
                        let panels = QuantizedPanels::quantize(&w, Some(&b)).unwrap();
                        let expected = naive_quantized_forward(&x, &w, &b, act);
                        under_each_form(|form| {
                            let got = forward_quantized(&x, 0, m, &panels, act).unwrap();
                            assert_eq!(
                                bits(&got),
                                bits(&expected),
                                "{form} quantized {m}x{k}x{n} {act:?}"
                            );
                        });
                    }
                }
            }
        }
    }

    /// The three int8 forms produce the same logit bits on the shapes and row
    /// counts that matter: the benchmark model's dimensions (38, 141, 35 in;
    /// 35, 141, the fused 175 out) beside the degenerate ones and both sides
    /// of 16 quads (64 values); row counts on both sides of the `vpdpbusd`
    /// row tile (6), of one and two sixteen-row groups (16, 32), of a chunk
    /// (96) and of a 256-row window.
    #[test]
    fn quantized_forms_are_bit_identical_across_shapes_and_row_counts() {
        for &k in &[1usize, 2, 3, 5, 35, 38, 63, 64, 65, 141] {
            for &n in &[1usize, 4, 13, 16, 35, 141, 175] {
                let w = fill(k, n, 52);
                let b = fill(1, n, 53);
                let panels = QuantizedPanels::quantize(&w, Some(&b)).unwrap();
                for &m in &[1usize, 5, 6, 7, 8, 15, 16, 17, 31, 32, 33, 95, 96, 97, 255, 256, 257] {
                    let x = fill_with_zero_rows(m, k, 51);
                    let mut reference = None;
                    under_each_form(|form| {
                        let got =
                            bits(&forward_quantized(&x, 0, m, &panels, Activation::Relu).unwrap());
                        let expected = reference.get_or_insert_with(|| got.clone());
                        assert_eq!(&got, expected, "{form} {m}x{k}x{n}");
                    });
                }
            }
        }
    }

    /// Every row-major form stores what the scalar reference stores when a
    /// logit is a signed zero, a NaN or an infinity: zero-weight columns whose
    /// biases are `-0.0`, `+0.0`, NaN, `+∞` and `-∞`, on both sides of an
    /// AVX2 half (8 columns) and of a panel (16), under each activation, in
    /// the f32 and the int8 forward.  An all-negative input row keeps the
    /// `-0.0` bias `-0.0` through the f32 chain (`fma(x < 0, 0, -0.0)` is
    /// `-0.0`), so a ReLU that made it `+0.0`, or a NaN `0.0`, shows.
    #[test]
    fn row_major_forms_store_signed_zeros_nans_and_infinities_as_the_reference() {
        let special = [-0.0, 0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let acts = [Activation::Linear, Activation::Relu, Activation::Sigmoid, Activation::Tanh];
        for &k in &[5usize, 38] {
            let mut x = fill_with_zero_rows(7, k, 61);
            x.row_mut(0).iter_mut().enumerate().for_each(|(i, v)| *v = -1.0 - i as f32 / 8.0);
            for &n in &[9usize, 17, 35] {
                for shift in 0..2 {
                    let (mut w, mut b) = (fill(k, n, 62), fill(1, n, 63));
                    for c in (shift..n).step_by(2) {
                        for kk in 0..k {
                            w.set(kk, c, 0.0);
                        }
                        b.set(0, c, special[(c / 2) % special.len()]);
                    }
                    let packed = PackedPanels::pack(&w, Some(&b)).unwrap();
                    let quantized = QuantizedPanels::quantize(&w, Some(&b)).unwrap();
                    for act in acts {
                        let what = format!("k={k} n={n} shift={shift} {act:?}");
                        let f32_form = || forward_packed(&x, 0, 7, &packed, act).unwrap();
                        let int8_form = || forward_quantized(&x, 0, 7, &quantized, act).unwrap();
                        assert_forms_agree(&format!("f32 {what}"), &f32_form);
                        assert_forms_agree(&format!("int8 {what}"), &int8_form);
                        if act == Activation::Relu {
                            let f32_bits = bits(&with_forced(Kernel::Scalar, f32_form));
                            let int8_bits = bits(&with_forced(Kernel::Scalar, int8_form));
                            let nan = |v: &u32| f32::from_bits(*v).is_nan();
                            assert!(f32_bits.contains(&(-0.0f32).to_bits()), "a -0.0 logit, {what}");
                            assert!(f32_bits.iter().any(nan) && int8_bits.iter().any(nan), "NaN logits, {what}");
                        }
                    }
                }
            }
        }
    }

    /// A row of zeros and values of magnitude `amax`, alternating in sign.
    fn tiny_row(k: usize, amax: f32) -> Vec<f32> {
        (0..k)
            .map(|c| match c % 4 {
                0 | 1 => 0.0,
                2 => amax,
                _ => -amax,
            })
            .collect()
    }

    /// Below `127 / f32::MAX` a row's `127 / amax` overflows; the recipe clamps
    /// it, so every form quantizes such a row to the same finite bytes — the
    /// scalar and AVX-512 quantizers used to part ways there (`0 · ∞` and what
    /// a conversion makes of it) — and every form's layer answers the same.
    #[test]
    fn quantized_forms_are_bit_identical_on_rows_with_a_tiny_amax() {
        let amaxes = [1e-39f32, 3e-37, 1e-36, 127.0 / f32::MAX];
        for &k in &[3usize, 35, 38, 141] {
            let mut x = fill_with_zero_rows(40, k, 57);
            for (i, &amax) in amaxes.iter().enumerate() {
                // On both sides of each sixteen-row group's edge.
                for r in [i, 12 + i, 30 + i] {
                    x.row_mut(r).copy_from_slice(&tiny_row(k, amax));
                }
            }
            let rows = RowsView::of_matrix(&x, 0, 40).unwrap();
            let mut scalar = QuantizedRows::default();
            scalar.fill(Kernel::Scalar, rows);
            for (i, amax) in amaxes.iter().enumerate() {
                // Zeros stay zeros and nothing saturates on an overflowed product.
                let zeros = scalar.row(i).iter().filter(|&&b| b == 0x80).count();
                assert!(zeros >= k / 2, "k={k} amax={amax}: bytes {:?}", scalar.row(i));
                assert!(scalar.scales()[i].is_finite() && scalar.scales()[i] > 0.0);
            }
            let panels = QuantizedPanels::quantize(&fill(k, 21, 58), Some(&fill(1, 21, 59))).unwrap();
            let mut reference = None;
            under_each_form(|form| {
                let mut q = QuantizedRows::default();
                q.fill(active(), rows);
                for r in 0..40 {
                    assert_eq!(q.row(r), scalar.row(r), "{form} k={k} row {r} bytes");
                }
                assert_eq!(bits_of(q.scales()), bits_of(scalar.scales()), "{form} k={k} scales");
                let got = bits(&forward_quantized(&x, 0, 40, &panels, Activation::Relu).unwrap());
                assert_eq!(&got, reference.get_or_insert_with(|| got.clone()), "{form} k={k}");
            });
        }
    }

    fn bits_of(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The two-phase AVX-512 quantizer is the scalar one, byte for byte and
    /// scale for scale: at row counts on both sides of its sixteen-row groups,
    /// with all-zero rows at the start, in the middle and at the end of a
    /// group (their lanes of the vector division are `127 / 0` and `0 / 127`,
    /// and neither an `∞` nor a NaN may leak into a byte or a scale), beside
    /// rows with negatives and scattered zeros, at widths on both sides of one
    /// and of several 16-lane loads.
    #[test]
    fn row_quantizer_forms_agree_byte_for_byte() {
        for &k in &[1usize, 4, 15, 16, 17, 35, 38, 64, 141] {
            for &count in &[0usize, 1, 15, 16, 17, 33, 96] {
                for zeroed in [vec![], vec![0], vec![7], vec![15], vec![0, 15, 16], vec![16, 24, 31, 32]] {
                    let mut x = fill(count, k, 95);
                    for &r in zeroed.iter().filter(|&&r| r < count) {
                        x.row_mut(r).fill(0.0);
                    }
                    let rows = RowsView::of_matrix(&x, 0, count).unwrap();
                    // A reused buffer: stale bytes of a wider, longer window.
                    let mut scalar = QuantizedRows::quantize(RowsView::of_matrix(&fill(97, 150, 1), 0, 97).unwrap());
                    let mut vector = scalar.clone();
                    scalar.fill(Kernel::Scalar, rows);
                    with_forced(Kernel::Vector, || vector.fill(Kernel::Vector, rows));
                    for r in 0..count {
                        assert_eq!(vector.row(r), scalar.row(r), "k={k} count={count} row {r}");
                        if zeroed.contains(&r) {
                            assert!(vector.row(r).iter().all(|&b| b == 0x80), "zero row {r}");
                            assert_eq!(vector.scales()[r], 1.0);
                        }
                    }
                    assert_eq!(bits_of(vector.scales()), bits_of(scalar.scales()), "k={k} count={count}");
                }
            }
        }
    }

    /// Row windows (chunking), a padded leading dimension and a reused
    /// [`QuantizedRows`] buffer cannot change any row.  65 values are 17
    /// k-quads, so a row ends one quad past a 64-byte boundary, and windows
    /// of up to 35 rows end at every remainder of the `vpdpbusd` row tile.
    #[test]
    fn quantized_forward_is_window_and_destination_invariant() {
        const ROWS: usize = 35;
        let x = fill_with_zero_rows(ROWS, 65, 51);
        let w = fill(65, 37, 52);
        let b = fill(1, 37, 53);
        let panels = QuantizedPanels::quantize(&w, Some(&b)).unwrap();
        let full = forward_quantized(&x, 0, ROWS, &panels, Activation::Relu).unwrap();
        // One buffer for every window, largest first, so later windows run
        // over stale bytes of earlier ones.
        let mut qrows = QuantizedRows::default();
        qrows.reserve(ROWS, 65);
        under_each_form(|form| {
            for start in 0..ROWS {
                for count in (0..=(ROWS - start)).rev() {
                    let rows = RowsView::of_matrix(&x, start, count).unwrap();
                    let ld = 48;
                    let mut out = vec![f32::NAN; count * ld];
                    forward_quantized_into(
                        active(),
                        rows,
                        &mut qrows,
                        &panels,
                        Activation::Relu,
                        &mut out,
                        ld,
                    )
                    .unwrap();
                    for r in 0..count {
                        let got = &out[r * ld..(r + 1) * ld];
                        assert_eq!(&got[..37], full.row(start + r), "{form} [{start}; {count})");
                        assert!(got[37..].iter().all(|&v| v == 0.0), "{form} padding");
                    }
                }
            }
        });
        assert!(forward_quantized(&x, ROWS - 1, 3, &panels, Activation::Relu).is_err());
        let wrong_k = fill(4, 8, 1);
        assert!(forward_quantized(&wrong_k, 0, 4, &panels, Activation::Relu).is_err());
        // A destination too small for its rows, or a leading dimension short of
        // the columns, is an error, not an out-of-bounds store — under every
        // form.
        let rows = RowsView::of_matrix(&x, 0, ROWS).unwrap();
        under_each_form(|form| {
            for (len, ld) in [(ROWS * 48 - 1, 48), (ROWS * 36, 36)] {
                let mut out = vec![0.0; len];
                let result = forward_quantized_into(
                    active(),
                    rows,
                    &mut qrows,
                    &panels,
                    Activation::Relu,
                    &mut out,
                    ld,
                );
                assert!(result.is_err(), "{form} len {len} ld {ld}");
            }
        });
    }

    /// A rows buffer that does not own what a form reads is an error, not a
    /// read past it: every form needs the window's own bytes and scales, and
    /// no more.
    #[test]
    fn a_rows_buffer_short_of_what_a_form_reads_is_an_error() {
        let (count, k) = (32, 65usize);
        let x = fill_with_zero_rows(count, k, 91);
        let panels = QuantizedPanels::quantize(&fill(k, 20, 92), None).unwrap();
        let whole = QuantizedRows::quantize(RowsView::of_matrix(&x, 0, count).unwrap());
        let expected = forward_prequantized(&whole, &panels, Activation::Relu).unwrap();
        let window = count * k.div_ceil(4) * 4;
        let truncated = |len: usize| QuantizedRows {
            bytes: whole.bytes[..len].to_vec(),
            ..whole.clone()
        };
        under_each_form(|form| {
            let run = |qrows: &QuantizedRows| {
                let mut out = vec![f32::NAN; count * 32];
                forward_prequantized_into(active(), qrows, &panels, Activation::Relu, &mut out, 32)
                    .map(|()| out)
            };
            assert!(run(&truncated(window - 1)).is_err(), "{form}: short of the window");
            let out = run(&truncated(window)).unwrap();
            for r in 0..count {
                assert_eq!(&out[r * 32..][..20], expected.row(r), "{form} row {r}");
            }
            let short_scales = QuantizedRows {
                scales: whole.scales[..count - 1].to_vec(),
                ..whole.clone()
            };
            assert!(run(&short_scales).is_err(), "{form}: short of the scales");
        });
    }

    /// The vector `argmax` is the scalar one on every input: ties go to the
    /// lowest index (signed zeros tie), NaNs never win, and a row with nothing
    /// above `-∞` predicts class 0 — at widths on both sides of one and of
    /// four 16-lane loads, read from a padded leading dimension and written
    /// with a stride.
    #[test]
    fn vector_argmax_is_the_scalar_argmax() {
        // (name, value at index `i` of an `n`-wide row)
        type Pattern = (&'static str, fn(usize, usize) -> f32);
        let patterns: [Pattern; 8] = [
            ("pseudo-random", |n, i| ((i * 37 + n * 11) % 23) as f32 - 11.5),
            ("all equal", |_, _| 0.25),
            ("ties, best last", |n, i| if i + 2 >= n { 3.0 } else { (i % 3) as f32 }),
            ("signed zeros", |_, i| if i % 2 == 0 { -0.0 } else { 0.0 }),
            ("zeros then negative zero", |_, i| if i == 0 { 0.0 } else { -0.0 }),
            ("NaN first", |_, i| if i == 0 { f32::NAN } else { -(i as f32) }),
            ("NaN and nothing above -inf", |_, i| {
                [f32::NAN, f32::NEG_INFINITY][i % 2]
            }),
            ("descending from +inf", |_, i| if i == 0 { f32::INFINITY } else { -(i as f32) }),
        ];
        for &n in &[1usize, 4, 15, 16, 17, 64, 65, 100] {
            let ld = n + 3;
            let rows = patterns.len() * 2;
            let mut data = vec![f32::INFINITY; rows * ld];
            for (r, (_, pattern)) in patterns.iter().enumerate() {
                for i in 0..n {
                    data[r * ld + i] = pattern(n, i);
                    // The same row with its best value moved to the last lane.
                    data[(patterns.len() + r) * ld + i] = pattern(n, (i + 1) % n);
                }
            }
            let logits = RowsView::new(&data, ld, rows, n).unwrap();
            let expected: Vec<u32> =
                (0..rows).map(|r| crate::tensor::argmax(logits.row(r)) as u32).collect();
            under_each_form(|form| {
                let mut out = vec![u32::MAX; rows * 3];
                argmax_rows(active(), logits, &mut out[1..], 3).unwrap();
                for r in 0..rows {
                    let name = patterns[r % patterns.len()].0;
                    assert_eq!(out[1 + r * 3], expected[r], "{form} n={n} {name} (row {r})");
                    assert_eq!((out[r * 3], out[r * 3 + 2]), (u32::MAX, u32::MAX), "{form} stride");
                }
                assert!(argmax_rows(active(), logits, &mut out[..(rows - 1) * 3], 3).is_err());
                assert!(argmax_rows(active(), logits, &mut out, 0).is_err());
            });
        }
    }

    /// What [`argmax_prequantized`] must write: each head's
    /// [`argmax_rows`] over [`forward_prequantized`]'s logits — the
    /// row-major layer and argmax of `Dense::forward`, under the scalar form.
    fn reference_classes(
        qrows: &QuantizedRows,
        panels: &QuantizedPanels,
        activation: Activation,
        heads: &[usize],
        stride: usize,
    ) -> Vec<u32> {
        let count = qrows.count();
        let mut out = vec![u32::MAX; count * stride];
        with_forced(Kernel::Scalar, || {
            let logits = forward_prequantized(qrows, panels, activation).unwrap();
            let mut at = 0;
            for (h, &width) in heads.iter().enumerate() {
                let view = RowsView::new(&logits.as_slice()[at..], panels.n(), count, width).unwrap();
                argmax_rows(Kernel::Scalar, view, &mut out[h..], stride).unwrap();
                at += width;
            }
        });
        out
    }

    /// The output layer's classes, keys in lanes, are what the row-major
    /// layer and [`argmax_rows`] make of it, under every form: row counts on
    /// both sides of one key group (16) and of a walk's chunk (96); `k` of
    /// 3, 38 (not whole quads), 64 (16 whole quads) and 141 (36 quads, the
    /// last one partial); heads side by side crossing panel edges (4 / 8 / 16 /
    /// 32 / 64, and 5 / 17 / 3), one head, one single-class head; each
    /// activation.  Beside the rows' own heads sit heads of zero weights
    /// whose biases are their logits, the same on every row: ties, `+0.0`
    /// against `-0.0`, a NaN first and among numbers, nothing above `-∞`, and
    /// `+∞`.  The destination's other slots stay untouched.
    #[test]
    fn argmax_prequantized_is_the_layer_and_its_argmax_in_every_form() {
        let nan = f32::NAN;
        let (inf, ninf) = (f32::INFINITY, f32::NEG_INFINITY);
        let made: [&[f32]; 6] = [
            &[1.0, 3.0, 3.0, 2.0],
            &[-0.0, 0.0, -0.0],
            &[nan, -5.0, nan, -4.0],
            &[ninf, ninf, nan],
            &[-1.0, inf, 7.0, inf],
            &[0.5; 17],
        ];
        let layouts: [&[usize]; 4] = [&[4, 8, 16, 32, 64], &[5, 17, 3], &[40], &[1]];
        for &k in &[3usize, 38, 64, 141] {
            for (li, &own) in layouts.iter().enumerate() {
                let heads: Vec<usize> = own.iter().copied().chain(made.iter().map(|m| m.len())).collect();
                let n: usize = heads.iter().sum();
                let own_n: usize = own.iter().sum();
                let mut w = fill(k, n, 101 + li as u64);
                let mut b = fill(1, n, 102 + li as u64);
                let mut at = own_n;
                for logits in made {
                    for (c, &v) in logits.iter().enumerate() {
                        for kk in 0..k {
                            w.set(kk, at + c, 0.0);
                        }
                        b.set(0, at + c, v);
                    }
                    at += logits.len();
                }
                let panels = QuantizedPanels::quantize(&w, Some(&b)).unwrap();
                for act in [Activation::Linear, Activation::Relu, Activation::Sigmoid] {
                    for &m in &[1usize, 15, 16, 17, 95, 96, 97] {
                        let x = fill_with_zero_rows(m, k, 103);
                        let mut qrows = QuantizedRows::quantize(RowsView::of_matrix(&x, 0, m).unwrap());
                        let stride = heads.len() + 2;
                        let expected = reference_classes(&qrows, &panels, act, &heads, stride);
                        under_each_form(|form| {
                            let mut out = vec![u32::MAX; m * stride];
                            argmax_prequantized(active(), &mut qrows, &panels, act, &heads, &mut out, stride)
                                .unwrap();
                            assert_eq!(out, expected, "{form} k={k} heads {heads:?} {act:?} rows {m}");
                        });
                    }
                }
            }
        }
        // The made-up heads predict what `tensor::argmax` says of their logits.
        let x = fill(16, 3, 1);
        let (w, mut b) = (Matrix::zeros(3, 4), Matrix::zeros(1, 4));
        for (c, v) in [nan, 2.0, nan, 2.0].into_iter().enumerate() {
            b.set(0, c, v);
        }
        let panels = QuantizedPanels::quantize(&w, Some(&b)).unwrap();
        let mut qrows = QuantizedRows::quantize(RowsView::of_matrix(&x, 0, 16).unwrap());
        under_each_form(|form| {
            let mut out = vec![9; 16];
            argmax_prequantized(active(), &mut qrows, &panels, Activation::Linear, &[4], &mut out, 1).unwrap();
            assert_eq!(out, vec![1; 16], "{form}");
        });
    }

    /// Shapes the entry refuses rather than read or write past: heads that
    /// do not cover the panel's columns, rows of another `k`, a destination
    /// or stride short of the rows' heads.
    #[test]
    fn argmax_prequantized_checks_its_shapes() {
        let panels = QuantizedPanels::quantize(&fill(9, 20, 5), None).unwrap();
        let x = fill(17, 9, 6);
        let mut qrows = QuantizedRows::quantize(RowsView::of_matrix(&x, 0, 17).unwrap());
        under_each_form(|form| {
            let mut run = |heads: &[usize], len: usize, stride: usize| {
                let mut out = vec![0; len];
                argmax_prequantized(active(), &mut qrows, &panels, Activation::Relu, heads, &mut out, stride)
            };
            assert!(run(&[20], 17, 1).is_ok(), "{form}");
            assert!(run(&[4, 16], 16 * 2 + 2, 2).is_ok(), "{form}");
            assert!(run(&[4, 16], 16 * 2 + 1, 2).is_err(), "{form}: short destination");
            assert!(run(&[4, 16], 64, 1).is_err(), "{form}: stride under the heads");
            assert!(run(&[4, 15], 64, 2).is_err(), "{form}: heads short of the columns");
            assert!(run(&[], 64, 2).is_err(), "{form}: no heads");
        });
        let mut other_k = QuantizedRows::quantize(RowsView::of_matrix(&fill(4, 8, 7), 0, 4).unwrap());
        let mut out = vec![0; 4];
        assert!(argmax_prequantized(active(), &mut other_k, &panels, Activation::Relu, &[20], &mut out, 1).is_err());
    }

    /// Panels concatenated column-wise compute, in each column range, exactly
    /// what the part computes alone — the property the fused head panel of the
    /// multi-task model rests on.
    #[test]
    fn concatenated_panels_compute_each_part_in_its_own_columns() {
        let x = fill_with_zero_rows(9, 21, 81);
        let parts: Vec<QuantizedPanels> = [(5usize, 82u64), (16, 83), (35, 84)]
            .iter()
            .map(|&(n, salt)| {
                QuantizedPanels::quantize(&fill(21, n, salt), Some(&fill(1, n, salt + 10))).unwrap()
            })
            .collect();
        let fused = QuantizedPanels::concat_columns(&parts.iter().collect::<Vec<_>>()).unwrap();
        assert_eq!((fused.k(), fused.n()), (21, 56));
        under_each_form(|form| {
            let wide = forward_quantized(&x, 0, 9, &fused, Activation::Relu).unwrap();
            let mut at = 0;
            for part in &parts {
                let own = forward_quantized(&x, 0, 9, part, Activation::Relu).unwrap();
                for r in 0..9 {
                    assert_eq!(&wide.row(r)[at..at + part.n()], own.row(r), "{form} row {r}");
                }
                at += part.n();
            }
        });
        let other_k = QuantizedPanels::quantize(&fill(20, 4, 1), None).unwrap();
        assert!(QuantizedPanels::concat_columns(&[&parts[0], &other_k]).is_err());
    }

    /// The f32 twin, which a training step's heads' entry runs: each part's
    /// columns of the wide pass are its own layer's output, bit for bit —
    /// over more rows than one block of the forward forms.
    #[test]
    fn concatenated_f32_panels_compute_each_part_in_its_own_columns() {
        let x = fill_with_zero_rows(263, 141, 85);
        let parts: Vec<PackedPanels> = [(5usize, 86u64), (16, 87), (35, 88), (1, 89)]
            .iter()
            .map(|&(n, salt)| {
                PackedPanels::pack(&fill(141, n, salt), Some(&fill(1, n, salt + 10))).unwrap()
            })
            .collect();
        let fused = PackedPanels::concat_columns(&parts.iter().collect::<Vec<_>>()).unwrap();
        assert_eq!((fused.k(), fused.n()), (141, 57));
        under_each_form(|form| {
            let wide = forward_packed(&x, 0, 263, &fused, Activation::Linear).unwrap();
            let mut at = 0;
            for part in &parts {
                let own = forward_packed(&x, 0, 263, part, Activation::Linear).unwrap();
                for r in 0..263 {
                    assert_eq!(
                        bits_of(&wide.row(r)[at..at + part.n()]),
                        bits_of(own.row(r)),
                        "{form} row {r}"
                    );
                }
                at += part.n();
            }
        });
        let other_k = PackedPanels::pack(&fill(20, 4, 1), None).unwrap();
        assert!(PackedPanels::concat_columns(&[&parts[0], &other_k]).is_err());
    }

    /// Quantization must be a deterministic fixed point: raw parts reproduce
    /// the panels byte-identically, and re-quantizing the dequantized weight
    /// reproduces the same quantized values and scales.
    #[test]
    fn quantize_dequantize_round_trip_is_deterministic() {
        for &(k, n) in &[(1usize, 1usize), (5, 7), (16, 16), (17, 33), (40, 100)] {
            let w = fill(k, n, 61);
            let b = fill(1, n, 62);
            let panels = QuantizedPanels::quantize(&w, Some(&b)).unwrap();
            // Serialization round trip: raw parts → identical panels.
            let q = panels.weights_row_major();
            let rebuilt =
                QuantizedPanels::from_parts(k, n, &q, panels.column_scales(), Some(&b)).unwrap();
            assert_eq!(panels, rebuilt, "{k}x{n} parts round trip");
            // Quantization fixed point: quantize(dequantize(q)) == q.
            let dq = panels.dequantized_weight();
            let again = QuantizedPanels::quantize(&dq, Some(&b)).unwrap();
            assert_eq!(panels, again, "{k}x{n} fixed point");
            // And the dequantized weight is within one quantization step.
            for kk in 0..k {
                for c in 0..n {
                    let err = (dq.get(kk, c) - w.get(kk, c)).abs();
                    assert!(err <= panels.column_scales()[c] * 0.5 + 1e-6, "{k}x{n} error");
                }
            }
        }
    }

    /// The backward shapes over a quantized layer run against the dequantized
    /// weight through the f32 kernels — scalar and vector must agree bit for
    /// bit there too (dy·Wᵀ and xᵀ·dy).
    #[test]
    fn quantized_backward_shapes_are_bit_identical_across_kernels() {
        if !vector_available() {
            return;
        }
        let w = fill(17, 21, 71);
        let b = fill(1, 21, 72);
        let qpanels = QuantizedPanels::quantize(&w, Some(&b)).unwrap();
        let dq = qpanels.dequantized_weight();
        let panels = PackedPanels::pack(&dq, Some(&b)).unwrap();
        let dy = fill(9, 21, 73);
        let s = with_forced(Kernel::Scalar, || matmul_transpose_packed(&dy, &panels)).unwrap();
        let v = with_forced(Kernel::Vector, || matmul_transpose_packed(&dy, &panels)).unwrap();
        assert_eq!(bits(&s), bits(&v), "dy·Wᵀ over dequantized weights");
        let xt = fill(17, 9, 74);
        let rhs = fill(17, 21, 75);
        let s = with_forced(Kernel::Scalar, || transpose_matmul(&xt, &rhs)).unwrap();
        let v = with_forced(Kernel::Vector, || transpose_matmul(&xt, &rhs)).unwrap();
        assert_eq!(bits(&s), bits(&v), "xᵀ·dy");
    }

    #[test]
    fn quantized_panels_validate_their_inputs() {
        let w = Matrix::zeros(3, 4);
        let bad = Matrix::zeros(1, 5);
        assert!(QuantizedPanels::quantize(&w, Some(&bad)).is_err());
        assert!(QuantizedPanels::from_parts(3, 4, &[0; 11], &[1.0; 4], None).is_err());
        assert!(QuantizedPanels::from_parts(3, 4, &[0; 12], &[1.0; 3], None).is_err());
        assert!(matches!(
            QuantizedPanels::from_parts(
                QUANT_MAX_K + 1,
                1,
                &vec![0; QUANT_MAX_K + 1],
                &[1.0],
                None
            ),
            Err(NnError::InvalidConfig(_))
        ));
        // All-zero columns quantize with the 1.0 sentinel scale.
        let panels = QuantizedPanels::quantize(&Matrix::zeros(4, 3), None).unwrap();
        assert_eq!(panels.column_scales(), &[1.0, 1.0, 1.0]);
        assert!(panels.bytes() > 0);
    }

    /// A stored weight of -128 is refused.  The quantizer never writes one,
    /// and the AVX2 forms move the input's sign onto the weight (`vpsignb`),
    /// where `-(-128)` wraps back to -128: against a negative input that form
    /// would answer `-128` where the others answer `128`.  The quantizer's
    /// bound, -127, serves the same bits in every form.
    #[test]
    fn a_stored_weight_of_minus_128_is_refused() {
        let x = Matrix::from_vec(1, 4, vec![-1.0, 0.5, 0.25, 0.0]).unwrap();
        let mut q = [-127i8, 0, 0, 0];
        let panels = QuantizedPanels::from_parts(4, 1, &q, &[1.0], None).unwrap();
        let mut reference = None;
        under_each_form(|form| {
            let got = forward_quantized(&x, 0, 1, &panels, Activation::Linear).unwrap();
            assert!(got.get(0, 0) > 126.0, "{form}: {}", got.get(0, 0));
            assert_eq!(&bits(&got), reference.get_or_insert_with(|| bits(&got)), "{form}");
        });
        q[0] = i8::MIN;
        assert!(matches!(
            QuantizedPanels::from_parts(4, 1, &q, &[1.0], None),
            Err(NnError::Corrupt(_))
        ));
    }

    #[test]
    fn forced_kernel_overrides_selection_on_this_thread() {
        let outside = active();
        with_forced(Kernel::Scalar, || {
            assert_eq!(active(), Kernel::Scalar);
            with_forced(Kernel::Vector, || assert_eq!(active(), Kernel::Vector));
            assert_eq!(active(), Kernel::Scalar);
        });
        assert_eq!(active(), outside);
    }

    /// The name says which int8 form runs — and this test prints it for every
    /// hook, so a CI log shows what the machine under it covered, together
    /// with the form each leg's output layers take their classes in
    /// ([`argmax_prequantized`], which the int8 form decides).
    #[test]
    fn kernel_name_names_the_int8_form_that_runs() {
        assert_eq!(Kernel::Scalar.name(), "scalar");
        let forms = [
            ("selected", Kernel::Vector.name()),
            ("without AVX-512", with_avx512_disabled(|| Kernel::Vector.name())),
        ];
        let output_layers = forms.map(|(leg, form)| {
            let classes = match form {
                "avx512-vnni" => "keys in lanes: vpdpbusd",
                "avx512" | "avx2+fma" => "keys in lanes: AVX2",
                _ => "scalar rows",
            };
            (leg, classes)
        });
        println!("dm-nn kernel forms: {forms:?}");
        println!("dm-nn output-layer forms: {output_layers:?}");
        let expected = match (vector_available(), avx512_available(), vnni_available()) {
            (false, ..) => ["scalar"; 2],
            (true, false, _) => ["avx2+fma"; 2],
            (true, true, false) => ["avx512", "avx2+fma"],
            (true, true, true) => ["avx512-vnni", "avx2+fma"],
        };
        assert_eq!(forms.map(|(_, name)| name), expected);
    }
}
