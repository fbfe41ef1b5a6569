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
//!   through one fixed f32 epilogue.  Its four forms reach that same integer
//!   four ways:
//!   the scalar reference is the plain i32 dot product; AVX-512-VNNI runs
//!   `vpdpbusd` (unsigned × signed bytes) over `qₓ + 128` with each
//!   accumulator started at the column's `−128·Σ q_w`, so the bias cancels
//!   exactly — the instruction does not saturate, a transient wrap mod 2³² is
//!   harmless and the final sum is bounded by `k · 127²`; AMX runs `tdpbusd`,
//!   which is `vpdpbusd`'s arithmetic on 16 × 16 tiles (see below); AVX2 moves
//!   the input's sign onto the weight (`vpsignb`), multiplies `|qₓ|` by it with
//!   `vpmaddubsw` — exact because `|q| ≤ 127` keeps every pair sum
//!   `≤ 2 · 127² = 32 258 < 2¹⁵`, short of its i16 saturation — and widens
//!   with `vpmaddwd` against ones,
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
//! ## The AMX form
//!
//! The tile unit multiplies a 16-row × 64-byte A tile of unsigned bytes by a
//! 16-row × 64-byte B tile of signed bytes, four bytes per i32 lane, into a
//! 16 × 16 tile of non-saturating i32 — 16 `vpdpbusd`s an instruction.  Both
//! operands are already in memory in that shape: sixteen consecutive rows of a
//! [`QuantizedRows`] buffer (stride = the row width) are an A tile of
//! `qₓ + 128`, and consecutive k-quad blocks of one [`QuantizedPanels`] panel
//! (stride 64) are a B tile, so there is no second copy of either.  `k` is
//! walked in equal steps of at most 16 quads (`tile_k_steps`: 141 → 36 quads
//! → 3 steps of 12), C is blocked 2 × 2 (32 rows × 2 panels), stored to a
//! stack buffer, and finished by the `vpdpbusd` form's own epilogue after
//! adding the column's `−128·Σ q_w` — integer addition wraps associatively,
//! so `C + offset` is exactly the accumulator `vpdpbusd` ends with, and the
//! logits are the same bits.  The form takes a window's whole tiles of rows;
//! the rows left over run the `vpdpbusd` form, so no tile holds a row the
//! window does not have.  What a tile reads past the data is owned and
//! harmless: a K step past a row's last quad reads on into the next row (or,
//! after the last, into slack the rows buffer owns — the entry point checks
//! it) and meets zero weight blocks there (each panel's run is padded to
//! `steps × quads`).
//!
//! The intrinsics are unstable, so the six instructions are `asm!`; tile state
//! needs the OS's permission (`arch_prctl(ARCH_REQ_XCOMP_PERM, XTILEDATA)`,
//! Linux), asked for once per process on first use — granted, it covers every
//! thread, those already running included.  A call configures the tiles and
//! releases them before it returns, so a context switch outside a layer call
//! saves no tile state.
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
//! `vpdpbusd` multiplies by one broadcast weight quad, and a group's blocks,
//! 64 bytes apart, are an AMX B tile.  The AMX form runs `tdpbsud` (signed ×
//! unsigned, the operands' roles swapped) with the layer's weights on their
//! side as the A tile — sixteen output columns' runs of `k`, derived from
//! the panels by the first AMX call over them and never stored — into a C tile of 16
//! columns × 16 keys; per group it computes a panel pair, stores the two C
//! tiles to one of two stack buffers and runs the epilogue of the pair before
//! from the other, so the vector units work while the tile unit does.  C
//! plus the column's `−128·Σ q_w` is the `vpdpbusd` form's accumulator,
//! exactly.  The AVX2 form moves each key's sign onto the broadcast weight
//! (`vpsignb`) as its row-major twin does.  Whole groups take the AMX form
//! where it runs, the rest of a window `vpdpbusd` (masked lanes); the scalar
//! reference reads the rows as they are.
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
//! ## Selection
//!
//! [`Kernel::selected`] picks the vector kernel when the CPU supports AVX2+FMA
//! (using the AVX-512 forms when the CPU additionally has AVX-512 F/BW/DQ, and
//! for int8 the `vpdpbusd` form only when it also has AVX-512-VNNI — an
//! AVX-512 host without it takes the AVX2 int8 form) and the scalar fallback
//! otherwise.  On top of `vpdpbusd`, the whole [`AMX_MIN_ROWS`]-row tiles of a
//! window take the AMX form when the CPU has AMX-TILE + AMX-INT8 and the OS
//! granted tile state; the rows left over — all of a smaller window — keep
//! `vpdpbusd`, whose cost does not start at a whole tile.  Nothing but the
//! CPU, the OS grant and the window's row count decides.  An output layer's
//! classes ([`argmax_prequantized`]) follow the same choice with the keys in
//! lanes: AMX for a window's whole groups of sixteen keys and `vpdpbusd` for
//! the rest, the AVX2 form where AVX-512-VNNI is missing, the scalar
//! reference otherwise — one path per form, whatever the layer's shape; the
//! key quantizer ([`KeyEncoder::quantize_keys`](crate::encoding::KeyEncoder::quantize_keys))
//! takes its AVX-512 form under the same switch.  [`with_forced`]
//! overrides the choice for the calling thread — the hook the bit-identity
//! guard tests use to exercise the kernels in one process — and
//! [`with_avx512_disabled`] / [`with_amx_disabled`] step the vector kernel
//! down a form.

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
    /// after it, the int8 form the whole tiles of a window run on the calling
    /// thread — so a run record or a CI log says which of the four int8 forms
    /// a green run covered.  `"avx512"` alone is an AVX-512 host without VNNI,
    /// whose int8 layers take the AVX2 form.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Vector if amx_enabled() => "avx512+amx",
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

/// Whether the AMX form of the int8 forward can run: the CPU has AMX-TILE and
/// AMX-INT8 with the tile geometry the kernel is written for, and the OS
/// granted this process tile state.  The grant is asked for once, on the first
/// call, from whichever thread makes it; it is process-wide.  Always `false`
/// off x86-64 Linux and under Miri.
pub fn amx_available() -> bool {
    #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
    {
        static GRANTED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *GRANTED.get_or_init(x86::amx::request_tile_state)
    }
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux", not(miri))))]
    {
        false
    }
}

/// Fewest rows the AMX form takes: one tile's.  It runs a window's whole
/// 16-row tiles and leaves the rest — all of a smaller window — to the
/// `vpdpbusd` form, because a tile instruction costs the same for one row as
/// for sixteen and a call pays `ldtilecfg` + `tilerelease`.  Measured on this
/// repo's layers (ReLU, best of 25, ns/row, AMX padding a partial tile against
/// `vpdpbusd`; loud 2-vcore Xeon): 141 × 141 at 4 rows 187 / 169, 8 rows
/// 166 / 171, 12 rows 123 / 153, 16 rows 104 / 147, 32 rows 78 / 147;
/// 35 × 64 at 8 rows 47 / 31, 12 rows 38 / 27, 16 rows 32 / 28, 32 rows
/// 23 / 27.  Over a whole model walk a partial tile of 8–15 rows is a wash
/// (the big layers gain what the 35-wide ones lose) and under 8 it loses, so
/// partial tiles are not built: the tiles then never read a row the window
/// does not have.  A measured constant, not an option — the frozen benchmark
/// has workloads on both sides of it (`mem_mixed` and `write_mix` walk 96-row
/// chunks; `serve_model` coalesces 8-key requests and `cold_mixed` predicts
/// ≈ 34 rows a call).
pub const AMX_MIN_ROWS: usize = TILE_ROWS;

thread_local! {
    static FORCED: Cell<Option<Kernel>> = const { Cell::new(None) };
    /// See [`with_avx512_disabled`].
    static DISABLE_AVX512: Cell<bool> = const { Cell::new(false) };
    /// See [`with_amx_disabled`].
    static DISABLE_AMX: Cell<bool> = const { Cell::new(false) };
}

/// Whether the vector dispatch should take the AVX-512 forms right now.
pub(crate) fn avx512_enabled() -> bool {
    !DISABLE_AVX512.with(|c| c.get()) && avx512_available()
}

/// Whether the int8 dispatch should take the AMX form right now (for the
/// whole tiles of a window).  The form finishes its tiles with the
/// `vpdpbusd` form's AVX-512 epilogue, so it goes when AVX-512 is switched off.
fn amx_enabled() -> bool {
    !DISABLE_AMX.with(|c| c.get()) && avx512_enabled() && vnni_available() && amx_available()
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

/// Runs `f` with the AMX form of the int8 forward disabled on the calling
/// thread, so the `vpdpbusd` form stays guarded on a host that has AMX — the
/// third test hook, with the same calling-thread scope as [`with_forced`].
pub fn with_amx_disabled<T>(f: impl FnOnce() -> T) -> T {
    let previous = DISABLE_AMX.with(|c| c.replace(true));
    let result = f();
    DISABLE_AMX.with(|c| c.set(previous));
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
///
/// A panel's `kquads` blocks are followed by zero blocks up to `kstride`, the
/// k-quads the AMX form's equal K steps cover (`tile_k_steps`; none for
/// `k = 141`, at most one block per step), so `quads` consecutive blocks from
/// any step's start are a B tile that never runs into the next panel and
/// meets only zero weights past the last real quad.  One layout for all four
/// forms: the other three walk `kquads` blocks of a `kstride`-block run.
///
/// The layout is derived state — a snapshot stores the row-major int8 weights
/// and the scales ([`weights_row_major`](Self::weights_row_major),
/// [`column_scales`](Self::column_scales)) and [`from_parts`](Self::from_parts)
/// rebuilds the panels — so it can change without touching a stored byte.
///
/// Quantization is part of the store's arithmetic recipe: the same panels
/// produce bit-identical predictions under the scalar, AVX2, `vpdpbusd` and
/// AMX forms, so a quantized snapshot serves losslessly on any of them.
#[derive(Debug, Clone)]
pub struct QuantizedPanels {
    k: usize,
    n: usize,
    /// `k.div_ceil(4)` — number of 64-byte weight blocks per panel.
    kquads: usize,
    /// Blocks from one panel's start to the next: `kquads` rounded up to
    /// whole AMX K steps, the extra blocks zero.
    kstride: usize,
    /// `panel_count() * kstride * 64` bytes (see the struct docs for layout).
    data: Vec<i8>,
    /// Per-column `−128 · Σₖ q[k][c]`, padded (with zeros) to the panel edge.
    offsets: Vec<i32>,
    /// Per-output-column dequantization scales (`max_abs / 127`, `1.0` for an
    /// all-zero column), padded to the panel edge.
    scales: Vec<f32>,
    /// f32 bias padded to the panel edge (zeros when the layer has none).
    bias: Vec<f32>,
    /// The weights on their side for the keys-in-lanes AMX form
    /// ([`argmax_prequantized`]), laid out by its first call over them: only
    /// output layers that run on AMX ever hold it.  Output column `c` (of
    /// `panel_count() * 16`, the padding columns zero) is one run of
    /// `kstride * 4` bytes from `c * kstride * 4` on, `q[kk][c]` at `kk`,
    /// zero past `k` — so sixteen columns' runs, `kstride * 4` apart, are an
    /// A tile of any K step.
    transposed: OnceLock<Vec<i8>>,
}

/// Equal panels are equal weights, scales and biases; the transposed copy is
/// derived from them, whether or not it has been laid out yet.
impl PartialEq for QuantizedPanels {
    fn eq(&self, other: &Self) -> bool {
        (self.k, self.n, self.kquads, self.kstride) == (other.k, other.n, other.kquads, other.kstride)
            && self.data == other.data
            && self.offsets == other.offsets
            && self.scales == other.scales
            && self.bias == other.bias
    }
}

/// Bytes of one (panel, k-quad) weight block.
const QBLOCK: usize = 4 * QLANES;

/// Rows ("keys") per group of the keys-in-lanes layout: one i32 lane each of
/// a 64-byte block.
const LANE_KEYS: usize = 16;

/// Rows of an AMX tile — and k-quads (i32 columns) of one, 16 × 64 bytes.
const TILE_ROWS: usize = 16;

/// How the AMX form walks `kquads` k-quads: `(steps, quads)`, `steps` K steps
/// of `quads ≤ 16` quads each.  Equal steps, so one tile shape serves the whole
/// walk and the padding they need is under one quad per step (36 quads are
/// 3 × 12, not 16 + 16 + 4 or 3 × 16 with a third of the blocks zero).  Both
/// operand layouts are sized from this: [`QuantizedPanels`] pads a panel's run
/// to `steps × quads` blocks, [`QuantizedRows`] owns as many bytes past its
/// last row's end.
fn tile_k_steps(kquads: usize) -> (usize, usize) {
    let steps = kquads.div_ceil(TILE_ROWS).max(1);
    (steps, kquads.div_ceil(steps))
}

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
    /// what [`quantize`](Self::quantize) produced at build time.
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
        let (steps, quads) = tile_k_steps(kquads);
        let kstride = steps * quads;
        let mut data = vec![0i8; panels * kstride * QBLOCK];
        let mut offsets = vec![0i32; panels * QLANES];
        for (i, &v) in q.iter().enumerate() {
            let (kk, c) = (i / n, i % n);
            data[((c / QLANES) * kstride + kk / 4) * QBLOCK + 4 * (c % QLANES) + kk % 4] = v;
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
            kstride,
            data,
            offsets,
            scales: padded_scales,
            bias: padded_bias,
            transposed: OnceLock::new(),
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
        &self.data[(p * self.kstride + g) * QBLOCK..][..QBLOCK]
    }

    /// The transposed layout (see the field), laid out on first use.
    fn transposed(&self) -> &[i8] {
        self.transposed.get_or_init(|| {
            let stride = self.kstride * 4;
            let mut transposed = vec![0i8; self.panel_count() * QLANES * stride];
            for (i, &v) in self.weights_row_major().iter().enumerate() {
                let (kk, c) = (i / self.n, i % self.n);
                transposed[c * stride + kk] = v;
            }
            transposed
        })
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
///
/// Rows are `k.div_ceil(4) * 4` bytes apart, which makes any sixteen
/// consecutive rows an AMX A tile.  The tile form only ever loads whole tiles
/// of the window's own rows, but its equal K steps can end past a row's last
/// quad (`tile_k_steps`): into the next row — stale or live bytes against
/// zero weight blocks — and, after the last row, into bytes the buffer must
/// own (`tile_span`).  [`fill`](Self::fill) sizes for that;
/// the AMX entry point checks it and refuses a buffer that falls short.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuantizedRows {
    k: usize,
    count: usize,
    /// At least `tile_span(count, k) + QROWS_SLACK` bytes, row-major.
    bytes: Vec<u8>,
    /// At least `count` per-row dequantization scales.
    scales: Vec<f32>,
    /// The rows with the keys in lanes, as [`argmax_prequantized`]'s vector
    /// forms read them (`lay_out_lanes`): per group of sixteen rows, per
    /// k-quad, one 64-byte block whose bytes `4j..4j + 4` are the quad of
    /// the group's row `j` — a B tile of the AMX form, one `vpdpbusd`
    /// operand of the others.
    lanes: Vec<u8>,
}

impl QuantizedRows {
    /// Grows the buffer, if it must, to hold `rows` rows of up to `k` values
    /// without allocating again.
    pub fn reserve(&mut self, rows: usize, k: usize) {
        let owned = Self::tile_span(rows, k) + QROWS_SLACK;
        if self.bytes.len() < owned {
            self.bytes.resize(owned, 0);
        }
        if self.scales.len() < rows {
            self.scales.resize(rows, 0.0);
        }
    }

    /// Bytes the AMX form's A tiles span over `rows` rows of `k` values: each
    /// row its padded width, the last one read to the end of the last K step
    /// (`tile_k_steps`).
    fn tile_span(rows: usize, k: usize) -> usize {
        let kquads = k.div_ceil(4);
        let (steps, quads) = tile_k_steps(kquads);
        (rows * kquads + steps * quads - kquads) * 4
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

    /// Lays the rows out with the keys in lanes (see the field), `kstride`
    /// blocks a group — the panels' run, whole AMX K steps: the blocks of
    /// the row's quads, then blocks that only ever meet zero weights, left
    /// as the buffer held them.  The lanes past the last row are `0x80`
    /// (`q = 0`).  With AVX-512 a block is one gather of sixteen rows' quad,
    /// and the scalar loop is the same copy.
    fn lay_out_lanes(&mut self, kernel: Kernel, kstride: usize) {
        let (kquads, count) = (self.k.div_ceil(4), self.count);
        let owned = count.div_ceil(LANE_KEYS) * kstride * QBLOCK;
        if self.lanes.len() < owned {
            self.lanes.resize(owned, 0x80);
        }
        let rows = &self.bytes[..count * kquads * 4];
        #[cfg(target_arch = "x86_64")]
        if matches!(kernel, Kernel::Vector) && avx512_enabled() {
            // Safety: AVX-512 F availability checked at runtime; both buffers
            // were sized above (the callee checks them again).
            unsafe { x86::lay_out_lanes_avx512(rows, kquads, kstride, &mut self.lanes) };
            return;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = kernel;
        for (group, rows) in self.lanes.chunks_exact_mut(kstride * QBLOCK).zip(rows.chunks(LANE_KEYS * kquads * 4)) {
            for (g, block) in group.chunks_exact_mut(QBLOCK).take(kquads).enumerate() {
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
/// the int8 forward picks its form: with AVX-512-VNNI, AMX tiles for the
/// window's whole [`AMX_MIN_ROWS`]-row tiles where the tile unit is there and
/// granted and `vpdpbusd` for the rest; the sign-transfer form with AVX2; the
/// scalar dot product otherwise.
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
        Kernel::Vector if avx512_enabled() && vnni_available() => {
            // The tile unit takes the window's whole tiles of rows, `vpdpbusd`
            // what is left — all of a window under `AMX_MIN_ROWS` rows.
            let tiled = if panels.k > 0 && amx_enabled() {
                count - count % AMX_MIN_ROWS
            } else {
                0
            };
            #[cfg(all(target_os = "linux", not(miri)))]
            if tiled > 0 {
                // A tile's last K step may read past a row's last quad, into
                // the next row and, after the last row, into what the buffer
                // must own past it.  A memory-safety check, like
                // `check_destination`.
                let span = QuantizedRows::tile_span(tiled, qrows.k);
                let Some(tiles) = qrows.bytes.get(..span) else {
                    return Err(NnError::ShapeMismatch {
                        context: format!(
                            "forward_prequantized: the tiles of {tiled} rows of {} values span {span} bytes, the buffer holds {}",
                            qrows.k,
                            qrows.bytes.len()
                        ),
                    });
                };
                let (scales, to) = (&xscales[..tiled], &mut out[..tiled * ld]);
                // Safety: AVX-512 F/BW/DQ and AMX-TILE/INT8 availability and
                // the OS grant checked at runtime; `tiled` is whole tiles; the
                // destination and the tiles' span of the rows were checked
                // above, and the panels pad every run to whole K steps by
                // construction.
                unsafe { x86::amx::forward_quantized(tiles, scales, panels, activation, to, ld) };
            }
            let (bytes, xscales) = (&bytes[tiled * panels.kquads * 4..], &xscales[tiled..]);
            let out = &mut out[tiled * ld..];
            // Safety: AVX-512 F/BW/DQ/VNNI availability checked at runtime;
            // the destination bounds were checked above.
            unsafe { x86::forward_quantized_vnni(bytes, xscales, panels, activation, out, ld) };
        }
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
/// compare-and-select per lane.  With AVX-512-VNNI the window's whole
/// [`AMX_MIN_ROWS`]-row groups take the AMX form where the tile unit is there
/// and granted (`tdpbsud`: the transposed weights as A tiles, the keys as B
/// tiles, C is 16 columns × 16 keys) and `vpdpbusd` the rest; with AVX2 the
/// sign-transfer arithmetic over half groups of eight keys; the scalar
/// reference otherwise reads the rows as they are.
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
            let tiled = if panels.k > 0 && amx_enabled() {
                count - count % AMX_MIN_ROWS
            } else {
                0
            };
            qrows.lay_out_lanes(kernel, panels.kstride);
            let (lanes, xscales) = (&qrows.lanes[..], &qrows.scales[..count]);
            #[cfg(all(target_os = "linux", not(miri)))]
            if tiled > 0 {
                // Safety: AVX-512 F/BW/DQ and AMX-TILE/INT8 availability and
                // the OS grant checked at runtime; `tiled` is whole groups,
                // laid out above; the destination was checked above.
                unsafe {
                    x86::amx::argmax_quantized(lanes, &xscales[..tiled], panels, activation, heads, out, stride)
                };
            }
            let lanes = &lanes[tiled / LANE_KEYS * panels.kstride * QBLOCK..];
            let (xscales, out) = (&xscales[tiled..], out.get_mut(tiled * stride..).unwrap_or_default());
            // Safety: AVX-512 F/BW/DQ/VNNI availability checked at runtime;
            // the lanes were laid out and the destination checked above.
            unsafe { x86::argmax_quantized_vnni(lanes, xscales, panels, activation, heads, out, stride) };
        }
        #[cfg(target_arch = "x86_64")]
        Kernel::Vector if vector_available() => {
            qrows.lay_out_lanes(kernel, panels.kstride);
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

    /// Row-block size of the forward micro-kernels: 4 rows sharing each
    /// panel-row load (AVX-512 additionally blocks 2 panels, so its inner
    /// loop holds 2 × 4 accumulator registers).
    const MR: usize = 4;

    /// Half-panel width of the AVX2 forms (one `__m256`).
    const HALF: usize = 8;

    /// Rows the f32 forward forms run one panel (AVX-512: one pair of
    /// panels) across before they take the next: the panels stay in L1 while
    /// the block's rows (`256 × 141` floats, for the frozen benchmark's trunk)
    /// stream from L2.  Walking every panel for each 4-row tile instead reads
    /// a layer wider than L1 — the 141 × 141 trunk layer's 9 panels are
    /// 81 KiB, the heads' 141 × 175 entry's 11 are 99 KiB — from L2 for every
    /// tile.  Scratch micro-benchmark, 2 048 rows, AVX-512, µs (best of 30,
    /// two rounds): 141 → 175 took 1 216–1 497 with the old order and
    /// 766–803 with blocks of 256 (512: 822–848, 1 024: 823–850, one block
    /// of every row: 863–1 273); 141 → 141 998–1 385 and 656–669; 141 → 141
    /// over 96-row windows (the walk's chunks) 985–1 159 and 650–672.  The
    /// order moves no output: every column is its own chain.
    const FORWARD_BLOCK_ROWS: usize = 256;

    /// One panel of rows `r..r+MR` in the AVX2 f32 form: `2 × MR` ymm
    /// accumulators sharing each panel-row load.
    #[inline(always)]
    unsafe fn avx2_tile<const MR: usize>(
        x: RowsView<'_>,
        panels: &PackedPanels,
        activation: Activation,
        out: &mut [f32],
        ld: usize,
        r: usize,
        p: usize,
    ) {
        let panel = panels.panel(p).as_ptr();
        let bias = panels.bias_panel(p).as_ptr();
        let rows: [&[f32]; MR] = std::array::from_fn(|j| x.row(r + j));
        let mut lo = [_mm256_loadu_ps(bias); MR];
        let mut hi = [_mm256_loadu_ps(bias.add(HALF)); MR];
        #[allow(clippy::needless_range_loop)] // kk indexes the rows and the panels in lockstep
        for kk in 0..panels.k {
            let w_lo = _mm256_loadu_ps(panel.add(kk * LANES));
            let w_hi = _mm256_loadu_ps(panel.add(kk * LANES + HALF));
            for j in 0..MR {
                let a = _mm256_set1_ps(rows[j][kk]);
                lo[j] = _mm256_fmadd_ps(a, w_lo, lo[j]);
                hi[j] = _mm256_fmadd_ps(a, w_hi, hi[j]);
            }
        }
        for j in 0..MR {
            let at = p * LANES;
            store_half_tiles(lo[j], hi[j], activation, out, (r + j) * ld + at, ld - at);
        }
    }

    /// The AVX2 f32 forward: each panel across a block of
    /// [`FORWARD_BLOCK_ROWS`] rows, `MR` at a time, before the next panel.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn forward_avx2(
        x: RowsView<'_>,
        panels: &PackedPanels,
        activation: Activation,
        out: &mut [f32],
        ld: usize,
    ) {
        for first in (0..x.count).step_by(FORWARD_BLOCK_ROWS) {
            let end = x.count.min(first + FORWARD_BLOCK_ROWS);
            for p in 0..panels.panel_count() {
                let mut r = first;
                while r < end {
                    if r + MR <= end {
                        avx2_tile::<MR>(x, panels, activation, out, ld, r, p);
                        r += MR;
                    } else {
                        avx2_tile::<1>(x, panels, activation, out, ld, r, p);
                        r += 1;
                    }
                }
            }
        }
    }

    /// `NP` panels of rows `r..r+MR` in the AVX-512 f32 form: `NP × MR` zmm
    /// accumulators sharing each set of panel-row loads.  Each output column is
    /// still one independent bias-initialized FMA chain over `k` — the
    /// identical recipe of the scalar and AVX2 forms.
    #[inline(always)]
    unsafe fn avx512_tile<const MR: usize, const NP: usize>(
        x: RowsView<'_>,
        panels: &PackedPanels,
        activation: Activation,
        out: &mut [f32],
        ld: usize,
        r: usize,
        p: usize,
    ) {
        let w: [*const f32; NP] = std::array::from_fn(|q| panels.panel(p + q).as_ptr());
        let rows: [&[f32]; MR] = std::array::from_fn(|j| x.row(r + j));
        let mut acc: [[__m512; NP]; MR] = [std::array::from_fn(|q| {
            _mm512_loadu_ps(panels.bias_panel(p + q).as_ptr())
        }); MR];
        #[allow(clippy::needless_range_loop)] // kk indexes the rows and the panels in lockstep
        for kk in 0..panels.k {
            let wk: [__m512; NP] = std::array::from_fn(|q| _mm512_loadu_ps(w[q].add(kk * LANES)));
            for j in 0..MR {
                let a = _mm512_set1_ps(rows[j][kk]);
                for q in 0..NP {
                    acc[j][q] = _mm512_fmadd_ps(a, wk[q], acc[j][q]);
                }
            }
        }
        for (j, row) in acc.iter().enumerate() {
            for (q, &tile) in row.iter().enumerate() {
                let at = (p + q) * LANES;
                store_tile512(tile, activation, out, (r + j) * ld + at, ld - at);
            }
        }
    }

    /// 2-panel × 4-row register-blocked AVX-512 forward (8 zmm accumulators),
    /// single rows and a single panel at the edges — each pair of panels
    /// across a block of [`FORWARD_BLOCK_ROWS`] rows before the next pair.
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512dq")]
    pub(super) unsafe fn forward_avx512(
        x: RowsView<'_>,
        panels: &PackedPanels,
        activation: Activation,
        out: &mut [f32],
        ld: usize,
    ) {
        let np = panels.panel_count();
        for first in (0..x.count).step_by(FORWARD_BLOCK_ROWS) {
            let end = x.count.min(first + FORWARD_BLOCK_ROWS);
            for p in (0..np).step_by(2) {
                let mut r = first;
                while r < end {
                    let whole = r + MR <= end;
                    match (whole, p + 2 <= np) {
                        (true, true) => avx512_tile::<MR, 2>(x, panels, activation, out, ld, r, p),
                        (true, false) => avx512_tile::<MR, 1>(x, panels, activation, out, ld, r, p),
                        (false, true) => avx512_tile::<1, 2>(x, panels, activation, out, ld, r, p),
                        (false, false) => avx512_tile::<1, 1>(x, panels, activation, out, ld, r, p),
                    }
                    r += if whole { MR } else { 1 };
                }
            }
        }
    }

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

    /// Rows per `vpdpbusd` register tile: with [`VNNI_NP`] panels that is
    /// 24 accumulators + 4 weight blocks + 1 broadcast of the 32 zmm
    /// registers, so one weight load serves 6 rows and one input broadcast
    /// serves 4 panels.
    const VNNI_MR: usize = 6;

    /// Panels per `vpdpbusd` register tile (see [`VNNI_MR`]).
    const VNNI_NP: usize = 4;

    /// One `MR × NP` register tile of the `vpdpbusd` form, accumulators to
    /// stored outputs: rows `r..r+MR` of the input bytes against panels
    /// `p..p+NP`.  `vpdpbusd` multiplies the unsigned `qₓ + 128` bytes by the
    /// signed weights, four `k` per lane; starting each accumulator at the
    /// column's `−128·Σ q_w` takes the bias out again, leaving `Σ qₓ·q_w`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn vnni_tile<const MR: usize, const NP: usize>(
        bytes: &[u8],
        xscales: &[f32],
        panels: &QuantizedPanels,
        activation: Activation,
        out: &mut [f32],
        ld: usize,
        r: usize,
        p: usize,
    ) {
        let (kquads, kstride) = (panels.kquads, panels.kstride);
        let x = bytes.as_ptr().add(r * kquads * 4) as *const i32;
        let w = panels.data.as_ptr().add(p * kstride * QBLOCK);
        let mut acc = [[_mm512_setzero_si512(); NP]; MR];
        for j in 0..NP {
            let offset = _mm512_loadu_si512(panels.offsets.as_ptr().add((p + j) * QLANES).cast());
            for row in acc.iter_mut() {
                row[j] = offset;
            }
        }
        for g in 0..kquads {
            let wq: [__m512i; NP] = std::array::from_fn(|j| {
                _mm512_loadu_si512(w.add((j * kstride + g) * QBLOCK).cast())
            });
            for (i, row) in acc.iter_mut().enumerate() {
                let xq = _mm512_set1_epi32(x.add(i * kquads + g).read_unaligned());
                for j in 0..NP {
                    row[j] = _mm512_dpbusd_epi32(row[j], xq, wq[j]);
                }
            }
        }
        for (i, row) in acc.iter().enumerate() {
            let xs = _mm512_set1_ps(xscales[r + i]);
            for (j, &a) in row.iter().enumerate() {
                finish_quantized_tile(a, xs, panels, activation, out, ld, r + i, p + j);
            }
        }
    }

    /// The int8 epilogue of the AVX-512 forms (`vpdpbusd` and AMX): one row's
    /// 16 exact integer sums for panel `p` to
    /// `act(fmadd(cvt(acc), x_scale · w_scale, bias))`, stored at that panel's
    /// columns of output row `row`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn finish_quantized_tile(
        acc: __m512i,
        xscale: __m512,
        panels: &QuantizedPanels,
        activation: Activation,
        out: &mut [f32],
        ld: usize,
        row: usize,
        p: usize,
    ) {
        let at = p * QLANES;
        let m = _mm512_mul_ps(xscale, _mm512_loadu_ps(panels.scales.as_ptr().add(at)));
        let y = _mm512_fmadd_ps(
            _mm512_cvtepi32_ps(acc),
            m,
            _mm512_loadu_ps(panels.bias.as_ptr().add(at)),
        );
        store_tile512(y, activation, out, row * ld + at, ld - at);
    }

    /// All panels of rows `r..r+MR`, [`VNNI_NP`] at a time.
    #[inline(always)]
    unsafe fn vnni_rows<const MR: usize>(
        bytes: &[u8],
        xscales: &[f32],
        panels: &QuantizedPanels,
        activation: Activation,
        out: &mut [f32],
        ld: usize,
        r: usize,
    ) {
        let np = panels.panel_count();
        let mut p = 0;
        while p + VNNI_NP <= np {
            vnni_tile::<MR, VNNI_NP>(bytes, xscales, panels, activation, out, ld, r, p);
            p += VNNI_NP;
        }
        match np - p {
            3 => vnni_tile::<MR, 3>(bytes, xscales, panels, activation, out, ld, r, p),
            2 => vnni_tile::<MR, 2>(bytes, xscales, panels, activation, out, ld, r, p),
            1 => vnni_tile::<MR, 1>(bytes, xscales, panels, activation, out, ld, r, p),
            _ => {}
        }
    }

    /// Int8 forward, AVX-512-VNNI form: 64 int8 products per `vpdpbusd`,
    /// register-blocked [`VNNI_MR`] rows × [`VNNI_NP`] panels, then the fixed
    /// f32 epilogue.
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
        let count = xscales.len();
        let mut r = 0;
        while r + VNNI_MR <= count {
            vnni_rows::<VNNI_MR>(bytes, xscales, panels, activation, out, ld, r);
            r += VNNI_MR;
        }
        match count - r {
            5 => vnni_rows::<5>(bytes, xscales, panels, activation, out, ld, r),
            4 => vnni_rows::<4>(bytes, xscales, panels, activation, out, ld, r),
            3 => vnni_rows::<3>(bytes, xscales, panels, activation, out, ld, r),
            2 => vnni_rows::<2>(bytes, xscales, panels, activation, out, ld, r),
            1 => vnni_rows::<1>(bytes, xscales, panels, activation, out, ld, r),
            _ => {}
        }
    }

    // -----------------------------------------------------------------------
    // Keys in lanes: an output layer's argmax in its epilogue.
    //
    // A column of the layer is one register of sixteen keys' (AVX2: eight
    // keys') exact sums; its epilogue is the row-major one lane for lane —
    // the same product `x_scale · w_scale`, the same `fma` — and each head
    // keeps, per lane, its best value so far and that value's class.  The
    // forms are compiled once per activation (`ACT`, [`act_code`]), so the
    // column loop holds no branch on it and no call.
    // -----------------------------------------------------------------------

    /// `ACT` of a linear layer.
    const ACT_LINEAR: u8 = 0;
    /// `ACT` of a ReLU layer.
    const ACT_RELU: u8 = 1;
    /// `ACT` of any other activation: applied to each column's lanes by the
    /// scalar recipe, through memory.
    const ACT_SCALAR: u8 = 2;

    /// Calls `$form::<ACT, $generics>($args)` with `ACT` the code of
    /// `$activation`.
    macro_rules! by_activation {
        ($form:ident [$($generic:expr),*], $activation:expr, ($($arg:expr),*)) => {
            match $activation {
                Activation::Linear => $form::<ACT_LINEAR $(, $generic)*>($($arg),*),
                Activation::Relu => $form::<ACT_RELU $(, $generic)*>($($arg),*),
                Activation::Sigmoid | Activation::Tanh => {
                    $form::<ACT_SCALAR $(, $generic)*>($($arg),*)
                }
            }
        };
    }

    /// The scalar recipe of `activation` over one register's lanes, out of
    /// line: only `ACT_SCALAR` forms call it.
    #[inline(never)]
    #[cold]
    fn apply_scalar(activation: Activation, values: &mut [f32]) {
        activation.apply_to(values);
    }

    /// [`QuantizedRows::lay_out_lanes`](super::QuantizedRows) over AVX-512:
    /// per group and quad, one gather of the sixteen rows' quads (`kquads`
    /// i32 apart), the lanes past the last row masked to `0x80`.
    ///
    /// # Safety
    /// AVX-512 F must be available.  `rows` is whole rows of `kquads` quads
    /// and `lanes` holds a group's `kstride ≥ kquads` blocks for each (both
    /// asserted), so every gathered lane and every store is inside them.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn lay_out_lanes_avx512(rows: &[u8], kquads: usize, kstride: usize, lanes: &mut [u8]) {
        let count = rows.len() / (kquads * 4).max(1);
        assert!(rows.len() == count * kquads * 4 && lanes.len() >= count.div_ceil(LANE_KEYS) * kstride * QBLOCK);
        let index = _mm512_mullo_epi32(
            _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
            _mm512_set1_epi32(kquads as i32),
        );
        let cold = _mm512_set1_epi8(0x80u8 as i8);
        for r in (0..count).step_by(LANE_KEYS) {
            let live = ((1u32 << (count - r).min(LANE_KEYS)) - 1) as u16;
            let src = rows.as_ptr().add(r * kquads * 4) as *const i32;
            let dst = lanes.as_mut_ptr().add(r / LANE_KEYS * kstride * QBLOCK);
            for g in 0..kquads {
                let quads = _mm512_mask_i32gather_epi32::<4>(cold, live, index, src.add(g).cast());
                _mm512_storeu_si512(dst.add(g * QBLOCK).cast(), quads);
            }
        }
    }

    /// Column `c`'s logits for sixteen keys in lanes: `acc` is their exact
    /// `Σ qₓ·q_w`, `xscales` their scales.
    ///
    /// # Safety
    /// AVX-512 F must be available (inlined into a form that enables it).
    #[inline(always)]
    unsafe fn lanes_logits512<const ACT: u8>(
        acc: __m512i,
        xscales: __m512,
        panels: &QuantizedPanels,
        c: usize,
        activation: Activation,
    ) -> __m512 {
        let m = _mm512_mul_ps(xscales, _mm512_set1_ps(panels.scales[c]));
        let bias = _mm512_set1_ps(panels.bias[c]);
        let y = _mm512_fmadd_ps(_mm512_cvtepi32_ps(acc), m, bias);
        match ACT {
            ACT_LINEAR => y,
            ACT_RELU => {
                // The row-major store's ReLU (`store_tile512`).
                let lt = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(y, _mm512_setzero_ps());
                _mm512_maskz_mov_ps(!lt, y)
            }
            _ => {
                let mut values = [0.0f32; LANES];
                _mm512_storeu_ps(values.as_mut_ptr(), y);
                apply_scalar(activation, &mut values);
                _mm512_loadu_ps(values.as_ptr())
            }
        }
    }

    /// The heads' running argmax over one group of sixteen keys in lanes,
    /// fed every column of the layer once, in column order.  Per lane: the
    /// best value so far and its class; a column replaces them where it
    /// compares ordered-greater (`>`: a tie keeps the lower class, a NaN
    /// never wins, `-∞` never beats the `-∞` a head starts from, whose class
    /// is 0).  A head's classes go out when the columns leave it.
    struct Tops512<'a> {
        heads: &'a [usize],
        head: usize,
        /// The current head's first column and one past its last.
        start: usize,
        end: usize,
        best: __m512,
        class: __m512i,
        /// The output row of the group's first key, and how many of its
        /// sixteen keys are rows.
        first: usize,
        live: usize,
    }

    /// # Safety
    /// Every method needs AVX-512 F (they are inlined into the forms that
    /// enable it); the classes are written through checked indexing.
    impl<'a> Tops512<'a> {
        #[inline(always)]
        unsafe fn new(heads: &'a [usize], first: usize, live: usize) -> Self {
            Tops512 {
                heads,
                head: 0,
                start: 0,
                end: heads[0],
                best: _mm512_set1_ps(f32::NEG_INFINITY),
                class: _mm512_setzero_si512(),
                first,
                live,
            }
        }

        /// Column `c`'s logits.
        #[inline(always)]
        unsafe fn column(&mut self, c: usize, y: __m512, out: &mut [u32], stride: usize) {
            while c >= self.end {
                self.next_head(out, stride);
            }
            let gt = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(y, self.best);
            self.best = _mm512_mask_mov_ps(self.best, gt, y);
            self.class = _mm512_mask_mov_epi32(self.class, gt, _mm512_set1_epi32((c - self.start) as i32));
        }

        /// Writes the current head's classes and starts the next head.
        #[inline(always)]
        unsafe fn next_head(&mut self, out: &mut [u32], stride: usize) {
            let mut classes = [0u32; LANES];
            _mm512_storeu_si512(classes.as_mut_ptr().cast(), self.class);
            for (key, &class) in classes.iter().enumerate().take(self.live) {
                out[(self.first + key) * stride + self.head] = class;
            }
            self.best = _mm512_set1_ps(f32::NEG_INFINITY);
            self.class = _mm512_setzero_si512();
            self.head += 1;
            self.start = self.end;
            self.end += self.heads.get(self.head).copied().unwrap_or(0);
        }

        /// Writes the classes of the heads the columns did not leave.
        #[inline(always)]
        unsafe fn finish(mut self, out: &mut [u32], stride: usize) {
            while self.head < self.heads.len() {
                self.next_head(out, stride);
            }
        }
    }

    /// [`super::argmax_prequantized`], `vpdpbusd` form with the keys in
    /// lanes: per group of sixteen keys (the last one masked) and per panel,
    /// sixteen accumulators — one per column, each started at the column's
    /// `−128·Σ q_w` — and per k-quad one load of the keys' quads against one
    /// broadcast of each column's; then the columns in order through the
    /// epilogue into the heads' argmax.
    ///
    /// # Safety
    /// AVX-512 F/BW/DQ/VNNI must be available; `lanes` holds every group of
    /// `xscales.len()` rows laid out (asserted), the heads cover the panels'
    /// columns and `out` has room for every row's heads `stride` apart (the
    /// entry point checks both; the writes are checked indexing).
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
        let count = xscales.len();
        assert!(lanes.len() >= count.div_ceil(LANE_KEYS) * panels.kstride * QBLOCK);
        by_activation!(vnni_lanes[], activation, (lanes, xscales, panels, activation, heads, out, stride));
    }

    /// The body of [`argmax_quantized_vnni`], for one activation.
    ///
    /// # Safety
    /// As [`argmax_quantized_vnni`], which it is inlined into.
    #[inline(always)]
    unsafe fn vnni_lanes<const ACT: u8>(
        lanes: &[u8],
        xscales: &[f32],
        panels: &QuantizedPanels,
        activation: Activation,
        heads: &[usize],
        out: &mut [u32],
        stride: usize,
    ) {
        let count = xscales.len();
        let (kquads, kstride, n) = (panels.kquads, panels.kstride, panels.n);
        for r in (0..count).step_by(LANE_KEYS) {
            let live = (count - r).min(LANE_KEYS);
            let x = lanes.as_ptr().add(r / LANE_KEYS * kstride * QBLOCK);
            let xs = _mm512_maskz_loadu_ps((u32::MAX >> (32 - live)) as u16, xscales.as_ptr().add(r));
            let mut tops = Tops512::new(heads, r, live);
            for p in 0..panels.panel_count() {
                let w = panels.data.as_ptr().add(p * kstride * QBLOCK);
                let offsets = panels.offsets.as_ptr().add(p * QLANES);
                let mut acc = [_mm512_setzero_si512(); QLANES];
                for (c, a) in acc.iter_mut().enumerate() {
                    *a = _mm512_set1_epi32(*offsets.add(c));
                }
                for g in 0..kquads {
                    let xg = _mm512_loadu_si512(x.add(g * QBLOCK).cast());
                    let wg = w.add(g * QBLOCK) as *const i32;
                    for (c, a) in acc.iter_mut().enumerate() {
                        *a = _mm512_dpbusd_epi32(*a, xg, _mm512_set1_epi32(wg.add(c).read_unaligned()));
                    }
                }
                for (c, &a) in acc.iter().enumerate().take(n - p * QLANES) {
                    let col = p * QLANES + c;
                    let y = lanes_logits512::<ACT>(a, xs, panels, col, activation);
                    tops.column(col, y, out, stride);
                }
            }
            tops.finish(out, stride);
        }
    }

    /// [`super::argmax_prequantized`], AVX2 form with the keys in lanes: half
    /// groups of eight keys (one `__m256i` of quads), eight columns at a
    /// time, the sign-transfer arithmetic of [`avx2_quantized_tile`] with the
    /// broadcast on the weight's side, then the epilogue and the heads'
    /// argmax lane for lane.
    ///
    /// # Safety
    /// AVX2 and FMA must be available; otherwise as
    /// [`argmax_quantized_vnni`].
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
        let count = xscales.len();
        assert!(lanes.len() >= count.div_ceil(LANE_KEYS) * panels.kstride * QBLOCK);
        by_activation!(avx2_lanes[], activation, (lanes, xscales, panels, activation, heads, out, stride));
    }

    /// Writes eight keys' classes of head `head`, the first `live` of them.
    ///
    /// # Safety
    /// AVX2 must be available; the writes are checked indexing.
    #[inline(never)]
    #[cold]
    #[target_feature(enable = "avx2")]
    unsafe fn emit_classes256(
        class: &__m256i,
        out: &mut [u32],
        first: usize,
        live: usize,
        stride: usize,
        head: usize,
    ) {
        let mut classes = [0u32; HALF];
        _mm256_storeu_si256(classes.as_mut_ptr().cast(), *class);
        for (key, &class) in classes.iter().enumerate().take(live) {
            out[(first + key) * stride + head] = class;
        }
    }

    /// The body of [`argmax_quantized_avx2`], for one activation.
    ///
    /// # Safety
    /// As [`argmax_quantized_avx2`], which it is inlined into.
    #[inline(always)]
    unsafe fn avx2_lanes<const ACT: u8>(
        lanes: &[u8],
        xscales: &[f32],
        panels: &QuantizedPanels,
        activation: Activation,
        heads: &[usize],
        out: &mut [u32],
        stride: usize,
    ) {
        let count = xscales.len();
        let (kquads, kstride, n) = (panels.kquads, panels.kstride, panels.n);
        let unbias = _mm256_set1_epi8(-128);
        let ones = _mm256_set1_epi16(1);
        for r in (0..count).step_by(HALF) {
            let live = (count - r).min(HALF);
            let x = lanes.as_ptr().add(r / LANE_KEYS * kstride * QBLOCK + r % LANE_KEYS * 4);
            let mut scales = [0.0f32; HALF];
            scales[..live].copy_from_slice(&xscales[r..r + live]);
            let xs = _mm256_loadu_ps(scales.as_ptr());
            let (mut head, mut start, mut end) = (0, 0, heads[0]);
            let mut best = _mm256_set1_ps(f32::NEG_INFINITY);
            let mut class = _mm256_setzero_si256();
            for c0 in (0..n).step_by(HALF) {
                let (p, lane) = (c0 / QLANES, c0 % QLANES);
                let w = panels.data.as_ptr().add(p * kstride * QBLOCK + 4 * lane);
                let mut acc = [_mm256_setzero_si256(); HALF];
                for g in 0..kquads {
                    let xq = _mm256_xor_si256(_mm256_loadu_si256(x.add(g * QBLOCK).cast()), unbias);
                    let magnitude = _mm256_abs_epi8(xq);
                    let wg = w.add(g * QBLOCK) as *const i32;
                    for (c, a) in acc.iter_mut().enumerate() {
                        let signed = _mm256_sign_epi8(_mm256_set1_epi32(wg.add(c).read_unaligned()), xq);
                        let pairs = _mm256_maddubs_epi16(magnitude, signed);
                        *a = _mm256_add_epi32(*a, _mm256_madd_epi16(pairs, ones));
                    }
                }
                for (c, &a) in acc.iter().enumerate().take(n - c0) {
                    let col = c0 + c;
                    let m = _mm256_mul_ps(xs, _mm256_set1_ps(panels.scales[col]));
                    let bias = _mm256_set1_ps(panels.bias[col]);
                    let mut y = _mm256_fmadd_ps(_mm256_cvtepi32_ps(a), m, bias);
                    y = match ACT {
                        ACT_LINEAR => y,
                        ACT_RELU => {
                            let lt = _mm256_cmp_ps::<_CMP_LT_OQ>(y, _mm256_setzero_ps());
                            _mm256_andnot_ps(lt, y)
                        }
                        _ => {
                            let mut values = [0.0f32; HALF];
                            _mm256_storeu_ps(values.as_mut_ptr(), y);
                            apply_scalar(activation, &mut values);
                            _mm256_loadu_ps(values.as_ptr())
                        }
                    };
                    while col >= end {
                        emit_classes256(&class, out, r, live, stride, head);
                        (best, class) = (_mm256_set1_ps(f32::NEG_INFINITY), _mm256_setzero_si256());
                        head += 1;
                        (start, end) = (end, end + heads[head]);
                    }
                    let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(y, best);
                    best = _mm256_blendv_ps(best, y, gt);
                    let this = _mm256_set1_epi32((col - start) as i32);
                    class = _mm256_blendv_epi8(class, this, _mm256_castps_si256(gt));
                }
            }
            loop {
                emit_classes256(&class, out, r, live, stride, head);
                head += 1;
                if head == heads.len() {
                    break;
                }
                class = _mm256_setzero_si256();
            }
        }
    }

    /// The AMX form of the int8 forward, and asking the OS for the tile state
    /// it needs.  Linux only (the grant is a Linux system call) and compiled
    /// out under Miri (`asm!`).
    #[cfg(all(target_os = "linux", not(miri)))]
    pub(super) mod amx {
        use super::super::{
            tile_k_steps, QuantizedPanels, QuantizedRows, LANE_KEYS, QBLOCK, QLANES, TILE_ROWS,
        };
        use super::{finish_quantized_tile, lanes_logits512, Tops512, ACT_LINEAR, ACT_RELU, ACT_SCALAR};
        use crate::layer::Activation;
        use std::arch::asm;
        use std::arch::x86_64::*;

        /// Whether this CPU has AMX-TILE and AMX-INT8 with palette 1 as the
        /// kernel assumes it (eight 16-row × 64-byte tiles) and the kernel
        /// grants the process `XTILEDATA`.  The request is idempotent and
        /// process-wide: threads that exist already may use tiles afterwards.
        pub(in crate::kernel) fn request_tile_state() -> bool {
            const AMX_TILE: u32 = 1 << 24;
            const AMX_INT8: u32 = 1 << 25;
            const PALETTE_LEAF: u32 = 0x1D;
            // (`__cpuid*` are `unsafe` on older toolchains only.)
            #[allow(unused_unsafe)]
            let (features, palette) = unsafe {
                if __cpuid(0).eax < PALETTE_LEAF {
                    return false;
                }
                (__cpuid_count(7, 0).edx, __cpuid_count(PALETTE_LEAF, 1))
            };
            if features & AMX_TILE == 0 || features & AMX_INT8 == 0 {
                return false;
            }
            let (tile_bytes, row_bytes) = (palette.eax >> 16, palette.ebx & 0xFFFF);
            let (tiles, rows) = (palette.ebx >> 16, palette.ecx & 0xFFFF);
            if (tile_bytes, row_bytes, tiles, rows) != (1024, 64, 8, TILE_ROWS as u32) {
                return false;
            }
            const SYS_ARCH_PRCTL: i64 = 158;
            const ARCH_REQ_XCOMP_PERM: u64 = 0x1023;
            const XFEATURE_XTILEDATA: u64 = 18;
            let status: i64;
            // SAFETY: `arch_prctl(ARCH_REQ_XCOMP_PERM, XTILEDATA)` takes two
            // integers and touches no memory of ours; `syscall` clobbers rcx
            // and r11, declared.  On a kernel without the call it returns an
            // error, which reads as "not granted".
            unsafe {
                asm!(
                    "syscall",
                    inlateout("rax") SYS_ARCH_PRCTL => status,
                    in("rdi") ARCH_REQ_XCOMP_PERM,
                    in("rsi") XFEATURE_XTILEDATA,
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack),
                );
            }
            status == 0
        }

        /// `asm!` that touches tile state: every block declares all eight tile
        /// registers clobbered (they are a clobber-only register class).
        macro_rules! tile_asm {
            ($($body:tt)*) => {
                asm!(
                    $($body)*
                    out("tmm0") _, out("tmm1") _, out("tmm2") _, out("tmm3") _,
                    out("tmm4") _, out("tmm5") _, out("tmm6") _, out("tmm7") _,
                )
            };
        }

        /// The 64-byte `ldtilecfg` operand: palette 1, then each tile's bytes
        /// per row and rows.
        #[repr(C, align(64))]
        struct TileConfig {
            palette: u8,
            start_row: u8,
            reserved: [u8; 14],
            colsb: [u16; 16],
            rows: [u8; 16],
        }

        /// The four C tiles of one block as `tilestored` leaves them: tile
        /// `2·i + j` (row tile `i`, panel `j`) is 16 rows of 16 i32.
        #[repr(C, align(64))]
        struct CTiles([i32; 4 * TILE_ROWS * QLANES]);

        /// Tiles stay configured while this lives; `tilerelease` on the way
        /// out — a panic included — so no thread carries live tile state (which
        /// every context switch would have to save) out of a layer call.
        struct Configured;

        impl Configured {
            /// # Safety
            /// AMX-TILE must be available and tile state granted.
            unsafe fn load(config: &TileConfig) -> Self {
                tile_asm!(
                    "ldtilecfg [{config}]",
                    config = in(reg) config as *const TileConfig,
                    options(nostack, readonly, preserves_flags),
                );
                Configured
            }
        }

        impl Drop for Configured {
            fn drop(&mut self) {
                // SAFETY: a `Configured` exists only where `load` ran.
                unsafe {
                    tile_asm!("tilerelease", options(nostack, nomem, preserves_flags),);
                }
            }
        }

        /// Int8 forward, AMX form, over whole tiles of rows.  Row blocks of two
        /// A tiles (32 rows) against panel pairs (two B tiles) into four C
        /// tiles — each loaded tile feeds two `tdpbusd` — with the K walk of
        /// one block in a single `asm!` block; a last block of one row tile
        /// skips the second, an odd last panel the second column tile.  The C
        /// tiles go to the stack and through [`finish_quantized_tile`].
        ///
        /// `tiles` is the rows buffer out to everything the A tiles span: the
        /// `xscales.len()` rows, `panels.kquads * 4` bytes each, plus the K
        /// steps' overhang past the last (asserted).
        ///
        /// # Safety
        /// AVX-512 F/BW/DQ and AMX-TILE/INT8 must be available, tile state
        /// granted, `xscales.len()` a multiple of 16, and `out` must hold that
        /// many rows `ld ≥ panels.n` apart.
        #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512dq")]
        pub(in crate::kernel) unsafe fn forward_quantized(
            tiles: &[u8],
            xscales: &[f32],
            panels: &QuantizedPanels,
            activation: Activation,
            out: &mut [f32],
            ld: usize,
        ) {
            let count = xscales.len();
            let width = panels.kquads * 4;
            let (steps, quads) = tile_k_steps(panels.kquads);
            assert!(quads > 0 && steps * quads == panels.kstride, "panels pad to whole K steps");
            assert!(
                count.is_multiple_of(TILE_ROWS)
                    && tiles.len() >= QuantizedRows::tile_span(count, panels.k),
                "whole tiles of rows, in a buffer that owns every byte they span"
            );
            // C: 16 rows × 16 i32.  A: 16 rows × `quads` quads of input bytes.
            // B: `quads` blocks × 64 bytes of weights.
            let mut config = TileConfig {
                palette: 1,
                start_row: 0,
                reserved: [0; 14],
                colsb: [0; 16],
                rows: [0; 16],
            };
            for tile in 0..8 {
                let (rows, colsb) = match tile {
                    0..=3 => (TILE_ROWS, QBLOCK),
                    4 | 5 => (TILE_ROWS, quads * 4),
                    _ => (quads, QBLOCK),
                };
                (config.rows[tile], config.colsb[tile]) = (rows as u8, colsb as u16);
            }
            let mut c = CTiles([0; 4 * TILE_ROWS * QLANES]);
            let np = panels.panel_count();
            let _configured = Configured::load(&config);
            for r in (0..count).step_by(2 * TILE_ROWS) {
                let rows = (count - r).min(2 * TILE_ROWS);
                let a0 = tiles.as_ptr().add(r * width);
                for p in (0..np).step_by(2) {
                    let pair = p + 1 < np;
                    let b0 = panels.data.as_ptr().add(p * panels.kstride * QBLOCK);
                    // Bit 0: a second panel; bit 1: a second row tile.
                    let shape = pair as u32 | ((rows > TILE_ROWS) as u32) << 1;
                    // The second tiles' addresses are only formed, never
                    // loaded from, where `shape` leaves them out.
                    tile_asm!(
                        "tilezero tmm0",
                        "tilezero tmm1",
                        "tilezero tmm2",
                        "tilezero tmm3",
                        "2:",
                        "tileloadd tmm4, [{a0} + {lda}*1]",
                        "tileloadd tmm6, [{b0} + {ldb}*1]",
                        "tdpbusd tmm0, tmm4, tmm6",
                        "test {shape:e}, 1",
                        "jz 3f",
                        "tileloadd tmm7, [{b1} + {ldb}*1]",
                        "tdpbusd tmm1, tmm4, tmm7",
                        "3:",
                        "test {shape:e}, 2",
                        "jz 4f",
                        "tileloadd tmm5, [{a1} + {lda}*1]",
                        "tdpbusd tmm2, tmm5, tmm6",
                        "test {shape:e}, 1",
                        "jz 4f",
                        "tdpbusd tmm3, tmm5, tmm7",
                        "4:",
                        "add {a0}, {astep}",
                        "add {a1}, {astep}",
                        "add {b0}, {bstep}",
                        "add {b1}, {bstep}",
                        "dec {steps}",
                        "jnz 2b",
                        "tilestored [{c} + {ldb}*1], tmm0",
                        "tilestored [{c} + {ldb}*1 + 1024], tmm1",
                        "tilestored [{c} + {ldb}*1 + 2048], tmm2",
                        "tilestored [{c} + {ldb}*1 + 3072], tmm3",
                        a0 = inout(reg) a0 => _,
                        a1 = inout(reg) a0.wrapping_add(TILE_ROWS * width) => _,
                        b0 = inout(reg) b0 => _,
                        b1 = inout(reg) b0.wrapping_add(panels.kstride * QBLOCK) => _,
                        lda = in(reg) width,
                        ldb = in(reg) QBLOCK,
                        astep = in(reg) quads * 4,
                        bstep = in(reg) quads * QBLOCK,
                        steps = inout(reg) steps => _,
                        shape = in(reg) shape,
                        c = in(reg) c.0.as_mut_ptr(),
                        options(nostack),
                    );
                    for i in 0..rows {
                        let xs = _mm512_set1_ps(xscales[r + i]);
                        for j in 0..1 + pair as usize {
                            let tile = 2 * (i / TILE_ROWS) + j;
                            let sums = c.0.as_ptr().add((tile * TILE_ROWS + i % TILE_ROWS) * QLANES);
                            let offset = panels.offsets.as_ptr().add((p + j) * QLANES);
                            let acc = _mm512_add_epi32(
                                _mm512_load_si512(sums.cast()),
                                _mm512_loadu_si512(offset.cast()),
                            );
                            let (row, panel) = (r + i, p + j);
                            finish_quantized_tile(acc, xs, panels, activation, out, ld, row, panel);
                        }
                    }
                }
            }
        }
        /// [`super::super::argmax_prequantized`], AMX form, over whole groups
        /// of sixteen keys in lanes: C is the transposed product, 16 columns
        /// × 16 keys, `tdpbsud` of the transposed weights (signed, the A
        /// tile: sixteen columns' runs, `kstride * 4` apart) by the keys'
        /// quads (unsigned `qₓ + 128`, the B tile: the group's blocks, 64
        /// apart).  Per group, panel pairs, each one `asm!` block — the K
        /// walk into two C tiles, stored to one of two stack buffers — and
        /// the epilogue of the pair before it, from the other buffer: it runs
        /// while the tile unit works on the next pair, and never waits on the
        /// stores it reads.  Each C row, plus its column's `−128·Σ q_w`, is
        /// the column's exact sums for sixteen keys, and goes through the
        /// epilogue into the heads' argmax in column order.
        ///
        /// # Safety
        /// As [`forward_quantized`]; `lanes` holds `xscales.len() / 16`
        /// groups of `panels.kstride` blocks (asserted), and `out` has room
        /// for every row's heads `stride` apart.
        #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512dq")]
        pub(in crate::kernel) unsafe fn argmax_quantized(
            lanes: &[u8],
            xscales: &[f32],
            panels: &QuantizedPanels,
            activation: Activation,
            heads: &[usize],
            out: &mut [u32],
            stride: usize,
        ) {
            let count = xscales.len();
            let kstride = panels.kstride;
            let (steps, quads) = tile_k_steps(panels.kquads);
            assert!(quads > 0 && steps * quads == kstride, "panels pad to whole K steps");
            assert!(
                count.is_multiple_of(LANE_KEYS) && lanes.len() >= count / LANE_KEYS * kstride * QBLOCK,
                "whole groups of keys, laid out in lanes"
            );
            assert_eq!(panels.transposed().len(), panels.panel_count() * QLANES * kstride * 4);
            // C: 16 columns × 16 keys of i32 (two per pair).  A: 16 columns ×
            // `quads` quads of weights.  B: `quads` blocks × 64 bytes of keys.
            let mut config = TileConfig {
                palette: 1,
                start_row: 0,
                reserved: [0; 14],
                colsb: [0; 16],
                rows: [0; 16],
            };
            for (tile, (rows, colsb)) in
                [(TILE_ROWS, QBLOCK), (TILE_ROWS, QBLOCK), (TILE_ROWS, quads * 4), (TILE_ROWS, quads * 4), (quads, QBLOCK)]
                    .into_iter()
                    .enumerate()
            {
                (config.rows[tile], config.colsb[tile]) = (rows as u8, colsb as u16);
            }
            let mut c = CTiles([0; 4 * TILE_ROWS * QLANES]);
            let _configured = Configured::load(&config);
            let group = (lanes, xscales, panels, activation, heads, &mut c);
            by_activation!(key_group[], activation, (group, out, stride));
        }

        /// What every group of [`argmax_quantized`] reads.
        type Group<'a> = (&'a [u8], &'a [f32], &'a QuantizedPanels, Activation, &'a [usize], &'a mut CTiles);

        /// Every group of sixteen keys against every panel pair (see
        /// [`argmax_quantized`]), with the tiles configured.
        ///
        /// # Safety
        /// As [`argmax_quantized`], which it is inlined into after it
        /// checked the lanes and the panels' layout and loaded the tile
        /// configuration; the tiles it loads stay inside the transposed
        /// weights (sixteen runs of `kstride * 4` bytes a panel) and the
        /// group's `kstride` blocks, and it stores them to `c`.
        #[inline(always)]
        unsafe fn key_group<const ACT: u8>(
            (lanes, xscales, panels, activation, heads, c): Group<'_>,
            out: &mut [u32],
            stride: usize,
        ) {
            let (kstride, np) = (panels.kstride, panels.panel_count());
            let (steps, quads) = tile_k_steps(panels.kquads);
            let transposed = panels.transposed();
            for r in (0..xscales.len()).step_by(LANE_KEYS) {
                let b = lanes.as_ptr().add(r / LANE_KEYS * kstride * QBLOCK);
                let xs = _mm512_loadu_ps(xscales.as_ptr().add(r));
                let mut tops = Tops512::new(heads, r, LANE_KEYS);
                for (i, p) in (0..np).step_by(2).enumerate() {
                    let a0 = transposed.as_ptr().add(p * QLANES * kstride * 4);
                    let pair = (p + 1 < np) as u32;
                    // The second panel's address is only formed, never loaded
                    // from, without one.
                    tile_asm!(
                        "tilezero tmm0",
                        "tilezero tmm1",
                        "2:",
                        "tileloadd tmm2, [{a0} + {lda}*1]",
                        "tileloadd tmm4, [{b} + {ldb}*1]",
                        "tdpbsud tmm0, tmm2, tmm4",
                        "test {pair:e}, 1",
                        "jz 3f",
                        "tileloadd tmm3, [{a1} + {lda}*1]",
                        "tdpbsud tmm1, tmm3, tmm4",
                        "3:",
                        "add {a0}, {astep}",
                        "add {a1}, {astep}",
                        "add {b}, {bstep}",
                        "dec {steps}",
                        "jnz 2b",
                        "tilestored [{c} + {ldb}*1], tmm0",
                        "tilestored [{c} + {ldb}*1 + 1024], tmm1",
                        a0 = inout(reg) a0 => _,
                        a1 = inout(reg) a0.wrapping_add(QLANES * kstride * 4) => _,
                        b = inout(reg) b => _,
                        lda = in(reg) kstride * 4,
                        ldb = in(reg) QBLOCK,
                        astep = in(reg) quads * 4,
                        bstep = in(reg) quads * QBLOCK,
                        steps = inout(reg) steps => _,
                        pair = in(reg) pair,
                        c = in(reg) c.0.as_mut_ptr().add(i % 2 * 2 * TILE_ROWS * QLANES),
                        options(nostack),
                    );
                    if i > 0 {
                        let sums = &c.0[(i - 1) % 2 * 2 * TILE_ROWS * QLANES..];
                        pair_epilogue::<ACT>(&mut tops, sums, xs, panels, activation, p - 2, out, stride);
                    }
                }
                let last = (np - 1) / 2;
                let sums = &c.0[last % 2 * 2 * TILE_ROWS * QLANES..];
                pair_epilogue::<ACT>(&mut tops, sums, xs, panels, activation, 2 * last, out, stride);
                tops.finish(out, stride);
            }
        }

        /// The epilogue of panel pair `p` (`p + 1` if there is one) for one
        /// group of keys, whose C tiles are `sums`, one after the other.
        ///
        /// # Safety
        /// AVX-512 F must be available; `sums` holds two C tiles (asserted).
        #[inline(always)]
        #[allow(clippy::too_many_arguments)]
        unsafe fn pair_epilogue<const ACT: u8>(
            tops: &mut Tops512<'_>,
            sums: &[i32],
            xs: __m512,
            panels: &QuantizedPanels,
            activation: Activation,
            p: usize,
            out: &mut [u32],
            stride: usize,
        ) {
            assert!(sums.len() >= 2 * TILE_ROWS * QLANES);
            for j in 0..2.min(panels.panel_count() - p) {
                for lane in 0..QLANES.min(panels.n - (p + j) * QLANES) {
                    let col = (p + j) * QLANES + lane;
                    let offset = _mm512_set1_epi32(panels.offsets[col]);
                    let row = sums.as_ptr().add((j * TILE_ROWS + lane) * QLANES);
                    let acc = _mm512_add_epi32(_mm512_load_si512(row.cast()), offset);
                    let y = lanes_logits512::<ACT>(acc, xs, panels, col, activation);
                    tops.column(col, y, out, stride);
                }
            }
        }
    }

    /// One panel of rows `r..r+MR` in the AVX2 form, the 64-byte weight block
    /// as two 8-column halves.  Per row and quad: un-bias the four input
    /// bytes (`⊕ 0x80`), split them into `|qₓ|` (`vpabsb`) and a sign that
    /// `vpsignb` moves onto the weights, multiply unsigned × signed with
    /// `vpmaddubsw` (pair sums `≤ 2·127²`, inside i16) and widen the pairs to
    /// the quad's i32 sum with `vpmaddwd` against ones.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn avx2_quantized_tile<const MR: usize>(
        bytes: &[u8],
        xscales: &[f32],
        panels: &QuantizedPanels,
        activation: Activation,
        out: &mut [f32],
        ld: usize,
        r: usize,
        p: usize,
    ) {
        let kquads = panels.kquads;
        let x = bytes.as_ptr().add(r * kquads * 4) as *const i32;
        let w = panels.data.as_ptr().add(p * panels.kstride * QBLOCK);
        let unbias = _mm256_set1_epi8(-128);
        let ones = _mm256_set1_epi16(1);
        let mut lo = [_mm256_setzero_si256(); MR];
        let mut hi = [_mm256_setzero_si256(); MR];
        for g in 0..kquads {
            let w_lo = _mm256_loadu_si256(w.add(g * QBLOCK).cast());
            let w_hi = _mm256_loadu_si256(w.add(g * QBLOCK + QBLOCK / 2).cast());
            for i in 0..MR {
                let xq = _mm256_xor_si256(
                    _mm256_set1_epi32(x.add(i * kquads + g).read_unaligned()),
                    unbias,
                );
                let magnitude = _mm256_abs_epi8(xq);
                let pairs_lo = _mm256_maddubs_epi16(magnitude, _mm256_sign_epi8(w_lo, xq));
                let pairs_hi = _mm256_maddubs_epi16(magnitude, _mm256_sign_epi8(w_hi, xq));
                lo[i] = _mm256_add_epi32(lo[i], _mm256_madd_epi16(pairs_lo, ones));
                hi[i] = _mm256_add_epi32(hi[i], _mm256_madd_epi16(pairs_hi, ones));
            }
        }
        let at = p * QLANES;
        for i in 0..MR {
            let xs = _mm256_set1_ps(xscales[r + i]);
            let m_lo = _mm256_mul_ps(xs, _mm256_loadu_ps(panels.scales.as_ptr().add(at)));
            let m_hi = _mm256_mul_ps(xs, _mm256_loadu_ps(panels.scales.as_ptr().add(at + HALF)));
            let y_lo = _mm256_fmadd_ps(
                _mm256_cvtepi32_ps(lo[i]),
                m_lo,
                _mm256_loadu_ps(panels.bias.as_ptr().add(at)),
            );
            let y_hi = _mm256_fmadd_ps(
                _mm256_cvtepi32_ps(hi[i]),
                m_hi,
                _mm256_loadu_ps(panels.bias.as_ptr().add(at + HALF)),
            );
            store_half_tiles(y_lo, y_hi, activation, out, (r + i) * ld + at, ld - at);
        }
    }

    /// Int8 forward, AVX2 form (see [`avx2_quantized_tile`]): 4 rows share
    /// each pair of weight loads (8 accumulators of the 16 ymm registers).
    /// Also what an AVX-512 host without VNNI runs.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn forward_quantized_avx2(
        bytes: &[u8],
        xscales: &[f32],
        panels: &QuantizedPanels,
        activation: Activation,
        out: &mut [f32],
        ld: usize,
    ) {
        let count = xscales.len();
        let mut r = 0;
        while r < count {
            let left = (count - r).min(MR);
            for p in 0..panels.panel_count() {
                match left {
                    MR => avx2_quantized_tile::<MR>(bytes, xscales, panels, activation, out, ld, r, p),
                    3 => avx2_quantized_tile::<3>(bytes, xscales, panels, activation, out, ld, r, p),
                    2 => avx2_quantized_tile::<2>(bytes, xscales, panels, activation, out, ld, r, p),
                    _ => avx2_quantized_tile::<1>(bytes, xscales, panels, activation, out, ld, r, p),
                }
            }
            r += left;
        }
    }

    /// Stores a 16-lane tile held as two `__m256` halves, applying the
    /// activation in the same pass (see [`store_tile256`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn store_half_tiles(
        lo: __m256,
        hi: __m256,
        activation: Activation,
        out: &mut [f32],
        offset: usize,
        remaining_cols: usize,
    ) {
        store_tile256(lo, activation, out, offset, remaining_cols.min(HALF));
        if remaining_cols > HALF {
            store_tile256(hi, activation, out, offset + HALF, remaining_cols - HALF);
        }
    }

    /// Stores up to 8 lanes of a finished tile and applies the activation in
    /// the same pass (ReLU in registers; sigmoid/tanh scalar on the stored
    /// lanes, identical to the scalar kernel's recipe).
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn store_tile256(
        acc: __m256,
        activation: Activation,
        out: &mut [f32],
        offset: usize,
        remaining_cols: usize,
    ) {
        let acc = match activation {
            Activation::Relu => {
                // `if v < 0.0 { 0.0 }`: lanes where v < 0 are cleared; -0.0 and
                // NaN compare not-less-than and pass through — exactly the
                // scalar recipe.
                let lt = _mm256_cmp_ps::<_CMP_LT_OQ>(acc, _mm256_setzero_ps());
                _mm256_andnot_ps(lt, acc)
            }
            _ => acc,
        };
        let cols = HALF.min(remaining_cols);
        if cols == HALF {
            _mm256_storeu_ps(out.as_mut_ptr().add(offset), acc);
        } else {
            let mut tmp = [0.0f32; HALF];
            _mm256_storeu_ps(tmp.as_mut_ptr(), acc);
            out[offset..offset + cols].copy_from_slice(&tmp[..cols]);
        }
        if matches!(activation, Activation::Sigmoid | Activation::Tanh) {
            activation.apply_to(&mut out[offset..offset + cols]);
        }
    }

    /// Stores up to 16 lanes of a finished tile (AVX-512 form of
    /// [`store_tile256`], same activation recipe).
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512dq")]
    unsafe fn store_tile512(
        acc: __m512,
        activation: Activation,
        out: &mut [f32],
        offset: usize,
        remaining_cols: usize,
    ) {
        let acc = match activation {
            Activation::Relu => {
                // Lanes where v < 0 (ordered) are zeroed; -0.0 and NaN pass
                // through — exactly the scalar recipe.
                let lt = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(acc, _mm512_setzero_ps());
                _mm512_maskz_mov_ps(!lt, acc)
            }
            _ => acc,
        };
        let cols = LANES.min(remaining_cols);
        if cols == LANES {
            _mm512_storeu_ps(out.as_mut_ptr().add(offset), acc);
        } else {
            let mut tmp = [0.0f32; LANES];
            _mm512_storeu_ps(tmp.as_mut_ptr(), acc);
            out[offset..offset + cols].copy_from_slice(&tmp[..cols]);
        }
        if matches!(activation, Activation::Sigmoid | Activation::Tanh) {
            activation.apply_to(&mut out[offset..offset + cols]);
        }
    }

    // -----------------------------------------------------------------------
    // The gradient kernels: `dy · Wᵀ` and `xᵀ · dy`.
    //
    // Both are written once over [`Lanes`] — a vector of 16 (AVX-512) or 8
    // (AVX2) f32 with the handful of operations the tiles need — so an ISA has
    // one blocked form of each and the two ISAs cannot drift apart.  The tile
    // functions are `#[inline(always)]` into their `#[target_feature]` entry
    // points, which is where the intrinsics become instructions.
    // -----------------------------------------------------------------------

    /// One vector register of f32 lanes, and a per-lane predicate over it.
    ///
    /// # Safety
    ///
    /// Every method needs the CPU features of the implementing type (checked
    /// by the public entry points before they dispatch); the ones that take a
    /// pointer need the lanes they touch — all of them, or those of the mask —
    /// to be readable (`load*`) or writable (`store*`) f32s.
    trait Lanes: Copy {
        /// Lanes per register.
        const WIDTH: usize;
        /// A per-lane predicate (a mask register, or an all-ones / all-zeros
        /// lane pattern where the ISA has no mask registers).
        type Mask: Copy;
        unsafe fn zero() -> Self;
        unsafe fn splat(v: f32) -> Self;
        unsafe fn load(src: *const f32) -> Self;
        unsafe fn store(self, dst: *mut f32);
        unsafe fn add(self, other: Self) -> Self;
        /// `self · b + c`, fused.
        unsafe fn fmadd(self, b: Self, c: Self) -> Self;
        /// The first `count` lanes.
        unsafe fn prefix(count: usize) -> Self::Mask;
        /// The lanes of `mask` from `src`, `+0.0` elsewhere (no access there).
        unsafe fn load_where(mask: Self::Mask, src: *const f32) -> Self;
        /// The lanes of `mask` to `dst` (no access elsewhere).
        unsafe fn store_where(self, mask: Self::Mask, dst: *mut f32);
        /// The lanes that are not `±0.0` (a NaN is not zero).
        unsafe fn nonzero(self) -> Self::Mask;
        /// `self · b + c` in the lanes of `mask`, `c` untouched elsewhere.
        unsafe fn fmadd_where(self, mask: Self::Mask, b: Self, c: Self) -> Self;
    }

    impl Lanes for __m512 {
        const WIDTH: usize = 16;
        type Mask = __mmask16;
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm512_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            _mm512_set1_ps(v)
        }
        #[inline(always)]
        unsafe fn load(src: *const f32) -> Self {
            _mm512_loadu_ps(src)
        }
        #[inline(always)]
        unsafe fn store(self, dst: *mut f32) {
            _mm512_storeu_ps(dst, self)
        }
        #[inline(always)]
        unsafe fn add(self, other: Self) -> Self {
            _mm512_add_ps(self, other)
        }
        #[inline(always)]
        unsafe fn fmadd(self, b: Self, c: Self) -> Self {
            _mm512_fmadd_ps(self, b, c)
        }
        #[inline(always)]
        unsafe fn prefix(count: usize) -> Self::Mask {
            ((1u32 << count) - 1) as __mmask16
        }
        #[inline(always)]
        unsafe fn load_where(mask: Self::Mask, src: *const f32) -> Self {
            _mm512_maskz_loadu_ps(mask, src)
        }
        #[inline(always)]
        unsafe fn store_where(self, mask: Self::Mask, dst: *mut f32) {
            _mm512_mask_storeu_ps(dst, mask, self)
        }
        #[inline(always)]
        unsafe fn nonzero(self) -> Self::Mask {
            _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(self, _mm512_setzero_ps())
        }
        #[inline(always)]
        unsafe fn fmadd_where(self, mask: Self::Mask, b: Self, c: Self) -> Self {
            _mm512_mask3_fmadd_ps(self, b, c, mask)
        }
    }

    impl Lanes for __m256 {
        const WIDTH: usize = 8;
        type Mask = __m256;
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm256_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            _mm256_set1_ps(v)
        }
        #[inline(always)]
        unsafe fn load(src: *const f32) -> Self {
            _mm256_loadu_ps(src)
        }
        #[inline(always)]
        unsafe fn store(self, dst: *mut f32) {
            _mm256_storeu_ps(dst, self)
        }
        #[inline(always)]
        unsafe fn add(self, other: Self) -> Self {
            _mm256_add_ps(self, other)
        }
        #[inline(always)]
        unsafe fn fmadd(self, b: Self, c: Self) -> Self {
            _mm256_fmadd_ps(self, b, c)
        }
        #[inline(always)]
        unsafe fn prefix(count: usize) -> Self::Mask {
            let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            _mm256_castsi256_ps(_mm256_cmpgt_epi32(_mm256_set1_epi32(count as i32), lane))
        }
        #[inline(always)]
        unsafe fn load_where(mask: Self::Mask, src: *const f32) -> Self {
            _mm256_maskload_ps(src, _mm256_castps_si256(mask))
        }
        #[inline(always)]
        unsafe fn store_where(self, mask: Self::Mask, dst: *mut f32) {
            _mm256_maskstore_ps(dst, _mm256_castps_si256(mask), self)
        }
        #[inline(always)]
        unsafe fn nonzero(self) -> Self::Mask {
            _mm256_cmp_ps::<_CMP_NEQ_UQ>(self, _mm256_setzero_ps())
        }
        #[inline(always)]
        unsafe fn fmadd_where(self, mask: Self::Mask, b: Self, c: Self) -> Self {
            _mm256_blendv_ps(c, _mm256_fmadd_ps(self, b, c), mask)
        }
    }

    /// Adds neighbours until one is left: over lane sums in [`LANE_ORDER`]
    /// (or the sums of aligned runs of them) this is the fixed tree of
    /// [`super::reduce_lanes`].
    #[inline(always)]
    unsafe fn fold_neighbours<V: Lanes, const N: usize>(mut v: [V; N]) -> V {
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
        matmul_wt::<__m512, 4, 4, 4>(dy, parts, from_zero, out);
    }

    /// 2 rows × 4 lanes over each 8-output half: eight ymm accumulators.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn matmul_wt_avx2(
        dy: &Matrix,
        parts: &[&PackedPanels],
        from_zero: bool,
        out: &mut [f32],
    ) {
        matmul_wt::<__m256, 2, 4, 4>(dy, parts, from_zero, out);
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
        transpose_matmul::<__m512, 8>(lhs, rhs, out);
    }

    /// Up to 3 vectors × 2 columns: six ymm accumulators beside the three
    /// vectors of `lhs` and their three masks.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn transpose_matmul_avx2(lhs: &Matrix, rhs: &Matrix, out: &mut [f32]) {
        transpose_matmul::<__m256, 2>(lhs, rhs, out);
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
    /// keeps aux-table memorization lossless across kernel selection.  On
    /// AVX-512 hardware the vector kernel is additionally run in its AVX2
    /// form (via the test-only feature override) and must agree too.
    #[test]
    fn scalar_and_vector_kernels_are_bit_identical() {
        if !vector_available() {
            return; // vector lanes degrade to the scalar recipe anyway
        }
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
                let s = with_forced(Kernel::Scalar, || forward_packed(&x, 0, m, &panels, act)).unwrap();
                let v = with_forced(Kernel::Vector, || forward_packed(&x, 0, m, &panels, act)).unwrap();
                assert_eq!(bits(&s), bits(&v), "forward {m}x{k}x{n} {act:?}");
                #[cfg(target_arch = "x86_64")]
                if avx512_available() {
                    let v2 = with_avx512_disabled(|| {
                        with_forced(Kernel::Vector, || forward_packed(&x, 0, m, &panels, act)).unwrap()
                    });
                    assert_eq!(bits(&s), bits(&v2), "forward avx2 {m}x{k}x{n} {act:?}");
                }
            }
            let dy = fill(m, n, 14);
            let s = with_forced(Kernel::Scalar, || matmul_transpose_packed(&dy, &panels)).unwrap();
            let v = with_forced(Kernel::Vector, || matmul_transpose_packed(&dy, &panels)).unwrap();
            assert_eq!(bits(&s), bits(&v), "matmul_wt {m}x{n}x{k}");
            #[cfg(target_arch = "x86_64")]
            if avx512_available() {
                let v2 = with_avx512_disabled(|| {
                    with_forced(Kernel::Vector, || matmul_transpose_packed(&dy, &panels)).unwrap()
                });
                assert_eq!(bits(&s), bits(&v2), "matmul_wt avx2 {m}x{n}x{k}");
            }
            let xt = fill(k, m, 15);
            let rhs = fill(k, n, 16);
            let s = with_forced(Kernel::Scalar, || transpose_matmul(&xt, &rhs)).unwrap();
            let v = with_forced(Kernel::Vector, || transpose_matmul(&xt, &rhs)).unwrap();
            assert_eq!(bits(&s), bits(&v), "transpose_matmul {k}x{m}x{n}");
            #[cfg(target_arch = "x86_64")]
            if avx512_available() {
                let v2 = with_avx512_disabled(|| {
                    with_forced(Kernel::Vector, || transpose_matmul(&xt, &rhs)).unwrap()
                });
                assert_eq!(bits(&s), bits(&v2), "transpose_matmul avx2 {k}x{m}x{n}");
            }
        }
    }

    /// Both gradient kernels under the scalar, the selected vector and (on an
    /// AVX-512 host) the AVX2 form: `xᵀ · dy` of `x` with `dy`, and `dy · Wᵀ`
    /// of `dy` with `w`.
    fn assert_gradient_forms_agree(x: &Matrix, dy: &Matrix, w: &Matrix, what: &str) {
        let panels = PackedPanels::pack(w, None).unwrap();
        for (kernel, run) in [
            ("xᵀ·dy", &(|| transpose_matmul(x, dy).unwrap()) as &dyn Fn() -> Matrix),
            ("dy·Wᵀ", &|| matmul_transpose_packed(dy, &panels).unwrap()),
        ] {
            let forms = gradient_forms(run);
            let reference = bits(&forms[0].1);
            for (form, got) in &forms[1..] {
                let differs = reference.iter().zip(bits(got)).position(|(&a, b)| a != b);
                assert_eq!(
                    differs,
                    None,
                    "{kernel} {form} vs scalar, {what}: x {}x{}, dy {}x{}",
                    x.rows(),
                    x.cols(),
                    dy.rows(),
                    dy.cols()
                );
            }
        }
    }

    /// What `f` returns under the scalar, the selected vector and (on an
    /// AVX-512 host) the AVX2 form.
    fn gradient_forms(f: &dyn Fn() -> Matrix) -> Vec<(&'static str, Matrix)> {
        let mut forms = vec![("scalar", with_forced(Kernel::Scalar, f))];
        forms.push(("vector", with_forced(Kernel::Vector, f)));
        if avx512_available() {
            forms.push((
                "avx2",
                with_avx512_disabled(|| with_forced(Kernel::Vector, f)),
            ));
        }
        forms
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
        for (form, got) in gradient_forms(&|| matmul_transpose_segmented(dy, parts).unwrap()) {
            let differs = reference.iter().zip(bits(&got)).position(|(&a, b)| a != b);
            assert_eq!(
                differs,
                None,
                "segmented dy·Wᵀ {form}, {what}: dy {}x{}",
                dy.rows(),
                dy.cols()
            );
        }
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
        let s = with_forced(Kernel::Scalar, || transpose_matmul(&x, &dy)).unwrap();
        let v = with_forced(Kernel::Vector, || transpose_matmul(&x, &dy)).unwrap();
        assert_eq!(bits(&s), bits(&v), "xᵀ·dy with an infinite dy");
        let v2 = with_avx512_disabled(|| with_forced(Kernel::Vector, || transpose_matmul(&x, &dy)).unwrap());
        assert_eq!(bits(&s), bits(&v2), "xᵀ·dy avx2 with an infinite dy");
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
    /// int8, AMX tiles where granted), the vector kernel with AMX off
    /// (`vpdpbusd` on an AVX-512-VNNI host) and with AVX-512 off (the AVX2
    /// forms) — passing the form's name.  A host without AMX says so: its
    /// "vector" leg is the `vpdpbusd` one again, not a tile run.
    pub(crate) fn under_each_form(mut f: impl FnMut(&str)) {
        with_forced(Kernel::Scalar, || f("scalar"));
        if !amx_available() {
            eprintln!("AMX not granted — skipped: the int8 tile form did not run");
        }
        with_forced(Kernel::Vector, || f(Kernel::Vector.name()));
        with_forced(Kernel::Vector, || with_amx_disabled(|| f("vector without AMX")));
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

    /// The four int8 forms produce the same logit bits on the shapes and row
    /// counts that matter: the benchmark model's dimensions (38, 141, 35 in;
    /// 35, 141, the fused 175 out) beside the degenerate ones and both sides
    /// of one AMX K step (16 quads = 64 values); row counts on both sides of
    /// the `vpdpbusd` row tile (6), of one and two AMX row tiles (16, 32), of a
    /// chunk (96) and of a 256-row window.
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
                // Both sides of a sixteen-row group and of an AMX row tile.
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
    /// k-quads — two AMX K steps of 9, so the tiles' last step overhangs every
    /// row into the next one's bytes, live or stale — and windows of up to 35
    /// rows are none, one or two row tiles with and without a `vpdpbusd` tail.
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
        // form, the one that stores whole C tiles included.
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
    /// read past it: every form needs the window's own bytes, the AMX form
    /// also its last K step's overhang past the last row (65 values: 17
    /// k-quads walked as 2 × 9) when the window ends on a whole tile.
    #[test]
    fn a_rows_buffer_short_of_what_a_form_reads_is_an_error() {
        let (count, k) = (2 * TILE_ROWS, 65usize);
        let x = fill_with_zero_rows(count, k, 91);
        let panels = QuantizedPanels::quantize(&fill(k, 20, 92), None).unwrap();
        let whole = QuantizedRows::quantize(RowsView::of_matrix(&x, 0, count).unwrap());
        let expected = forward_prequantized(&whole, &panels, Activation::Relu).unwrap();
        let window = count * k.div_ceil(4) * 4;
        assert_eq!(QuantizedRows::tile_span(count, k), window + 4);
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
            // The window's own bytes and no more: enough for every form but
            // the tiles, which must refuse it rather than read on.
            let tiles = form == "avx512+amx";
            assert_eq!(run(&truncated(window)).is_err(), tiles, "{form}: short of the tiles");
            let out = run(&truncated(window + 4)).unwrap();
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

    /// Where the panels end and what pads them: every panel's run is whole
    /// AMX K steps, the blocks past its last real quad zero, and the steps
    /// waste less than a quad each.
    #[test]
    fn panels_pad_each_run_to_whole_tile_steps_with_zero_blocks() {
        assert_eq!(tile_k_steps(36), (3, 12)); // k = 141
        assert_eq!(tile_k_steps(10), (1, 10)); // k = 38
        assert_eq!(tile_k_steps(16), (1, 16));
        assert_eq!(tile_k_steps(17), (2, 9));
        assert_eq!(tile_k_steps(0), (1, 0));
        for kquads in 1..200 {
            let (steps, quads) = tile_k_steps(kquads);
            assert!((1..=TILE_ROWS).contains(&quads), "{kquads}");
            assert!((kquads..kquads + steps).contains(&(steps * quads)), "{kquads}");
        }
        let panels = QuantizedPanels::quantize(&fill(65, 37, 7), None).unwrap();
        assert_eq!((panels.kquads, panels.kstride), (17, 18));
        assert_eq!(panels.data.len(), 3 * 18 * QBLOCK);
        for p in 0..3 {
            assert!(panels.block(p, 17).iter().all(|&q| q == 0), "panel {p}");
        }
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
    /// 3, 38 (not whole quads), 64 (one full K step) and 141 (three K steps
    /// of 12 quads); heads side by side crossing panel edges (4 / 8 / 16 /
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
            ("without AMX", with_amx_disabled(|| Kernel::Vector.name())),
            ("without AVX-512", with_avx512_disabled(|| Kernel::Vector.name())),
        ];
        let output_layers = forms.map(|(leg, form)| {
            let classes = match form {
                "avx512+amx" => "keys in lanes: AMX tdpbsud, vpdpbusd past whole groups",
                "avx512-vnni" => "keys in lanes: vpdpbusd",
                "avx512" | "avx2+fma" => "keys in lanes: AVX2",
                _ => "scalar rows",
            };
            (leg, classes)
        });
        println!("dm-nn kernel forms: {forms:?}; AMX granted: {}", amx_available());
        println!("dm-nn output-layer forms: {output_layers:?}");
        let expected = match (vector_available(), avx512_available(), vnni_available()) {
            (false, ..) => ["scalar"; 3],
            (true, false, _) => ["avx2+fma"; 3],
            (true, true, false) => ["avx512", "avx512", "avx2+fma"],
            (true, true, true) if amx_available() => ["avx512+amx", "avx512-vnni", "avx2+fma"],
            (true, true, true) => ["avx512-vnni", "avx512-vnni", "avx2+fma"],
        };
        assert_eq!(forms.map(|(_, name)| name), expected);
    }
}
