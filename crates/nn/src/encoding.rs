//! Feature and label encodings.
//!
//! DeepMapping feeds the key into the network and reads one categorical prediction per
//! value column (Section IV-A: "strings or categorical data are encoded as integers
//! using one-hot encoding before training and inference").  Two pieces live here:
//!
//! * [`KeyEncoder`] turns an integer key into the network's input features.  Keys are
//!   encoded as their binary digits (one feature per bit, in `{0, 1}`), which keeps the
//!   input width logarithmic in the key domain and lets the network pick up periodic
//!   key→value patterns (the high-correlation datasets of Section V-A1 are periodic
//!   along the key dimension).  For a model whose first layer is int8 it also writes
//!   that layer's input bytes itself ([`KeyEncoder::quantize_keys`]), see below.
//! * [`LabelCodec`] assigns a dense class index to every distinct value of a column and
//!   converts predictions back — this is the `fdecode` decoding map of Section IV-B1,
//!   whose serialized size participates in the Eq.-1 objective.
//!
//! ## The quantized form of a key
//!
//! An int8 layer reads each input row as one byte per value, `q + 128` with
//! `q = round_ties_even(v · 127 / max|v|)`, and one f32 scale `max|v| / 127` (the row
//! quantizer of [`crate::kernel`]).  For an encoded key both are known without the f32
//! features: there is always at least one bit feature and bit features are ±1, one-hot
//! lanes are 0 or 1 and a ramp `(key % p) / p` never exceeds 1 — so `max|v|` is exactly
//! 1.0 for every key, the scale is the constant [`QUANTIZED_KEY_SCALE`] = `1 / 127`, and
//! the bytes are `0xFF` / `0x01` for a set / clear bit, `0xFF` / `0x80` for a hot / cold
//! one-hot lane, `round_ties_even(ramp · 127) ^ 0x80` for a ramp and `0x80` for the
//! padding up to a whole k-quad.  [`KeyEncoder::quantize_into`] writes exactly those, so
//! the lookup path of an int8 model never materializes a feature matrix; a property
//! test holds it equal to quantizing [`KeyEncoder::encode_into`]'s output, byte for
//! byte and scale for scale.
//!
//! A batch ([`KeyEncoder::quantize_keys`], what each chunk of a lookup's walk calls)
//! takes an AVX-512 form where the calling thread's kernel is the vector one with
//! AVX-512: a row of up to 64 bytes is one register — `0x80` everywhere, `0x01` over
//! the bit lanes, `0xFF` wherever one of two masks is set: the key itself, read as a
//! byte mask over the bit lanes, and one bit per modulus at its hot lane, built from
//! the residues — and one masked store; a wider row takes one register per 64 bytes.
//! Ramps, when there are any, are written over it afterwards.  `quantize_into` stays
//! the scalar body and the reference: a unit test holds the batch form to it under
//! every kernel form, byte for byte and scale for scale.

use crate::kernel::{self, QuantizedRows};
use crate::tensor::Matrix;
use std::collections::HashMap;
use std::hash::Hash;

/// Encodes integer keys as feature vectors: the key's binary digits, optionally
/// followed by one-hot residues modulo a few small primes.
///
/// The binary digits alone capture patterns aligned with powers of two (the synthetic
/// high-correlation datasets, the crop raster).  The residue features make patterns
/// that are periodic in small non-power-of-two periods (TPC-DS customer_demographics
/// cycles through domains of size 2, 5, 7, ...) linearly separable, which is what lets
/// a compact model memorize them — the paper reaches the same effect with larger
/// models and longer training than a laptop-scale reproduction can afford.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyEncoder {
    bits: usize,
    moduli: Vec<u64>,
    /// `⌈2⁶⁴ / m⌉` per modulus, derived from `moduli` (see [`residue`]).
    reciprocals: Vec<u64>,
    /// Scalar ramp periods: each `p` contributes one feature `(key % p) / p`.
    ramps: Vec<u64>,
}

/// `key % m` by multiplication where both fit 32 bits, which is every key of a
/// table under 2³² rows against the small one-hot moduli (Lemire, Kaser & Kurz,
/// *Faster remainder by direct computation*): `reciprocal = ⌈2⁶⁴ / m⌉`, so the
/// low 64 bits of `reciprocal · key` are the remainder as a fraction of `m`
/// and their product with `m` carries it into the high word — exact for all
/// 32-bit operands.  A lookup takes one remainder per modulus per key, and four
/// hardware divisions were a third of what quantizing a key cost.
#[inline]
fn residue(key: u64, m: u64, reciprocal: u64) -> u64 {
    if m != 0 && (key | m) >> 32 == 0 {
        ((reciprocal.wrapping_mul(key) as u128 * m as u128) >> 64) as u64
    } else {
        key % m
    }
}

/// The dequantization scale of every quantized key row (see the module docs).
pub const QUANTIZED_KEY_SCALE: f32 = 1.0 / 127.0;

/// The small prime periods used by [`KeyEncoder::with_periodic_features`].
pub const PERIODIC_MODULI: [u64; 4] = [2, 3, 5, 7];

impl KeyEncoder {
    /// Creates an encoder with an explicit number of bit features (no residues).
    pub fn with_bits(bits: usize) -> Self {
        Self::from_parts(bits, Vec::new(), &[])
    }

    /// Creates a binary-only encoder wide enough for every key in `0..=max_key`.
    pub fn for_max_key(max_key: u64) -> Self {
        Self::from_parts(Self::bits_for(max_key), Vec::new(), &[])
    }

    /// Creates an encoder with binary digits plus one-hot residues modulo
    /// [`PERIODIC_MODULI`] — the encoding DeepMapping's mapping models use.
    pub fn with_periodic_features(max_key: u64) -> Self {
        Self::from_parts(Self::bits_for(max_key), PERIODIC_MODULI.to_vec(), &[])
    }

    /// Returns the encoder extended with scalar ramp features `(key % p) / p`, one
    /// per period in `periods` (zeros and ones are dropped; duplicates collapse).
    ///
    /// A value column that is a long-period staircase of the key — e.g. TPC-DS
    /// customer_demographics' `(k / divisor) % card` cross-product columns — is nearly
    /// unlearnable from key bits alone at small widths, but becomes a simple
    /// threshold function of the matching ramp.  `MappingSchema::infer` (dm-core)
    /// detects such periods from the data and injects them here.
    pub fn with_ramp_periods(mut self, periods: &[u64]) -> Self {
        let mut ramps: Vec<u64> = periods.iter().copied().filter(|&p| p > 1).collect();
        ramps.sort_unstable();
        ramps.dedup();
        self.ramps = ramps;
        self
    }

    /// The scalar ramp periods this encoder emits features for.
    pub fn ramp_periods(&self) -> &[u64] {
        &self.ramps
    }

    /// The one-hot residue moduli this encoder emits features for.
    pub fn moduli(&self) -> &[u64] {
        &self.moduli
    }

    /// Reassembles an encoder from its serialized components (bit width, residue
    /// moduli, ramp periods).  Inputs are normalized the same way the fluent
    /// constructors normalize them, so an encoder round-trips exactly through
    /// (`bits`, `moduli`, `ramp_periods`) → `from_parts`.
    pub fn from_parts(bits: usize, moduli: Vec<u64>, ramp_periods: &[u64]) -> Self {
        KeyEncoder {
            bits: bits.max(1),
            // (A zero modulus is refused where encoders are read back and
            // panics on first use otherwise; it gets no reciprocal.)
            reciprocals: moduli
                .iter()
                .map(|&m| u64::MAX.checked_div(m).map_or(0, |q| q.wrapping_add(1)))
                .collect(),
            moduli,
            ramps: Vec::new(),
        }
        .with_ramp_periods(ramp_periods)
    }

    fn bits_for(max_key: u64) -> usize {
        if max_key == 0 {
            1
        } else {
            64 - max_key.leading_zeros() as usize
        }
    }

    /// Number of binary-digit features.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Number of input features produced per key.
    pub fn input_dim(&self) -> usize {
        self.bits + self.moduli.iter().map(|&m| m as usize).sum::<usize>() + self.ramps.len()
    }

    /// Encodes a single key into the provided feature slice (must be `input_dim` long).
    pub fn encode_into(&self, key: u64, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.input_dim());
        for (b, slot) in out[..self.bits].iter_mut().enumerate() {
            // Zero-centered bits condition the first layer much better than 0/1.
            *slot = if (key >> b) & 1 == 1 { 1.0 } else { -1.0 };
        }
        let mut offset = self.bits;
        for &m in &self.moduli {
            let residue = (key % m) as usize;
            for (i, slot) in out[offset..offset + m as usize].iter_mut().enumerate() {
                *slot = if i == residue { 1.0 } else { 0.0 };
            }
            offset += m as usize;
        }
        for (&p, slot) in self.ramps.iter().zip(out[offset..].iter_mut()) {
            *slot = (key % p) as f32 / p as f32;
        }
    }

    /// Encodes a batch of keys into a `len × input_dim` matrix.
    pub fn encode_batch(&self, keys: &[u64]) -> Matrix {
        let mut m = Matrix::zeros(keys.len(), self.input_dim());
        for (i, &k) in keys.iter().enumerate() {
            self.encode_into(k, m.row_mut(i));
        }
        m
    }

    /// Quantizes a single key into the bytes an int8 first layer reads
    /// (`out` is `input_dim` rounded up to a multiple of four): what
    /// [`QuantizedRows::fill`] makes of [`encode_into`](Self::encode_into)'s
    /// features, without the features — see the module docs for the form.
    /// The scalar statement of it, and the reference of
    /// [`quantize_keys`](Self::quantize_keys)' vector form.
    pub fn quantize_into(&self, key: u64, out: &mut [u8]) {
        debug_assert_eq!(out.len(), self.input_dim().div_ceil(4) * 4);
        let (bits, rest) = out.split_at_mut(self.bits);
        for (b, slot) in bits.iter_mut().enumerate() {
            *slot = if (key >> b) & 1 == 1 { 0xFF } else { 0x01 };
        }
        // Cold one-hot lanes and the padding are `q = 0`; hot lanes and ramps
        // are written over that.
        rest.fill(0x80);
        let mut offset = 0;
        for (&m, &reciprocal) in self.moduli.iter().zip(&self.reciprocals) {
            rest[offset + residue(key, m, reciprocal) as usize] = 0xFF;
            offset += m as usize;
        }
        self.quantize_ramps(key, &mut rest[offset..]);
    }

    /// The ramp bytes of `key`, from the first ramp lane on.
    fn quantize_ramps(&self, key: u64, out: &mut [u8]) {
        for (&p, slot) in self.ramps.iter().zip(out) {
            let ramp = (key % p) as f32 / p as f32;
            let q = (ramp * 127.0).round_ties_even().clamp(-127.0, 127.0) as i8;
            *slot = q as u8 ^ 0x80;
        }
    }

    /// Quantizes a batch of keys into `out`, replacing what it held: byte for
    /// byte and scale for scale what `out.fill(..)` over
    /// [`encode_batch`](Self::encode_batch)`(keys)` produces, under any kernel.
    ///
    /// Its form follows [`kernel::active`]: where that is the vector kernel
    /// with AVX-512, a row is one masked store of one 64-byte register per 64
    /// bytes of row — `0x80` in every lane, `0x01` in the bit lanes, and
    /// `0xFF` wherever a mask of the key's own bits (the bit lanes) or of its
    /// residues (one hot lane per modulus) is set — and the ramps, if any,
    /// are written after it; elsewhere every row is
    /// [`quantize_into`](Self::quantize_into).
    pub fn quantize_keys(&self, keys: &[u64], out: &mut QuantizedRows) {
        let width = self.input_dim().div_ceil(4) * 4;
        out.fill_with(keys.len(), self.input_dim(), |bytes, scales| {
            scales.fill(QUANTIZED_KEY_SCALE);
            #[cfg(target_arch = "x86_64")]
            if kernel::active() == kernel::Kernel::Vector
                && kernel::avx512_enabled()
                && x86::fits(self.bits, width)
            {
                // Safety: AVX-512 F/BW availability checked at runtime; the
                // row shape was checked by `fits` (and is again by the callee).
                unsafe { x86::quantize_keys_avx512(self, keys, bytes, width) };
                if !self.ramps.is_empty() {
                    let ramps = self.input_dim() - self.ramps.len();
                    for (&key, row) in keys.iter().zip(bytes.chunks_exact_mut(width)) {
                        self.quantize_ramps(key, &mut row[ramps..]);
                    }
                }
                return;
            }
            for (&key, row) in keys.iter().zip(bytes.chunks_exact_mut(width)) {
                self.quantize_into(key, row);
            }
        });
    }

    /// Serialized size of the encoder metadata in bytes.
    pub fn size_bytes(&self) -> usize {
        8 + self.moduli.len() * 8 + self.ramps.len() * 8
    }
}

/// The AVX-512 form of [`KeyEncoder::quantize_keys`].
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{residue, KeyEncoder};
    use std::arch::x86_64::*;

    /// 64-byte registers a row may take: hot lanes are gathered into one
    /// 64-bit mask per register, on the stack.
    const REGISTERS: usize = 4;

    /// Whether the vector form takes rows of `width` bytes whose first `bits`
    /// lanes are the key's bits: every bit lane inside the first register
    /// (a key has 64 bits), the row inside [`REGISTERS`] registers.
    pub(super) fn fits(bits: usize, width: usize) -> bool {
        bits <= 64 && width <= 64 * REGISTERS
    }

    /// Every row of `keys` but its ramps: per 64 bytes of row, one masked
    /// store of `0x80` (cold one-hot lanes and padding) blended with `0x01`
    /// over the bit lanes and with `0xFF` over the lanes a mask marks hot —
    /// the key's own bits for the bit lanes, one residue per modulus for the
    /// one-hot runs.  Ramp lanes are left as `0x80` for the caller.
    ///
    /// # Safety
    /// AVX-512 F/BW must be available.  `bytes` holds `keys.len()` rows of
    /// `width` bytes (asserted), and each store is masked to its row.
    #[target_feature(enable = "avx512f", enable = "avx512bw")]
    pub(super) unsafe fn quantize_keys_avx512(
        encoder: &KeyEncoder,
        keys: &[u64],
        bytes: &mut [u8],
        width: usize,
    ) {
        let bits = encoder.bits;
        assert!(fits(bits, width) && width > 0 && bytes.len() >= keys.len() * width);
        let bit_lanes = u64::MAX >> (64 - bits);
        let cold = _mm512_set1_epi8(0x80u8 as i8);
        let first = _mm512_mask_blend_epi8(bit_lanes, cold, _mm512_set1_epi8(0x01));
        let hot = _mm512_set1_epi8(-1);
        let registers = width.div_ceil(64);
        let last = u64::MAX >> (64 * registers - width);
        for (i, &key) in keys.iter().enumerate() {
            let mut hot_lanes = [0u64; REGISTERS];
            hot_lanes[0] = key & bit_lanes;
            let mut lane = bits;
            for (&m, &reciprocal) in encoder.moduli.iter().zip(&encoder.reciprocals) {
                let at = lane + residue(key, m, reciprocal) as usize;
                hot_lanes[at / 64] |= 1 << (at % 64);
                lane += m as usize;
            }
            let row = bytes.as_mut_ptr().add(i * width);
            for (r, &lanes) in hot_lanes.iter().enumerate().take(registers) {
                let base = if r == 0 { first } else { cold };
                let live = if r + 1 == registers { last } else { u64::MAX };
                let v = _mm512_mask_mov_epi8(base, lanes, hot);
                _mm512_mask_storeu_epi8(row.add(64 * r).cast(), live, v);
            }
        }
    }
}

/// Bidirectional mapping between distinct column values and dense class indices.
///
/// The forward direction (`value → class`) is used to produce training targets; the
/// reverse direction (`class → value`) is the paper's `fdecode` map applied to model
/// predictions at query time.
#[derive(Debug, Clone)]
pub struct LabelCodec<T: Eq + Hash + Clone> {
    to_class: HashMap<T, usize>,
    to_value: Vec<T>,
}

impl<T: Eq + Hash + Clone> Default for LabelCodec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Eq + Hash + Clone> LabelCodec<T> {
    /// Creates an empty codec.
    pub fn new() -> Self {
        LabelCodec {
            to_class: HashMap::new(),
            to_value: Vec::new(),
        }
    }

    /// Builds a codec from an iterator of values, assigning classes in first-seen order.
    pub fn fit<I: IntoIterator<Item = T>>(values: I) -> Self {
        let mut codec = Self::new();
        for v in values {
            codec.encode_or_insert(v);
        }
        codec
    }

    /// Number of distinct classes.
    pub fn num_classes(&self) -> usize {
        self.to_value.len()
    }

    /// Returns the class of `value`, inserting a new class if unseen.
    pub fn encode_or_insert(&mut self, value: T) -> usize {
        if let Some(&c) = self.to_class.get(&value) {
            return c;
        }
        let c = self.to_value.len();
        self.to_class.insert(value.clone(), c);
        self.to_value.push(value);
        c
    }

    /// Returns the class of `value` if it has been seen.
    pub fn encode(&self, value: &T) -> Option<usize> {
        self.to_class.get(value).copied()
    }

    /// Decodes a class index back to the original value.
    pub fn decode(&self, class: usize) -> Option<&T> {
        self.to_value.get(class)
    }

    /// Iterates over `(class, value)` pairs in class order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.to_value.iter().enumerate()
    }
}

impl LabelCodec<u64> {
    /// Serialized size in bytes for integer-valued codecs (class table as u64s).
    pub fn size_bytes(&self) -> usize {
        8 + self.to_value.len() * 8
    }
}

impl LabelCodec<String> {
    /// Serialized size in bytes for string-valued codecs (length-prefixed UTF-8).
    pub fn size_bytes(&self) -> usize {
        8 + self
            .to_value
            .iter()
            .map(|s| 4 + s.len())
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_encoder_width_covers_max_key() {
        assert_eq!(KeyEncoder::for_max_key(0).input_dim(), 1);
        assert_eq!(KeyEncoder::for_max_key(1).input_dim(), 1);
        assert_eq!(KeyEncoder::for_max_key(2).input_dim(), 2);
        assert_eq!(KeyEncoder::for_max_key(255).input_dim(), 8);
        assert_eq!(KeyEncoder::for_max_key(256).input_dim(), 9);
    }

    #[test]
    fn key_encoding_round_trips_through_bits() {
        let enc = KeyEncoder::for_max_key(1023);
        let keys = [0u64, 1, 2, 511, 1023, 777];
        let m = enc.encode_batch(&keys);
        for (i, &k) in keys.iter().enumerate() {
            let mut reconstructed = 0u64;
            for (b, &v) in m.row(i).iter().enumerate() {
                assert!(v == -1.0 || v == 1.0, "bit features are zero-centered");
                if v == 1.0 {
                    reconstructed |= 1 << b;
                }
            }
            assert_eq!(reconstructed, k);
        }
    }

    #[test]
    fn ramp_features_emit_scaled_residues() {
        let enc = KeyEncoder::with_periodic_features(255).with_ramp_periods(&[70, 10, 70, 0, 1]);
        // Zeros/ones dropped, duplicates collapsed, periods sorted.
        assert_eq!(enc.ramp_periods(), &[10, 70]);
        assert_eq!(enc.input_dim(), 8 + (2 + 3 + 5 + 7) + 2);
        let m = enc.encode_batch(&[93]);
        let row = m.row(0);
        let ramps = &row[row.len() - 2..];
        assert!((ramps[0] - (93 % 10) as f32 / 10.0).abs() < 1e-6);
        assert!((ramps[1] - (93 % 70) as f32 / 70.0).abs() < 1e-6);
    }

    #[test]
    fn encode_batch_shape() {
        let enc = KeyEncoder::with_bits(12);
        let m = enc.encode_batch(&[1, 2, 3]);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 12);
    }

    #[test]
    fn periodic_features_one_hot_the_residues() {
        let enc = KeyEncoder::with_periodic_features(255);
        assert_eq!(enc.bits(), 8);
        assert_eq!(enc.input_dim(), 8 + 2 + 3 + 5 + 7);
        let m = enc.encode_batch(&[9]);
        let row = m.row(0);
        // Binary part (±1-centered) reconstructs the key.
        let mut reconstructed = 0u64;
        for (b, &v) in row[..8].iter().enumerate() {
            assert!(v == -1.0 || v == 1.0);
            if v == 1.0 {
                reconstructed |= 1 << b;
            }
        }
        assert_eq!(reconstructed, 9);
        // Residue one-hots: 9 % 2 = 1, 9 % 3 = 0, 9 % 5 = 4, 9 % 7 = 2.
        let mods = &row[8..];
        assert_eq!(mods[..2], [0.0, 1.0]);
        assert_eq!(mods[2..5], [1.0, 0.0, 0.0]);
        assert_eq!(mods[5..10], [0.0, 0.0, 0.0, 0.0, 1.0]);
        assert_eq!(mods[10..17], [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        // Every row has exactly bits-set + 4 one-hot ones.
        let ones = row.iter().filter(|&&v| v == 1.0).count();
        assert_eq!(ones, 2 + 4); // key 9 has two set bits plus one per modulus
    }

    /// The batch quantizer — one masked store a row under AVX-512 — is
    /// [`KeyEncoder::quantize_into`], byte for byte and scale for scale, in
    /// every kernel form: at every bit width, with and without one-hot
    /// moduli and ramps, for keys past 2³² (`residue`'s `%` path) and
    /// `u64::MAX`, for rows of one, two, three and four 64-byte registers and
    /// one past them (the scalar path), into a buffer holding a wider window.
    #[test]
    fn batch_quantizer_is_quantize_into_in_every_form() {
        let keys: Vec<u64> = (0..40u64)
            .map(|i| match i % 5 {
                0 => i,
                1 => u64::MAX - i,
                2 => (1 << 32) + i * 977,
                3 => i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                _ => i * 1_000_003,
            })
            .collect();
        let shapes: [(&[u64], &[u64]); 6] = [
            (&[], &[]),
            (&PERIODIC_MODULI, &[]),
            (&PERIODIC_MODULI, &[10, 70, 1_000_003]),
            (&[], &[6, 91]),
            (&[61, 67, 3], &[]),
            (&[251, 2], &[9]),
        ];
        for bits in 1..=64 {
            for (moduli, ramps) in shapes {
                let encoder = KeyEncoder::from_parts(bits, moduli.to_vec(), ramps);
                let width = encoder.input_dim().div_ceil(4) * 4;
                let mut expected = vec![0u8; keys.len() * width];
                for (&key, row) in keys.iter().zip(expected.chunks_exact_mut(width)) {
                    encoder.quantize_into(key, row);
                }
                crate::kernel::tests::under_each_form(|form| {
                    let mut wider = KeyEncoder::from_parts(64, vec![61, 67, 5], &[3]);
                    let mut rows = QuantizedRows::default();
                    wider.quantize_keys(&[u64::MAX; 50], &mut rows);
                    wider = encoder.clone();
                    wider.quantize_keys(&keys, &mut rows);
                    for (i, want) in expected.chunks_exact(width).enumerate() {
                        assert_eq!(rows.row(i), want, "{form} bits {bits} {moduli:?} {ramps:?} key {}", keys[i]);
                    }
                    assert!(rows.scales().iter().all(|s| s.to_bits() == QUANTIZED_KEY_SCALE.to_bits()));
                    assert_eq!(rows.scales().len(), keys.len(), "{form}");
                });
            }
        }
    }

    #[test]
    fn label_codec_assigns_dense_classes_in_first_seen_order() {
        let codec = LabelCodec::fit(vec!["shipping", "pickup", "shipping", "return"]);
        assert_eq!(codec.num_classes(), 3);
        assert_eq!(codec.encode(&"shipping"), Some(0));
        assert_eq!(codec.encode(&"pickup"), Some(1));
        assert_eq!(codec.encode(&"return"), Some(2));
        assert_eq!(codec.encode(&"unknown"), None);
        assert_eq!(codec.decode(0), Some(&"shipping"));
        assert_eq!(codec.decode(3), None);
    }

    #[test]
    fn label_codec_encode_or_insert_is_idempotent() {
        let mut codec = LabelCodec::new();
        let a = codec.encode_or_insert(42u64);
        let b = codec.encode_or_insert(42u64);
        assert_eq!(a, b);
        assert_eq!(codec.num_classes(), 1);
    }

    #[test]
    fn codec_size_accounts_for_values() {
        let int_codec: LabelCodec<u64> = LabelCodec::fit(0..10u64);
        assert_eq!(int_codec.size_bytes(), 8 + 80);
        let str_codec: LabelCodec<String> =
            LabelCodec::fit(vec!["ab".to_string(), "cdef".to_string()]);
        assert_eq!(str_codec.size_bytes(), 8 + (4 + 2) + (4 + 4));
    }
}
