//! Binary (de)serialization of models.
//!
//! DeepMapping's Eq.-1 objective charges the learned model by its *serialized* size,
//! and the lookup path deserializes the model once at load time (the paper ships an
//! ONNX file).  This module defines a small self-describing little-endian format:
//!
//! ```text
//! magic "DMNN" | version u16 | input_dim u32
//! | n_shared u32 | shared widths u32...
//! | n_heads u32 | per head: n_hidden u32, hidden widths u32..., classes u32
//! | per layer in (trunk, then heads in order):
//!     version 1:  activation u8, rows u32, cols u32, weight f32..., bias f32...
//!     version 2:  kind u8, then
//!       kind 0 (f32):  activation u8, rows u32, cols u32, weight f32..., bias f32...
//!       kind 1 (int8): activation u8, rows u32, cols u32, scales f32 × cols,
//!                      weight i8 (row-major rows·cols), bias f32 × cols
//! ```
//!
//! Version 1 is written for pure-f32 models (byte-identical to every earlier
//! release); version 2 is written exactly when any layer is int8-quantized.
//! Both versions deserialize.  An int8 layer stores the raw quantized weights
//! and per-column scales — the arithmetic source of truth — so the reloaded
//! layer's panels are byte-identical to the build-time ones (serving cannot
//! drift) and the model shrinks ~4× on disk.

use crate::layer::{Activation, Dense};
use crate::multitask::{MultiTaskModel, MultiTaskSpec, TaskHeadSpec};
use crate::tensor::Matrix;
use crate::NnError;

const MAGIC: &[u8; 4] = b"DMNN";
const VERSION: u16 = 1;
/// Version written when any layer carries int8 quantized weights.
const VERSION_QUANT: u16 = 2;
/// Per-layer kind tags used by [`VERSION_QUANT`] buffers.
const LAYER_F32: u8 = 0;
const LAYER_INT8: u8 = 1;

/// A streaming little-endian writer over a byte vector.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// Consumes the writer and returns the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a u8.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian f32.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// A cursor-based little-endian reader.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> crate::Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(NnError::Corrupt(format!(
                "unexpected end of buffer at offset {} (wanted {n} more bytes of {})",
                self.pos,
                self.buf.len()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> crate::Result<&'a [u8]> {
        self.take(n)
    }

    /// Reads a u8.
    pub fn get_u8(&mut self) -> crate::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    pub fn get_u16(&mut self) -> crate::Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&mut self) -> crate::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self) -> crate::Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian f32.
    pub fn get_f32(&mut self) -> crate::Result<f32> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Number of bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

fn write_dense(w: &mut ByteWriter, layer: &Dense, tagged: bool) {
    match layer.quantized() {
        Some(quant) if tagged => {
            w.put_u8(LAYER_INT8);
            w.put_u8(layer.activation().tag());
            w.put_u32(quant.k() as u32);
            w.put_u32(quant.n() as u32);
            for &s in quant.column_scales() {
                w.put_f32(s);
            }
            for q in quant.weights_row_major() {
                w.put_u8(q as u8);
            }
            for &v in layer.bias().as_slice() {
                w.put_f32(v);
            }
            return;
        }
        _ => {}
    }
    if tagged {
        w.put_u8(LAYER_F32);
    }
    w.put_u8(layer.activation().tag());
    w.put_u32(layer.weight().rows() as u32);
    w.put_u32(layer.weight().cols() as u32);
    for &v in layer.weight().as_slice() {
        w.put_f32(v);
    }
    for &v in layer.bias().as_slice() {
        w.put_f32(v);
    }
}

fn read_layer_shape(r: &mut ByteReader<'_>) -> crate::Result<(Activation, usize, usize)> {
    let act = Activation::from_tag(r.get_u8()?)
        .ok_or_else(|| NnError::Corrupt("unknown activation tag".into()))?;
    let rows = r.get_u32()? as usize;
    let cols = r.get_u32()? as usize;
    if rows == 0 || cols == 0 || rows.saturating_mul(cols) > 1 << 28 {
        return Err(NnError::Corrupt(format!(
            "implausible layer shape {rows}x{cols}"
        )));
    }
    Ok((act, rows, cols))
}

fn read_dense(r: &mut ByteReader<'_>, tagged: bool) -> crate::Result<Dense> {
    let kind = if tagged { r.get_u8()? } else { LAYER_F32 };
    match kind {
        LAYER_F32 => {
            let (act, rows, cols) = read_layer_shape(r)?;
            let mut weight = Matrix::zeros(rows, cols);
            for v in weight.as_mut_slice() {
                *v = r.get_f32()?;
            }
            let mut bias = Matrix::zeros(1, cols);
            for v in bias.as_mut_slice() {
                *v = r.get_f32()?;
            }
            Dense::from_parameters(weight, bias, act)
        }
        LAYER_INT8 => {
            let (act, rows, cols) = read_layer_shape(r)?;
            let mut scales = vec![0.0f32; cols];
            for s in &mut scales {
                *s = r.get_f32()?;
            }
            let raw = r.get_bytes(rows * cols)?;
            let q: Vec<i8> = raw.iter().map(|&b| b as i8).collect();
            let mut bias = Matrix::zeros(1, cols);
            for v in bias.as_mut_slice() {
                *v = r.get_f32()?;
            }
            Dense::from_quantized_parameters(rows, cols, &q, &scales, bias, act)
        }
        other => Err(NnError::Corrupt(format!("unknown layer kind tag {other}"))),
    }
}

/// Serializes a multi-task model into a self-describing byte buffer.
pub fn serialize_multitask(model: &MultiTaskModel) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(MAGIC);
    // Pure-f32 models keep writing version 1, byte-identical to earlier
    // releases; the tagged version 2 layout is used exactly when a layer
    // carries int8 panels.
    let tagged = model.is_quantized();
    w.put_u16(if tagged { VERSION_QUANT } else { VERSION });
    let spec = model.spec();
    w.put_u32(spec.input_dim as u32);
    w.put_u32(spec.shared_hidden.len() as u32);
    for &s in &spec.shared_hidden {
        w.put_u32(s as u32);
    }
    w.put_u32(spec.heads.len() as u32);
    for head in &spec.heads {
        w.put_u32(head.hidden.len() as u32);
        for &s in &head.hidden {
            w.put_u32(s as u32);
        }
        w.put_u32(head.classes as u32);
    }
    for layer in model.trunk() {
        write_dense(&mut w, layer, tagged);
    }
    for head in model.heads() {
        for layer in head {
            write_dense(&mut w, layer, tagged);
        }
    }
    w.into_bytes()
}

/// Deserializes a multi-task model produced by [`serialize_multitask`].
pub fn deserialize_multitask(bytes: &[u8]) -> crate::Result<MultiTaskModel> {
    let mut r = ByteReader::new(bytes);
    let magic = r.get_bytes(4)?;
    if magic != MAGIC {
        return Err(NnError::Corrupt("bad magic".into()));
    }
    let version = r.get_u16()?;
    if version != VERSION && version != VERSION_QUANT {
        return Err(NnError::Corrupt(format!("unsupported version {version}")));
    }
    let tagged = version == VERSION_QUANT;
    let input_dim = r.get_u32()? as usize;
    let n_shared = r.get_u32()? as usize;
    if n_shared > 64 {
        return Err(NnError::Corrupt("implausible shared layer count".into()));
    }
    let mut shared_hidden = Vec::with_capacity(n_shared);
    for _ in 0..n_shared {
        shared_hidden.push(r.get_u32()? as usize);
    }
    let n_heads = r.get_u32()? as usize;
    if n_heads == 0 || n_heads > 4096 {
        return Err(NnError::Corrupt("implausible head count".into()));
    }
    let mut heads = Vec::with_capacity(n_heads);
    for _ in 0..n_heads {
        let n_hidden = r.get_u32()? as usize;
        if n_hidden > 64 {
            return Err(NnError::Corrupt("implausible private layer count".into()));
        }
        let mut hidden = Vec::with_capacity(n_hidden);
        for _ in 0..n_hidden {
            hidden.push(r.get_u32()? as usize);
        }
        let classes = r.get_u32()? as usize;
        heads.push(TaskHeadSpec { hidden, classes });
    }
    let spec = MultiTaskSpec {
        input_dim,
        shared_hidden,
        heads,
    };
    let mut trunk = Vec::with_capacity(spec.shared_hidden.len());
    for _ in 0..spec.shared_hidden.len() {
        trunk.push(read_dense(&mut r, tagged)?);
    }
    let mut head_layers = Vec::with_capacity(spec.heads.len());
    for head_spec in &spec.heads {
        let mut layers = Vec::with_capacity(head_spec.hidden.len() + 1);
        for _ in 0..=head_spec.hidden.len() {
            layers.push(read_dense(&mut r, tagged)?);
        }
        head_layers.push(layers);
    }
    if r.remaining() != 0 {
        return Err(NnError::Corrupt(format!(
            "{} trailing bytes after model",
            r.remaining()
        )));
    }
    MultiTaskModel::from_layers(spec, trunk, head_layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multitask::{MultiTaskSpec, TaskHeadSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_model(seed: u64) -> MultiTaskModel {
        let spec = MultiTaskSpec {
            input_dim: 10,
            shared_hidden: vec![16, 8],
            heads: vec![
                TaskHeadSpec::with_hidden(vec![12], 5),
                TaskHeadSpec::direct(7),
            ],
        };
        MultiTaskModel::new(&mut StdRng::seed_from_u64(seed), &spec).unwrap()
    }

    #[test]
    fn byte_reader_writer_round_trip_scalars() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(65535);
        w.put_u32(123456);
        w.put_u64(u64::MAX - 3);
        w.put_f32(-1.25);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 65535);
        assert_eq!(r.get_u32().unwrap(), 123456);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f32().unwrap(), -1.25);
        assert_eq!(r.remaining(), 0);
        assert!(r.get_u8().is_err());
    }

    #[test]
    fn model_round_trips_exactly() {
        let model = sample_model(3);
        let bytes = serialize_multitask(&model);
        let restored = deserialize_multitask(&bytes).unwrap();
        assert_eq!(restored.spec(), model.spec());
        // Same predictions on a batch.
        let x = crate::encoding::KeyEncoder::with_bits(10).encode_batch(&[0, 1, 5, 999]);
        let a = model.predict_classes(&x).unwrap();
        let b = restored.predict_classes(&x).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn serialized_size_tracks_parameter_count() {
        let model = sample_model(4);
        let bytes = serialize_multitask(&model);
        // Parameters dominate: serialized size must be at least 4 bytes per parameter
        // and not wildly larger.
        assert!(bytes.len() >= model.parameter_count() * 4);
        assert!(bytes.len() <= model.parameter_count() * 4 + 1024);
    }

    /// A quantized model writes version 2, shrinks markedly (int8 weights
    /// dominate), and reloads into a model with bit-identical predictions.
    #[test]
    fn quantized_model_round_trips_exactly_as_version_2() {
        let mut model = sample_model(6);
        let f32_bytes = serialize_multitask(&model);
        assert_eq!(u16::from_le_bytes([f32_bytes[4], f32_bytes[5]]), 1);
        model.quantize_int8().unwrap();
        let bytes = serialize_multitask(&model);
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 2);
        // Weight bytes shrink ~4x; scales/bias/headers keep it above 1/4.
        assert!(
            bytes.len() * 2 < f32_bytes.len(),
            "quantized {} vs f32 {}",
            bytes.len(),
            f32_bytes.len()
        );
        let restored = deserialize_multitask(&bytes).unwrap();
        assert!(restored.is_quantized());
        let x = crate::encoding::KeyEncoder::with_bits(10).encode_batch(&[0, 1, 5, 999, 12345]);
        let a = model.forward(&x).unwrap();
        let b = restored.forward(&x).unwrap();
        for (ma, mb) in a.iter().zip(&b) {
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(ma), bits(mb));
        }
        // And a second serialization of the reloaded model is byte-identical
        // (quantization is a fixed point).
        assert_eq!(serialize_multitask(&restored), bytes);
    }

    #[test]
    fn unknown_versions_and_layer_kinds_are_rejected() {
        let bytes = serialize_multitask(&sample_model(7));
        // A future version must be rejected with a typed error, not misparsed.
        let mut future = bytes.clone();
        future[4] = 3;
        future[5] = 0;
        assert!(matches!(
            deserialize_multitask(&future),
            Err(NnError::Corrupt(_))
        ));
        // A version-2 buffer with an unknown layer kind tag is rejected.
        let mut model = sample_model(7);
        model.quantize_int8().unwrap();
        let mut tagged = serialize_multitask(&model);
        // The first layer kind tag sits right after the spec header: magic(4)
        // + version(2) + input_dim(4) + n_shared(4) + 2 widths(8) + n_heads(4)
        // + head0 [n_hidden(4) + width(4) + classes(4)] + head1 [n_hidden(4) +
        // classes(4)] = byte 46 for `sample_model`'s spec.
        const FIRST_TAG: usize = 46;
        assert_eq!(tagged[FIRST_TAG], LAYER_INT8);
        tagged[FIRST_TAG] = 9;
        assert!(deserialize_multitask(&tagged).is_err());
    }

    /// A stored int8 weight of -128 — a byte the quantizer never writes — is
    /// refused on reload, not served (the AVX2 forms would negate it wrongly).
    #[test]
    fn a_stored_int8_weight_of_minus_128_is_rejected() {
        let mut model = sample_model(8);
        model.quantize_int8().unwrap();
        let mut bytes = serialize_multitask(&model);
        assert!(deserialize_multitask(&bytes).is_ok());
        // The first layer (10 × 16, see `unknown_versions_and_layer_kinds_are_rejected`
        // for its tag at byte 46): tag, activation, rows, cols, 16 scales, then
        // its row-major weights.
        const FIRST_TAG: usize = 46;
        let dims = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        assert_eq!((bytes[FIRST_TAG], dims(FIRST_TAG + 2), dims(FIRST_TAG + 6)), (LAYER_INT8, 10, 16));
        let first_weight = FIRST_TAG + 2 + 8 + 16 * 4;
        bytes[first_weight] = 0x80;
        assert!(matches!(deserialize_multitask(&bytes), Err(NnError::Corrupt(_))));
    }

    #[test]
    fn corrupt_buffers_are_rejected() {
        let model = sample_model(5);
        let bytes = serialize_multitask(&model);
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(deserialize_multitask(&bad).is_err());
        // Truncated.
        assert!(deserialize_multitask(&bytes[..bytes.len() / 2]).is_err());
        // Trailing garbage.
        let mut extended = bytes.clone();
        extended.extend_from_slice(&[0u8; 3]);
        assert!(deserialize_multitask(&extended).is_err());
        // Empty.
        assert!(deserialize_multitask(&[]).is_err());
    }
}
