//! Self-describing compressed frames with integrity checking.
//!
//! Partitions written to the simulated disk are wrapped in a frame that records which
//! codec produced them, the original length and an FNV-1a checksum of the compressed
//! payload.  This is what lets the buffer pool deserialize a partition without knowing
//! out-of-band how it was compressed, and what turns silent corruption into an error
//! instead of wrong query answers.
//!
//! Layout: `magic "DMFR" | codec tag u8 | varint record_width | varint original_len |
//! varint payload_len | u64 checksum | payload`.

use crate::codec::Codec;
use crate::varint;
use crate::{fnv1a64, CompressError};

const MAGIC: &[u8; 4] = b"DMFR";

/// Compresses `input` with `codec` and wraps it in a frame.  A frame never
/// grows its input: when the codec does not shrink it (bit-packed or otherwise
/// high-entropy bytes), the raw bytes are framed under [`Codec::None`] instead —
/// frames are self-describing, so readers need not know.
pub fn compress_frame(codec: &Codec, input: &[u8]) -> Vec<u8> {
    let mut codec = codec;
    let mut payload = codec.compress(input);
    if payload.len() >= input.len() {
        codec = &Codec::None;
        payload = input.to_vec();
    }
    let record_width = match codec {
        Codec::Dictionary { record_width } => *record_width,
        _ => 0,
    };
    let mut out = Vec::with_capacity(payload.len() + 32);
    out.extend_from_slice(MAGIC);
    out.push(codec.tag());
    varint::write_u64(&mut out, record_width as u64);
    varint::write_u64(&mut out, input.len() as u64);
    varint::write_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Unwraps and decompresses a frame produced by [`compress_frame`].
pub fn decompress_frame(frame: &[u8]) -> crate::Result<Vec<u8>> {
    if frame.len() < 5 || &frame[..4] != MAGIC {
        return Err(CompressError::Corrupt("bad frame magic".into()));
    }
    let tag = frame[4];
    let (record_width, pos) = varint::read_u64(frame, 5)?;
    let (original_len, pos) = varint::read_u64(frame, pos)?;
    let (payload_len, pos) = varint::read_u64(frame, pos)?;
    let end = crate::span_end(pos, 8, frame.len())
        .and_then(|at| crate::span_end(at, payload_len, frame.len()))
        .ok_or_else(|| CompressError::Corrupt("frame payload truncated".into()))?;
    let checksum = u64::from_le_bytes(frame[pos..pos + 8].try_into().expect("8 bytes"));
    let payload = &frame[pos + 8..end];
    if fnv1a64(payload) != checksum {
        return Err(CompressError::Corrupt("frame checksum mismatch".into()));
    }
    let codec = Codec::from_tag(tag, record_width as usize)
        .ok_or_else(|| CompressError::Corrupt(format!("unknown codec tag {tag}")))?;
    let out = codec.decompress(payload)?;
    if out.len() != original_len as usize {
        return Err(CompressError::Corrupt(format!(
            "frame declared {original_len} bytes but decoded {}",
            out.len()
        )));
    }
    Ok(out)
}

/// Reads only the header of a frame, returning `(codec, original_len, payload_len)`.
/// The buffer pool uses this to account for sizes without decompressing.
pub fn frame_info(frame: &[u8]) -> crate::Result<(Codec, usize, usize)> {
    if frame.len() < 5 || &frame[..4] != MAGIC {
        return Err(CompressError::Corrupt("bad frame magic".into()));
    }
    let tag = frame[4];
    let (record_width, pos) = varint::read_u64(frame, 5)?;
    let (original_len, pos) = varint::read_u64(frame, pos)?;
    let (payload_len, _) = varint::read_u64(frame, pos)?;
    let codec = Codec::from_tag(tag, record_width as usize)
        .ok_or_else(|| CompressError::Corrupt(format!("unknown codec tag {tag}")))?;
    Ok((codec, original_len as usize, payload_len as usize))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A payload length that wraps `pos + 8 + payload_len` is `Corrupt`, not
    /// a panic slicing past the frame.
    #[test]
    fn a_payload_length_that_wraps_is_corrupt_not_a_panic() {
        let mut frame = MAGIC.to_vec();
        frame.push(Codec::Lz.tag());
        varint::write_u64(&mut frame, 0);
        varint::write_u64(&mut frame, 0);
        varint::write_u64(&mut frame, u64::MAX - 8);
        frame.extend_from_slice(&[0; 8]);
        assert!(matches!(decompress_frame(&frame), Err(CompressError::Corrupt(_))));
    }

    #[test]
    fn frame_round_trips_for_every_codec() {
        let data: Vec<u8> = (0..5000u32).flat_map(|i| [(i % 11) as u8, (i % 3) as u8]).collect();
        for codec in Codec::paper_sweep(2) {
            let frame = compress_frame(&codec, &data);
            let restored = decompress_frame(&frame).unwrap();
            assert_eq!(restored, data, "codec {codec:?}");
            let (decoded_codec, original, payload) = frame_info(&frame).unwrap();
            assert_eq!(decoded_codec.tag(), codec.tag());
            assert_eq!(original, data.len());
            assert!(payload <= frame.len());
        }
    }

    /// SplitMix64 noise: what a bit-packed partition looks like to a codec.
    fn noise(len: usize) -> Vec<u8> {
        let mut state = 0x5EED_u64;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn frames_never_grow_their_input() {
        let incompressible = noise(800);
        let compressible = vec![7u8; 800];
        // magic + tag + three varints (<= 2 bytes each here) + checksum.
        let header = 4 + 1 + 1 + 2 + 2 + 8;
        for codec in [Codec::Lz, Codec::Deflate, Codec::LzHuff] {
            assert!(codec.compress(&incompressible).len() > incompressible.len(), "{codec:?}");
            let frame = compress_frame(&codec, &incompressible);
            assert!(frame.len() <= incompressible.len() + header, "{codec:?}: {}", frame.len());
            assert_eq!(frame_info(&frame).unwrap().0, Codec::None, "{codec:?}");
            assert_eq!(decompress_frame(&frame).unwrap(), incompressible, "{codec:?}");
            // Compressible input keeps the codec it was framed with.
            let frame = compress_frame(&codec, &compressible);
            assert_eq!(frame_info(&frame).unwrap().0, codec, "{codec:?}");
            assert!(frame.len() < compressible.len() / 2);
            assert_eq!(decompress_frame(&frame).unwrap(), compressible);
        }
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let data = vec![3u8; 4096];
        let mut frame = compress_frame(&Codec::Lz, &data);
        let last = frame.len() - 1;
        frame[last] ^= 0xff;
        let err = decompress_frame(&frame).unwrap_err();
        assert!(matches!(err, CompressError::Corrupt(_)));
    }

    #[test]
    fn bad_magic_and_truncation_rejected() {
        let data = vec![1u8; 100];
        let frame = compress_frame(&Codec::None, &data);
        assert!(decompress_frame(&frame[..10]).is_err());
        let mut bad = frame.clone();
        bad[0] = b'X';
        assert!(decompress_frame(&bad).is_err());
        assert!(frame_info(&bad).is_err());
        assert!(decompress_frame(&[]).is_err());
    }

    #[test]
    fn retired_codec_tag_is_corruption_not_a_panic() {
        let mut frame = compress_frame(&Codec::None, &[9u8; 64]);
        frame[4] = 2;
        assert!(matches!(decompress_frame(&frame), Err(CompressError::Corrupt(_))));
        assert!(matches!(frame_info(&frame), Err(CompressError::Corrupt(_))));
    }

    #[test]
    fn empty_input_frames_round_trip() {
        for codec in Codec::paper_sweep(8) {
            let frame = compress_frame(&codec, &[]);
            assert_eq!(decompress_frame(&frame).unwrap(), Vec::<u8>::new());
        }
    }
}
