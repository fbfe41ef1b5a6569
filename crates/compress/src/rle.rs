//! Byte-level run-length encoding.
//!
//! Columnar partitions of low-cardinality categorical data contain long runs of the
//! same byte once dictionary-encoded, so RLE is used both as a standalone cheap codec
//! and as a pre-pass inside the dictionary codec.  The format alternates
//! `(varint run_length, byte)` pairs for runs of length ≥ 4 and literal segments
//! prefixed by their length; a 1-byte tag distinguishes the two.

use crate::varint;
use crate::CompressError;

const TAG_RUN: u8 = 0;
const TAG_LITERAL: u8 = 1;
const MIN_RUN: usize = 4;

/// Run-length encodes a byte buffer.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 4 + 16);
    varint::write_u64(&mut out, input.len() as u64);
    let mut i = 0usize;
    let mut literal_start = 0usize;
    while i < input.len() {
        // Measure the run starting at i.
        let b = input[i];
        let mut run = 1usize;
        while i + run < input.len() && input[i + run] == b {
            run += 1;
        }
        if run >= MIN_RUN {
            // Flush pending literals.
            if literal_start < i {
                let lit = &input[literal_start..i];
                out.push(TAG_LITERAL);
                varint::write_u64(&mut out, lit.len() as u64);
                out.extend_from_slice(lit);
            }
            out.push(TAG_RUN);
            varint::write_u64(&mut out, run as u64);
            out.push(b);
            i += run;
            literal_start = i;
        } else {
            i += run;
        }
    }
    if literal_start < input.len() {
        let lit = &input[literal_start..];
        out.push(TAG_LITERAL);
        varint::write_u64(&mut out, lit.len() as u64);
        out.extend_from_slice(lit);
    }
    out
}

/// Decodes a buffer produced by [`compress`].
pub fn decompress(input: &[u8]) -> crate::Result<Vec<u8>> {
    let (expected_len, mut pos) = varint::read_u64(input, 0)?;
    let expected_len = expected_len as usize;
    let mut out = crate::output_buffer(expected_len);
    while pos < input.len() {
        let tag = input[pos];
        pos += 1;
        match tag {
            TAG_RUN => {
                let (run, next) = varint::read_u64(input, pos)?;
                pos = next;
                let byte = *input
                    .get(pos)
                    .ok_or_else(|| CompressError::Corrupt("run byte missing".into()))?;
                pos += 1;
                let end = crate::span_end(out.len(), run, expected_len)
                    .ok_or_else(|| CompressError::Corrupt("run overflows declared length".into()))?;
                out.resize(end, byte);
            }
            TAG_LITERAL => {
                let (len, next) = varint::read_u64(input, pos)?;
                let end = crate::span_end(next, len, input.len())
                    .ok_or_else(|| CompressError::Corrupt("literal segment truncated".into()))?;
                if crate::span_end(out.len(), len, expected_len).is_none() {
                    return Err(CompressError::Corrupt(
                        "literal overflows declared length".into(),
                    ));
                }
                out.extend_from_slice(&input[next..end]);
                pos = end;
            }
            other => {
                return Err(CompressError::Corrupt(format!("unknown RLE tag {other}")));
            }
        }
    }
    if out.len() != expected_len {
        return Err(CompressError::Corrupt(format!(
            "RLE produced {} bytes but header declared {expected_len}",
            out.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run and literal lengths that wrap an addition are `Corrupt`, not a
    /// panic or a truncated output; so is a declared length of `u64::MAX`.
    #[test]
    fn crafted_lengths_are_corrupt_not_a_panic() {
        for tag in [TAG_LITERAL, TAG_RUN] {
            // 4 bytes: a run of one, then a run or literal of `u64::MAX`.
            let mut crafted = Vec::new();
            varint::write_u64(&mut crafted, 4);
            crafted.push(TAG_RUN);
            varint::write_u64(&mut crafted, 1);
            crafted.extend_from_slice(&[7, tag]);
            varint::write_u64(&mut crafted, u64::MAX);
            crafted.push(7);
            assert!(matches!(decompress(&crafted), Err(CompressError::Corrupt(_))), "tag {tag}");
        }
        let mut huge = Vec::new();
        varint::write_u64(&mut huge, u64::MAX);
        assert!(matches!(decompress(&huge), Err(CompressError::Corrupt(_))));
    }

    fn round_trip(data: &[u8]) {
        let compressed = compress(data);
        let restored = decompress(&compressed).unwrap();
        assert_eq!(restored, data);
    }

    #[test]
    fn round_trips_varied_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(&[0u8; 1000]);
        round_trip(b"aaaabbbbccccabcabcabc");
        let mixed: Vec<u8> = (0..500).map(|i| if i % 7 < 5 { 9 } else { (i % 256) as u8 }).collect();
        round_trip(&mixed);
    }

    #[test]
    fn long_runs_compress_well() {
        let data = vec![42u8; 100_000];
        let compressed = compress(&data);
        assert!(compressed.len() < 20, "compressed to {} bytes", compressed.len());
    }

    #[test]
    fn incompressible_data_does_not_explode() {
        let data: Vec<u8> = (0..10_000u32)
            .map(|i| (i.wrapping_mul(2654435761) % 251) as u8)
            .collect();
        let compressed = compress(&data);
        // Worst case adds only the header and a handful of literal tags.
        assert!(compressed.len() < data.len() + 64);
    }

    #[test]
    fn corrupt_buffers_rejected() {
        let data = vec![7u8; 100];
        let mut compressed = compress(&data);
        // Truncate.
        assert!(decompress(&compressed[..compressed.len() - 1]).is_err());
        // Unknown tag.
        let header_len = {
            let mut v = Vec::new();
            varint::write_u64(&mut v, 100);
            v.len()
        };
        compressed[header_len] = 99;
        assert!(decompress(&compressed).is_err());
        // Empty input is corrupt (missing header).
        assert!(decompress(&[]).is_err());
    }

    #[test]
    fn declared_length_is_enforced() {
        // Build a buffer that claims 4 bytes but encodes a run of 8.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 4);
        buf.push(TAG_RUN);
        varint::write_u64(&mut buf, 8);
        buf.push(1);
        assert!(decompress(&buf).is_err());
    }
}
