//! Dictionary encoding (the ABC-D baseline codec).
//!
//! Byte-Dictionary Encoding in the paper replaces repeated cell values with small
//! integer codes.  Operating at the byte-string level here: the buffer is split into
//! fixed-size records (the caller supplies the record width, typically the serialized
//! tuple width), distinct records become dictionary entries, and the payload stores
//! one bit-packed code per record.  Buffers that are not an exact multiple of the
//! record width keep the remainder as a verbatim tail.
//!
//! If the dictionary would not pay for itself (too many distinct records) the encoder
//! falls back to storing the input verbatim — mirroring how dictionary encoding
//! degrades on high-cardinality columns, which is exactly the behaviour the TPC-DS
//! experiments of the paper rely on.

use crate::bitpack;
use crate::varint;
use crate::CompressError;
use std::collections::HashMap;

const MODE_VERBATIM: u8 = 0;
const MODE_DICT: u8 = 1;

/// Encodes `input` with a record-level dictionary.  `record_width` is the fixed record
/// size in bytes used to segment the buffer; callers typically pass the serialized row
/// width of the partition being compressed.
pub fn compress(input: &[u8], record_width: usize) -> Vec<u8> {
    let width = record_width.max(1);
    let records = input.len() / width;
    let tail_start = records * width;

    // Build the dictionary.
    let mut dict: HashMap<&[u8], u64> = HashMap::new();
    let mut entries: Vec<&[u8]> = Vec::new();
    let mut codes = Vec::with_capacity(records);
    for r in 0..records {
        let rec = &input[r * width..(r + 1) * width];
        let next_code = entries.len() as u64;
        let code = *dict.entry(rec).or_insert_with(|| {
            entries.push(rec);
            next_code
        });
        codes.push(code);
    }

    // Estimate whether the dictionary pays off.
    let bits = bitpack::bits_for(entries.len().saturating_sub(1) as u64);
    let dict_bytes = entries.len() * width;
    let payload_bits = records * bits as usize;
    let estimated = 16 + dict_bytes + payload_bits / 8 + (input.len() - tail_start);
    if entries.is_empty() || estimated >= input.len() + 8 {
        let mut out = Vec::with_capacity(input.len() + 8);
        out.push(MODE_VERBATIM);
        varint::write_u64(&mut out, input.len() as u64);
        out.extend_from_slice(input);
        return out;
    }

    let mut out = Vec::with_capacity(estimated + 32);
    out.push(MODE_DICT);
    varint::write_u64(&mut out, input.len() as u64);
    varint::write_u64(&mut out, width as u64);
    varint::write_u64(&mut out, entries.len() as u64);
    for rec in &entries {
        out.extend_from_slice(rec);
    }
    let packed = bitpack::pack(&codes, bits).expect("codes fit the computed width");
    varint::write_u64(&mut out, packed.len() as u64);
    out.extend_from_slice(&packed);
    out.extend_from_slice(&input[tail_start..]);
    out
}

/// Decodes a buffer produced by [`compress`].
pub fn decompress(input: &[u8]) -> crate::Result<Vec<u8>> {
    let mode = *input
        .first()
        .ok_or_else(|| CompressError::Corrupt("empty dictionary buffer".into()))?;
    match mode {
        MODE_VERBATIM => {
            let (len, pos) = varint::read_u64(input, 1)?;
            let end = crate::span_end(pos, len, input.len())
                .ok_or_else(|| CompressError::Corrupt("verbatim payload truncated".into()))?;
            Ok(input[pos..end].to_vec())
        }
        MODE_DICT => {
            let (total_len, pos) = varint::read_u64(input, 1)?;
            let (width, pos) = varint::read_u64(input, pos)?;
            let (n_entries, mut pos) = varint::read_u64(input, pos)?;
            let total_len = total_len as usize;
            let width = width as usize;
            let n_entries = n_entries as usize;
            if width == 0 {
                return Err(CompressError::Corrupt("zero record width".into()));
            }
            let dict_bytes = n_entries
                .checked_mul(width)
                .ok_or_else(|| CompressError::Corrupt("dictionary size overflow".into()))?;
            let dict_end = crate::span_end(pos, dict_bytes as u64, input.len())
                .ok_or_else(|| CompressError::Corrupt("dictionary entries truncated".into()))?;
            let dict = &input[pos..dict_end];
            pos = dict_end;
            let (packed_len, pos) = varint::read_u64(input, pos)?;
            let packed_end = crate::span_end(pos, packed_len, input.len())
                .ok_or_else(|| CompressError::Corrupt("code payload truncated".into()))?;
            let codes = bitpack::unpack(&input[pos..packed_end])?;
            let tail = &input[packed_end..];
            let mut out = crate::output_buffer(total_len);
            for &code in &codes {
                let code = code as usize;
                if code >= n_entries {
                    return Err(CompressError::Corrupt(format!(
                        "code {code} out of range for {n_entries} dictionary entries"
                    )));
                }
                out.extend_from_slice(&dict[code * width..(code + 1) * width]);
            }
            out.extend_from_slice(tail);
            if out.len() != total_len {
                return Err(CompressError::Corrupt(format!(
                    "dictionary decode produced {} bytes, expected {total_len}",
                    out.len()
                )));
            }
            Ok(out)
        }
        other => Err(CompressError::Corrupt(format!("unknown dictionary mode {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lengths that wrap `pos + len` — of a verbatim payload, of the entries
    /// and of the codes — are `Corrupt`, not a panic; so is a declared
    /// output of `u64::MAX` bytes.
    #[test]
    fn crafted_lengths_are_corrupt_not_a_panic() {
        let mut verbatim = vec![MODE_VERBATIM];
        varint::write_u64(&mut verbatim, u64::MAX);
        verbatim.push(0);
        // Codes 0 and 1 of two one-byte entries.
        let codes = bitpack::pack(&[0, 1], 1).unwrap();
        let dict = |total: u64, width: u64, entries: u64, codes_len: Option<u64>| {
            let mut out = vec![MODE_DICT];
            for v in [total, width, entries] {
                varint::write_u64(&mut out, v);
            }
            match codes_len {
                Some(len) => {
                    out.extend_from_slice(&[1, 2]);
                    varint::write_u64(&mut out, len);
                    out.extend_from_slice(&codes);
                }
                None => out.extend_from_slice(&[0; 4]),
            }
            out
        };
        assert_eq!(decompress(&dict(2, 1, 2, Some(codes.len() as u64))).unwrap(), [1, 2]);
        for crafted in [
            verbatim,
            dict(2, 1, u64::MAX, None),
            dict(2, 2, u64::MAX / 2, None),
            dict(2, 1, 2, Some(u64::MAX)),
            dict(u64::MAX, 1, 2, Some(codes.len() as u64)),
        ] {
            assert!(matches!(decompress(&crafted), Err(CompressError::Corrupt(_))), "{crafted:?}");
        }
    }

    fn round_trip(data: &[u8], width: usize) {
        let compressed = compress(data, width);
        let restored = decompress(&compressed).unwrap();
        assert_eq!(restored, data);
    }

    #[test]
    fn round_trips_varied_inputs() {
        round_trip(b"", 4);
        round_trip(b"abc", 4); // shorter than a record: verbatim tail only
        round_trip(b"aaaabbbbaaaabbbbaaaa", 4);
        round_trip(&vec![1u8; 1000], 8);
        let rows: Vec<u8> = (0..500u32).flat_map(|i| [(i % 3) as u8, 0, (i % 2) as u8, 7]).collect();
        round_trip(&rows, 4);
        // Tail not a multiple of the record width.
        let mut with_tail = rows.clone();
        with_tail.extend_from_slice(&[9, 9, 9]);
        round_trip(&with_tail, 4);
    }

    #[test]
    fn low_cardinality_records_compress_well() {
        // 10_000 records of width 8 drawn from only 4 distinct values.
        let data: Vec<u8> = (0..10_000u32)
            .flat_map(|i| {
                let v = (i % 4) as u8;
                [v, v, v, v, v, v, v, v]
            })
            .collect();
        let compressed = compress(&data, 8);
        assert!(
            compressed.len() < data.len() / 10,
            "{} -> {}",
            data.len(),
            compressed.len()
        );
    }

    #[test]
    fn high_cardinality_falls_back_to_verbatim() {
        let data: Vec<u8> = (0..40_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let compressed = compress(&data, 4);
        assert_eq!(compressed[0], MODE_VERBATIM);
        assert!(compressed.len() <= data.len() + 16);
        round_trip(&data, 4);
    }

    #[test]
    fn corrupt_buffers_rejected() {
        let data: Vec<u8> = (0..100u8).flat_map(|i| [i % 5, i % 3]).collect();
        let compressed = compress(&data, 2);
        assert!(decompress(&compressed[..compressed.len() / 2]).is_err());
        assert!(decompress(&[]).is_err());
        let mut bad = compressed.clone();
        bad[0] = 9;
        assert!(decompress(&bad).is_err());
    }
}
