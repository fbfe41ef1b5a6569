//! Fixed-width bit packing for small integers.
//!
//! Dictionary-encoded columns hold class codes in `0..cardinality`; packing them at
//! `ceil(log2(cardinality))` bits per code is what gives the "Dictionary Encoding"
//! baseline (ABC-D in the paper) its compression.  Also reused by the existence bit
//! vector serialization.

use crate::varint;
use crate::CompressError;

/// Number of bits needed to represent `max_value` (at least 1).
pub fn bits_for(max_value: u64) -> u32 {
    if max_value == 0 {
        1
    } else {
        64 - max_value.leading_zeros()
    }
}

/// Packs `values` at `bits` bits each (LSB-first within a little-endian bit stream).
/// The header stores the element count and width so [`unpack`] is self-describing.
pub fn pack(values: &[u64], bits: u32) -> crate::Result<Vec<u8>> {
    if bits == 0 || bits > 64 {
        return Err(CompressError::Unsupported(format!(
            "bit width {bits} out of range 1..=64"
        )));
    }
    let limit = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
    let mut out = Vec::with_capacity(8 + (values.len() * bits as usize).div_ceil(8));
    varint::write_u64(&mut out, values.len() as u64);
    out.push(bits as u8);
    let mut acc: u64 = 0;
    let mut acc_bits: u32 = 0;
    for &v in values {
        if v > limit {
            return Err(CompressError::Unsupported(format!(
                "value {v} does not fit in {bits} bits"
            )));
        }
        acc |= v << acc_bits;
        let consumed = (64 - acc_bits).min(bits);
        acc_bits += bits;
        if acc_bits >= 64 {
            out.extend_from_slice(&acc.to_le_bytes());
            acc_bits -= 64;
            acc = if consumed < bits && consumed < 64 {
                v >> consumed
            } else {
                0
            };
        }
    }
    if acc_bits > 0 {
        let bytes = acc_bits.div_ceil(8) as usize;
        out.extend_from_slice(&acc.to_le_bytes()[..bytes]);
    }
    Ok(out)
}

/// Parses and validates the header of a [`pack`] stream: `(count, bits, data)`,
/// with `data` long enough to hold `count` values of `bits` bits.
pub fn header(buf: &[u8]) -> crate::Result<(usize, u32, &[u8])> {
    let (count, pos) = varint::read_u64(buf, 0)?;
    let bits = *buf
        .get(pos)
        .ok_or_else(|| CompressError::Corrupt("bit width byte missing".into()))? as u32;
    if bits == 0 || bits > 64 {
        return Err(CompressError::Corrupt(format!("invalid bit width {bits}")));
    }
    let data = &buf[pos + 1..];
    if count.checked_mul(bits as u64).is_none_or(|needed| (data.len() as u64) * 8 < needed) {
        return Err(CompressError::Corrupt(format!(
            "bitpacked payload of {} bytes too small for {count} x {bits}-bit values",
            data.len()
        )));
    }
    Ok((count as usize, bits, data))
}

/// The `index`-th value of a packed bit stream, given the `bits` and `data` its
/// [`header`] returned — the per-value half of [`get`], for callers that
/// validate a stream once and then read it many times.
///
/// # Panics
/// When `index` is not below the stream's count.
#[inline]
pub fn value_at(data: &[u8], bits: u32, index: usize) -> u64 {
    value_at_bit(data, index as u64 * bits as u64, bits)
}

/// The `bits`-bit value that starts `bit_pos` bits into `data` — the read
/// behind [`value_at`], for a caller that keeps several streams in one buffer
/// and addresses a value by its bit position in the whole buffer, so one
/// bounds check against that buffer covers the read.  Bytes past the value's
/// own stream may be loaded (the mask drops them); only bytes past `data`
/// are not.
///
/// # Panics
/// When the value does not start inside `data`.
#[inline]
pub fn value_at_bit(data: &[u8], bit_pos: u64, bits: u32) -> u64 {
    let byte_idx = (bit_pos / 8) as usize;
    let bit_off = (bit_pos % 8) as u32;
    let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
    // The common case — a value inside one 8-byte window of the stream — is a
    // single load; the general one below also covers the last bytes and
    // values that straddle nine.
    if bit_off + bits <= 64 {
        if let Some(window) = data.get(byte_idx..byte_idx + 8) {
            let lo = u64::from_le_bytes(window.try_into().expect("slice of 8"));
            return (lo >> bit_off) & mask;
        }
    }
    // Up to 9 bytes cover the value (bits <= 64, bit offset <= 7).
    let mut chunk = [0u8; 9];
    let take = (data.len() - byte_idx).min(9);
    chunk[..take].copy_from_slice(&data[byte_idx..byte_idx + take]);
    let lo = u64::from_le_bytes(chunk[..8].try_into().expect("slice of 8"));
    if bit_off == 0 {
        lo & mask
    } else {
        ((lo >> bit_off) | ((chunk[8] as u64) << (64 - bit_off))) & mask
    }
}

/// Unpacks a buffer produced by [`pack`].
pub fn unpack(buf: &[u8]) -> crate::Result<Vec<u64>> {
    let (count, bits, data) = header(buf)?;
    Ok((0..count).map(|index| value_at(data, bits, index)).collect())
}

/// Random access into a buffer produced by [`pack`]: the value at `index`,
/// without unpacking its neighbours.
pub fn get(buf: &[u8], index: usize) -> crate::Result<u64> {
    let (count, bits, data) = header(buf)?;
    if index >= count {
        return Err(CompressError::Corrupt(format!(
            "index {index} out of range for {count} bitpacked values"
        )));
    }
    Ok(value_at(data, bits, index))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_boundaries() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
        assert_eq!(bits_for(u64::MAX), 64);
    }

    #[test]
    fn round_trip_various_widths() {
        for bits in [1u32, 3, 7, 8, 13, 16, 31, 32, 33, 63, 64] {
            let max = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
            let values: Vec<u64> = (0..200u64).map(|i| (i * 2654435761) % (max / 2 + 1)).collect();
            let packed = pack(&values, bits).unwrap();
            let unpacked = unpack(&packed).unwrap();
            assert_eq!(unpacked, values, "width {bits}");
        }
    }

    #[test]
    fn get_agrees_with_unpack_at_every_width() {
        for bits in 1..=64u32 {
            let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
            let values: Vec<u64> = (0..131u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(i as u32) & mask)
                .collect();
            let packed = pack(&values, bits).unwrap();
            let unpacked = unpack(&packed).unwrap();
            assert_eq!(unpacked, values, "width {bits}");
            for (index, &value) in unpacked.iter().enumerate() {
                assert_eq!(get(&packed, index).unwrap(), value, "width {bits} index {index}");
            }
            assert!(get(&packed, values.len()).is_err(), "width {bits}: past the end");
            assert!(get(&packed[..packed.len() - 1], 0).is_err(), "width {bits}: truncated");
        }
        assert!(get(&pack(&[], 7).unwrap(), 0).is_err());
    }

    #[test]
    fn empty_input_round_trips() {
        let packed = pack(&[], 5).unwrap();
        assert_eq!(unpack(&packed).unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn packed_size_is_near_theoretical_minimum() {
        let values: Vec<u64> = (0..1000u64).map(|i| i % 8).collect();
        let packed = pack(&values, 3).unwrap();
        // 1000 * 3 bits = 375 bytes plus a small header.
        assert!(packed.len() <= 375 + 8, "packed to {} bytes", packed.len());
    }

    #[test]
    fn values_exceeding_width_are_rejected() {
        assert!(pack(&[8], 3).is_err());
        assert!(pack(&[7], 3).is_ok());
    }

    #[test]
    fn invalid_widths_rejected() {
        assert!(pack(&[1], 0).is_err());
        assert!(pack(&[1], 65).is_err());
    }

    #[test]
    fn corrupt_buffers_rejected() {
        let packed = pack(&(0..100u64).collect::<Vec<_>>(), 7).unwrap();
        assert!(unpack(&packed[..packed.len() - 1]).is_err());
        assert!(unpack(&[]).is_err());
        // Claim a zero bit width.
        let mut bad = packed.clone();
        let (_, pos) = varint::read_u64(&bad, 0).unwrap();
        bad[pos] = 0;
        assert!(unpack(&bad).is_err());
    }
}
