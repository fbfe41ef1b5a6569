//! LZSS compression with hash-chain match search.
//!
//! This is the dictionary-window stage behind three of the codecs:
//!
//! * [`Codec::Lz`](crate::Codec::Lz) — this stage alone with a shallow match search
//!   (fast; the Z-Standard stand-in),
//! * [`Codec::Deflate`](crate::Codec::Deflate) — this stage with a 32 KiB window plus a
//!   Huffman entropy stage (the gzip stand-in),
//! * [`Codec::LzHuff`](crate::Codec::LzHuff) — this stage with a 1 MiB window, deeper
//!   match search and the Huffman stage (the LZMA stand-in: slowest, best ratio).
//!
//! The token format is byte-aligned for decoding speed: a control byte carries eight
//! literal/match flags, literals are raw bytes, and matches are `(distance, length)`
//! pairs encoded as varints.

use crate::varint;
use crate::CompressError;

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 262;
const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// Tuning parameters for the match search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LzConfig {
    /// Sliding-window size in bytes; matches can only reference this far back.
    pub window: usize,
    /// Maximum number of hash-chain candidates examined per position.
    pub max_chain: usize,
    /// Stop searching once a match at least this long is found.
    pub good_enough: usize,
}

impl LzConfig {
    /// Fast profile (Z-Standard stand-in): 64 KiB window, shallow chains.
    pub fn fast() -> Self {
        LzConfig {
            window: 64 * 1024,
            max_chain: 16,
            good_enough: 64,
        }
    }

    /// Balanced profile (gzip stand-in): 32 KiB window, moderate chains.
    pub fn balanced() -> Self {
        LzConfig {
            window: 32 * 1024,
            max_chain: 64,
            good_enough: 128,
        }
    }

    /// Thorough profile (LZMA stand-in): 1 MiB window, deep chains.
    pub fn thorough() -> Self {
        LzConfig {
            window: 1024 * 1024,
            max_chain: 256,
            good_enough: MAX_MATCH,
        }
    }
}

#[inline]
fn hash4(data: &[u8], pos: usize) -> usize {
    let v = u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Compresses `input` with the given configuration.
///
/// Layout: `varint original_len | blocks`, where each block starts with a control byte
/// whose bits (LSB first) say literal (0) or match (1) for the next eight tokens.
pub fn compress(input: &[u8], config: &LzConfig) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    varint::write_u64(&mut out, input.len() as u64);
    if input.is_empty() {
        return out;
    }
    // Hash chains: head[h] is the most recent position with hash h, prev[i % window]
    // links to the previous position with the same hash.
    let mut head = vec![usize::MAX; HASH_SIZE];
    let window = config.window.max(1024);
    let mut prev = vec![usize::MAX; window];

    let mut pos = 0usize;
    let mut control_pos = out.len();
    out.push(0u8);
    let mut control_bit = 0u32;
    let mut control: u8 = 0;

    macro_rules! flush_control {
        () => {
            if control_bit == 8 {
                out[control_pos] = control;
                control_pos = out.len();
                out.push(0u8);
                control = 0;
                control_bit = 0;
            }
        };
    }

    while pos < input.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if pos + MIN_MATCH <= input.len() {
            let h = hash4(input, pos);
            let mut candidate = head[h];
            let mut chain = 0usize;
            let window_start = pos.saturating_sub(window);
            while candidate != usize::MAX
                && candidate >= window_start
                && candidate < pos
                && chain < config.max_chain
            {
                // Compare.
                let max_len = (input.len() - pos).min(MAX_MATCH);
                let mut len = 0usize;
                while len < max_len && input[candidate + len] == input[pos + len] {
                    len += 1;
                }
                if len > best_len {
                    best_len = len;
                    best_dist = pos - candidate;
                    if len >= config.good_enough {
                        break;
                    }
                }
                candidate = prev[candidate % window];
                chain += 1;
            }
        }

        if best_len >= MIN_MATCH {
            // Emit a match token.
            control |= 1 << control_bit;
            control_bit += 1;
            varint::write_u64(&mut out, best_dist as u64);
            varint::write_u64(&mut out, (best_len - MIN_MATCH) as u64);
            // Insert hash entries for the matched region (sparsely, every position,
            // capped to keep compression O(n)).
            let end = (pos + best_len).min(input.len().saturating_sub(MIN_MATCH - 1));
            let mut p = pos;
            while p < end {
                let h = hash4(input, p);
                prev[p % window] = head[h];
                head[h] = p;
                p += 1;
            }
            pos += best_len;
        } else {
            // Literal.
            control_bit += 1;
            out.push(input[pos]);
            if pos + MIN_MATCH <= input.len() {
                let h = hash4(input, pos);
                prev[pos % window] = head[h];
                head[h] = pos;
            }
            pos += 1;
        }
        flush_control!();
    }
    out[control_pos] = control;
    // If the final control byte slot was allocated but no tokens were written into it,
    // it is harmless: the decoder stops at original_len.
    out
}

/// Decompresses a buffer produced by [`compress`].
pub fn decompress(input: &[u8]) -> crate::Result<Vec<u8>> {
    let (original_len, mut pos) = varint::read_u64(input, 0)?;
    let original_len = original_len as usize;
    let mut out = crate::output_buffer(original_len);
    if original_len == 0 {
        return Ok(out);
    }
    let mut control: u8 = 0;
    let mut control_bit = 8u32;
    while out.len() < original_len {
        if control_bit == 8 {
            control = *input
                .get(pos)
                .ok_or_else(|| CompressError::Corrupt("missing control byte".into()))?;
            pos += 1;
            control_bit = 0;
        }
        let is_match = (control >> control_bit) & 1 == 1;
        control_bit += 1;
        if is_match {
            let (dist, next) = varint::read_u64(input, pos)?;
            pos = next;
            let (len_extra, next) = varint::read_u64(input, pos)?;
            pos = next;
            let dist = dist as usize;
            if dist == 0 || dist > out.len() {
                return Err(CompressError::Corrupt(format!(
                    "match distance {dist} exceeds output length {}",
                    out.len()
                )));
            }
            let end = len_extra
                .checked_add(MIN_MATCH as u64)
                .and_then(|len| crate::span_end(out.len(), len, original_len))
                .ok_or_else(|| CompressError::Corrupt("match overflows declared length".into()))?;
            let (start, len) = (out.len() - dist, end - out.len());
            // Overlapping copies are the point of LZ: copy byte by byte.
            for i in 0..len {
                let b = out[start + i];
                out.push(b);
            }
        } else {
            let b = *input
                .get(pos)
                .ok_or_else(|| CompressError::Corrupt("missing literal byte".into()))?;
            pos += 1;
            out.push(b);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lengths a crafted buffer declares are checked before they are
    /// reserved or added: `u64::MAX` output bytes, and a match whose length
    /// wraps, are `Corrupt`, not a panic.
    #[test]
    fn crafted_lengths_are_corrupt_not_a_panic() {
        let mut huge = Vec::new();
        varint::write_u64(&mut huge, u64::MAX);
        assert!(matches!(decompress(&huge), Err(CompressError::Corrupt(_))));
        // 8 bytes: a literal, then a match of distance 1 whose length wraps.
        let mut wrap = Vec::new();
        varint::write_u64(&mut wrap, 8);
        wrap.extend_from_slice(&[0b10, b'a']);
        varint::write_u64(&mut wrap, 1);
        varint::write_u64(&mut wrap, u64::MAX);
        assert!(matches!(decompress(&wrap), Err(CompressError::Corrupt(_))));
    }

    fn round_trip_with(data: &[u8], config: &LzConfig) {
        let compressed = compress(data, config);
        let restored = decompress(&compressed).unwrap();
        assert_eq!(restored, data, "{} bytes, config {config:?}", data.len());
    }

    fn round_trip(data: &[u8]) {
        for config in [LzConfig::fast(), LzConfig::balanced(), LzConfig::thorough()] {
            round_trip_with(data, &config);
        }
    }

    #[test]
    fn round_trips_varied_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abcabcabcabcabcabcabc");
        round_trip(&vec![7u8; 10_000]);
        round_trip(b"the quick brown fox jumps over the lazy dog. the quick brown fox!");
        let structured: Vec<u8> = (0..30_000u32)
            .flat_map(|i| ((i % 100) as u16).to_le_bytes())
            .collect();
        round_trip(&structured);
    }

    #[test]
    fn repetitive_data_compresses_strongly() {
        let data = b"ORDER|SHIPPING|IN PROCESS|".repeat(2000);
        let compressed = compress(&data, &LzConfig::fast());
        assert!(
            compressed.len() < data.len() / 10,
            "{} -> {}",
            data.len(),
            compressed.len()
        );
    }

    #[test]
    fn thorough_profile_compresses_at_least_as_well_as_fast() {
        // Structured tabular-like data with long-range repetition.
        let mut data = Vec::new();
        for i in 0..5000u32 {
            data.extend_from_slice(format!("row-{}|status-{}|", i % 37, i % 5).as_bytes());
        }
        let fast = compress(&data, &LzConfig::fast());
        let thorough = compress(&data, &LzConfig::thorough());
        assert!(thorough.len() <= fast.len() + 16, "fast {} thorough {}", fast.len(), thorough.len());
    }

    #[test]
    fn random_data_does_not_explode() {
        use rand::Rng;
        let mut rng = rand::thread_rng();
        let data: Vec<u8> = (0..50_000).map(|_| rng.gen()).collect();
        let compressed = compress(&data, &LzConfig::fast());
        // One control bit per literal: overhead bounded by ~1/8 plus the header.
        assert!(compressed.len() < data.len() + data.len() / 7 + 32);
        round_trip_with(&data, &LzConfig::fast());
    }

    #[test]
    fn overlapping_match_is_handled() {
        // "aaaa..." generates matches with distance 1 and long lengths.
        let data = vec![b'a'; 1000];
        round_trip(&data);
    }

    #[test]
    fn corrupt_buffers_rejected() {
        let data = b"abcdabcdabcdabcd-abcdabcdabcdabcd".repeat(20);
        let compressed = compress(&data, &LzConfig::fast());
        assert!(decompress(&compressed[..compressed.len() / 3]).is_err());
        assert!(decompress(&[]).is_err());
        // A match distance that points before the start of output.
        let mut bad = Vec::new();
        varint::write_u64(&mut bad, 10);
        bad.push(0b0000_0001); // first token is a match
        varint::write_u64(&mut bad, 5); // distance 5 with empty output
        varint::write_u64(&mut bad, 0);
        assert!(decompress(&bad).is_err());
    }
}
