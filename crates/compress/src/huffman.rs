//! Canonical Huffman coding over the byte alphabet.
//!
//! Used as the entropy stage behind the LZ match search for the `Deflate` (gzip
//! stand-in) and `LzHuff` (LZMA stand-in) codecs.  The encoder emits a compact header
//! (code length per symbol, run-length encoded) followed by the bit stream; canonical
//! code assignment means the decoder can rebuild the exact codes from lengths alone.

use crate::varint;
use crate::CompressError;

const MAX_CODE_LEN: u32 = 15;
const ALPHABET: usize = 256;

/// A bit-level writer (LSB-first within each byte).
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    acc: u64,
    bits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the low `count` bits of `value`.
    pub fn write_bits(&mut self, value: u64, count: u32) {
        debug_assert!(count <= 57, "bit writer chunk too large");
        self.acc |= value << self.bits;
        self.bits += count;
        while self.bits >= 8 {
            self.buf.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.bits -= 8;
        }
    }

    /// Flushes any partial byte and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.bits > 0 {
            self.buf.push((self.acc & 0xff) as u8);
        }
        self.buf
    }
}

/// A bit-level reader matching [`BitWriter`].
#[derive(Debug)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    pos: usize,
    acc: u64,
    bits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader {
            buf,
            pos: 0,
            acc: 0,
            bits: 0,
        }
    }

    /// Reads `count` bits; returns an error if the stream is exhausted.
    pub fn read_bits(&mut self, count: u32) -> crate::Result<u64> {
        debug_assert!(count <= 57);
        while self.bits < count {
            let byte = *self
                .buf
                .get(self.pos)
                .ok_or_else(|| CompressError::Corrupt("bit stream exhausted".into()))?;
            self.acc |= (byte as u64) << self.bits;
            self.bits += 8;
            self.pos += 1;
        }
        let value = self.acc & ((1u64 << count) - 1);
        self.acc >>= count;
        self.bits -= count;
        Ok(value)
    }

    /// Reads a single bit.
    pub fn read_bit(&mut self) -> crate::Result<u64> {
        self.read_bits(1)
    }
}

/// Canonical Huffman code table: per-symbol code length and code bits.
#[derive(Debug, Clone)]
pub struct HuffmanTable {
    lengths: Vec<u32>,
    codes: Vec<u32>,
}

impl HuffmanTable {
    /// Builds a length-limited table from symbol frequencies (one entry per byte value).
    pub fn from_frequencies(freqs: &[u64; ALPHABET]) -> Self {
        let lengths = build_code_lengths(freqs);
        let codes = canonical_codes(&lengths);
        HuffmanTable { lengths, codes }
    }

    /// Rebuilds a table from code lengths (decoder side).
    pub fn from_lengths(lengths: Vec<u32>) -> crate::Result<Self> {
        if lengths.len() != ALPHABET {
            return Err(CompressError::Corrupt(format!(
                "expected {ALPHABET} code lengths, got {}",
                lengths.len()
            )));
        }
        if lengths.iter().any(|&l| l > MAX_CODE_LEN) {
            return Err(CompressError::Corrupt("code length exceeds limit".into()));
        }
        // Kraft inequality check: sum of 2^-len must not exceed 1 for a prefix code.
        let kraft: u64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (MAX_CODE_LEN - l))
            .sum();
        if kraft > 1u64 << MAX_CODE_LEN {
            return Err(CompressError::Corrupt("code lengths violate Kraft inequality".into()));
        }
        let codes = canonical_codes(&lengths);
        Ok(HuffmanTable { lengths, codes })
    }

    /// Per-symbol code lengths.
    pub fn lengths(&self) -> &[u32] {
        &self.lengths
    }

    fn encode_symbol(&self, writer: &mut BitWriter, symbol: u8) {
        let s = symbol as usize;
        writer.write_bits(self.codes[s] as u64, self.lengths[s]);
    }
}

/// Assigns code lengths with a simple package-merge-free heuristic: build a Huffman
/// tree from frequencies, then clamp lengths to `MAX_CODE_LEN` and repair with the
/// canonical "rebalance" pass (move long codes up until the Kraft sum fits).
fn build_code_lengths(freqs: &[u64; ALPHABET]) -> Vec<u32> {
    #[derive(Clone)]
    struct Node {
        left: Option<usize>,
        right: Option<usize>,
        symbol: Option<usize>,
    }
    let mut nodes: Vec<Node> = Vec::new();
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>> =
        std::collections::BinaryHeap::new();
    for (s, &f) in freqs.iter().enumerate() {
        if f > 0 {
            let idx = nodes.len();
            nodes.push(Node {
                left: None,
                right: None,
                symbol: Some(s),
            });
            heap.push(std::cmp::Reverse((f, idx)));
        }
    }
    let mut lengths = vec![0u32; ALPHABET];
    match heap.len() {
        0 => return lengths,
        1 => {
            // A single distinct symbol still needs a 1-bit code.
            let std::cmp::Reverse((_, idx)) = heap.pop().expect("one element");
            lengths[nodes[idx].symbol.expect("leaf")] = 1;
            return lengths;
        }
        _ => {}
    }
    while heap.len() > 1 {
        let std::cmp::Reverse((fa, a)) = heap.pop().expect("len > 1");
        let std::cmp::Reverse((fb, b)) = heap.pop().expect("len > 1");
        let idx = nodes.len();
        nodes.push(Node {
            left: Some(a),
            right: Some(b),
            symbol: None,
        });
        heap.push(std::cmp::Reverse((fa + fb, idx)));
    }
    let std::cmp::Reverse((_, root)) = heap.pop().expect("root");
    // Iterative depth-first traversal to assign depths.
    let mut stack = vec![(root, 0u32)];
    while let Some((idx, depth)) = stack.pop() {
        let node = &nodes[idx];
        if let Some(s) = node.symbol {
            lengths[s] = depth.max(1);
        } else {
            if let Some(l) = node.left {
                stack.push((l, depth + 1));
            }
            if let Some(r) = node.right {
                stack.push((r, depth + 1));
            }
        }
    }
    // Clamp overly long codes and repair the Kraft sum.
    let mut overflow = false;
    for l in lengths.iter_mut() {
        if *l > MAX_CODE_LEN {
            *l = MAX_CODE_LEN;
            overflow = true;
        }
    }
    if overflow {
        // Repair: repeatedly shorten the Kraft sum by lengthening the shortest codes'
        // companions; the classic zlib-style fix is to demote nodes until it fits.
        loop {
            let kraft: u64 = lengths
                .iter()
                .filter(|&&l| l > 0)
                .map(|&l| 1u64 << (MAX_CODE_LEN - l))
                .sum();
            if kraft <= 1u64 << MAX_CODE_LEN {
                break;
            }
            // Find a symbol with length < MAX and increase it (reduces its Kraft share).
            let candidate = lengths
                .iter()
                .enumerate()
                .filter(|(_, &l)| l > 0 && l < MAX_CODE_LEN)
                .max_by_key(|(_, &l)| l)
                .map(|(s, _)| s);
            match candidate {
                Some(s) => lengths[s] += 1,
                None => break,
            }
        }
    }
    lengths
}

/// Assigns canonical codes from lengths (symbols sorted by (length, symbol value)).
fn canonical_codes(lengths: &[u32]) -> Vec<u32> {
    let mut symbols: Vec<usize> = (0..lengths.len()).filter(|&s| lengths[s] > 0).collect();
    symbols.sort_by_key(|&s| (lengths[s], s));
    let mut codes = vec![0u32; lengths.len()];
    let mut code = 0u32;
    let mut prev_len = 0u32;
    for &s in &symbols {
        let len = lengths[s];
        code <<= len - prev_len;
        // Store the code bit-reversed so it can be written LSB-first and decoded by
        // walking bits in stream order.
        codes[s] = reverse_bits(code, len);
        code += 1;
        prev_len = len;
    }
    codes
}

fn reverse_bits(value: u32, bits: u32) -> u32 {
    let mut v = value;
    let mut out = 0u32;
    for _ in 0..bits {
        out = (out << 1) | (v & 1);
        v >>= 1;
    }
    out
}

/// Decoding structure: a flat (length, symbol) list ordered canonically, decoded bit
/// by bit.  Simple and fast enough for the partition sizes DeepMapping uses.
#[derive(Debug)]
struct Decoder {
    // first_code[len], first_index[len], and the canonical symbol order.
    first_code: Vec<u32>,
    first_index: Vec<usize>,
    symbols: Vec<u8>,
    max_len: u32,
}

impl Decoder {
    fn new(table: &HuffmanTable) -> Self {
        let lengths = &table.lengths;
        let mut symbols: Vec<usize> = (0..lengths.len()).filter(|&s| lengths[s] > 0).collect();
        symbols.sort_by_key(|&s| (lengths[s], s));
        let max_len = lengths.iter().cloned().max().unwrap_or(0);
        let mut count_per_len = vec![0u32; (max_len + 1) as usize];
        for &s in &symbols {
            count_per_len[lengths[s] as usize] += 1;
        }
        let mut first_code = vec![0u32; (max_len + 2) as usize];
        let mut first_index = vec![0usize; (max_len + 2) as usize];
        let mut code = 0u32;
        let mut index = 0usize;
        for len in 1..=max_len {
            code <<= 1;
            first_code[len as usize] = code;
            first_index[len as usize] = index;
            code += count_per_len[len as usize];
            index += count_per_len[len as usize] as usize;
        }
        Decoder {
            first_code,
            first_index,
            symbols: symbols.iter().map(|&s| s as u8).collect(),
            max_len,
        }
    }

    fn decode_symbol(&self, reader: &mut BitReader<'_>) -> crate::Result<u8> {
        let mut code = 0u32;
        for len in 1..=self.max_len {
            code = (code << 1) | reader.read_bit()? as u32;
            let lens = len as usize;
            let next_index = if lens < self.max_len as usize {
                self.first_index[lens + 1]
            } else {
                self.symbols.len()
            };
            let count_at_len = next_index - self.first_index[lens];
            if count_at_len > 0 {
                let offset = code.wrapping_sub(self.first_code[lens]);
                if (offset as usize) < count_at_len {
                    return Ok(self.symbols[self.first_index[lens] + offset as usize]);
                }
            }
        }
        Err(CompressError::Corrupt("invalid Huffman code in stream".into()))
    }
}

/// Compresses a byte buffer with a one-shot canonical Huffman code.
///
/// Layout: `varint original_len | code lengths (RLE of 256 nibble-packed lengths) |
/// bit stream`.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut freqs = [0u64; ALPHABET];
    for &b in input {
        freqs[b as usize] += 1;
    }
    let table = HuffmanTable::from_frequencies(&freqs);
    let mut out = Vec::with_capacity(input.len() / 2 + 64);
    varint::write_u64(&mut out, input.len() as u64);
    // Header: 256 lengths, each 0..=15, packed two per byte.
    for pair in table.lengths.chunks(2) {
        let lo = pair[0] as u8;
        let hi = if pair.len() > 1 { pair[1] as u8 } else { 0 };
        out.push(lo | (hi << 4));
    }
    let mut writer = BitWriter::new();
    for &b in input {
        table.encode_symbol(&mut writer, b);
    }
    out.extend_from_slice(&writer.finish());
    out
}

/// Decompresses a buffer produced by [`compress`].
pub fn decompress(input: &[u8]) -> crate::Result<Vec<u8>> {
    let (original_len, pos) = varint::read_u64(input, 0)?;
    let original_len = original_len as usize;
    let header_bytes = ALPHABET / 2;
    if input.len() < pos + header_bytes {
        return Err(CompressError::Corrupt("Huffman length header truncated".into()));
    }
    let mut lengths = Vec::with_capacity(ALPHABET);
    for &b in &input[pos..pos + header_bytes] {
        lengths.push((b & 0x0f) as u32);
        lengths.push((b >> 4) as u32);
    }
    let table = HuffmanTable::from_lengths(lengths)?;
    if original_len == 0 {
        return Ok(Vec::new());
    }
    let decoder = Decoder::new(&table);
    let mut reader = BitReader::new(&input[pos + header_bytes..]);
    let mut out = crate::output_buffer(original_len);
    for _ in 0..original_len {
        out.push(decoder.decode_symbol(&mut reader)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A declared length of `u64::MAX` bytes is `Corrupt` (the stream runs
    /// out), not a panic reserving it.
    #[test]
    fn a_declared_length_of_u64_max_is_corrupt_not_a_panic() {
        let valid = compress(b"abracadabra");
        let (_, pos) = varint::read_u64(&valid, 0).unwrap();
        let mut crafted = Vec::new();
        varint::write_u64(&mut crafted, u64::MAX);
        crafted.extend_from_slice(&valid[pos..]);
        assert!(matches!(decompress(&crafted), Err(CompressError::Corrupt(_))));
    }

    fn round_trip(data: &[u8]) {
        let compressed = compress(data);
        let restored = decompress(&compressed).unwrap();
        assert_eq!(restored, data, "input of {} bytes", data.len());
    }

    #[test]
    fn bit_io_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0b11111111111, 11);
        w.write_bits(0, 1);
        w.write_bits(0x1234, 16);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(11).unwrap(), 0b11111111111);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(16).unwrap(), 0x1234);
        assert!(r.read_bits(8).is_err());
    }

    #[test]
    fn round_trips_varied_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"aaaaaaaaaaaaaaa");
        round_trip(b"hello huffman, hello entropy coding");
        round_trip(&(0..=255u8).collect::<Vec<_>>());
        let skewed: Vec<u8> = (0..5000).map(|i| if i % 17 == 0 { (i % 256) as u8 } else { b'x' }).collect();
        round_trip(&skewed);
    }

    #[test]
    fn skewed_distributions_compress_below_one_byte_per_symbol() {
        // 90% of symbols are 'a': entropy well under 1 bit/symbol for that portion.
        let data: Vec<u8> = (0..20_000).map(|i| if i % 10 == 0 { b'b' } else { b'a' }).collect();
        let compressed = compress(&data);
        assert!(
            compressed.len() < data.len() / 4,
            "compressed {} -> {}",
            data.len(),
            compressed.len()
        );
    }

    #[test]
    fn single_symbol_input_round_trips() {
        let data = vec![99u8; 10_000];
        round_trip(&data);
        let compressed = compress(&data);
        assert!(compressed.len() < 1500);
    }

    #[test]
    fn corrupt_streams_rejected() {
        let data = b"some reasonably sized test payload for huffman".repeat(10);
        let compressed = compress(&data);
        assert!(decompress(&compressed[..compressed.len() / 2]).is_err());
        assert!(decompress(&[]).is_err());
    }

    #[test]
    fn table_from_lengths_validates() {
        assert!(HuffmanTable::from_lengths(vec![1; 10]).is_err());
        // All symbols length 1 violates Kraft for 256 symbols.
        assert!(HuffmanTable::from_lengths(vec![1; 256]).is_err());
        let mut ok = vec![8u32; 256];
        ok[0] = 8;
        assert!(HuffmanTable::from_lengths(ok).is_ok());
    }
}
