//! # dm-compress — compression codecs for DeepMapping and its baselines
//!
//! The DeepMapping evaluation (Section V of the paper) compresses partitions with
//! Z-Standard, LZMA, Gzip and Dictionary Encoding and compares storage/latency against
//! DeepMapping, whose auxiliary table is itself compressed with the same codecs.
//! This crate provides self-contained Rust equivalents so the whole pipeline runs
//! without native libraries:
//!
//! | Paper codec      | This crate          | Positioning preserved                      |
//! |------------------|---------------------|--------------------------------------------|
//! | Z-Standard ("Z") | [`codec::Codec::Lz`]        | fast compress/decompress, medium ratio     |
//! | LZMA ("L")       | [`codec::Codec::LzHuff`]    | slower, best ratio                         |
//! | Gzip ("G")       | [`codec::Codec::Deflate`]   | between the two                            |
//! | Dictionary ("D") | [`codec::Codec::Dictionary`]| cheapest, lowest ratio, no match search    |
//!
//! Lower-level building blocks ([`varint`], [`rle`], [`bitpack`], [`huffman`],
//! [`lz`]) are public because the storage layer and the auxiliary-table format reuse
//! them directly.

pub mod bitpack;
pub mod codec;
pub mod dictionary;
pub mod frame;
pub mod huffman;
pub mod lz;
pub mod rle;
pub mod varint;

pub use codec::{Codec, CompressionStats};
pub use frame::{compress_frame, decompress_frame};

/// Errors produced while compressing or decompressing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// The compressed buffer is malformed, truncated or fails its checksum.
    Corrupt(String),
    /// The requested codec or parameter is not supported.
    Unsupported(String),
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::Corrupt(msg) => write!(f, "corrupt compressed data: {msg}"),
            CompressError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for CompressError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CompressError>;

/// `start + len` when it is at most `limit`, `None` when it is past it or
/// wraps: the end of a span whose length a buffer declares, checked before
/// anything is read, reserved or written for it.
pub(crate) fn span_end(start: usize, len: u64, limit: usize) -> Option<usize> {
    start.checked_add(usize::try_from(len).ok()?).filter(|&end| end <= limit)
}

/// An empty output buffer for a declared length that nothing has checked
/// yet: it reserves at most 1 MiB up front, as the WAL decoder does, and
/// grows with what actually decodes.
pub(crate) fn output_buffer(declared_len: usize) -> Vec<u8> {
    Vec::with_capacity(declared_len.min(1 << 20))
}

/// A 64-bit FNV-1a checksum used by the frame format to detect corruption.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            j += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// The standard CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) used by the
/// snapshot/WAL persistence formats to checksum sections and records.  Unlike
/// [`fnv1a64`] (an internal hash), this matches the ubiquitous zlib/`cksum -o3`
/// definition so snapshot files can be validated by external tooling.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abd"));
        assert_eq!(fnv1a64(b"deepmapping"), fnv1a64(b"deepmapping"));
    }

    #[test]
    fn crc32_matches_the_ieee_reference_vectors() {
        // Reference values from the zlib documentation / RFC 3720 appendix.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }
}
