//! The codec registry: one enum that names every compression algorithm used anywhere
//! in the workspace, with uniform `compress`/`decompress` entry points.
//!
//! The paper's baseline matrix is built by crossing storage layouts (array, hash) with
//! codecs (none, Dictionary, Gzip, Z-Standard, LZMA); DeepMapping itself compresses
//! auxiliary-table partitions with the "Z" and "L" codecs.  Benchmarks sweep over this
//! enum, so it is the single place where codec naming matches the paper's labels.

use crate::{dictionary, huffman, lz};

/// Every codec available to partitions and auxiliary structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// No compression (the paper's AB / HB baselines).
    None,
    /// Record-level dictionary encoding ("D", ABC-D).
    Dictionary {
        /// Fixed record width in bytes used to segment the buffer.
        record_width: usize,
    },
    /// LZSS with a fast, shallow match search — the Z-Standard stand-in ("Z").
    Lz,
    /// LZSS + Huffman with a 32 KiB window — the gzip stand-in ("G").
    Deflate,
    /// LZSS (deep search, large window) + Huffman — the LZMA stand-in ("L").
    LzHuff,
}

impl Codec {
    /// The suffix the paper uses for this codec in system names (e.g. `ABC-Z`).
    pub fn paper_suffix(&self) -> &'static str {
        match self {
            Codec::None => "",
            Codec::Dictionary { .. } => "D",
            Codec::Lz => "Z",
            Codec::Deflate => "G",
            Codec::LzHuff => "L",
        }
    }

    /// Stable numeric tag for serialization in frames and partition headers
    /// (2 is retired and stays unassigned).
    pub fn tag(&self) -> u8 {
        match self {
            Codec::None => 0,
            Codec::Dictionary { .. } => 1,
            Codec::Lz => 3,
            Codec::Deflate => 4,
            Codec::LzHuff => 5,
        }
    }

    /// Inverse of [`Codec::tag`] (dictionary record width must be supplied separately).
    pub fn from_tag(tag: u8, record_width: usize) -> Option<Self> {
        match tag {
            0 => Some(Codec::None),
            1 => Some(Codec::Dictionary { record_width }),
            3 => Some(Codec::Lz),
            4 => Some(Codec::Deflate),
            5 => Some(Codec::LzHuff),
            _ => None,
        }
    }

    /// Compresses a buffer.
    pub fn compress(&self, input: &[u8]) -> Vec<u8> {
        match self {
            Codec::None => input.to_vec(),
            Codec::Dictionary { record_width } => dictionary::compress(input, *record_width),
            Codec::Lz => lz::compress(input, &lz::LzConfig::fast()),
            Codec::Deflate => {
                let stage1 = lz::compress(input, &lz::LzConfig::balanced());
                huffman::compress(&stage1)
            }
            Codec::LzHuff => {
                let stage1 = lz::compress(input, &lz::LzConfig::thorough());
                huffman::compress(&stage1)
            }
        }
    }

    /// Decompresses a buffer produced by [`Codec::compress`] with the same codec.
    pub fn decompress(&self, input: &[u8]) -> crate::Result<Vec<u8>> {
        match self {
            Codec::None => Ok(input.to_vec()),
            Codec::Dictionary { .. } => dictionary::decompress(input),
            Codec::Lz => lz::decompress(input),
            Codec::Deflate | Codec::LzHuff => {
                let stage1 = huffman::decompress(input)?;
                lz::decompress(&stage1)
            }
        }
    }

    /// All codecs the paper's baseline sweep uses, with a record width for the
    /// dictionary codec.
    pub fn paper_sweep(record_width: usize) -> Vec<Codec> {
        vec![
            Codec::None,
            Codec::Dictionary { record_width },
            Codec::Deflate,
            Codec::Lz,
            Codec::LzHuff,
        ]
    }
}

/// Outcome of compressing a buffer, used by benchmarks and partition statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionStats {
    /// Uncompressed size in bytes.
    pub original_bytes: usize,
    /// Compressed size in bytes.
    pub compressed_bytes: usize,
}

impl CompressionStats {
    /// Measures the effect of `codec` on `input` without keeping the output.
    pub fn measure(codec: &Codec, input: &[u8]) -> Self {
        let compressed = codec.compress(input);
        CompressionStats {
            original_bytes: input.len(),
            compressed_bytes: compressed.len(),
        }
    }

    /// Compression ratio as `compressed / original` (1.0 for empty input), matching
    /// the paper's convention where lower is better and uncompressed data sits at 1.0.
    pub fn ratio(&self) -> f64 {
        if self.original_bytes == 0 {
            return 1.0;
        }
        self.compressed_bytes as f64 / self.original_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tabular_payload() -> Vec<u8> {
        // Looks like a serialized categorical partition: repeated small records.
        (0..20_000u32)
            .flat_map(|i| {
                let status = (i % 3) as u8;
                let typ = (i % 5) as u8;
                [status, typ, 0, (i % 7) as u8]
            })
            .collect()
    }

    #[test]
    fn all_codecs_round_trip() {
        let data = tabular_payload();
        for codec in Codec::paper_sweep(4) {
            let compressed = codec.compress(&data);
            let restored = codec.decompress(&compressed).unwrap();
            assert_eq!(restored, data, "codec {codec:?}");
        }
    }

    #[test]
    fn empty_input_round_trips_for_all_codecs() {
        for codec in Codec::paper_sweep(8) {
            let compressed = codec.compress(&[]);
            assert_eq!(codec.decompress(&compressed).unwrap(), Vec::<u8>::new());
        }
    }

    #[test]
    fn codec_ordering_matches_paper_positioning() {
        // On structured tabular data: LzHuff ("L") compresses at least as well as Lz
        // ("Z"), and both beat no compression.  This relative ordering is what the
        // paper's tables rely on.
        let data = tabular_payload();
        let none = CompressionStats::measure(&Codec::None, &data).ratio();
        let z = CompressionStats::measure(&Codec::Lz, &data).ratio();
        let l = CompressionStats::measure(&Codec::LzHuff, &data).ratio();
        let g = CompressionStats::measure(&Codec::Deflate, &data).ratio();
        assert!((none - 1.0).abs() < 1e-9);
        assert!(z < 0.7, "Lz ratio {z}");
        assert!(l <= z + 0.01, "LzHuff {l} should be <= Lz {z}");
        assert!(g <= none, "Deflate {g}");
    }

    #[test]
    fn tags_round_trip() {
        for codec in [
            Codec::None,
            Codec::Dictionary { record_width: 16 },
            Codec::Lz,
            Codec::Deflate,
            Codec::LzHuff,
        ] {
            assert_eq!(Codec::from_tag(codec.tag(), 16), Some(codec));
        }
        assert_eq!(Codec::from_tag(77, 1), None);
        // Tag 2 was the retired run-length codec; it is never reassigned.
        assert_eq!(Codec::from_tag(2, 1), None);
    }

    #[test]
    fn ratio_of_empty_input_is_one() {
        let stats = CompressionStats {
            original_bytes: 0,
            compressed_bytes: 0,
        };
        assert_eq!(stats.ratio(), 1.0);
    }
}
