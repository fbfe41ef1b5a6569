//! The dynamic existence bit vector (`Vexist`).
//!
//! DeepMapping marks every key in the key domain with one bit: 1 if the tuple exists,
//! 0 otherwise (Section IV-B).  The existence check is what prevents the model from
//! hallucinating values for non-existing keys, and flipping bits is how deletions and
//! insertions are absorbed without touching the model (Section IV-D).  The vector
//! grows on demand (keys beyond the current range read as absent) and serializes to a
//! compact RLE-compressed form whose size feeds the Eq.-1 objective.

use dm_compress::rle;

/// A growable bit vector indexed by key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len_bits: u64,
    ones: u64,
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bit vector covering `len_bits` positions, all zero.
    pub fn with_capacity(len_bits: u64) -> Self {
        BitVec {
            words: vec![0; len_bits.div_ceil(64) as usize],
            len_bits,
            ones: 0,
        }
    }

    /// Number of addressable bits (the highest set position may be lower).
    pub fn len(&self) -> u64 {
        self.len_bits
    }

    /// Whether no bit has ever been addressed.
    pub fn is_empty(&self) -> bool {
        self.len_bits == 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        self.ones
    }

    /// Reads the bit at `index`; positions beyond the current length read as `false`.
    pub fn get(&self, index: u64) -> bool {
        if index >= self.len_bits {
            return false;
        }
        let word = (index / 64) as usize;
        let bit = index % 64;
        (self.words[word] >> bit) & 1 == 1
    }

    /// Sets the bit at `index` to `value`, growing the vector if needed.
    pub fn set(&mut self, index: u64, value: bool) {
        if index >= self.len_bits {
            self.len_bits = index + 1;
            let needed = self.len_bits.div_ceil(64) as usize;
            if needed > self.words.len() {
                self.words.resize(needed, 0);
            }
        }
        let word = (index / 64) as usize;
        let bit = index % 64;
        let mask = 1u64 << bit;
        let was_set = self.words[word] & mask != 0;
        if value && !was_set {
            self.words[word] |= mask;
            self.ones += 1;
        } else if !value && was_set {
            self.words[word] &= !mask;
            self.ones -= 1;
        }
    }

    /// Iterates over the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = u64> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| set_bits(word, w as u64 * 64))
    }

    /// Collects all keys in `[lo, hi]` whose bit is set — the range-filter step of the
    /// batch-inference range-query extension (Section IV-E).
    pub fn ones_in_range(&self, lo: u64, hi: u64) -> Vec<u64> {
        let upper = hi.min(self.len_bits.saturating_sub(1));
        if self.len_bits == 0 || lo > upper {
            return Vec::new();
        }
        let (first, last) = ((lo / 64) as usize, (upper / 64) as usize);
        self.words[first..=last]
            .iter()
            .enumerate()
            .flat_map(|(i, &word)| {
                let w = first + i;
                // Mask off the bits below `lo` in the first word and above
                // `upper` in the last.
                let mut word = word;
                if w == first {
                    word &= u64::MAX << (lo % 64);
                }
                if w == last {
                    word &= u64::MAX >> (63 - upper % 64);
                }
                set_bits(word, w as u64 * 64)
            })
            .collect()
    }

    /// In-memory footprint in bytes.
    pub fn resident_bytes(&self) -> usize {
        self.words.len() * 8 + 16
    }

    /// Serializes to a compact RLE-compressed buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut raw = Vec::with_capacity(self.words.len() * 8 + 8);
        raw.extend_from_slice(&self.len_bits.to_le_bytes());
        for w in &self.words {
            raw.extend_from_slice(&w.to_le_bytes());
        }
        rle::compress(&raw)
    }

    /// Serialized (compressed) size in bytes — the `size(Vexist)` term of Eq. 1.
    pub fn serialized_bytes(&self) -> usize {
        self.to_bytes().len()
    }

    /// Restores a bit vector produced by [`BitVec::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> crate::Result<Self> {
        let raw = rle::decompress(bytes).map_err(crate::StorageError::from)?;
        if raw.len() < 8 || (raw.len() - 8) % 8 != 0 {
            return Err(crate::StorageError::Corrupt(
                "bit vector payload has invalid length".into(),
            ));
        }
        let len_bits = u64::from_le_bytes(raw[..8].try_into().expect("8 bytes"));
        let mut words = Vec::with_capacity((raw.len() - 8) / 8);
        for chunk in raw[8..].chunks_exact(8) {
            words.push(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        // Exactly the words the declared length needs, and no set bit past it:
        // `count_ones`/`iter_ones` (and every rank derived from them) must agree
        // with what `get` can see.
        let stray = match len_bits % 64 {
            0 => 0,
            used => words.last().map_or(0, |last| last >> used),
        };
        if words.len() as u64 != len_bits.div_ceil(64) || stray != 0 {
            return Err(crate::StorageError::Corrupt(
                "bit vector words do not match the declared length".into(),
            ));
        }
        let ones = words.iter().map(|w| w.count_ones() as u64).sum();
        Ok(BitVec {
            words,
            len_bits,
            ones,
        })
    }
}

/// The set bits of `word` as indices from `base`, lowest first: one
/// `trailing_zeros` per set bit, none per clear one.
fn set_bits(mut word: u64, base: u64) -> impl Iterator<Item = u64> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as u64;
            word &= word - 1;
            base + bit
        })
    })
}

impl FromIterator<u64> for BitVec {
    /// Builds a bit vector with the given indices set.
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        let mut bv = BitVec::new();
        for idx in iter {
            bv.set(idx, true);
        }
        bv
    }
}

/// Bits per rank superblock: eight words.
const RANK_BLOCK_BITS: u64 = 512;

/// The rank index entry of one 512-bit superblock.
#[derive(Debug, Clone, Copy)]
struct RankBlock {
    /// Set bits before the superblock.
    before: u32,
    /// Set bits of the superblock before each of its eight words.  The
    /// portable build has no hardware popcount (x86-64's baseline lacks it), and
    /// counting up to seven whole words per rank was a quarter of a warm
    /// auxiliary probe; with these a rank counts one partial word.
    within: [u16; 8],
}

/// A frozen bit vector with a rank index: [`rank1`](Self::rank1) turns a member
/// key into its ordinal among the set bits in constant time.
///
/// This is how the auxiliary table addresses a corrected key without storing or
/// searching keys: the set of keys held in partitions is the bitmap, and
/// `rank1(key)` is the row's position.  The index — one `RankBlock` per 512
/// bits — is derived from the bits and never serialized; the type has no
/// mutators, so the two cannot drift apart.
#[derive(Debug, Clone)]
pub struct RankedBits {
    bits: BitVec,
    blocks: Vec<RankBlock>,
}

impl RankedBits {
    /// Freezes `bits` and builds the rank index over it.
    ///
    /// # Panics
    /// When more than `u32::MAX` bits are set (the index counts in `u32`).
    pub fn new(bits: BitVec) -> Self {
        assert!(
            bits.ones <= u32::MAX as u64,
            "rank index counts in u32; {} set bits do not fit",
            bits.ones
        );
        let mut blocks = Vec::with_capacity(bits.words.len().div_ceil(8));
        let mut before = 0u32;
        for words in bits.words.chunks(8) {
            let mut block = RankBlock {
                before,
                within: [0; 8],
            };
            let mut inside = 0u16;
            for (slot, word) in block.within.iter_mut().zip(words) {
                *slot = inside;
                inside += word.count_ones() as u16;
            }
            blocks.push(block);
            before += inside as u32;
        }
        RankedBits { bits, blocks }
    }

    /// The frozen bits (serialization, scans, cloning into a mutable vector).
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Reads the bit at `index`; positions beyond the length read as `false`.
    pub fn get(&self, index: u64) -> bool {
        self.bits.get(index)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        self.bits.ones
    }

    /// Number of set bits strictly below `index` — the ordinal of `index` among
    /// the set bits when its own bit is set.
    pub fn rank1(&self, index: u64) -> u64 {
        if index >= self.bits.len_bits {
            return self.bits.ones;
        }
        let word = (index / 64) as usize;
        let block = &self.blocks[(index / RANK_BLOCK_BITS) as usize];
        let partial = (self.bits.words[word] & ((1u64 << (index % 64)) - 1)).count_ones();
        (block.before + block.within[word % 8] as u32 + partial) as u64
    }

    /// Iterates over the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = u64> + '_ {
        self.bits.iter_ones()
    }

    /// In-memory footprint in bytes: the words plus the rank index.
    pub fn resident_bytes(&self) -> usize {
        self.bits.resident_bytes() + std::mem::size_of_val(self.blocks.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank1_matches_a_naive_count_at_every_index() {
        for len in [0u64, 1, 511, 512, 513, 65_537] {
            // A deterministic scatter of set bits, dense and sparse stretches.
            let mut bits = BitVec::with_capacity(len);
            let mut state = len ^ 0xA5A5;
            for index in 0..len {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let dense = (index / 700) % 2 == 0;
                if (state >> 60) < if dense { 11 } else { 1 } {
                    bits.set(index, true);
                }
            }
            let ranked = RankedBits::new(bits.clone());
            assert_eq!(ranked.count_ones(), bits.count_ones());
            let mut naive = 0u64;
            for index in 0..len {
                assert_eq!(ranked.rank1(index), naive, "len {len} index {index}");
                assert_eq!(ranked.get(index), bits.get(index));
                naive += u64::from(bits.get(index));
            }
            // At and past the end every set bit is below the index.
            for index in [len, len + 1, len + 512, u64::MAX] {
                assert_eq!(ranked.rank1(index), naive, "len {len} index {index}");
                assert!(!ranked.get(index));
            }
            assert!(ranked.iter_ones().eq(bits.iter_ones()));
            let ordinals: Vec<u64> = ranked.iter_ones().map(|k| ranked.rank1(k)).collect();
            assert!(ordinals.iter().copied().eq(0..naive), "ordinals are 0..count");
        }
    }

    #[test]
    fn set_get_and_count() {
        let mut bv = BitVec::new();
        assert!(!bv.get(0));
        assert!(!bv.get(1_000_000));
        bv.set(3, true);
        bv.set(64, true);
        bv.set(65, true);
        assert!(bv.get(3));
        assert!(bv.get(64));
        assert!(!bv.get(4));
        assert_eq!(bv.count_ones(), 3);
        bv.set(64, false);
        assert!(!bv.get(64));
        assert_eq!(bv.count_ones(), 2);
        // Setting an already-set bit does not double count.
        bv.set(3, true);
        assert_eq!(bv.count_ones(), 2);
        // Clearing an already-clear bit is a no-op.
        bv.set(100, false);
        assert_eq!(bv.count_ones(), 2);
    }

    #[test]
    fn grows_on_demand() {
        let mut bv = BitVec::new();
        bv.set(1_000_000, true);
        assert_eq!(bv.len(), 1_000_001);
        assert!(bv.get(1_000_000));
        assert!(!bv.get(999_999));
    }

    #[test]
    fn iter_ones_is_sorted_and_complete() {
        let indices = [5u64, 0, 63, 64, 127, 128, 1000];
        let bv: BitVec = indices.iter().copied().collect();
        let mut expected = indices.to_vec();
        expected.sort_unstable();
        assert_eq!(bv.iter_ones().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn ones_in_range_filters_inclusively() {
        let bv: BitVec = [2u64, 5, 9, 64, 70].iter().copied().collect();
        assert_eq!(bv.ones_in_range(5, 64), vec![5, 9, 64]);
        assert_eq!(bv.ones_in_range(0, 1), Vec::<u64>::new());
        assert_eq!(bv.ones_in_range(100, 200), Vec::<u64>::new());
        assert_eq!(bv.ones_in_range(70, u64::MAX), vec![70]);
        assert_eq!(BitVec::new().ones_in_range(0, 10), Vec::<u64>::new());
    }

    #[test]
    fn serialization_round_trips() {
        let bv: BitVec = (0..5000u64).filter(|k| k % 7 != 0).collect();
        let bytes = bv.to_bytes();
        let restored = BitVec::from_bytes(&bytes).unwrap();
        assert_eq!(restored, bv);
    }

    #[test]
    fn dense_vectors_serialize_compactly() {
        // All bits set over a large contiguous domain: RLE collapses it.
        let bv: BitVec = (0..100_000u64).collect();
        assert!(bv.serialized_bytes() < bv.resident_bytes() / 10);
    }

    #[test]
    fn corrupt_serialized_vectors_rejected() {
        let bv: BitVec = (0..100u64).collect();
        let bytes = bv.to_bytes();
        assert!(BitVec::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(BitVec::from_bytes(&[]).is_err());
    }
}
