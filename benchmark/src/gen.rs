//! Benchmark-owned inputs: everything here is a pure function of `--seed`.
//!
//! No product crate is involved, so the program under test receives only the
//! generated rows and keys and cannot influence what it is asked.

/// SplitMix64 (Steele, Lea, Flood 2014): the whole benchmark draws from this.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these `n` is below 2^-40).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// True with probability `percent / 100`.
    pub fn percent(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// An independent stream for a named purpose, so adding draws to one
    /// stream never shifts another.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut rng = SplitMix64(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }
}

pub const COLUMNS: usize = 5;
pub const CARDINALITIES: [u32; COLUMNS] = [4, 8, 16, 32, 64];
/// Uncompressed bytes of one tuple: the denominator of the paper's Eq. 1.
pub const USER_BYTES_PER_ROW: usize = 8 + 4 * COLUMNS;

pub type Values = [u32; COLUMNS];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenRow {
    pub key: u64,
    pub values: Values,
}

/// The value a model can learn: each column is a bit field of the key.
pub fn clean_values(key: u64) -> Values {
    std::array::from_fn(|c| ((key >> (4 + 2 * (c % 4))) as u32) & (CARDINALITIES[c] - 1))
}

/// The value a model cannot learn: uniform in every column.
pub fn noise_values(rng: &mut SplitMix64) -> Values {
    std::array::from_fn(|c| rng.below(CARDINALITIES[c] as u64) as u32)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Every row clean: the model answers ~all keys, the aux table is ~empty.
    Hi,
    /// 40 % of rows are noise in every column: the aux table holds them.
    Mixed,
}

const SLOT_KEPT_PERCENT: u64 = 90;
const MIXED_NOISE_PERCENT: u64 = 40;

/// The generated relation plus what the key sampler needs to aim at misses.
#[derive(Debug, Clone)]
pub struct Table {
    /// Ascending by key.
    pub rows: Vec<GenRow>,
    /// In-range key slots that hold no row.
    pub gaps: Vec<u64>,
    /// One past the largest slot considered.
    pub key_span: u64,
}

impl Table {
    pub fn generate(dataset: Dataset, row_count: usize, seed: u64) -> Table {
        let mut rng = SplitMix64::fork(seed, 1);
        let mut rows = Vec::with_capacity(row_count);
        let mut gaps = Vec::new();
        let mut key = 0u64;
        while rows.len() < row_count {
            if rng.percent(SLOT_KEPT_PERCENT) {
                let noisy = dataset == Dataset::Mixed && rng.percent(MIXED_NOISE_PERCENT);
                let values = if noisy {
                    noise_values(&mut rng)
                } else {
                    clean_values(key)
                };
                rows.push(GenRow { key, values });
            } else {
                gaps.push(key);
            }
            key += 1;
        }
        Table {
            rows,
            gaps,
            key_span: key,
        }
    }

    pub fn user_bytes(&self) -> usize {
        self.rows.len() * USER_BYTES_PER_ROW
    }

    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fnv1a::new();
        for row in &self.rows {
            hash.write_u64(row.key);
            for v in row.values {
                hash.write_u64(v as u64);
            }
        }
        hash.finish()
    }
}

const ABSENT_PERCENT: u64 = 10;

/// Draws lookup keys: 90 % uniform over `live`, 10 % absent (half in-range
/// gaps, half beyond the key range).
#[derive(Debug, Clone)]
pub struct KeySampler {
    rng: SplitMix64,
}

impl KeySampler {
    pub fn new(seed: u64, stream: u64) -> Self {
        KeySampler {
            rng: SplitMix64::fork(seed, stream),
        }
    }

    pub fn fill(
        &mut self,
        live: &[u64],
        gaps: &[u64],
        key_span: u64,
        count: usize,
        out: &mut Vec<u64>,
    ) {
        out.clear();
        for _ in 0..count {
            let key = if !self.rng.percent(ABSENT_PERCENT) {
                live[self.rng.below(live.len() as u64) as usize]
            } else if !gaps.is_empty() && self.rng.percent(50) {
                gaps[self.rng.below(gaps.len() as u64) as usize]
            } else {
                // Past every key the write workload can ever insert.
                2 * key_span + self.rng.below(key_span)
            };
            out.push(key);
        }
    }
}

/// FNV-1a, 64 bit: fingerprints of the generated inputs for the run record.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

pub fn fingerprint_keys(keys: &[u64]) -> u64 {
    let mut hash = Fnv1a::new();
    for &key in keys {
        hash.write_u64(key);
    }
    hash.finish()
}
