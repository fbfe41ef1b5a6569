//! The closed-form rung: value columns that are `⌊(k − o) / d⌋ mod c` of the key.
//!
//! Cross-product tables (TPC-DS `customer_demographics`, the paper's
//! high-correlation synthetics) hold columns that are exact periodic functions of
//! the key: column `j` is `⌊(k − oⱼ) / dⱼ⌋ mod cⱼ`.  A network memorizes such a
//! column at the price of a forward pass per key; a [`ColumnFormula`] stores its
//! three integers and answers with two divisions by invariant integers, each a
//! multiply-high and two shifts (`Divisor`), or a shift and a mask when `d` and
//! `c` are both powers of two.  [`ClosedForm::detect`] finds, for
//! every column, the formula that gets the most rows right; the build prices the
//! store it makes by Eq. 1 like any rung of the width ladder, so it ships only
//! where it is the smaller store, and the rows it gets wrong go to the auxiliary
//! table as a network's do.
//!
//! **Keys left of the offset.**  The floor and the modulo are taken over the
//! integers, not over wrapped `u64`s: for `k < o`, `⌊(k − o) / d⌋` is
//! `−⌈(o − k) / d⌉` and its residue mod `c` lies in `[0, c)`.  So a column repeats
//! with period `c·d` on both sides of `o`, and formulas whose offsets differ by a
//! multiple of `c·d` agree on every key.

use crate::{CoreError, Result};
use dm_compress::varint;
use dm_storage::Row;

/// Division of any `u64` by an invariant `d ≥ 1`: one multiply-high, a
/// subtraction, an addition and two shifts — the round-up method of Granlund
/// and Montgomery ("Division by invariant integers using multiplication", PLDI
/// 1994, Fig. 4.1) at N = 64, exact for every dividend and every divisor,
/// powers of two and `d = 1` included, with no branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Divisor {
    d: u64,
    /// `m′ = ⌊2⁶⁴ (2ˡ − d) / d⌋ + 1` for `l = ⌈log₂ d⌉`; below 2⁶⁴.
    magic: u64,
    /// `min(l, 1)`.
    shift1: u32,
    /// `max(l − 1, 0)`.
    shift2: u32,
}

impl Divisor {
    fn new(d: u64) -> Self {
        debug_assert!(d >= 1);
        let l = u64::BITS - (d - 1).leading_zeros();
        let d_wide = u128::from(d);
        let magic = ((1u128 << 64) * ((1u128 << l) - d_wide) / d_wide + 1) as u64;
        Divisor {
            d,
            magic,
            shift1: l.min(1),
            shift2: l.saturating_sub(1),
        }
    }

    #[inline(always)]
    fn div(&self, n: u64) -> u64 {
        let t = ((u128::from(self.magic) * u128::from(n)) >> 64) as u64;
        (t + ((n - t) >> self.shift1)) >> self.shift2
    }

    #[inline(always)]
    fn rem(&self, n: u64) -> u64 {
        n - self.div(n) * self.d
    }
}

/// One value column as a closed form of the key: `⌊(k − offset) / divisor⌋ mod
/// modulus` (see the module docs for keys below `offset`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnFormula {
    offset: u64,
    step: Divisor,
    modulus: Divisor,
    /// `(log₂ d, c − 1)` when `d` and `c` are both powers of two: the formula
    /// is then a shift and a mask.
    bit_field: Option<(u32, u64)>,
}

/// The largest modulus a formula takes: its values are `u32` class codes.
const MAX_MODULUS: u64 = 1 << 32;

impl ColumnFormula {
    /// The formula `⌊(k − offset) / divisor⌋ mod modulus`, for any `offset`, any
    /// `divisor ≥ 1` and any `modulus` in `1..=2³²`.
    pub fn new(offset: u64, divisor: u64, modulus: u64) -> Result<Self> {
        if divisor == 0 || modulus == 0 || modulus > MAX_MODULUS {
            return Err(CoreError::InvalidConfig(format!(
                "closed form ⌊(k − {offset}) / {divisor}⌋ mod {modulus}: the divisor must be \
                 at least 1 and the modulus in 1..=2^32"
            )));
        }
        Ok(ColumnFormula {
            offset,
            step: Divisor::new(divisor),
            modulus: Divisor::new(modulus),
            bit_field: (divisor.is_power_of_two() && modulus.is_power_of_two())
                .then(|| (divisor.trailing_zeros(), modulus - 1)),
        })
    }

    /// `o`.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// `d`.
    pub fn divisor(&self) -> u64 {
        self.step.d
    }

    /// `c`.
    pub fn modulus(&self) -> u64 {
        self.modulus.d
    }

    /// The column's value at `key`.
    #[inline(always)]
    pub fn value(&self, key: u64) -> u32 {
        if key >= self.offset {
            self.modulus.rem(self.step.div(key - self.offset)) as u32
        } else {
            // ⌊(k − o) / d⌋ = −⌈(o − k) / d⌉, taken mod c into [0, c).
            let back = self.modulus.rem(self.step.div(self.offset - key - 1) + 1);
            if back == 0 {
                0
            } else {
                (self.modulus.d - back) as u32
            }
        }
    }
}

/// Every value column of a relation as a [`ColumnFormula`] of the key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedForm {
    columns: Vec<ColumnFormula>,
}

/// Boundaries whose following boundaries cast votes for `d`, per boundary list.
const ANCHORS: usize = 256;
/// Following boundaries each anchor pairs with.
const LOOKAHEAD: usize = 16;
/// Most-voted divisors a boundary list proposes.
const PROPOSALS: usize = 3;
/// Rows every candidate divisor is scored on.
const SAMPLE_ROWS: usize = 2048;
/// Rows the best candidate's neighbours are scored on.
const CLIMB_ROWS: usize = 8192;
/// Most steps the best candidate moves either way.
const MAX_CLIMB: usize = 64;

impl ClosedForm {
    /// The columns' formulas.
    pub fn columns(&self) -> &[ColumnFormula] {
        &self.columns
    }

    /// Each column's value at each key, row-major into `out` (`out[i * columns +
    /// c]` = column `c` at `keys[i]`), which must be `keys.len() * columns` long.
    ///
    /// It runs a column at a time over the batch.  When no key lies left of a
    /// column's offset (the keys' minimum says so once per batch) the column
    /// takes one branch-free loop, of a shift and a mask for a bit field and of
    /// two `Divisor`s otherwise; else each key goes through
    /// [`ColumnFormula::value`].
    pub fn predict_into_slice(&self, keys: &[u64], out: &mut [u32]) {
        let width = self.columns.len();
        debug_assert_eq!(out.len(), keys.len() * width);
        let lowest = keys.iter().copied().min().unwrap_or(u64::MAX);
        for (j, column) in self.columns.iter().enumerate() {
            let values = out.iter_mut().skip(j).step_by(width);
            let (o, step, modulus) = (column.offset, &column.step, &column.modulus);
            let pairs = values.zip(keys);
            if lowest < o {
                pairs.for_each(|(value, &key)| *value = column.value(key));
            } else if let Some((shift, mask)) = column.bit_field {
                pairs.for_each(|(value, &key)| *value = ((key - o) >> shift & mask) as u32);
            } else {
                pairs.for_each(|(value, &key)| *value = modulus.rem(step.div(key - o)) as u32);
            }
        }
    }

    /// The closed form of `rows` (each with `cardinalities.len()` values),
    /// when every column has one: for column `j` the `(o, d)` with `c =
    /// cardinalities[j]` that gets the most rows right, found only if it gets
    /// more than halfway from chance (`1 / c` of the rows) to all of them
    /// right.  `None` as soon as one column has none, or holds a value of `c`
    /// or more.
    ///
    /// With `c` fixed, the right `(o, d)` puts the phase `(k − v·d) mod c·d` of
    /// every row it gets right into one window `[o, o + d)`.  Candidate
    /// divisors come from block boundaries, rows whose value is one more (mod
    /// `c`) than the row before: two boundaries `Δ` keys and `t` values apart
    /// vote for `Δ / t`.  The boundaries voting are those one key step after
    /// their neighbour, and, to see through noisy rows, those between rows
    /// that share their value with enough of the rows around them; the first
    /// boundary's distance from either end of the key range is a candidate
    /// too.  Each candidate is scored by its fullest window over a sample of
    /// rows; the best moves one at a time while a denser sample gets more rows
    /// right, and is then fit to every row.  Keys may have gaps and rows may
    /// disagree; the rows any column gets wrong are the auxiliary table's.
    pub fn detect(rows: &[Row], cardinalities: &[u32]) -> Option<Self> {
        let mut order: Vec<usize> = (0..rows.len()).collect();
        if !rows.windows(2).all(|pair| pair[0].key < pair[1].key) {
            order.sort_unstable_by_key(|&i| rows[i].key);
        }
        let keys: Vec<u64> = order.iter().map(|&i| rows[i].key).collect();
        let mut values = Vec::with_capacity(rows.len());
        let columns = cardinalities.iter().enumerate().map(|(j, &cardinality)| {
            values.clear();
            values.extend(order.iter().map(|&i| u64::from(rows[i].values[j])));
            detect_column(&keys, &values, u64::from(cardinality))
        });
        Some(ClosedForm {
            columns: columns.collect::<Option<_>>()?,
        })
    }

    /// Serialized form: the column count, then each column's offset, divisor
    /// and modulus, every integer a LEB128 varint.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        varint::write_u64(&mut out, self.columns.len() as u64);
        for column in &self.columns {
            for field in [column.offset(), column.divisor(), column.modulus()] {
                varint::write_u64(&mut out, field);
            }
        }
        out
    }

    /// Parses [`to_bytes`](Self::to_bytes) output, refusing trailing bytes and
    /// formulas [`ColumnFormula::new`] refuses.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let corrupt = |err: dm_compress::CompressError| CoreError::Model(err.to_string());
        let (count, mut pos) = varint::read_u64(bytes, 0).map_err(corrupt)?;
        let mut columns = Vec::new();
        for _ in 0..count {
            let mut fields = [0u64; 3];
            for field in &mut fields {
                (*field, pos) = varint::read_u64(bytes, pos).map_err(corrupt)?;
            }
            columns.push(ColumnFormula::new(fields[0], fields[1], fields[2])?);
        }
        if pos != bytes.len() {
            return Err(CoreError::Model(format!(
                "closed form: {} trailing bytes",
                bytes.len() - pos
            )));
        }
        Ok(ClosedForm { columns })
    }
}

/// The formula of one column (`values` in ascending key order), if one gets
/// more than halfway from chance to every row right with modulus `c`.
fn detect_column(keys: &[u64], values: &[u64], c: u64) -> Option<ColumnFormula> {
    let (&first, &last) = (keys.first()?, keys.last()?);
    if values.iter().any(|&v| v >= c) {
        return None;
    }
    if c == 1 {
        return ColumnFormula::new(0, 1, 1).ok();
    }
    let stepped = step_boundaries(keys, values, c);
    let mut candidates = proposals(&stepped, c);
    candidates.extend(proposals(&smoothed_boundaries(keys, values, c), c));
    if let Some(&(at, _)) = stepped.first() {
        candidates.extend([at - first, (at - first).max(last + 1 - at)]);
    }
    candidates.retain(|&d| d > 0);
    candidates.sort_unstable();
    candidates.dedup();
    let hits = |d: u64, rows: usize| {
        let sample = keys.iter().zip(values).step_by(keys.len().div_ceil(rows));
        fullest_window(sample.map(|(&k, &v)| (k, v)), d, c).map_or(0, |(_, hits)| hits)
    };
    let (_, mut divisor) = candidates
        .into_iter()
        .map(|d| (hits(d, SAMPLE_ROWS), d))
        .max_by_key(|&(hits, d)| (hits, std::cmp::Reverse(d)))?;
    // A smoothed boundary may sit a few keys past the block's first: step
    // the divisor while a denser sample gets more rows right.
    let mut best = hits(divisor, CLIMB_ROWS);
    for up in [false, true] {
        for _ in 0..MAX_CLIMB {
            let next = if up {
                divisor.checked_add(1)
            } else {
                divisor.checked_sub(1)
            };
            let Some(next) = next.filter(|&d| d > 0) else {
                break;
            };
            let next_hits = hits(next, CLIMB_ROWS);
            if next_hits <= best {
                break;
            }
            (divisor, best) = (next, next_hits);
        }
    }
    let rows = keys.iter().zip(values).map(|(&k, &v)| (k, v));
    let (offset, hits) = fullest_window(rows, divisor, c)?;
    // More than halfway from chance (1 / c) to every row: hits / n > (1 + 1/c) / 2.
    let n = keys.len() as u128;
    (2 * u128::from(c) * hits as u128 > (u128::from(c) + 1) * n)
        .then(|| ColumnFormula::new(offset, divisor, c).ok())
        .flatten()
}

/// Block boundaries, exact: `(key, value)` of each row one key step (the
/// smallest gap between keys) after the row before whose value is one more
/// (mod `c`) than that row's.  Past a wider gap the block may have begun at a
/// missing key, and a boundary off by the gap would vote for a divisor off
/// by it.
fn step_boundaries(keys: &[u64], values: &[u64], c: u64) -> Vec<(u64, u64)> {
    let step = keys
        .windows(2)
        .map(|pair| pair[1] - pair[0])
        .min()
        .unwrap_or(1);
    (1..keys.len())
        .filter(|&i| keys[i] - keys[i - 1] == step && values[i] == (values[i - 1] + 1) % c)
        .map(|i| (keys[i], values[i]))
        .collect()
}

/// Rows on either side of a row that [`smoothed_boundaries`] looks at.
const SMOOTHING_HALF: usize = 3;
/// Rows of the `2·SMOOTHING_HALF + 1` around a row, itself included, that
/// must share its value for [`smoothed_boundaries`] to keep it.
const SMOOTHING_QUORUM: usize = 3;

/// Block boundaries through noise: a row is kept when [`SMOOTHING_QUORUM`] of
/// the rows around it share its value, which a noisy row rarely does; two
/// kept rows in a row whose values step by one (mod `c`) make a boundary at
/// the later one's key — a few keys past the block's first at most.
fn smoothed_boundaries(keys: &[u64], values: &[u64], c: u64) -> Vec<(u64, u64)> {
    let n = values.len();
    let held = |i: usize| {
        let around = &values[i.saturating_sub(SMOOTHING_HALF)..(i + SMOOTHING_HALF + 1).min(n)];
        around.iter().filter(|&&v| v == values[i]).count() >= SMOOTHING_QUORUM
    };
    let kept: Vec<usize> = (0..n).filter(|&i| held(i)).collect();
    kept.windows(2)
        .filter(|pair| values[pair[1]] == (values[pair[0]] + 1) % c)
        .map(|pair| (keys[pair[1]], values[pair[1]]))
        .collect()
}

/// The [`PROPOSALS`] divisors most voted for by pairs of `boundaries`: two
/// boundaries `Δ` keys and `t` values (mod `c`) apart vote for `Δ / t` when
/// `t` divides `Δ` — their blocks are `t` apart if fewer than `c` lie between.
fn proposals(boundaries: &[(u64, u64)], c: u64) -> Vec<u64> {
    let stride = boundaries.len().div_ceil(ANCHORS).max(1);
    let mut votes = Vec::new();
    for (i, &(at, value)) in boundaries.iter().enumerate().step_by(stride) {
        for &(next_at, next_value) in boundaries[i + 1..].iter().take(LOOKAHEAD) {
            let blocks = (next_value + c - value) % c;
            let distance = next_at - at;
            if blocks > 0 && distance % blocks == 0 {
                votes.push(distance / blocks);
            }
        }
    }
    votes.sort_unstable();
    let mut tally: Vec<(usize, u64)> = votes
        .chunk_by(|a, b| a == b)
        .map(|run| (run.len(), run[0]))
        .collect();
    tally.sort_unstable_by_key(|&(count, d)| (std::cmp::Reverse(count), d));
    tally.into_iter().take(PROPOSALS).map(|(_, d)| d).collect()
}

/// For divisor `d` and modulus `c`, the offset `o ∈ [0, c·d)` whose window
/// `[o, o + d)` (taken around the period) holds the most phases `(k − v·d) mod
/// c·d` of `rows`, and how many it holds — the rows `⌊(k − o) / d⌋ mod c` gets
/// right.  `None` when `c·d` overflows a `u64`.
fn fullest_window(rows: impl Iterator<Item = (u64, u64)>, d: u64, c: u64) -> Option<(u64, usize)> {
    let period = d.checked_mul(c)?;
    let mut phases: Vec<u64> = rows
        .map(|(key, value)| {
            let (key, shift) = (key % period, value * d);
            if key >= shift {
                key - shift
            } else {
                key + (period - shift)
            }
        })
        .collect();
    phases.sort_unstable();
    let n = phases.len();
    let around = |q: usize| {
        let phase = u128::from(phases[q % n]);
        if q < n {
            phase
        } else {
            phase + u128::from(period)
        }
    };
    let (mut best, mut end) = ((0, 0), 0);
    for (start, &phase) in phases.iter().enumerate() {
        let limit = u128::from(phase) + u128::from(d);
        end = end.max(start);
        while end < start + n && around(end) < limit {
            end += 1;
        }
        if end - start > best.1 {
            best = (phase, end - start);
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `⌊(k − o) / d⌋ mod c` over the integers, by 128-bit arithmetic.
    fn reference(key: u64, o: u64, d: u64, c: u64) -> u32 {
        let x = i128::from(key) - i128::from(o);
        x.div_euclid(i128::from(d)).rem_euclid(i128::from(c)) as u32
    }

    #[test]
    fn division_by_an_invariant_is_exact_for_every_dividend() {
        let mut rng = StdRng::seed_from_u64(0xd17);
        let mut divisors = vec![1, 2, 3, 7, 10, 70, 1_400, 1 << 32, (1 << 63) - 1, 1 << 63];
        divisors.extend([(1 << 63) + 1, u64::MAX - 1, u64::MAX]);
        divisors.extend(
            (0..200)
                .map(|_| rng.gen::<u64>() >> rng.gen_range(0..64u32))
                .filter(|&d| d > 0),
        );
        for d in divisors {
            let divisor = Divisor::new(d);
            let mut dividends = vec![0, 1, d - 1, d, d.wrapping_add(1), u64::MAX - 1, u64::MAX];
            dividends.extend((0..200).map(|_| rng.gen::<u64>() >> rng.gen_range(0..64u32)));
            for n in dividends {
                assert_eq!(divisor.div(n), n / d, "{n} / {d}");
                assert_eq!(divisor.rem(n), n % d, "{n} % {d}");
            }
        }
    }

    #[test]
    fn a_formula_is_bit_exact_on_every_key_and_every_edge() {
        let mut rng = StdRng::seed_from_u64(0xf0);
        let mut formulas = vec![
            (0, 1, 1),
            (0, 1, 2),
            (5, 1, 7),
            (1, 2, 5),
            (1, 1_400, 20),
            (0, 16, 4),
            (u64::MAX, 3, 10),
            (17, u64::MAX - 2, 3),
            (u64::MAX / 2, u64::MAX, MAX_MODULUS),
            (3, 1 << 40, MAX_MODULUS - 1),
        ];
        for _ in 0..300 {
            let o = rng.gen::<u64>() >> rng.gen_range(0..64u32);
            let d = (rng.gen::<u64>() >> rng.gen_range(0..64u32)).max(1);
            let c = (rng.gen::<u64>() >> rng.gen_range(31..64u32)).clamp(1, MAX_MODULUS);
            formulas.push((o, d, c));
        }
        for (o, d, c) in formulas {
            let formula = ColumnFormula::new(o, d, c).unwrap();
            let mut keys = vec![
                0,
                1,
                o.saturating_sub(1),
                o,
                o.saturating_add(1),
                u64::MAX - 1,
                u64::MAX,
            ];
            // The edges of the first blocks on either side of `o`, and of one far off.
            for block in [1u64, 2, 3, c, c + 1, 1 << 20] {
                if let Some(edge) = block.checked_mul(d) {
                    keys.extend([o.wrapping_add(edge), o.wrapping_sub(edge)]);
                    keys.extend([
                        o.wrapping_add(edge).wrapping_sub(1),
                        o.wrapping_sub(edge).wrapping_add(1),
                    ]);
                }
            }
            keys.extend((0..64).map(|_| rng.gen::<u64>() >> rng.gen_range(0..64u32)));
            for key in keys {
                assert_eq!(
                    formula.value(key),
                    reference(key, o, d, c),
                    "k = {key}, (o, d, c) = ({o}, {d}, {c})"
                );
            }
        }
    }

    /// A batch takes each column's loop — divisors and moduli powers of two or
    /// not — or, with a key left of the offset, the per-key path; every one
    /// answers as the integers do.
    #[test]
    fn a_batch_is_bit_exact_through_every_shape_of_formula() {
        let mut rng = StdRng::seed_from_u64(0xba7c);
        for _ in 0..200 {
            let power = |rng: &mut StdRng, max: u32| 1u64 << rng.gen_range(0..max);
            let any = |rng: &mut StdRng| (rng.gen::<u64>() >> rng.gen_range(0..64u32)).max(1);
            let columns: Vec<(u64, u64, u64)> = (0..rng.gen_range(1..6usize))
                .map(|_| {
                    let o = if rng.gen_bool(0.5) {
                        0
                    } else {
                        rng.gen_range(0..5_000u64)
                    };
                    let d = if rng.gen_bool(0.5) {
                        power(&mut rng, 64)
                    } else {
                        any(&mut rng)
                    };
                    let c = if rng.gen_bool(0.5) {
                        power(&mut rng, 33)
                    } else {
                        any(&mut rng).min(MAX_MODULUS)
                    };
                    (o, d, c)
                })
                .collect();
            let formulas = columns
                .iter()
                .map(|&(o, d, c)| ColumnFormula::new(o, d, c).unwrap());
            let form = ClosedForm {
                columns: formulas.collect(),
            };
            let low = if rng.gen_bool(0.5) { 0 } else { 5_000 };
            let mut keys: Vec<u64> = (0..rng.gen_range(0..300))
                .map(|_| rng.gen_range(low..20_000u64))
                .collect();
            keys.extend([u64::MAX, u64::MAX - 1].iter().take(rng.gen_range(0..3)));
            let mut out = vec![0; keys.len() * columns.len()];
            form.predict_into_slice(&keys, &mut out);
            let expected: Vec<u32> = keys
                .iter()
                .flat_map(|&k| columns.iter().map(move |&(o, d, c)| reference(k, o, d, c)))
                .collect();
            assert_eq!(out, expected, "{columns:?}");
        }
    }

    /// Left of `o` the column runs on as if `o` had been a whole period lower.
    #[test]
    fn keys_below_the_offset_continue_the_period() {
        let (o, d, c) = (1_000, 7, 5);
        let formula = ColumnFormula::new(o, d, c).unwrap();
        let shifted = ColumnFormula::new(o - 3 * c * d, d, c).unwrap();
        assert_eq!(formula.value(o - 1), 4);
        assert_eq!(formula.value(o - d), 4);
        assert_eq!(formula.value(o - d - 1), 3);
        assert!((0..2 * o).all(|k| formula.value(k) == shifted.value(k)));
        assert_eq!(ColumnFormula::new(u64::MAX, 1, 2).unwrap().value(0), 1);
    }

    #[test]
    fn degenerate_formulas_are_refused_and_the_bytes_round_trip() {
        assert!(ColumnFormula::new(0, 0, 4).is_err());
        assert!(ColumnFormula::new(0, 4, 0).is_err());
        assert!(ColumnFormula::new(0, 4, MAX_MODULUS + 1).is_err());
        let form = ClosedForm {
            columns: vec![
                ColumnFormula::new(1, 1, 2).unwrap(),
                ColumnFormula::new(u64::MAX, u64::MAX, MAX_MODULUS).unwrap(),
            ],
        };
        let bytes = form.to_bytes();
        assert_eq!(ClosedForm::from_bytes(&bytes).unwrap(), form);
        assert!(ClosedForm::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(ClosedForm::from_bytes(&[bytes.as_slice(), &[0]].concat()).is_err());
        let zero_divisor = [1, 0, 0, 4];
        assert!(ClosedForm::from_bytes(&zero_divisor).is_err());
    }

    fn formulas(form: &ClosedForm) -> Vec<(u64, u64, u64)> {
        form.columns()
            .iter()
            .map(|f| (f.offset(), f.divisor(), f.modulus()))
            .collect()
    }

    /// Rows `noisy_tenths` tenths of which are uniform noise, over keys with a
    /// tenth of the slots empty, of the columns `(o, d, c)`.
    fn generated(n: usize, columns: &[(u64, u64, u64)], noisy_tenths: u64, seed: u64) -> Vec<Row> {
        let mut rng = StdRng::seed_from_u64(seed);
        let kept = (0u64..)
            .filter(|_| rng.gen_range(0..10) != 0)
            .take(n)
            .collect::<Vec<_>>();
        kept.into_iter()
            .map(|k| {
                let noisy = rng.gen_range(0..10) < noisy_tenths;
                let values = columns.iter().map(|&(o, d, c)| {
                    if noisy {
                        rng.gen_range(0..c) as u32
                    } else {
                        reference(k, o, d, c)
                    }
                });
                Row::new(k, values.collect())
            })
            .collect()
    }

    fn cardinalities(rows: &[Row]) -> Vec<u32> {
        let columns = rows[0].values.len();
        (0..columns)
            .map(|j| rows.iter().map(|r| r.values[j] + 1).max().unwrap())
            .collect()
    }

    #[test]
    fn detection_recovers_bit_fields_through_gaps_and_noise() {
        // The frozen benchmark's `mixed` shape: five bit fields, 40 % noise rows.
        let columns = [
            (0, 16, 4),
            (0, 64, 8),
            (0, 256, 16),
            (0, 1_024, 32),
            (0, 16, 64),
        ];
        for (noisy_tenths, seed) in [(0, 1), (4, 1), (4, 2), (4, 3)] {
            let rows = generated(20_000, &columns, noisy_tenths, seed);
            let cardinalities = cardinalities(&rows);
            let form = ClosedForm::detect(&rows, &cardinalities).expect("a closed form");
            // The modulus is the column's cardinality: 20 000 rows span 22 of the
            // fourth column's 32 blocks, so it takes 22 values.
            let expected: Vec<_> = columns
                .iter()
                .zip(&cardinalities)
                .map(|(&(o, d, _), &c)| (o, d, u64::from(c)))
                .collect();
            assert_eq!(
                formulas(&form),
                expected,
                "{noisy_tenths} tenths noisy, seed {seed}"
            );
        }
    }

    #[test]
    fn detection_recovers_offsets_and_divisors_that_are_no_powers_of_two() {
        let columns = [
            (3, 1, 2),
            (3, 2, 5),
            (3, 10, 7),
            (1_003, 70, 20),
            (3, 1_400, 4),
            (3, 5_600, 7),
        ];
        let rows = generated(30_000, &columns, 0, 9);
        let form = ClosedForm::detect(&rows, &cardinalities(&rows)).expect("a closed form");
        let keys: Vec<u64> = rows.iter().map(|r| r.key).collect();
        let mut predictions = vec![0; keys.len() * columns.len()];
        form.predict_into_slice(&keys, &mut predictions);
        let right = rows.iter().zip(predictions.chunks_exact(columns.len()));
        assert!(
            right.clone().all(|(row, p)| p == row.values.as_slice()),
            "{:?}",
            formulas(&form)
        );
        // The offsets are the generator's up to a whole period.
        for (&(o, d, c), found) in columns.iter().zip(form.columns()) {
            assert_eq!((found.divisor(), found.modulus()), (d, c));
            assert_eq!(found.offset() % (d * c), o % (d * c));
        }
        let noisy = generated(30_000, &columns, 3, 9);
        assert!(ClosedForm::detect(&noisy, &cardinalities(&noisy)).is_some());
    }

    #[test]
    fn detection_finds_nothing_in_noise() {
        for cards in [[3, 7, 25, 50, 150], [2, 2, 2, 2, 2]] {
            let noise: Vec<(u64, u64, u64)> = cards.iter().map(|&c| (0, 1, c)).collect();
            let rows = generated(20_000, &noise, 10, 4);
            assert_eq!(
                ClosedForm::detect(&rows, &cardinalities(&rows)),
                None,
                "{cards:?}"
            );
        }
        assert_eq!(ClosedForm::detect(&[], &[4]), None);
    }
}
