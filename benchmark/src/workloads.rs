//! The four workloads.  Each stresses different layers; `README.md` says which
//! and why, and which end-to-end metric each layer metric should move.

use crate::gen::{
    clean_values, fingerprint_keys, noise_values, Dataset, GenRow, KeySampler, SplitMix64, Table,
    USER_BYTES_PER_ROW,
};
use crate::host::HostSpeed;
use crate::layers::{
    self, Answers, Client, Exec, LayerReplay, LookupCounts, Reference, ReferenceKind, Result, Rows,
    Server, Store, WalProbe, WriteOp,
};
use crate::oracle::{Oracle, Tally};
use crate::report::Measured;
use crate::stats::{median, Latencies};
use crate::trace::Tracer;
use crate::Options;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MemMixed,
    ColdMixed,
    WriteMix,
    ServeModel,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MemMixed,
        Workload::ColdMixed,
        Workload::WriteMix,
        Workload::ServeModel,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MemMixed => "mem_mixed",
            Workload::ColdMixed => "cold_mixed",
            Workload::WriteMix => "write_mix",
            Workload::ServeModel => "serve_model",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

// Sizing.  README.md gives the probes behind each number.
const ROWS: usize = 20_000;
const QUICK_ROWS: usize = 4_000;
/// Set-up runs this many times; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// Table 2 regime: batches large enough that inference is nearly all the work.
const MEM_BATCH: usize = 4096;
/// Table 1 regime: a pool that holds about 8 of the 28 partitions, and batches
/// small enough that partition loads, not inference, are most of a call.
const COLD_BATCH: usize = 64;
const COLD_POOL_BYTES: usize = 64 * 1024;
const UNLIMITED_POOL: usize = usize::MAX;
const WARMUP_CALLS: u64 = 32;
/// Lookups from the file get a longer warm-up: the pool reaches its steady
/// contents within a few calls and the page cache holds the file after one
/// pass (probed: the first 0.4 s of a window after 32 warm-up calls ran as
/// fast as the rest).
const COLD_WARMUP_CALLS: u64 = 256;
/// A window is cut into segments of this much summed call time.  Each has its
/// own keys per second, and `keys_per_s` is their median: a burst of
/// interference slows the segments it falls in and leaves the median alone.
/// The host's speed is probed once per segment (`host.rs`).
const SEGMENT_NS: u64 = 40_000_000;
/// Ticks before the build, after it and after the warm-up of every set-up.
const SETUP_BURST_TICKS: usize = 8;

// `write_mix`: a fixed number of rounds per second of `--seconds`, so that the
// store's state and every count are the same from run to run.
const WRITE_ROUNDS_PER_SECOND: u64 = 20;
const INSERTS_PER_ROUND: usize = 32;
const UPDATES_PER_ROUND: usize = 32;
const DELETES_PER_ROUND: usize = 16;
const LOOKUPS_PER_ROUND: usize = 6;
const CHECKPOINT_EVERY_ROUNDS: u64 = 64;

// `serve_model`.
const REQUEST_KEYS: usize = 8;
const MAX_CLIENT_THREADS: usize = 2;
const WARMUP_REQUESTS_PER_CLIENT: u64 = 256;
/// A serving window is cut into slices of wall time; `keys_per_s` is the median
/// of the keys all clients had answered per slice.
const SERVE_SLICE: Duration = Duration::from_millis(100);
/// The serving window runs in this many parts, with a burst of ticks before
/// each and after the last, on the main thread while the server is idle: a
/// tick beside three busy threads on two cores would time the scheduler.
const SERVE_PARTS: u32 = 10;
const SERVE_BURST_TICKS: usize = 8;

// Traced runs replay a fixed number of calls per second of `--seconds`, so
// that the counts they report repeat exactly.
const TRACED_MEM_BATCHES_PER_SECOND: u64 = 30;
const TRACED_COLD_BATCHES_PER_SECOND: u64 = 250;
const TRACED_REQUESTS_PER_CLIENT_PER_SECOND: u64 = 4000;
const REFERENCE_MEM_BATCHES_PER_SECOND: u64 = 40;
const REFERENCE_COLD_BATCHES_PER_SECOND: u64 = 150;
/// Share of `--seconds` a traced run spends on an untraced window first, to
/// have a throughput to compare its own with.
const TRACED_BASELINE_SHARE: f64 = 0.2;

// Key streams: one seed, one independent stream per purpose.
const STREAM_TIMED: u64 = 10;
const STREAM_WARMUP: u64 = 11;
const STREAM_WRITES: u64 = 12;
const STREAM_CLIENT: u64 = 20;

fn client_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_CLIENT_THREADS)
}

/// What a workload hands back to `run`.
pub struct Outcome {
    pub measured: Measured,
    pub tally: Tally,
    pub rows: usize,
    pub rows_fingerprint: u64,
    pub keys_fingerprint: u64,
    pub notes: Notes,
    pub spans: Option<Tracer>,
}

pub fn run(opts: &Options, scratch: &Path) -> Result<Outcome> {
    match opts.workload {
        Workload::MemMixed | Workload::ColdMixed => lookup_workload(opts, scratch),
        Workload::WriteMix => write_mix(opts, scratch),
        Workload::ServeModel => serve_model(opts, scratch),
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Regime {
    /// Built, persisted for its size, then served from memory.
    Memory,
    /// Built with a small pool, persisted, dropped, re-opened: partitions come
    /// from the file on demand.
    Cold,
    /// Built and kept behind its snapshot file and WAL.
    Durable,
}

/// The generated inputs and what is known about the store built from them.
struct Inputs {
    table: Table,
    live: Vec<u64>,
    oracle: Oracle,
    snapshot: PathBuf,
    stored_bytes: u64,
    pool_bytes: usize,
    build_s: f64,
}

impl Inputs {
    fn sample(&self, sampler: &mut KeySampler, count: usize, out: &mut Vec<u64>) {
        sampler.fill(
            &self.live,
            &self.table.gaps,
            self.table.key_span,
            count,
            out,
        );
    }

    fn bytes_per_user_byte(&self) -> f64 {
        self.stored_bytes as f64 / self.table.user_bytes() as f64
    }

    /// Fingerprint of the first 1 000 keys of a stream, for the run record.
    fn keys_fingerprint(&self, seed: u64, stream: u64) -> u64 {
        let mut keys = Vec::new();
        self.sample(&mut KeySampler::new(seed, stream), 1000, &mut keys);
        fingerprint_keys(&keys)
    }
}

/// Everything before the timed window: generate, build (train, auxiliary
/// table, existence bits), persist, re-open where the regime says so, warm up.
fn prepare(
    opts: &Options,
    dataset: Dataset,
    regime: Regime,
    batch: usize,
    scratch: &Path,
    host: &mut HostSpeed,
) -> Result<(Inputs, Store)> {
    let row_count = if opts.quick { QUICK_ROWS } else { ROWS };
    let table = Table::generate(dataset, row_count, opts.seed);
    let mut oracle = Oracle::new(&table);
    if opts.corrupt_oracle {
        oracle.corrupt(table.rows[0].key);
    }
    let live: Vec<u64> = table.rows.iter().map(|row| row.key).collect();
    let pool_bytes = if regime == Regime::Cold {
        COLD_POOL_BYTES
    } else {
        UNLIMITED_POOL
    };
    let rows = Rows::new(&table.rows);
    host.burst(SETUP_BURST_TICKS);
    let begin = Instant::now();
    let store = Store::build(&rows, pool_bytes, Exec::Caller)?;
    let build_s = begin.elapsed().as_secs_f64();
    host.burst(SETUP_BURST_TICKS);
    let snapshot = scratch.join("store.dm");
    let store = store.persist(&snapshot)?;
    let stored_bytes = layers::snapshot_bytes(&snapshot)? + layers::wal_bytes(&snapshot);
    let store = match regime {
        Regime::Memory => store.into_memory(),
        Regime::Durable => store,
        Regime::Cold => {
            drop(store);
            Store::open(&snapshot)?
        }
    };
    let inputs = Inputs {
        table,
        live,
        oracle,
        snapshot,
        stored_bytes,
        pool_bytes,
        build_s,
    };
    // Warm-up: the pool reaches its steady contents and lazy set-up finishes.
    let warmup = Stop::Calls(if regime == Regime::Cold {
        COLD_WARMUP_CALLS
    } else {
        WARMUP_CALLS
    });
    let warmed = lookup_window(
        &inputs,
        &mut timed_lookup(&store),
        opts.seed,
        STREAM_WARMUP,
        batch,
        warmup,
    )?;
    host.absorb(warmed.timed.host);
    host.burst(SETUP_BURST_TICKS);
    Ok((inputs, store))
}

/// Set-up time by the wall clock, and how fast the host ran meanwhile.
struct SetUp {
    wall_s: f64,
    host: HostSpeed,
}

impl SetUp {
    fn report(&self, measured: &mut Measured) {
        let slowdown = self.host.slowdown();
        measured.set("setup_s", self.wall_s / slowdown);
        measured.set("bench.wall_setup_s", self.wall_s);
        measured.set("bench.host_setup_slowdown", slowdown);
    }
}

/// Runs set-up `SETUP_REPEATS` times, keeps the last store, and returns the
/// median set-up time with it.
fn prepare_repeatedly(
    opts: &Options,
    dataset: Dataset,
    regime: Regime,
    batch: usize,
    scratch: &Path,
) -> Result<(Inputs, Store, SetUp)> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut host = HostSpeed::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take());
        let begin = Instant::now();
        prepared = Some(prepare(opts, dataset, regime, batch, scratch, &mut host)?);
        times.push(begin.elapsed().as_secs_f64());
    }
    let (inputs, store) = prepared.expect("SETUP_REPEATS is at least 1");
    let wall_s = median(&mut times);
    Ok((inputs, store, SetUp { wall_s, host }))
}

// ---------------------------------------------------------------------------
// Lookup windows
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Stop {
    After(Duration),
    Calls(u64),
}

impl Stop {
    fn window(opts: &Options) -> Stop {
        Stop::After(Duration::from_secs(opts.seconds))
    }

    fn traced_baseline(opts: &Options) -> Stop {
        Stop::After(Duration::from_secs_f64(
            opts.seconds as f64 * TRACED_BASELINE_SHARE,
        ))
    }

    fn reached(self, begin: Instant, calls: u64) -> bool {
        match self {
            Stop::After(window) => begin.elapsed() >= window,
            Stop::Calls(limit) => calls >= limit,
        }
    }
}

/// A lookup call that reports its own duration in nanoseconds.
type LookupCall<'a> = dyn FnMut(&[u64], &mut Answers, u32) -> Result<u64> + 'a;

/// What the timed calls of one window measured.
struct Timed {
    /// One sample per lookup call (`serve_model`: per request).
    latencies: Latencies,
    /// Keys per second of each segment of the window.
    segment_speeds: Vec<f64>,
    /// Keys per second of the whole window.
    wall_keys_per_s: f64,
    host: HostSpeed,
}

struct Window {
    timed: Timed,
    tally: Tally,
}

/// Sums the keys and the call time of a segment and closes them into a speed.
#[derive(Default)]
struct Segments {
    speeds: Vec<f64>,
    keys: u64,
    ns: u64,
}

impl Segments {
    fn add(&mut self, keys: usize, ns: u64) {
        self.keys += keys as u64;
        self.ns += ns;
    }

    fn close(&mut self) {
        if self.ns > 0 {
            self.speeds.push(self.keys as f64 * 1e9 / self.ns as f64);
        }
        (self.keys, self.ns) = (0, 0);
    }
}

/// One closed-loop issuer: the next batch is sent when the last one returned.
/// Only the lookup call is timed; drawing the keys, checking the answers and
/// probing the host's speed happen between calls.
fn lookup_window(
    inputs: &Inputs,
    lookup: &mut LookupCall<'_>,
    seed: u64,
    stream: u64,
    batch: usize,
    stop: Stop,
) -> Result<Window> {
    let mut sampler = KeySampler::new(seed, stream);
    let (mut keys, mut answers) = (Vec::with_capacity(batch), Answers::new());
    let mut tally = Tally::default();
    let (mut samples, mut segments, mut host) = (Vec::new(), Segments::default(), HostSpeed::new());
    let begin = Instant::now();
    while !stop.reached(begin, samples.len() as u64) {
        inputs.sample(&mut sampler, batch, &mut keys);
        let ns = lookup(&keys, &mut answers, samples.len() as u32)?;
        samples.push(ns);
        inputs.oracle.check(&keys, &answers, &mut tally);
        segments.add(batch, ns);
        if segments.ns >= SEGMENT_NS {
            segments.close();
            host.probe();
        }
    }
    let latencies = Latencies::new(samples);
    let timed = Timed {
        wall_keys_per_s: (latencies.count() * batch) as f64 / latencies.sum_secs(),
        latencies,
        segment_speeds: segments.speeds,
        host,
    };
    Ok(Window { timed, tally })
}

/// The plain call, timed from outside: what every untraced window runs.
fn timed_lookup(store: &Store) -> impl FnMut(&[u64], &mut Answers, u32) -> Result<u64> + '_ {
    move |keys, answers, _| {
        let begin = Instant::now();
        store.lookup(keys, answers)?;
        Ok(begin.elapsed().as_nanos() as u64)
    }
}

/// The call inside a `core.lookup` span, followed by the layer-by-layer replay.
fn traced_lookup<'a>(
    store: &'a Store,
    replay: &'a mut LayerReplay,
    spans: &'a mut Tracer,
) -> impl FnMut(&[u64], &mut Answers, u32) -> Result<u64> + 'a {
    move |keys, answers, call| replay.lookup(store, keys, answers, spans, call)
}

type Notes = Vec<(&'static str, String)>;

/// The lookup metrics every workload reports, and the sample counts behind
/// them.  `keys_per_s` and `batch_p50_us` are corrected for the host's speed
/// during the window (`host.rs`); the wall-clock values stand beside them.
fn set_lookup_metrics(measured: &mut Measured, notes: &mut Notes, timed: &Timed) {
    let latencies = &timed.latencies;
    let slowdown = timed.host.slowdown();
    let mut speeds = timed.segment_speeds.clone();
    let typical = if speeds.is_empty() {
        timed.wall_keys_per_s
    } else {
        median(&mut speeds)
    };
    let (percentile, tail_us) = latencies.tail_us();
    measured.set("keys_per_s", typical * slowdown);
    measured.set("batch_p50_us", latencies.p50_us() / slowdown);
    measured.set("batch_p99_us", tail_us);
    measured.set("bench.wall_keys_per_s", timed.wall_keys_per_s);
    measured.set("bench.wall_batch_p50_us", latencies.p50_us());
    measured.set("bench.host_slowdown", slowdown);
    notes.push((
        "lookup_calls",
        format!(
            "{} calls in {} segments; batch_p99_us is their p{percentile:.1}",
            latencies.count(),
            speeds.len(),
        ),
    ));
    notes.push((
        "host_ticks",
        format!(
            "{} of each kind; light x{:.3}, heavy x{:.3} the quiet host's",
            timed.host.count(),
            timed.host.light_slowdown(),
            timed.host.heavy_slowdown()
        ),
    ));
}

// ---------------------------------------------------------------------------
// mem_mixed and cold_mixed
// ---------------------------------------------------------------------------

fn lookup_workload(opts: &Options, scratch: &Path) -> Result<Outcome> {
    let cold = opts.workload == Workload::ColdMixed;
    let (regime, batch, traced_per_second, reference_per_second) = if cold {
        (
            Regime::Cold,
            COLD_BATCH,
            TRACED_COLD_BATCHES_PER_SECOND,
            REFERENCE_COLD_BATCHES_PER_SECOND,
        )
    } else {
        (
            Regime::Memory,
            MEM_BATCH,
            TRACED_MEM_BATCHES_PER_SECOND,
            REFERENCE_MEM_BATCHES_PER_SECOND,
        )
    };
    let (inputs, store, setup) = prepare_repeatedly(opts, Dataset::Mixed, regime, batch, scratch)?;
    let mut measured = Measured::default();
    setup.report(&mut measured);
    measured.set("bytes_per_user_byte", inputs.bytes_per_user_byte());
    let mut outcome = Outcome {
        measured,
        tally: Tally::default(),
        rows: inputs.table.rows.len(),
        rows_fingerprint: inputs.table.fingerprint(),
        keys_fingerprint: inputs.keys_fingerprint(opts.seed, STREAM_TIMED),
        notes: Vec::new(),
        spans: None,
    };
    let (measured, tally) = (&mut outcome.measured, &mut outcome.tally);
    let window = |lookup: &mut LookupCall<'_>, stop: Stop, tally: &mut Tally| {
        let window = lookup_window(&inputs, lookup, opts.seed, STREAM_TIMED, batch, stop)?;
        tally.merge(window.tally);
        Ok::<Timed, layers::Error>(window.timed)
    };

    if !opts.trace {
        let timed = window(&mut timed_lookup(&store), Stop::window(opts), tally)?;
        set_lookup_metrics(measured, &mut outcome.notes, &timed);
        return Ok(outcome);
    }

    let baseline = window(
        &mut timed_lookup(&store),
        Stop::traced_baseline(opts),
        tally,
    )?;
    let single_issuer = baseline.wall_keys_per_s;
    let calls = opts.seconds * traced_per_second;
    let (mut spans, mut replay) = (Tracer::new(), LayerReplay::new());
    let traced = window(
        &mut traced_lookup(&store, &mut replay, &mut spans),
        Stop::Calls(calls),
        tally,
    )?;
    set_lookup_metrics(measured, &mut outcome.notes, &traced);
    measured.set(
        "bench.trace_overhead_share",
        1.0 - traced.wall_keys_per_s / single_issuer,
    );
    set_layer_metrics(measured, &spans, &replay.counts);
    set_store_probes(measured, &inputs, &store, scratch, batch, opts.seed)?;

    let reference_calls = opts.seconds * reference_per_second;
    let rows = Rows::new(&inputs.table.rows);
    if !cold {
        // dm-exec.  The same store under two closed-loop issuers, each running
        // its calls on its own thread: keys per second of wall.
        let begin = Instant::now();
        let tallies: Vec<Result<Tally>> = std::thread::scope(|scope| {
            let issuers: Vec<_> = (1..=2u64)
                .map(|issuer| {
                    let (inputs, store) = (&inputs, &store);
                    scope.spawn(move || {
                        let stop = Stop::Calls(reference_calls);
                        let stream = STREAM_TIMED + 100 * issuer;
                        lookup_window(
                            inputs,
                            &mut timed_lookup(store),
                            opts.seed,
                            stream,
                            batch,
                            stop,
                        )
                        .map(|window| window.tally)
                    })
                })
                .collect();
            issuers
                .into_iter()
                .map(|h| h.join().expect("issuer thread panicked"))
                .collect()
        });
        let two_issuers =
            (2 * reference_calls * batch as u64) as f64 / begin.elapsed().as_secs_f64();
        for checked in tallies {
            tally.merge(checked?);
        }
        measured.set("exec.keys_per_s_t2", two_issuers);
        measured.set("exec.scaling_t2", two_issuers / single_issuer);

        // And one issuer whose calls run on the shared pool, the product's
        // default, which no measured window uses: what the pool does per call
        // and what it gains over the calling thread alone.
        let pooled = Store::build(&rows, inputs.pool_bytes, Exec::SharedPool)?;
        window(&mut timed_lookup(&pooled), Stop::Calls(WARMUP_CALLS), tally)?;
        let before = layers::exec_counts(&pooled);
        let on_pool = window(
            &mut timed_lookup(&pooled),
            Stop::Calls(reference_calls),
            tally,
        )?;
        let after = layers::exec_counts(&pooled);
        let per_batch = |count: u64| ratio(count, reference_calls);
        measured.set(
            "exec.tasks_per_batch",
            per_batch(after.tasks - before.tasks),
        );
        measured.set(
            "exec.steals_per_batch",
            per_batch(after.steals - before.steals),
        );
        measured.set(
            "exec.park_ns_per_batch",
            per_batch(after.park_ns - before.park_ns),
        );
        measured.set("exec.pool_keys_per_s", on_pool.wall_keys_per_s);
        measured.set("exec.pool_speedup", on_pool.wall_keys_per_s / single_issuer);
        outcome.notes.push((
            "shared_pool_threads",
            layers::shared_pool_threads().to_string(),
        ));
    }

    // The paper's baselines on the same rows, keys and pool budget.
    for (kind, speed, size) in [
        (
            ReferenceKind::ArrayCompressed,
            "ref.abcz_keys_per_s",
            "ref.abcz_bytes_per_user_byte",
        ),
        (
            ReferenceKind::Hash,
            "ref.hb_keys_per_s",
            "ref.hb_bytes_per_user_byte",
        ),
    ] {
        let reference = Reference::build(kind, &rows, inputs.pool_bytes)?;
        let mut call = |keys: &[u64], answers: &mut Answers, _| {
            let begin = Instant::now();
            reference.lookup(keys, answers)?;
            Ok(begin.elapsed().as_nanos() as u64)
        };
        let timed = window(&mut call, Stop::Calls(reference_calls), tally)?;
        measured.set(speed, timed.wall_keys_per_s);
        measured.set(
            size,
            reference.stored_bytes() as f64 / inputs.table.user_bytes() as f64,
        );
    }
    outcome.spans = Some(spans);
    Ok(outcome)
}

// ---------------------------------------------------------------------------
// Per-layer metrics from the spans and the counts
// ---------------------------------------------------------------------------

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

fn set_layer_metrics(measured: &mut Measured, spans: &Tracer, counts: &LookupCounts) {
    let totals = spans.totals();
    let total_ns = |name: &str| totals.get(name).map_or(0, |t| t.total_ns);
    let per_existing = |name: &str| ratio(total_ns(name), counts.existing_keys);

    measured.set(
        "storage.existence_ns_per_key",
        ratio(total_ns("storage.existence"), counts.keys),
    );
    measured.set(
        "storage.existence_pass_share",
        ratio(counts.existing_keys, counts.keys),
    );
    let pool_lookups = counts.pool_hits + counts.pool_misses + counts.single_flight_waits;
    measured.set(
        "storage.pool_hit_share",
        ratio(counts.pool_hits, pool_lookups),
    );
    measured.set(
        "storage.pool_loads_per_batch",
        ratio(counts.partition_loads, counts.batches),
    );
    measured.set(
        "storage.pool_evictions_per_batch",
        ratio(counts.pool_evictions, counts.batches),
    );
    measured.set(
        "storage.single_flight_waits_per_batch",
        ratio(counts.single_flight_waits, counts.batches),
    );

    measured.set("nn.encode_ns_per_key", per_existing("nn.encode"));
    let forward = per_existing("nn.forward");
    measured.set("nn.forward_ns_per_key", forward);
    for name in [
        "nn.trunk0_ns_per_key",
        "nn.trunk1_ns_per_key",
        "nn.head0_ns_per_key",
        "nn.head1_ns_per_key",
        "nn.head2_ns_per_key",
        "nn.head3_ns_per_key",
        "nn.head4_ns_per_key",
    ] {
        measured.set(name, per_existing(name.trim_end_matches("_ns_per_key")));
    }
    measured.set("nn.macs_per_key", counts.macs_per_key as f64);
    measured.set(
        "nn.mac_per_ns",
        if forward > 0.0 {
            counts.macs_per_key as f64 / forward
        } else {
            0.0
        },
    );

    // Bytes per nanosecond × 1000 = MB/s.
    let decode = ratio(counts.bytes_decoded, total_ns("compress.decode"));
    measured.set("compress.decode_mb_per_s", 1e3 * decode);
    let loads = totals.get("persist.cold_load").map_or(0, |t| t.count);
    measured.set(
        "persist.cold_load_us",
        ratio(total_ns("persist.cold_load"), loads) / 1e3,
    );

    let lookup = total_ns("core.lookup");
    measured.set("core.lookup_ns_per_key", ratio(lookup, counts.keys));
    measured.set("core.aux_probe_ns_per_key", per_existing("core.aux_probe"));
    // The full call minus the same work done layer by layer: plan, merge and
    // overlap.  Negative when prefetch hides loads behind inference.
    let by_layer: u64 = [
        "storage.existence",
        "nn.encode",
        "nn.forward",
        "core.aux_probe",
    ]
    .into_iter()
    .map(total_ns)
    .sum();
    let residual = if lookup == 0 {
        0.0
    } else {
        (lookup as f64 - by_layer as f64) / lookup as f64
    };
    measured.set("core.pipeline_residual_share", residual);
    let answered = counts.model_answered + counts.aux_answered;
    measured.set(
        "core.model_answer_share",
        ratio(counts.model_answered, answered),
    );
    // Every key that reaches the model is also probed (unless the auxiliary
    // table is empty), so these two shares are what an exact "is it in the
    // auxiliary table" map could save.
    measured.set(
        "core.wasted_inference_share",
        ratio(counts.aux_answered, counts.inferred_keys),
    );
    measured.set(
        "core.wasted_probe_share",
        ratio(counts.model_answered, counts.probed_keys),
    );
}

/// Sizes, codec speed, and the snapshot write / open / first batch, probed on
/// the side of a traced run.
fn set_store_probes(
    measured: &mut Measured,
    inputs: &Inputs,
    store: &Store,
    scratch: &Path,
    batch: usize,
    seed: u64,
) -> Result<()> {
    measured.set("core.build_s", inputs.build_s);
    let sizes = layers::size_breakdown(store);
    measured.set("core.size.model_bytes", sizes.model_bytes as f64);
    measured.set("core.size.aux_bytes", sizes.aux_bytes as f64);
    measured.set("core.size.existence_bytes", sizes.existence_bytes as f64);
    measured.set("core.size.decode_map_bytes", sizes.decode_map_bytes as f64);

    let codec = layers::codec_probe(store)?;
    measured.set(
        "compress.encode_mb_per_s",
        1e3 * ratio(codec.raw_bytes, codec.encode_ns),
    );
    measured.set(
        "compress.aux_ratio",
        ratio(codec.compressed_bytes, codec.raw_bytes),
    );

    let mut first_batch = Vec::new();
    inputs.sample(
        &mut KeySampler::new(seed, STREAM_WARMUP),
        batch,
        &mut first_batch,
    );
    let probe = layers::persist_probe(store, &scratch.join("probe.dm"), &first_batch)?;
    measured.set(
        "persist.snapshot_write_ms",
        probe.snapshot_write_ns as f64 / 1e6,
    );
    measured.set("persist.snapshot_bytes", probe.snapshot_bytes as f64);
    measured.set("persist.eager_bytes", probe.eager_bytes as f64);
    measured.set("persist.open_us", probe.open_ns as f64 / 1e3);
    measured.set("persist.first_batch_us", probe.first_batch_ns as f64 / 1e3);
    Ok(())
}

// ---------------------------------------------------------------------------
// write_mix
// ---------------------------------------------------------------------------

/// The rows and keys of one round, drawn before any timed call.
struct Round {
    inserts: Vec<GenRow>,
    updates: Vec<GenRow>,
    deletes: Vec<u64>,
}

struct WriteState {
    rng: SplitMix64,
    next_key: u64,
    /// Every key that was live once and is not now.
    deleted: Vec<u64>,
}

impl WriteState {
    fn next_round(&mut self, inputs: &mut Inputs) -> Round {
        // Half of the new rows follow the pattern the model learned, half do not.
        let inserts: Vec<GenRow> = (0..INSERTS_PER_ROUND)
            .map(|i| {
                let key = self.next_key + i as u64;
                let values = if i % 2 == 0 {
                    clean_values(key)
                } else {
                    noise_values(&mut self.rng)
                };
                GenRow { key, values }
            })
            .collect();
        self.next_key += INSERTS_PER_ROUND as u64;
        let live = &mut inputs.live;
        let updates: Vec<GenRow> = (0..UPDATES_PER_ROUND)
            .map(|_| {
                let key = live[self.rng.below(live.len() as u64) as usize];
                GenRow {
                    key,
                    values: noise_values(&mut self.rng),
                }
            })
            .collect();
        let deletes: Vec<u64> = (0..DELETES_PER_ROUND)
            .map(|_| live.swap_remove(self.rng.below(live.len() as u64) as usize))
            .collect();
        live.extend(inserts.iter().map(|row| row.key));
        self.deleted.extend(&deletes);
        inputs.oracle.put(&inserts);
        inputs.oracle.put(&updates);
        inputs.oracle.delete(&deletes);
        Round {
            inserts,
            updates,
            deletes,
        }
    }
}

fn write_mix(opts: &Options, scratch: &Path) -> Result<Outcome> {
    let batch = MEM_BATCH;
    let (mut inputs, mut store, setup) =
        prepare_repeatedly(opts, Dataset::Mixed, Regime::Durable, batch, scratch)?;
    let rows_fingerprint = inputs.table.fingerprint();
    let keys_fingerprint = inputs.keys_fingerprint(opts.seed, STREAM_TIMED);
    let mut measured = Measured::default();
    setup.report(&mut measured);
    if opts.trace {
        set_store_probes(&mut measured, &inputs, &store, scratch, batch, opts.seed)?;
    }
    let rounds = WRITE_ROUNDS_PER_SECOND * opts.seconds;
    let mut state = WriteState {
        rng: SplitMix64::fork(opts.seed, STREAM_WRITES),
        next_key: inputs.table.key_span,
        deleted: Vec::new(),
    };
    let mut sampler = KeySampler::new(opts.seed, STREAM_TIMED);
    let (mut keys, mut answers) = (Vec::with_capacity(batch), Answers::new());
    let mut tally = Tally::default();
    let (mut lookup_ns, mut write_ns, mut checkpoint_ns) = (Vec::new(), Vec::new(), Vec::new());
    // One segment and one probe of the host's speed per round.
    let (mut segments, mut host) = (Segments::default(), HostSpeed::new());
    let (mut rows_written, mut wal_bytes_written) = (0u64, 0u64);
    // A traced run also sends each write to a WAL of its own on a scratch
    // file, to see the log append and fsync apart from the rest of the call.
    let mut traced = match opts.trace {
        true => Some((Tracer::new(), WalProbe::create(&scratch.join("probe.wal"))?)),
        false => None,
    };
    let mut replay = LayerReplay::new();
    let mut call = 0u32;

    for round in 1..=rounds {
        let Round {
            inserts,
            updates,
            deletes,
        } = state.next_round(&mut inputs);
        let (insert_rows, update_rows) = (Rows::new(&inserts), Rows::new(&updates));
        for op in [
            WriteOp::Insert(&insert_rows),
            WriteOp::Update(&update_rows),
            WriteOp::Delete(&deletes),
        ] {
            let begin = Instant::now();
            match op {
                WriteOp::Insert(rows) => store.insert(rows)?,
                WriteOp::Update(rows) => store.update(rows)?,
                WriteOp::Delete(keys) => store.delete(keys)?,
            }
            let elapsed = begin.elapsed().as_nanos() as u64;
            write_ns.push(elapsed);
            if let Some((spans, wal)) = traced.as_mut() {
                spans.record("core.write", None, call, begin, elapsed);
                let span = spans.begin("persist.wal_append_sync", None, call);
                wal.append_and_sync(&op)?;
                spans.end(span);
            }
            call += 1;
        }
        rows_written += (inserts.len() + updates.len() + deletes.len()) as u64;

        for lookup in 0..LOOKUPS_PER_ROUND {
            inputs.sample(&mut sampler, batch, &mut keys);
            if lookup == 0 {
                // The first batch after the writes asks for what they touched.
                let written = inserts.iter().chain(&updates).map(|row| row.key);
                for (slot, key) in keys.iter_mut().zip(written.chain(deletes.iter().copied())) {
                    *slot = key;
                }
            }
            // A traced run replays the layers for that first batch only: eight
            // replays a round would triple the length of the run.
            let ns = match traced.as_mut() {
                Some((spans, _)) if lookup == 0 => {
                    replay.lookup(&store, &keys, &mut answers, spans, call)?
                }
                _ => timed_lookup(&store)(&keys, &mut answers, call)?,
            };
            lookup_ns.push(ns);
            segments.add(batch, ns);
            inputs.oracle.check(&keys, &answers, &mut tally);
            call += 1;
        }
        segments.close();
        host.probe();

        if round % CHECKPOINT_EVERY_ROUNDS == 0 {
            wal_bytes_written += layers::wal_bytes(&inputs.snapshot);
            let begin = Instant::now();
            store.checkpoint()?;
            checkpoint_ns.push(begin.elapsed().as_nanos() as f64);
        }
    }
    wal_bytes_written += layers::wal_bytes(&inputs.snapshot);
    let overlay = layers::overlay_state(&store);

    // Acknowledged writes must survive a re-open.  Not a crash test: the
    // repository's `tests/crash_matrix.rs` owns that.
    drop(store);
    let begin = Instant::now();
    let mut store = Store::open(&inputs.snapshot)?;
    let replay_ns = begin.elapsed().as_nanos() as f64;
    let mut everything = inputs.oracle.keys();
    everything.extend(&state.deleted);
    everything.extend(&inputs.table.gaps);
    let verify = |store: &Store, tally: &mut Tally| -> Result<()> {
        let mut answers = Answers::new();
        for chunk in everything.chunks(batch) {
            store.lookup(chunk, &mut answers)?;
            inputs.oracle.check(chunk, &answers, tally);
        }
        Ok(())
    };
    verify(&store, &mut tally)?;
    let begin = Instant::now();
    store.maintenance()?;
    let maintenance_s = begin.elapsed().as_secs_f64();
    verify(&store, &mut tally)?;
    let stored_bytes =
        layers::snapshot_bytes(&inputs.snapshot)? + layers::wal_bytes(&inputs.snapshot);

    let lookups = Latencies::new(lookup_ns);
    let writes = Latencies::new(write_ns);
    let mut notes = Notes::new();
    let timed = Timed {
        wall_keys_per_s: (lookups.count() * batch) as f64 / lookups.sum_secs(),
        latencies: lookups,
        segment_speeds: segments.speeds,
        host,
    };
    set_lookup_metrics(&mut measured, &mut notes, &timed);
    let live_user_bytes = inputs.oracle.len() * USER_BYTES_PER_ROW;
    measured.set(
        "bytes_per_user_byte",
        stored_bytes as f64 / live_user_bytes as f64,
    );
    measured.set("write_rows_per_s", rows_written as f64 / writes.sum_secs());
    measured.set("write_p50_us", writes.p50_us());
    measured.set("maintenance_s", maintenance_s);
    let written_user_bytes = rows_written * USER_BYTES_PER_ROW as u64;
    measured.set(
        "persist.wal_bytes_per_user_byte",
        ratio(wal_bytes_written, written_user_bytes),
    );
    if !checkpoint_ns.is_empty() {
        measured.set("persist.checkpoint_ms", median(&mut checkpoint_ns) / 1e6);
    }
    measured.set("persist.replay_ms", replay_ns / 1e6);
    measured.set("core.overlay_bytes", overlay.overlay_bytes as f64);
    measured.set("core.delta_rows", overlay.delta_rows as f64);
    measured.set("core.tombstones", overlay.tombstones as f64);
    let spans = traced.map(|(spans, _)| spans);
    if let Some(spans) = &spans {
        set_layer_metrics(&mut measured, spans, &replay.counts);
        let appends = spans
            .totals()
            .get("persist.wal_append_sync")
            .copied()
            .unwrap_or_default();
        measured.set(
            "persist.wal_append_sync_us",
            ratio(appends.total_ns, appends.count) / 1e3,
        );
    }
    let write_calls = writes.count();
    notes.push((
        "write_calls",
        format!("{write_calls} calls in {rounds} rounds, {rows_written} rows"),
    ));
    notes.push(("rows_after_writes", inputs.oracle.len().to_string()));
    Ok(Outcome {
        measured,
        tally,
        rows: inputs.table.rows.len(),
        rows_fingerprint,
        keys_fingerprint,
        notes,
        spans,
    })
}

// ---------------------------------------------------------------------------
// serve_model
// ---------------------------------------------------------------------------

struct ClientRun {
    latencies_ns: Vec<u64>,
    /// When each request was answered, in nanoseconds since the window began.
    answered_ns: Vec<u64>,
    tally: Tally,
    wall: Duration,
    spans: Option<Tracer>,
}

/// One closed-loop client: up to `CLIENT_DEPTH` requests in flight, awaited in
/// the order they were sent, a new one sent for each one answered.
fn client_loop(
    client: &mut Client,
    inputs: &Inputs,
    seed: u64,
    stream: u64,
    begin: Instant,
    stop: Stop,
    traced: bool,
) -> ClientRun {
    let mut sampler = KeySampler::new(seed, stream);
    let mut spans = traced.then(Tracer::new);
    let mut tally = Tally::default();
    let (mut latencies_ns, mut answered_ns) = (Vec::new(), Vec::new());
    let mut answers = Answers::new();
    let mut in_flight = VecDeque::with_capacity(layers::CLIENT_DEPTH);
    let mut spare: Vec<Vec<u64>> = Vec::new();
    let mut sent = 0u64;
    loop {
        while in_flight.len() < layers::CLIENT_DEPTH && !stop.reached(begin, sent) {
            let mut keys = spare.pop().unwrap_or_default();
            inputs.sample(&mut sampler, REQUEST_KEYS, &mut keys);
            let submitted = Instant::now();
            match client.submit(&keys) {
                Ok(pending) => in_flight.push_back((pending, keys, submitted, sent as u32)),
                Err(error) => {
                    tally.fail_call(&keys, &error);
                    spare.push(keys);
                }
            }
            sent += 1;
        }
        let Some((pending, keys, submitted, request)) = in_flight.pop_front() else {
            break;
        };
        let outcome = client.wait(pending, &mut answers);
        let elapsed = submitted.elapsed().as_nanos() as u64;
        latencies_ns.push(elapsed);
        answered_ns.push(begin.elapsed().as_nanos() as u64);
        if let Some(spans) = spans.as_mut() {
            spans.record("server.request", None, request, submitted, elapsed);
        }
        match outcome {
            Ok(timing) => {
                if let Some(spans) = spans.as_mut() {
                    spans.record(
                        "server.queue_wait",
                        None,
                        request,
                        submitted,
                        timing.queue_wait_ns,
                    );
                }
                inputs.oracle.check(&keys, &answers, &mut tally);
            }
            Err(error) => tally.fail_call(&keys, &error),
        }
        spare.push(keys);
    }
    ClientRun {
        latencies_ns,
        answered_ns,
        tally,
        wall: begin.elapsed(),
        spans,
    }
}

struct Served {
    /// `wall_keys_per_s`: keys answered by all clients per second of the
    /// window's wall time.
    timed: Timed,
    tally: Tally,
    spans: Option<Tracer>,
}

/// Keys per second of every whole slice of wall time in which all clients
/// were still sending.
fn slice_speeds(answered_ns: &[Vec<u64>]) -> Vec<f64> {
    let slice = SERVE_SLICE.as_nanos() as u64;
    let whole = answered_ns
        .iter()
        .map(|client| client.last().map_or(0, |&last| last / slice))
        .min()
        .unwrap_or(0) as usize;
    let mut requests = vec![0u64; whole];
    for &at in answered_ns.iter().flatten() {
        if let Some(count) = requests.get_mut((at / slice) as usize) {
            *count += 1;
        }
    }
    let keys_per_request_second = REQUEST_KEYS as f64 / SERVE_SLICE.as_secs_f64();
    requests
        .into_iter()
        .map(|count| count as f64 * keys_per_request_second)
        .collect()
}

/// All clients at once against one server, for each of `parts` in turn.
fn serve(server: &Server, inputs: &Inputs, seed: u64, parts: &[Stop], traced: bool) -> Served {
    let mut clients: Vec<Client> = (0..client_threads()).map(|_| server.client()).collect();
    let mut tally = Tally::default();
    let (mut latencies_ns, mut speeds, mut wall) = (Vec::new(), Vec::new(), Duration::ZERO);
    let mut spans: Option<Tracer> = None;
    let mut host = HostSpeed::new();
    host.burst(SERVE_BURST_TICKS);
    for (part, &stop) in parts.iter().enumerate() {
        let begin = Instant::now();
        let runs: Vec<ClientRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(index, client)| {
                    let stream = STREAM_CLIENT + (part * MAX_CLIENT_THREADS + index) as u64;
                    scope.spawn(move || {
                        client_loop(client, inputs, seed, stream, begin, stop, traced)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        host.burst(SERVE_BURST_TICKS);
        wall += runs.iter().map(|run| run.wall).max().unwrap_or_default();
        let mut answered_ns = Vec::new();
        for run in runs {
            tally.merge(run.tally);
            latencies_ns.extend(run.latencies_ns);
            answered_ns.push(run.answered_ns);
            match (&mut spans, run.spans) {
                (Some(all), Some(more)) => all.absorb(more),
                (None, more) => spans = more,
                (Some(_), None) => {}
            }
        }
        speeds.extend(slice_speeds(&answered_ns));
    }
    let answered = (tally.attempted - tally.failed) as f64;
    let timed = Timed {
        latencies: Latencies::new(latencies_ns),
        segment_speeds: speeds,
        wall_keys_per_s: answered / wall.as_secs_f64(),
        host,
    };
    Served {
        timed,
        tally,
        spans,
    }
}

fn serve_model(opts: &Options, scratch: &Path) -> Result<Outcome> {
    let (inputs, store, mut setup) =
        prepare_repeatedly(opts, Dataset::Hi, Regime::Memory, REQUEST_KEYS, scratch)?;
    let begin = Instant::now();
    let server = Server::start(store, false)?;
    let warmup = serve(
        &server,
        &inputs,
        opts.seed,
        &[Stop::Calls(WARMUP_REQUESTS_PER_CLIENT)],
        false,
    );
    setup.wall_s += begin.elapsed().as_secs_f64();
    let mut measured = Measured::default();
    setup.report(&mut measured);
    measured.set("bytes_per_user_byte", inputs.bytes_per_user_byte());
    let mut outcome = Outcome {
        measured,
        tally: warmup.tally,
        rows: inputs.table.rows.len(),
        rows_fingerprint: inputs.table.fingerprint(),
        keys_fingerprint: inputs.keys_fingerprint(opts.seed, STREAM_CLIENT),
        notes: vec![("client_threads", client_threads().to_string())],
        spans: None,
    };
    let (measured, tally) = (&mut outcome.measured, &mut outcome.tally);

    if !opts.trace {
        let part = Stop::After(Duration::from_secs(opts.seconds) / SERVE_PARTS);
        let parts = [part; SERVE_PARTS as usize];
        let served = serve(&server, &inputs, opts.seed, &parts, false);
        server.shutdown()?;
        tally.merge(served.tally);
        set_lookup_metrics(measured, &mut outcome.notes, &served.timed);
        return Ok(outcome);
    }

    let baseline = serve(
        &server,
        &inputs,
        opts.seed,
        &[Stop::traced_baseline(opts)],
        false,
    );
    tally.merge(baseline.tally);
    let before = server.counts()?;
    let requests = [Stop::Calls(
        TRACED_REQUESTS_PER_CLIENT_PER_SECOND * opts.seconds,
    )];
    let served = serve(&server, &inputs, opts.seed, &requests, true);
    let after = server.counts()?;
    tally.merge(served.tally);
    set_lookup_metrics(measured, &mut outcome.notes, &served.timed);
    measured.set(
        "bench.trace_overhead_share",
        1.0 - served.timed.wall_keys_per_s / baseline.timed.wall_keys_per_s,
    );
    let admitted = after.requests_admitted - before.requests_admitted;
    let rejected = after.requests_rejected - before.requests_rejected;
    let batches = after.batches - before.batches;
    // The two percentiles are the server's own, over all it has served so far.
    measured.set(
        "server.queue_wait_us_p50",
        after.queue_wait_p50_ns as f64 / 1e3,
    );
    measured.set(
        "server.coalesce_wait_us_p50",
        after.coalesce_wait_p50_ns as f64 / 1e3,
    );
    measured.set(
        "server.batch_keys_mean",
        ratio(after.keys_served - before.keys_served, batches),
    );
    let batched = after.batched_requests - before.batched_requests;
    measured.set("server.requests_per_batch", ratio(batched, batches));
    measured.set(
        "server.rejected_share",
        ratio(rejected, admitted + rejected),
    );
    let store_ns = after.store_ns - before.store_ns;
    measured.set(
        "server.store_us_per_request",
        ratio(store_ns, admitted) / 1e3,
    );

    // The same requests with no dispatcher: each runs on its caller's thread.
    let inline = Server::start(server.shutdown()?, true)?;
    let inlined = serve(&inline, &inputs, opts.seed, &requests, false);
    tally.merge(inlined.tally);
    measured.set("server.inline_keys_per_s", inlined.timed.wall_keys_per_s);
    let store = inline.shutdown()?;

    // The layers under the server, at the batch size of the memory-constrained
    // workload.  On this dataset the auxiliary table is empty.
    let mut spans = served.spans.unwrap_or_default();
    let mut replay = LayerReplay::new();
    let calls = Stop::Calls(TRACED_COLD_BATCHES_PER_SECOND * opts.seconds);
    let replayed = lookup_window(
        &inputs,
        &mut traced_lookup(&store, &mut replay, &mut spans),
        opts.seed,
        STREAM_TIMED,
        COLD_BATCH,
        calls,
    )?;
    tally.merge(replayed.tally);
    set_layer_metrics(measured, &spans, &replay.counts);
    set_store_probes(measured, &inputs, &store, scratch, COLD_BATCH, opts.seed)?;
    outcome.spans = Some(spans);
    Ok(outcome)
}
