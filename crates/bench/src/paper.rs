//! The one paper runner: every table and figure of Section V as rows of one file.
//!
//! [`run`] walks the datasets the evaluation uses (5 TPC-H and 3 TPC-DS tables, the
//! four synthetic families, the crop raster), builds each system once per regime and
//! emits one flat [`ResultRow`] per dataset × scale × system × regime × batch; the
//! write sweeps (Fig. 8, Tables III–V) and the MHAS runs (Figs. 9–10, plus the store
//! each search's winner builds) emit rows of the same shape.  A [`View`] is a
//! projection of those rows — which ones, labelled by which fields, pivoted on which
//! field, showing which cells — and [`print_view`] is the one printer.
//! [`write_rows`] writes the rows one flat JSON object per line.

use crate::{build_baselines, build_matrix, measure_lookup, store_definition, TrainedDeepMapping};
use crate::{BenchScale, MeasuredLookup, Regime, SystemUnderTest, REPEATS};
use dm_compress::Codec;
use dm_core::{MappingSchema, MhasConfig, MhasSearch, SearchStrategy, KEY_HEADROOM};
use dm_data::tpcds::{TpcdsConfig, TpcdsTable};
use dm_data::tpch::{TpchConfig, TpchTable};
use dm_data::{CropConfig, Dataset, LookupWorkload, ModificationWorkload, SyntheticConfig};
use dm_data::{TpcdsGenerator, TpchGenerator};
use dm_storage::{Row, Stage};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A field of a [`ResultRow`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A count, size, time or ratio.
    Num(f64),
    /// A name; only `[A-Za-z0-9_.-]` survives [`ResultRow::text`].
    Text(String),
}

/// One flat result row: named fields in emission order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultRow(pub Vec<(String, Value)>);

impl ResultRow {
    /// Appends a numeric field.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.0.push((key.to_string(), Value::Num(value)));
        self
    }

    /// Appends a text field; characters a flat-object reader would have to unescape
    /// (an error message's spaces, quotes, colons) become `_`.
    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        let keep = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        let value = value.chars().map(|c| if keep(c) { c } else { '_' }).collect();
        self.0.push((key.to_string(), Value::Text(value)));
        self
    }

    /// The field named `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The numeric field named `key`.
    pub fn n(&self, key: &str) -> Option<f64> {
        let Some(Value::Num(n)) = self.get(key) else { return None };
        Some(*n)
    }

    /// The text field named `key` (`""` when absent).
    pub fn s(&self, key: &str) -> &str {
        let Some(Value::Text(text)) = self.get(key) else { return "" };
        text
    }

    fn to_json(&self) -> String {
        let field = |(key, value): &(String, Value)| match value {
            Value::Num(n) => {
                assert!(n.is_finite(), "row field {key} is not finite");
                format!("\"{key}\":{n}")
            }
            Value::Text(t) => format!("\"{key}\":\"{t}\""),
        };
        format!("{{{}}}", self.0.iter().map(field).collect::<Vec<_>>().join(","))
    }
}

/// Writes `rows` as a JSON array with one flat object per line.
pub fn write_rows(path: &Path, rows: &[ResultRow]) -> std::io::Result<()> {
    let lines: Vec<String> = rows.iter().map(ResultRow::to_json).collect();
    std::fs::write(path, format!("[\n{}\n]\n", lines.join(",\n")))
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct PaperConfig {
    /// Generator scale of the first pass (`--scale`, default 0.005); the TPC tables
    /// run again at 4× it, the pair standing in for the paper's SF 1 / SF 10.
    pub scale: BenchScale,
    /// CI size: one TPC-H table, one synthetic family, one scale, 3 epochs, a short search.
    pub quick: bool,
    /// The views to run for and print: all of [`VIEWS`], or the one the filter named.
    pub views: &'static [View],
}

impl PaperConfig {
    /// The one training budget of every DeepMapping store in a run.
    fn epochs(&self) -> usize {
        if self.quick { 3 } else { 30 }
    }
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct PaperRun {
    /// Every row, in emission order.
    pub rows: Vec<ResultRow>,
    /// One `kind dataset scale` line per DeepMapping model trained.
    pub deepmapping_builds: Vec<String>,
}

/// The synthetic families, in `SyntheticConfig::paper_suite` order.
const SYNTHETIC: [&str; 4] = ["single_low", "single_high", "multi_low", "multi_high"];
/// The systems of Figure 7, Figure 8 and (with DM-Z1) Tables III–V.
const WRITE_SYSTEMS: [&str; 5] = ["AB", "HB", "ABC-Z", "HBC-Z", "DM-Z"];
/// The step after which DM-Z1 retrains (the paper retrains at 200 MB ≈ 2 increments).
const RETRAIN_STEP: usize = 2;

/// Where a row was measured: dataset family, dataset, generator scale.
type Place<'a> = (&'a str, &'a str, BenchScale);

fn synthetic(name: &str, scale: BenchScale) -> SyntheticConfig {
    let at = SYNTHETIC.iter().position(|family| *family == name).expect("a synthetic family");
    SyntheticConfig::paper_suite(scale.rows(2_000_000)).swap_remove(at)
}

/// `(family, dataset)` of every dataset the evaluation covers (`quick`: three of them,
/// `multi_high` among them so a quick run serves a closed-form store).
fn datasets(quick: bool) -> Vec<(&'static str, &'static str)> {
    let tpch = TpchTable::all().map(|t| ("tpch", t.name()));
    let tpcds = TpcdsTable::all().map(|t| ("tpcds", t.name()));
    let synthetic = SYNTHETIC.map(|name| ("synthetic", name));
    let all = tpch.into_iter().chain(tpcds).chain(synthetic).chain([("crop", "crop")]);
    all.filter(|(_, name)| !quick || matches!(*name, "orders" | "multi_low" | "multi_high")).collect()
}

fn generate((family, name, scale): Place) -> Dataset {
    match family {
        "tpch" => {
            let table = TpchTable::all().into_iter().find(|t| t.name() == name);
            TpchGenerator::new(TpchConfig::scale(scale.factor)).table(table.expect("TPC-H"))
        }
        "tpcds" => {
            let table = TpcdsTable::all().into_iter().find(|t| t.name() == name);
            TpcdsGenerator::new(TpcdsConfig::scale(scale.factor)).table(table.expect("TPC-DS"))
        }
        "synthetic" => synthetic(name, scale).generate(),
        // A 128x128 raster keeps the largest Table-I workload tractable on one core.
        _ => CropConfig { width: 128, height: 128, ..CropConfig::small() }.generate(),
    }
}

fn round(value: f64, digits: i32) -> f64 {
    let unit = 10f64.powi(digits);
    (value * unit).round() / unit
}

/// Runs everything the selected views need and returns the rows.
pub fn run(config: &PaperConfig) -> PaperRun {
    let mut run = PaperRun::default();
    for scale in [config.scale, BenchScale::new(config.scale.factor * 4.0)] {
        for (family, name) in datasets(config.quick) {
            let first_pass = scale == config.scale;
            let in_pass = first_pass || (!config.quick && matches!(family, "tpch" | "tpcds"));
            if in_pass && config.views.iter().any(|view| view.wants(family, name)) {
                run.matrix(config, (family, name, scale));
            }
        }
    }
    for kind in ["sweep_in", "sweep_off", "sweep_delete"] {
        if config.views.iter().any(|view| view.shows(ResultRow::default().text("kind", kind))) {
            run.sweep(config, kind, "multi_low");
            run.sweep(config, kind, "multi_high");
        }
    }
    if config.views.iter().any(|view| view.shows(ResultRow::default().text("kind", "mhas"))) {
        run.mhas(config);
    }
    run
}

impl PaperRun {
    /// Pushes a row with the fields every kind shares.
    fn row(&mut self, kind: &str, place: Place, rows: usize, system: &str) -> &mut ResultRow {
        let mut row = ResultRow::default();
        row.text("kind", kind).text("family", place.0).text("dataset", place.1);
        row.num("scale", place.2.factor).num("rows", rows as f64).text("system", system);
        self.rows.push(row);
        self.rows.last_mut().expect("just pushed")
    }

    /// Trains the one model of a dataset × scale (or of a sweep) and logs it.
    fn train(
        &mut self,
        kind: &str,
        place: Place,
        dataset: &Dataset,
        epochs: usize,
    ) -> TrainedDeepMapping {
        let trained = TrainedDeepMapping::train(dataset, epochs);
        self.log_build(kind, place, trained.train_s);
        trained
    }

    fn log_build(&mut self, kind: &str, place: Place, seconds: f64) {
        let line = format!("{kind} {} {}", place.1, place.2.factor);
        eprintln!("[paper] trained {line} in {seconds:.1} s");
        self.deepmapping_builds.push(line);
    }

    /// One dataset at one scale: one training, then each regime builds the matrix
    /// once and measures it.
    fn matrix(&mut self, config: &PaperConfig, place: Place) {
        let dataset = generate(place);
        let (rows, raw_bytes) = (dataset.num_rows(), dataset.uncompressed_bytes());
        let trained = self.train("lookup", place, &dataset, config.epochs());
        // What the build cost, as work over time: `train_s` is the whole training build
        // (schema, then training, quantization and one auxiliary table for every rung
        // of the width ladder it priced), so the rate is what a build delivers, a
        // little under what the kernels run at.  `epochs` and `stop` are the kept
        // rung's; `ladder_epochs`, the row passes and the MACs count every rung.
        let ladder = trained.ladder();
        let ladder_epochs: usize = ladder.iter().map(|rung| rung.epochs).sum();
        let row_passes = rows * ladder_epochs;
        let rung_macs: usize = ladder.iter().map(|rung| rung.epochs * rung.macs_per_key).sum();
        let train_macs = 3 * rows * rung_macs;
        let widths: Vec<String> = trained.shared_hidden().iter().map(usize::to_string).collect();
        let rung = if trained.is_closed_form() { "closed_form".to_string() } else { widths.join("-") };
        let row = self.row("train", place, rows, "DM");
        row.num("epoch_budget", config.epochs() as f64).num("epochs", trained.epochs() as f64);
        row.text("stop", trained.stop().name()).num("right_rows", trained.right_rows() as f64);
        row.text("rung", &rung).num("rungs_tried", ladder.len() as f64);
        row.num("ladder_epochs", ladder_epochs as f64).num("row_passes", row_passes as f64);
        row.num("train_s", round(trained.train_s, 3)).num("train_macs", train_macs as f64);
        row.num("train_mac_per_ns", round(train_macs as f64 / trained.train_s / 1e9, 3));
        for regime in [Regime::MEMORY, Regime::POOL] {
            let (mut systems, ds_error) = build_matrix(&dataset, regime, &trained);
            // Table I's batch sweep belongs to the memory-constrained regime.
            let batches: &[usize] = match regime.pool_share {
                Some(_) => &[1_000, 10_000, 100_000],
                None => &[100_000],
            };
            for &paper_batch in batches {
                let keys = LookupWorkload::hits_only(place.2.batch(paper_batch)).generate(&dataset);
                let batch = format!("B{}K", paper_batch / 1_000);
                for system in &mut systems {
                    let measured = measure_lookup(system, &keys);
                    let row = self.row("lookup", place, rows, &system.name);
                    row.text("regime", regime.name).text("batch", &batch);
                    size_fields(row, system, raw_bytes);
                    timing_fields(row, measured, keys.len());
                    // The third axis: what is always in memory, and what the pool
                    // holds once the timed repeats are over.
                    let (pool_bytes, pool_entries) = system.store.pool_usage();
                    row.num("resident_bytes", system.store.stats().resident_bytes as f64);
                    row.num("pool_bytes", pool_bytes as f64);
                    row.num("pool_entries", pool_entries as f64);
                }
                if let Some(error) = &ds_error {
                    let row = self.row("lookup", place, rows, "DS");
                    row.text("regime", regime.name).text("batch", &batch);
                    row.num("batch_keys", keys.len() as f64).num("raw_bytes", raw_bytes as f64);
                    row.text("failed", error);
                }
            }
            if regime == Regime::POOL && place.1 == "multi_low" {
                self.inserts(place, &dataset, &mut systems);
            }
        }
    }

    /// Figure 8 on the stores the lookups just measured: per-tuple insertion time
    /// against batch size (fresh keys per batch so inserts never collide).
    fn inserts(&mut self, place: Place, dataset: &Dataset, systems: &mut [SystemUnderTest]) {
        let width = Row::fixed_width(dataset.num_value_columns());
        let workload = ModificationWorkload::default();
        for system in systems.iter_mut().filter(|s| WRITE_SYSTEMS.contains(&s.name.as_str())) {
            let mut next_key_offset = 0u64;
            for batch in [1, 10, 100, 1_000, 10_000] {
                let mut inserts = workload.insertion_batch_empirical(dataset, batch);
                inserts.iter_mut().for_each(|row| row.key += next_key_offset);
                next_key_offset += batch as u64 + 1;
                let start = Instant::now();
                system.store.insert(&inserts).expect("insert");
                let us_per_tuple = start.elapsed().as_secs_f64() * 1e6 / batch as f64;
                let live = system.store.stats().tuple_count;
                let row = self.row("insert", place, live, &system.name);
                row.text("regime", Regime::POOL.name).num("batch_keys", batch as f64);
                row.num("us_per_tuple", round(us_per_tuple, 3));
                size_fields(row, system, live * width);
            }
        }
    }

    /// Tables III–V on one synthetic family: the write systems plus DM-Z1 (retrains at
    /// [`RETRAIN_STEP`]) after each 10 % increment of inserts or deletes; every system
    /// sees the same increments and is measured over its *current* key population.
    fn sweep(&mut self, config: &PaperConfig, kind: &str, name: &str) {
        let place = ("synthetic", name, config.scale);
        let synth = synthetic(name, config.scale);
        let dataset = synth.generate();
        let width = Row::fixed_width(dataset.num_value_columns());
        let increment = (dataset.num_rows() / 10).max(1);
        // The paper's 100–600 MB onto a 1 GB base.
        let steps = if config.quick { RETRAIN_STEP } else { 6 };
        let inserts: Vec<Vec<Row>> = (0..steps)
            .map(|step| {
                let start = dataset.max_key() + 1 + (step * increment) as u64;
                if kind == "sweep_off" {
                    synth.generate_range_off_distribution(start, increment, 7 + step as u64)
                } else {
                    synth.generate_range(start, increment)
                }
            })
            .collect();
        let deletes = ModificationWorkload::default().deletion_batch(&dataset, increment * steps);
        let deletes: Vec<&[u64]> = deletes.chunks(increment).collect();
        let mut systems = build_baselines(&dataset, Regime::POOL);
        systems.retain(|s| WRITE_SYSTEMS.contains(&s.name.as_str()));
        let trained = self.train(kind, place, &dataset, config.epochs());
        for name in ["DM-Z", "DM-Z1"] {
            let mut dm = trained.store(&dataset, Codec::Lz, Regime::POOL);
            dm.name = name.to_string();
            systems.push(dm);
        }
        for system in &mut systems {
            let mut live: Vec<u64> = dataset.keys.clone();
            for step in 0..=steps {
                if step > 0 && kind == "sweep_delete" {
                    system.store.delete(deletes[step - 1]).expect("delete");
                    let victims: HashSet<u64> = deletes[step - 1].iter().copied().collect();
                    live.retain(|key| !victims.contains(key));
                } else if step > 0 {
                    system.store.insert(&inserts[step - 1]).expect("insert");
                    live.extend(inserts[step - 1].iter().map(|row| row.key));
                }
                if step == RETRAIN_STEP && system.name == "DM-Z1" {
                    system.store.maintenance().expect("retrain");
                }
                let max_key = live.iter().copied().max().unwrap_or(0);
                let keys = LookupWorkload::hits_only(config.scale.batch(100_000))
                    .generate_from_keys(&live, max_key);
                let measured = measure_lookup(system, &keys);
                let row = self.row(kind, place, live.len(), &system.name);
                row.text("regime", Regime::POOL.name).num("step_pct", (step * 10) as f64);
                size_fields(row, system, live.len() * width);
                timing_fields(row, measured, keys.len());
            }
        }
    }

    /// Figures 9–10: every architecture the MHAS search samples (seeded, uniform), per
    /// TPC-H table and scale, under the runner's store definition — so a sample's
    /// `ratio` is that of an int8 store like the `lookup` rows' — and one `mhas_built`
    /// row for the store the winner builds at the runner's epochs, `search_ratio`
    /// beside its own `ratio`.
    fn mhas(&mut self, config: &PaperConfig) {
        let mhas = MhasConfig {
            iterations: if config.quick { 8 } else { 48 },
            model_epochs: 1,
            sample_rows: 2048,
            ..MhasConfig::default()
        };
        let scales = [config.scale, BenchScale::new(config.scale.factor * 4.0)];
        for scale in &scales[..if config.quick { 1 } else { 2 }] {
            for table in ["orders", "part", "supplier", "customer"] {
                let place = ("tpch", table, *scale);
                let dataset = generate(place);
                let rows = dataset.rows();
                let definition = store_definition(config.epochs());
                let schema = MappingSchema::infer(&rows, KEY_HEADROOM).expect("schema");
                let mut search = MhasSearch::new(&schema, mhas.clone(), 0xf19).expect("search");
                let outcome = search.run(&rows, definition.config()).expect("search run");
                for sample in &outcome.history {
                    let row = self.row("mhas", place, rows.len(), "MHAS");
                    row.num("iteration", sample.iteration as f64);
                    row.num("stage", (sample.iteration * 4 / mhas.iterations).min(3) as f64);
                    row.num("ratio", round(sample.compression_ratio, 5));
                    row.num("memorized", round(sample.memorization_rate, 5));
                    row.num("macs_per_key", sample.macs_per_key as f64);
                    row.num("parameters", sample.parameters as f64);
                }
                let started = Instant::now();
                let parameters = outcome.best_spec.parameter_count();
                let built = definition.search(SearchStrategy::Fixed(outcome.best_spec));
                let built = built.build(&rows).expect("build of the searched architecture");
                let (name, metrics) = (built.config().paper_name(), built.metrics().clone());
                let system = SystemUnderTest::new(name, Box::new(built), metrics, started);
                self.log_build("mhas_built", place, system.build_s);
                let row = self.row("mhas_built", place, rows.len(), &system.name);
                size_fields(row, &system, dataset.uncompressed_bytes());
                row.num("parameters", parameters as f64);
                row.num("search_ratio", round(outcome.best_ratio, 5));
            }
        }
    }
}

/// Raw and stored bytes, their ratio (AB = 1.0), the build time, and on DeepMapping
/// rows the Fig. 6 split of the same store.
fn size_fields(row: &mut ResultRow, system: &SystemUnderTest, raw_bytes: usize) {
    let stored = system.store.stats().disk_bytes;
    row.num("raw_bytes", raw_bytes as f64).num("stored_bytes", stored as f64);
    row.num("ratio", round(stored as f64 / raw_bytes.max(1) as f64, 5));
    row.num("build_s", round(system.build_s, 3));
    if let Some(split) = system.store.breakdown() {
        row.num("model_bytes", split.model_bytes as f64);
        row.num("aux_bytes", split.aux_table_bytes as f64);
        row.num("existence_bytes", split.existence_bytes as f64);
        row.num("corrected_bytes", split.corrected_bytes as f64);
        row.num("decode_map_bytes", split.decode_map_bytes as f64);
        row.num("memorized", round(split.memorized_fraction(), 5));
    }
}

/// keys/s and the warm median beside the first call, the disk model's time with the
/// reads behind it, Figure 7's split (the median repeat's trace, absent under
/// `DM_OBS=off`) and what was answered — or the error that stopped the lookup.
fn timing_fields(row: &mut ResultRow, measured: Result<MeasuredLookup, String>, keys: usize) {
    let m = match measured {
        Ok(m) => m,
        Err(error) => {
            row.num("batch_keys", keys as f64).text("failed", &error);
            return;
        }
    };
    row.num("batch_keys", keys as f64).num("keys_per_s", (keys as f64 / m.wall_ms * 1e3).round());
    // Times to the nanosecond: a closed-form B1K lookup takes about 2 µs, and the
    // stage spans must explain 0.8 of it (`tests.rs`), so 0.1 µs steps would decide
    // that check.
    row.num("wall_ms", round(m.wall_ms, 6)).num("samples", REPEATS as f64);
    row.num("first_ms", round(m.first_ms, 6));
    row.num("io_ms", round(m.counters.simulated_io_nanos as f64 / 1e6, 6));
    row.num("bytes_read", m.counters.bytes_read as f64);
    row.num("partition_loads", m.counters.partition_loads as f64);
    if let Some(trace) = m.trace {
        for stage in Stage::lookup() {
            row.num(&format!("ms_{}", stage.slug()), round(trace.stage(stage) as f64 / 1e6, 6));
        }
    }
    row.num("hits", m.hits as f64).num("answer_sum", m.answer_sum as f64);
}

/// A table or figure of the paper as a projection of the rows.
#[derive(Debug)]
pub struct View {
    /// The name the positional filter takes (`fig4` … `table5`).
    pub name: &'static str,
    title: &'static str,
    /// `field=value|value` terms, all of which a shown row matches.
    select: &'static str,
    /// The fields naming a printed line, the field whose values become column groups
    /// (empty: one group), and the fields printed per group.
    label: &'static str,
    by: &'static str,
    cells: &'static str,
}

type Str = &'static str;

const fn view(name: Str, title: Str, select: Str, [label, by, cells]: [Str; 3]) -> View {
    View { name, title, select, label, by, cells }
}

const TRADEOFF: [Str; 3] =
    ["scale dataset system", "", "stored_bytes ratio keys_per_s wall_ms first_ms io_ms"];
const STAGES: [Str; 3] = [
    "scale dataset system",
    "",
    "ms_existence ms_plan ms_inference ms_probe ms_merge ms_pool_wait ms_pool_load io_ms wall_ms",
];
const SWEEP: [Str; 3] = ["dataset system", "step_pct", "stored_bytes wall_ms"];

/// The twelve views, in the paper's order.
pub static VIEWS: [View; 12] = [
    view(
        "fig4",
        "TPC-H: stored bytes against lookup speed, pool = 20 % of the data (AB is ratio 1.0)",
        "kind=lookup family=tpch regime=pool batch=B100K",
        TRADEOFF,
    ),
    view(
        "fig5",
        "TPC-DS: stored bytes against lookup speed, pool = 20 % of the data (AB is ratio 1.0)",
        "kind=lookup family=tpcds regime=pool batch=B100K",
        TRADEOFF,
    ),
    view(
        "fig6",
        "DM-Z storage split and memorized share, read from fig4's rows",
        "kind=lookup family=tpch regime=pool batch=B100K system=DM-Z",
        ["scale dataset", "", "existence_bytes corrected_bytes model_bytes aux_bytes memorized"],
    ),
    view(
        "fig7",
        "TPC-H: lookup latency per stage (ms of the median repeat), modelled I/O apart",
        "kind=lookup family=tpch regime=pool batch=B100K system=AB|HB|ABC-Z|HBC-Z|DM-Z",
        STAGES,
    ),
    view(
        "fig8",
        "multi_low: insertion time per tuple (us) against insert batch size",
        "kind=insert family=synthetic dataset=multi_low",
        ["system", "batch_keys", "us_per_tuple"],
    ),
    view(
        "fig9",
        "MHAS: ratio of each sampled architecture's int8 store; iteration '-' is the winner built",
        "kind=mhas|mhas_built",
        ["scale dataset iteration", "", "ratio search_ratio memorized parameters"],
    ),
    view(
        "fig10",
        "MHAS on part: ratio against multiply-accumulates per key by search stage",
        "kind=mhas dataset=part",
        ["scale iteration", "", "stage ratio macs_per_key parameters"],
    ),
    view(
        "table1",
        "the data exceeds the pool (20 %): warm wall ms and modelled I/O ms per batch size",
        "kind=lookup dataset=lineitem|single_low|single_high|multi_low|multi_high|crop regime=pool",
        ["scale dataset system stored_bytes", "batch", "wall_ms io_ms"],
    ),
    view(
        "table2",
        "the data fits the pool: stored bytes and lookup speed, B = 100K scaled",
        "kind=lookup regime=mem \
         dataset=orders|part|customer_demographics|catalog_sales|catalog_returns",
        TRADEOFF,
    ),
    view("table3", "inserts that follow the distribution, +10 % per step", "kind=sweep_in", SWEEP),
    view("table4", "inserts that do NOT follow the distribution", "kind=sweep_off", SWEEP),
    view("table5", "deletes, -10 % per step (DM-Z1 retrains at 20 %)", "kind=sweep_delete", SWEEP),
];

impl View {
    /// Whether `row` is one of this view's.  A term on a field the row does not carry
    /// does not exclude it, so a bare `kind` / `family` / `dataset` probe asks "would
    /// rows of this kind, of this dataset, be shown?".
    pub fn shows(&self, row: &ResultRow) -> bool {
        self.select.split_whitespace().all(|term| {
            let (field, allowed) = term.split_once('=').expect("field=value|value");
            row.get(field).is_none() || allowed.split('|').any(|value| row.s(field) == value)
        })
    }

    /// Whether this view needs the system matrix of `dataset` built: it shows that
    /// dataset's lookup rows, or the insert rows measured on the same stores.
    fn wants(&self, family: &str, dataset: &str) -> bool {
        ["lookup", "insert"].iter().any(|kind| {
            let mut probe = ResultRow::default();
            self.shows(probe.text("kind", kind).text("family", family).text("dataset", dataset))
        })
    }
}

/// A number the way the tables print it: counts whole, the rest to 3–4 digits.
pub fn cell(value: &Value) -> String {
    match value {
        Value::Text(text) => text.clone(),
        Value::Num(n) if n.fract() == 0.0 => format!("{n:.0}"),
        Value::Num(n) if n.abs() >= 100.0 => format!("{n:.1}"),
        Value::Num(n) if n.abs() >= 1.0 => format!("{n:.3}"),
        Value::Num(n) => format!("{n:.4}"),
    }
}

/// Prints one view of `rows`: a line per distinct label, a column group per distinct
/// value of the pivot field.  A row that carries `failed` prints that in every cell.
pub fn print_view(view: &View, rows: &[ResultRow]) {
    let text = |row: &ResultRow, fields: &str| -> String {
        let parts = fields.split(' ').map(|field| row.get(field).map_or("-".into(), cell));
        parts.collect::<Vec<_>>().join(" / ")
    };
    let shown: Vec<(String, String, &ResultRow)> = rows
        .iter()
        .filter(|row| view.shows(row))
        .map(|row| (text(row, view.label), text(row, view.by), row))
        .collect();
    let (mut labels, mut pivots): (Vec<&String>, Vec<&String>) = (Vec::new(), Vec::new());
    for (label, pivot, _) in &shown {
        if !labels.contains(&label) {
            labels.push(label);
        }
        if !pivots.contains(&pivot) {
            pivots.push(pivot);
        }
    }
    // One column per pivot value x cell field, as wide as its name needs.
    let columns: Vec<(&String, &str, String)> = pivots
        .iter()
        .flat_map(|pivot| view.cells.split(' ').map(move |field| (*pivot, field)))
        .map(|(pivot, field)| {
            let group = if view.by.is_empty() { "" } else { pivot.as_str() };
            (pivot, field, format!("{group} {field}").trim_start().to_string())
        })
        .collect();
    let width = |name: &str| name.len().max(12) + 2;
    let rule = "=".repeat(100);
    println!("\n{rule}\n{}: {}\n{rule}", view.name, view.title);
    let mut header = format!("{:<44}", view.label.replace(' ', " / "));
    for (_, _, name) in &columns {
        header.push_str(&format!("{name:>0$}", width(name)));
    }
    println!("{header}");
    for label in labels {
        let mut line = format!("{label:<44}");
        for (pivot, field, name) in &columns {
            let row = shown.iter().find(|(l, p, _)| l == label && p == *pivot).map(|found| found.2);
            let shown_cell = match row {
                Some(row) if row.get("failed").is_some() => "failed".to_string(),
                Some(row) => row.get(field).map_or("-".into(), cell),
                None => "-".to_string(),
            };
            line.push_str(&format!("{shown_cell:>0$}", width(name)));
        }
        println!("{line}");
    }
}

/// The `paper` bench target: `[--quick] [--scale X] [view]` (and the `--bench` cargo
/// appends).  Prints the selected views and writes the rows — a full run to
/// `PAPER_RESULTS.json` at the repository root, a quick or filtered one to a
/// temporary file so a partial run never overwrites the committed artifact.
pub fn main(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut config = PaperConfig { scale: BenchScale::new(0.005), quick: false, views: &VIEWS };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => {}
            "--quick" => config.quick = true,
            "--scale" => {
                let factor = args.next().and_then(|value| value.parse().ok());
                config.scale = BenchScale::new(factor.ok_or("--scale needs a number")?);
            }
            name => {
                let names: Vec<&str> = VIEWS.iter().map(|view| view.name).collect();
                let unknown = format!("unknown argument {name}; views: {}", names.join(" "));
                let view = VIEWS.iter().find(|view| view.name == name).ok_or(unknown)?;
                config.views = std::slice::from_ref(view);
            }
        }
    }
    let started = Instant::now();
    let run = run(&config);
    for view in config.views {
        print_view(view, &run.rows);
    }
    let path = if config.quick || config.views.len() < VIEWS.len() {
        std::env::temp_dir().join(format!("paper_results_{}.json", std::process::id()))
    } else {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../PAPER_RESULTS.json"))
    };
    write_rows(&path, &run.rows).map_err(|err| format!("{}: {err}", path.display()))?;
    let (rows, trained) = (run.rows.len(), run.deepmapping_builds.len());
    let seconds = started.elapsed().as_secs_f64();
    println!("\n{rows} rows, {trained} models trained, {seconds:.0} s -> {}", path.display());
    Ok(())
}
