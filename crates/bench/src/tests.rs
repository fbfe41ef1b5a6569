use crate::paper::{cell, main, run, write_rows, PaperConfig, ResultRow, Value, VIEWS};
use crate::{BenchScale, REPEATS};
use dm_obs::Stage;
use std::collections::{BTreeMap, BTreeSet};

/// The system matrix, sorted.
const SYSTEMS: [&str; 11] =
    ["AB", "ABC-D", "ABC-G", "ABC-L", "ABC-Z", "DM-L", "DM-Z", "DS", "HB", "HBC-L", "HBC-Z"];

/// `TrainingStop::name` of every way a training ends.
const STOPS: [&str; 6] =
    ["budget", "loss_floor", "schedule", "every_row_right", "memorization_plateau", "closed_form"];

/// The reader the artifact promises: one flat object per line, numbers and
/// `[A-Za-z0-9_.-]` strings, so no escapes and no `,` or `:` inside a value.
fn parse_rows(text: &str) -> Vec<ResultRow> {
    let mut rows = Vec::new();
    for line in text.lines().filter(|line| line.starts_with('{')) {
        let body = line.trim_end_matches(',').strip_prefix('{').and_then(|l| l.strip_suffix('}'));
        let mut row = ResultRow::default();
        for field in body.expect("one object per line").split(',') {
            let (key, value) = field.split_once(':').expect("key:value");
            let key = key.trim_matches('"');
            match value.strip_prefix('"').map(|text| text.strip_suffix('"').expect("a quote")) {
                Some(text) => {
                    let plain = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
                    assert!(text.chars().all(plain), "{line}");
                    row.text(key, text)
                }
                None => row.num(key, value.parse().expect("a number")),
            };
        }
        rows.push(row);
    }
    rows
}

/// What must hold of any set of rows, a fresh quick run's or the committed file's.
/// `traced`: the rows were measured with observability on, so every lookup that
/// answered carries its stage split.
fn check_rows(rows: &[ResultRow], traced: bool) {
    for row in rows {
        assert!(row.0.iter().all(|(key, _)| row.n(key).is_none_or(f64::is_finite)), "{row:?}");
        // The Fig. 6 split is the store the ratio came from.
        if let Some(model) = row.n("model_bytes") {
            let rest = ["aux_bytes", "existence_bytes", "corrected_bytes", "decode_map_bytes"];
            let split = model + rest.iter().map(|part| row.n(part).expect(part)).sum::<f64>();
            assert_eq!(Some(split), row.n("stored_bytes"), "{row:?}");
        }
        assert!(row.n("wall_ms").is_none() || row.n("samples") >= Some(9.0), "{row:?}");
    }
    // Every lookup group holds each of the eleven systems exactly once, and the exact
    // systems answered exactly what AB did (DS is lossy, or failed outright).
    let lookups: Vec<&ResultRow> = rows.iter().filter(|row| row.s("kind") == "lookup").collect();
    for row in lookups.iter().filter(|row| traced && row.get("failed").is_none()) {
        for stage in Stage::lookup() {
            assert!(row.n(&format!("ms_{}", stage.slug())).is_some(), "{stage:?} of {row:?}");
        }
    }
    let group = |row: &ResultRow| {
        format!("{} {:?} {} {}", row.s("dataset"), row.n("scale"), row.s("regime"), row.s("batch"))
    };
    for place in lookups.iter().map(|row| group(row)).collect::<BTreeSet<_>>() {
        let members: Vec<&ResultRow> =
            lookups.iter().copied().filter(|row| group(row) == place).collect();
        let mut names: Vec<&str> = members.iter().map(|row| row.s("system")).collect();
        names.sort_unstable();
        assert_eq!(names, SYSTEMS, "{place}");
        let ab = members.iter().find(|row| row.s("system") == "AB").expect("AB");
        assert_eq!(ab.n("hits"), ab.n("batch_keys"), "{place}");
        for row in members.iter().filter(|row| row.s("system") != "DS") {
            let answered = |row: &ResultRow| (row.n("hits"), row.n("answer_sum"));
            assert_eq!(answered(row), answered(ab), "{row:?}");
        }
    }
    // The memory column means what it says: a "20 %" pool holds at most 20 % of the raw
    // data unless one partition alone is more, and under it every partitioned baseline
    // of more than one 64 KiB partition reloads on every B100K batch.
    for row in lookups.iter().filter(|row| row.s("regime") == "pool") {
        let (raw, held) = (row.n("raw_bytes").expect("raw_bytes"), row.n("pool_bytes"));
        assert!(held <= Some(0.2 * raw) || row.n("pool_entries") == Some(1.0), "{row:?}");
        let partitioned = row.s("system").starts_with(['A', 'H']);
        if partitioned && row.s("batch") == "B100K" && raw > 65_536.0 {
            assert!(row.n("partition_loads") >= Some(1.0), "{row:?}");
        }
    }
    // One model per dataset x scale: codec and budget never reach training.
    let mut models: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for row in lookups.iter().filter(|row| row.n("model_bytes").is_some()) {
        let model = ["model_bytes", "memorized", "existence_bytes"].map(|field| row.n(field));
        let place = format!("{} {:?}", row.s("dataset"), row.n("scale"));
        models.entry(place).or_default().insert(format!("{model:?}"));
    }
    assert!(models.values().all(|distinct| distinct.len() == 1), "{models:?}");
    // Each of those models has its one `train` row, and the row adds up: the rungs the
    // width ladder priced, whole epochs over every row for each, three products per
    // layer per row pass, the rate their quotient.
    let trains: Vec<&ResultRow> = rows.iter().filter(|row| row.s("kind") == "train").collect();
    let place = |row: &ResultRow| format!("{} {:?}", row.s("dataset"), row.n("scale"));
    let trained: Vec<String> = trains.iter().map(|row| place(row)).collect();
    assert_eq!(trained.iter().collect::<BTreeSet<_>>(), models.keys().collect(), "{trained:?}");
    assert_eq!(trained.len(), models.len(), "{trained:?}");
    for row in trains {
        let field = |name: &str| row.n(name).unwrap_or_else(|| panic!("{name} of {row:?}"));
        // A kept closed form is the one model that trained no epoch.
        let closed = row.s("stop") == "closed_form";
        assert_eq!(field("epochs") == 0.0, closed, "{row:?}");
        // Training ends before its budget exactly when a rule stopped it, and the last
        // epoch got at most every row right.
        let early = field("epochs") < field("epoch_budget");
        assert!(field("epochs") <= field("epoch_budget"), "{row:?}");
        assert!(STOPS.contains(&row.s("stop")), "{row:?}");
        assert_eq!(early, row.s("stop") != "budget", "{row:?}");
        assert!(field("right_rows") <= field("rows"), "{row:?}");
        // The kept rung's shared widths (`closed_form` for the closed form), one of
        // the rungs tried, whose epochs the ladder's include — all of them when it
        // was the only one.
        let rung = row.s("rung");
        let widths = !rung.is_empty() && rung.split('-').all(|w| w.parse::<usize>().is_ok());
        assert!(if closed { rung == "closed_form" } else { widths }, "{row:?}");
        assert!(field("rungs_tried") >= 1.0, "{row:?}");
        assert!(field("ladder_epochs") >= field("epochs"), "{row:?}");
        assert!(field("rungs_tried") > 1.0 || field("ladder_epochs") == field("epochs"), "{row:?}");
        assert_eq!(field("row_passes"), field("rows") * field("ladder_epochs"), "{row:?}");
        let (macs, passes) = (field("train_macs"), field("row_passes"));
        assert!(macs >= 3.0 * passes && macs % (3.0 * field("rows")) == 0.0, "{row:?}");
        // `train_s` is printed to the millisecond, the rate is of the unrounded time.
        let rate = |seconds: f64| field("train_macs") / seconds / 1e9;
        let slowest = rate(field("train_s") + 0.0005);
        let fastest = rate((field("train_s") - 0.0005).max(1e-9));
        let printed = field("train_mac_per_ns");
        assert!(slowest - 0.001 <= printed && printed <= fastest + 0.001, "{row:?}");
    }
    // Every search has the one store its winner built, scored by the search beside it.
    let of_kind = |kind: &'static str| rows.iter().filter(move |row| row.s("kind") == kind);
    let searches: BTreeSet<String> = of_kind("mhas").map(place).collect();
    let built: Vec<&ResultRow> = of_kind("mhas_built").collect();
    assert_eq!(built.iter().map(|row| place(row)).collect::<BTreeSet<_>>(), searches);
    assert_eq!(built.len(), searches.len());
    for row in built {
        assert!(row.n("model_bytes").is_some() && row.n("parameters") >= Some(1.0), "{row:?}");
        assert!(row.n("search_ratio") > Some(0.0) && row.n("ratio") > Some(0.0), "{row:?}");
    }
    assert!(of_kind("mhas").all(|row| row.n("macs_per_key") >= Some(1.0)));
    // fig6 reads the very rows fig4 does.
    let view = |name: &str| VIEWS.iter().find(|view| view.name == name).expect("a view");
    assert!(rows.iter().any(|row| view("fig6").shows(row)));
    assert!(rows.iter().all(|row| !view("fig6").shows(row) || view("fig4").shows(row)));
}

#[test]
fn scale_parses_and_clamps() {
    let scale = BenchScale::new(0.002);
    assert_eq!(scale.rows(1_500_000), 3_000);
    assert!(scale.rows(10) >= 1024);
    assert!((100..=100_000).contains(&scale.batch(100_000)));
    assert_eq!((BenchScale::new(1e9).factor, BenchScale::new(0.0).factor), (10.0, 1e-5));
    let args = |list: &[&str]| list.iter().map(|arg| arg.to_string()).collect::<Vec<_>>();
    assert!(main(args(&["--bench", "--scale"]).into_iter()).unwrap_err().contains("--scale"));
    assert!(main(args(&["fig11"]).into_iter()).unwrap_err().contains("fig4 fig5"));
}

#[test]
fn report_cells_format_reasonably() {
    let cells = [25_000.0, 1234.56, 5.0625, 0.25].map(|n| cell(&Value::Num(n)));
    assert_eq!(cells, ["25000", "1234.6", "5.062", "0.2500"]);
    let mut row = ResultRow::default();
    row.text("system", "ABC-Z").text("failed", "out of memory: need 9, have 4").num("ratio", 0.5);
    assert_eq!(row.s("failed"), "out_of_memory__need_9__have_4");
    assert_eq!((row.s("system"), row.n("ratio"), row.n("system")), ("ABC-Z", Some(0.5), None));
}

#[test]
fn system_matrix_builds_and_answers_queries() {
    let outcome = run(&PaperConfig { scale: BenchScale::new(0.001), quick: true, views: &VIEWS });
    check_rows(&outcome.rows, dm_obs::enabled());
    // One model per dataset x scale: `orders` is trained once, not four times; each of
    // the three sweeps trains once per synthetic family and derives DM-Z and DM-Z1.
    let builds = &outcome.deepmapping_builds;
    let trained = |prefix: &str| builds.iter().filter(|line| line.starts_with(prefix)).count();
    // And each of the four searches builds its winner once.
    assert_eq!((trained("lookup orders "), trained("lookup "), builds.len()), (1, 3, 13));
    assert_eq!(trained("mhas_built "), 4);
    // Three datasets x 11 systems x (B100K in memory + three batch sizes under the pool).
    let lookups = outcome.rows.iter().filter(|row| row.s("kind") == "lookup");
    assert_eq!(lookups.count(), 3 * SYSTEMS.len() * 4);
    let samples = outcome.rows.iter().filter_map(|row| row.n("samples"));
    assert!(samples.min_by(f64::total_cmp) == Some(REPEATS as f64));

    let path = std::env::temp_dir().join(format!("dm_bench_rows_{}.json", std::process::id()));
    write_rows(&path, &outcome.rows).expect("write");
    let text = std::fs::read_to_string(&path).expect("read back");
    std::fs::remove_file(&path).expect("clean up");
    assert_eq!(parse_rows(&text), outcome.rows);
}

/// The ratchet over the committed artifact: `(scale, dataset)` of every table on which
/// DM-Z stores more than the raw data.  A change that fixes one shrinks this list; none
/// may grow it.
const DM_Z_ABOVE_RAW: [(f64, &str); 1] = [(0.005, "supplier")];

/// The ratchet beside it: `(scale, dataset)` of every table on which DM-Z stores more
/// than the smallest system that is not DeepMapping (DS included).  It may shrink and
/// must never grow.
const DM_Z_ABOVE_SMALLEST_BASELINE: [(f64, &str); 4] =
    [(0.005, "part"), (0.005, "supplier"), (0.005, "catalog_returns"), (0.02, "supplier")];

#[test]
fn committed_results_cover_the_evaluation_and_pin_where_dm_z_exceeds_the_raw_data() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../PAPER_RESULTS.json");
    let rows = parse_rows(&std::fs::read_to_string(path).expect("PAPER_RESULTS.json is committed"));
    check_rows(&rows, true);
    for view in &VIEWS {
        assert!(rows.iter().any(|row| view.shows(row)), "{} shows nothing", view.name);
    }
    let of = |scale: f64, kind: &'static str| {
        rows.iter().filter(move |row| row.n("scale") == Some(scale) && row.s("kind") == kind)
    };
    // 13 datasets at the first scale and the 8 TPC tables at the second, each
    // x 11 systems x (B100K in memory + three batch sizes under the pool).
    assert_eq!(of(0.005, "lookup").count(), 13 * SYSTEMS.len() * 4);
    assert_eq!(of(0.02, "lookup").count(), 8 * SYSTEMS.len() * 4);
    assert_eq!((of(0.005, "train").count(), of(0.02, "train").count()), (13, 8));
    assert_eq!(of(0.005, "insert").count(), 5 * 5);
    for sweep in ["sweep_in", "sweep_off", "sweep_delete"] {
        assert_eq!(of(0.005, sweep).count(), 2 * 6 * 7, "{sweep}");
    }
    // Four searches at either scale: 48 samples each, and the winner's store within a
    // tenth of what the search scored it at (1.13–3.4 × before the search priced a
    // candidate by building it).
    for scale in [0.005, 0.02] {
        assert_eq!(of(scale, "mhas").count(), 4 * 48);
        assert_eq!(of(scale, "mhas_built").count(), 4);
        for row in of(scale, "mhas_built") {
            let field = |name: &str| row.n(name).expect(name);
            assert!((field("search_ratio") / field("ratio") - 1.0).abs() <= 0.10, "{row:?}");
        }
    }

    // A DM lookup runs on the thread that asks for it, so its stage spans explain
    // its wall time: the `ms_*` split sums to at least 0.9 x `wall_ms` at B10K and
    // B100K, and 0.8 x at B1K, where the clock reads around the spans weigh more.
    // (Checked on this file only: a debug-mode quick run is too noisy for it.)
    let answered = |row: &&ResultRow| row.s("kind") == "lookup" && row.get("failed").is_none();
    for row in rows.iter().filter(answered).filter(|row| row.s("system").starts_with("DM-")) {
        let stage_ms = |stage: Stage| row.n(&format!("ms_{}", stage.slug())).expect("a stage");
        let stages: f64 = Stage::lookup().map(stage_ms).sum();
        let floor = if row.s("batch") == "B1K" { 0.8 } else { 0.9 };
        assert!(stages >= floor * row.n("wall_ms").expect("wall_ms"), "{stages} ms, {row:?}");
    }

    let above: Vec<(f64, &str)> = rows
        .iter()
        .filter(|row| row.s("kind") == "lookup" && row.s("regime") == "mem")
        .filter(|row| row.s("system") == "DM-Z" && row.n("ratio") > Some(1.0))
        .map(|row| (row.n("scale").expect("scale"), row.s("dataset")))
        .collect();
    assert_eq!(above, DM_Z_ABOVE_RAW);

    let in_memory = |row: &&ResultRow| row.s("kind") == "lookup" && row.s("regime") == "mem";
    let above_smallest: Vec<(f64, &str)> = rows
        .iter()
        .filter(in_memory)
        .filter(|row| row.s("system") == "DM-Z")
        .filter(|dm| {
            let baselines = rows.iter().filter(in_memory).filter(|row| {
                (row.n("scale"), row.s("dataset")) == (dm.n("scale"), dm.s("dataset"))
                    && !row.s("system").starts_with("DM")
            });
            let smallest = baselines.filter_map(|row| row.n("stored_bytes")).min_by(f64::total_cmp);
            dm.n("stored_bytes") > smallest
        })
        .map(|row| (row.n("scale").expect("scale"), row.s("dataset")))
        .collect();
    assert_eq!(above_smallest, DM_Z_ABOVE_SMALLEST_BASELINE);
}
