//! End-to-end benchmark of DeepEye's shipping pipeline.
//!
//! A request is what a library user runs: CSV text →
//! [`table_from_csv_str`] → [`DeepEye::recommend`] (or
//! [`DeepEye::recommend_progressive`]) with `k = 10`. The pipeline uses the
//! shipping configuration: rule-based enumeration, a DecisionTree
//! [`Recognizer`] and a LambdaMART [`LtrRanker`] trained at set-up from
//! `training_tables(0.03)`, `RankingMethod::Hybrid`, `parallel: true`, and
//! observer, provenance and cost profiling disabled. One client thread
//! sends requests back to back (a closed loop), cycling a pool of tables
//! generated from the workload seed; the program sees only CSV text.
//!
//! The end-to-end times are scaled to the host's nominal speed by a fixed
//! calibration workload timed around each request and set-up (see
//! [`calibration_ms`]); the stderr account gives them as measured too.
//!
//! The traced run is a separate invocation. It calls the public functions
//! `table_from_csv_str` and `recommend` compose, in the same order, and
//! times each call from here; the program itself runs without spans.
//! Layers that are not on a workload's path are timed after the request
//! on the same table (off-path probes), so every per-layer metric is
//! measured on every workload while only on-path layers make up the
//! request.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye_core::rules::rule_based_queries;
use deepeye_core::{
    build_nodes_parallel, build_nodes_serial_observed, exhaustive_top_k, rank_by_partial_order,
    ClassifierKind, DeepEye, DeepEyeConfig, EnumerationMode, Factors, HybridRanker, LtrRanker,
    ProgressiveSelector, RankingMethod, Recognizer, Recommendation, SelectionStats, VisNode,
    STREAMING_THRESHOLD,
};
use deepeye_data::csv::parse_records;
use deepeye_data::{detect_and_parse, table_from_csv_str, Column, Table};
use deepeye_datagen::{
    flight_table, ranking_examples, recognition_examples, training_tables, year_start,
    PerceptionOracle, Synth,
};
use deepeye_obs::{Observer, Stopwatch};
use deepeye_query::{execute_with, UdfRegistry};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::hint::black_box;

/// Charts per request.
pub const TOP_K: usize = 10;

/// Set-ups per run; `setup_s` is their median. Training dominates a
/// set-up (about 5 s on a 2-core x86-64 VM), so two keep a run within the
/// benchmark's time budget.
pub const SETUP_REPEATS: usize = 2;

/// Passes over the pool in an end-to-end run, at least. A table's latency
/// is the median of its passes, so a burst of contention from other
/// tenants of a shared host, which slows everything by up to 1.6× for 5
/// to 20 seconds, moves it only when it covers most of that table's
/// passes.
pub const MIN_PASSES: usize = 3;

/// Row scale of the training corpus, as the `harness` binary trains.
const TRAINING_SCALE: f64 = 0.03;

/// Progressive scores must match the exhaustive top-k this closely.
const SCORE_TOLERANCE: f64 = 1e-12;

/// A benchmark workload: a pool of table shapes and the entry point it
/// drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8 tables, 1,000–2,000 rows × 12–20 columns, through `recommend`.
    RecommendWide,
    /// 4 tables, 20,000–50,000 rows × 5–7 columns, through `recommend`.
    RecommendTall,
    /// The `RecommendTall` CSV bytes, through `recommend_progressive`.
    ProgressiveTall,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RecommendWide,
        Workload::RecommendTall,
        Workload::ProgressiveTall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RecommendWide => "recommend-wide",
            Workload::RecommendTall => "recommend-tall",
            Workload::ProgressiveTall => "progressive-tall",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn progressive(self) -> bool {
        self == Workload::ProgressiveTall
    }

    fn shapes(self) -> &'static [Shape] {
        match self {
            Workload::RecommendWide => &WIDE,
            Workload::RecommendTall | Workload::ProgressiveTall => &TALL,
        }
    }
}

/// A pool table's shape. The seed draws every cell; the shape and the
/// generator parameters are fixed per pool slot, so that runs with
/// different seeds do comparable work.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `cat` categorical, `tem` temporal and `num` numeric columns.
    Mixed {
        rows: usize,
        cat: usize,
        tem: usize,
        num: usize,
    },
    /// `deepeye_datagen::flight_table`, the paper's FlyDelay example.
    Flight { rows: usize },
}

/// Many small group-bys per request. The widths put the ranked node count
/// on both sides of `STREAMING_THRESHOLD`, so both the dominance-graph and
/// the streaming partial-order paths are timed. Wider tables get fewer
/// rows, which narrows the cost gap between tables (about 3× from the
/// first to the last) so that the latency quantiles fall less often into
/// gaps between tables.
#[rustfmt::skip]
const WIDE: [Shape; 8] = [
    Shape::Mixed { rows: 2_000, cat: 3, tem: 1, num: 8 },
    Shape::Mixed { rows: 1_857, cat: 3, tem: 1, num: 10 },
    Shape::Mixed { rows: 1_714, cat: 3, tem: 1, num: 11 },
    Shape::Mixed { rows: 1_571, cat: 3, tem: 1, num: 12 },
    Shape::Mixed { rows: 1_429, cat: 4, tem: 1, num: 12 },
    Shape::Mixed { rows: 1_286, cat: 4, tem: 1, num: 13 },
    Shape::Mixed { rows: 1_143, cat: 4, tem: 1, num: 14 },
    Shape::Mixed { rows: 1_000, cat: 4, tem: 1, num: 15 },
];

/// A few hundred candidates per request, each scanning tens of thousands
/// of rows; again the wider tables are the shorter ones.
#[rustfmt::skip]
const TALL: [Shape; 4] = [
    Shape::Mixed { rows: 20_000, cat: 2, tem: 1, num: 4 },
    Shape::Flight { rows: 30_000 },
    Shape::Mixed { rows: 40_000, cat: 2, tem: 1, num: 2 },
    Shape::Mixed { rows: 50_000, cat: 1, tem: 1, num: 3 },
];

/// SplitMix64: per-table seeds and generator parameters from one seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Generate the table of pool slot `slot`: its cells from `seed`, its
/// generator parameters from the slot.
fn synth_table(
    name: &str,
    shape: Shape,
    slot: usize,
    seed: u64,
    scale: f64,
) -> Result<Table, String> {
    let scaled = |rows: usize| ((rows as f64 * scale) as usize).max(20);
    let (rows, cat, tem, num) = match shape {
        Shape::Flight { rows } => return Ok(flight_table(seed, scaled(rows))),
        Shape::Mixed {
            rows,
            cat,
            tem,
            num,
        } => (scaled(rows), cat, tem, num),
    };
    let mut params = SplitMix(slot as u64);
    let mut synth = Synth::new(seed);
    let mut columns = Vec::with_capacity(cat + tem + num);
    for i in 0..cat {
        // Cardinality is part of the shape: it sets group counts and which
        // charts the rules admit. The slot picks the skew.
        let k = [4, 12, 7, 18, 3][i % 5];
        let skew = params.range(0.5, 1.6);
        columns.push(synth.categorical_generic(&format!("category_{i}"), rows, k, skew));
    }
    for i in 0..tem {
        let step = [3_600, 86_400, 7 * 86_400][i % 3];
        let year = 2000 + (params.next() % 16) as i32;
        let name = format!("recorded_{i}");
        columns.push(synth.temporal(&name, rows, year_start(year), step, step / 4));
    }
    let mut previous: Option<Vec<f64>> = None;
    for i in 0..num {
        let name = format!("metric_{i}");
        let column = match (i % 5, &previous) {
            (4, Some(base)) => {
                // Correlated with the previous column: scatter stories.
                let slope = params.range(0.5, 3.0);
                let noise = params.range(0.05, 0.8) * deepeye_data::stats::stddev(base).max(1.0);
                synth.correlated(&name, base, slope, 10.0, noise)
            }
            (0, _) => {
                let (start, per_row) = (params.range(0.0, 50.0), params.range(0.01, 0.5));
                synth.trending(&name, rows, start, per_row, params.range(0.5, 5.0))
            }
            (1, _) => {
                let (level, amp) = (params.range(20.0, 100.0), params.range(5.0, 30.0));
                let period = params.range(10.0, 80.0);
                synth.seasonal(&name, rows, level, amp, period, params.range(0.5, 4.0))
            }
            (2, _) => {
                let mu = params.range(30.0, 120.0);
                synth.gaussian(&name, rows, mu, params.range(1.0, 15.0))
            }
            _ => synth.lognormal(&name, rows, params.range(1.0, 4.0), 0.6),
        };
        previous = Some(column.numbers());
        columns.push(column);
    }
    Table::new(name, columns).map_err(|e| format!("{name}: {e}"))
}

/// Serialize a table as CSV text with a header row, quoting fields that
/// need it.
fn csv_text(table: &Table) -> String {
    fn push_field(out: &mut String, field: &str) {
        if field.contains([',', '"', '\n', '\r']) {
            out.push('"');
            out.push_str(&field.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(field);
        }
    }
    let mut out = String::new();
    for (i, column) in table.columns().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_field(&mut out, column.name());
    }
    out.push('\n');
    for row in 0..table.row_count() {
        for col in 0..table.column_count() {
            if col > 0 {
                out.push(',');
            }
            push_field(&mut out, &table.value(row, col).to_string());
        }
        out.push('\n');
    }
    out
}

/// One pool entry: a table name and the CSV text a request sends.
pub struct PoolTable {
    pub name: String,
    pub csv: String,
}

/// The workload's pool, generated from `seed`. Both tall workloads get the
/// same bytes for the same seed.
fn make_pool(workload: Workload, seed: u64, scale: f64) -> Result<Vec<PoolTable>, String> {
    let mut seeds = SplitMix(seed);
    workload
        .shapes()
        .iter()
        .enumerate()
        .map(|(slot, &shape)| {
            let name = format!("pool_{slot}");
            let table = synth_table(&name, shape, slot, seeds.next(), scale)?;
            Ok(PoolTable {
                csv: csv_text(&table),
                name,
            })
        })
        .collect()
}

/// The shipping pipeline around the trained models.
fn pipeline(recognizer: &Recognizer, ltr: &LtrRanker, parallel: bool) -> DeepEye {
    DeepEye::new(DeepEyeConfig {
        enumeration: EnumerationMode::RuleBased,
        recognizer: Some(recognizer.clone()),
        ranking: RankingMethod::Hybrid(ltr.clone(), HybridRanker::default()),
        parallel,
        ..DeepEyeConfig::default()
    })
}

/// A set-up benchmark: the pool plus the trained pipeline.
struct Bench {
    workload: Workload,
    pool: Vec<PoolTable>,
    recognizer: Recognizer,
    ltr: LtrRanker,
    eye: DeepEye,
    udfs: UdfRegistry,
}

/// The correctness reference for one pool table, computed at set-up with
/// `parallel: false`.
struct Expected {
    /// The ingested table, for direct execution of returned queries.
    table: Table,
    /// Query text and a hash of the Vega-Lite spec of each chart, in rank
    /// order.
    charts: Vec<(String, u64)>,
    /// `exhaustive_top_k` scores; progressive workload only.
    scores: Vec<f64>,
}

fn spec_hash(rec: &Recommendation) -> u64 {
    let mut hasher = DefaultHasher::new();
    rec.spec().hash(&mut hasher);
    hasher.finish()
}

impl Expected {
    /// A response must repeat the reference top-k exactly (query texts and
    /// specs, in order), each chart's series must equal direct execution
    /// of its query, and progressive scores must match the exhaustive
    /// top-k.
    fn check(&self, recs: &[Recommendation], name: &str, udfs: &UdfRegistry) -> Result<(), String> {
        if recs.is_empty() {
            return Err("empty result".to_owned());
        }
        if recs.len() != self.charts.len() {
            return Err(format!(
                "{} charts, the reference has {}",
                recs.len(),
                self.charts.len()
            ));
        }
        if !self.scores.is_empty() && self.scores.len() != recs.len() {
            return Err(format!(
                "{} charts, the exhaustive top-k has {}",
                recs.len(),
                self.scores.len()
            ));
        }
        for (i, (rec, (text, spec))) in recs.iter().zip(&self.charts).enumerate() {
            let rank = i + 1;
            if rec.query_text(name) != *text {
                return Err(format!("rank {rank}: query differs from the reference"));
            }
            if spec_hash(rec) != *spec {
                return Err(format!(
                    "rank {rank}: chart spec differs from the reference"
                ));
            }
            let direct = execute_with(&self.table, &rec.node.query, udfs)
                .map_err(|e| format!("rank {rank}: direct execution failed: {e}"))?;
            if direct.series != rec.node.data.series {
                return Err(format!("rank {rank}: series differs from direct execution"));
            }
            if let Some(score) = self.scores.get(i) {
                if (rec.factors.m - score).abs() > SCORE_TOLERANCE {
                    return Err(format!(
                        "rank {rank}: score {} differs from the exhaustive top-k's {score}",
                        rec.factors.m
                    ));
                }
            }
        }
        Ok(())
    }
}

/// One traced request's layer times (ms) and counts. Off-path probes fill
/// the fields of layers the workload does not run.
#[derive(Debug, Clone, Default)]
struct LayerSample {
    /// The traced request: ingest through top-k.
    request_ms: f64,
    csv_bytes: usize,
    parse_ms: f64,
    infer_ms: f64,
    table_ms: f64,
    enumerate_ms: f64,
    candidates: usize,
    execute_ms: f64,
    nodes: usize,
    serial_execute_ms: f64,
    filter_ms: f64,
    kept: usize,
    rank_ms: f64,
    ranked: usize,
    partial_order_ms: f64,
    ltr_ms: f64,
    topk_ms: f64,
    selection: SelectionStats,
}

impl LayerSample {
    fn ingest_ms(&self) -> f64 {
        self.parse_ms + self.infer_ms + self.table_ms
    }

    /// The layers a request of this workload runs, with their times.
    fn on_path(&self, progressive: bool) -> Vec<(&'static str, f64)> {
        let ingest = ("data.ingest_ms", self.ingest_ms());
        if progressive {
            vec![ingest, ("progressive.topk_ms", self.topk_ms)]
        } else {
            vec![
                ingest,
                ("rules.enumerate_ms", self.enumerate_ms),
                ("parallel.execute_ms", self.execute_ms),
                ("recognition.filter_ms", self.filter_ms),
                ("ranking.rank_ms", self.rank_ms),
            ]
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nominal time of [`calibration_ms`], in ms: about what it takes on an
/// uncontended core of a 2-vCPU x86-64 VM.
const CALIBRATION_REF_MS: f64 = 15.0;

/// Time a fixed piece of work that uses no DeepEye code: render 50,000
/// floats as CSV text, split it into 50,000 field strings, parse and sort
/// them. Its 4 MB of short strings and floats is the allocation- and
/// memory-bound mix of a request. The end-to-end times are scaled by
/// [`CALIBRATION_REF_MS`] over this work, timed next to them, because the
/// shared host this benchmark was tuned on slows memory-bound work by up
/// to 1.7× for minutes at a time; a change to the program does not change
/// this work.
fn calibration_ms() -> f64 {
    let clock = Stopwatch::start();
    let mut rng = SplitMix(0xCA1B);
    let mut text = String::new();
    for _ in 0..10_000 {
        let row: Vec<String> = (0..5)
            .map(|_| format!("{:.6}", rng.range(0.0, 1000.0)))
            .collect();
        text.push_str(&row.join(","));
        text.push('\n');
    }
    let records: Vec<Vec<String>> = text
        .lines()
        .map(|line| line.split(',').map(str::to_owned).collect())
        .collect();
    let mut xs: Vec<f64> = records
        .iter()
        .flatten()
        .filter_map(|field| field.parse().ok())
        .collect();
    xs.sort_by(f64::total_cmp);
    black_box((records, xs));
    ms(clock.elapsed_ns())
}

/// A time as measured, with the calibration time around it.
#[derive(Debug, Clone, Copy)]
struct Timing {
    raw_ms: f64,
    calibration_ms: f64,
}

impl Timing {
    /// The time scaled to the host's nominal speed.
    fn scaled_ms(&self) -> f64 {
        self.raw_ms * CALIBRATION_REF_MS / self.calibration_ms
    }
}

/// `work` and its [`Timing`], with a calibration run on each side of it.
fn calibrated<T>(work: impl FnOnce() -> T) -> (T, Timing) {
    let before = calibration_ms();
    let clock = Stopwatch::start();
    let out = work();
    let raw_ms = ms(clock.elapsed_ns());
    let calibration_ms = (before + calibration_ms()) / 2.0;
    (
        out,
        Timing {
            raw_ms,
            calibration_ms,
        },
    )
}

fn ratio(part: usize, whole: usize) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// `table_from_csv_str`, split at its calls: `parse_records` (with the
/// field-count check), `detect_and_parse` per column, `Table::new`.
fn traced_ingest(entry: &PoolTable, s: &mut LayerSample) -> Result<Table, String> {
    s.csv_bytes = entry.csv.len();
    let lap = Stopwatch::start();
    let records = parse_records(&entry.csv, ',').map_err(|e| format!("ingest: {e}"))?;
    let (header, body) = records.split_first().ok_or("ingest: no header row")?;
    if let Some(line) = body.iter().position(|r| r.len() != header.len()) {
        return Err(format!(
            "ingest: record {} has the wrong field count",
            line + 2
        ));
    }
    s.parse_ms = ms(lap.elapsed_ns());

    let lap = Stopwatch::start();
    let columns: Vec<Column> = header
        .iter()
        .enumerate()
        .map(|(ci, name)| {
            let raw: Vec<String> = body.iter().map(|rec| rec[ci].clone()).collect();
            let (_, data) = detect_and_parse(&raw);
            let name = name.trim();
            let name = if name.is_empty() {
                format!("column_{ci}")
            } else {
                name.to_owned()
            };
            Column::new(name, data)
        })
        .collect();
    s.infer_ms = ms(lap.elapsed_ns());

    let lap = Stopwatch::start();
    let table = Table::new(entry.name.as_str(), columns).map_err(|e| format!("ingest: {e}"))?;
    // `table_from_csv_str` frees the parsed records as it returns.
    drop(records);
    s.table_ms = ms(lap.elapsed_ns());
    Ok(table)
}

impl Bench {
    fn set_up(workload: Workload, seed: u64, scale: f64) -> Result<Bench, String> {
        let pool = make_pool(workload, seed, scale)?;
        let oracle = PerceptionOracle::default();
        let train = training_tables(TRAINING_SCALE);
        // The two models are independent, so they train on two threads.
        let (recognizer, ltr) = std::thread::scope(|scope| {
            let recognizer = scope.spawn(|| {
                Recognizer::train(
                    ClassifierKind::DecisionTree,
                    &recognition_examples(&train, &oracle),
                )
            });
            let ltr = LtrRanker::fit(&ranking_examples(&train, &oracle));
            recognizer.join().map(|recognizer| (recognizer, ltr))
        })
        .map_err(|_| "recognizer training panicked")?;
        let eye = pipeline(&recognizer, &ltr, true);
        Ok(Bench {
            workload,
            pool,
            recognizer,
            ltr,
            eye,
            udfs: UdfRegistry::default(),
        })
    }

    fn reference(&self, serial: &DeepEye, entry: &PoolTable) -> Result<Expected, String> {
        let table = table_from_csv_str(&entry.name, &entry.csv)
            .map_err(|e| format!("{}: ingest: {e}", entry.name))?;
        let (recs, scores) = if self.workload.progressive() {
            let (top, _) = exhaustive_top_k(&table, &self.udfs, TOP_K);
            let scores = top.iter().map(|s| s.score).collect();
            (serial.recommend_progressive(&table, TOP_K), scores)
        } else {
            (serial.recommend(&table, TOP_K), Vec::new())
        };
        if recs.is_empty() {
            return Err(format!("{}: the reference top-k is empty", entry.name));
        }
        let charts = recs
            .iter()
            .map(|r| (r.query_text(&entry.name), spec_hash(r)))
            .collect();
        Ok(Expected {
            table,
            charts,
            scores,
        })
    }

    /// The references of the whole pool. Each runs the pipeline with
    /// `parallel: false`; the two halves of the pool run on two threads
    /// only to shorten the run.
    fn references(&self) -> Result<Vec<Expected>, String> {
        let serial = pipeline(&self.recognizer, &self.ltr, false);
        let (first, second) = self.pool.split_at(self.pool.len() / 2);
        let half = |entries: &[PoolTable]| -> Result<Vec<Expected>, String> {
            entries.iter().map(|e| self.reference(&serial, e)).collect()
        };
        std::thread::scope(|scope| {
            let other = scope.spawn(|| half(second));
            let mut all = half(first)?;
            all.extend(other.join().map_err(|_| "a reference thread panicked")??);
            Ok(all)
        })
    }

    /// One request as a user runs it. The ingested table comes back with
    /// the charts so that freeing it falls outside the timed interval, as
    /// in the traced run.
    fn request(&self, entry: &PoolTable) -> Result<(Table, Vec<Recommendation>), String> {
        let table =
            table_from_csv_str(&entry.name, &entry.csv).map_err(|e| format!("ingest: {e}"))?;
        let recs = if self.workload.progressive() {
            self.eye.recommend_progressive(&table, TOP_K)
        } else {
            self.eye.recommend(&table, TOP_K)
        };
        Ok((table, recs))
    }

    /// [`Bench::request`], timed and checked; returns its latency when it
    /// succeeded.
    fn timed_request(&self, i: usize, expected: &Expected, tally: &mut Tally) -> Option<Timing> {
        let entry = &self.pool[i];
        let (result, latency) = calibrated(|| self.request(entry));
        let outcome = result.and_then(|(_, recs)| expected.check(&recs, &entry.name, &self.udfs));
        tally.record(&entry.name, outcome).then_some(latency)
    }

    /// One traced request: the calls `table_from_csv_str` and `recommend`
    /// (or `recommend_progressive`) make, in their order, each timed from
    /// here. The probes run after the request, on the same table.
    fn traced_request(
        &self,
        entry: &PoolTable,
        s: &mut LayerSample,
    ) -> Result<Vec<Recommendation>, String> {
        let request = Stopwatch::start();
        let table = traced_ingest(entry, s)?;
        let recs = if self.workload.progressive() {
            self.traced_progressive(&table, s)
        } else {
            self.traced_recommend(&table, s)
        };
        s.request_ms = ms(request.elapsed_ns());
        if self.workload.progressive() {
            self.traced_recommend(&table, s);
        } else {
            self.traced_progressive(&table, s);
        }
        self.component_probes(&table, s);
        Ok(recs)
    }

    /// `DeepEye::recommend` after ingest, split at its calls: enumerate,
    /// execute, recognize, the single-mark filter (unattributed), rank.
    fn traced_recommend(&self, table: &Table, s: &mut LayerSample) -> Vec<Recommendation> {
        let lap = Stopwatch::start();
        let queries = rule_based_queries(table);
        s.enumerate_ms = ms(lap.elapsed_ns());
        s.candidates = queries.len();

        let lap = Stopwatch::start();
        let nodes = build_nodes_parallel(table, queries, &self.udfs, false);
        s.execute_ms = ms(lap.elapsed_ns());
        s.nodes = nodes.len();

        let lap = Stopwatch::start();
        let kept = self.recognizer.filter_good(nodes);
        s.filter_ms = ms(lap.elapsed_ns());
        s.kept = kept.len();

        let nodes: Vec<VisNode> = kept
            .into_iter()
            .filter(|n| n.data.series.len() >= 2)
            .collect();
        s.ranked = nodes.len();

        let lap = Stopwatch::start();
        let recs = self.eye.rank_nodes(nodes, TOP_K);
        s.rank_ms = ms(lap.elapsed_ns());
        recs
    }

    /// Components of `recommend`'s layers, timed outside the request: the
    /// serial executor on the same candidates (for `parallel.speedup`),
    /// then the two rankings `Hybrid` combines, on the nodes it ranks.
    fn component_probes(&self, table: &Table, s: &mut LayerSample) {
        let queries = rule_based_queries(table);
        let lap = Stopwatch::start();
        let built = build_nodes_serial_observed(
            table,
            queries,
            &self.udfs,
            false,
            &Observer::disabled(),
            None,
        );
        s.serial_execute_ms = ms(lap.elapsed_ns());
        let nodes: Vec<VisNode> = self
            .recognizer
            .filter_good(built)
            .into_iter()
            .filter(|n| n.data.series.len() >= 2)
            .collect();

        let lap = Stopwatch::start();
        black_box(rank_by_partial_order(&nodes));
        s.partial_order_ms = ms(lap.elapsed_ns());

        let lap = Stopwatch::start();
        black_box(self.ltr.rank(&nodes));
        s.ltr_ms = ms(lap.elapsed_ns());
    }

    /// `DeepEye::recommend_progressive` after ingest: the tournament, then
    /// the mapping to recommendations (unattributed).
    fn traced_progressive(&self, table: &Table, s: &mut LayerSample) -> Vec<Recommendation> {
        let lap = Stopwatch::start();
        let (scored, stats) = ProgressiveSelector::new(table, &self.udfs).top_k(TOP_K);
        s.topk_ms = ms(lap.elapsed_ns());
        s.selection = stats;
        scored
            .into_iter()
            .enumerate()
            .map(|(i, scored)| Recommendation {
                rank: i + 1,
                factors: Factors {
                    m: scored.score,
                    q: scored.score,
                    w: scored.score,
                },
                node: scored.node,
            })
            .collect()
    }
}

/// Requests attempted and failed. A failure is an ingest error, an empty
/// result, or a mismatch with the reference.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Count one request; true when it succeeded.
    fn record(&mut self, table: &str, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {table}: {e}");
                false
            }
        }
    }
}

/// Call `step(i)` for every pool index, pass after pass, until at least
/// `min_passes` passes have run and a pass ends at or after `seconds`.
/// Whole passes only, so every table weighs the same in the samples.
/// Returns the pass count.
fn for_passes(pool: usize, seconds: f64, min_passes: usize, mut step: impl FnMut(usize)) -> usize {
    let clock = Stopwatch::start();
    let mut passes = 0;
    loop {
        (0..pool).for_each(&mut step);
        passes += 1;
        if passes >= min_passes && clock.elapsed().as_secs_f64() >= seconds {
            return passes;
        }
    }
}

/// Linear-interpolated quantile (`q` in 0..=1); 0 for no samples.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measuring time. The run ends at the first pass boundary after it,
    /// and an end-to-end run not before [`MIN_PASSES`] passes.
    pub seconds: f64,
    /// Run the traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Row-count multiplier for the pool tables: 1 for benchmark runs,
    /// smaller in the self-test.
    pub scale: f64,
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// How a traced request's mean time splits over its on-path layers.
#[derive(Debug, Clone)]
pub struct TraceSplit {
    pub request_ms: f64,
    pub layers: Vec<(&'static str, f64)>,
}

/// The outcome of one invocation.
#[derive(Debug, Clone)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Traced runs only.
    pub trace: Option<TraceSplit>,
    /// A human-readable account: sample counts, layer shares.
    pub summary: String,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Run one invocation: set up (timed, repeated), compute the references,
/// then measure.
pub fn run(opts: &Options) -> Result<Report, String> {
    let mut setup_ms = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        let (bench, took) = calibrated(|| Bench::set_up(opts.workload, opts.seed, opts.scale));
        setup_ms.push(took);
        kept.get_or_insert(bench?);
    }
    let bench = kept.ok_or("no set-up ran")?;
    let expected = bench.references()?;
    let mut report = if opts.trace {
        traced_run(&bench, &expected, opts.seconds)
    } else {
        end_to_end_run(&bench, &expected, opts.seconds, &setup_ms)?
    };
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    report.summary = format!(
        "perfbench {} seed {} ({}): {} attempted, {} failed\n{}",
        opts.workload.name(),
        opts.seed,
        if opts.trace { "traced" } else { "end to end" },
        report.attempted,
        report.failed,
        report.summary
    );
    for m in &report.metrics {
        report
            .summary
            .push_str(&format!("  {:<28} {:>14.4} {}\n", m.name, m.value, m.unit));
    }
    Ok(report)
}

fn end_to_end_run(
    bench: &Bench,
    expected: &[Expected],
    seconds: f64,
    setup_ms: &[Timing],
) -> Result<Report, String> {
    let mut tally = Tally::default();
    let mut per_table: Vec<Vec<Timing>> = vec![Vec::new(); bench.pool.len()];
    let passes = for_passes(bench.pool.len(), seconds, MIN_PASSES, |i| {
        if let Some(latency) = bench.timed_request(i, &expected[i], &mut tally) {
            per_table[i].push(latency);
        }
    });
    // Each table's latency is the median of its passes (see
    // `MIN_PASSES`); the quantiles and the rate are over those.
    let table_medians = |field: fn(&Timing) -> f64| -> Vec<f64> {
        per_table
            .iter()
            .filter(|xs| !xs.is_empty())
            .map(|xs| median(&xs.iter().map(field).collect::<Vec<f64>>()))
            .collect()
    };
    let table_ms = table_medians(Timing::scaled_ms);
    let raw_table_ms = table_medians(|t| t.raw_ms);
    let calibration = median(&table_medians(|t| t.calibration_ms));
    let setup_s = median(&setup_ms.iter().map(Timing::scaled_ms).collect::<Vec<f64>>()) / 1e3;
    let raw_setup_s = median(&setup_ms.iter().map(|t| t.raw_ms).collect::<Vec<f64>>()) / 1e3;
    let busy_s = table_ms.iter().sum::<f64>() / 1e3;
    let n = per_table.iter().map(Vec::len).sum::<usize>();
    let metrics = vec![
        Metric {
            name: "latency_p50_ms",
            unit: "ms",
            value: median(&table_ms),
        },
        Metric {
            name: "latency_p90_ms",
            unit: "ms",
            value: quantile(&table_ms, 0.9),
        },
        Metric {
            name: "tables_per_s",
            unit: "1/s",
            value: if busy_s > 0.0 {
                table_ms.len() as f64 / busy_s
            } else {
                0.0
            },
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: setup_s,
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MiB",
            value: peak_rss_mib()?,
        },
    ];
    let joined = |xs: &[f64]| {
        xs.iter()
            .map(|ms| format!("{ms:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let summary = format!(
        "  {n} latency samples over {passes} pass(es) of {} tables; p50, p90 and the rate \
         are over the {} per-table medians; error_rate {:.4} ratio; setup_s is the median \
         of {SETUP_REPEATS} set-ups\n  times are scaled by {CALIBRATION_REF_MS} ms over the \
         calibration's {calibration:.3} ms; as measured: latency_p50_ms {:.4}, setup_s \
         {raw_setup_s:.4}\n  median ms per pool table, \
         scaled: {}\n  median ms per pool table, as measured: {}\n",
        bench.pool.len(),
        table_ms.len(),
        ratio(tally.failed as usize, tally.attempted as usize),
        median(&raw_table_ms),
        joined(&table_ms),
        joined(&raw_table_ms),
    );
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        trace: None,
        summary,
    })
}

fn traced_run(bench: &Bench, expected: &[Expected], seconds: f64) -> Report {
    let mut tally = Tally::default();
    let mut untraced = Vec::new();
    let mut samples: Vec<LayerSample> = Vec::new();
    let passes = for_passes(bench.pool.len(), seconds, 1, |i| {
        // The untraced request is the baseline for `trace.overhead_ms`.
        if let Some(latency) = bench.timed_request(i, &expected[i], &mut tally) {
            untraced.push(latency.raw_ms);
        }
        let entry = &bench.pool[i];
        let mut sample = LayerSample::default();
        let outcome = bench
            .traced_request(entry, &mut sample)
            .and_then(|recs| expected[i].check(&recs, &entry.name, &bench.udfs));
        if tally.record(&entry.name, outcome) {
            samples.push(sample);
        }
    });

    let progressive = bench.workload.progressive();
    let of = |f: &dyn Fn(&LayerSample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let med = |f: &dyn Fn(&LayerSample) -> f64| median(&of(f));
    let split = TraceSplit {
        request_ms: mean(&of(&|s| s.request_ms)),
        layers: match samples.first() {
            Some(first) => first
                .on_path(progressive)
                .into_iter()
                .enumerate()
                .map(|(j, (name, _))| (name, mean(&of(&|s| s.on_path(progressive)[j].1))))
                .collect(),
            None => Vec::new(),
        },
    };
    let unattributed_ms = split.request_ms - split.layers.iter().map(|(_, v)| v).sum::<f64>();
    let metric = |name, unit, value| Metric { name, unit, value };
    let metrics = vec![
        metric("data.ingest_ms", "ms", med(&|s| s.ingest_ms())),
        metric("data.parse_ms", "ms", med(&|s| s.parse_ms)),
        metric("data.infer_ms", "ms", med(&|s| s.infer_ms)),
        metric(
            "data.ingest_mb_per_s",
            "MiB/s",
            med(&|s| s.csv_bytes as f64 / (1024.0 * 1024.0) / (s.ingest_ms() / 1e3)),
        ),
        metric("rules.enumerate_ms", "ms", med(&|s| s.enumerate_ms)),
        metric("rules.candidates", "count", med(&|s| s.candidates as f64)),
        metric("parallel.execute_ms", "ms", med(&|s| s.execute_ms)),
        metric("parallel.nodes", "count", med(&|s| s.nodes as f64)),
        metric(
            "parallel.yield",
            "ratio",
            med(&|s| ratio(s.nodes, s.candidates)),
        ),
        metric(
            "parallel.us_per_candidate",
            "us",
            med(&|s| s.execute_ms * 1e3 / s.candidates.max(1) as f64),
        ),
        metric(
            "parallel.speedup",
            "ratio",
            med(&|s| s.serial_execute_ms / s.execute_ms),
        ),
        metric("recognition.filter_ms", "ms", med(&|s| s.filter_ms)),
        metric(
            "recognition.keep_ratio",
            "ratio",
            med(&|s| ratio(s.kept, s.nodes)),
        ),
        metric("ranking.rank_ms", "ms", med(&|s| s.rank_ms)),
        metric("ranking.nodes", "count", med(&|s| s.ranked as f64)),
        metric(
            "ranking.partial_order_ms",
            "ms",
            med(&|s| s.partial_order_ms),
        ),
        metric("ranking.ltr_ms", "ms", med(&|s| s.ltr_ms)),
        metric(
            "ranking.streaming_requests",
            "count",
            samples
                .iter()
                .filter(|s| s.ranked > STREAMING_THRESHOLD)
                .count() as f64,
        ),
        metric("progressive.topk_ms", "ms", med(&|s| s.topk_ms)),
        metric(
            "progressive.leaves_total",
            "count",
            med(&|s| s.selection.leaves_total as f64),
        ),
        metric(
            "progressive.prune_ratio",
            "ratio",
            med(&|s| ratio(s.selection.leaves_pruned, s.selection.leaves_total)),
        ),
        metric(
            "progressive.nodes_generated",
            "count",
            med(&|s| s.selection.nodes_generated as f64),
        ),
        metric(
            "progressive.shared_scans",
            "count",
            med(&|s| s.selection.shared_scans as f64),
        ),
        metric("trace.unattributed_ms", "ms", unattributed_ms),
        metric(
            "trace.overhead_ms",
            "ms",
            med(&|s| s.request_ms) - median(&untraced),
        ),
    ];

    let share = |v: f64| 100.0 * v / split.request_ms.max(f64::MIN_POSITIVE);
    let mut summary = format!(
        "  {} traced and {} untraced requests over {passes} pass(es) of {} tables\n  \
         on-path layer means (traced request mean {:.3} ms):\n",
        samples.len(),
        untraced.len(),
        bench.pool.len(),
        split.request_ms
    );
    for (name, v) in &split.layers {
        summary.push_str(&format!(
            "    {name:<26} {v:>12.3} ms {:>6.1}%\n",
            share(*v)
        ));
    }
    summary.push_str(&format!(
        "    {:<26} {unattributed_ms:>12.3} ms {:>6.1}%\n",
        "unattributed",
        share(unattributed_ms)
    ));
    if !progressive {
        let po = mean(&of(&|s| s.partial_order_ms));
        summary.push_str(&format!(
            "    partial-order ranking (component of ranking.rank_ms): {po:.3} ms, {:.1}%\n",
            share(po)
        ));
    }
    summary.push_str(&format!(
        "  off-path probes (not in the request): {}\n  per-layer medians:\n",
        if progressive {
            "rules, parallel, recognition, ranking"
        } else {
            "progressive"
        }
    ));
    Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        trace: Some(split),
        summary,
    }
}
