//! The workloads and their untraced runs. Each run makes one measured
//! call into the program's public entry point (`run_grid`, `run_stream` or
//! `run_fabric`), then checks the call's output.

use std::cell::Cell;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use idsbench_core::runner::{run_grid, DetectorFactory, EvalConfig, Experiment};
use idsbench_core::{
    Dataset, DatasetInfo, Event, EventDetector, InputFormat, LabeledPacket, ParsedView, Result,
    ScenarioScale, TrafficModel, TrainView,
};
use idsbench_dnn::Dnn;
use idsbench_fabric::{run_fabric, run_worker, Endpoint, FabricConfig, FabricListener};
use idsbench_helad::Helad;
use idsbench_kitsune::Kitsune;
use idsbench_net::Packet;
use idsbench_slips::Slips;
use idsbench_stream::{run_stream, PacketSource, PcapSource, StreamConfig, StreamRun};

use crate::capture::{tuple_of, CaptureSpec, Fixture, Meta, TRAIN_FRACTION};
use crate::checks::{check_scored, Confusion};
use crate::stats::JsonObject;
use crate::sys;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Grid,
    PacketStream,
    FlowStream,
    FabricUds,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "grid" => Some(Workload::Grid),
            "packet-stream" => Some(Workload::PacketStream),
            "flow-stream" => Some(Workload::FlowStream),
            "fabric-uds" => Some(Workload::FabricUds),
            _ => None,
        }
    }

    /// The capture a stream workload replays. `fabric-uds`, the fabric
    /// round of `flow-stream`'s traced run, replays the same capture.
    pub fn capture(self) -> Option<CaptureSpec> {
        match self {
            Workload::Grid => None,
            Workload::PacketStream => {
                Some(CaptureSpec { scenario: "stratosphere-iot", captures: 20, fixed: 15 })
            }
            Workload::FlowStream | Workload::FabricUds => {
                Some(CaptureSpec { scenario: "bot-iot", captures: 10, fixed: 1 })
            }
        }
    }

    /// The detector a stream workload scores with.
    pub fn detector(self) -> &'static str {
        match self {
            Workload::PacketStream => "Kitsune",
            Workload::Grid | Workload::FlowStream | Workload::FabricUds => "DNN",
        }
    }
}

/// The four Table IV systems, out of the box, in Table IV's order.
pub const DETECTORS: [&str; 4] = ["Kitsune", "HELAD", "DNN", "Slips"];

pub fn new_detector(name: &str) -> Option<Box<dyn EventDetector>> {
    Some(match name {
        "Kitsune" => Box::new(Kitsune::default()),
        "HELAD" => Box::new(Helad::default()),
        "DNN" => Box::new(Dnn::default()),
        "Slips" => Box::new(Slips::default()),
        _ => return None,
    })
}

/// Worker-process entry of `fabric-uds`.
pub fn worker_main(endpoint: &str) -> std::result::Result<(), String> {
    let endpoint = Endpoint::parse(endpoint)?;
    run_worker(&endpoint, &new_detector, None).map_err(|e| e.to_string())
}

/// Forwards the capture to the program and notes when the first packet
/// was pulled: the moment the first evaluation event can be scored.
struct Feed<'a, R> {
    source: &'a mut PcapSource<R>,
    first_pull: &'a Cell<Option<Instant>>,
}

impl<R: Read> PacketSource for Feed<'_, R> {
    fn name(&self) -> &str {
        self.source.name()
    }

    fn next_packet(&mut self) -> Result<Option<LabeledPacket>> {
        if self.first_pull.get().is_none() {
            self.first_pull.set(Some(Instant::now()));
        }
        self.source.next_packet()
    }

    fn recycle_packet(&mut self, packet: Packet) {
        self.source.recycle_packet(packet);
    }
}

pub fn write_scores(path: &Path, scores: &[f64]) -> std::result::Result<(), String> {
    let bytes: Vec<u8> = scores.iter().flat_map(|s| s.to_bits().to_le_bytes()).collect();
    std::fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn read_scores(path: &Path) -> std::result::Result<Vec<f64>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
        .collect())
}

/// Compares two score sequences bit for bit, in order or as sorted
/// multisets.
pub fn compare_scores(
    what: &str,
    ours: &[f64],
    reference: &[f64],
    sorted: bool,
    failures: &mut Vec<String>,
) {
    let bits = |scores: &[f64]| {
        let mut bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
        if sorted {
            bits.sort_unstable();
        }
        bits
    };
    let (a, b) = (bits(ours), bits(reference));
    if a.len() != b.len() {
        failures.push(format!("{what}: {} scores vs {} in the reference", a.len(), b.len()));
    } else if let Some(at) = a.iter().zip(&b).position(|(x, y)| x != y) {
        failures.push(format!("{what}: scores differ from the reference at index {at}"));
    }
}

/// What a run prints besides its metrics: the operation counts and the
/// outcome of every check.
pub struct RoundOutput {
    pub json: JsonObject,
    pub failures: Vec<String>,
    pub scores: Vec<f64>,
}

/// One untraced `run_stream` / `run_fabric` call over the workload's
/// capture.
pub fn stream_round(
    workload: Workload,
    dir: &Path,
    seed: u64,
) -> std::result::Result<RoundOutput, String> {
    let spec = workload.capture().expect("stream workload");
    let fixture = Fixture::at(dir, spec, seed);
    let meta = fixture.read_meta()?;
    let (warmup, mut source) = fixture.open_split(&meta)?;
    let config = StreamConfig::default();
    let detector = workload.detector();
    let first_pull = Cell::new(None);

    let (run, started, ended, cpu_s, rss_kib) = if workload == Workload::FabricUds {
        let socket = dir.join(format!("fabric-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let endpoint = Endpoint::Uds(socket.clone());
        let listener = FabricListener::bind(&endpoint).map_err(|e| format!("bind: {e}"))?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut worker = Command::new(exe)
            .arg("worker")
            .arg(endpoint.to_string())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn worker: {e}"))?;
        let cpu_before = sys::self_usage().cpu_s;
        let started = Instant::now();
        let feed = Feed { source: &mut source, first_pull: &first_pull };
        let fabric = FabricConfig { workers: 1, ..Default::default() };
        let run = run_fabric(detector, &warmup, feed, &config, &fabric, listener, None);
        let ended = Instant::now();
        let cpu_self = sys::self_usage().cpu_s - cpu_before;
        if run.is_err() {
            // A coordinator that gave up may leave the worker waiting.
            let _ = worker.kill();
        }
        let status = worker.wait().map_err(|e| format!("reap worker: {e}"))?;
        let _ = std::fs::remove_file(&socket);
        let run = run.map_err(|e| format!("run_fabric: {e}"))?;
        if !status.success() {
            return Err(format!("worker exited {status}"));
        }
        let worker_usage = sys::children_usage();
        let rss = sys::self_usage().maxrss_kib + worker_usage.maxrss_kib;
        (run, started, ended, cpu_self + worker_usage.cpu_s, rss)
    } else {
        let factory = || new_detector(detector).expect("known detector");
        let cpu_before = sys::self_usage().cpu_s;
        let started = Instant::now();
        let feed = Feed { source: &mut source, first_pull: &first_pull };
        let run = run_stream(&factory, &warmup, feed, &config).map_err(|e| e.to_string())?;
        let ended = Instant::now();
        let cpu_s = sys::self_usage().cpu_s - cpu_before;
        (run, started, ended, cpu_s, sys::self_usage().maxrss_kib)
    };

    let wall_s = (ended - started).as_secs_f64();
    let setup_s =
        (first_pull.get().ok_or("the program never pulled a packet")? - started).as_secs_f64();
    let report = &run.report;
    let t = &report.throughput;
    let mut failures = Vec::new();
    check_stream(workload, &meta, &run, &mut failures);

    let mut json = JsonObject::default();
    json.text("workload", workload_name(workload))
        .int("seed", seed)
        .num("setup_s", setup_s)
        .num("wall_s", wall_s)
        .num("cpu_s", cpu_s)
        .num("packets_per_sec", t.packets_per_sec)
        .num("score_p50_us", t.p50_latency_us)
        .num("score_p99_us", t.p99_latency_us)
        .num("rss_peak_mb", rss_kib as f64 / 1024.0)
        .num("f1", report.metrics.f1)
        .num("auc", report.auc)
        .int("offered", meta.eval_packets)
        .int("fed", report.eval_packets as u64)
        .int("scored", report.eval_items as u64)
        .int("dropped", report.dropped_packets)
        .int("failed", failed_packets(workload, &meta, &run))
        .num("report_train_s", t.train_seconds)
        .num("scoring_wall_s", t.wall_seconds)
        .num("finish_s", wall_s - setup_s - t.wall_seconds)
        .int("stalls", report.shard_stats.iter().map(|s| s.stalls as u64).sum())
        .int("payloads_minted", source.payloads_minted());
    Ok(RoundOutput { json, failures, scores: run.scores })
}

/// Offered packets the program did not score (packet-format detectors) or
/// did not take in at all.
fn failed_packets(workload: Workload, meta: &Meta, run: &StreamRun) -> u64 {
    let fed = run.report.eval_packets as u64;
    let unscored = match workload {
        Workload::PacketStream => fed.saturating_sub(run.report.eval_items as u64),
        _ => 0,
    };
    meta.eval_packets.saturating_sub(fed) + run.report.dropped_packets + unscored
}

pub fn workload_name(workload: Workload) -> &'static str {
    match workload {
        Workload::Grid => "grid",
        Workload::PacketStream => "packet-stream",
        Workload::FlowStream => "flow-stream",
        Workload::FabricUds => "fabric-uds",
    }
}

fn check_stream(workload: Workload, meta: &Meta, run: &StreamRun, failures: &mut Vec<String>) {
    let report = &run.report;
    let tag = workload_name(workload);
    if report.eval_packets as u64 != meta.eval_packets {
        failures.push(format!(
            "{tag}: report has {} evaluation packets, the capture {}",
            report.eval_packets, meta.eval_packets
        ));
    }
    if report.dropped_packets != 0 {
        failures.push(format!("{tag}: {} packets dropped", report.dropped_packets));
    }
    let attacks = run.labels.iter().filter(|&&l| l).count() as u64;
    let reported_attacks = (report.attack_share * report.eval_items as f64).round() as u64;
    if reported_attacks != attacks {
        failures.push(format!(
            "{tag}: report's attack share gives {reported_attacks} attack items, labels {attacks}"
        ));
    }
    let items = report.eval_items as u64;
    if run.scores.len() as u64 != items {
        failures.push(format!("{tag}: {} scores for {items} items", run.scores.len()));
    }
    if workload == Workload::PacketStream {
        if items != meta.eval_packets {
            failures
                .push(format!("{tag}: {items} scored events for {} packets", meta.eval_packets));
        }
        if attacks != meta.eval_attacks {
            failures.push(format!(
                "{tag}: {attacks} attack packets scored, the capture has {}",
                meta.eval_attacks
            ));
        }
    } else if items < meta.eval_tuples || items > meta.eval_packets {
        failures.push(format!(
            "{tag}: {items} scored flows outside [{} 5-tuples, {} packets]",
            meta.eval_tuples, meta.eval_packets
        ));
    }
    check_scored(
        tag,
        &run.scores,
        &run.labels,
        report.threshold,
        &report.metrics,
        report.auc,
        failures,
    );
}

// ---------------------------------------------------------------------------
// grid
// ---------------------------------------------------------------------------

thread_local! {
    /// The dataset whose `generate` ran last on this thread: `run_grid`
    /// generates a cell's dataset on the thread that then fits and scores
    /// that cell's detector, so a detector learns its cell from here.
    static CELL_DATASET: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Time spent in, and calls made to, wrapped `Dataset::generate`.
#[derive(Debug, Default)]
pub struct GenerateTiming {
    pub calls: Mutex<(u64, f64)>,
}

/// A Table II scenario that tells the detector wrappers which cell is
/// running and, when traced, times `generate`.
#[derive(Debug)]
pub struct TaggedDataset {
    pub model: Box<dyn TrafficModel>,
    pub index: usize,
    pub timing: Option<Arc<GenerateTiming>>,
}

impl Dataset for TaggedDataset {
    fn info(&self) -> &DatasetInfo {
        self.model.info()
    }

    fn generate(&self, seed: u64) -> Vec<LabeledPacket> {
        CELL_DATASET.with(|cell| cell.set(self.index));
        match &self.timing {
            None => Dataset::generate(&self.model, seed),
            Some(timing) => {
                let started = Instant::now();
                let packets = Dataset::generate(&self.model, seed);
                let elapsed = started.elapsed().as_secs_f64();
                let mut calls = timing.calls.lock().expect("timing lock");
                calls.0 += 1;
                calls.1 += elapsed;
                packets
            }
        }
    }
}

/// Everything one grid cell's detector saw and, when traced, how long it
/// spent.
#[derive(Debug, Clone, Default)]
pub struct CellScores {
    pub detector: usize,
    pub dataset: usize,
    pub scores: Vec<f64>,
    pub labels: Vec<bool>,
    pub fit_s: f64,
    pub score_s: f64,
}

/// Records a detector's scores with their labels and, when traced, times
/// its `fit` and `on_event` calls. The record goes to the sink when the
/// grid drops the detector at the end of its cell.
pub struct RecordedDetector {
    inner: Box<dyn EventDetector>,
    cell: CellScores,
    traced: bool,
    sink: Arc<Mutex<Vec<CellScores>>>,
}

impl EventDetector for RecordedDetector {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn input_format(&self) -> InputFormat {
        self.inner.input_format()
    }

    fn fit(&mut self, train: &TrainView) {
        self.cell.dataset = CELL_DATASET.with(Cell::get);
        let started = self.traced.then(Instant::now);
        self.inner.fit(train);
        if let Some(started) = started {
            self.cell.fit_s += started.elapsed().as_secs_f64();
        }
    }

    fn on_event(&mut self, event: &Event<'_>) -> Option<f64> {
        let score = if self.traced {
            let started = Instant::now();
            let score = self.inner.on_event(event);
            self.cell.score_s += started.elapsed().as_secs_f64();
            score
        } else {
            self.inner.on_event(event)
        };
        if let Some(score) = score {
            self.cell.scores.push(score);
            self.cell.labels.push(event.label().is_attack());
        }
        score
    }

    fn on_packet_batch(
        &mut self,
        views: &mut dyn Iterator<Item = &ParsedView>,
        scores: &mut Vec<f64>,
    ) {
        // The batch runner delivers events one at a time; route any batch
        // through `on_event` so every score is recorded with its label.
        for view in views {
            if let Some(score) = self.on_event(&Event::Packet(view)) {
                scores.push(score);
            }
        }
    }
}

impl Drop for RecordedDetector {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(std::mem::take(&mut self.cell));
        }
    }
}

pub fn recorded_roster(
    detectors: &[usize],
    traced: bool,
    sink: &Arc<Mutex<Vec<CellScores>>>,
) -> Vec<(String, DetectorFactory<'static>)> {
    detectors
        .iter()
        .map(|&index| {
            let sink = Arc::clone(sink);
            let factory: DetectorFactory<'static> = Box::new(move || {
                Box::new(RecordedDetector {
                    inner: new_detector(DETECTORS[index]).expect("roster name"),
                    cell: CellScores { detector: index, ..Default::default() },
                    traced,
                    sink: Arc::clone(&sink),
                }) as Box<dyn EventDetector>
            });
            (DETECTORS[index].to_string(), factory)
        })
        .collect()
}

pub fn grid_models() -> Vec<Box<dyn TrafficModel>> {
    idsbench_trafficgen::table4_models(ScenarioScale::Full)
}

/// The benchmark's own view of one dataset's evaluation slice, from a
/// fresh `generate` with the run's seed and the pipeline's split rule.
#[derive(Debug, Clone, Copy)]
pub struct EvalFacts {
    pub packets: u64,
    pub attacks: u64,
    pub tuples: u64,
}

pub fn eval_facts(model: &dyn TrafficModel, seed: u64) -> EvalFacts {
    let mut packets = model.materialize(seed);
    packets.sort_by_key(|p| p.packet.ts);
    let split = (packets.len() as f64 * TRAIN_FRACTION) as usize;
    let eval = &packets[split..];
    let tuples: std::collections::HashSet<_> =
        eval.iter().filter_map(|p| tuple_of(&p.packet.data)).collect();
    EvalFacts {
        packets: eval.len() as u64,
        attacks: eval.iter().filter(|p| p.label.is_attack()).count() as u64,
        tuples: tuples.len() as u64,
    }
}

/// Checks every grid cell against its recorded scores and the benchmark's
/// own counts, plus the paper's two findings.
pub fn check_grid(
    experiments: &[Experiment],
    cells: &[CellScores],
    facts: &[EvalFacts],
    failures: &mut Vec<String>,
) {
    let names: Vec<String> = grid_models().iter().map(|m| m.info().name.clone()).collect();
    for (d, detector) in DETECTORS.iter().enumerate() {
        let packet_format =
            new_detector(detector).expect("roster").input_format() == InputFormat::Packets;
        let mut distinct = std::collections::HashSet::new();
        for (s, facts) in facts.iter().enumerate() {
            let tag = format!("grid {detector}/{}", names[s]);
            let Some(e) =
                experiments.iter().find(|e| e.detector == *detector && e.dataset == names[s])
            else {
                failures.push(format!("{tag}: no experiment"));
                continue;
            };
            let Some(cell) = cells.iter().find(|c| c.detector == d && c.dataset == s) else {
                failures.push(format!("{tag}: no recorded scores"));
                continue;
            };
            let items = e.eval_items as u64;
            if cell.scores.len() as u64 != items {
                failures
                    .push(format!("{tag}: {} recorded scores, {items} items", cell.scores.len()));
            }
            if packet_format {
                let attacks = (e.attack_share * items as f64).round() as u64;
                if items != facts.packets || attacks != facts.attacks {
                    failures.push(format!(
                        "{tag}: {items} items / {attacks} attacks, the dataset has {} / {}",
                        facts.packets, facts.attacks
                    ));
                }
            } else if items < facts.tuples || items > facts.packets {
                failures.push(format!(
                    "{tag}: {items} flows outside [{} 5-tuples, {} packets]",
                    facts.tuples, facts.packets
                ));
            }
            // Constant scores are legitimate for one cell (Slips finds
            // nothing on some datasets); distinctness is checked per
            // detector over its five cells below.
            let mut ignored = Vec::new();
            let c: Confusion = check_scored(
                &tag,
                &cell.scores,
                &cell.labels,
                e.threshold,
                &e.metrics,
                e.auc,
                &mut ignored,
            );
            failures.extend(ignored.into_iter().filter(|f| !f.contains("distinct")));
            if c.total() != items {
                failures.push(format!("{tag}: confusion counts sum to {} of {items}", c.total()));
            }
            distinct.extend(cell.scores.iter().map(|s| s.to_bits()));
        }
        if distinct.len() < 2 {
            failures.push(format!("grid {detector}: fewer than two distinct scores"));
        }
    }

    // The paper's findings: the DNN has the highest mean F1, and no single
    // system is best everywhere.
    let mean_f1 = |detector: &str| {
        let f1: Vec<f64> =
            experiments.iter().filter(|e| e.detector == detector).map(|e| e.metrics.f1).collect();
        f1.iter().sum::<f64>() / f1.len().max(1) as f64
    };
    let best =
        DETECTORS.iter().max_by(|a, b| mean_f1(a).total_cmp(&mean_f1(b))).expect("four detectors");
    if *best != "DNN" {
        failures.push(format!("grid: {best}, not DNN, has the highest mean F1"));
    }
    let winners: std::collections::HashSet<&str> = names
        .iter()
        .filter_map(|name| {
            experiments
                .iter()
                .filter(|e| &e.dataset == name)
                .max_by(|a, b| a.metrics.f1.total_cmp(&b.metrics.f1))
                .map(|e| e.detector.as_str())
        })
        .collect();
    if winners.len() < 2 {
        failures.push("grid: one detector is best on every dataset".to_string());
    }
}

/// One untraced `run_grid` call over the four detectors and five datasets.
pub fn grid_round(seed: u64) -> std::result::Result<RoundOutput, String> {
    let sink = Arc::new(Mutex::new(Vec::new()));
    let roster = recorded_roster(&[0, 1, 2, 3], false, &sink);
    let datasets: Vec<TaggedDataset> = grid_models()
        .into_iter()
        .enumerate()
        .map(|(index, model)| TaggedDataset { model, index, timing: None })
        .collect();
    let refs: Vec<&dyn Dataset> = datasets.iter().map(|d| d as &dyn Dataset).collect();
    let config = EvalConfig { dataset_seed: seed, ..Default::default() };

    let cpu_before = sys::self_usage().cpu_s;
    let started = Instant::now();
    let experiments = run_grid(&roster, &refs, &config).map_err(|e| format!("run_grid: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = sys::self_usage().cpu_s - cpu_before;
    let rss_kib = sys::self_usage().maxrss_kib;
    drop(roster);

    let cells = std::mem::take(&mut *sink.lock().expect("sink lock"));
    let facts: Vec<EvalFacts> =
        grid_models().iter().map(|m| eval_facts(m.as_ref(), seed)).collect();
    let mut failures = Vec::new();
    check_grid(&experiments, &cells, &facts, &mut failures);

    let n = experiments.len() as f64;
    let eval_packets: u64 = facts.iter().map(|f| f.packets).sum::<u64>() * DETECTORS.len() as u64;
    // run_grid reports no per-event latencies, only each cell's scoring
    // seconds. The latency figures are built from the cells' mean
    // per-event scoring times without pooling detectors' events: the
    // median over the detectors of each detector's median cell, and the
    // slowest cell.
    let cell_us = |e: &Experiment| e.score_seconds * 1e6 / e.eval_items.max(1) as f64;
    let mut detector_us: Vec<f64> = DETECTORS
        .iter()
        .map(|d| {
            let mut cells: Vec<f64> =
                experiments.iter().filter(|e| e.detector == *d).map(cell_us).collect();
            crate::stats::median(&mut cells)
        })
        .collect();
    let slowest_cell_us = experiments.iter().map(cell_us).fold(0.0, f64::max);
    let mut json = JsonObject::default();
    json.text("workload", "grid")
        .int("seed", seed)
        .num("setup_s", experiments.iter().map(|e| e.train_seconds).sum())
        .num("wall_s", wall_s)
        .num("cpu_s", cpu_s)
        .num("packets_per_sec", eval_packets as f64 / wall_s)
        .num("score_p50_us", crate::stats::median(&mut detector_us))
        .num("score_p99_us", slowest_cell_us)
        .num("rss_peak_mb", rss_kib as f64 / 1024.0)
        .num("f1", experiments.iter().map(|e| e.metrics.f1).sum::<f64>() / n)
        .num("auc", experiments.iter().map(|e| e.auc).sum::<f64>() / n)
        .int("cells", experiments.len() as u64)
        .int("eval_packets", eval_packets)
        .int("failed", (DETECTORS.len() * facts.len() - experiments.len()) as u64);
    for e in &experiments {
        json.num(&format!("f1.{}.{}", e.detector, e.dataset.replace(' ', "_")), e.metrics.f1);
    }
    Ok(RoundOutput { json, failures, scores: Vec::new() })
}
