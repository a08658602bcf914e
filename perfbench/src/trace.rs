//! Traced runs: the same input replayed on one thread through the
//! modules' public functions, one layer at a time, each timed from here.
//! Calls shorter than the clock's resolution are timed in chunks of
//! `CHUNK` packets. End-to-end metrics never come from these runs.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use idsbench_core::metrics::{auc, roc_curve, ConfusionMatrix};
use idsbench_core::preprocess::{Pipeline, PipelineConfig};
use idsbench_core::runner::{run_grid, EvalConfig};
use idsbench_core::threshold::ThresholdPolicy;
use idsbench_core::{
    Dataset, Event, FlowEventAssembler, InputFormat, LabeledFlow, LabeledPacket, ParsedView,
    TrainView,
};
use idsbench_fabric::{CoordMsg, Endpoint, FabricListener, ShardTransport, WireItem};
use idsbench_flow::{AfterImage, AfterImageConfig, FlowTable};
use idsbench_stream::{HashRing, PacketSource, StreamConfig, DEFAULT_VNODES};

use crate::capture::Fixture;
use crate::checks::check_scored;
use crate::stats::{median, JsonObject};
use crate::workloads::{
    check_grid, compare_scores, eval_facts, grid_models, new_detector, read_scores,
    recorded_roster, workload_name, GenerateTiming, RoundOutput, TaggedDataset, Workload,
    DETECTORS,
};

/// Packets per timed chunk: a multiple of the stream executor's 32-packet
/// batch, so packet detectors see the same batches as in the untraced run.
const CHUNK: usize = 256;
const BATCH: usize = 32;

/// Accumulated seconds per timed span.
#[derive(Debug, Default)]
struct Spans {
    seconds: BTreeMap<&'static str, f64>,
}

impl Spans {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        *self.seconds.entry(name).or_default() += started.elapsed().as_secs_f64();
        out
    }

    fn get(&self, name: &str) -> f64 {
        self.seconds.get(name).copied().unwrap_or(0.0)
    }

    fn total(&self) -> f64 {
        self.seconds.values().sum()
    }
}

fn lower(name: &str) -> String {
    name.to_ascii_lowercase()
}

/// Replays a stream workload's capture through each layer in turn.
/// `reference` holds the untraced run's scores, which this replay must
/// reproduce bit for bit. On `flow-stream` it also encodes and decodes each
/// 32-packet batch as the fabric's `CoordMsg::Batch` frame, the fabric's
/// codec on the same input.
pub fn stream_trace(
    workload: Workload,
    dir: &Path,
    seed: u64,
    reference: &Path,
) -> Result<RoundOutput, String> {
    let spec = workload.capture().expect("stream workload");
    let fixture = Fixture::at(dir, spec, seed);
    let meta = fixture.read_meta()?;
    let config = StreamConfig::default();
    let name = workload.detector();
    let mut spans = Spans::default();
    let started = Instant::now();

    // Set-up: warm-up read and parse, train view, fit.
    let mut source = spans.time("setup.read", || fixture.open())?;
    let warmup: Vec<LabeledPacket> = spans.time("setup.read", || {
        (0..meta.warmup).map_while(|_| source.next_packet().ok().flatten()).collect()
    });
    let views: Vec<ParsedView> =
        spans.time("setup.parse", || warmup.into_iter().map(ParsedView::from_packet).collect());
    let train = spans.time("core.train_assemble", || TrainView::assemble(views, config.flow));
    let mut detector = new_detector(name).expect("known detector");
    spans.time("detector.fit", || detector.fit(&train));
    let flows = detector.input_format() == InputFormat::Flows;

    // Probes that run beside the pipeline: Kitsune's feature extractor
    // with its settings, warmed on the same training packets, and the bare
    // flow table under the assembler.
    let mut image = (workload == Workload::PacketStream).then(|| {
        let mut image = AfterImage::new(AfterImageConfig::default());
        let mut features = Vec::new();
        spans.time("setup.afterimage_warm", || {
            for view in &train.packets {
                if let Some(parsed) = &view.parsed {
                    image.update_into(parsed, &mut features);
                }
            }
        });
        image
    });
    let mut features = Vec::new();
    let mut table = flows.then(|| FlowTable::new(config.flow));
    let mut assembler = flows.then(|| FlowEventAssembler::new(config.flow));
    drop(train);

    let ring = HashRing::with_shards(DEFAULT_VNODES, 1);
    let mut scores = Vec::new();
    let mut labels = Vec::new();
    let mut chunk: Vec<LabeledPacket> = Vec::with_capacity(CHUNK);
    let mut chunk_views: Vec<ParsedView> = Vec::with_capacity(CHUNK);
    let mut evicted: Vec<LabeledFlow> = Vec::new();
    let mut bounds: Vec<usize> = Vec::with_capacity(CHUNK);
    let (mut label_peak, mut live_peak, mut entity_peak) = (0usize, 0usize, 0usize);
    let (mut frame_bytes, mut sample_frame) = (0usize, Vec::new());
    let mut eval_packets = 0u64;
    let mut seq = 0u64;

    loop {
        spans.time("net.pcap_read", || {
            while chunk.len() < CHUNK {
                match source.next_packet() {
                    Ok(Some(packet)) => chunk.push(packet),
                    _ => break,
                }
            }
        });
        if chunk.is_empty() {
            break;
        }
        eval_packets += chunk.len() as u64;
        spans
            .time("net.parse", || chunk_views.extend(chunk.drain(..).map(ParsedView::from_packet)));
        spans.time("stream.route", || {
            for view in &chunk_views {
                black_box(match &view.flow_key {
                    None => ring.first_shard(),
                    Some(key) => ring.owner_of(key),
                });
            }
        });
        if let Some(assembler) = &mut assembler {
            spans.time("core.assemble", || {
                for view in &chunk_views {
                    assembler.observe(view, |flow| evicted.push(flow));
                    bounds.push(evicted.len());
                }
            });
            label_peak = label_peak.max(assembler.label_entries());
        }
        if let Some(table) = &mut table {
            spans.time("flow.table", || {
                for view in &chunk_views {
                    if let Some(parsed) = &view.parsed {
                        table.observe_with(parsed, |record| {
                            black_box(record);
                        });
                    }
                }
            });
            live_peak = live_peak.max(table.active_flows());
        }
        if let Some(image) = &mut image {
            spans.time("flow.afterimage", || {
                for view in &chunk_views {
                    if let Some(parsed) = &view.parsed {
                        image.update_into(parsed, &mut features);
                        black_box(&features);
                    }
                }
            });
            entity_peak = entity_peak.max(image.tracked_entities());
        }
        spans.time("detector.score", || {
            if flows {
                let mut from = 0;
                for (view, &to) in chunk_views.iter().zip(&bounds) {
                    if let Some(score) = detector.on_event(&Event::Packet(view)) {
                        scores.push(score);
                        labels.push(view.is_attack());
                    }
                    for flow in &evicted[from..to] {
                        if let Some(score) = detector.on_event(&Event::FlowEvicted(flow)) {
                            scores.push(score);
                            labels.push(flow.is_attack());
                        }
                    }
                    from = to;
                }
            } else {
                for batch in chunk_views.chunks(BATCH) {
                    detector.on_packet_batch(&mut batch.iter(), &mut scores);
                    labels.extend(batch.iter().map(ParsedView::is_attack));
                }
            }
        });
        evicted.clear();
        bounds.clear();
        if workload == Workload::FlowStream {
            for batch in chunk_views.chunks(BATCH) {
                let items: Vec<WireItem> = spans.time("fabric.build_items", || {
                    batch
                        .iter()
                        .map(|view| {
                            seq += 1;
                            WireItem {
                                seq,
                                ts_micros: view.packet.packet.ts.as_micros(),
                                label: view.packet.label,
                                data: view.packet.packet.data.to_vec(),
                            }
                        })
                        .collect()
                });
                let message = CoordMsg::Batch { shard: 0, items };
                let body = spans.time("fabric.encode", || message.encode());
                let decoded = spans.time("fabric.decode", || CoordMsg::decode(&body));
                if decoded.as_ref() != Ok(&message) {
                    return Err("a batch frame does not decode to what was encoded".to_string());
                }
                frame_bytes += body.len();
                if sample_frame.is_empty() && batch.len() == BATCH {
                    sample_frame = body;
                }
            }
        }
        spans.time("net.pcap_read", || {
            for view in chunk_views.drain(..) {
                source.recycle_packet(view.packet.packet);
            }
        });
    }
    if let Some(assembler) = &mut assembler {
        let flushed = spans.time("core.assemble", || assembler.flush());
        spans.time("detector.score", || {
            for flow in &flushed {
                if let Some(score) = detector.on_event(&Event::FlowEvicted(flow)) {
                    scores.push(score);
                    labels.push(flow.is_attack());
                }
            }
        });
    }
    let policy = ThresholdPolicy::default();
    let threshold = spans.time("core.calibrate", || policy.calibrate(&scores, &labels));
    let area = spans.time("core.auc", || auc(&roc_curve(&scores, &labels)));
    let wall_s = started.elapsed().as_secs_f64();

    let mut failures = Vec::new();
    compare_scores(
        &format!("{} traced replay", workload_name(workload)),
        &scores,
        &read_scores(reference)?,
        false,
        &mut failures,
    );
    let metrics = ConfusionMatrix::from_scores(&scores, &labels, threshold).metrics();
    check_scored("traced", &scores, &labels, threshold, &metrics, area, &mut failures);
    if eval_packets != meta.eval_packets {
        failures
            .push(format!("traced replay read {eval_packets} of {} packets", meta.eval_packets));
    }

    let per_pkt = |s: f64| s * 1e9 / eval_packets as f64;
    let det = lower(name);
    let score_ns = spans.get("detector.score") * 1e9 / scores.len().max(1) as f64;
    let mut json = JsonObject::default();
    json.text("workload", workload_name(workload))
        .num("wall_s", wall_s)
        .num("covered_s", spans.total())
        .num("coverage", spans.total() / wall_s)
        .int("eval_packets", eval_packets)
        .int("scored", scores.len() as u64)
        .num("net.pcap_read_ns_per_pkt", per_pkt(spans.get("net.pcap_read")))
        .num("net.parse_ns_per_pkt", per_pkt(spans.get("net.parse")))
        .num("stream.route_ns_per_pkt", per_pkt(spans.get("stream.route")))
        .num("core.train_assemble_s", spans.get("core.train_assemble"))
        .num("core.assemble_ns_per_pkt", per_pkt(spans.get("core.assemble")))
        .int("core.label_entries_peak", label_peak as u64)
        .num("core.calibrate_s", spans.get("core.calibrate"))
        .num("core.auc_s", spans.get("core.auc"))
        .num("flow.table_ns_per_pkt", per_pkt(spans.get("flow.table")))
        .int("flow.live_flows_peak", live_peak as u64)
        .num("flow.afterimage_ns_per_pkt", per_pkt(spans.get("flow.afterimage")))
        .int("flow.afterimage_entities_peak", entity_peak as u64)
        .num(&format!("{det}.fit_s"), spans.get("detector.fit"))
        .num(&format!("{det}.score_ns_per_event"), score_ns)
        .num(
            "traced_path_ns_per_pkt",
            per_pkt(
                spans.get("net.pcap_read")
                    + spans.get("net.parse")
                    + spans.get("stream.route")
                    + spans.get("core.assemble")
                    + spans.get("detector.score"),
            ),
        );
    if workload == Workload::PacketStream {
        json.num("kitsune.infer_ns_per_pkt", score_ns - per_pkt(spans.get("flow.afterimage")));
    }
    if workload == Workload::FlowStream {
        json.num("fabric.encode_ns_per_pkt", per_pkt(spans.get("fabric.encode")))
            .num("fabric.decode_ns_per_pkt", per_pkt(spans.get("fabric.decode")))
            .num("fabric.bytes_per_pkt", frame_bytes as f64 / eval_packets as f64)
            .num("fabric.frame_rtt_us", frame_rtt_us(dir, &sample_frame)?);
    }
    for (name, seconds) in &spans.seconds {
        json.num(&format!("span.{name}"), *seconds);
    }
    Ok(RoundOutput { json, failures, scores })
}

/// Median round trip of one batch-sized frame between two ends of a UDS
/// transport, the far end echoing on a second thread.
fn frame_rtt_us(dir: &Path, frame: &[u8]) -> Result<f64, String> {
    const TRIPS: usize = 2000;
    let socket = dir.join(format!("rtt-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let listener =
        FabricListener::bind(&Endpoint::Uds(socket.clone())).map_err(|e| format!("bind: {e}"))?;
    let endpoint = listener.local_endpoint().map_err(|e| e.to_string())?;
    let result = std::thread::scope(|scope| -> Result<f64, String> {
        let echo = scope.spawn(|| -> std::io::Result<()> {
            let mut peer = listener.accept()?;
            while let Some(body) = peer.recv_frame(None)? {
                peer.send_frame(&body, None)?;
            }
            Ok(())
        });
        let mut rtts = Vec::with_capacity(TRIPS);
        {
            let mut client = ShardTransport::connect(&endpoint).map_err(|e| e.to_string())?;
            for _ in 0..TRIPS {
                let started = Instant::now();
                client.send_frame(frame, None).map_err(|e| e.to_string())?;
                let back = client.recv_frame(None).map_err(|e| e.to_string())?;
                rtts.push(started.elapsed().as_secs_f64() * 1e6);
                if back.as_deref() != Some(frame) {
                    return Err("echoed frame differs".to_string());
                }
            }
        }
        echo.join().map_err(|_| "echo thread panicked")?.map_err(|e| e.to_string())?;
        Ok(median(&mut rtts))
    });
    let _ = std::fs::remove_file(&socket);
    result
}

/// The grid cell by cell, each through its own single-cell `run_grid`
/// call (so on one thread), with every dataset and detector wrapped in
/// timing wrappers. The steps `run_grid` runs between those calls —
/// preparing events, assembling flows, calibrating, the AUC — are timed
/// by replaying them from here on the same cell's input.
pub fn grid_trace(seed: u64) -> Result<RoundOutput, String> {
    let timing = Arc::new(GenerateTiming::default());
    let datasets: Vec<TaggedDataset> = grid_models()
        .into_iter()
        .enumerate()
        .map(|(index, model)| TaggedDataset { model, index, timing: Some(Arc::clone(&timing)) })
        .collect();
    let sink = Arc::new(Mutex::new(Vec::new()));
    let config = EvalConfig { dataset_seed: seed, ..Default::default() };
    let mut experiments = Vec::new();
    let mut grid_wall = 0.0;
    for d in 0..DETECTORS.len() {
        for dataset in &datasets {
            let roster = recorded_roster(&[d], true, &sink);
            let started = Instant::now();
            let mut cell = run_grid(&roster, &[dataset as &dyn Dataset], &config)
                .map_err(|e| format!("run_grid: {e}"))?;
            grid_wall += started.elapsed().as_secs_f64();
            experiments.append(&mut cell);
        }
    }
    let cells = std::mem::take(&mut *sink.lock().expect("sink lock"));

    let mut spans = Spans::default();
    let pipeline = Pipeline::new(PipelineConfig::default()).map_err(|e| e.to_string())?;
    let flow_config = PipelineConfig::default().flow_config;
    let (mut parsed, mut flow_packets, mut kitsune_packets) = (0u64, 0u64, 0u64);
    let (mut label_peak, mut live_peak, mut entity_peak) = (0usize, 0usize, 0usize);
    for dataset in &datasets {
        let packets = dataset.model.materialize(seed);
        for (d, name) in DETECTORS.iter().enumerate() {
            let copy = packets.clone();
            spans.time("net.parse", || {
                black_box(copy.into_iter().map(ParsedView::from_packet).collect::<Vec<_>>())
            });
            parsed += packets.len() as u64;
            let copy = packets.clone();
            let input = spans
                .time("core.prepare", || pipeline.prepare_events(&dataset.model.info().name, copy))
                .map_err(|e| e.to_string())?;
            let train_copy = input.train.packets.clone();
            spans.time("core.train_assemble", || {
                black_box(TrainView::assemble(train_copy, flow_config));
            });
            let format = new_detector(name).expect("roster").input_format();
            if format == InputFormat::Flows {
                let mut assembler = FlowEventAssembler::new(flow_config);
                spans.time("core.assemble", || {
                    for view in &input.eval {
                        assembler.observe(view, |flow| {
                            black_box(flow);
                        });
                    }
                    black_box(assembler.flush());
                });
                label_peak = label_peak.max(assembler.label_entries());
                let mut table = FlowTable::new(flow_config);
                spans.time("flow.table", || {
                    for view in &input.eval {
                        if let Some(p) = &view.parsed {
                            table.observe_with(p, |record| {
                                black_box(record);
                            });
                        }
                    }
                });
                live_peak = live_peak.max(table.active_flows());
                flow_packets += input.eval.len() as u64;
            }
            if *name == "Kitsune" {
                let mut image = AfterImage::new(AfterImageConfig::default());
                let mut features = Vec::new();
                for view in &input.train.packets {
                    if let Some(p) = &view.parsed {
                        image.update_into(p, &mut features);
                    }
                }
                spans.time("flow.afterimage", || {
                    for view in &input.eval {
                        if let Some(p) = &view.parsed {
                            image.update_into(p, &mut features);
                            black_box(&features);
                        }
                    }
                });
                entity_peak = entity_peak.max(image.tracked_entities());
                kitsune_packets += input.eval.len() as u64;
            }
            let cell = cells
                .iter()
                .find(|c| c.detector == d && c.dataset == dataset.index)
                .ok_or("a grid cell recorded no scores")?;
            let policy = ThresholdPolicy::default();
            spans
                .time("core.calibrate", || black_box(policy.calibrate(&cell.scores, &cell.labels)));
            spans.time("core.auc", || black_box(auc(&roc_curve(&cell.scores, &cell.labels))));
        }
    }

    let facts: Vec<_> = grid_models().iter().map(|m| eval_facts(m.as_ref(), seed)).collect();
    let mut failures = Vec::new();
    check_grid(&experiments, &cells, &facts, &mut failures);

    let (generate_calls, generate_s) = *timing.calls.lock().expect("timing lock");
    let fit: f64 = cells.iter().map(|c| c.fit_s).sum();
    let score: f64 = cells.iter().map(|c| c.score_s).sum();
    // run_grid's wall, covered by the wrapped calls plus the replayed
    // internal steps (parse and train assembly are part of prepare; the
    // bare table is part of assembly).
    let covered = generate_s
        + fit
        + score
        + spans.get("core.prepare")
        + spans.get("core.assemble")
        + spans.get("core.calibrate")
        + spans.get("core.auc");
    let mut json = JsonObject::default();
    json.text("workload", "grid")
        .num("wall_s", grid_wall)
        .num("covered_s", covered)
        .num("coverage", covered / grid_wall)
        .int("trafficgen.generate_calls", generate_calls)
        .num("trafficgen.generate_s", generate_s)
        .num("net.parse_ns_per_pkt", spans.get("net.parse") * 1e9 / parsed as f64)
        .num("core.prepare_s", spans.get("core.prepare"))
        .num("core.train_assemble_s", spans.get("core.train_assemble"))
        .num("core.assemble_ns_per_pkt", spans.get("core.assemble") * 1e9 / flow_packets as f64)
        .int("core.label_entries_peak", label_peak as u64)
        .num("core.calibrate_s", spans.get("core.calibrate"))
        .num("core.auc_s", spans.get("core.auc"))
        .num("flow.table_ns_per_pkt", spans.get("flow.table") * 1e9 / flow_packets as f64)
        .int("flow.live_flows_peak", live_peak as u64)
        .num(
            "flow.afterimage_ns_per_pkt",
            spans.get("flow.afterimage") * 1e9 / kitsune_packets as f64,
        )
        .int("flow.afterimage_entities_peak", entity_peak as u64);
    for (d, name) in DETECTORS.iter().enumerate() {
        let mine: Vec<_> = cells.iter().filter(|c| c.detector == d).collect();
        let events: usize = mine.iter().map(|c| c.scores.len()).sum();
        let score_ns = mine.iter().map(|c| c.score_s).sum::<f64>() * 1e9 / events.max(1) as f64;
        json.num(&format!("{}.fit_s", lower(name)), mine.iter().map(|c| c.fit_s).sum())
            .num(&format!("{}.score_ns_per_event", lower(name)), score_ns);
        if *name == "Kitsune" {
            json.num(
                "kitsune.infer_ns_per_pkt",
                score_ns - spans.get("flow.afterimage") * 1e9 / kitsune_packets as f64,
            );
        }
    }
    Ok(RoundOutput { json, failures, scores: Vec::new() })
}
