//! Capture fixtures: consecutive full-scale captures of one Table II
//! scenario, each starting one second after the previous one ends, written
//! as a pcap file plus a one-byte-per-packet label file (pcap carries no
//! ground truth).
//!
//! The first `fixed` captures use scenario seeds `0, 1, …`; the first of
//! them is the one whose leading 30% the detector trains on. The run's seed
//! `s` draws the others (scenario seeds `s, s+1, …`). A training capture
//! drawn from `s` made Kitsune's F1 spread by 17.5% of its median over ten
//! seeds, and so did an early evaluation capture: Kitsune's F1 over the
//! whole replay depends on which captures it sees first (scenario seed 2002
//! gives 0.69–0.71 in positions 2–4 and 0.56 last). Those spreads measure
//! the draw, not the program's code.
//!
//! Every figure the output checks compare against — packet, attack and
//! 5-tuple counts — is computed here from the bytes as they are written,
//! with this file's own frame decoder, never with the program's parser.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

use idsbench_core::{AttackKind, Label, LabeledPacket, ScenarioScale};
use idsbench_net::pcap::PcapWriter;
use idsbench_net::{Packet, Timestamp};
use idsbench_stream::{PacketSource, PcapSource};

/// The leading share of the first capture a detector trains on (the split
/// Table IV uses).
pub const TRAIN_FRACTION: f64 = 0.3;

/// Which scenario a capture repeats and how many times.
#[derive(Debug, Clone, Copy)]
pub struct CaptureSpec {
    pub scenario: &'static str,
    pub captures: u64,
    /// Leading captures whose scenario seeds do not depend on the run's.
    pub fixed: u64,
}

/// The facts about a written capture that the checks rely on.
#[derive(Debug, Clone, Default)]
pub struct Meta {
    pub packets: u64,
    /// Leading packets of the first capture used for training.
    pub warmup: u64,
    pub eval_packets: u64,
    pub eval_attacks: u64,
    /// Distinct bidirectional 5-tuples among the evaluation packets.
    pub eval_tuples: u64,
    pub digest: u64,
}

impl Meta {
    fn render(&self) -> String {
        format!(
            "packets {}\nwarmup {}\neval_packets {}\neval_attacks {}\neval_tuples {}\ndigest {:016x}\n",
            self.packets,
            self.warmup,
            self.eval_packets,
            self.eval_attacks,
            self.eval_tuples,
            self.digest
        )
    }

    fn parse(text: &str) -> Option<Meta> {
        let mut meta = Meta::default();
        for line in text.lines() {
            let (key, value) = line.split_once(' ')?;
            match key {
                "packets" => meta.packets = value.parse().ok()?,
                "warmup" => meta.warmup = value.parse().ok()?,
                "eval_packets" => meta.eval_packets = value.parse().ok()?,
                "eval_attacks" => meta.eval_attacks = value.parse().ok()?,
                "eval_tuples" => meta.eval_tuples = value.parse().ok()?,
                "digest" => meta.digest = u64::from_str_radix(value, 16).ok()?,
                _ => return None,
            }
        }
        Some(meta)
    }
}

/// File paths of one capture fixture.
#[derive(Debug, Clone)]
pub struct Fixture {
    pub pcap: PathBuf,
    pub labels: PathBuf,
    pub meta: PathBuf,
}

impl Fixture {
    pub fn at(dir: &Path, spec: CaptureSpec, seed: u64) -> Fixture {
        let stem = format!("{}-x{}-s{}", spec.scenario, spec.captures, seed);
        Fixture {
            pcap: dir.join(format!("{stem}.pcap")),
            labels: dir.join(format!("{stem}.labels")),
            meta: dir.join(format!("{stem}.meta")),
        }
    }

    pub fn read_meta(&self) -> Result<Meta, String> {
        let text = fs::read_to_string(&self.meta)
            .map_err(|e| format!("read {}: {e}", self.meta.display()))?;
        Meta::parse(&text).ok_or_else(|| format!("malformed {}", self.meta.display()))
    }

    /// Opens the capture as the program's lazy pcap source, labelling each
    /// packet from the label file in order.
    pub fn open(&self) -> Result<PcapSource<std::io::BufReader<fs::File>>, String> {
        let labels =
            fs::read(&self.labels).map_err(|e| format!("read {}: {e}", self.labels.display()))?;
        let mut next = 0usize;
        let labeler = Box::new(move |_: &Packet| {
            let label = labels.get(next).map_or(Label::Benign, |&code| decode_label(code));
            next += 1;
            label
        });
        PcapSource::open(&self.pcap, labeler).map_err(|e| e.to_string())
    }

    /// Opens the capture and pulls the warm-up slice off its front.
    pub fn open_split(
        &self,
        meta: &Meta,
    ) -> Result<(Vec<LabeledPacket>, PcapSource<std::io::BufReader<fs::File>>), String> {
        let mut source = self.open()?;
        let mut warmup = Vec::with_capacity(meta.warmup as usize);
        for _ in 0..meta.warmup {
            match source.next_packet().map_err(|e| e.to_string())? {
                Some(packet) => warmup.push(packet),
                None => return Err("capture ends inside its warm-up".to_string()),
            }
        }
        Ok((warmup, source))
    }
}

fn encode_label(label: Label) -> u8 {
    match label {
        Label::Benign => 0,
        Label::Attack(kind) => {
            1 + AttackKind::ALL.iter().position(|&k| k == kind).expect("known attack kind") as u8
        }
    }
}

fn decode_label(code: u8) -> Label {
    match code {
        0 => Label::Benign,
        n => Label::Attack(AttackKind::ALL[usize::from(n) - 1]),
    }
}

/// FNV-1a over the pcap bytes followed by the label bytes.
fn digest(parts: &[&[u8]]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &byte in *part {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// A bidirectional 5-tuple: protocol plus the two (address, port)
/// endpoints in sorted order.
type Tuple = (u8, ([u8; 16], u16), ([u8; 16], u16));

/// Decodes the 5-tuple of an Ethernet II frame carrying IPv4 or IPv6;
/// `None` for anything else. Ports are 0 for protocols without them.
pub fn tuple_of(frame: &[u8]) -> Option<Tuple> {
    let ethertype = u16::from_be_bytes([*frame.get(12)?, *frame.get(13)?]);
    let ip = frame.get(14..)?;
    let (protocol, src, dst, l4) = match ethertype {
        0x0800 => {
            let ihl = usize::from(ip.first()? & 0x0f) * 4;
            let mut src = [0u8; 16];
            let mut dst = [0u8; 16];
            src[..4].copy_from_slice(ip.get(12..16)?);
            dst[..4].copy_from_slice(ip.get(16..20)?);
            (*ip.get(9)?, src, dst, ip.get(ihl..)?)
        }
        0x86dd => {
            let src: [u8; 16] = ip.get(8..24)?.try_into().ok()?;
            let dst: [u8; 16] = ip.get(24..40)?.try_into().ok()?;
            (*ip.get(6)?, src, dst, ip.get(40..)?)
        }
        _ => return None,
    };
    let (sport, dport) = match protocol {
        6 | 17 => (
            u16::from_be_bytes([*l4.first()?, *l4.get(1)?]),
            u16::from_be_bytes([*l4.get(2)?, *l4.get(3)?]),
        ),
        _ => (0, 0),
    };
    let (a, b) = ((src, sport), (dst, dport));
    Some(if a <= b { (protocol, a, b) } else { (protocol, b, a) })
}

/// Generates the capture, writes it unless an identical one is already on
/// disk, and returns its facts plus whether the file was reused.
pub fn make(dir: &Path, spec: CaptureSpec, seed: u64) -> Result<(Meta, bool), String> {
    let scenario = idsbench_trafficgen::spec(spec.scenario)
        .ok_or_else(|| format!("unknown scenario {}", spec.scenario))?;
    let model = scenario.build(ScenarioScale::Full);

    let mut pcap = Vec::new();
    let mut labels = Vec::new();
    let mut meta = Meta::default();
    let mut tuples: HashSet<Tuple> = HashSet::new();
    {
        let mut writer = PcapWriter::new(&mut pcap).map_err(|e| e.to_string())?;
        let mut next_start = 0u64;
        for capture in 0..spec.captures {
            let scenario_seed =
                if capture < spec.fixed { capture } else { seed + capture - spec.fixed };
            let packets: Vec<LabeledPacket> = model.stream(scenario_seed).collect();
            let first = packets.first().ok_or("empty capture")?.packet.ts.as_micros();
            let last = packets.last().ok_or("empty capture")?.packet.ts.as_micros();
            let shift = next_start as i64 - first as i64;
            if capture == 0 {
                meta.warmup = (packets.len() as f64 * TRAIN_FRACTION) as u64;
            }
            for (index, labeled) in packets.iter().enumerate() {
                let ts = (labeled.packet.ts.as_micros() as i64 + shift) as u64;
                let packet = Packet::new(Timestamp::from_micros(ts), labeled.packet.data.clone());
                writer.write_packet(&packet).map_err(|e| e.to_string())?;
                labels.push(encode_label(labeled.label));
                if capture > 0 || index as u64 >= meta.warmup {
                    meta.eval_packets += 1;
                    meta.eval_attacks += u64::from(labeled.label.is_attack());
                    if let Some(tuple) = tuple_of(&packet.data) {
                        tuples.insert(tuple);
                    }
                }
            }
            meta.packets += packets.len() as u64;
            next_start = (last as i64 + shift) as u64 + 1_000_000;
        }
        writer.flush().map_err(|e| e.to_string())?;
    }
    meta.eval_tuples = tuples.len() as u64;
    meta.digest = digest(&[&pcap, &labels]);

    let fixture = Fixture::at(dir, spec, seed);
    let on_disk = match (fs::read(&fixture.pcap), fs::read(&fixture.labels)) {
        (Ok(p), Ok(l)) => Some(digest(&[&p, &l])),
        _ => None,
    };
    let reused = on_disk == Some(meta.digest);
    if !reused {
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        fs::write(&fixture.pcap, &pcap).map_err(|e| e.to_string())?;
        fs::write(&fixture.labels, &labels).map_err(|e| e.to_string())?;
    }
    fs::write(&fixture.meta, meta.render()).map_err(|e| e.to_string())?;
    Ok((meta, reused))
}
