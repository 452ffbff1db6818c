//! Critical-path analysis over the event scheduler's causal flight log.
//!
//! The flight recorder (`comm::flight`) logs every scheduling transition of
//! the discrete-event cluster — device resume and completion, collective
//! front formation and release, and the simulated-time phase advances the
//! trainer charges — each tagged with its causal predecessor (a
//! program-order or collective-rendezvous edge).
//! This module holds the backend-neutral data model for that log plus the
//! post-run analyzer that walks the event DAG to answer "where does the
//! epoch time go?":
//!
//! * the epoch **critical path** as ordered `(rank, phase, sim-interval)`
//!   segments classified into compute / wire / serialization-quant /
//!   collective-wait / assigner-solve;
//! * per-device **busy-vs-blocked idle fractions**, idle time attributed to
//!   the collective rendezvous that closes every epoch, with wait counts
//!   from the recorded collective parks;
//! * a top-k **straggler report** ranking devices by time-on-critical-path.
//!
//! The analyzer replays the trainer's charges exactly: per `(rank, epoch)`
//! it re-folds the recorded phase advances in log order into a
//! [`TimeBreakdown`] and composes the epoch through the functions the run
//! itself used ([`crate::time`]), so every reported number is bit-identical
//! to the run's own `total_sim_seconds`. Everything here is deterministic:
//! same config, same log, same report bytes — at any worker-thread count.

pub use crate::time::Schedule;
use crate::time::{straggler, Span, TimeBreakdown, TimeCategory};
use serde::{Deserialize, Serialize};
use serde_json::{Map, Value};
use std::collections::BTreeMap;

/// What happened at one recorded scheduling transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlightOp {
    /// The device was (re)dispatched by the scheduler.
    Resume,
    /// The device's program returned.
    Done,
    /// The trainer charged `seconds` of simulated `phase` time during
    /// `epoch`, advancing this rank's clock.
    PhaseAdvance,
    /// This rank parked at a collective rendezvous, joining its front
    /// (`collective` names the kind — the recorder's image of
    /// `comm::waitgraph::WaitCause::Collective`).
    CollectiveForm,
    /// The collective front completed and released this rank.
    CollectiveRelease,
}

/// The causal edge kinds connecting flight events into a DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EdgeKind {
    /// Same-rank program order: the previous event of the same device.
    Program,
    /// A collective rendezvous: the park event that completed the front.
    Rendezvous,
}

/// One recorded scheduling transition. Detail fields default to
/// empty/zero and are populated per [`FlightOp`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Global sequence number (scheduler order, 0-based).
    pub seq: u64,
    /// Device rank the event belongs to.
    pub rank: usize,
    /// The rank's simulated clock when the event fired, seconds.
    pub t: f64,
    /// What happened.
    pub op: FlightOp,
    /// Collective kind name for front formation/release events.
    #[serde(default)]
    pub collective: Option<String>,
    /// Charged phase of a [`FlightOp::PhaseAdvance`].
    #[serde(default)]
    pub phase: Option<TimeCategory>,
    /// Training epoch of a [`FlightOp::PhaseAdvance`].
    #[serde(default)]
    pub epoch: Option<usize>,
    /// Charged simulated seconds of a [`FlightOp::PhaseAdvance`].
    #[serde(default)]
    pub seconds: f64,
    /// The rest of a [`FlightOp::PhaseAdvance`]'s charge — kind, layer,
    /// width, per-peer volumes — from which the telemetry spans are
    /// unfolded. The analyzer never reads it.
    #[serde(default)]
    pub span: Option<Box<Span>>,
    /// Kind of the causal edge to `pred`, absent only for each rank's
    /// first event.
    #[serde(default)]
    pub cause: Option<EdgeKind>,
    /// Sequence number of the causal predecessor event.
    #[serde(default)]
    pub pred: Option<u64>,
}

impl FlightEvent {
    /// A bare event with every detail field empty.
    pub fn new(seq: u64, rank: usize, t: f64, op: FlightOp) -> Self {
        FlightEvent {
            seq,
            rank,
            t,
            op,
            collective: None,
            phase: None,
            epoch: None,
            seconds: 0.0,
            span: None,
            cause: None,
            pred: None,
        }
    }

    /// Attaches the causal edge.
    pub fn caused_by(mut self, kind: EdgeKind, pred: u64) -> Self {
        self.cause = Some(kind);
        self.pred = Some(pred);
        self
    }
}

/// The full causal flight log of one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FlightLog {
    /// Device count of the recorded cluster.
    pub num_devices: usize,
    /// Every transition, in scheduler order.
    pub events: Vec<FlightEvent>,
}

impl FlightLog {
    /// Number of recorded events.
    pub fn num_events(&self) -> usize {
        self.events.len()
    }
}

/// Classification of one critical-path segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SegmentClass {
    /// Central or marginal graph computation.
    Compute,
    /// Bytes on the wire (halo exchange + allreduce transfer time).
    Wire,
    /// Quantization / de-quantization (message serialization).
    SerializationQuant,
    /// Blocked at a collective rendezvous for a slower rank.
    CollectiveWait,
    /// The bit-width assigner's solve.
    AssignerSolve,
}

impl SegmentClass {
    /// Every class, in reporting order.
    pub const ALL: [SegmentClass; 5] = [
        SegmentClass::Compute,
        SegmentClass::Wire,
        SegmentClass::SerializationQuant,
        SegmentClass::CollectiveWait,
        SegmentClass::AssignerSolve,
    ];

    /// Kebab-case label used in reports, metrics and tolerances.
    pub fn label(self) -> &'static str {
        match self {
            SegmentClass::Compute => "compute",
            SegmentClass::Wire => "wire",
            SegmentClass::SerializationQuant => "serialization-quant",
            SegmentClass::CollectiveWait => "collective-wait",
            SegmentClass::AssignerSolve => "assigner-solve",
        }
    }
}

/// One ordered segment of the epoch critical path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Rank carrying the path over this interval (the epoch's bottleneck).
    pub rank: usize,
    /// Training epoch the interval belongs to.
    pub epoch: usize,
    /// Classification of the interval.
    pub class: SegmentClass,
    /// Phase label behind the classification (`comm`, `quant`, ...; the
    /// overlapped max-leg reports the winning phase).
    pub phase: String,
    /// Segment start on the cluster-wide simulated clock, seconds.
    pub start: f64,
    /// Segment end, seconds.
    pub end: f64,
    /// Segment length, seconds (folded in path order these reproduce the
    /// epoch time bit-for-bit).
    pub seconds: f64,
}

/// One device's busy-vs-blocked profile over the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Device rank.
    pub rank: usize,
    /// Seconds the device was executing its own schedule.
    pub busy_seconds: f64,
    /// Seconds the device idled at the epoch-closing collective rendezvous
    /// waiting for the bottleneck rank.
    pub idle_seconds: f64,
    /// `idle / (busy + idle)`; 0 for an empty run.
    pub idle_fraction: f64,
    /// Seconds of the critical path carried by this rank (epochs where it
    /// was the bottleneck).
    pub critical_seconds: f64,
    /// Recorded collective-rendezvous blocks (from the flight log).
    pub collective_waits: u64,
}

/// One straggler line: a rank and its share of the critical path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Straggler {
    /// Device rank.
    pub rank: usize,
    /// Seconds of the path carried by this rank.
    pub critical_seconds: f64,
    /// `critical_seconds / total_seconds`; 0 for an empty run.
    pub share: f64,
}

/// The analyzer's output: the classified critical path and the per-device
/// idle profiles of one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CritPathReport {
    /// Schedule the epoch lengths were composed under.
    pub schedule: String,
    /// Device count.
    pub num_devices: usize,
    /// Epoch count.
    pub epochs: usize,
    /// Total critical-path length, seconds (bit-identical to the run's
    /// `total_sim_seconds`).
    pub total_seconds: f64,
    /// The path, ordered by simulated time.
    pub segments: Vec<Segment>,
    /// Path seconds per class label (every class present, zeros included).
    pub class_totals: BTreeMap<String, f64>,
    /// Cluster-wide seconds devices idled at the epoch rendezvous.
    pub collective_wait_seconds: f64,
    /// `collective_wait_seconds / (num_devices * total_seconds)`; the share
    /// of all device-seconds lost to waiting on stragglers.
    pub collective_wait_share: f64,
    /// Per-device busy/idle profiles, by rank.
    pub devices: Vec<DeviceProfile>,
    /// Top-k ranks by time-on-critical-path, descending.
    pub stragglers: Vec<Straggler>,
}

/// Walks the flight log's event DAG and extracts the classified epoch
/// critical path, the per-device idle profiles and the top-`top_k`
/// straggler ranking.
///
/// Deterministic: the report is a pure function of the log and the
/// schedule, so identical runs yield byte-identical reports at any worker
/// thread count. Any deserialised log is accepted: events of ranks the log
/// does not declare are skipped, and a negative or NaN charge — which no
/// recorder writes — counts as zero.
pub fn analyze(log: &FlightLog, schedule: Schedule, top_k: usize) -> CritPathReport {
    let n = log.num_devices;
    let declared = || log.events.iter().filter(|ev| ev.rank < n);
    let epochs = declared()
        .filter(|ev| ev.op == FlightOp::PhaseAdvance)
        .filter_map(|ev| Some(ev.epoch? + 1))
        .max()
        .unwrap_or(0);
    // Re-fold the phase advances per (epoch, rank) in log order — the same
    // order the trainer charged them, so every f64 addition matches.
    let mut sums = vec![vec![TimeBreakdown::new(); n]; epochs];
    let mut collective_waits = vec![0u64; n];
    for ev in declared() {
        match ev.op {
            FlightOp::PhaseAdvance => {
                if let (Some(phase), Some(e)) = (ev.phase, ev.epoch) {
                    sums[e][ev.rank].charge(phase, ev.seconds.max(0.0));
                }
            }
            FlightOp::CollectiveForm => collective_waits[ev.rank] += 1,
            _ => {}
        }
    }

    let mut segments = Vec::new();
    let mut total = 0.0f64;
    let mut class_totals: BTreeMap<String, f64> = SegmentClass::ALL
        .iter()
        .map(|c| (c.label().to_string(), 0.0))
        .collect();
    let mut busy = vec![0.0f64; n];
    let mut idle = vec![0.0f64; n];
    let mut critical = vec![0.0f64; n];
    for (e, devices) in sums.iter().enumerate() {
        let (bottleneck, slowest) = straggler(schedule, devices);
        for (r, tb) in devices.iter().enumerate() {
            let len = tb.total(schedule);
            busy[r] += len;
            idle[r] += slowest - len;
        }
        critical[bottleneck] += slowest;
        let mut cursor = total;
        for (class, label, seconds) in devices[bottleneck].path(schedule) {
            if seconds == 0.0 {
                continue;
            }
            let start = cursor;
            cursor += seconds;
            if let Some(slot) = class_totals.get_mut(class.label()) {
                *slot += seconds;
            }
            segments.push(Segment {
                rank: bottleneck,
                epoch: e,
                class,
                phase: label.to_string(),
                start,
                end: cursor,
                seconds,
            });
        }
        total += slowest;
    }

    let mut devices = Vec::with_capacity(n);
    let mut idle_total = 0.0f64;
    let mut device_total = 0.0f64;
    for r in 0..n {
        let span = busy[r] + idle[r];
        idle_total += idle[r];
        device_total += span;
        devices.push(DeviceProfile {
            rank: r,
            busy_seconds: busy[r],
            idle_seconds: idle[r],
            idle_fraction: if span > 0.0 { idle[r] / span } else { 0.0 },
            critical_seconds: critical[r],
            collective_waits: collective_waits[r],
        });
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|a, b| {
        critical[*b]
            .partial_cmp(&critical[*a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(b))
    });
    let stragglers = order
        .into_iter()
        .take(top_k)
        .map(|r| Straggler {
            rank: r,
            critical_seconds: critical[r],
            share: if total > 0.0 {
                critical[r] / total
            } else {
                0.0
            },
        })
        .collect();

    CritPathReport {
        schedule: schedule.label().to_string(),
        num_devices: n,
        epochs,
        total_seconds: total,
        segments,
        class_totals,
        collective_wait_seconds: idle_total,
        collective_wait_share: if device_total > 0.0 {
            idle_total / device_total
        } else {
            0.0
        },
        devices,
        stragglers,
    }
}

impl CritPathReport {
    /// Human-readable multi-line rendering for CLI / bench output.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "critical path ({} schedule): {} epoch(s) on {} device(s), {:.6} s total\n",
            self.schedule, self.epochs, self.num_devices, self.total_seconds
        ));
        let pct = |part: f64| {
            if self.total_seconds > 0.0 {
                100.0 * part / self.total_seconds
            } else {
                0.0
            }
        };
        let classes: Vec<String> = SegmentClass::ALL
            .iter()
            .map(|c| {
                let secs = self.class_totals.get(c.label()).copied().unwrap_or(0.0);
                format!("{} {:.6}s ({:.1}%)", c.label(), secs, pct(secs))
            })
            .collect();
        out.push_str(&format!("  path classes: {}\n", classes.join(", ")));
        out.push_str(&format!(
            "  cluster idle: {:.6} device-seconds at collective rendezvous ({:.1}% of device time)\n",
            self.collective_wait_seconds,
            100.0 * self.collective_wait_share
        ));
        for d in &self.devices {
            out.push_str(&format!(
                "  rank {}: busy {:.6}s, idle {:.6}s ({:.1}% idle; {} collective waits)\n",
                d.rank,
                d.busy_seconds,
                d.idle_seconds,
                100.0 * d.idle_fraction,
                d.collective_waits
            ));
        }
        let stragglers: Vec<String> = self
            .stragglers
            .iter()
            .map(|s| {
                format!(
                    "rank {} carries {:.6}s ({:.1}%)",
                    s.rank,
                    s.critical_seconds,
                    100.0 * s.share
                )
            })
            .collect();
        out.push_str(&format!("  stragglers: {}\n", stragglers.join(", ")));
        out
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    let mut m = Map::new();
    for (k, v) in fields {
        m.insert(k.to_string(), v);
    }
    Value::Object(m)
}

fn s(text: &str) -> Value {
    Value::String(text.to_string())
}

fn num_u(v: u64) -> Value {
    serde_json::to_value(&v)
}

fn num_f(v: f64) -> Value {
    serde_json::to_value(&v)
}

/// Renders the flight log as a Chrome trace (`chrome://tracing`, Perfetto)
/// with paired `B`/`E` slices for every phase advance *plus* flow (`s`/`f`)
/// arrows along the log's collective-rendezvous edges, so causal
/// dependencies render as arrows between device tracks. Instant events mark
/// the releases so the flow endpoints stay visible.
#[expect(clippy::expect_used, reason = "an in-memory Value always encodes")]
pub fn chrome_trace_flow(log: &FlightLog) -> String {
    let us = |t: f64| num_f(t * 1e6);
    let mut events: Vec<Value> = Vec::new();
    for rank in 0..log.num_devices {
        let pid = num_u(rank as u64);
        events.push(obj(vec![
            ("name", s("process_name")),
            ("ph", s("M")),
            ("pid", pid.clone()),
            ("tid", num_u(0)),
            ("args", obj(vec![("name", s(&format!("rank {rank}")))])),
        ]));
        events.push(obj(vec![
            ("name", s("thread_name")),
            ("ph", s("M")),
            ("pid", pid.clone()),
            ("tid", num_u(0)),
            ("args", obj(vec![("name", s("scheduler"))])),
        ]));
        for p in TimeCategory::ALL {
            events.push(obj(vec![
                ("name", s("thread_name")),
                ("ph", s("M")),
                ("pid", pid.clone()),
                ("tid", num_u(p.index() as u64 + 1)),
                ("args", obj(vec![("name", s(p.label()))])),
            ]));
        }
    }
    // Resolve each seq's (rank, t) for flow endpoints.
    let mut at: BTreeMap<u64, (usize, f64)> = BTreeMap::new();
    for ev in &log.events {
        at.insert(ev.seq, (ev.rank, ev.t));
    }
    for ev in &log.events {
        let pid = num_u(ev.rank as u64);
        match ev.op {
            FlightOp::PhaseAdvance => {
                if let Some(phase) = ev.phase {
                    let tid = num_u(phase.index() as u64 + 1);
                    events.push(obj(vec![
                        ("name", s(phase.label())),
                        ("cat", s("phase")),
                        ("ph", s("B")),
                        ("pid", pid.clone()),
                        ("tid", tid.clone()),
                        ("ts", us(ev.t)),
                        (
                            "args",
                            obj(vec![
                                ("epoch", num_u(ev.epoch.unwrap_or(0) as u64)),
                                ("seconds", num_f(ev.seconds)),
                            ]),
                        ),
                    ]));
                    events.push(obj(vec![
                        ("name", s(phase.label())),
                        ("cat", s("phase")),
                        ("ph", s("E")),
                        ("pid", pid.clone()),
                        ("tid", tid),
                        ("ts", us(ev.t + ev.seconds)),
                    ]));
                }
            }
            FlightOp::CollectiveRelease => {
                let mut args = vec![];
                if let Some(kind) = &ev.collective {
                    args.push(("kind", s(kind)));
                }
                events.push(obj(vec![
                    ("name", s("release")),
                    ("cat", s("event")),
                    ("ph", s("i")),
                    ("s", s("t")),
                    ("pid", pid.clone()),
                    ("tid", num_u(0)),
                    ("ts", us(ev.t)),
                    ("args", obj(args)),
                ]));
            }
            _ => {}
        }
        // Cross-rank causal edges become flow arrows; program-order edges
        // are implicit in the per-track layout.
        let (Some(cause), Some(pred)) = (ev.cause, ev.pred) else {
            continue;
        };
        let cat = match cause {
            EdgeKind::Program => continue,
            EdgeKind::Rendezvous => "rendezvous-edge",
        };
        if let Some((src_rank, src_t)) = at.get(&pred) {
            events.push(obj(vec![
                ("name", s(cat)),
                ("cat", s(cat)),
                ("ph", s("s")),
                ("id", num_u(pred)),
                ("pid", num_u(*src_rank as u64)),
                ("tid", num_u(0)),
                ("ts", us(*src_t)),
            ]));
            events.push(obj(vec![
                ("name", s(cat)),
                ("cat", s(cat)),
                ("ph", s("f")),
                ("bp", s("e")),
                ("id", num_u(pred)),
                ("pid", pid),
                ("tid", num_u(0)),
                ("ts", us(ev.t)),
            ]));
        }
    }
    let doc = obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", s("ms")),
    ]);
    serde_json::to_string_pretty(&doc).expect("trace encodes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn advance(
        seq: u64,
        rank: usize,
        t: f64,
        phase: TimeCategory,
        epoch: usize,
        seconds: f64,
    ) -> FlightEvent {
        let mut ev = FlightEvent::new(seq, rank, t, FlightOp::PhaseAdvance);
        ev.phase = Some(phase);
        ev.epoch = Some(epoch);
        ev.seconds = seconds;
        if seq > 0 {
            ev = ev.caused_by(EdgeKind::Program, seq - 1);
        }
        ev
    }

    fn two_rank_log() -> FlightLog {
        // rank 0: quant 1, comm 4, central 2, marginal 1 (epoch 0)
        // rank 1: quant 1, comm 2, central 1, marginal 1 (epoch 0)
        FlightLog {
            num_devices: 2,
            events: vec![
                advance(0, 0, 0.0, TimeCategory::Quant, 0, 1.0),
                advance(1, 0, 1.0, TimeCategory::Comm, 0, 4.0),
                advance(2, 0, 5.0, TimeCategory::CentralComp, 0, 2.0),
                advance(3, 0, 7.0, TimeCategory::MarginalComp, 0, 1.0),
                advance(4, 1, 0.0, TimeCategory::Quant, 0, 1.0),
                advance(5, 1, 1.0, TimeCategory::Comm, 0, 2.0),
                advance(6, 1, 3.0, TimeCategory::CentralComp, 0, 1.0),
                advance(7, 1, 4.0, TimeCategory::MarginalComp, 0, 1.0),
            ],
        }
    }

    #[test]
    fn serial_path_picks_the_slowest_rank_and_sums_exactly() {
        let report = analyze(&two_rank_log(), Schedule::Serial, 2);
        assert_eq!(report.epochs, 1);
        assert_eq!(report.total_seconds, 8.0);
        assert!(report.segments.iter().all(|seg| seg.rank == 0));
        let folded: f64 = report.segments.iter().map(|seg| seg.seconds).sum();
        assert_eq!(folded, 8.0);
        assert_eq!(report.class_totals["wire"], 4.0);
        assert_eq!(report.class_totals["compute"], 3.0);
        assert_eq!(report.class_totals["serialization-quant"], 1.0);
        assert_eq!(report.class_totals["collective-wait"], 0.0);
        // rank 1 idles 3 of 8 seconds waiting at the rendezvous.
        assert_eq!(report.devices[1].idle_seconds, 3.0);
        assert_eq!(report.devices[1].idle_fraction, 3.0 / 8.0);
        assert_eq!(report.devices[0].idle_seconds, 0.0);
        assert_eq!(report.stragglers[0].rank, 0);
        assert_eq!(report.stragglers[0].share, 1.0);
    }

    #[test]
    fn overlapped_schedule_hides_central_under_comm() {
        let report = analyze(&two_rank_log(), Schedule::Overlapped, 1);
        // rank 0: 1 + max(4, 2) + 1 = 6; rank 1: 1 + max(2, 1) + 1 = 4.
        assert_eq!(report.total_seconds, 6.0);
        let max_leg = report
            .segments
            .iter()
            .find(|seg| seg.class == SegmentClass::Wire)
            .expect("comm wins the max leg");
        assert_eq!(max_leg.seconds, 4.0);
        assert_eq!(report.stragglers.len(), 1);
    }

    #[test]
    fn pipelined_schedule_takes_the_max_leg_first() {
        let report = analyze(&two_rank_log(), Schedule::Pipelined, 2);
        // rank 0: max(4, 3) + 1 = 5; rank 1: max(2, 2) + 1 = 3.
        assert_eq!(report.total_seconds, 5.0);
        assert_eq!(report.segments[0].class, SegmentClass::Wire);
    }

    #[test]
    fn segment_intervals_tile_the_timeline() {
        let report = analyze(&two_rank_log(), Schedule::Serial, 2);
        let mut cursor = 0.0;
        for seg in &report.segments {
            assert_eq!(seg.start, cursor);
            assert!(seg.end > seg.start);
            cursor = seg.end;
        }
        assert_eq!(cursor, report.total_seconds);
    }

    #[test]
    fn wait_counts_come_from_block_events() {
        let mut log = two_rank_log();
        let mut form = FlightEvent::new(8, 1, 5.0, FlightOp::CollectiveForm);
        form.collective = Some("gather".into());
        log.events.push(form);
        let report = analyze(&log, Schedule::Serial, 2);
        assert_eq!(report.devices[1].collective_waits, 1);
        assert_eq!(report.devices[0].collective_waits, 0);
    }

    #[test]
    fn empty_log_yields_an_empty_report_without_nan() {
        let report = analyze(&FlightLog::default(), Schedule::Serial, 3);
        assert_eq!(report.total_seconds, 0.0);
        assert!(report.segments.is_empty());
        assert!(report.devices.is_empty());
        assert_eq!(report.collective_wait_share, 0.0);

        // A log nobody recorded: an undeclared rank, a sparse epoch, a
        // negative charge. Still no panic, no NaN.
        let hostile = FlightLog {
            num_devices: 1,
            events: vec![
                advance(0, 0, 0.0, TimeCategory::Comm, 3, -2.0),
                advance(1, 7, 0.0, TimeCategory::Quant, 9, 1.0),
            ],
        };
        for log in [
            FlightLog {
                num_devices: 0,
                ..hostile.clone()
            },
            hostile,
        ] {
            let report = analyze(&log, Schedule::Overlapped, 3);
            assert_eq!(report.total_seconds, 0.0);
            assert!(report.segments.is_empty());
            assert_eq!(report.collective_wait_share, 0.0);
        }
    }

    #[test]
    fn summary_names_classes_devices_and_stragglers() {
        let report = analyze(&two_rank_log(), Schedule::Serial, 2);
        let text = report.summary();
        assert!(text.contains("serial schedule"), "summary: {text}");
        assert!(text.contains("wire"), "summary: {text}");
        assert!(text.contains("rank 1: busy"), "summary: {text}");
        assert!(text.contains("stragglers: rank 0"), "summary: {text}");
    }

    #[test]
    fn report_round_trips_through_serde() {
        let report = analyze(&two_rank_log(), Schedule::Overlapped, 2);
        let json = serde_json::to_string(&report).expect("encodes");
        let back: CritPathReport = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, report);
    }

    #[test]
    fn flight_log_round_trips_through_serde() {
        let mut log = two_rank_log();
        let mut form = FlightEvent::new(8, 0, 8.0, FlightOp::CollectiveForm);
        form.collective = Some("gather".into());
        log.events.push(form.caused_by(EdgeKind::Program, 3));
        let json = serde_json::to_string(&log).expect("encodes");
        let back: FlightLog = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, log);
        assert_eq!(log.num_events(), 9);
    }

    #[test]
    fn flow_trace_emits_slices_and_flow_arrows() {
        let mut log = two_rank_log();
        let mut form = FlightEvent::new(8, 0, 8.0, FlightOp::CollectiveForm);
        form.collective = Some("gather".into());
        log.events.push(form.caused_by(EdgeKind::Program, 3));
        for (seq, rank) in [(9, 0), (10, 1)] {
            let mut release = FlightEvent::new(seq, rank, 8.0, FlightOp::CollectiveRelease);
            release.collective = Some("gather".into());
            log.events.push(release.caused_by(EdgeKind::Rendezvous, 8));
        }
        let trace = chrome_trace_flow(&log);
        assert!(trace.contains("traceEvents"));
        assert!(trace.contains("\"B\""));
        assert!(trace.contains("\"E\""));
        assert!(trace.contains("\"s\""));
        assert!(trace.contains("\"f\""));
        assert!(trace.contains("rendezvous-edge"));
        let parsed: serde_json::Value = serde_json::from_str(&trace).expect("valid JSON");
        let Some(arr) = parsed.get("traceEvents").and_then(|v| v.as_array()) else {
            panic!("traceEvents missing");
        };
        assert!(!arr.is_empty());
    }
}
