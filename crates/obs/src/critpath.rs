//! Critical-path analysis over a run's charges.
//!
//! A recorded run keeps every simulated-time charge its devices made, as a
//! [`FlightLog`]: per charge the rank, the training epoch, the seconds and
//! the [`Span`] describing it, each rank's charges in the order it made
//! them, plus the number of collectives the cluster ran. This module holds
//! that log and the post-run analyzer that answers "where does the epoch
//! time go?":
//!
//! * the epoch **critical path** as ordered `(rank, phase, sim-interval)`
//!   segments classified into compute / wire / serialization-quant /
//!   collective-wait / assigner-solve;
//! * per-device **busy-vs-blocked idle fractions**, idle time attributed to
//!   the collective rendezvous that closes every epoch;
//! * a top-k **straggler report** ranking devices by time-on-critical-path.
//!
//! The analyzer replays the trainer's charges exactly: per `(rank, epoch)`
//! it re-folds the charges in the rank's order into a [`TimeBreakdown`] and
//! composes the epoch through the functions the run itself used
//! ([`crate::time`]), so every reported number is bit-identical to the
//! run's own `total_sim_seconds`. How the ranks' charges interleave in the
//! log changes nothing. Everything here is deterministic: same config, same
//! log, same report bytes — at any worker-thread count.

pub use crate::time::Schedule;
use crate::time::{straggler, Span, TimeBreakdown};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One simulated-time charge a device made.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// The charging device's rank.
    pub rank: usize,
    /// Training epoch the charge belongs to.
    pub epoch: usize,
    /// Charged simulated seconds.
    pub seconds: f64,
    /// What was charged — kind (hence the `span.kind.category()` bucket),
    /// layer, bytes, width — which the telemetry view places on a track.
    pub span: Span,
}

/// The record of one run: every charge, and how many collectives ran.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FlightLog {
    /// Device count of the recorded cluster.
    pub num_devices: usize,
    /// Collectives the cluster ran. Every collective is entered by all
    /// devices, so this is also each device's count of collective waits.
    pub collectives: u64,
    /// Every charge, rank by rank, each rank's in the order it charged them.
    pub events: Vec<FlightEvent>,
}

impl FlightLog {
    /// Number of recorded charges.
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
    /// Collective rendezvous the device entered: the log's collective
    /// count, since every collective is entered by all devices.
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

/// Re-folds the log's charges and extracts the classified epoch critical
/// path, the per-device idle profiles and the top-`top_k` straggler
/// ranking.
///
/// Deterministic: the report is a pure function of the log and the
/// schedule, so identical runs yield byte-identical reports at any worker
/// thread count. Any deserialised log is accepted: charges of ranks the log
/// does not declare are skipped, and a negative or NaN charge — which no
/// trainer makes — counts as zero.
pub fn analyze(log: &FlightLog, schedule: Schedule, top_k: usize) -> CritPathReport {
    let n = log.num_devices;
    let declared = || log.events.iter().filter(|ev| ev.rank < n);
    let epochs = declared().map(|ev| ev.epoch + 1).max().unwrap_or(0);
    // Re-fold the charges per (epoch, rank) in each rank's order — the order
    // the trainer charged them, so every f64 addition matches.
    let mut sums = vec![vec![TimeBreakdown::new(); n]; epochs];
    for ev in declared() {
        let phase = ev.span.kind.category();
        sums[ev.epoch][ev.rank].charge(phase, ev.seconds.max(0.0));
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
            collective_waits: log.collectives,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::EventKind;

    fn charge(rank: usize, kind: EventKind, epoch: usize, seconds: f64) -> FlightEvent {
        FlightEvent {
            rank,
            epoch,
            seconds,
            span: Span::new(kind),
        }
    }

    fn two_rank_log() -> FlightLog {
        // rank 0: quant 1, comm 4, central 2, marginal 1 (epoch 0)
        // rank 1: quant 1, comm 2, central 1, marginal 1 (epoch 0)
        FlightLog {
            num_devices: 2,
            collectives: 0,
            events: vec![
                charge(0, EventKind::QuantEncode, 0, 1.0),
                charge(0, EventKind::HaloSend, 0, 4.0),
                charge(0, EventKind::CentralCompute, 0, 2.0),
                charge(0, EventKind::MarginalCompute, 0, 1.0),
                charge(1, EventKind::QuantEncode, 0, 1.0),
                charge(1, EventKind::HaloSend, 0, 2.0),
                charge(1, EventKind::CentralCompute, 0, 1.0),
                charge(1, EventKind::MarginalCompute, 0, 1.0),
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
        // Every collective blocks every device once.
        let mut log = two_rank_log();
        log.collectives = 3;
        let report = analyze(&log, Schedule::Serial, 2);
        assert_eq!(report.devices[0].collective_waits, 3);
        assert_eq!(report.devices[1].collective_waits, 3);
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
            collectives: 0,
            events: vec![
                charge(0, EventKind::HaloSend, 3, -2.0),
                charge(7, EventKind::QuantEncode, 9, 1.0),
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
        log.collectives = 2;
        log.events[1].span.layer = Some(1);
        log.events[1].span.detail.bytes = 300;
        let json = serde_json::to_string(&log).expect("encodes");
        let back: FlightLog = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, log);
        assert_eq!(log.num_events(), 8);
    }
}
