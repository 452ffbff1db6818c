//! The one epoch-time model: how a device's charged phase seconds become
//! an epoch length, and which device sets the cluster's epoch.
//!
//! Each device accumulates simulated seconds into the labeled buckets of a
//! [`TimeBreakdown`] — exactly the decomposition the paper's Fig. 10 reports
//! (communication / computation / quantization, plus the assigner's solve
//! time for the wall-clock breakdown). Three functions, and only these,
//! know how buckets compose (Sec. 3.4):
//!
//! * [`TimeBreakdown::total`] — one device's epoch length under a
//!   [`Schedule`];
//! * [`TimeBreakdown::path`] — the same composition as ordered legs, whose
//!   left fold is `total` bit for bit;
//! * [`straggler`] — the slowest device of an epoch, which sets its length.
//!
//! The trainer's charges, the runner's combination, the critical-path
//! analyzer and every figure binary go through them, so their numbers agree
//! by construction. Next to the buckets sits what one charge carries
//! besides its seconds — [`EventKind`], [`EventDetail`], [`Span`] — the
//! [`Event`] a telemetry view unfolds it into, and [`HostSeconds`], the type
//! a host measurement carries so it cannot be charged. The types live in `obs`
//! because every crate that charges or reads simulated time already depends
//! on it, and every importer names them by this path.

use crate::critpath::SegmentClass;
use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign};

/// Category a slice of simulated time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TimeCategory {
    /// Message transfer time (halo exchange, allreduce).
    Comm,
    /// Central-graph computation (overlappable with `Comm`).
    CentralComp,
    /// Marginal-graph computation (on the critical path after comm).
    MarginalComp,
    /// Quantization + de-quantization kernels.
    Quant,
    /// Bit-width assigner solve + trace gather/scatter.
    Solve,
}

impl TimeCategory {
    /// Every category, in bucket order (the order [`TimeBreakdown`] fields
    /// are declared and the order trace exporters assign track ids).
    pub const ALL: [TimeCategory; 5] = [
        TimeCategory::Comm,
        TimeCategory::CentralComp,
        TimeCategory::MarginalComp,
        TimeCategory::Quant,
        TimeCategory::Solve,
    ];

    /// Stable index of this category in [`TimeCategory::ALL`] (declaration
    /// order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable label (used for trace track names).
    pub fn label(self) -> &'static str {
        match self {
            TimeCategory::Comm => "comm",
            TimeCategory::CentralComp => "central_comp",
            TimeCategory::MarginalComp => "marginal_comp",
            TimeCategory::Quant => "quant",
            TimeCategory::Solve => "solve",
        }
    }
}

/// What a charge, and the [`Event`] spans derived from it, measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// One halo exchange of feature/gradient rows with every peer.
    HaloSend,
    /// Stochastic quantization encode/decode kernel time.
    QuantEncode,
    /// Central-graph (halo-free) compute: aggregation + dense layers.
    CentralCompute,
    /// Marginal-graph compute on the critical path after communication.
    MarginalCompute,
    /// Bit-width assigner solve (trace gather, solver, assignment scatter).
    AssignerSolve,
    /// Gradient all-reduce across devices.
    AllReduce,
}

impl EventKind {
    /// The [`TimeBreakdown`] bucket this kind of event is charged to.
    pub fn category(self) -> TimeCategory {
        match self {
            EventKind::HaloSend | EventKind::AllReduce => TimeCategory::Comm,
            EventKind::QuantEncode => TimeCategory::Quant,
            EventKind::CentralCompute => TimeCategory::CentralComp,
            EventKind::MarginalCompute => TimeCategory::MarginalComp,
            EventKind::AssignerSolve => TimeCategory::Solve,
        }
    }

    /// Stable display name (used in trace exports).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::HaloSend => "halo_send",
            EventKind::QuantEncode => "quant_encode",
            EventKind::CentralCompute => "central_compute",
            EventKind::MarginalCompute => "marginal_compute",
            EventKind::AssignerSolve => "assigner_solve",
            EventKind::AllReduce => "all_reduce",
        }
    }
}

/// Host wall-clock seconds: what the one host stopwatch
/// (`comm::timing::measure`) read while a kernel ran on the machine at
/// hand. Diagnostic only, and kept apart from the simulated clock by type:
/// simulated seconds are plain `f64`, and no `From`/`Into` joins the two.
/// Host seconds add only to host seconds; reading one as a plain number is
/// the named crossing [`HostSeconds::secs`], so every place host time
/// leaves the type can be found by name (DESIGN.md §7 lists them).
///
/// Serialized as a plain number, so event logs read the same bytes.
///
/// ```
/// use obs::time::HostSeconds;
/// let kernel = HostSeconds::from_secs(0.25) + HostSeconds::from_secs(0.5);
/// assert_eq!(kernel.secs(), 0.75);
/// ```
///
/// A measured value does not add to simulated seconds:
///
/// ```compile_fail,E0277
/// use obs::time::HostSeconds;
/// let sim_seconds: f64 = 1.0;
/// let _mixed = sim_seconds + HostSeconds::from_secs(0.25);
/// ```
///
/// nor is it charged to the simulated clock:
///
/// ```compile_fail,E0308
/// use obs::time::{HostSeconds, TimeBreakdown, TimeCategory};
/// let mut tb = TimeBreakdown::new();
/// tb.charge(TimeCategory::Solve, HostSeconds::from_secs(0.25));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct HostSeconds(f64);

impl HostSeconds {
    /// Wraps `secs` read off a host clock — or decoded from bytes a host
    /// clock wrote.
    pub fn from_secs(secs: f64) -> Self {
        HostSeconds(secs)
    }

    /// The seconds as a plain number: the one way out of the type.
    pub fn secs(self) -> f64 {
        self.0
    }
}

impl Add for HostSeconds {
    type Output = HostSeconds;

    fn add(self, rhs: HostSeconds) -> HostSeconds {
        HostSeconds(self.0 + rhs.0)
    }
}

impl AddAssign for HostSeconds {
    fn add_assign(&mut self, rhs: HostSeconds) {
        self.0 += rhs.0;
    }
}

/// Extra context a charge carries next to its kind and seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EventDetail {
    /// Payload bytes moved.
    #[serde(default)]
    pub bytes: u64,
    /// Uniform message bit-width, when one applies (32 = fp32; `None` for
    /// mixed adaptive assignments).
    #[serde(default)]
    pub width_bits: Option<u8>,
    /// Measured host wall-clock seconds of the kernel behind the charge (0
    /// when it is purely analytic). Diagnostic only, never fed back into
    /// the simulated clock — and, like `threads`, kept out of a serialized
    /// flight log, whose bytes are a function of the configuration and not
    /// of the machine that ran it.
    #[serde(skip)]
    pub host_seconds: HostSeconds,
    /// Parallel-runtime thread count while the kernel ran.
    #[serde(skip)]
    pub threads: Option<u32>,
}

/// The span half of one simulated-time charge: what a
/// [`crate::critpath::FlightEvent`] stores beyond the rank, the epoch and
/// the seconds. The charged bucket is `kind.category()`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// What was charged. A halo exchange is one charge of
    /// [`EventKind::HaloSend`] whose `detail.bytes` is all it sent, as an
    /// all-reduce's is.
    pub kind: EventKind,
    /// GNN layer index, when the charge is layer-scoped.
    #[serde(default)]
    pub layer: Option<u32>,
    /// Bytes, width and host-side diagnostics.
    #[serde(default)]
    pub detail: EventDetail,
}

impl Span {
    /// A bare span of `kind`: no layer, no detail.
    pub fn new(kind: EventKind) -> Self {
        Span {
            kind,
            layer: None,
            detail: EventDetail::default(),
        }
    }
}

/// One span on a device's simulated clock: one charge of the flight log
/// placed on its track (`adaqp::TelemetryLog::from_flight`).
///
/// `start`/`end` are simulated seconds since the start of the run on the
/// per-category track clock of the charging device (tracks advance
/// independently, mirroring the overlap model where communication and
/// central compute proceed concurrently).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// What was measured.
    pub kind: EventKind,
    /// Simulated start time in seconds.
    pub start: f64,
    /// Simulated end time in seconds (`start + duration`).
    pub end: f64,
    /// Training epoch the span belongs to.
    pub epoch: u32,
    /// GNN layer index, when the span is layer-scoped.
    #[serde(default)]
    pub layer: Option<u32>,
    /// Payload bytes moved (communication spans) or 0.
    #[serde(default)]
    pub bytes: u64,
    /// Message bit-width, when uniform for the span (32 = fp32; `None` for
    /// mixed adaptive assignments).
    #[serde(default)]
    pub width_bits: Option<u8>,
    /// Measured host wall-clock seconds the kernel behind this span actually
    /// took (0 when the span is purely analytic). Diagnostic only — never fed
    /// back into the simulated clock.
    #[serde(default)]
    pub host_seconds: HostSeconds,
    /// Worker-thread count of the parallel runtime while the span's kernel
    /// ran, when the span wraps a host-side kernel.
    #[serde(default)]
    pub threads: Option<u32>,
}

impl Event {
    /// Span duration in simulated seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// How per-phase seconds compose into one epoch's length — the schedule of
/// the method under test (`core` maps `Method` onto this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Schedule {
    /// Every stage serializes: `quant + comm + central + marginal + solve`.
    Serial,
    /// Central compute hides under comm:
    /// `quant + max(comm, central) + marginal + solve`.
    Overlapped,
    /// Comm pipelines across iterations:
    /// `max(comm, central + marginal) + quant + solve`.
    Pipelined,
}

impl Schedule {
    /// Lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Schedule::Serial => "serial",
            Schedule::Overlapped => "overlapped",
            Schedule::Pipelined => "pipelined",
        }
    }
}

/// Per-category accumulated simulated seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeBreakdown {
    /// Communication seconds.
    pub comm: f64,
    /// Central-graph computation seconds.
    pub central_comp: f64,
    /// Marginal-graph computation seconds.
    pub marginal_comp: f64,
    /// Quantization/de-quantization seconds.
    pub quant: f64,
    /// Assigner solve seconds.
    pub solve: f64,
}

impl TimeBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `seconds` to `category`.
    pub fn charge(&mut self, category: TimeCategory, seconds: f64) {
        debug_assert!(seconds >= 0.0, "cannot charge negative time");
        match category {
            TimeCategory::Comm => self.comm += seconds,
            TimeCategory::CentralComp => self.central_comp += seconds,
            TimeCategory::MarginalComp => self.marginal_comp += seconds,
            TimeCategory::Quant => self.quant += seconds,
            TimeCategory::Solve => self.solve += seconds,
        }
    }

    /// One device's epoch length under `schedule`. The operand order is
    /// part of the contract: every committed simulated time is this sum,
    /// rounded in this order.
    pub fn total(&self, schedule: Schedule) -> f64 {
        match schedule {
            Schedule::Serial => {
                self.quant + self.comm + self.central_comp + self.marginal_comp + self.solve
            }
            Schedule::Overlapped => {
                self.quant + self.comm.max(self.central_comp) + self.marginal_comp + self.solve
            }
            Schedule::Pipelined => self.comm.max(self.total_comp()) + self.quant + self.solve,
        }
    }

    /// The legs of [`TimeBreakdown::total`] in composition order, as
    /// `(class, phase label, seconds)`; adding the seconds left to right
    /// reproduces `total` bit for bit. A `max` leg reports the phase that
    /// won it (`comm` on a tie).
    pub fn path(&self, schedule: Schedule) -> Vec<(SegmentClass, &'static str, f64)> {
        let quant = (SegmentClass::SerializationQuant, "quant", self.quant);
        let marginal = (SegmentClass::Compute, "marginal_comp", self.marginal_comp);
        let solve = (SegmentClass::AssignerSolve, "solve", self.solve);
        // The overlap leg: comm against the compute it hides.
        let max_leg = |comp: f64, comp_label| {
            let (class, label) = if self.comm >= comp {
                (SegmentClass::Wire, "comm")
            } else {
                (SegmentClass::Compute, comp_label)
            };
            (class, label, self.comm.max(comp))
        };
        match schedule {
            Schedule::Serial => vec![
                quant,
                (SegmentClass::Wire, "comm", self.comm),
                (SegmentClass::Compute, "central_comp", self.central_comp),
                marginal,
                solve,
            ],
            Schedule::Overlapped => vec![
                quant,
                max_leg(self.central_comp, "central_comp"),
                marginal,
                solve,
            ],
            Schedule::Pipelined => vec![max_leg(self.total_comp(), "total_comp"), quant, solve],
        }
    }

    /// Total computation (central + marginal).
    pub fn total_comp(&self) -> f64 {
        self.central_comp + self.marginal_comp
    }

    /// Fraction of the serial total spent communicating (Table 1's
    /// "communication cost").
    pub fn comm_fraction(&self) -> f64 {
        let t = self.total(Schedule::Serial);
        if t == 0.0 {
            0.0
        } else {
            self.comm / t
        }
    }
}

/// The device that sets an epoch's length: `(rank, seconds)` of the slowest
/// of `devices` (one breakdown per rank, in rank order) under `schedule`.
/// Ties go to the highest rank, so an all-zero epoch picks the last one; no
/// devices, or none with a non-negative total, yields `(0, 0.0)`.
pub fn straggler<'a>(
    schedule: Schedule,
    devices: impl IntoIterator<Item = &'a TimeBreakdown>,
) -> (usize, f64) {
    let mut slowest = (0usize, 0.0f64);
    for (rank, tb) in devices.into_iter().enumerate() {
        let t = tb.total(schedule);
        if t >= slowest.1 {
            slowest = (rank, t);
        }
    }
    slowest
}

impl Add for TimeBreakdown {
    type Output = TimeBreakdown;

    fn add(self, rhs: TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            comm: self.comm + rhs.comm,
            central_comp: self.central_comp + rhs.central_comp,
            marginal_comp: self.marginal_comp + rhs.marginal_comp,
            quant: self.quant + rhs.quant,
            solve: self.solve + rhs.solve,
        }
    }
}

impl AddAssign for TimeBreakdown {
    fn add_assign(&mut self, rhs: TimeBreakdown) {
        *self = *self + rhs;
    }
}

impl std::fmt::Display for TimeBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "comm {:.4}s, central {:.4}s, marginal {:.4}s, quant {:.4}s, solve {:.4}s",
            self.comm, self.central_comp, self.marginal_comp, self.quant, self.solve
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEDULES: [Schedule; 3] = [Schedule::Serial, Schedule::Overlapped, Schedule::Pipelined];

    /// A non-negative second count from a SplitMix64 stream: spread over
    /// seven decades so sums round, exactly zero one time in eight so `max`
    /// legs tie.
    fn seconds(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        if z.is_multiple_of(8) {
            return 0.0;
        }
        (z >> 11) as f64 / (1u64 << 53) as f64 * 10f64.powi((z % 7) as i32 - 4)
    }

    #[test]
    fn path_folds_to_total_bit_for_bit_and_the_last_slowest_rank_wins() {
        let mut state = 17u64;
        for case in 0..2000 {
            let devices: Vec<TimeBreakdown> = (0..1 + case % 5)
                .map(|_| TimeBreakdown {
                    comm: seconds(&mut state),
                    central_comp: seconds(&mut state),
                    marginal_comp: seconds(&mut state),
                    quant: seconds(&mut state),
                    solve: seconds(&mut state),
                })
                // Repeat every device once, so each epoch has a tie.
                .flat_map(|tb| [tb, tb])
                .collect();
            for schedule in SCHEDULES {
                for tb in &devices {
                    let folded = tb.path(schedule).iter().fold(0.0, |acc, leg| acc + leg.2);
                    let total = tb.total(schedule);
                    assert_eq!(folded.to_bits(), total.to_bits(), "{schedule:?} {tb}");
                }
                let (rank, secs) = straggler(schedule, &devices);
                let totals: Vec<f64> = devices.iter().map(|tb| tb.total(schedule)).collect();
                let max = totals.iter().copied().fold(0.0, f64::max);
                assert_eq!(secs.to_bits(), max.to_bits());
                assert_eq!(Some(rank), totals.iter().rposition(|&t| t == max));
            }
            // A max leg is classified by its winner, comm on a tie.
            let tb = devices[0];
            let class = |comp: f64| {
                if tb.comm >= comp {
                    SegmentClass::Wire
                } else {
                    SegmentClass::Compute
                }
            };
            assert_eq!(tb.path(Schedule::Overlapped)[1].0, class(tb.central_comp));
            assert_eq!(tb.path(Schedule::Pipelined)[0].0, class(tb.total_comp()));
        }
    }

    #[test]
    fn a_serialized_span_leaves_the_host_side_out() {
        let mut span = Span::new(EventKind::HaloSend);
        span.detail = EventDetail {
            bytes: 64,
            width_bits: Some(4),
            host_seconds: HostSeconds::from_secs(0.25),
            threads: Some(8),
        };
        let text = serde_json::to_string(&span).unwrap();
        assert!(!text.contains("host_seconds") && !text.contains("threads"));
        let back: Span = serde_json::from_str(&text).unwrap();
        (span.detail.host_seconds, span.detail.threads) = (HostSeconds::default(), None);
        assert_eq!(back, span);
    }

    #[test]
    fn straggler_edge_cases() {
        let tb = |comm, central_comp, marginal_comp| TimeBreakdown {
            comm,
            central_comp,
            marginal_comp,
            ..TimeBreakdown::new()
        };
        // 2.0 s of comm beats 1.5 s serial; the next epoch's lone 0.25 s
        // makes the run 2.25 s.
        let (rank, t0) = straggler(Schedule::Serial, &[tb(1.0, 0.5, 0.0), tb(2.0, 0.0, 0.0)]);
        assert_eq!((rank, t0), (1, 2.0));
        let (rank, t1) = straggler(Schedule::Serial, &[tb(0.0, 0.0, 0.25), tb(0.0, 0.0, 0.0)]);
        assert_eq!((rank, t0 + t1), (0, 2.25));
        // All-zero epoch: the last rank. No devices: rank 0, zero seconds.
        let idle = [TimeBreakdown::new(); 4];
        assert_eq!(straggler(Schedule::Overlapped, &idle), (3, 0.0));
        assert_eq!(straggler(Schedule::Overlapped, &[]), (0, 0.0));
    }

    #[test]
    fn charge_routes_to_buckets() {
        let mut tb = TimeBreakdown::new();
        tb.charge(TimeCategory::Comm, 1.0);
        tb.charge(TimeCategory::CentralComp, 2.0);
        tb.charge(TimeCategory::MarginalComp, 3.0);
        tb.charge(TimeCategory::Quant, 4.0);
        tb.charge(TimeCategory::Solve, 5.0);
        assert_eq!(tb.comm, 1.0);
        assert_eq!(tb.central_comp, 2.0);
        assert_eq!(tb.marginal_comp, 3.0);
        assert_eq!(tb.quant, 4.0);
        assert_eq!(tb.solve, 5.0);
    }

    #[test]
    fn overlap_hides_smaller_of_comm_and_central() {
        let mut tb = TimeBreakdown::new();
        tb.charge(TimeCategory::Comm, 10.0);
        tb.charge(TimeCategory::CentralComp, 4.0);
        tb.charge(TimeCategory::MarginalComp, 1.0);
        assert_eq!(tb.total(Schedule::Overlapped), 11.0);
        assert_eq!(tb.total(Schedule::Serial), 15.0);
        // When compute dominates, it becomes the critical path.
        let mut tb2 = TimeBreakdown::new();
        tb2.charge(TimeCategory::Comm, 2.0);
        tb2.charge(TimeCategory::CentralComp, 9.0);
        assert_eq!(tb2.total(Schedule::Overlapped), 9.0);
    }

    #[test]
    fn comm_fraction() {
        let mut tb = TimeBreakdown::new();
        tb.charge(TimeCategory::Comm, 3.0);
        tb.charge(TimeCategory::CentralComp, 1.0);
        assert_eq!(tb.comm_fraction(), 0.75);
        assert_eq!(TimeBreakdown::new().comm_fraction(), 0.0);
    }

    #[test]
    fn add_accumulates() {
        let mut a = TimeBreakdown::new();
        a.charge(TimeCategory::Comm, 1.0);
        let mut b = TimeBreakdown::new();
        b.charge(TimeCategory::Comm, 2.0);
        b.charge(TimeCategory::Quant, 0.5);
        a += b;
        assert_eq!(a.comm, 3.0);
        assert_eq!(a.quant, 0.5);
    }
}
