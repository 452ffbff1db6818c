//! The Adaptive Bit-width Assigner (Sec. 3.3 / Sec. 4.2).
//!
//! Every device traces the value ranges of the messages it sends (forward
//! activations and backward embedding gradients). Periodically the traces
//! are gathered at the master (rank 0), which builds one bi-objective
//! problem per GNN layer and direction, solves them in parallel (the paper
//! uses a thread pool for the same reason), and scatters fresh per-message
//! bit-width assignments back to the workers.
//!
//! Both control-plane messages are sparse little-endian binary (layouts on
//! [`encode_trace`] and [`Gathered::round`]): a device names only
//! the peers it exchanges messages with, so a message's size follows that
//! device's own cut, not the size of the fleet.

use crate::config::TrainingConfig;
use crate::decompose::DevicePartition;
use crate::exchange::Direction;
use crate::peers::PeerTable;
use bytes::Bytes;
use comm::{AsyncDevice, CostModel, LinkTier};
use obs::time::HostSeconds;
use quant::codec::{HEADER_BYTES, ROW_OVERHEAD_BYTES};
use quant::BitWidth;
use solver::{GroupSpec, PairShape, SplitProblem, SplitSolution, SplitWidths};
use std::ops::Range;
use tensor::{Matrix, Rng};

/// How widths are chosen at each reassignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignMode {
    /// Solve the bi-objective problem (AdaQP).
    Adaptive,
    /// Sample one width per group uniformly at random (the Sec. 5.3
    /// ablation).
    UniformRandom,
}

/// Per-device bit-width assignment for every layer and direction, held for
/// the device's listed peers only ([`crate::peers`]).
///
/// Both tables cover the messages this device *sends*. The receiver needs
/// no copy: every row of the wire carries its own width (`quant::codec`).
#[derive(Debug, Clone, PartialEq)]
pub struct WidthAssignment {
    /// Forward widths, laid out by `part.send_peers`.
    fwd: PeerTable<BitWidth>,
    /// Backward widths, laid out by `part.recv_peers`.
    bwd: PeerTable<BitWidth>,
}

impl WidthAssignment {
    /// All messages at one fixed width (the "naive message quantization" of
    /// Sec. 3.2 and the starting state before the first solve).
    pub fn fixed(part: &DevicePartition, num_layers: usize, width: BitWidth) -> Self {
        Self {
            fwd: PeerTable::filled(&part.send_peers, num_layers, width),
            bwd: PeerTable::filled(&part.recv_peers, num_layers, width),
        }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.fwd.num_layers()
    }

    /// Widths of the forward messages to peer `q` at `layer`, aligned with
    /// `part.send_sets[q]`: empty for a peer that is not listed.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn fwd(&self, layer: usize, q: usize) -> &[BitWidth] {
        self.fwd.get(layer, q)
    }

    /// Widths of the backward messages to peer `q` at `layer`, aligned with
    /// `part.recv_slots[q]`: empty for a peer that is not listed.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn bwd(&self, layer: usize, q: usize) -> &[BitWidth] {
        self.bwd.get(layer, q)
    }

    /// The table of the messages sent in direction `dir`.
    pub fn table(&self, dir: Direction) -> &PeerTable<BitWidth> {
        match dir {
            Direction::Forward => &self.fwd,
            Direction::Backward => &self.bwd,
        }
    }

    /// Histogram of assigned widths across all layers/directions:
    /// `(num_2bit, num_4bit, num_8bit)`.
    pub fn histogram(&self) -> (usize, usize, usize) {
        let mut h = (0usize, 0usize, 0usize);
        for &w in self.fwd.values().chain(self.bwd.values()) {
            match w {
                BitWidth::B2 => h.0 += 1,
                BitWidth::B4 => h.1 += 1,
                BitWidth::B8 => h.2 += 1,
            }
        }
        h
    }
}

/// All traced data on one device: the last observed `max - min` of every
/// message it sends, for its listed peers only.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Message dimension per layer, shared by both directions.
    dims: Vec<usize>,
    /// Forward ranges, laid out by `part.send_peers`.
    fwd: PeerTable<f32>,
    /// Backward (embedding-gradient) ranges, laid out by `part.recv_peers`.
    bwd: PeerTable<f32>,
}

impl Trace {
    /// Creates an empty trace. `layer_in_dims[l]` is layer `l`'s input
    /// feature dimension (both directions of layer `l` move vectors of that
    /// size).
    pub fn new(part: &DevicePartition, layer_in_dims: &[usize]) -> Self {
        let layers = layer_in_dims.len();
        Self {
            dims: layer_in_dims.to_vec(),
            fwd: PeerTable::filled(&part.send_peers, layers, 1.0),
            bwd: PeerTable::filled(&part.recv_peers, layers, 1.0),
        }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.dims.len()
    }

    /// The ranges of the messages sent in direction `dir`.
    pub fn table(&self, dir: Direction) -> &PeerTable<f32> {
        match dir {
            Direction::Forward => &self.fwd,
            Direction::Backward => &self.bwd,
        }
    }

    /// The ranges of the messages sent in direction `dir`, mutably.
    pub fn table_mut(&mut self, dir: Direction) -> &mut PeerTable<f32> {
        match dir {
            Direction::Forward => &mut self.fwd,
            Direction::Backward => &mut self.bwd,
        }
    }

    /// Records forward message ranges for `layer` from the current local
    /// embedding matrix.
    pub fn record_fwd(&mut self, part: &DevicePartition, layer: usize, x: &Matrix) {
        record(&mut self.fwd, layer, &part.send_sets, |li| {
            x.row(li as usize)
        });
    }

    /// Records backward (embedding-gradient) message ranges for `layer` from
    /// the extended gradient matrix.
    pub fn record_bwd(&mut self, part: &DevicePartition, layer: usize, grad_ext: &Matrix) {
        record(&mut self.bwd, layer, &part.recv_slots, |slot| {
            grad_ext.row(part.num_local() + slot as usize)
        });
    }
}

/// Overwrites `layer` of `table` with the value range of each listed
/// peer's message rows, `sets[q]` naming peer `q`'s rows.
///
/// A row holding ±Inf (or spanning more than `f32::MAX`) has no finite
/// range; it records as the largest finite range of this trace (0 if there
/// is none), so the message is treated as the most sensitive one seen
/// instead of poisoning every `beta` sum it would meet at the master.
fn record<'m>(
    table: &mut PeerTable<f32>,
    layer: usize,
    sets: &[Vec<u32>],
    row_of: impl Fn(u32) -> &'m [f32],
) {
    let mut widest = 0.0f32;
    let mut all_finite = true;
    for (q, ranges) in table.peers_mut(layer) {
        for (range, &row) in ranges.iter_mut().zip(&sets[q]) {
            *range = row_range(row_of(row));
            if range.is_finite() {
                widest = widest.max(*range);
            } else {
                all_finite = false;
            }
        }
    }
    if !all_finite {
        for range in table.layer_mut(layer) {
            if !range.is_finite() {
                *range = widest;
            }
        }
    }
}

/// `max - min` of a traced row, through the codec's 8-lane reduction
/// (bit-identical to the sequential fold, NaN-skipping included). Empty,
/// constant and all-NaN rows have range `0.0`.
fn row_range(row: &[f32]) -> f32 {
    let (mn, mx) = quant::min_max(row);
    if mx <= mn {
        0.0
    } else {
        mx - mn
    }
}

/// Observability record of one reassignment round, identical on every rank
/// (the master broadcasts it alongside the measured solve time).
///
/// Every field but `secs` is a function of the gathered traces and the
/// config alone, the same at any thread count and on any instruction set.
/// The counts say what work the master's round did ([`Gathered::round`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolveStats {
    /// Measured master solve time (host wall-clock; the paper blocks
    /// workers while the master solves, so trainers charge it on every
    /// device).
    pub secs: HostSeconds,
    /// Candidate assignments evaluated across all per-(layer, direction)
    /// solver runs.
    pub iterations: u64,
    /// Sum of the scalarized objectives over the solved problems.
    pub objective_sum: f64,
    /// Number of bi-objective problems solved this round.
    pub problems: u64,
    /// Pair-sections read: one per listed (sender, receiver) of every
    /// (layer, direction).
    pub pairs_read: u64,
    /// Pair-sections whose messages were sorted by `beta` into the order
    /// that carries group widths to messages: those that could still move
    /// when read (the pairs that can move, and any read before the Z floor
    /// rose past them).
    pub pairs_sorted: u64,
    /// Pair-sections given a downgrade schedule: the pairs that can move.
    pub pairs_scheduled: u64,
    /// Moves in those schedules.
    pub moves: u64,
    /// (Z candidate, pair) move counts the sweeps looked up.
    pub evaluations: u64,
    /// Trace bytes the master checked.
    pub trace_bytes: u64,
    /// Reply bytes the master wrote.
    pub reply_bytes: u64,
}

/// Version byte of the solve-stats broadcast ([`SolveStats::to_bytes`]).
const STATS_VERSION: u8 = 1;

/// Length of the solve-stats broadcast: the version byte, then eleven
/// 8-byte fields.
const STATS_BYTES: usize = 1 + 8 * 11;

impl SolveStats {
    /// Packs the stats into the broadcast payload:
    ///
    /// ```text
    /// version u8 (= 1) | secs f64 | objective_sum f64
    /// iterations, problems, pairs_read, pairs_sorted, pairs_scheduled,
    /// moves, evaluations, trace_bytes, reply_bytes: u64 each
    /// ```
    fn to_bytes(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(STATS_BYTES);
        out.push(STATS_VERSION);
        out.extend_from_slice(&self.secs.secs().to_le_bytes());
        out.extend_from_slice(&self.objective_sum.to_le_bytes());
        for count in self.counts() {
            out.extend_from_slice(&count.to_le_bytes());
        }
        out
    }

    /// The nine counts, in wire order.
    fn counts(self) -> [u64; 9] {
        [
            self.iterations,
            self.problems,
            self.pairs_read,
            self.pairs_sorted,
            self.pairs_scheduled,
            self.moves,
            self.evaluations,
            self.trace_bytes,
            self.reply_bytes,
        ]
    }

    /// Parses the broadcast payload written by [`SolveStats::to_bytes`]:
    /// its version, then exactly [`STATS_BYTES`] bytes in all.
    fn from_bytes(raw: &[u8]) -> Result<Self, WireError> {
        let (&version, rest) = raw.split_first().ok_or(WireError::Truncated)?;
        if version != STATS_VERSION {
            return Err(WireError::Version(version));
        }
        match raw.len().cmp(&STATS_BYTES) {
            std::cmp::Ordering::Less => return Err(WireError::Truncated),
            std::cmp::Ordering::Greater => return Err(WireError::TrailingBytes),
            std::cmp::Ordering::Equal => {}
        }
        let (fields, _) = rest.as_chunks::<8>();
        let count = |i: usize| u64::from_le_bytes(fields[2 + i]);
        Ok(SolveStats {
            secs: HostSeconds::from_secs(f64::from_le_bytes(fields[0])),
            objective_sum: f64::from_le_bytes(fields[1]),
            iterations: count(0),
            problems: count(1),
            pairs_read: count(2),
            pairs_sorted: count(3),
            pairs_scheduled: count(4),
            moves: count(5),
            evaluations: count(6),
            trace_bytes: count(7),
            reply_bytes: count(8),
        })
    }

    /// Adds another record's counts and objective sum to this one's.
    fn add(&mut self, other: SolveStats) {
        self.objective_sum += other.objective_sum;
        self.iterations += other.iterations;
        self.problems += other.problems;
        self.pairs_read += other.pairs_read;
        self.pairs_sorted += other.pairs_sorted;
        self.pairs_scheduled += other.pairs_scheduled;
        self.moves += other.moves;
        self.evaluations += other.evaluations;
        self.trace_bytes += other.trace_bytes;
        self.reply_bytes += other.reply_bytes;
    }

    /// One section's solve: its problem's counts and its solution's.
    fn of_section(built: &Section, solution: &SplitSolution) -> Self {
        SolveStats {
            iterations: solution.iterations as u64,
            objective_sum: solution.objective,
            problems: 1,
            pairs_read: built.pairs_read as u64,
            pairs_sorted: built.sorted as u64,
            pairs_scheduled: solution.counts.scheduled as u64,
            moves: solution.counts.moves as u64,
            evaluations: solution.counts.evaluations as u64,
            ..SolveStats::default()
        }
    }
}

/// The step of a reassignment round whose message failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignStage {
    /// The master reading the gathered traces.
    Trace,
    /// A device reading its scattered reply.
    Reply,
    /// A device reading the broadcast solve stats.
    Stats,
}

/// A reassignment round that stopped at a malformed control-plane message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssignError {
    /// Which message.
    pub stage: AssignStage,
    /// What was wrong with it.
    pub cause: WireError,
}

impl std::fmt::Display for AssignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self.stage {
            AssignStage::Trace => "gathered trace",
            AssignStage::Reply => "width reply",
            AssignStage::Stats => "solve-stats broadcast",
        };
        write!(f, "assigner {what} does not decode: {}", self.cause)
    }
}

impl std::error::Error for AssignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.cause)
    }
}

/// Runs one reassignment round (all ranks must call this collectively),
/// overwriting `assignment` in place.
///
/// Returns the round's [`SolveStats`] (identical on every rank; the paper
/// blocks workers while the master solves, so trainers charge the solve time
/// on every device).
///
/// # Errors
///
/// [`AssignError`] if a control-plane message does not decode: on the master
/// a gathered trace (it then leaves the round before the scatter), on any
/// device its reply or the stats broadcast. `assignment` is then exactly as
/// it was.
// One argument over clippy's limit: the collective needs the device, its
// three read-only inputs, the mode with its RNG, and the tables to fill.
#[allow(clippy::too_many_arguments)]
pub async fn reassign(
    dev: &mut AsyncDevice,
    part: &DevicePartition,
    cost: &CostModel,
    trace: &Trace,
    cfg: &TrainingConfig,
    mode: AssignMode,
    rng: &mut Rng,
    assignment: &mut WidthAssignment,
) -> Result<SolveStats, AssignError> {
    match mode {
        AssignMode::UniformRandom => {
            // No coordination needed: each device samples per-group widths
            // for its outgoing messages. (Group structure mirrors the
            // adaptive path so the comparison isolates the *choice* of
            // widths, as in Sec. 5.3.)
            let num_layers = trace.num_layers();
            *assignment = WidthAssignment::fixed(part, num_layers, BitWidth::B8);
            for l in 0..num_layers {
                sample_uniform(&mut assignment.fwd, l, cfg.group_size, rng);
                sample_uniform(&mut assignment.bwd, l, cfg.group_size, rng);
            }
            Ok(SolveStats::default())
        }
        AssignMode::Adaptive => reassign_adaptive(dev, part, cost, trace, cfg, assignment).await,
    }
}

/// Draws one width per group of `group_size` consecutive messages of each
/// listed peer at `layer`, peers ascending.
fn sample_uniform(table: &mut PeerTable<BitWidth>, layer: usize, group_size: usize, rng: &mut Rng) {
    for (_, widths) in table.peers_mut(layer) {
        for group in widths.chunks_mut(group_size.max(1)) {
            group.fill(BitWidth::ALL[rng.below(3)]);
        }
    }
}

async fn reassign_adaptive(
    dev: &mut AsyncDevice,
    part: &DevicePartition,
    cost: &CostModel,
    trace: &Trace,
    cfg: &TrainingConfig,
    assignment: &mut WidthAssignment,
) -> Result<SolveStats, AssignError> {
    let at = |stage| move |cause| AssignError { stage, cause };
    // Step 1-2 (Fig. 6): build and gather per-device betas.
    let own_trace = Bytes::from(encode_trace(&part.send_alpha_sq, trace));
    let gathered = dev.gather(0, own_trace).await;

    // Step 3: master solves one problem per (layer, direction) in parallel.
    let (own, stats_bytes) = if let Some(traces) = gathered {
        let (round, secs) =
            comm::timing::measure(|| Gathered::check(&traces).map(|g| g.round(cost, cfg)));
        let (replies, mut stats) = round.map_err(at(AssignStage::Trace))?;
        stats.secs = secs;
        let payloads = replies.into_iter().map(Bytes::from).collect();
        // Piggy-back the solve stats: broadcast after scatter.
        let own = dev.scatter(0, Some(payloads)).await;
        let stats_b = Bytes::from(stats.to_bytes());
        (own, dev.broadcast(0, Some(stats_b)).await)
    } else {
        let own = dev.scatter(0, None).await;
        (own, dev.broadcast(0, None).await)
    };
    let solve_stats = SolveStats::from_bytes(&stats_bytes).map_err(at(AssignStage::Stats))?;
    assignment
        .decode_into(&own, part.num_parts)
        .map_err(at(AssignStage::Reply))?;
    Ok(solve_stats)
}

/// Why a control-plane message failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The message ends inside a field.
    Truncated,
    /// Bytes remain after the last field.
    TrailingBytes,
    /// A peer id is out of range, repeated or out of ascending order.
    Peer(u32),
    /// A listed peer carries no messages (empty peers are left out).
    EmptyPeer(u32),
    /// A width byte is not 2, 4 or 8.
    Width(u8),
    /// Two devices disagree on the per-layer message dimensions.
    DimsDisagree,
    /// A reply covers a different number of layers than the device trains.
    Layers(u32),
    /// A reply's message count for a peer is not the partition's: the listed
    /// count differs, or a peer with messages is left out.
    Count(u32),
    /// A versioned message carries a version this build does not write.
    Version(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "message ends inside a field"),
            Self::TrailingBytes => write!(f, "bytes remain after the last field"),
            Self::Peer(q) => write!(f, "peer {q} is out of range or out of order"),
            Self::EmptyPeer(q) => write!(f, "peer {q} is listed with no messages"),
            Self::Width(b) => write!(f, "{b} is not a bit-width"),
            Self::DimsDisagree => write!(f, "devices disagree on the layer dimensions"),
            Self::Layers(l) => write!(f, "reply covers {l} layers, not this device's"),
            Self::Count(q) => write!(f, "message count for peer {q} is not the partition's"),
            Self::Version(v) => write!(f, "version {v} is not this build's"),
        }
    }
}

impl std::error::Error for WireError {}

/// Appends a count, id or dimension as a little-endian `u32`.
fn put_u32(out: &mut Vec<u8>, v: usize) {
    assert!(
        v <= u32::MAX as usize,
        "control-plane field {v} overflows u32"
    );
    out.extend_from_slice(&(v as u32).to_le_bytes());
}

/// Cursor over a received message; every read checks what is left.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn u32(&mut self) -> Result<u32, WireError> {
        let (head, rest) = self
            .0
            .split_first_chunk::<4>()
            .ok_or(WireError::Truncated)?;
        self.0 = rest;
        Ok(u32::from_le_bytes(*head))
    }

    /// The next `count` items of `width` bytes each.
    fn items(&mut self, count: u32, width: usize) -> Result<&'a [u8], WireError> {
        let len = (count as usize)
            .checked_mul(width)
            .filter(|&len| len <= self.0.len())
            .ok_or(WireError::Truncated)?;
        let (head, rest) = self.0.split_at(len);
        self.0 = rest;
        Ok(head)
    }

    /// The header of one `(peer, count, payload)` entry: peers ascend
    /// strictly below `n`, and only peers with messages are listed.
    fn peer(&mut self, n: usize, prev: &mut Option<u32>) -> Result<(u32, u32), WireError> {
        let peer = self.u32()?;
        if peer as usize >= n || prev.is_some_and(|p| peer <= p) {
            return Err(WireError::Peer(peer));
        }
        *prev = Some(peer);
        match self.u32()? {
            0 => Err(WireError::EmptyPeer(peer)),
            count => Ok((peer, count)),
        }
    }

    fn finish(self) -> Result<(), WireError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

/// Serializes one device's contribution to the master's problems.
///
/// ```text
/// layers u32 | dim u32 x layers
/// per layer, forward then backward:
///     peers u32 | per peer with messages, ascending: peer u32, count u32, beta f64 x count
/// ```
///
/// A forward `beta_k` is `alpha_sq * D * range^2 / 6` with the sender-side
/// aggregation coefficients `send_alpha_sq[peer][k]`
/// ([`DevicePartition::send_alpha_sq`]). Gradient rows arriving at the owner are
/// accumulated with unit coefficient (the aggregation weights were already
/// applied by `A^T` on the sender), so backward messages use `alpha_sq = 1`.
pub fn encode_trace(send_alpha_sq: &[Vec<f64>], trace: &Trace) -> Vec<u8> {
    let section_len =
        |t: &PeerTable<f32>| -> usize { 4 + 8 * t.layout().len() + 8 * t.layout().num_messages() };
    let layers = trace.num_layers();
    let len = 4 + layers * (4 + section_len(&trace.fwd) + section_len(&trace.bwd));
    let mut out = Vec::with_capacity(len);
    put_u32(&mut out, layers);
    for &dim in &trace.dims {
        put_u32(&mut out, dim);
    }
    let mut put_section = |t: &PeerTable<f32>, l: usize, alpha_sq: Option<&[Vec<f64>]>| {
        let dim = trace.dims[l];
        put_u32(&mut out, t.layout().len());
        for (q, ranges) in t.peers(l) {
            put_u32(&mut out, q);
            put_u32(&mut out, ranges.len());
            for (k, &range) in ranges.iter().enumerate() {
                let a = alpha_sq.map_or(1.0, |a| a[q][k]);
                out.extend_from_slice(&quant::variance::beta(a, dim, range).to_le_bytes());
            }
        }
    };
    for l in 0..layers {
        put_section(&trace.fwd, l, Some(send_alpha_sq));
        put_section(&trace.bwd, l, None);
    }
    out
}

/// The gathered [`encode_trace`] messages, `traces[r]` being rank `r`'s,
/// once the master has checked their framing: where each device's block of
/// each section (`2 * layer + is_backward`) lies in its own message. The
/// betas stay in the message bytes, and each section's solve reads them
/// from there ([`Gathered::round`]).
#[derive(Debug)]
pub struct Gathered<'a> {
    /// Device count (one trace per device).
    n: usize,
    /// Message dims per layer (shared by both directions).
    dims: Vec<u32>,
    /// `blocks[section * n + src]`: device `src`'s block of `section`.
    blocks: Vec<Block<'a>>,
    /// Bytes checked, across every message.
    bytes: usize,
}

/// One device's checked block of one section: its `(peer, count, betas)`
/// entries, peers ascending.
#[derive(Debug, Clone, Copy)]
struct Block<'a> {
    peers: u32,
    entries: &'a [u8],
}

impl<'a> Block<'a> {
    /// The entries' bytes less their `(peer, count)` headers, in betas.
    fn messages(self) -> usize {
        self.entries.len() / 8 - self.peers as usize
    }

    /// Each entry's peer and betas, in wire order.
    fn entries(self) -> impl Iterator<Item = (u32, &'a [[u8; 8]])> {
        let mut rest = self.entries;
        std::iter::from_fn(move || {
            let (peer, tail) = rest.split_first_chunk::<4>()?;
            let (count, tail) = tail.split_first_chunk::<4>()?;
            let (betas, tail) = tail.split_at_checked(8 * u32::from_le_bytes(*count) as usize)?;
            rest = tail;
            Some((u32::from_le_bytes(*peer), betas.as_chunks::<8>().0))
        })
    }
}

/// One section's problem as the solver takes it ([`SplitProblem`]), with
/// the sort order of each pair that can move, through which the solver's
/// group widths reach its messages. Every other pair's messages all take
/// one width (8 bits, or a uniform assignment's), so it keeps no order.
#[derive(Debug)]
pub struct Section {
    group_size: usize,
    /// The pairs that can move, ascending, each by its position among the
    /// section's pairs (senders ascending, then receivers).
    moving: Vec<u32>,
    /// Per pair that can move, in turn: sorted position -> message index.
    order: Vec<u32>,
    /// Pairs in the section.
    pairs_read: usize,
    /// Pairs sorted into a message order: those held whole.
    sorted: usize,
    problem: SplitProblem,
}

impl Section {
    /// Solves the section's problem.
    pub fn solve(&self) -> SplitSolution {
        self.problem.solve()
    }
}

impl<'a> Gathered<'a> {
    /// Checks every message in full (headers, peer lists, counts, lengths,
    /// nothing trailing) before anything is solved.
    pub fn check<B: AsRef<[u8]>>(traces: &'a [B]) -> Result<Self, WireError> {
        let n = traces.len();
        let mut readers: Vec<Reader> = traces.iter().map(|t| Reader(t.as_ref())).collect();
        let bytes = readers.iter().map(|r| r.0.len()).sum();
        let mut dims: Option<Vec<u32>> = None;
        for r in &mut readers {
            let layers = r.u32()?;
            let own: Vec<u32> = (0..layers).map(|_| r.u32()).collect::<Result<_, _>>()?;
            if *dims.get_or_insert_with(|| own.clone()) != own {
                return Err(WireError::DimsDisagree);
            }
        }
        let dims = dims.unwrap_or_default();
        let mut blocks = Vec::with_capacity(2 * dims.len() * n);
        // Each message lists its sections in order, so reading section `s`
        // from every device in turn leaves the blocks section-major.
        for _ in 0..2 * dims.len() {
            for r in &mut readers {
                let (peers, entries) = (r.u32()?, r.0);
                let mut prev = None;
                for _ in 0..peers {
                    let (_, count) = r.peer(n, &mut prev)?;
                    r.items(count, 8)?;
                }
                let entries = &entries[..entries.len() - r.0.len()];
                blocks.push(Block { peers, entries });
            }
        }
        readers.into_iter().try_for_each(Reader::finish)?;
        Ok(Self {
            n,
            dims,
            blocks,
            bytes,
        })
    }

    /// Number of (layer, direction) problems: two per layer.
    pub fn num_sections(&self) -> usize {
        2 * self.dims.len()
    }

    fn blocks_of(&self, section: usize) -> &[Block<'a>] {
        &self.blocks[section * self.n..(section + 1) * self.n]
    }

    /// Builds one section's bi-objective problem from the trace bytes, in
    /// one pass over its pairs (one per listed sender and receiver, senders
    /// ascending). Each pair's messages form groups of `cfg.group_size` in
    /// beta-descending order, and each group's beta is summed in that
    /// order. With one or two messages the order needs no sort (`a + b`
    /// rounds the same either way round); with more, the betas' values are
    /// sorted, not the messages.
    ///
    /// Only the pairs that can move need their messages in that order, to
    /// carry group widths to messages, and only their groups are held
    /// ([`SplitProblem`]). Whether a pair can move depends on its link and
    /// message count alone, which fix its size at every width (every pair
    /// on one tier with one count has one size, worked out once), and on
    /// the Z floor, known only once every pair is read: a pair that could
    /// still move when read is sorted and held, and only the orders of
    /// those that can move are kept.
    pub fn section(&self, section: usize, cost: &CostModel, cfg: &TrainingConfig) -> Section {
        let group_size = cfg.group_size.max(1);
        let dim = f64::from(self.dims[section / 2]);
        let bytes_per_bit = |len: usize| len as f64 * dim / 8.0;
        // A pair's size: its full groups, then at most one short one.
        let shape = |tier: LinkTier, count: usize| {
            let (theta, gamma) = cost.tier_params(tier);
            // Fold fixed wire overhead into gamma.
            let overhead = HEADER_BYTES + count * ROW_OVERHEAD_BYTES;
            let (full, short) = (count / group_size, count % group_size);
            let groups = std::iter::repeat_n(bytes_per_bit(group_size), full)
                .chain((short > 0).then(|| bytes_per_bit(short)));
            PairShape::new(theta, gamma + theta * overhead as f64, groups)
        };
        // Sizes by (count, tier) for counts below `MEMO`, which covers
        // nearly every pair; a larger count is worked out for its own pair.
        // This memo and the one- and two-message arms below each save
        // `build` time beyond the host's spread (EXPERIMENTS.md, "the fast
        // paths and the running floor, measured").
        const MEMO: usize = 256;
        let mut shapes: Vec<Option<PairShape>> = vec![None; 4 * MEMO];
        let mut shape_of =
            |tier: LinkTier, count: usize| match shapes.get_mut(count * 4 + tier.index()) {
                Some(memo) => *memo.get_or_insert_with(|| shape(tier, count)),
                None => shape(tier, count),
            };
        let mut built = Section {
            group_size,
            moving: Vec::new(),
            order: Vec::new(),
            pairs_read: 0,
            sorted: 0,
            problem: SplitProblem::new(cfg.lambda.clamp(0.0, 1.0)),
        };
        // The pairs held whole, which may move: each with its span of
        // `order`, where its messages are sorted by beta, descending.
        let mut held: Vec<(usize, Range<usize>)> = Vec::new();
        let mut sorted: Vec<f64> = Vec::new();
        let blocks = self.blocks_of(section).iter().enumerate();
        for (src, (dst, betas)) in blocks.flat_map(|(src, b)| b.entries().map(move |e| (src, e))) {
            let tier = cost.link_tier(src, dst as usize);
            let pair = built.problem.place(shape_of(tier, betas.len()));
            if pair.held() {
                let beta = |k: &u32| f64::from_le_bytes(betas[*k as usize]);
                let at = built.order.len();
                built.order.extend(0..betas.len() as u32);
                built.order[at..].sort_by(|a, b| beta(b).total_cmp(&beta(a)));
                held.push((built.pairs_read, at..built.order.len()));
                let groups = built.order[at..].chunks(group_size).map(|group| GroupSpec {
                    beta: group.iter().map(beta).sum(),
                    bytes_per_bit: bytes_per_bit(group.len()),
                });
                built.problem.push(pair, groups);
            } else {
                let value = |b: &[u8; 8]| f64::from_le_bytes(*b);
                let mut two = [0.0; 2];
                let values: &[f64] = match betas {
                    [a] => {
                        two[0] = value(a);
                        &two[..1]
                    }
                    [a, b] => {
                        let (a, b) = (value(a), value(b));
                        two = if b.total_cmp(&a).is_gt() {
                            [b, a]
                        } else {
                            [a, b]
                        };
                        &two
                    }
                    more => {
                        sorted.clear();
                        sorted.extend(more.iter().map(value));
                        // Equal under `total_cmp` is equal bits, so an
                        // unstable sort leaves the same sequence.
                        sorted.sort_unstable_by(|a, b| b.total_cmp(a));
                        &sorted
                    }
                };
                let groups = values.chunks(group_size).map(|group| GroupSpec {
                    beta: group.iter().sum(),
                    bytes_per_bit: bytes_per_bit(group.len()),
                });
                built.problem.push(pair, groups);
            }
            built.pairs_read += 1;
        }
        // Keep the orders of the pairs that can move, in turn.
        built.sorted = held.len();
        let mut order = Vec::new();
        let mut held = held.into_iter();
        for pair in built.problem.moving() {
            if let Some((_, span)) = held.find(|(p, _)| *p == pair) {
                built.moving.push(pair as u32);
                order.extend_from_slice(&built.order[span]);
            }
        }
        built.order = order;
        built
    }

    /// Solves every section and writes one reply per device, each section
    /// from trace bytes to reply bytes in one task on the shared kernel
    /// pool (the paper uses a thread pool on the master for the same
    /// reason). Returns the replies and the round's stats with `secs` left
    /// zero for the caller to fill in from its own timer.
    ///
    /// ```text
    /// layers u32
    /// per layer: forward sent, backward sent:
    ///     peers u32 | per peer with messages, ascending: peer u32, count u32, width u8 x count
    /// ```
    ///
    /// Each pair's widths go to its sender only: the receiver reads them
    /// off the wire, where every row carries its own width.
    pub fn round(&self, cost: &CostModel, cfg: &TrainingConfig) -> (Vec<Vec<u8>>, SolveStats) {
        let mut replies = Vec::new();
        let mut solved = vec![SolveStats::default(); self.num_sections()];
        let tasks: Vec<_> = solved
            .iter_mut()
            .zip(self.reply_blocks(&mut replies))
            .enumerate()
            .collect();
        // Work: one unit per traced message, which every problem reads and
        // sums — a low count, so a small round stays on this thread. The
        // pool runs no more workers than tasks or cores.
        let messages = self.blocks.iter().map(|b| b.messages()).sum();
        tensor::par::run_tasks(tasks, messages, |(section, (slot, out))| {
            let built = self.section(section, cost, cfg);
            let solution = built.solve();
            self.write(section, &built, &solution, out);
            *slot = SolveStats::of_section(&built, &solution);
        });
        let mut stats = SolveStats {
            trace_bytes: self.bytes as u64,
            reply_bytes: replies.iter().map(Vec::len).sum::<usize>() as u64,
            ..SolveStats::default()
        };
        // Section by section, so the objective sum's rounding does not
        // depend on which worker finished first.
        for section in solved {
            stats.add(section);
        }
        (replies, stats)
    }

    /// [`Gathered::round`]'s replies from sections built and solved already,
    /// `sections[s]` and `solutions[s]` being section `s`'s.
    pub fn encode_replies(
        &self,
        sections: &[Section],
        solutions: &[SplitSolution],
    ) -> Vec<Vec<u8>> {
        let mut replies = Vec::new();
        for (s, out) in self.reply_blocks(&mut replies).into_iter().enumerate() {
            self.write(s, &sections[s], &solutions[s], out);
        }
        replies
    }

    /// Fills `replies` with one zeroed reply per device, its layer count
    /// written, and cuts out the blocks [`Gathered::write`] fills,
    /// `[section][src]`: each as long as the trace's block with one width
    /// byte per message in place of a beta.
    fn reply_blocks<'r>(&self, replies: &'r mut Vec<Vec<u8>>) -> Vec<Vec<&'r mut [u8]>> {
        let len = |b: &Block| 4 + 8 * b.peers as usize + b.messages();
        *replies = (0..self.n)
            .map(|src| {
                let own = self.blocks[src..].iter().step_by(self.n);
                let bytes = 4 + own.map(len).sum::<usize>();
                let mut reply = Vec::with_capacity(bytes);
                put_u32(&mut reply, self.dims.len());
                reply.resize(bytes, 0);
                reply
            })
            .collect();
        let mut rests: Vec<&mut [u8]> = replies.iter_mut().map(|r| &mut r[4..]).collect();
        self.blocks
            .chunks(self.n.max(1))
            .map(|blocks| {
                let cut = |(b, rest): (&Block, &mut &'r mut [u8])| {
                    let (block, tail) = std::mem::take(rest).split_at_mut(len(b));
                    *rest = tail;
                    block
                };
                blocks.iter().zip(&mut rests).map(cut).collect()
            })
            .collect()
    }

    /// Writes `section`'s entries with `solution`'s widths into each
    /// sender's block `out[src]`: a pair that can move through its sort
    /// order, any other pair one width for every message.
    fn write(
        &self,
        section: usize,
        built: &Section,
        solution: &SplitSolution,
        out: Vec<&mut [u8]>,
    ) {
        let (mut moved, fill) = match &solution.widths {
            SplitWidths::Moved(widths) => (Some(&widths[..]), BitWidth::B8),
            &SplitWidths::Uniform(w) => (None, w),
        };
        let (mut moving, mut order) = (built.moving.iter().peekable(), &built.order[..]);
        let mut pair = 0u32;
        for (block, reply) in self.blocks_of(section).iter().zip(out) {
            let (peers, mut rest) = reply.split_at_mut(4);
            peers.copy_from_slice(&block.peers.to_le_bytes());
            for (dst, betas) in block.entries() {
                let count = betas.len();
                let (entry, tail) = rest.split_at_mut(8 + count);
                rest = tail;
                entry[..4].copy_from_slice(&dst.to_le_bytes());
                entry[4..8].copy_from_slice(&(count as u32).to_le_bytes());
                let widths = &mut entry[8..];
                let sorted = moving.next_if_eq(&&pair).map(|_| {
                    let (own, later) = order.split_at(count);
                    order = later;
                    own
                });
                pair += 1;
                match (sorted, &mut moved) {
                    (Some(sorted), Some(groups)) => {
                        let (own, later) = groups.split_at(count.div_ceil(built.group_size));
                        *groups = later;
                        for (group, w) in sorted.chunks(built.group_size).zip(own) {
                            for &k in group {
                                widths[k as usize] = w.bits() as u8;
                            }
                        }
                    }
                    _ => widths.fill(fill.bits() as u8),
                }
            }
        }
    }
}

impl WidthAssignment {
    /// Overwrites every table with the master's reply ([`Gathered::round`])
    /// on a device of an `n`-device cluster.
    ///
    /// The reply is checked in full — framing, then against the tables'
    /// own shape, which [`WidthAssignment::fixed`] took from the partition:
    /// the same layers, every listed peer with exactly as many widths as it
    /// has messages, no peer with messages left out, every width 2, 4 or
    /// 8. One walk checks it and copies its width bytes into a scratch laid
    /// out like the reply; only a reply that passes is converted into the
    /// tables, so on `Err` they are exactly as they were.
    pub fn decode_into(&mut self, raw: &[u8], n: usize) -> Result<(), WireError> {
        let mut r = Reader(raw);
        let layers = r.u32()?;
        // Every layer holds at least its two peer counts.
        if layers as usize > r.0.len() / 8 {
            return Err(WireError::Truncated);
        }
        if [&self.fwd, &self.bwd]
            .iter()
            .any(|t| t.num_layers() != layers as usize)
        {
            return Err(WireError::Layers(layers));
        }
        let messages = self.fwd.layout().num_messages() + self.bwd.layout().num_messages();
        // The reply's width bytes, checked, in reply order: per layer, the
        // forward arena's, then the backward arena's.
        let mut scratch: Vec<u8> = Vec::with_capacity(messages * layers as usize);
        for _ in 0..layers {
            for layout in [self.fwd.layout(), self.bwd.layout()] {
                // The listed peers not yet matched, ascending: the reply
                // must name each, in order, with its message count.
                let mut listed = layout.iter().peekable();
                let mut prev = None;
                for _ in 0..r.u32()? {
                    let (peer, count) = r.peer(n, &mut prev)?;
                    let bytes = r.items(count, 1)?;
                    if let Some((skipped, _)) = listed.next_if(|(q, _)| *q < peer as usize) {
                        return Err(WireError::Count(skipped as u32));
                    }
                    match listed.next_if(|(q, _)| *q == peer as usize) {
                        Some((_, span)) if span.len() == bytes.len() => {
                            if let Some(&b) = bytes.iter().find(|&&b| !matches!(b, 2 | 4 | 8)) {
                                return Err(WireError::Width(b));
                            }
                            scratch.extend_from_slice(bytes);
                        }
                        _ => return Err(WireError::Count(peer)),
                    }
                }
                if let Some((skipped, _)) = listed.next() {
                    return Err(WireError::Count(skipped as u32));
                }
            }
        }
        r.finish()?;
        let mut rest = &scratch[..];
        for l in 0..layers as usize {
            for table in [&mut self.fwd, &mut self.bwd] {
                let arena = table.layer_mut(l);
                let (own, later) = rest.split_at(arena.len());
                for (slot, &b) in arena.iter_mut().zip(own) {
                    *slot = match b {
                        2 => BitWidth::B2,
                        4 => BitWidth::B4,
                        _ => BitWidth::B8,
                    };
                }
                rest = later;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peers::PeerLayout;
    use gnn::ConvKind;
    use graph::DatasetSpec;
    use proptest::prelude::*;
    use solver::{solve, BiObjectiveProblem, PairSpec, Solution};

    /// Every device's traced betas decoded into one flat table of directed
    /// device pairs, grouped by section and, within a section, ascending by
    /// sender then receiver: the master's round as it ran before it went
    /// from trace bytes to reply bytes in one pass (decode every beta, build
    /// each section from the table, solve, expand the group widths into a
    /// per-message table per section, encode the replies from those), kept
    /// as the oracle [`Gathered`] is pinned to ([`staged_round`]).
    #[derive(Debug, Clone, PartialEq)]
    struct PairTable {
        n: usize,
        dims: Vec<u32>,
        /// Section `s` owns pairs `section_start[s]..section_start[s + 1]`.
        section_start: Vec<usize>,
        /// `(sender, receiver)` of every pair.
        ends: Vec<(u32, u32)>,
        /// Pair `p`'s betas are `betas[beta_start[p]..beta_start[p + 1]]`.
        beta_start: Vec<usize>,
        betas: Vec<f64>,
    }

    impl PairTable {
        fn decode<B: AsRef<[u8]>>(traces: &[B]) -> Result<Self, WireError> {
            let n = traces.len();
            let mut readers: Vec<Reader> = traces.iter().map(|t| Reader(t.as_ref())).collect();
            let mut dims: Option<Vec<u32>> = None;
            for r in &mut readers {
                let layers = r.u32()?;
                let own: Vec<u32> = (0..layers).map(|_| r.u32()).collect::<Result<_, _>>()?;
                if *dims.get_or_insert_with(|| own.clone()) != own {
                    return Err(WireError::DimsDisagree);
                }
            }
            let mut table = Self {
                n,
                dims: dims.unwrap_or_default(),
                section_start: Vec::new(),
                ends: Vec::new(),
                beta_start: vec![0],
                betas: Vec::new(),
            };
            for _ in 0..2 * table.dims.len() {
                table.section_start.push(table.ends.len());
                for (src, r) in readers.iter_mut().enumerate() {
                    let mut prev = None;
                    for _ in 0..r.u32()? {
                        let (dst, count) = r.peer(n, &mut prev)?;
                        let (betas, _) = r.items(count, 8)?.as_chunks::<8>();
                        table
                            .betas
                            .extend(betas.iter().map(|b| f64::from_le_bytes(*b)));
                        table.ends.push((src as u32, dst));
                        table.beta_start.push(table.betas.len());
                    }
                }
            }
            table.section_start.push(table.ends.len());
            readers.into_iter().try_for_each(Reader::finish)?;
            Ok(table)
        }

        fn num_sections(&self) -> usize {
            self.section_start.len() - 1
        }

        fn pairs_of(&self, section: usize) -> std::ops::Range<usize> {
            self.section_start[section]..self.section_start[section + 1]
        }

        fn betas_of(&self, p: usize) -> &[f64] {
            &self.betas[self.beta_start[p]..self.beta_start[p + 1]]
        }

        /// One section's problem, one `PairSpec` per pair, and per pair the
        /// sorted position -> message index map, laid out like the
        /// section's betas.
        fn build(
            &self,
            section: usize,
            cost: &CostModel,
            cfg: &TrainingConfig,
        ) -> (BiObjectiveProblem, Vec<u32>) {
            let group_size = cfg.group_size.max(1);
            let dim = self.dims[section / 2] as usize;
            let mut order: Vec<u32> = Vec::new();
            let pairs = self
                .pairs_of(section)
                .map(|p| {
                    let betas = self.betas_of(p);
                    let at = order.len();
                    order.extend(0..betas.len() as u32);
                    let sorted = &mut order[at..];
                    sorted.sort_by(|&a, &b| betas[b as usize].total_cmp(&betas[a as usize]));
                    let (src, dst) = self.ends[p];
                    let (theta, gamma) = cost.link_params(src as usize, dst as usize);
                    let overhead = HEADER_BYTES + betas.len() * ROW_OVERHEAD_BYTES;
                    PairSpec {
                        theta,
                        gamma: gamma + theta * overhead as f64,
                        groups: sorted
                            .chunks(group_size)
                            .map(|group| GroupSpec {
                                beta: group.iter().map(|&k| betas[k as usize]).sum(),
                                bytes_per_bit: group.len() as f64 * dim as f64 / 8.0,
                            })
                            .collect(),
                    }
                })
                .collect();
            (BiObjectiveProblem::new(pairs, cfg.lambda), order)
        }

        /// Expands `solution` of section `section`'s problem into one bit
        /// count per message, laid out like the section's betas.
        fn message_widths(
            &self,
            section: usize,
            group_size: usize,
            order: &[u32],
            solution: &Solution,
        ) -> Vec<u8> {
            let pairs = self.pairs_of(section);
            let base = self.beta_start[pairs.start];
            let mut out = vec![0u8; order.len()];
            for (i, p) in pairs.enumerate() {
                let at = self.beta_start[p] - base;
                let order = &order[at..at + self.betas_of(p).len()];
                for (pos, &k) in order.iter().enumerate() {
                    out[at + k as usize] = solution.widths[i][pos / group_size].bits() as u8;
                }
            }
            out
        }

        /// One reply per device from every section's per-message widths.
        fn encode_replies(&self, widths: &[Vec<u8>]) -> Vec<Vec<u8>> {
            let mut replies = vec![Vec::new(); self.n];
            for reply in &mut replies {
                put_u32(reply, self.dims.len());
            }
            for (section, widths) in widths.iter().enumerate() {
                let pairs = self.pairs_of(section);
                let base = self.beta_start[pairs.start];
                let mut sent = pairs.start;
                for (rank, reply) in replies.iter_mut().enumerate() {
                    let run = self.ends[sent..pairs.end]
                        .iter()
                        .take_while(|&&(src, _)| src as usize == rank)
                        .count();
                    put_u32(reply, run);
                    for p in sent..sent + run {
                        put_u32(reply, self.ends[p].1 as usize);
                        put_u32(reply, self.betas_of(p).len());
                        reply.extend_from_slice(
                            &widths[self.beta_start[p] - base..self.beta_start[p + 1] - base],
                        );
                    }
                    sent += run;
                }
            }
            replies
        }
    }

    /// The master's round through [`PairTable`]: decode, then per section
    /// build, solve and expand, then encode.
    fn staged_round(
        traces: &[Vec<u8>],
        cost: &CostModel,
        cfg: &TrainingConfig,
    ) -> Result<(Vec<Vec<u8>>, SolveStats), WireError> {
        let table = PairTable::decode(traces)?;
        let mut stats = SolveStats::default();
        let mut widths = Vec::new();
        for section in 0..table.num_sections() {
            let (problem, order) = table.build(section, cost, cfg);
            let solution = solve(&problem);
            widths.push(table.message_widths(section, cfg.group_size.max(1), &order, &solution));
            stats.iterations += solution.iterations as u64;
            stats.objective_sum += solution.objective;
            stats.problems += 1;
        }
        Ok((table.encode_replies(&widths), stats))
    }

    /// `round`'s stats with the objective sum as bits (`==` on `f64` would
    /// let `-0.0` pass for `0.0`).
    fn stat_bits(stats: SolveStats) -> (u64, u64, u64) {
        (
            stats.iterations,
            stats.objective_sum.to_bits(),
            stats.problems,
        )
    }

    /// The counts a round over `table` reports, restated from the staged
    /// oracle's problems: pair-sections read, sorted, scheduled, and moves.
    /// A pair can move when `lambda < 1` and its all-8-bit bytes overshoot
    /// what fits the Z floor, the slowest all-2-bit time; each such pair is
    /// scheduled, with two moves per group that carries bytes. A pair is
    /// sorted into a message order when it could still move when read:
    /// against the slowest all-2-bit time up to and including its own.
    fn staged_counts(table: &PairTable, cost: &CostModel, cfg: &TrainingConfig) -> [u64; 4] {
        let [mut read, mut sorted, mut scheduled, mut moves] = [0u64; 4];
        for section in 0..table.num_sections() {
            let (problem, _) = table.build(section, cost, cfg);
            let needs_move = |p: &PairSpec, floor: f64| {
                let fits = if p.theta > 0.0 {
                    (floor - p.gamma) / p.theta
                } else {
                    f64::INFINITY
                };
                let bytes8: f64 = p.groups.iter().map(|g| g.bytes_at(BitWidth::B8)).sum();
                problem.lambda < 1.0 && bytes8 - fits > 0.0
            };
            let z_floor = problem
                .pairs
                .iter()
                .map(PairSpec::min_time)
                .fold(0.0, f64::max);
            let mut floor = 0.0f64;
            for p in &problem.pairs {
                read += 1;
                floor = floor.max(p.min_time());
                sorted += u64::from(needs_move(p, floor));
                if needs_move(p, z_floor) {
                    scheduled += 1;
                    let carrying = p.groups.iter().filter(|g| g.bytes_per_bit > 0.0);
                    moves += 2 * carrying.count() as u64;
                }
            }
        }
        [read, sorted, scheduled, moves]
    }

    /// A round's counts in [`staged_counts`]'s order.
    fn pair_counts(stats: SolveStats) -> [u64; 4] {
        [
            stats.pairs_read,
            stats.pairs_sorted,
            stats.pairs_scheduled,
            stats.moves,
        ]
    }

    fn setup(k: usize) -> Vec<DevicePartition> {
        let ds = DatasetSpec::tiny().generate(21);
        let mut rng = Rng::seed_from(22);
        let p = graph::partition::metis_like(&ds.graph, k, &mut rng);
        crate::decompose::build_partitions(&ds, &p, ConvKind::Gcn)
    }

    #[test]
    fn fixed_assignment_shapes() {
        let parts = setup(3);
        let a = WidthAssignment::fixed(&parts[1], 3, BitWidth::B4);
        assert_eq!(a.num_layers(), 3);
        for (q, s) in parts[1].send_sets.iter().enumerate() {
            assert_eq!(a.fwd(0, q).len(), s.len());
        }
        for (q, s) in parts[1].recv_slots.iter().enumerate() {
            assert_eq!(a.bwd(2, q).len(), s.len());
        }
        let (h2, h4, h8) = a.histogram();
        assert_eq!(h2, 0);
        assert_eq!(h8, 0);
        assert!(h4 > 0);
    }

    #[test]
    fn trace_records_ranges() {
        let parts = setup(2);
        let part = &parts[0];
        let mut trace = Trace::new(part, &[4, 4]);
        let x = Matrix::from_fn(part.num_local(), 4, |i, j| (i as f32) * 0.1 + j as f32);
        trace.record_fwd(part, 0, &x);
        // Every message row has range 3.0 (j spans 0..4).
        for q in 0..2 {
            for &r in trace.fwd.get(0, q) {
                assert!((r - 3.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn row_range_edge_cases() {
        assert_eq!(row_range(&[]), 0.0);
        assert_eq!(row_range(&[5.0, 5.0]), 0.0);
        assert_eq!(row_range(&[-1.0, 2.0]), 3.0);
    }

    #[test]
    fn row_range_is_the_sequential_fold_bit_for_bit() {
        // The scalar fold `row_range` was before it went through the
        // codec's lane-split reduction.
        fn fold(row: &[f32]) -> f32 {
            let mut mn = f32::INFINITY;
            let mut mx = f32::NEG_INFINITY;
            for &v in row {
                mn = mn.min(v);
                mx = mx.max(v);
            }
            if row.is_empty() || mx <= mn {
                0.0
            } else {
                mx - mn
            }
        }
        let mut rng = Rng::seed_from(35);
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MAX,
        ];
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65] {
            let plain: Vec<f32> = (0..len).map(|_| rng.uniform(-3.0, 3.0)).collect();
            let mut rows = vec![plain.clone(), vec![1.25; len], vec![f32::NAN; len]];
            rows.push(vec![0.0; len]);
            rows.push(
                (0..len)
                    .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
                    .collect(),
            );
            // Every special value at every position of an ordinary row, and
            // a row alternating between two of them.
            for (k, &special) in specials.iter().enumerate() {
                for at in 0..len {
                    let mut row = plain.clone();
                    row[at] = special;
                    rows.push(row);
                }
                let other = specials[(k + 1) % specials.len()];
                rows.push(
                    (0..len)
                        .map(|i| if i % 3 == 0 { special } else { other })
                        .collect(),
                );
            }
            for row in &rows {
                let (got, want) = (row_range(row), fold(row));
                assert_eq!(got.to_bits(), want.to_bits(), "len {len}: {row:?}");
            }
        }
    }

    #[test]
    fn uniform_sampling_respects_groups() {
        let parts = setup(2);
        let part = &parts[0];
        let trace = Trace::new(part, &[8, 8]);
        let cost = CostModel::homogeneous(2, 1e9, 1e-5);
        let cfg = TrainingConfig {
            group_size: 4,
            ..TrainingConfig::default()
        };
        // UniformRandom requires no cross-device calls, so no cluster needed:
        // fabricate a handle via a 1-device cluster trick is impossible here;
        // instead call the sampler directly.
        let mut rng = Rng::seed_from(33);
        let mut a = WidthAssignment::fixed(part, 2, BitWidth::B8);
        sample_uniform(&mut a.fwd, 0, cfg.group_size, &mut rng);
        // Each group of 4 consecutive messages shares a width.
        for (_, per_peer) in a.fwd.peers(0) {
            for chunk in per_peer.chunks(4) {
                assert!(chunk.iter().all(|&w| w == chunk[0]));
            }
        }
        let _ = (trace, cost);
    }

    #[test]
    fn betas_scale_with_range_squared() {
        let parts = setup(2);
        let betas_at = |range: f32| {
            let traces: Vec<Vec<u8>> = parts
                .iter()
                .map(|part| {
                    let mut trace = Trace::new(part, &[16]);
                    trace.fwd.layer_mut(0).fill(range);
                    encode_trace(&part.send_alpha_sq, &trace)
                })
                .collect();
            let gathered = Gathered::check(&traces).expect("valid traces");
            // Section 0 is layer 0 forward; backward betas carry no alpha.
            let entries = gathered.blocks_of(0).iter().flat_map(|b| b.entries());
            let betas = entries.flat_map(|(_, betas)| betas.iter().map(|b| f64::from_le_bytes(*b)));
            betas.collect::<Vec<_>>()
        };
        let (b1, b2) = (betas_at(1.0), betas_at(2.0));
        assert!(!b1.is_empty());
        for (x, y) in b1.iter().zip(&b2) {
            assert!((y / x - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn non_finite_rows_record_as_the_widest_finite_range() {
        let parts = setup(2);
        let part = &parts[0];
        let boundary: Vec<u32> = part.send_sets.iter().flatten().copied().collect();
        assert!(boundary.len() >= 3, "fixture needs three boundary rows");
        let fill = |x: &mut Matrix, row: u32, v: f32| x.row_mut(row as usize)[1] = v;
        let mut x = Matrix::from_fn(part.num_local(), 4, |i, j| (i % 5) as f32 + j as f32);
        let mut clean = Trace::new(part, &[4]);
        clean.record_fwd(part, 0, &x);
        fill(&mut x, boundary[0], f32::INFINITY);
        fill(&mut x, boundary[1], f32::NAN);
        fill(&mut x, boundary[2], f32::NEG_INFINITY);
        let mut trace = Trace::new(part, &[4]);
        trace.record_fwd(part, 0, &x);
        let widest = clean.fwd.layer(0).iter().fold(0.0f32, |m, &r| m.max(r));
        for (q, set) in part.send_sets.iter().enumerate() {
            for (k, row) in set.iter().enumerate() {
                let got = trace.fwd.get(0, q)[k];
                if *row == boundary[0] || *row == boundary[2] {
                    assert_eq!(got, widest, "row {row} holds an infinity");
                } else if *row != boundary[1] {
                    assert_eq!(got.to_bits(), clean.fwd.get(0, q)[k].to_bits());
                }
                assert!(got.is_finite());
            }
        }
        // Nothing finite to borrow from: the range falls back to zero.
        let sets = [vec![0]];
        let mut lone = PeerTable::filled(&PeerLayout::of(&sets), 1, 7.0f32);
        record(&mut lone, 0, &sets, |_| &[f32::INFINITY, 0.0]);
        assert_eq!(lone.layer(0), [0.0]);
    }

    /// `n` devices' traces over arbitrary sparse shapes (peers with no
    /// messages, devices with no peers at all), their `alpha_sq` tables, and
    /// the layer dims.
    fn arb_traces(n: usize, layers: usize, rng: &mut Rng) -> (Vec<Vec<Vec<f64>>>, Vec<Trace>) {
        let dims: Vec<usize> = (0..layers).map(|_| 1 + rng.below(64)).collect();
        let per_peer = |rng: &mut Rng| -> Vec<usize> {
            let silent = rng.below(4) == 0;
            (0..n)
                .map(|_| {
                    if silent || rng.below(2) == 0 {
                        0
                    } else {
                        1 + rng.below(6)
                    }
                })
                .collect()
        };
        (0..n)
            .map(|_| {
                let (sends, recvs) = (per_peer(rng), per_peer(rng));
                // Ranges drawn per layer, peer and message, forward then
                // backward.
                let mut ranges = |lens: &[usize]| {
                    let sets: Vec<Vec<()>> = lens.iter().map(|&len| vec![(); len]).collect();
                    let mut table = PeerTable::filled(&PeerLayout::of(&sets), layers, 0.0);
                    table.values_mut().for_each(|r| *r = rng.uniform(0.0, 3.0));
                    table
                };
                let (fwd, bwd) = (ranges(&sends), ranges(&recvs));
                let trace = Trace {
                    dims: dims.clone(),
                    fwd,
                    bwd,
                };
                let alpha = sends
                    .iter()
                    .map(|&len| (0..len).map(|_| f64::from(rng.uniform(0.1, 2.0))).collect())
                    .collect();
                (alpha, trace)
            })
            .unzip()
    }

    fn encode_all(alphas: &[Vec<Vec<f64>>], traces: &[Trace]) -> Vec<Vec<u8>> {
        alphas
            .iter()
            .zip(traces)
            .map(|(a, t)| encode_trace(a, t))
            .collect()
    }

    /// Arbitrary per-message widths for every section of `table`.
    fn arb_widths(table: &PairTable, rng: &mut Rng) -> Vec<Vec<u8>> {
        (0..table.num_sections())
            .map(|s| {
                let pairs = table.pairs_of(s);
                let messages = table.beta_start[pairs.end] - table.beta_start[pairs.start];
                (0..messages).map(|_| [2u8, 4, 8][rng.below(3)]).collect()
            })
            .collect()
    }

    /// The tables [`WidthAssignment::fixed`] would size for device `rank`
    /// if its partition had produced `traces`: what it sends is its own
    /// trace.
    fn shaped_like(traces: &[Trace], rank: usize) -> WidthAssignment {
        let table =
            |of: &PeerTable<f32>| PeerTable::filled(of.layout(), of.num_layers(), BitWidth::B4);
        WidthAssignment {
            fwd: table(&traces[rank].fwd),
            bwd: table(&traces[rank].bwd),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn trace_messages_round_trip(n in 1usize..=5, layers in 1usize..=3, seed in 0u64..u64::MAX) {
            let (alphas, traces) = arb_traces(n, layers, &mut Rng::seed_from(seed));
            let msgs = encode_all(&alphas, &traces);
            let gathered = Gathered::check(&msgs).expect("valid traces");
            prop_assert_eq!(gathered.num_sections(), 2 * layers);
            for section in 0..2 * layers {
                for (src, block) in gathered.blocks_of(section).iter().enumerate() {
                    let (layer, dim) = (section / 2, traces[src].dims[section / 2]);
                    let t = if section % 2 == 0 { &traces[src].fwd } else { &traces[src].bwd };
                    let mut entries = block.entries();
                    let (mut peers, mut messages) = (0, 0);
                    for (dst, ranges) in t.peers(layer) {
                        let (peer, betas) = entries.next().expect("one entry per listed peer");
                        prop_assert_eq!(peer as usize, dst);
                        let want: Vec<u64> = ranges
                            .iter()
                            .enumerate()
                            .map(|(k, &r)| {
                                let a = if section % 2 == 0 { alphas[src][dst][k] } else { 1.0 };
                                quant::variance::beta(a, dim, r).to_bits()
                            })
                            .collect();
                        let got: Vec<u64> = betas.iter().map(|b| u64::from_le_bytes(*b)).collect();
                        prop_assert_eq!(got, want);
                        (peers, messages) = (peers + 1, messages + ranges.len());
                    }
                    prop_assert!(entries.next().is_none());
                    prop_assert_eq!((block.peers, block.messages()), (peers, messages));
                }
            }
        }

        #[test]
        fn replies_round_trip(n in 1usize..=5, layers in 1usize..=3, seed in 0u64..u64::MAX) {
            let mut rng = Rng::seed_from(seed);
            let (alphas, traces) = arb_traces(n, layers, &mut rng);
            let table = PairTable::decode(&encode_all(&alphas, &traces)).expect("valid traces");
            let widths = arb_widths(&table, &mut rng);
            let replies = table.encode_replies(&widths);
            let decoded: Vec<WidthAssignment> = (0..n)
                .map(|rank| {
                    let mut a = shaped_like(&traces, rank);
                    a.decode_into(&replies[rank], n).expect("valid reply");
                    a
                })
                .collect();
            let mut listed = 0;
            for (section, section_widths) in widths.iter().enumerate() {
                let (layer, base) = (section / 2, table.beta_start[table.section_start[section]]);
                for p in table.pairs_of(section) {
                    let (src, dst) = (table.ends[p].0 as usize, table.ends[p].1 as usize);
                    let want: Vec<BitWidth> = section_widths
                        [table.beta_start[p] - base..table.beta_start[p + 1] - base]
                        .iter()
                        .map(|&b| BitWidth::from_bits(u32::from(b)).expect("2, 4 or 8"))
                        .collect();
                    let sent = if section % 2 == 0 {
                        decoded[src].fwd(layer, dst)
                    } else {
                        decoded[src].bwd(layer, dst)
                    };
                    prop_assert_eq!(sent, &want[..]);
                    listed += 1;
                }
            }
            // Nothing beyond the pairs: every other peer keeps an empty table.
            let non_empty: usize = decoded
                .iter()
                .inspect(|a| assert_eq!(a.num_layers(), layers))
                .flat_map(|a| (0..layers).flat_map(move |l| {
                    (0..n).flat_map(move |q| [a.fwd(l, q), a.bwd(l, q)])
                }))
                .filter(|w| !w.is_empty())
                .count();
            prop_assert_eq!(non_empty, listed);
        }

        #[test]
        fn build_writes_the_flattened_nested_problem(
            n in 1usize..=6,
            layers in 1usize..=2,
            group_size in 1usize..=5,
            lambda in prop_oneof![Just(0.0), Just(1.0), -0.5f64..1.5],
            seed in 0u64..u64::MAX,
        ) {
            let (alphas, traces) = arb_traces(n, layers, &mut Rng::seed_from(seed));
            let cost = CostModel::homogeneous(n, 1e6, 1e-5);
            let cfg = TrainingConfig { group_size, lambda, ..TrainingConfig::default() };
            let msgs = encode_all(&alphas, &traces);
            let gathered = Gathered::check(&msgs).expect("valid traces");
            let table = PairTable::decode(&msgs).expect("valid traces");
            for section in 0..gathered.num_sections() {
                // The section the master builds holds the problem the staged
                // oracle builds one `PairSpec` per pair: it solves to the
                // same widths, each movable pair's groups where the nested
                // problem has them, and the same scores, bit for bit.
                let (problem, _) = table.build(section, &cost, &cfg);
                let want = solve(&problem);
                let built = gathered.section(section, &cost, &cfg);
                let got = built.solve();
                let mut widths: Vec<Vec<BitWidth>> =
                    problem.pairs.iter().map(|p| vec![BitWidth::B8; p.groups.len()]).collect();
                match got.widths {
                    SplitWidths::Uniform(w) => widths.iter_mut().flatten().for_each(|x| *x = w),
                    SplitWidths::Moved(moved) => {
                        let mut moved = moved.into_iter();
                        for &p in &built.moving {
                            for w in &mut widths[p as usize] {
                                *w = moved.next().expect("a width per movable group");
                            }
                        }
                        prop_assert!(moved.next().is_none());
                    }
                }
                prop_assert_eq!(widths, want.widths);
                let bits = |v: f64, t: f64, o: f64| (v.to_bits(), t.to_bits(), o.to_bits());
                prop_assert_eq!(
                    bits(got.variance, got.max_time, got.objective),
                    bits(want.variance, want.max_time, want.objective)
                );
                prop_assert_eq!(got.iterations, want.iterations);
            }
        }

        #[test]
        fn one_pass_round_matches_the_staged_oracle(
            n in 1usize..=9,
            layers in 1usize..=3,
            group_size in 1usize..=5,
            lambda in prop_oneof![Just(0.0), Just(0.5), Just(1.0), 0.0f64..1.0],
            bandwidth in prop_oneof![Just(1e6), 1e4f64..1e9],
            seed in 0u64..u64::MAX,
        ) {
            let (alphas, traces) = arb_traces(n, layers, &mut Rng::seed_from(seed));
            let msgs = encode_all(&alphas, &traces);
            let cost = CostModel::homogeneous(n, bandwidth, 1e-5);
            let cfg = TrainingConfig { group_size, lambda, ..TrainingConfig::default() };
            let (replies, stats) = Gathered::check(&msgs).expect("valid traces").round(&cost, &cfg);
            let (want, want_stats) = staged_round(&msgs, &cost, &cfg).expect("valid traces");
            prop_assert_eq!(replies, want);
            prop_assert_eq!(stat_bits(stats), stat_bits(want_stats));
        }
    }

    /// Traces shaped to break a round that skips work: most listed peers
    /// carry one or two messages, some up to twelve (several groups at a
    /// small group size); ranges and `alpha_sq`s come from a few values, so
    /// betas tie within a pair; and about one message in 40 traces an
    /// infinite or NaN range, so its beta is not finite.
    fn arb_fleet_traces(
        n: usize,
        layers: usize,
        rng: &mut Rng,
    ) -> (Vec<Vec<Vec<f64>>>, Vec<Trace>) {
        let dims: Vec<usize> = (0..layers).map(|_| [8, 16, 24][rng.below(3)]).collect();
        let per_peer = |rng: &mut Rng| -> Vec<usize> {
            (0..n)
                .map(|_| match rng.below(8) {
                    0..=2 => 0,
                    3..=4 => 1,
                    5 => 2,
                    6 => 3 + rng.below(3),
                    _ => 6 + rng.below(7),
                })
                .collect()
        };
        (0..n)
            .map(|_| {
                let (sends, recvs) = (per_peer(rng), per_peer(rng));
                let mut ranges = |lens: &[usize]| {
                    let sets: Vec<Vec<()>> = lens.iter().map(|&len| vec![(); len]).collect();
                    let mut table = PeerTable::filled(&PeerLayout::of(&sets), layers, 0.0);
                    for r in table.values_mut() {
                        *r = match rng.below(40) {
                            0 => [f32::INFINITY, f32::NAN][rng.below(2)],
                            k => [0.25, 1.0, 2.0, 3.5][k % 4],
                        };
                    }
                    table
                };
                let (fwd, bwd) = (ranges(&sends), ranges(&recvs));
                let trace = Trace {
                    dims: dims.clone(),
                    fwd,
                    bwd,
                };
                let alpha = sends
                    .iter()
                    .map(|&len| (0..len).map(|_| [0.5, 1.0][rng.below(2)]).collect())
                    .collect();
                (alpha, trace)
            })
            .unzip()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn lean_round_matches_the_staged_oracle_on_racked_fleets(
            machines in 1usize..=8,
            devices in 1usize..=4,
            rack in 1usize..=3,
            layers in 1usize..=2,
            group_size in prop_oneof![1usize..=4, Just(64)],
            lambda in prop_oneof![Just(0.0), Just(0.5), Just(1.0), 0.0f64..1.0],
            seed in 0u64..u64::MAX,
        ) {
            let n = machines * devices;
            let cost = comm::Topology::new(machines, devices)
                .machines_per_rack(rack)
                .oversubscription(4.0)
                .cost_model();
            let (alphas, traces) = arb_fleet_traces(n, layers, &mut Rng::seed_from(seed));
            let msgs = encode_all(&alphas, &traces);
            let cfg = TrainingConfig { group_size, lambda, ..TrainingConfig::default() };
            let gathered = Gathered::check(&msgs).expect("valid traces");
            let (want, want_stats) = staged_round(&msgs, &cost, &cfg).expect("valid traces");
            let table = PairTable::decode(&msgs).expect("valid traces");
            let mut evaluations = None;
            // A round this small runs inline at any setting; the
            // 256-device fleet test runs one across pool workers.
            for threads in [1, 8] {
                tensor::par::set_threads(threads);
                let (replies, stats) = gathered.round(&cost, &cfg);
                prop_assert_eq!(&replies, &want);
                prop_assert_eq!(stat_bits(stats), stat_bits(want_stats));
                prop_assert_eq!(pair_counts(stats), staged_counts(&table, &cost, &cfg));
                let bytes = |m: &[Vec<u8>]| m.iter().map(Vec::len).sum::<usize>() as u64;
                prop_assert_eq!((stats.trace_bytes, stats.reply_bytes), (bytes(&msgs), bytes(&replies)));
                prop_assert_eq!(*evaluations.get_or_insert(stats.evaluations), stats.evaluations);
            }
            tensor::par::set_threads(0);
        }

        #[test]
        fn one_pass_decode_refuses_every_corruption_untouched(
            n in 1usize..=4,
            layers in 1usize..=2,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = Rng::seed_from(seed);
            let (alphas, traces) = arb_traces(n, layers, &mut rng);
            let table = PairTable::decode(&encode_all(&alphas, &traces)).expect("valid traces");
            let replies = table.encode_replies(&arb_widths(&table, &mut rng));
            for (rank, reply) in replies.iter().enumerate() {
                let before = shaped_like(&traces, rank);
                // The tables pin every count and no single flipped bit turns
                // one width into another, so every corruption is refused,
                // and a refused reply has written nothing.
                for bad in corruptions(reply) {
                    let mut a = before.clone();
                    prop_assert!(a.decode_into(&bad, n).is_err());
                    prop_assert_eq!(&a, &before);
                }
            }
        }

        #[test]
        fn stats_broadcast_round_trips_and_refuses_corruption(
            floats in proptest::collection::vec(0u64..u64::MAX, 2..=2),
            counts in proptest::collection::vec(0u64..u64::MAX, 9..=9),
        ) {
            // Any bits, NaN payloads included.
            let floats: Vec<f64> = floats.into_iter().map(f64::from_bits).collect();
            let stats = SolveStats {
                secs: HostSeconds::from_secs(floats[0]),
                objective_sum: floats[1],
                iterations: counts[0],
                problems: counts[1],
                pairs_read: counts[2],
                pairs_sorted: counts[3],
                pairs_scheduled: counts[4],
                moves: counts[5],
                evaluations: counts[6],
                trace_bytes: counts[7],
                reply_bytes: counts[8],
            };
            let raw = stats.to_bytes();
            prop_assert_eq!(raw.len(), STATS_BYTES);
            let back = SolveStats::from_bytes(&raw).expect("what to_bytes wrote");
            prop_assert_eq!(back.to_bytes(), raw.clone());
            prop_assert_eq!(back.counts(), stats.counts());
            for len in 0..raw.len() {
                prop_assert_eq!(SolveStats::from_bytes(&raw[..len]), Err(WireError::Truncated));
            }
            let mut long = raw.clone();
            long.push(0);
            prop_assert_eq!(SolveStats::from_bytes(&long), Err(WireError::TrailingBytes));
            // A flipped version bit is refused; any other flipped bit lands
            // in exactly one field, which decodes to the flipped value.
            for bit in 0..8 * raw.len() {
                let mut bad = raw.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                match SolveStats::from_bytes(&bad) {
                    Err(e) => prop_assert_eq!((bit < 8, e), (true, WireError::Version(bad[0]))),
                    Ok(got) => {
                        prop_assert!(bit >= 8);
                        prop_assert_eq!(got.to_bytes(), bad);
                    }
                }
            }
        }
    }

    /// Every strict prefix and every single-bit flip of `msg`, in turn.
    fn corruptions(msg: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        let prefixes = (0..msg.len()).map(|len| msg[..len].to_vec());
        let flips = (0..8 * msg.len()).map(|bit| {
            let mut m = msg.to_vec();
            m[bit / 8] ^= 1 << (bit % 8);
            m
        });
        prefixes.chain(flips)
    }

    #[test]
    fn corrupt_messages_decode_to_an_error_or_a_well_formed_value() {
        let mut rng = Rng::seed_from(77);
        let (alphas, traces) = arb_traces(3, 2, &mut rng);
        let mut msgs = encode_all(&alphas, &traces);
        let table = PairTable::decode(&msgs).expect("valid traces");
        assert!(table.ends.len() > 4, "fixture lists some pairs");
        let cost = CostModel::homogeneous(3, 1e6, 1e-5);
        let cfg = TrainingConfig::default();
        let (mut rejected, mut accepted) = (0, 0);
        for rank in 0..msgs.len() {
            let good = msgs[rank].clone();
            for bad in corruptions(&good) {
                msgs[rank] = bad;
                // The framing check refuses what decoding every beta did,
                // with the same error, and what it passes is well-formed:
                // the whole master round runs on it, as the staged one did.
                let staged = staged_round(&msgs, &cost, &cfg);
                match Gathered::check(&msgs) {
                    Err(e) => {
                        rejected += 1;
                        assert_eq!(staged.map(drop), Err(e));
                    }
                    Ok(g) => {
                        accepted += 1;
                        let (replies, stats) = g.round(&cost, &cfg);
                        let (want, want_stats) = staged.expect("the staged round decodes it");
                        assert_eq!(replies, want);
                        assert_eq!(stat_bits(stats), stat_bits(want_stats));
                    }
                }
            }
            msgs[rank] = good;
        }
        // Truncations and header flips are caught; a flipped beta bit is
        // just another beta.
        assert!(
            rejected > 0 && accepted > 0,
            "{rejected} rejected, {accepted} accepted"
        );

        let replies = table.encode_replies(&arb_widths(&table, &mut rng));
        for (rank, reply) in replies.iter().enumerate() {
            let before = shaped_like(&traces, rank);
            let mut a = before.clone();
            assert_eq!(a.decode_into(reply, 3), Ok(()));
            assert_ne!(a, before, "fixture reply carries widths");
            // The tables pin every count and no single flipped bit turns one
            // width into another, so nothing gets through — and a refused
            // reply has written nothing.
            for bad in corruptions(reply) {
                let mut a = before.clone();
                assert!(a.decode_into(&bad, 3).is_err());
                assert_eq!(a, before);
            }
            let mut a = before.clone();
            assert_eq!(a.decode_into(&[2, 0, 0, 0], 3), Err(WireError::Truncated));
            assert_eq!(
                a.decode_into(&u32::MAX.to_le_bytes(), 3),
                Err(WireError::Truncated),
                "a layer count the message cannot back is refused first"
            );
            assert_eq!(a, before);
        }
    }

    /// A reply for `part`'s rank on a 2-device, 1-layer cluster whose two
    /// blocks list peer `1 - rank` with the given counts (0 = not listed).
    fn reply_with_counts(rank: usize, counts: [usize; 2]) -> Vec<u8> {
        let mut reply = Vec::new();
        put_u32(&mut reply, 1);
        for count in counts {
            put_u32(&mut reply, usize::from(count > 0));
            if count > 0 {
                put_u32(&mut reply, 1 - rank);
                put_u32(&mut reply, count);
                reply.resize(reply.len() + count, 8);
            }
        }
        reply
    }

    #[test]
    fn a_reply_that_disagrees_with_the_partition_is_refused_untouched() {
        let parts = setup(2);
        for (rank, part) in parts.iter().enumerate() {
            let peer = 1 - rank;
            let (sent, received) = (part.send_sets[peer].len(), part.recv_slots[peer].len());
            assert!(sent > 1 && received > 1, "fixture exchanges messages");
            // fwd, bwd, as the partition sizes them.
            let right = [sent, received];
            let before = WidthAssignment::fixed(part, 1, BitWidth::B2);
            let mut a = before.clone();
            assert_eq!(a.decode_into(&reply_with_counts(rank, right), 2), Ok(()));
            assert_eq!(a, WidthAssignment::fixed(part, 1, BitWidth::B8));
            for block in 0..2 {
                // One too many, one too few, and a peer with rows left out.
                for wrong in [right[block] + 1, right[block] - 1, 0] {
                    let mut counts = right;
                    counts[block] = wrong;
                    let mut a = before.clone();
                    assert_eq!(
                        a.decode_into(&reply_with_counts(rank, counts), 2),
                        Err(WireError::Count(peer as u32)),
                        "rank {rank}, block {block}, count {wrong}"
                    );
                    assert_eq!(a, before);
                }
            }
            // A listed peer the partition has no rows for: the device itself.
            let mut reply = reply_with_counts(rank, right);
            let listed_self = {
                let mut r = Vec::new();
                put_u32(&mut r, 1);
                // Block 0 lists both ranks, ascending.
                put_u32(&mut r, 2);
                for q in 0..2 {
                    put_u32(&mut r, q);
                    put_u32(&mut r, sent);
                    r.resize(r.len() + sent, 8);
                }
                r.extend_from_slice(&reply.split_off(4 + 4 + 8 + sent));
                r
            };
            let mut a = before.clone();
            assert_eq!(
                a.decode_into(&listed_self, 2),
                Err(WireError::Count(rank as u32))
            );
            assert_eq!(a, before);
            // Another layer count than the device trains.
            let mut a = WidthAssignment::fixed(part, 2, BitWidth::B2);
            assert_eq!(
                a.decode_into(&reply_with_counts(rank, right), 2),
                Err(WireError::Layers(1))
            );
        }
    }

    /// Rank 1's half of a round whose master (written out by hand, so that
    /// it can send what `reassign` never would) runs `tamper` over the
    /// replies and the stats payload before sending them: what `reassign`
    /// returned there, and whether its tables were left as they were.
    fn worker_outcome(
        tamper: impl Fn(&mut Vec<Vec<u8>>, &mut Vec<u8>) + Sync,
    ) -> (Result<SolveStats, AssignError>, bool) {
        let parts = setup(2);
        let cfg = TrainingConfig::default();
        let cost = CostModel::homogeneous(2, 1e6, 1e-5);
        let (parts, cfg, cost, tamper) = (&parts, &cfg, &cost, &tamper);
        let run = comm::Cluster::try_run_async(2, None, |mut dev| async move {
            let part = &parts[dev.rank()];
            let trace = Trace::new(part, &[16, 8]);
            let own = Bytes::from(encode_trace(&part.send_alpha_sq, &trace));
            if dev.rank() == 0 {
                let traces = dev.gather(0, own).await.expect("the root gathers");
                let gathered = Gathered::check(&traces).expect("valid traces");
                let (mut replies, stats) = gathered.round(cost, cfg);
                let mut stats = stats.to_bytes().to_vec();
                tamper(&mut replies, &mut stats);
                dev.scatter(0, Some(replies.into_iter().map(Bytes::from).collect()))
                    .await;
                dev.broadcast(0, Some(Bytes::from(stats))).await;
                return None;
            }
            let before = WidthAssignment::fixed(part, 2, BitWidth::B4);
            let mut assignment = before.clone();
            let mode = AssignMode::Adaptive;
            let mut rng = Rng::seed_from(1);
            let got = reassign(
                &mut dev,
                part,
                cost,
                &trace,
                cfg,
                mode,
                &mut rng,
                &mut assignment,
            )
            .await;
            Some((got, assignment == before))
        });
        let mut outputs = run.expect("no device panicked or stalled").outputs;
        outputs.swap_remove(1).expect("rank 1 reports")
    }

    /// A round whose worker (written out by hand, so that it can send what
    /// `reassign` never would) gathers a truncated trace and then waits at
    /// the scatter: rank 0's `reassign` result, the cluster's error, and
    /// the error the runner's failure capture reports for the same round.
    fn master_outcome() -> (
        Option<Result<SolveStats, AssignError>>,
        comm::ClusterError,
        crate::runner::Failure<AssignError>,
    ) {
        let parts = setup(2);
        let cfg = TrainingConfig::default();
        let cost = CostModel::homogeneous(2, 1e6, 1e-5);
        let (parts, cfg, cost) = (&parts, &cfg, &cost);
        let device = |mut dev: AsyncDevice| async move {
            let part = &parts[dev.rank()];
            let trace = Trace::new(part, &[16, 8]);
            if dev.rank() == 1 {
                let mut own = encode_trace(&part.send_alpha_sq, &trace);
                own.pop();
                dev.gather(0, Bytes::from(own)).await;
                dev.scatter(0, None).await;
                return Ok(None);
            }
            let mut assignment = WidthAssignment::fixed(part, 2, BitWidth::B4);
            let (mode, mut rng) = (AssignMode::Adaptive, Rng::seed_from(1));
            reassign(
                &mut dev,
                part,
                cost,
                &trace,
                cfg,
                mode,
                &mut rng,
                &mut assignment,
            )
            .await
            .map(Some)
        };
        let master = std::cell::RefCell::new(None);
        let master_ref = &master;
        let run = comm::Cluster::try_run_async(2, None, |dev| {
            let rank = dev.rank();
            let body = device(dev);
            async move {
                let got = body.await;
                if rank == 0 {
                    *master_ref.borrow_mut() = Some(got.map(|stats| stats.unwrap_or_default()));
                }
            }
        });
        let stall = run.expect_err("rank 1 waits at a scatter the master never joins");
        let failure =
            crate::runner::run_devices(2, device).expect_err("the master's error surfaces");
        (master.into_inner(), stall, failure)
    }

    #[test]
    fn a_malformed_trace_stops_the_master_and_its_error_wins_over_the_stall() {
        let (master, stall, failure) = master_outcome();
        // The master's `?` at the trace decode: an error, not a panic.
        let Some(Err(AssignError { stage, .. })) = master else {
            panic!("rank 0's reassign must fail, got {master:?}");
        };
        assert_eq!(stage, AssignStage::Trace);
        // Its peer is left parked at the scatter the master never joins.
        let comm::ClusterError::Deadlock { graph } = &stall else {
            panic!("expected a stall, got {stall}");
        };
        assert_eq!(graph.finished, [0]);
        let blocked: Vec<_> = graph.blocked.iter().map(|b| (b.rank, &b.cause)).collect();
        assert_eq!(
            blocked,
            [(1, &comm::WaitCause::Collective { kind: "scatter" })]
        );
        // The runner reports the master's error, not the stall it caused.
        let crate::runner::Failure::Device(0, AssignError { stage, .. }) = failure else {
            panic!("expected rank 0's error, got {failure:?}");
        };
        assert_eq!(stage, AssignStage::Trace);
    }

    #[test]
    fn a_malformed_round_is_an_error_on_the_worker_not_a_panic() {
        let (got, untouched) = worker_outcome(|_, _| {});
        assert!(got.is_ok_and(|stats| stats.problems == 4) && !untouched);

        let (got, untouched) = worker_outcome(|replies, _| {
            replies[1].pop();
        });
        let stage = AssignStage::Reply;
        let cause = WireError::Truncated;
        assert_eq!(got, Err(AssignError { stage, cause }));
        assert!(untouched);

        let (got, untouched) = worker_outcome(|_, stats| stats.truncate(31));
        let stage = AssignStage::Stats;
        assert_eq!(got, Err(AssignError { stage, cause }));
        assert!(untouched);

        let (got, _) = worker_outcome(|_, stats| stats.push(0));
        let cause = WireError::TrailingBytes;
        assert_eq!(got, Err(AssignError { stage, cause }));
    }

    #[test]
    fn full_reassign_roundtrip_on_cluster() {
        reassign_on_two_devices(false);
    }

    #[test]
    fn reassign_survives_inf_and_nan_rows() {
        // An Inf range used to reach the master as JSON `null` and panic
        // every rank; as a raw f64 it would poison the variance normalizer.
        reassign_on_two_devices(true);
    }

    /// End-to-end: 2 devices run the collective reassignment; with
    /// `poisoned`, each traces one boundary row holding +Inf and one NaN.
    fn reassign_on_two_devices(poisoned: bool) {
        let ds = DatasetSpec::tiny().generate(23);
        let mut rng0 = Rng::seed_from(24);
        let p = graph::partition::metis_like(&ds.graph, 2, &mut rng0);
        let parts = crate::decompose::build_partitions(&ds, &p, ConvKind::Gcn);
        let cfg = TrainingConfig {
            group_size: 8,
            lambda: 0.5,
            ..TrainingConfig::default()
        };
        let cost = CostModel::homogeneous(2, 1e6, 1e-5);
        let parts_ref = &parts;
        let cfg_ref = &cfg;
        let cost_ref = &cost;
        let run = comm::Cluster::try_run_async(2, None, |mut dev| async move {
            let part = &parts_ref[dev.rank()];
            let dims = [16usize, 8];
            let mut trace = Trace::new(part, &dims);
            // Fabricate some activity so ranges are nonzero and varied.
            let mut x = Matrix::from_fn(part.num_local(), 16, |i, j| {
                ((i * 7 + j) % 13) as f32 * (0.1 + dev.rank() as f32)
            });
            if poisoned {
                let boundary: Vec<u32> = part.send_sets.iter().flatten().copied().collect();
                x.row_mut(boundary[0] as usize)[3] = f32::INFINITY;
                x.row_mut(boundary[1] as usize).fill(f32::NAN);
            }
            trace.record_fwd(part, 0, &x);
            let mut rng = Rng::seed_from(100 + dev.rank() as u64);
            let mut assign = WidthAssignment::fixed(part, dims.len(), BitWidth::B8);
            let solve = reassign(
                &mut dev,
                part,
                cost_ref,
                &trace,
                cfg_ref,
                AssignMode::Adaptive,
                &mut rng,
                &mut assign,
            )
            .await
            .expect("well-formed round");
            (assign, solve)
        });
        let out = run.expect("no device panicked or stalled").outputs;
        for (rank, (assign, solve)) in out.iter().enumerate() {
            assert!(solve.secs >= HostSeconds::default());
            assert!(solve.iterations > 0, "solver evaluated candidates");
            // 2 layers x 2 directions.
            assert_eq!(solve.problems, 4);
            assert!(solve.objective_sum.is_finite());
            // Shapes line up with the partition.
            for (q, s) in parts[rank].send_sets.iter().enumerate() {
                assert_eq!(assign.fwd(0, q).len(), s.len(), "rank {rank} -> {q}");
                assert_eq!(assign.fwd(1, q).len(), s.len());
            }
            for (q, s) in parts[rank].recv_slots.iter().enumerate() {
                assert_eq!(assign.bwd(0, q).len(), s.len());
            }
            // Assignment uses at least one real width.
            let (h2, h4, h8) = assign.histogram();
            assert!(h2 + h4 + h8 > 0);
        }
    }
}
