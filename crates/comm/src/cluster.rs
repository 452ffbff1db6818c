//! The simulated cluster: the public entry points over the discrete-event
//! core ([`crate::event`]) and the `DeviceHandle` every device talks
//! through.
//!
//! Two ways to express a device:
//!
//! * **State machine** — implement [`crate::DeviceProgram`] and start it
//!   with [`Cluster::run`] / [`Cluster::try_run_with`]. This is the native
//!   form: no OS thread per device, so one process scales to thousands of
//!   simulated devices.
//! * **Closure** — pass an imperative `Fn(DeviceHandle) -> T` to
//!   [`Cluster::run_fn`]. Each closure runs on a real thread held in strict
//!   lockstep with the scheduler: every `DeviceHandle` operation is a
//!   rendezvous that suspends the thread until the event loop satisfies
//!   it, so results are identical to the state-machine form.
//!   Every trainer `adaqp::run_experiment` ships is a closure, so today an
//!   experiment on `n` devices does hold `n` OS threads, one running at a
//!   time.

use crate::event::{self, ClusterReport};
use crate::program::{Command, DeviceCtx, DeviceProgram, Resume, Step};
use crate::CostModel;
use bytes::Bytes;
use obs::time::Span;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};

/// Failure modes of a simulated-cluster run.
///
/// `Eq` is not derived because [`ClusterError::Deadlock`] carries per-rank
/// `f64` clocks; `PartialEq` is enough for test assertions.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A `Cluster` entry point was asked to spawn zero devices.
    NoDevices,
    /// A device panicked mid-step; carries the failing rank and the
    /// stringified panic payload.
    DevicePanicked {
        /// Rank of the failing device.
        rank: usize,
        /// Stringified panic payload (empty if the payload was not a string).
        message: String,
    },
    /// A `Send`/`Recv` named a peer rank outside `0..n`. Nothing panicked —
    /// the program yielded a structurally invalid command.
    InvalidPeer {
        /// Rank that yielded the bad command.
        rank: usize,
        /// The out-of-range peer it named.
        peer: usize,
        /// Cluster size.
        n: usize,
        /// Which operation named it: `"send"` or `"recv"`.
        op: &'static str,
    },
    /// The cluster deadlocked: no device is runnable, and not every device
    /// is parked at a collective. Carries the full wait-for graph — every
    /// suspended rank and its cause, the collective frontier, and any
    /// unclaimed mailbox keys (see [`crate::waitgraph`]).
    Deadlock {
        /// The wait-for graph at the moment of the stall (boxed so the
        /// error stays small on the `Ok` path).
        graph: Box<crate::waitgraph::WaitGraph>,
    },
    /// Devices disagreed on the collective they entered (kind, root, or
    /// payload shape).
    CollectiveMismatch {
        /// Rank whose entry command conflicts with rank 0's.
        rank: usize,
        /// The disagreement.
        detail: String,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoDevices => write!(f, "cluster needs at least one device"),
            Self::DevicePanicked { rank, message } => {
                write!(f, "device {rank} panicked: {message}")
            }
            Self::InvalidPeer { rank, peer, n, op } => {
                write!(f, "device {rank}: {op} peer {peer} out of range (n = {n})")
            }
            Self::Deadlock { graph } => {
                write!(f, "cluster deadlocked: {}", graph.summary())
            }
            Self::CollectiveMismatch { rank, detail } => {
                write!(f, "collective mismatch at device {rank}: {detail}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Tag space reserved for internal collectives; user tags must stay below.
const COLLECTIVE_TAG_BASE: u64 = 1 << 62;

/// The simulated cluster.
///
/// # Example
///
/// The closure form; [`crate::DeviceProgram`] shows the state-machine form.
///
/// ```
/// use comm::Cluster;
/// use bytes::Bytes;
///
/// // Each device sends its rank to the right neighbor.
/// let results = Cluster::run_fn(3, |mut dev| {
///     let n = dev.num_devices();
///     let right = (dev.rank() + 1) % n;
///     let left = (dev.rank() + n - 1) % n;
///     dev.send(right, 7, Bytes::from(vec![dev.rank() as u8]));
///     let got = dev.recv(left, 7);
///     got[0] as usize
/// });
/// assert_eq!(results, vec![2, 0, 1]);
/// ```
#[derive(Debug)]
pub struct Cluster;

impl Cluster {
    /// Runs one [`DeviceProgram`] per rank (built by `factory`) under the
    /// discrete-event scheduler and returns the outputs in rank order.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or if any program fails (panics, deadlocks, or
    /// mismatches a collective).
    pub fn run<P, F>(n: usize, factory: F) -> Vec<P::Output>
    where
        P: DeviceProgram,
        F: FnMut(usize) -> P,
    {
        match Self::try_run_with(n, None, factory) {
            Ok(report) => report.outputs,
            // lint:allow(no-panic): documented panicking convenience wrapper over try_run_with
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs one [`DeviceProgram`] per rank with link events charged by
    /// `cost`, returning the full [`ClusterReport`] (outputs plus simulated
    /// clocks and event counts).
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoDevices`] if `n == 0`;
    /// [`ClusterError::DevicePanicked`] if a program panics;
    /// [`ClusterError::InvalidPeer`] if a `Send`/`Recv` names a rank
    /// outside `0..n`;
    /// [`ClusterError::Deadlock`] on a stall, carrying the wait-for graph;
    /// [`ClusterError::CollectiveMismatch`] when ranks disagree on a
    /// collective.
    pub fn try_run_with<P, F>(
        n: usize,
        cost: Option<&CostModel>,
        mut factory: F,
    ) -> Result<ClusterReport<P::Output>, ClusterError>
    where
        P: DeviceProgram,
        F: FnMut(usize) -> P,
    {
        let programs: Vec<P> = (0..n).map(&mut factory).collect();
        event::run_programs(programs, cost)
    }

    /// Runs an imperative closure per device on the event core and returns
    /// the outputs in rank order. See the struct example.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or if any device fails.
    pub fn run_fn<T, F>(n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(DeviceHandle) -> T + Sync,
    {
        match Self::try_run_fn(n, f) {
            Ok(out) => out,
            // lint:allow(no-panic): documented panicking convenience wrapper over try_run_fn
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Cluster::run_fn`].
    ///
    /// # Errors
    ///
    /// As [`Cluster::try_run_with`]; a panic inside `f` surfaces as
    /// [`ClusterError::DevicePanicked`] for the first rank the scheduler
    /// steps into the failure.
    pub fn try_run_fn<T, F>(n: usize, f: F) -> Result<Vec<T>, ClusterError>
    where
        T: Send,
        F: Fn(DeviceHandle) -> T + Sync,
    {
        Self::try_run_fn_with(n, None, f).map(|report| report.outputs)
    }

    /// Closure form of [`Cluster::try_run_with`]: runs `f` per device in
    /// scheduler lockstep, charging link events to `cost`, and returns the
    /// full [`ClusterReport`].
    ///
    /// # Errors
    ///
    /// As [`Cluster::try_run_with`].
    pub fn try_run_fn_with<T, F>(
        n: usize,
        cost: Option<&CostModel>,
        f: F,
    ) -> Result<ClusterReport<T>, ClusterError>
    where
        T: Send,
        F: Fn(DeviceHandle) -> T + Sync,
    {
        Self::try_run_fn_recorded(n, cost, None, f)
    }

    /// [`Cluster::try_run_fn_with`] with an optional causal flight recorder
    /// attached to the scheduler (see [`crate::flight::FlightRecorder`]).
    /// The recorder observes every scheduling transition, and its presence
    /// is what makes the devices hand their [`DeviceHandle::charge`]s to the
    /// scheduler; with `None` charges are dropped where they are made and
    /// the run is identical to [`Cluster::try_run_fn_with`].
    ///
    /// # Errors
    ///
    /// As [`Cluster::try_run_with`].
    pub fn try_run_fn_recorded<T, F>(
        n: usize,
        cost: Option<&CostModel>,
        recorder: Option<&mut crate::flight::FlightRecorder<'_>>,
        f: F,
    ) -> Result<ClusterReport<T>, ClusterError>
    where
        T: Send,
        F: Fn(DeviceHandle) -> T + Sync,
    {
        if n == 0 {
            return Err(ClusterError::NoDevices);
        }
        let f = &f;
        let recording = recorder.is_some();
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let report = {
            let slots = &slots;
            std::thread::scope(|scope| {
                let mut stubs = Vec::with_capacity(n);
                let mut joins = Vec::with_capacity(n);
                for rank in 0..n {
                    let (cmd_tx, cmd_rx) = mpsc::channel();
                    let (resume_tx, resume_rx) = mpsc::channel();
                    stubs.push(FnProgram {
                        cmd_rx,
                        resume_tx,
                        started: false,
                        queued: VecDeque::new(),
                    });
                    joins.push(scope.spawn(move || {
                        let done_tx = cmd_tx.clone();
                        let port = EventPort {
                            cmd_tx,
                            resume_rx,
                            recording,
                            pending: Vec::new(),
                            round_trips: 0,
                        };
                        let handle = DeviceHandle::with_event_port(rank, n, port);
                        match catch_unwind(AssertUnwindSafe(|| f(handle))) {
                            Ok(v) => {
                                if let Ok(mut slot) = slots[rank].lock() {
                                    *slot = Some(v);
                                }
                                let _ = done_tx.send(FnEvent::Done);
                            }
                            Err(payload) => {
                                let _ = done_tx.send(FnEvent::Panicked(panic_message(payload)));
                            }
                        }
                    }));
                }
                let report = event::run_programs_recorded(stubs, cost, recorder);
                // On error the scheduler drops the stub programs, which
                // closes their channels; device threads still parked at a
                // rendezvous unwind internally and are swallowed here (the
                // scope would otherwise re-raise them on implicit join).
                for join in joins {
                    let _ = join.join();
                }
                report
            })
        }?;
        let mut outputs = Vec::with_capacity(n);
        for (rank, slot) in slots.into_iter().enumerate() {
            match slot.into_inner().ok().flatten() {
                Some(v) => outputs.push(v),
                // A program only reports Done after its thread stored the
                // output, so an empty slot means the thread died unseen.
                None => {
                    return Err(ClusterError::DevicePanicked {
                        rank,
                        message: "device produced no output".to_string(),
                    });
                }
            }
        }
        Ok(ClusterReport {
            outputs,
            clocks: report.clocks,
            messages: report.messages,
            collectives: report.collectives,
        })
    }
}

/// Scheduler-side view of one closure device: commands flow out of the
/// device thread, resume values flow back in.
enum FnEvent {
    /// The [`Command::Advance`]s of a recording device's charges since its
    /// last event, ahead of the `Yield` or `Done` they precede.
    Charges(Vec<Command>),
    Yield(Command),
    Done,
    Panicked(String),
}

/// The adapter that turns a closure device into a [`DeviceProgram`]: each
/// `resume` forwards the answer to the device thread and blocks until the
/// thread reaches its next yield point. The blocking wait lives on the
/// *scheduler* side of the rendezvous — the device thread itself only ever
/// waits for the scheduler, never for host time.
///
/// Charges that arrived ahead of a yield are replayed first, one step each,
/// so the scheduler sees the transitions of a program that yielded every
/// charge where it was made; their answers have no consumer, and only the
/// answer to the yield itself goes back to the thread.
struct FnProgram {
    cmd_rx: mpsc::Receiver<FnEvent>,
    resume_tx: mpsc::Sender<Resume>,
    started: bool,
    /// Steps received from the device thread and not yet handed over.
    queued: VecDeque<Step<()>>,
}

impl DeviceProgram for FnProgram {
    type Output = ();

    fn resume(&mut self, _ctx: &mut DeviceCtx, input: Resume) -> Step<()> {
        if let Some(step) = self.queued.pop_front() {
            return step;
        }
        if self.started {
            // A closed channel means the device thread already failed; the
            // Panicked event is waiting in cmd_rx below.
            let _ = self.resume_tx.send(input);
        } else {
            // The device thread starts running at spawn; Resume::Start has
            // no consumer.
            self.started = true;
        }
        loop {
            // lint:allow(no-host-block): lockstep rendezvous with the paired device thread — scheduler-side wait, not a device-side one
            let step = match self.cmd_rx.recv() {
                Ok(FnEvent::Charges(charges)) => {
                    self.queued.extend(charges.into_iter().map(Step::Yield));
                    continue;
                }
                Ok(FnEvent::Yield(cmd)) => Step::Yield(cmd),
                Ok(FnEvent::Done) => Step::Done(()),
                Ok(FnEvent::Panicked(msg)) => std::panic::resume_unwind(Box::new(msg)),
                Err(_) => std::panic::resume_unwind(Box::new(
                    "device thread exited without completing".to_string(),
                )),
            };
            return match self.queued.pop_front() {
                Some(first) => {
                    self.queued.push_back(step);
                    first
                }
                None => step,
            };
        }
    }
}

/// The device thread's endpoint of the lockstep rendezvous.
#[derive(Debug)]
struct EventPort {
    cmd_tx: mpsc::Sender<FnEvent>,
    resume_rx: mpsc::Receiver<Resume>,
    /// Whether the run has a flight recorder, i.e. whether charges are kept.
    recording: bool,
    /// The [`Command::Advance`]s of the charges made since the last yield.
    pending: Vec<Command>,
    /// Answers received from the scheduler so far.
    round_trips: u64,
}

impl EventPort {
    /// Sends the pending charges, if any, ahead of whatever comes next.
    fn flush(&mut self) -> Result<(), mpsc::SendError<FnEvent>> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let charges = std::mem::take(&mut self.pending);
        self.cmd_tx.send(FnEvent::Charges(charges))
    }

    /// Yields `cmd` to the scheduler and blocks until it answers.
    fn roundtrip(&mut self, cmd: Command) -> Resume {
        if self.flush().is_err() || self.cmd_tx.send(FnEvent::Yield(cmd)).is_err() {
            scheduler_terminated();
        }
        match self.resume_rx.recv() {
            Ok(resume) => {
                self.round_trips += 1;
                resume
            }
            Err(_) => scheduler_terminated(),
        }
    }
}

impl Drop for EventPort {
    /// Charges made after the last yield still precede the thread's `Done`.
    fn drop(&mut self) {
        // The scheduler may already be gone (another device failed).
        let _ = self.flush();
    }
}

fn scheduler_terminated() -> ! {
    // lint:allow(no-panic): the scheduler aborted because another device failed; unwind this device thread too (swallowed at join)
    panic!("cluster scheduler terminated")
}

fn protocol_violation(expected: &'static str, got: &Resume) -> ! {
    // The scheduler answers every command with its matching Resume variant.
    unreachable!("scheduler protocol violation: expected {expected}, got {got:?}")
}

/// Handle held by one device: point-to-point messaging plus collectives.
///
/// All collectives must be entered by every rank (they are synchronizing),
/// with matching arguments where noted.
#[derive(Debug)]
pub struct DeviceHandle {
    rank: usize,
    n: usize,
    port: EventPort,
    /// `(bytes, messages)` handed to the scheduler for each destination
    /// rank: the one thing about a run only the handle sees. No slots, so
    /// nothing is counted, until [`DeviceHandle::count_sends`].
    sent: Vec<(u64, u64)>,
}

impl DeviceHandle {
    fn with_event_port(rank: usize, n: usize, port: EventPort) -> Self {
        Self {
            rank,
            n,
            port,
            sent: Vec::new(),
        }
    }

    /// This device's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Charges `seconds` of simulated time (training `epoch`) to this rank.
    /// When the run has a flight recorder ([`Cluster::try_run_fn_recorded`])
    /// the charge reaches the scheduler as a [`Command::Advance`] carrying
    /// `span()`, ahead of this device's next yield and with no round trip of
    /// its own; otherwise this is one branch and `span` is never called.
    pub fn charge(&mut self, epoch: usize, seconds: f64, span: impl FnOnce() -> Span) {
        if self.port.recording {
            let span = Box::new(span());
            self.port.pending.push(Command::Advance {
                epoch,
                seconds,
                span,
            });
        }
    }

    /// How many times this device has handed control to the scheduler and
    /// got it back: one per send, recv or collective, none per charge.
    pub fn round_trips(&self) -> u64 {
        self.port.round_trips
    }

    /// Starts tallying every payload leaving this rank, per destination.
    /// Payload lengths are deterministic, so the tally is too.
    pub fn count_sends(&mut self) {
        self.sent = vec![(0, 0); self.n];
    }

    /// Hands back the `(bytes, messages)` tally indexed by destination rank
    /// (empty unless [`DeviceHandle::count_sends`] was called); later sends
    /// are no longer counted.
    pub fn take_sent(&mut self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.sent)
    }

    /// Total device count.
    pub fn num_devices(&self) -> usize {
        self.n
    }

    /// Whether this device is the master (rank 0), where the master
    /// bit-width assigner lives.
    pub fn is_master(&self) -> bool {
        self.rank == 0
    }

    /// Counts one outgoing payload on the sender side: into the tally,
    /// which has no slots unless sends are being counted. A destination
    /// outside `0..n` is left to the scheduler, which fails the run.
    fn count_send(&mut self, dst: usize, bytes: usize) {
        if let Some((total, messages)) = self.sent.get_mut(dst) {
            *total += bytes as u64;
            *messages += 1;
        }
    }

    /// Sends `payload` to `dst` with a user `tag` (sends never block).
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range, if `tag` collides with the reserved
    /// collective tag space, or if the run was aborted.
    pub fn send(&mut self, dst: usize, tag: u64, payload: Bytes) {
        assert!(dst < self.n, "dst {dst} out of range");
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "tag collides with reserved space"
        );
        self.count_send(dst, payload.len());
        match self.port.roundtrip(Command::Send { dst, tag, payload }) {
            Resume::Sent => {}
            other => protocol_violation("Sent", &other),
        }
    }

    /// Receives the next payload from `src` with `tag` (per-`(src, tag)`
    /// FIFO order), suspending this device until it arrives.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range or the run was aborted.
    pub fn recv(&mut self, src: usize, tag: u64) -> Bytes {
        assert!(src < self.n, "src {src} out of range");
        match self.port.roundtrip(Command::Recv { src, tag }) {
            Resume::Received(payload) => payload,
            other => protocol_violation("Received", &other),
        }
    }

    /// Synchronizes all devices.
    pub fn barrier(&mut self) {
        match self.port.roundtrip(Command::Barrier) {
            Resume::BarrierDone => {}
            other => protocol_violation("BarrierDone", &other),
        }
    }

    /// Ring all2all (Fig. 8): sends each listed `(dst, payload)` over `N-1`
    /// rounds and returns the `(src, payload)` pairs that listed this
    /// device, in ascending `src`. A peer that is not listed is sent
    /// nothing and costs nothing: no payload, no counter, and on the
    /// simulated clock the zero transfer an empty payload would be.
    ///
    /// `sends` must be strictly ascending in `dst`, inside `0..n`, and never
    /// name this device; anything else fails the run with
    /// [`ClusterError::CollectiveMismatch`].
    pub fn ring_exchange(&mut self, sends: Vec<(u32, Bytes)>) -> Vec<(u32, Bytes)> {
        for (dst, payload) in &sends {
            self.count_send(*dst as usize, payload.len());
        }
        match self.port.roundtrip(Command::RingAll2All { sends }) {
            Resume::RingDone(received) => received,
            other => protocol_violation("RingDone", &other),
        }
    }

    /// The dense form of [`DeviceHandle::ring_exchange`]: sends
    /// `payloads[dst]` to every other device, empty ones included, and
    /// returns the payloads received indexed by source (`result[rank]` is
    /// `None`, every other slot `Some`).
    ///
    /// # Panics
    ///
    /// Panics unless `payloads.len() == num_devices()`.
    pub fn ring_all2all(&mut self, payloads: Vec<Bytes>) -> Vec<Option<Bytes>> {
        assert_eq!(payloads.len(), self.n, "one payload per destination");
        let me = self.rank;
        let sends = (0u32..)
            .zip(payloads)
            .filter(|(dst, _)| *dst as usize != me)
            .collect();
        let mut received: Vec<Option<Bytes>> = (0..self.n)
            .map(|src| (src != me).then(Bytes::new))
            .collect();
        for (src, payload) in self.ring_exchange(sends) {
            received[src as usize] = Some(payload);
        }
        received
    }

    /// Broadcast from `root`: the root passes `Some(payload)`, everyone else
    /// `None`; all ranks return the payload.
    ///
    /// # Panics
    ///
    /// Panics if the root passes `None` or a non-root passes `Some`.
    pub fn broadcast(&mut self, root: usize, payload: Option<Bytes>) -> Bytes {
        if self.rank == root {
            // lint:allow(no-panic): documented collective contract (see # Panics)
            let own = payload.as_ref().expect("root must provide the payload");
            for dst in 0..self.n {
                if dst != root {
                    self.count_send(dst, own.len());
                }
            }
        } else {
            assert!(payload.is_none(), "non-root rank passed a payload");
        }
        match self.port.roundtrip(Command::Broadcast { root, payload }) {
            Resume::BroadcastDone(out) => out,
            other => protocol_violation("BroadcastDone", &other),
        }
    }

    /// Gather to `root`: every rank contributes `payload`; the root returns
    /// `Some(all payloads by rank)`, others return `None`.
    pub fn gather(&mut self, root: usize, payload: Bytes) -> Option<Vec<Bytes>> {
        if self.rank != root {
            self.count_send(root, payload.len());
        }
        match self.port.roundtrip(Command::Gather { root, payload }) {
            Resume::GatherDone(result) => result,
            other => protocol_violation("GatherDone", &other),
        }
    }

    /// Scatter from `root`: the root passes one payload per rank; every rank
    /// returns its own slice.
    ///
    /// # Panics
    ///
    /// Panics if the root's vector has the wrong length or a non-root
    /// passes `Some`.
    pub fn scatter(&mut self, root: usize, payloads: Option<Vec<Bytes>>) -> Bytes {
        if self.rank == root {
            // lint:allow(no-panic): documented collective contract (see # Panics)
            let own = payloads.as_ref().expect("root must provide payloads");
            assert_eq!(own.len(), self.n, "one payload per rank");
            for (dst, p) in own.iter().enumerate() {
                if dst != root {
                    self.count_send(dst, p.len());
                }
            }
        } else {
            assert!(payloads.is_none(), "non-root rank passed payloads");
        }
        match self.port.roundtrip(Command::Scatter { root, payloads }) {
            Resume::ScatterDone(own) => own,
            other => protocol_violation("ScatterDone", &other),
        }
    }

    /// Sum-allreduce over `f32` buffers of identical length on every rank
    /// (used for model-gradient synchronization). After the call every rank
    /// holds the elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics if ranks pass different lengths.
    pub fn allreduce_sum_f32(&mut self, data: &mut [f32]) {
        let payload = Bytes::from(
            data.iter()
                .flat_map(|v| v.to_le_bytes())
                .collect::<Vec<u8>>(),
        );
        let gathered = self.gather(0, payload);
        let reduced = if let Some(parts) = gathered {
            let mut acc = vec![0.0f32; data.len()];
            for part in parts {
                assert_eq!(part.len(), data.len() * 4, "allreduce length mismatch");
                for (i, chunk) in part.chunks_exact(4).enumerate() {
                    acc[i] += f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
                }
            }
            let raw: Vec<u8> = acc.iter().flat_map(|v| v.to_le_bytes()).collect();
            self.broadcast(0, Some(Bytes::from(raw)))
        } else {
            self.broadcast(0, None)
        };
        for (i, chunk) in reduced.chunks_exact(4).enumerate() {
            data[i] = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_device_runs() {
        let out = Cluster::run_fn(1, |dev| dev.rank() * 10 + dev.num_devices());
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn point_to_point_roundtrip() {
        let out = Cluster::run_fn(2, |mut dev| {
            if dev.rank() == 0 {
                dev.send(1, 5, Bytes::from_static(b"hello"));
                dev.recv(1, 6)
            } else {
                let got = dev.recv(0, 5);
                dev.send(0, 6, Bytes::from_static(b"world"));
                got
            }
        });
        assert_eq!(&out[0][..], b"world");
        assert_eq!(&out[1][..], b"hello");
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let out = Cluster::run_fn(2, |mut dev| {
            if dev.rank() == 0 {
                dev.send(1, 2, Bytes::from_static(b"second"));
                dev.send(1, 1, Bytes::from_static(b"first"));
                Bytes::new()
            } else {
                // Receive in reverse send order.
                let a = dev.recv(0, 1);
                let b = dev.recv(0, 2);
                Bytes::from([a.as_ref(), b.as_ref()].concat())
            }
        });
        assert_eq!(&out[1][..], b"firstsecond");
    }

    #[test]
    fn same_tag_messages_keep_fifo_order() {
        let out = Cluster::run_fn(2, |mut dev| {
            if dev.rank() == 0 {
                dev.send(1, 1, Bytes::from_static(b"a"));
                dev.send(1, 1, Bytes::from_static(b"b"));
                Bytes::new()
            } else {
                let a = dev.recv(0, 1);
                let b = dev.recv(0, 1);
                Bytes::from([a.as_ref(), b.as_ref()].concat())
            }
        });
        assert_eq!(&out[1][..], b"ab");
    }

    #[test]
    fn ring_all2all_delivers_everything() {
        let n = 4;
        let out = Cluster::run_fn(n, |mut dev| {
            let payloads: Vec<Bytes> = (0..n)
                .map(|dst| Bytes::from(vec![dev.rank() as u8, dst as u8]))
                .collect();
            dev.ring_all2all(payloads)
        });
        for (me, received) in out.iter().enumerate() {
            for (src, p) in received.iter().enumerate() {
                if src == me {
                    assert!(p.is_none());
                } else {
                    let p = p.as_ref().expect("payload from every peer");
                    assert_eq!(p.as_ref(), &[src as u8, me as u8]);
                }
            }
        }
    }

    #[test]
    fn repeated_ring_all2all_does_not_cross_rounds() {
        let n = 3;
        let out = Cluster::run_fn(n, |mut dev| {
            let mut sums = Vec::new();
            for iter in 0..5u8 {
                let payloads: Vec<Bytes> = (0..n).map(|_| Bytes::from(vec![iter])).collect();
                let got = dev.ring_all2all(payloads);
                let s: u32 = got.iter().flatten().map(|b| b[0] as u32).sum();
                sums.push(s);
            }
            sums
        });
        for dev_sums in out {
            assert_eq!(dev_sums, vec![0, 2, 4, 6, 8]);
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let out = Cluster::run_fn(3, |mut dev| {
            let payload = if dev.rank() == 2 {
                Some(Bytes::from_static(b"root2"))
            } else {
                None
            };
            dev.broadcast(2, payload)
        });
        for b in out {
            assert_eq!(&b[..], b"root2");
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = Cluster::run_fn(4, |mut dev| {
            dev.gather(0, Bytes::from(vec![dev.rank() as u8 * 3]))
        });
        let at_root = out[0].as_ref().expect("root has all");
        assert_eq!(at_root.len(), 4);
        for (r, b) in at_root.iter().enumerate() {
            assert_eq!(b[0] as usize, r * 3);
        }
        assert!(out[1].is_none());
    }

    #[test]
    fn scatter_distributes() {
        let out = Cluster::run_fn(3, |mut dev| {
            let payloads = if dev.is_master() {
                Some((0..3).map(|r| Bytes::from(vec![r as u8 + 10])).collect())
            } else {
                None
            };
            dev.scatter(0, payloads)
        });
        for (r, b) in out.iter().enumerate() {
            assert_eq!(b[0] as usize, r + 10);
        }
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let out = Cluster::run_fn(3, |mut dev| {
            let mut data = vec![dev.rank() as f32, 1.0];
            dev.allreduce_sum_f32(&mut data);
            data
        });
        for data in out {
            assert_eq!(data, vec![3.0, 3.0]); // 0+1+2, 1+1+1
        }
    }

    #[test]
    fn metrics_count_sent_bytes_per_pair() {
        let out = Cluster::run_fn(2, |mut dev| {
            dev.count_sends();
            if dev.rank() == 0 {
                dev.send(1, 5, Bytes::from_static(b"hello"));
                dev.recv(1, 6);
            } else {
                dev.recv(0, 5);
                dev.send(0, 6, Bytes::from_static(b"hi"));
            }
            dev.take_sent()
        });
        // `out[src][dst]` is `(bytes, messages)`.
        assert_eq!(out[0][1].0, 5, "rank 0 counted its send");
        assert_eq!(out[1][0].1, 1, "rank 1 counted its send");
        // The tally only tracks the sender side.
        assert_eq!(out[0][0], (0, 0));
        assert_eq!(out[1][1], (0, 0));
    }

    #[test]
    fn metrics_disabled_by_default_and_detachable() {
        let out = Cluster::run_fn(2, |mut dev| {
            let peer = 1 - dev.rank();
            dev.send(peer, 1, Bytes::from_static(b"uncounted"));
            let off = dev.take_sent();
            dev.count_sends();
            dev.send(peer, 2, Bytes::from_static(b"counted"));
            let taken = dev.take_sent();
            dev.send(peer, 3, Bytes::from_static(b"detached"));
            (off, taken[peer], dev.take_sent())
        });
        for (off, counted, detached) in out {
            assert!(off.is_empty(), "nothing is counted until asked");
            assert_eq!(counted, (7, 1));
            assert!(detached.is_empty(), "taking the tally stops the count");
        }
    }

    #[test]
    fn a_charge_without_a_recorder_is_never_built() {
        let out = Cluster::run_fn(1, |mut dev| {
            dev.charge(0, 1.0, || unreachable!("no recorder, so no span"));
            dev.round_trips()
        });
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNT: AtomicUsize = AtomicUsize::new(0);
        let out = Cluster::run_fn(4, |mut dev| {
            COUNT.fetch_add(1, Ordering::SeqCst);
            dev.barrier();
            // After the barrier all 4 increments must be visible.
            COUNT.load(Ordering::SeqCst)
        });
        for seen in out {
            assert_eq!(seen, 4);
        }
    }

    // ---- event-core specifics: clocks, reports, failure modes ----

    #[test]
    fn report_counts_messages_and_collectives() {
        let report = Cluster::try_run_fn_with(2, None, |mut dev| {
            if dev.rank() == 0 {
                dev.send(1, 1, Bytes::from_static(b"x"));
            } else {
                dev.recv(0, 1);
            }
            dev.barrier();
        })
        .expect("run succeeds");
        assert_eq!(report.messages, 1);
        assert_eq!(report.collectives, 1);
    }

    #[test]
    fn clocks_follow_the_cost_model() {
        // theta = 1/bw = 1e-6 s/B, gamma = 1e-3 s; 100 bytes -> 1.1e-3 s.
        let cost = CostModel::homogeneous(2, 1e6, 1e-3);
        let report = Cluster::try_run_fn_with(2, Some(&cost), |mut dev| {
            if dev.rank() == 0 {
                dev.send(1, 1, Bytes::from(vec![0u8; 100]));
            } else {
                dev.recv(0, 1);
            }
        })
        .expect("run succeeds");
        assert_eq!(report.clocks[0], 0.0);
        assert!((report.clocks[1] - 1.1e-3).abs() < 1e-12);
        assert_eq!(report.makespan(), report.clocks[1]);
    }

    #[test]
    fn unmatched_recv_reports_a_deadlock() {
        let err = Cluster::try_run_fn(2, |mut dev| {
            if dev.rank() == 0 {
                let _ = dev.recv(1, 9); // rank 1 never sends
            }
        })
        .expect_err("deadlock must be detected");
        let ClusterError::Deadlock { graph } = &err else {
            panic!("expected a deadlock, got {err}");
        };
        assert_eq!(graph.blocked.len(), 1);
        assert_eq!(graph.blocked[0].rank, 0);
        assert_eq!(
            graph.blocked[0].cause,
            crate::waitgraph::WaitCause::Recv { src: 1, tag: 9 }
        );
        assert_eq!(graph.finished, vec![1]);
    }

    #[test]
    fn mismatched_collectives_are_rejected() {
        let err = Cluster::try_run_fn(2, |mut dev| {
            if dev.rank() == 0 {
                dev.barrier();
            } else {
                let _ = dev.broadcast(0, None);
            }
        })
        .expect_err("kind mismatch must be detected");
        assert!(
            matches!(err, ClusterError::CollectiveMismatch { .. }),
            "got {err}"
        );
    }

    #[test]
    fn device_panic_is_reported_with_rank() {
        let err = Cluster::try_run_fn(2, |dev| {
            if dev.rank() == 1 {
                panic!("boom on 1");
            }
        })
        .expect_err("panic must surface");
        let ClusterError::DevicePanicked { rank, message } = err else {
            panic!("expected DevicePanicked");
        };
        assert_eq!(rank, 1);
        assert!(message.contains("boom on 1"), "message: {message}");
    }

    #[test]
    fn zero_devices_is_an_error() {
        assert_eq!(
            Cluster::try_run_fn(0, |dev| dev.rank()).expect_err("no devices"),
            ClusterError::NoDevices
        );
    }

    /// Native state-machine form: each device sends its rank right and
    /// receives from the left, without any OS thread per device.
    enum Shift {
        Sending,
        Receiving,
    }

    impl DeviceProgram for Shift {
        type Output = usize;
        fn resume(&mut self, ctx: &mut DeviceCtx, input: Resume) -> Step<usize> {
            match self {
                Shift::Sending => {
                    let right = (ctx.rank() + 1) % ctx.num_devices();
                    *self = Shift::Receiving;
                    Step::Yield(Command::Send {
                        dst: right,
                        tag: 3,
                        payload: Bytes::from(vec![(ctx.rank() % 251) as u8]),
                    })
                }
                Shift::Receiving => match input {
                    Resume::Sent => {
                        let n = ctx.num_devices();
                        let left = (ctx.rank() + n - 1) % n;
                        Step::Yield(Command::Recv { src: left, tag: 3 })
                    }
                    Resume::Received(payload) => Step::Done(payload[0] as usize),
                    // The scheduler honors the yield contract.
                    _ => unreachable!("unexpected resume"),
                },
            }
        }
    }

    #[test]
    fn scales_to_1024_devices_in_one_process() {
        let n = 1024;
        let out = Cluster::run(n, |_rank| Shift::Sending);
        assert_eq!(out.len(), n);
        for (rank, got) in out.iter().enumerate() {
            let left = (rank + n - 1) % n;
            assert_eq!(*got, left % 251);
        }
    }
}
