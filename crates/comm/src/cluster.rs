//! The simulated cluster: the public entry points over the discrete-event
//! core (`comm::event`) and the handles every device talks through.
//!
//! Two ways to express a device, both stepped by the one scheduler:
//!
//! * **`async` body** — a future over an [`AsyncDevice`], started with
//!   [`Cluster::try_run_async`]: each collective is one `.await`, and the
//!   compiler generates the state machine. No OS thread per device, so one
//!   process scales to thousands of devices. Every trainer
//!   `adaqp::run_experiment` ships is such a body.
//! * **Closure** — an imperative `Fn(DeviceHandle) -> T` for
//!   [`Cluster::run_fn`], on a thread held in lockstep with the scheduler:
//!   each `DeviceHandle` operation runs its [`AsyncDevice`] namesake and
//!   blocks the thread while it waits. Results are identical to the `async`
//!   form; the form stays because the benchmark harness calls it by name.

use crate::event::{self, ClusterReport};
use crate::flight::FlightRecorder;
use crate::program::{Command, DeviceProgram, Resume, Step};
use crate::CostModel;
use bytes::Bytes;
use obs::time::Span;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::{poll_fn, Future};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::{pin, Pin};
use std::rc::Rc;
use std::sync::{mpsc, Mutex};
use std::task::{Context, Poll, Waker};

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
    /// The cluster deadlocked: no device is runnable, and not every device
    /// is parked at a collective. Carries the full wait-for graph — every
    /// suspended rank, the finished ranks and the collective frontier (see
    /// [`crate::waitgraph`]).
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

/// The simulated cluster.
///
/// # Example
///
/// ```
/// use comm::Cluster;
/// use bytes::Bytes;
///
/// // Each device sends its rank to the right neighbor.
/// let report = Cluster::try_run_async(3, None, None, |mut dev| async move {
///     let right = (dev.rank() + 1) % dev.num_devices();
///     let sends = vec![(right as u32, Bytes::from(vec![dev.rank() as u8]))];
///     let got = dev.ring_exchange(sends).await;
///     got[0].1[0] as usize
/// });
/// assert_eq!(report.unwrap().outputs, vec![2, 0, 1]);
/// ```
#[derive(Debug)]
pub struct Cluster;

impl Cluster {
    /// Runs the `async` body `f` builds for each rank under the scheduler,
    /// with no OS thread per device, charging link events to `cost`. A
    /// `recorder` logs every scheduling transition and receives the bodies'
    /// [`AsyncDevice::charge`]s; without one, charges are dropped where made.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoDevices`] if `n == 0`;
    /// [`ClusterError::DevicePanicked`] if a body panics, for its rank;
    /// [`ClusterError::Deadlock`] on a stall, carrying the wait-for graph;
    /// [`ClusterError::CollectiveMismatch`] when ranks disagree on a
    /// collective.
    pub fn try_run_async<F, Fut>(
        n: usize,
        cost: Option<&CostModel>,
        recorder: Option<&mut FlightRecorder>,
        mut f: F,
    ) -> Result<ClusterReport<Fut::Output>, ClusterError>
    where
        F: FnMut(AsyncDevice) -> Fut,
        Fut: Future,
    {
        let recording = recorder.is_some();
        let programs = (0..n).map(|rank| {
            let dev = AsyncDevice::new(rank, n, recording);
            AsyncProgram {
                port: Rc::clone(&dev.port),
                body: Some(Box::pin(f(dev))),
                output: None,
            }
        });
        event::run_programs(programs.collect(), cost, recorder)
    }

    /// Runs an imperative closure per device on the event core and returns
    /// the outputs in rank order.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or if any device fails.
    #[expect(clippy::panic, reason = "documented panicking wrapper")]
    pub fn run_fn<T, F>(n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(DeviceHandle) -> T + Sync,
    {
        match Self::try_run_fn(n, f) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Cluster::run_fn`].
    ///
    /// # Errors
    ///
    /// As [`Cluster::try_run_async`]; a panic inside `f` surfaces as
    /// [`ClusterError::DevicePanicked`] for the first rank the scheduler
    /// steps into the failure.
    pub fn try_run_fn<T, F>(n: usize, f: F) -> Result<Vec<T>, ClusterError>
    where
        T: Send,
        F: Fn(DeviceHandle) -> T + Sync,
    {
        Self::try_run_fn_with(n, None, f).map(|report| report.outputs)
    }

    /// Closure form of [`Cluster::try_run_async`]: runs `f` per device in
    /// scheduler lockstep, charging link events to `cost`, and returns the
    /// full [`ClusterReport`].
    ///
    /// # Errors
    ///
    /// As [`Cluster::try_run_async`].
    pub fn try_run_fn_with<T, F>(
        n: usize,
        cost: Option<&CostModel>,
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
                    });
                    joins.push(scope.spawn(move || {
                        let done_tx = cmd_tx.clone();
                        let dev = AsyncDevice::new(rank, n, false);
                        let port = Rc::clone(&dev.port);
                        let link = Link {
                            port,
                            cmd_tx,
                            resume_rx,
                        };
                        match catch_unwind(AssertUnwindSafe(|| f(DeviceHandle { dev, link }))) {
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
                let report = event::run_programs(stubs, cost, None);
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
            collectives: report.collectives,
        })
    }
}

/// Where one device's operations meet their driver ([`AsyncProgram`] or a
/// closure device's [`Link`]): an operation leaves the command it waits on
/// here, the driver hands it to the scheduler and leaves the answer.
#[derive(Debug, Default)]
struct Port {
    /// Commands for the scheduler in the order they were made: the
    /// [`Command::Advance`]s of the charges since the last yield, then the
    /// command the device waits on.
    queue: VecDeque<Command>,
    /// The scheduler's answer to that command, until the device takes it.
    answer: Option<Resume>,
    /// Whether the run has a flight recorder, i.e. whether charges are kept.
    recording: bool,
}

/// The adapter that runs an `async` device body as a [`DeviceProgram`]:
/// each `resume` hands the scheduler the next queued command, or leaves the
/// answer and polls the body (with a no-op waker: only the scheduler ever
/// makes a device runnable). Queued charges go out one step each, so the
/// scheduler sees a program that yielded every charge where it was made.
struct AsyncProgram<F: Future> {
    port: Rc<RefCell<Port>>,
    /// The body; `None` once it has returned, so it is never polled again.
    body: Option<Pin<Box<F>>>,
    /// What the body returned, until the charges it made last are handed over.
    output: Option<F::Output>,
}

impl<F: Future> DeviceProgram for AsyncProgram<F> {
    type Output = F::Output;

    fn resume(&mut self, input: Resume) -> Step<F::Output> {
        let mut next = self.port.borrow_mut().queue.pop_front();
        if next.is_none() {
            if let Some(body) = self.body.as_mut() {
                // Everything queued is handed over: `input` answers the body
                // (`Start`, before its first poll, answers nothing).
                if !matches!(input, Resume::Start) {
                    self.port.borrow_mut().answer = Some(input);
                }
                let cx = &mut Context::from_waker(Waker::noop());
                if let Poll::Ready(out) = body.as_mut().poll(cx) {
                    self.body = None;
                    self.output = Some(out);
                }
                next = self.port.borrow_mut().queue.pop_front();
            }
        }
        if let Some(cmd) = next {
            return Step::Yield(cmd);
        }
        match self.output.take() {
            Some(out) => Step::Done(out),
            // Every `AsyncDevice` operation leaves a command before it waits.
            None => unreachable!("a device body waits on something other than the cluster"),
        }
    }
}

/// Scheduler-side view of one closure device: commands flow out of the
/// device thread, resume values flow back in.
enum FnEvent {
    Yield(Command),
    Done,
    Panicked(String),
}

/// The adapter that turns a closure device into a [`DeviceProgram`]: each
/// `resume` forwards the answer to the device thread and blocks until the
/// thread reaches its next yield point. The blocking wait lives on the
/// *scheduler* side of the rendezvous — the device thread itself only ever
/// waits for the scheduler, never for host time.
struct FnProgram {
    cmd_rx: mpsc::Receiver<FnEvent>,
    resume_tx: mpsc::Sender<Resume>,
    started: bool,
}

impl DeviceProgram for FnProgram {
    type Output = ();

    fn resume(&mut self, input: Resume) -> Step<()> {
        if self.started {
            // A closed channel means the device thread already failed; the
            // Panicked event is waiting in cmd_rx below.
            let _ = self.resume_tx.send(input);
        } else {
            // The device thread starts running at spawn; Resume::Start has
            // no consumer.
            self.started = true;
        }
        // lint:allow(no-host-block): lockstep rendezvous with the paired device thread — scheduler-side wait, not a device-side one
        match self.cmd_rx.recv() {
            Ok(FnEvent::Yield(cmd)) => Step::Yield(cmd),
            Ok(FnEvent::Done) => Step::Done(()),
            Ok(FnEvent::Panicked(msg)) => std::panic::resume_unwind(Box::new(msg)),
            Err(_) => std::panic::resume_unwind(Box::new(
                "device thread exited without completing".to_string(),
            )),
        }
    }
}

/// The device thread's endpoint of the lockstep rendezvous.
#[derive(Debug)]
struct Link {
    port: Rc<RefCell<Port>>,
    cmd_tx: mpsc::Sender<FnEvent>,
    resume_rx: mpsc::Receiver<Resume>,
}

impl Link {
    /// Runs one device operation to completion on this thread, blocking it
    /// while the scheduler answers each command the operation waits on.
    fn block_on<T>(&self, op: impl Future<Output = T>) -> T {
        let mut op = pin!(op);
        let cx = &mut Context::from_waker(Waker::noop());
        loop {
            if let Poll::Ready(out) = op.as_mut().poll(cx) {
                return out;
            }
            let Some(cmd) = self.port.borrow_mut().queue.pop_front() else {
                unreachable!("an `AsyncDevice` operation leaves a command before it waits")
            };
            if self.cmd_tx.send(FnEvent::Yield(cmd)).is_err() {
                scheduler_terminated();
            }
            match self.resume_rx.recv() {
                Ok(resume) => self.port.borrow_mut().answer = Some(resume),
                Err(_) => scheduler_terminated(),
            }
        }
    }
}

/// The scheduler aborted because another device failed: unwind this device
/// thread too (the panic is swallowed at join).
#[expect(clippy::panic, reason = "unwinds the device thread")]
fn scheduler_terminated() -> ! {
    panic!("cluster scheduler terminated")
}

fn protocol_violation(expected: &'static str, got: &Resume) -> ! {
    // The scheduler answers every command with its matching Resume variant.
    unreachable!("scheduler protocol violation: expected {expected}, got {got:?}")
}

/// Handle held by one `async` device body: the collectives, each an
/// `async fn` that yields one command to the scheduler and resumes with its
/// answer.
///
/// All collectives must be entered by every rank (they are synchronizing),
/// with matching arguments where noted.
#[derive(Debug)]
pub struct AsyncDevice {
    rank: usize,
    n: usize,
    port: Rc<RefCell<Port>>,
    /// `(bytes, messages)` handed to the scheduler for each destination
    /// rank: the one thing about a run only the handle sees. No slots, so
    /// nothing is counted, until [`AsyncDevice::count_sends`].
    sent: Vec<(u64, u64)>,
}

impl AsyncDevice {
    /// The handle of `rank` of `n`; its driver shares `port`.
    fn new(rank: usize, n: usize, recording: bool) -> Self {
        let port = Rc::new(RefCell::new(Port {
            recording,
            ..Port::default()
        }));
        let sent = Vec::new();
        Self {
            rank,
            n,
            port,
            sent,
        }
    }

    /// This device's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total device count.
    pub fn num_devices(&self) -> usize {
        self.n
    }

    /// Charges `seconds` of simulated time (training `epoch`) to this rank.
    /// When the run has a flight recorder ([`Cluster::try_run_async`]) the
    /// charge reaches the scheduler as a `Command::Advance` carrying
    /// `span()`, ahead of this device's next yield and with no poll of its
    /// own; otherwise this is one branch and `span` is never called.
    pub fn charge(&mut self, epoch: usize, seconds: f64, span: impl FnOnce() -> Span) {
        let mut port = self.port.borrow_mut();
        if port.recording {
            let span = Box::new(span());
            port.queue.push_back(Command::Advance {
                epoch,
                seconds,
                span,
            });
        }
    }

    /// Starts tallying every payload leaving this rank, per destination.
    /// Payload lengths are deterministic, so the tally is too.
    pub fn count_sends(&mut self) {
        self.sent = vec![(0, 0); self.n];
    }

    /// Hands back the `(bytes, messages)` tally indexed by destination rank
    /// (empty unless [`AsyncDevice::count_sends`] was called); later sends
    /// are no longer counted.
    pub fn take_sent(&mut self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.sent)
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

    /// Leaves `cmd` for the driver and waits for the scheduler's answer.
    async fn roundtrip(&mut self, cmd: Command) -> Resume {
        self.port.borrow_mut().queue.push_back(cmd);
        poll_fn(|_| {
            let answer = self.port.borrow_mut().answer.take();
            answer.map_or(Poll::Pending, Poll::Ready)
        })
        .await
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
    pub async fn ring_exchange(&mut self, sends: Vec<(u32, Bytes)>) -> Vec<(u32, Bytes)> {
        for (dst, payload) in &sends {
            self.count_send(*dst as usize, payload.len());
        }
        match self.roundtrip(Command::RingAll2All { sends }).await {
            Resume::RingDone(received) => received,
            other => protocol_violation("RingDone", &other),
        }
    }

    /// Broadcast from `root`: the root passes `Some(payload)`, everyone else
    /// `None`; all ranks return the payload.
    ///
    /// # Panics
    ///
    /// Panics if the root passes `None` or a non-root passes `Some`.
    #[expect(clippy::expect_used, reason = "documented collective contract")]
    pub async fn broadcast(&mut self, root: usize, payload: Option<Bytes>) -> Bytes {
        if self.rank == root {
            let own = payload.as_ref().expect("root must provide the payload");
            for dst in 0..self.n {
                if dst != root {
                    self.count_send(dst, own.len());
                }
            }
        } else {
            assert!(payload.is_none(), "non-root rank passed a payload");
        }
        match self.roundtrip(Command::Broadcast { root, payload }).await {
            Resume::BroadcastDone(out) => out,
            other => protocol_violation("BroadcastDone", &other),
        }
    }

    /// Gather to `root`: every rank contributes `payload`; the root returns
    /// `Some(all payloads by rank)`, others return `None`.
    pub async fn gather(&mut self, root: usize, payload: Bytes) -> Option<Vec<Bytes>> {
        if self.rank != root {
            self.count_send(root, payload.len());
        }
        match self.roundtrip(Command::Gather { root, payload }).await {
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
    #[expect(clippy::expect_used, reason = "documented collective contract")]
    pub async fn scatter(&mut self, root: usize, payloads: Option<Vec<Bytes>>) -> Bytes {
        if self.rank == root {
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
        match self.roundtrip(Command::Scatter { root, payloads }).await {
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
    pub async fn allreduce_sum_f32(&mut self, data: &mut [f32]) {
        let payload = Bytes::from(
            data.iter()
                .flat_map(|v| v.to_le_bytes())
                .collect::<Vec<u8>>(),
        );
        let gathered = self.gather(0, payload).await;
        let reduced = if let Some(parts) = gathered {
            let mut acc = vec![0.0f32; data.len()];
            for part in parts {
                assert_eq!(part.len(), data.len() * 4, "allreduce length mismatch");
                for (i, chunk) in part.chunks_exact(4).enumerate() {
                    acc[i] += f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
                }
            }
            let raw: Vec<u8> = acc.iter().flat_map(|v| v.to_le_bytes()).collect();
            self.broadcast(0, Some(Bytes::from(raw))).await
        } else {
            self.broadcast(0, None).await
        };
        for (i, chunk) in reduced.chunks_exact(4).enumerate() {
            data[i] = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
    }
}

/// Handle held by one closure device: the [`AsyncDevice`] operations the
/// benchmark harness and the `adaqp::exchange::exchange_forward_*` entry
/// points use, each run to completion on the device's thread.
#[derive(Debug)]
pub struct DeviceHandle {
    dev: AsyncDevice,
    link: Link,
}

impl DeviceHandle {
    /// This device's rank.
    pub fn rank(&self) -> usize {
        self.dev.rank
    }

    /// [`AsyncDevice::ring_exchange`], blocking this thread until the ring
    /// completes.
    pub fn ring_exchange(&mut self, sends: Vec<(u32, Bytes)>) -> Vec<(u32, Bytes)> {
        self.link.block_on(self.dev.ring_exchange(sends))
    }

    /// The dense form of [`DeviceHandle::ring_exchange`]: sends
    /// `payloads[dst]` to every other device, empty ones included, and
    /// returns the payloads received indexed by source (`result[rank]` is
    /// `None`, every other slot `Some`).
    ///
    /// # Panics
    ///
    /// Panics unless there is one payload per device.
    pub fn ring_all2all(&mut self, payloads: Vec<Bytes>) -> Vec<Option<Bytes>> {
        let (me, n) = (self.dev.rank, self.dev.n);
        assert_eq!(payloads.len(), n, "one payload per destination");
        let sends = (0u32..)
            .zip(payloads)
            .filter(|(dst, _)| *dst as usize != me)
            .collect();
        let mut received: Vec<Option<Bytes>> =
            (0..n).map(|src| (src != me).then(Bytes::new)).collect();
        for (src, payload) in self.ring_exchange(sends) {
            received[src as usize] = Some(payload);
        }
        received
    }

    /// [`AsyncDevice::allreduce_sum_f32`], blocking this thread until the
    /// sum arrives.
    pub fn allreduce_sum_f32(&mut self, data: &mut [f32]) {
        self.link.block_on(self.dev.allreduce_sum_f32(data));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::critpath::FlightOp;
    use obs::time::{EventDetail, EventKind};
    use proptest::prelude::*;

    /// Runs the `async` body `f` builds per rank, uncosted and unrecorded.
    fn run_async<Fut: Future>(n: usize, f: impl FnMut(AsyncDevice) -> Fut) -> Vec<Fut::Output> {
        Cluster::try_run_async(n, None, None, f)
            .expect("run succeeds")
            .outputs
    }

    #[test]
    fn single_device_runs() {
        let out = run_async(1, |dev| async move { dev.rank() * 10 + dev.num_devices() });
        assert_eq!(out, vec![1]);
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
        let out = run_async(3, |mut dev| async move {
            let payload = (dev.rank() == 2).then(|| Bytes::from_static(b"root2"));
            dev.broadcast(2, payload).await
        });
        for b in out {
            assert_eq!(&b[..], b"root2");
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = run_async(4, |mut dev| async move {
            let own = Bytes::from(vec![dev.rank() as u8 * 3]);
            dev.gather(0, own).await
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
        let out = run_async(3, |mut dev| async move {
            let payloads = (dev.rank() == 0)
                .then(|| (0..3).map(|r| Bytes::from(vec![r as u8 + 10])).collect());
            dev.scatter(0, payloads).await
        });
        for (r, b) in out.iter().enumerate() {
            assert_eq!(b[0] as usize, r + 10);
        }
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let body = |mut dev: AsyncDevice| async move {
            let mut data = vec![dev.rank() as f32, 1.0];
            dev.allreduce_sum_f32(&mut data).await;
            data
        };
        // The closure handle runs the same operation on its thread.
        let closure = Cluster::run_fn(3, |mut dev| {
            let mut data = vec![dev.rank() as f32, 1.0];
            dev.allreduce_sum_f32(&mut data);
            data
        });
        assert_eq!(run_async(3, body), closure);
        for data in closure {
            assert_eq!(data, vec![3.0, 3.0]); // 0+1+2, 1+1+1
        }
    }

    #[test]
    fn metrics_count_sent_bytes_per_pair() {
        let out = run_async(2, |mut dev| async move {
            dev.count_sends();
            let peer = 1 - dev.rank();
            let payload = if dev.rank() == 0 { "hello" } else { "hi" };
            dev.ring_exchange(vec![(peer as u32, Bytes::from_static(payload.as_bytes()))])
                .await;
            dev.take_sent()
        });
        // `out[src][dst]` is `(bytes, messages)`.
        assert_eq!(out[0][1], (5, 1), "rank 0 counted its send");
        assert_eq!(out[1][0], (2, 1), "rank 1 counted its send");
        // The tally only tracks the sender side.
        assert_eq!(out[0][0], (0, 0));
        assert_eq!(out[1][1], (0, 0));
    }

    #[test]
    fn metrics_disabled_by_default_and_detachable() {
        let out = run_async(2, |mut dev| async move {
            let peer = 1 - dev.rank();
            let send =
                |text: &'static str| vec![(peer as u32, Bytes::from_static(text.as_bytes()))];
            dev.ring_exchange(send("uncounted")).await;
            let off = dev.take_sent();
            dev.count_sends();
            dev.ring_exchange(send("counted")).await;
            let taken = dev.take_sent();
            dev.ring_exchange(send("detached")).await;
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
        let report = Cluster::try_run_async(1, None, None, |mut dev| async move {
            dev.charge(0, 1.0, || unreachable!("no recorder, so no span"));
        })
        .expect("run succeeds");
        assert_eq!(
            report.clocks,
            vec![0.0],
            "the charge never reached the clock"
        );
    }

    #[test]
    fn collectives_synchronize() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNT: AtomicUsize = AtomicUsize::new(0);
        let out = run_async(4, |mut dev| async move {
            COUNT.fetch_add(1, Ordering::SeqCst);
            dev.ring_exchange(Vec::new()).await;
            // After the collective all 4 increments must be visible.
            COUNT.load(Ordering::SeqCst)
        });
        for seen in out {
            assert_eq!(seen, 4);
        }
    }

    // ---- event-core specifics: clocks, reports, failure modes ----

    #[test]
    fn report_counts_collectives() {
        let report = Cluster::try_run_async(2, None, None, |mut dev| async move {
            dev.ring_exchange(Vec::new()).await;
            // Gather + broadcast.
            dev.allreduce_sum_f32(&mut [1.0]).await;
        })
        .expect("run succeeds");
        assert_eq!(report.collectives, 3);
    }

    #[test]
    fn clocks_follow_the_cost_model() {
        // theta = 1/bw = 1e-6 s/B, gamma = 1e-3 s; 100 bytes -> 1.1e-3 s.
        let cost = CostModel::homogeneous(2, 1e6, 1e-3);
        let report = Cluster::try_run_async(2, Some(&cost), None, |mut dev| async move {
            let payload = (dev.rank() == 0).then(|| Bytes::from(vec![0u8; 100]));
            dev.broadcast(0, payload).await;
        })
        .expect("run succeeds");
        assert_eq!(report.clocks[0], 0.0);
        assert!((report.clocks[1] - 1.1e-3).abs() < 1e-12);
        assert_eq!(report.makespan(), report.clocks[1]);
    }

    #[test]
    fn mismatched_collectives_are_rejected() {
        let err = Cluster::try_run_async(2, None, None, |mut dev| async move {
            if dev.rank() == 0 {
                let _ = dev.gather(0, Bytes::new()).await;
            } else {
                let _ = dev.broadcast(0, None).await;
            }
        })
        .expect_err("kind mismatch must be detected");
        assert!(
            matches!(err, ClusterError::CollectiveMismatch { rank: 1, .. }),
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
        let run = Cluster::try_run_async(0, None, None, |dev| async move { dev.rank() });
        assert_eq!(run.expect_err("no devices"), ClusterError::NoDevices);
    }

    // ---- failure paths of the async adapter ----

    #[test]
    fn a_panicking_body_is_reported_with_its_rank() {
        let err = Cluster::try_run_async(3, None, None, |mut dev| async move {
            dev.ring_exchange(Vec::new()).await;
            if dev.rank() == 2 {
                panic!("boom on 2");
            }
            dev.ring_exchange(Vec::new()).await;
        })
        .expect_err("panic must surface");
        let ClusterError::DevicePanicked { rank, message } = err else {
            panic!("expected DevicePanicked, got {err}");
        };
        assert_eq!(rank, 2);
        assert!(message.contains("boom on 2"), "message: {message}");
    }

    #[test]
    fn a_body_that_returns_while_peers_wait_at_a_collective_is_listed_finished() {
        let err = Cluster::try_run_async(3, None, None, |mut dev| async move {
            if dev.rank() != 1 {
                dev.ring_exchange(Vec::new()).await;
            }
        })
        .expect_err("the ring can never fire");
        let ClusterError::Deadlock { graph } = &err else {
            panic!("expected a deadlock, got {err}");
        };
        assert_eq!(graph.finished, vec![1]);
        let blocked: Vec<usize> = graph.blocked.iter().map(|b| b.rank).collect();
        assert_eq!(blocked, [0, 2]);
        let front = graph.collective.as_ref().expect("front recorded");
        assert_eq!((front.kind, &front.absent), ("ring_all2all", &vec![1]));
    }

    /// A body that fails loudly if it is polled after it returned.
    struct PollOnceDone<F> {
        body: Pin<Box<F>>,
        returned: bool,
    }

    impl<F: Future> Future for PollOnceDone<F> {
        type Output = F::Output;

        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
            assert!(!self.returned, "polled after it returned");
            let out = self.body.as_mut().poll(cx);
            self.returned = out.is_ready();
            out
        }
    }

    #[test]
    fn a_finished_body_is_never_polled_again() {
        // The charges after the last yield are handed over after the body
        // returned: one scheduler step each, none of them a poll.
        let body = |mut dev: AsyncDevice| PollOnceDone {
            body: Box::pin(async move {
                dev.ring_exchange(Vec::new()).await;
                for epoch in 0..2 {
                    dev.charge(epoch, 1.0, || Span::new(EventKind::CentralCompute));
                }
                dev.rank()
            }),
            returned: false,
        };
        let mut rec = FlightRecorder::new(2);
        let report = Cluster::try_run_async(2, None, Some(&mut rec), body).expect("run succeeds");
        assert_eq!(report.outputs, vec![0, 1]);
        assert_eq!(report.clocks, vec![2.0, 2.0]);
        let log = rec.finish();
        for rank in 0..2 {
            let ops: Vec<FlightOp> = log
                .events
                .iter()
                .filter(|e| e.rank == rank)
                .map(|e| e.op)
                .collect();
            let tail = &ops[ops.len() - 3..];
            assert_eq!(
                tail,
                [
                    FlightOp::PhaseAdvance,
                    FlightOp::PhaseAdvance,
                    FlightOp::Done
                ]
            );
        }
        let unrecorded = Cluster::try_run_async(2, None, None, body).expect("run succeeds");
        assert_eq!(unrecorded.outputs, vec![0, 1]);
    }

    #[test]
    fn scales_to_1024_devices_in_one_process() {
        // Each device sends its rank to the right neighbor: no OS thread per
        // device, so 1024 of them fit in one process.
        let n = 1024;
        let out = run_async(n, |mut dev| async move {
            let right = (dev.rank() + 1) % n;
            let sends = vec![(right as u32, Bytes::from(vec![(dev.rank() % 251) as u8]))];
            let got = dev.ring_exchange(sends).await;
            got[0].1[0] as usize
        });
        assert_eq!(out.len(), n);
        for (rank, got) in out.iter().enumerate() {
            let left = (rank + n - 1) % n;
            assert_eq!(*got, left % 251);
        }
    }

    // ---- the adapter against a hand-written state machine ----

    /// The charge at script position `i` on `rank`: its epoch, seconds, and
    /// a span whose kind and detail follow from the rank and the position.
    fn scripted_charge(i: usize, op: u8, rank: usize, n: usize) -> (usize, f64, Span) {
        const KINDS: [EventKind; 4] = [
            EventKind::HaloSend,
            EventKind::QuantEncode,
            EventKind::CentralCompute,
            EventKind::AssignerSolve,
        ];
        let others = || (0..n as u32).filter(|&q| q as usize != rank);
        let mut span = Span::new(KINDS[(op as usize + rank) % KINDS.len()]);
        span.layer = (!i.is_multiple_of(3)).then_some(i as u32 % 3);
        span.detail = EventDetail {
            bytes: i as u64,
            width_bits: Some(8),
            host_seconds: 1e-6 * i as f64,
            threads: Some(2),
        };
        if span.kind == EventKind::HaloSend {
            span.sent = others().map(|q| (q, 10 + u64::from(q))).collect();
            span.recv = others().map(|q| (q, 20 + u64::from(q))).collect();
        }
        // Zero-second charges are part of the log too.
        (i / 4, 1e-4 * ((i + rank) % 5) as f64, span)
    }

    /// The payload `rank` contributes at script position `i`.
    fn scripted_payload(i: usize, rank: usize) -> Bytes {
        Bytes::from(vec![rank as u8; 1 + (i + rank) % 60])
    }

    /// The buffer `rank` sums at script position `i`.
    fn scripted_floats(i: usize, rank: usize) -> Vec<f32> {
        (0..1 + i % 3)
            .map(|k| (rank + k) as f32 + 0.5 * i as f32)
            .collect()
    }

    fn f32_bytes(data: &[f32]) -> Bytes {
        Bytes::from(
            data.iter()
                .flat_map(|v| v.to_le_bytes())
                .collect::<Vec<u8>>(),
        )
    }

    /// The commands `rank` of `n` yields for `script`, a list of opcodes every
    /// rank runs: a charge (0-3), a ring to every other rank (4), a gather
    /// (5), scatter (6) or broadcast (7) rooted at `i % n`, or a
    /// sum-allreduce (8: the gather to rank 0 and the broadcast back).
    fn scripted_commands(script: &[u8], rank: usize, n: usize) -> Vec<Command> {
        let mut out = Vec::new();
        for (i, &op) in script.iter().enumerate() {
            let root = i % n;
            let cmd = match op {
                0..=3 => {
                    let (epoch, seconds, span) = scripted_charge(i, op, rank, n);
                    let span = Box::new(span);
                    Command::Advance {
                        epoch,
                        seconds,
                        span,
                    }
                }
                4 => {
                    let others = (0..n).filter(|&q| q != rank);
                    let sends = others.map(|q| (q as u32, scripted_payload(i, q)));
                    Command::RingAll2All {
                        sends: sends.collect(),
                    }
                }
                5 => Command::Gather {
                    root,
                    payload: scripted_payload(i, rank),
                },
                6 => Command::Scatter {
                    root,
                    payloads: (rank == root)
                        .then(|| (0..n).map(|q| scripted_payload(i, q)).collect()),
                },
                7 => Command::Broadcast {
                    root,
                    payload: (rank == root).then(|| scripted_payload(i, rank)),
                },
                _ => {
                    let mut sum = vec![0.0f32; scripted_floats(i, rank).len()];
                    for q in 0..n {
                        for (acc, v) in sum.iter_mut().zip(scripted_floats(i, q)) {
                            *acc += v;
                        }
                    }
                    out.push(Command::Gather {
                        root: 0,
                        payload: f32_bytes(&scripted_floats(i, rank)),
                    });
                    Command::Broadcast {
                        root: 0,
                        payload: (rank == 0).then(|| f32_bytes(&sum)),
                    }
                }
            };
            out.push(cmd);
        }
        out
    }

    /// A native device that yields a fixed command list, one command a step.
    struct Scripted(VecDeque<Command>);

    impl DeviceProgram for Scripted {
        type Output = ();

        fn resume(&mut self, _input: Resume) -> Step<()> {
            self.0.pop_front().map_or(Step::Done(()), Step::Yield)
        }
    }

    /// The `async` form of the same script: every opcode through the
    /// `AsyncDevice` call that stands for it. Returns what the device got.
    async fn run_script(mut dev: AsyncDevice, script: &[u8]) -> Vec<Bytes> {
        let (rank, n) = (dev.rank(), dev.num_devices());
        let mut got = Vec::new();
        for (i, &op) in script.iter().enumerate() {
            let root = i % n;
            match op {
                0..=3 => {
                    let (epoch, seconds, span) = scripted_charge(i, op, rank, n);
                    dev.charge(epoch, seconds, || span);
                }
                4 => {
                    let others = (0..n).filter(|&q| q != rank);
                    let sends = others.map(|q| (q as u32, scripted_payload(i, q)));
                    let received = dev.ring_exchange(sends.collect()).await;
                    got.extend(received.into_iter().map(|(_, p)| p));
                }
                5 => {
                    let all = dev.gather(root, scripted_payload(i, rank)).await;
                    got.extend(all.into_iter().flatten());
                }
                6 => {
                    let payloads =
                        (rank == root).then(|| (0..n).map(|q| scripted_payload(i, q)).collect());
                    got.push(dev.scatter(root, payloads).await);
                }
                7 => {
                    let payload = (rank == root).then(|| scripted_payload(i, rank));
                    got.push(dev.broadcast(root, payload).await);
                }
                _ => {
                    let mut data = scripted_floats(i, rank);
                    dev.allreduce_sum_f32(&mut data).await;
                    got.push(f32_bytes(&data));
                }
            }
        }
        got
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn async_charges_log_like_native_advances(
            n in 2usize..6,
            script in proptest::collection::vec(0u8..9, 0..40),
        ) {
            let cost = CostModel::homogeneous(n, 1e8, 1e-5);
            let script = &script;
            let mut native = FlightRecorder::new(n);
            let programs = (0..n).map(|r| Scripted(scripted_commands(script, r, n).into()));
            let native_run =
                event::run_programs(programs.collect(), Some(&cost), Some(&mut native))
                    .expect("native run succeeds");

            let device = |dev: AsyncDevice| run_script(dev, script);
            let mut body = FlightRecorder::new(n);
            let recorded = Cluster::try_run_async(n, Some(&cost), Some(&mut body), device)
                .expect("recorded async run succeeds");
            prop_assert_eq!(body.finish(), native.finish());
            prop_assert_eq!(&recorded.clocks, &native_run.clocks);
            prop_assert_eq!(recorded.collectives, native_run.collectives);

            // Without a recorder the charges never leave the device; what it
            // sends and receives is the same.
            let unrecorded = Cluster::try_run_async(n, Some(&cost), None, device)
                .expect("unrecorded async run succeeds");
            prop_assert_eq!(&recorded.outputs, &unrecorded.outputs);
            prop_assert_eq!(recorded.collectives, unrecorded.collectives);
        }
    }
}
