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
use crate::program::{Command, DeviceProgram, Resume, Step};
use crate::CostModel;
use bytes::Bytes;
use std::cell::RefCell;
use std::collections::BTreeMap;
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
/// let report = Cluster::try_run_async(3, None, |mut dev| async move {
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
    /// with no OS thread per device, charging link events to `cost`.
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
        mut f: F,
    ) -> Result<ClusterReport<Fut::Output>, ClusterError>
    where
        F: FnMut(AsyncDevice) -> Fut,
        Fut: Future,
    {
        let programs = (0..n).map(|rank| {
            let dev = AsyncDevice::new(rank, n);
            AsyncProgram {
                port: Rc::clone(&dev.port),
                body: Box::pin(f(dev)),
            }
        });
        event::run_programs(programs.collect(), cost)
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
                        let dev = AsyncDevice::new(rank, n);
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
                let report = event::run_programs(stubs, cost);
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
    /// The collective the device waits on, until it is handed to the scheduler.
    command: Option<Command>,
    /// The scheduler's answer to that command, until the device takes it.
    answer: Option<Resume>,
}

/// The adapter that runs an `async` device body as a [`DeviceProgram`]:
/// each `resume` leaves the answer and polls the body once (with a no-op
/// waker: only the scheduler ever makes a device runnable), which runs it to
/// its next collective or to its end. The scheduler never resumes a
/// finished device, so a body that returned is never polled again.
struct AsyncProgram<F: Future> {
    port: Rc<RefCell<Port>>,
    body: Pin<Box<F>>,
}

impl<F: Future> DeviceProgram for AsyncProgram<F> {
    type Output = F::Output;

    fn resume(&mut self, input: Resume) -> Step<F::Output> {
        // `Start`, before the first poll, answers nothing.
        if !matches!(input, Resume::Start) {
            self.port.borrow_mut().answer = Some(input);
        }
        let cx = &mut Context::from_waker(Waker::noop());
        if let Poll::Ready(out) = self.body.as_mut().poll(cx) {
            return Step::Done(out);
        }
        match self.port.borrow_mut().command.take() {
            Some(cmd) => Step::Yield(cmd),
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

    #[expect(
        clippy::disallowed_methods,
        reason = "lockstep rendezvous with the paired device thread: the scheduler waits, not a device"
    )]
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
    #[expect(
        clippy::disallowed_methods,
        reason = "a closure device's own thread waits for the scheduler's answer; the event loop is not blocked"
    )]
    fn block_on<T>(&self, op: impl Future<Output = T>) -> T {
        let mut op = pin!(op);
        let cx = &mut Context::from_waker(Waker::noop());
        loop {
            if let Poll::Ready(out) = op.as_mut().poll(cx) {
                return out;
            }
            let Some(cmd) = self.port.borrow_mut().command.take() else {
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
    /// rank sent to: the one thing about a run only the handle sees. `None`,
    /// so nothing is counted, until [`AsyncDevice::count_sends`].
    sent: Option<BTreeMap<usize, (u64, u64)>>,
}

impl AsyncDevice {
    /// The handle of `rank` of `n`; its driver shares `port`.
    fn new(rank: usize, n: usize) -> Self {
        Self {
            rank,
            n,
            port: Rc::default(),
            sent: None,
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

    /// Starts tallying every payload leaving this rank, per destination.
    /// Payload lengths are deterministic, so the tally is too.
    pub fn count_sends(&mut self) {
        self.sent = Some(BTreeMap::new());
    }

    /// Hands back the `(bytes, messages)` tally keyed by destination rank,
    /// one entry per rank sent to (empty unless
    /// [`AsyncDevice::count_sends`] was called); later sends are no longer
    /// counted.
    pub fn take_sent(&mut self) -> BTreeMap<usize, (u64, u64)> {
        self.sent.take().unwrap_or_default()
    }

    /// Counts one outgoing payload on the sender side, if sends are being
    /// counted.
    fn count_send(&mut self, dst: usize, bytes: usize) {
        if let Some(sent) = &mut self.sent {
            let (total, messages) = sent.entry(dst).or_default();
            *total += bytes as u64;
            *messages += 1;
        }
    }

    /// Leaves `cmd` for the driver and waits for the scheduler's answer.
    async fn roundtrip(&mut self, cmd: Command) -> Resume {
        self.port.borrow_mut().command = Some(cmd);
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
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Runs the `async` body `f` builds per rank, uncosted.
    fn run_async<Fut: Future>(n: usize, f: impl FnMut(AsyncDevice) -> Fut) -> Vec<Fut::Output> {
        Cluster::try_run_async(n, None, f)
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
        // `out[src][&dst]` is `(bytes, messages)`: each rank counted its one
        // send, and only the sender side, one entry per destination sent to.
        let sent = |dst, bytes| BTreeMap::from([(dst, (bytes, 1))]);
        assert_eq!(out, [sent(1, 5), sent(0, 2)]);
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
            (off, taken[&peer], dev.take_sent())
        });
        for (off, counted, detached) in out {
            assert!(off.is_empty(), "nothing is counted until asked");
            assert_eq!(counted, (7, 1));
            assert!(detached.is_empty(), "taking the tally stops the count");
        }
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
        let report = Cluster::try_run_async(2, None, |mut dev| async move {
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
        let report = Cluster::try_run_async(2, Some(&cost), |mut dev| async move {
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
        let err = Cluster::try_run_async(2, None, |mut dev| async move {
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
        let run = Cluster::try_run_async(0, None, |dev| async move { dev.rank() });
        assert_eq!(run.expect_err("no devices"), ClusterError::NoDevices);
    }

    // ---- failure paths of the async adapter ----

    #[test]
    fn a_panicking_body_is_reported_with_its_rank() {
        let err = Cluster::try_run_async(3, None, |mut dev| async move {
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
        let err = Cluster::try_run_async(3, None, |mut dev| async move {
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
        let body = |mut dev: AsyncDevice| PollOnceDone {
            body: Box::pin(async move {
                dev.ring_exchange(Vec::new()).await;
                dev.rank()
            }),
            returned: false,
        };
        let report = Cluster::try_run_async(2, None, body).expect("run succeeds");
        assert_eq!(report.outputs, vec![0, 1]);
        assert_eq!(report.collectives, 1);
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
    /// rank runs: a ring to every other rank (0), a gather (1), scatter (2)
    /// or broadcast (3) rooted at `i % n`, or a sum-allreduce (4: the gather
    /// to rank 0 and the broadcast back). Each command comes with whether
    /// the `async` form keeps what it answers (an allreduce keeps only the
    /// sum).
    fn scripted_commands(script: &[u8], rank: usize, n: usize) -> Vec<(Command, bool)> {
        let mut out = Vec::new();
        for (i, &op) in script.iter().enumerate() {
            let root = i % n;
            let cmd = match op {
                0 => {
                    let others = (0..n).filter(|&q| q != rank);
                    let sends = others.map(|q| (q as u32, scripted_payload(i, q)));
                    Command::RingAll2All {
                        sends: sends.collect(),
                    }
                }
                1 => Command::Gather {
                    root,
                    payload: scripted_payload(i, rank),
                },
                2 => Command::Scatter {
                    root,
                    payloads: (rank == root)
                        .then(|| (0..n).map(|q| scripted_payload(i, q)).collect()),
                },
                3 => Command::Broadcast {
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
                    let gather = Command::Gather {
                        root: 0,
                        payload: f32_bytes(&scripted_floats(i, rank)),
                    };
                    out.push((gather, false));
                    Command::Broadcast {
                        root: 0,
                        payload: (rank == 0).then(|| f32_bytes(&sum)),
                    }
                }
            };
            out.push((cmd, true));
        }
        out
    }

    /// A native device that yields a fixed command list, one command a step,
    /// and returns the payloads of the answers it keeps.
    struct Scripted {
        script: VecDeque<(Command, bool)>,
        keep: bool,
        got: Vec<Bytes>,
    }

    impl DeviceProgram for Scripted {
        type Output = Vec<Bytes>;

        fn resume(&mut self, input: Resume) -> Step<Vec<Bytes>> {
            if self.keep {
                match input {
                    Resume::Start => {}
                    Resume::RingDone(received) => {
                        self.got.extend(received.into_iter().map(|(_, p)| p));
                    }
                    Resume::GatherDone(all) => self.got.extend(all.into_iter().flatten()),
                    Resume::BroadcastDone(p) | Resume::ScatterDone(p) => self.got.push(p),
                }
            }
            match self.script.pop_front() {
                Some((cmd, keep)) => {
                    self.keep = keep;
                    Step::Yield(cmd)
                }
                None => Step::Done(std::mem::take(&mut self.got)),
            }
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
                0 => {
                    let others = (0..n).filter(|&q| q != rank);
                    let sends = others.map(|q| (q as u32, scripted_payload(i, q)));
                    let received = dev.ring_exchange(sends.collect()).await;
                    got.extend(received.into_iter().map(|(_, p)| p));
                }
                1 => {
                    let all = dev.gather(root, scripted_payload(i, rank)).await;
                    got.extend(all.into_iter().flatten());
                }
                2 => {
                    let payloads =
                        (rank == root).then(|| (0..n).map(|q| scripted_payload(i, q)).collect());
                    got.push(dev.scatter(root, payloads).await);
                }
                3 => {
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

        /// The `async` adapter yields what a hand-written program yields:
        /// same answers, same clocks, same collective count.
        #[test]
        fn async_charges_log_like_native_advances(
            n in 2usize..6,
            script in proptest::collection::vec(0u8..5, 0..40),
        ) {
            let cost = CostModel::homogeneous(n, 1e8, 1e-5);
            let script = &script;
            let programs = (0..n).map(|r| Scripted {
                script: scripted_commands(script, r, n).into(),
                keep: false,
                got: Vec::new(),
            });
            let native = event::run_programs(programs.collect(), Some(&cost))
                .expect("native run succeeds");
            let device = |dev: AsyncDevice| run_script(dev, script);
            let run = Cluster::try_run_async(n, Some(&cost), device)
                .expect("async run succeeds");
            prop_assert_eq!(&run.outputs, &native.outputs);
            prop_assert_eq!(&run.clocks, &native.clocks);
            prop_assert_eq!(run.collectives, native.collectives);
        }
    }
}
