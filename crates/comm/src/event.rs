//! The deterministic discrete-event scheduler behind [`crate::Cluster`].
//!
//! One host thread advances every device program: devices are state
//! machines ([`crate::program::DeviceProgram`]) suspended at explicit
//! yield points, and every yield point is a collective. The loop
//! invariants (DESIGN.md §10):
//!
//! * **Run-to-block.** The scheduler resumes one device and keeps stepping
//!   it until it parks at a collective or finishes. Charges
//!   ([`Command::Advance`]) never block.
//! * **Deterministic pick order.** Among runnable devices the scheduler
//!   always picks the one with the smallest `(simulated clock, rank)` key.
//!   Outputs do not depend on this choice — a device's next yield depends
//!   only on its own state and the answers to its earlier collectives,
//!   and every collective answers every rank at once — but a fixed order
//!   makes every run, including its event interleaving, bit-reproducible.
//! * **Collectives are rendezvous events.** A collective fires only when
//!   all `n` devices have yielded it; kinds and roots must match. Entry
//!   time is the max of the participants' clocks, and per-rank exit times
//!   follow the per-kind models in `run_collective` (the ring charges each
//!   device its unsynchronized per-round `max(send, recv)` time). Without a
//!   cost model every transfer is instantaneous and the clocks measure
//!   only the charges.
//! * **A stall is a deadlock.** When nobody is runnable and not every
//!   device is parked, some rank finished while the others wait for it at
//!   a collective: the run ends with the full [`WaitGraph`].

use crate::cluster::{panic_message, ClusterError};
use crate::program::{Command, DeviceCtx, DeviceProgram, Resume, Step};
use crate::waitgraph::{BlockedRank, WaitCause, WaitGraph};
use crate::CostModel;
use bytes::Bytes;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a device is doing between scheduler steps.
enum Status {
    /// Runnable: the next `resume` call gets this value.
    Ready(Resume),
    /// Suspended at a collective, holding its entry command.
    CollectiveWait(Command),
    /// Currently being stepped (transient).
    Running,
    /// Finished; its output is recorded.
    Done,
}

/// The result of an event-core run: per-rank outputs plus the simulated
/// clocks and the collective count.
#[derive(Debug, Clone)]
pub struct ClusterReport<T> {
    /// Per-rank program outputs, in rank order.
    pub outputs: Vec<T>,
    /// Per-rank final simulated clocks, seconds.
    pub clocks: Vec<f64>,
    /// Collective rendezvous events executed.
    pub collectives: u64,
}

impl<T> ClusterReport<T> {
    /// The cluster makespan: the largest per-device clock.
    pub fn makespan(&self) -> f64 {
        self.clocks.iter().cloned().fold(0.0, f64::max)
    }
}

/// Total order on simulated timestamps: clocks are finite and
/// non-negative, where `f64::to_bits` is monotonic.
fn clock_key(t: f64) -> u64 {
    t.to_bits()
}

/// Runs `programs` (one per rank) to completion under the event loop, with
/// an optional causal flight recorder attached: every scheduling
/// transition (dispatch, collective formation/release, phase advance,
/// completion) is logged with its causal predecessor. With
/// `recorder = None` the only overhead is one branch per transition (the
/// zero-cost-off contract, DESIGN.md §5b).
///
/// `cost` charges collective transfers; `None` makes every transfer
/// instantaneous (outputs are identical either way — only the reported
/// clocks change).
///
/// # Errors
///
/// [`ClusterError::NoDevices`] for an empty program list,
/// [`ClusterError::DevicePanicked`] when a program panics mid-step,
/// [`ClusterError::Deadlock`] on a stall (a collective some rank never
/// enters) carrying the full [`WaitGraph`] of suspended ranks, and
/// [`ClusterError::CollectiveMismatch`] when ranks disagree on the
/// collective they are entering.
pub(crate) fn run_programs<P: DeviceProgram>(
    programs: Vec<P>,
    cost: Option<&CostModel>,
    mut recorder: Option<&mut crate::flight::FlightRecorder>,
) -> Result<ClusterReport<P::Output>, ClusterError> {
    let n = programs.len();
    if n == 0 {
        return Err(ClusterError::NoDevices);
    }
    let mut programs = programs;
    let mut ctxs: Vec<DeviceCtx> = vec![DeviceCtx::default(); n];
    let mut statuses: Vec<Status> = (0..n).map(|_| Status::Ready(Resume::Start)).collect();
    let mut outputs: Vec<Option<P::Output>> = (0..n).map(|_| None).collect();
    let mut ready: BTreeSet<(u64, usize)> = (0..n).map(|r| (clock_key(0.0), r)).collect();
    let mut done = 0usize;
    let mut waiting_collective = 0usize;
    let mut collectives = 0u64;

    while done < n {
        let Some(&(key, rank)) = ready.iter().next() else {
            // Nobody is runnable. Either every rank is parked at a
            // collective (fire it) or the cluster is deadlocked.
            if waiting_collective == n {
                collectives += 1;
                run_collective(&mut statuses, &mut ctxs, cost)?;
                waiting_collective = 0;
                if let Some(rec) = recorder.as_deref_mut() {
                    let clocks: Vec<f64> = ctxs.iter().map(DeviceCtx::now).collect();
                    rec.collective_release(&clocks);
                }
                for (r, ctx) in ctxs.iter().enumerate() {
                    ready.insert((clock_key(ctx.now()), r));
                }
                continue;
            }
            return Err(ClusterError::Deadlock {
                graph: Box::new(build_wait_graph(&statuses, &ctxs)),
            });
        };
        ready.remove(&(key, rank));
        if let Some(rec) = recorder.as_deref_mut() {
            rec.resume(rank, ctxs[rank].now());
        }

        // Run-to-block: keep stepping this device until it suspends.
        let Status::Ready(mut input) = std::mem::replace(&mut statuses[rank], Status::Running)
        else {
            // The ready set only holds Ready devices.
            unreachable!("scheduled a non-ready device")
        };
        loop {
            let prog = &mut programs[rank];
            let step = catch_unwind(AssertUnwindSafe(|| prog.resume(input)));
            match step {
                Err(payload) => {
                    return Err(ClusterError::DevicePanicked {
                        rank,
                        message: panic_message(payload),
                    });
                }
                Ok(Step::Done(out)) => {
                    outputs[rank] = Some(out);
                    statuses[rank] = Status::Done;
                    done += 1;
                    if let Some(rec) = recorder.as_deref_mut() {
                        rec.done(rank, ctxs[rank].now());
                    }
                    break;
                }
                Ok(Step::Yield(Command::Advance {
                    epoch,
                    seconds,
                    span,
                })) => {
                    let t0 = ctxs[rank].now();
                    ctxs[rank].advance(seconds);
                    if let Some(rec) = recorder.as_deref_mut() {
                        rec.phase_advance(rank, t0, epoch, seconds, span);
                    }
                    input = Resume::Advanced;
                }
                Ok(Step::Yield(cmd)) => {
                    if let Some(rec) = recorder.as_deref_mut() {
                        rec.collective_form(rank, ctxs[rank].now(), cmd.kind_name());
                    }
                    statuses[rank] = Status::CollectiveWait(cmd);
                    waiting_collective += 1;
                    break;
                }
            }
        }
    }

    Ok(ClusterReport {
        // Every device reached Done, so every output slot is filled.
        outputs: outputs.into_iter().flatten().collect(),
        clocks: ctxs.iter().map(DeviceCtx::now).collect(),
        collectives,
    })
}

/// Builds the wait-for graph of a stalled cluster: every rank parked at a
/// collective, every finished rank, and the collective front they form.
fn build_wait_graph(statuses: &[Status], ctxs: &[DeviceCtx]) -> WaitGraph {
    let mut blocked = Vec::new();
    let mut finished = Vec::new();
    for (rank, s) in statuses.iter().enumerate() {
        match s {
            Status::CollectiveWait(cmd) => blocked.push(BlockedRank {
                rank,
                cause: WaitCause::Collective {
                    kind: cmd.kind_name(),
                },
                clock: ctxs[rank].now(),
            }),
            Status::Done => finished.push(rank),
            Status::Ready(_) | Status::Running => {}
        }
    }
    WaitGraph::from_frontier(statuses.len(), blocked, finished)
}

/// Fires the collective every rank is parked at: validates that the entry
/// commands agree, computes per-rank results, and advances the clocks.
fn run_collective(
    statuses: &mut [Status],
    ctxs: &mut [DeviceCtx],
    cost: Option<&CostModel>,
) -> Result<(), ClusterError> {
    let n = statuses.len();
    let mut cmds: Vec<Command> = Vec::with_capacity(n);
    for s in statuses.iter_mut() {
        match std::mem::replace(s, Status::Running) {
            Status::CollectiveWait(cmd) => cmds.push(cmd),
            // The caller checked that all n devices are collective-parked.
            _ => unreachable!("collective fired with a non-parked device"),
        }
    }
    let kind = cmds[0].kind_name();
    for (rank, cmd) in cmds.iter().enumerate() {
        if cmd.kind_name() != kind {
            return Err(ClusterError::CollectiveMismatch {
                rank,
                detail: format!(
                    "rank 0 entered `{kind}` but rank {rank} entered `{}`",
                    cmd.kind_name()
                ),
            });
        }
    }
    let t0 = ctxs.iter().map(DeviceCtx::now).fold(0.0, f64::max);
    let transfer = |src: usize, dst: usize, bytes: usize| {
        cost.map_or(0.0, |c| c.transfer_time(src, dst, bytes))
    };

    /// The agreed collective shape, extracted from rank 0's entry command
    /// so the command list itself can be consumed per-branch.
    enum Shape {
        Ring,
        Broadcast(usize),
        Gather(usize),
        Scatter(usize),
    }
    let shape = match &cmds[0] {
        Command::RingAll2All { .. } => Shape::Ring,
        Command::Broadcast { root, .. } => Shape::Broadcast(*root),
        Command::Gather { root, .. } => Shape::Gather(*root),
        Command::Scatter { root, .. } => Shape::Scatter(*root),
        // An Advance never parks a device in CollectiveWait.
        Command::Advance { .. } => unreachable!("a charge parked as a collective"),
    };

    match shape {
        Shape::Ring => {
            // Each payload is moved to its destination's inbox; ranks are
            // visited in ascending order, so every inbox is ascending by
            // source. Under a cost model the payload lengths are kept
            // (`sent[rank]`, sparse) for the clocks below.
            let mut inboxes: Vec<Vec<(u32, Bytes)>> = (0..n).map(|_| Vec::new()).collect();
            let mut sent: Vec<Vec<(u32, usize)>> = Vec::new();
            for (rank, cmd) in cmds.into_iter().enumerate() {
                let Command::RingAll2All { sends } = cmd else {
                    // Kind agreement was validated above.
                    unreachable!("ring collective with a non-ring command");
                };
                let mut next = 0usize;
                for (dst, _) in &sends {
                    let dst = *dst as usize;
                    if dst < next || dst == rank || dst >= n {
                        return Err(ClusterError::CollectiveMismatch {
                            rank,
                            detail: format!(
                                "ring_all2all destinations must be strictly ascending, \
                                 inside 0..{n} and never the sender: rank {rank} listed {dst}"
                            ),
                        });
                    }
                    next = dst + 1;
                }
                if cost.is_some() {
                    sent.push(sends.iter().map(|(dst, p)| (*dst, p.len())).collect());
                }
                for (dst, payload) in sends {
                    // Device counts are far below 2^32.
                    inboxes[dst as usize].push((rank as u32, payload));
                }
            }
            // Per-device unsynchronized ring time (`CostModel::ring_seconds`).
            // The byte tables are rebuilt per rank from the sparse lists; an
            // unlisted peer is 0 bytes, whose transfer time is the same `0.0`
            // an empty payload's was. Uncosted runs skip the model: every
            // round would add `0.0`.
            let (mut send_bytes, mut recv_bytes) = (vec![0usize; n], vec![0usize; n]);
            for (rank, inbox) in inboxes.into_iter().enumerate() {
                let mut elapsed = 0.0f64;
                if let Some(cost) = cost {
                    for &(dst, bytes) in &sent[rank] {
                        send_bytes[dst as usize] = bytes;
                    }
                    for (src, payload) in &inbox {
                        recv_bytes[*src as usize] = payload.len();
                    }
                    elapsed = cost.ring_seconds(rank, &send_bytes, &recv_bytes, &[]);
                    for &(dst, _) in &sent[rank] {
                        send_bytes[dst as usize] = 0;
                    }
                    for (src, _) in &inbox {
                        recv_bytes[*src as usize] = 0;
                    }
                }
                ctxs[rank].advance_to(t0 + elapsed);
                statuses[rank] = Status::Ready(Resume::RingDone(inbox));
            }
        }
        Shape::Broadcast(root) => {
            let payload = validate_rooted_payload(&cmds, root, n)?;
            for rank in 0..n {
                let exit = if rank == root {
                    t0
                } else {
                    t0 + transfer(root, rank, payload.len())
                };
                ctxs[rank].advance_to(exit);
                statuses[rank] = Status::Ready(Resume::BroadcastDone(payload.clone()));
            }
        }
        Shape::Gather(root) => {
            if root >= n {
                return Err(root_range_error(root, n));
            }
            let mut all: Vec<Bytes> = Vec::with_capacity(n);
            let mut slowest = 0.0f64;
            for (rank, cmd) in cmds.into_iter().enumerate() {
                let Command::Gather { root: r, payload } = cmd else {
                    unreachable!("gather collective with a non-gather command");
                };
                if r != root {
                    return Err(root_mismatch_error(rank, root, r));
                }
                slowest = slowest.max(transfer(rank, root, payload.len()));
                all.push(payload);
            }
            for rank in 0..n {
                let (exit, resume) = if rank == root {
                    (t0 + slowest, Resume::GatherDone(Some(all.clone())))
                } else {
                    (t0, Resume::GatherDone(None))
                };
                ctxs[rank].advance_to(exit);
                statuses[rank] = Status::Ready(resume);
            }
        }
        Shape::Scatter(root) => {
            if root >= n {
                return Err(root_range_error(root, n));
            }
            let mut slices: Option<Vec<Bytes>> = None;
            for (rank, cmd) in cmds.into_iter().enumerate() {
                let Command::Scatter { root: r, payloads } = cmd else {
                    unreachable!("scatter collective with a non-scatter command");
                };
                if r != root {
                    return Err(root_mismatch_error(rank, root, r));
                }
                match (rank == root, payloads) {
                    (true, Some(p)) if p.len() == n => slices = Some(p),
                    (true, Some(p)) => {
                        return Err(ClusterError::CollectiveMismatch {
                            rank,
                            detail: format!(
                                "scatter root provided {} payloads for n = {n}",
                                p.len()
                            ),
                        });
                    }
                    (true, None) => {
                        return Err(ClusterError::CollectiveMismatch {
                            rank,
                            detail: "scatter root provided no payloads".into(),
                        });
                    }
                    (false, Some(_)) => {
                        return Err(ClusterError::CollectiveMismatch {
                            rank,
                            detail: "non-root rank provided scatter payloads".into(),
                        });
                    }
                    (false, None) => {}
                }
            }
            // The root's slot was filled above (it is one of the n ranks).
            let Some(slices) = slices else {
                unreachable!("scatter root produced no payloads after validation");
            };
            for (rank, payload) in slices.into_iter().enumerate() {
                let exit = if rank == root {
                    t0
                } else {
                    t0 + transfer(root, rank, payload.len())
                };
                ctxs[rank].advance_to(exit);
                statuses[rank] = Status::Ready(Resume::ScatterDone(payload));
            }
        }
    }
    Ok(())
}

fn validate_rooted_payload(cmds: &[Command], root: usize, n: usize) -> Result<Bytes, ClusterError> {
    if root >= n {
        return Err(root_range_error(root, n));
    }
    let mut found: Option<Bytes> = None;
    for (rank, cmd) in cmds.iter().enumerate() {
        let Command::Broadcast { root: r, payload } = cmd else {
            unreachable!("broadcast collective with a non-broadcast command");
        };
        if *r != root {
            return Err(root_mismatch_error(rank, root, *r));
        }
        match (rank == root, payload) {
            (true, Some(p)) => found = Some(p.clone()),
            (true, None) => {
                return Err(ClusterError::CollectiveMismatch {
                    rank,
                    detail: "broadcast root provided no payload".into(),
                });
            }
            (false, Some(_)) => {
                return Err(ClusterError::CollectiveMismatch {
                    rank,
                    detail: "non-root rank provided a broadcast payload".into(),
                });
            }
            (false, None) => {}
        }
    }
    // The root's rank is in 0..n, so the loop above either filled `found`
    // or returned an error.
    match found {
        Some(p) => Ok(p),
        None => unreachable!("broadcast root missing after validation"),
    }
}

fn root_range_error(root: usize, n: usize) -> ClusterError {
    ClusterError::CollectiveMismatch {
        rank: 0,
        detail: format!("collective root {root} out of range (n = {n})"),
    }
}

fn root_mismatch_error(rank: usize, expected: usize, got: usize) -> ClusterError {
    ClusterError::CollectiveMismatch {
        rank,
        detail: format!("rank 0 used root {expected} but rank {rank} used root {got}"),
    }
}
