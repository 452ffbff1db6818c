//! The deterministic discrete-event scheduler behind [`crate::Cluster`].
//!
//! One host thread advances every device program: devices are state
//! machines ([`crate::DeviceProgram`]) suspended at explicit yield points,
//! and links are events charged by the per-pair `theta * bytes + gamma`
//! cost model. The loop invariants (DESIGN.md §10):
//!
//! * **Run-to-block.** The scheduler resumes one device and keeps stepping
//!   it until it blocks (a recv with an empty mailbox, a collective) or
//!   finishes. Point-to-point sends never block the sender.
//! * **Deterministic pick order.** Among runnable devices the scheduler
//!   always picks the one with the smallest `(simulated clock, rank)` key.
//!   Outputs do not depend on this choice — with per-`(src, tag)` FIFO
//!   channels and blocking receives as the only message-ordering
//!   constraint, device outputs are schedule-independent (Kahn process
//!   network semantics) — but a fixed order makes every run, including its
//!   event interleaving, bit-reproducible.
//! * **Messages carry arrival times.** A payload sent at sender time `t`
//!   arrives at `t + theta * bytes + gamma`; the receiver's clock advances
//!   to at least the arrival time when it consumes the message. Without a
//!   cost model every transfer is instantaneous and the clocks measure
//!   nothing (the pure Kahn execution used by unit tests).
//! * **Collectives are rendezvous events.** A collective fires only when
//!   all `n` devices have yielded it; kinds and roots must match. Entry
//!   time is the max of the participants' clocks, and per-rank exit times
//!   follow the per-kind models in `run_collective` (the ring charges each
//!   device its unsynchronized per-round `max(send, recv)` time).

use crate::cluster::{panic_message, ClusterError};
use crate::program::{Command, DeviceCtx, DeviceProgram, Resume, Step};
use crate::waitgraph::{BlockedRank, UnclaimedMessage, WaitCause, WaitGraph};
use crate::CostModel;
use bytes::Bytes;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a device is doing between scheduler steps.
enum Status {
    /// Runnable: the next `resume` call gets this value.
    Ready(Resume),
    /// Suspended on an empty mailbox key.
    RecvWait {
        /// Awaited source rank.
        src: usize,
        /// Awaited tag.
        tag: u64,
    },
    /// Suspended at a collective, holding its entry command.
    CollectiveWait(Command),
    /// Currently being stepped (transient).
    Running,
    /// Finished; its output is recorded.
    Done,
}

/// The result of an event-core run: per-rank outputs plus the simulated
/// clocks and event counts the thread backend could never report.
#[derive(Debug, Clone)]
pub struct ClusterReport<T> {
    /// Per-rank program outputs, in rank order.
    pub outputs: Vec<T>,
    /// Per-rank final simulated clocks, seconds.
    pub clocks: Vec<f64>,
    /// Point-to-point messages delivered (collective-internal traffic is
    /// accounted by the collective event, not here).
    pub messages: u64,
    /// Collective rendezvous events executed (barriers included).
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

/// In-flight payload with its modeled arrival time at the receiver.
type Mailbox = BTreeMap<(usize, u64), VecDeque<(f64, Bytes)>>;

/// Runs `programs` (one per rank) to completion under the event loop.
///
/// `cost` charges link events; `None` makes every transfer instantaneous
/// (outputs are identical either way — only the reported clocks change).
///
/// # Errors
///
/// [`ClusterError::NoDevices`] for an empty program list,
/// [`ClusterError::DevicePanicked`] when a program panics mid-step,
/// [`ClusterError::InvalidPeer`] when a `Send`/`Recv` names a peer outside
/// `0..n`, [`ClusterError::Deadlock`] on a stall (a recv that can never be
/// satisfied, or a collective some rank never enters) carrying the full
/// [`WaitGraph`] of suspended ranks, and
/// [`ClusterError::CollectiveMismatch`] when ranks disagree on the
/// collective they are entering.
pub fn run_programs<P: DeviceProgram>(
    programs: Vec<P>,
    cost: Option<&CostModel>,
) -> Result<ClusterReport<P::Output>, ClusterError> {
    run_programs_recorded(programs, cost, None)
}

/// [`run_programs`] with an optional causal flight recorder attached: every
/// scheduling transition (dispatch, block, message departure/arrival,
/// collective formation/release, phase advance) is logged with its causal
/// predecessor. With `recorder = None` the only overhead is one branch per
/// transition (the zero-cost-off contract, DESIGN.md §5b).
///
/// # Errors
///
/// As [`run_programs`].
pub fn run_programs_recorded<P: DeviceProgram>(
    programs: Vec<P>,
    cost: Option<&CostModel>,
    mut recorder: Option<&mut crate::flight::FlightRecorder<'_>>,
) -> Result<ClusterReport<P::Output>, ClusterError> {
    let n = programs.len();
    if n == 0 {
        return Err(ClusterError::NoDevices);
    }
    let mut programs = programs;
    let mut ctxs: Vec<DeviceCtx> = (0..n).map(|r| DeviceCtx::new(r, n)).collect();
    let mut statuses: Vec<Status> = (0..n).map(|_| Status::Ready(Resume::Start)).collect();
    let mut mailboxes: Vec<Mailbox> = (0..n).map(|_| Mailbox::new()).collect();
    let mut outputs: Vec<Option<P::Output>> = (0..n).map(|_| None).collect();
    let mut ready: BTreeSet<(u64, usize)> = (0..n).map(|r| (clock_key(0.0), r)).collect();
    let mut done = 0usize;
    let mut waiting_collective = 0usize;
    let mut messages = 0u64;
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
                graph: Box::new(build_wait_graph(&statuses, &ctxs, &mailboxes)),
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
            let step = {
                let prog = &mut programs[rank];
                let ctx = &mut ctxs[rank];
                catch_unwind(AssertUnwindSafe(|| prog.resume(ctx, input)))
            };
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
                Ok(Step::Yield(Command::Send { dst, tag, payload })) => {
                    if dst >= n {
                        return Err(ClusterError::InvalidPeer {
                            rank,
                            peer: dst,
                            n,
                            op: "send",
                        });
                    }
                    messages += 1;
                    let bytes = payload.len();
                    let arrival =
                        ctxs[rank].now() + cost.map_or(0.0, |c| c.transfer_time(rank, dst, bytes));
                    if let Some(rec) = recorder.as_deref_mut() {
                        rec.depart(rank, ctxs[rank].now(), dst, tag, bytes);
                    }
                    mailboxes[dst]
                        .entry((rank, tag))
                        .or_default()
                        .push_back((arrival, payload));
                    // Wake the receiver if it is parked on exactly this key.
                    if let Status::RecvWait { src, tag: want } = &statuses[dst] {
                        let (src, want) = (*src, *want);
                        if src == rank && want == tag {
                            let (at, msg) = pop_message(&mut mailboxes[dst], (src, want));
                            ctxs[dst].advance_to(at);
                            if let Some(rec) = recorder.as_deref_mut() {
                                rec.arrive(dst, ctxs[dst].now(), src, want, msg.len());
                            }
                            statuses[dst] = Status::Ready(Resume::Received(msg));
                            ready.insert((clock_key(ctxs[dst].now()), dst));
                        }
                    }
                    input = Resume::Sent;
                }
                Ok(Step::Yield(Command::Recv { src, tag })) => {
                    if src >= n {
                        return Err(ClusterError::InvalidPeer {
                            rank,
                            peer: src,
                            n,
                            op: "recv",
                        });
                    }
                    let key = (src, tag);
                    if mailboxes[rank].get(&key).is_some_and(|q| !q.is_empty()) {
                        let (at, msg) = pop_message(&mut mailboxes[rank], key);
                        ctxs[rank].advance_to(at);
                        if let Some(rec) = recorder.as_deref_mut() {
                            rec.arrive(rank, ctxs[rank].now(), src, tag, msg.len());
                        }
                        input = Resume::Received(msg);
                    } else {
                        if let Some(rec) = recorder.as_deref_mut() {
                            rec.block_recv(rank, ctxs[rank].now(), src, tag);
                        }
                        statuses[rank] = Status::RecvWait { src, tag };
                        break;
                    }
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
        messages,
        collectives,
    })
}

fn pop_message(mailbox: &mut Mailbox, key: (usize, u64)) -> (f64, Bytes) {
    let queue = mailbox.entry(key).or_default();
    let front = queue.pop_front();
    if queue.is_empty() {
        mailbox.remove(&key);
    }
    match front {
        Some(msg) => msg,
        // Callers check non-emptiness before popping.
        None => unreachable!("popped an empty mailbox key"),
    }
}

/// Builds the full wait-for graph of a stalled cluster: every suspended
/// rank with its cause (not just the first — a reversed ring suspends all
/// of them), the collective frontier, and any undelivered mailbox keys (the
/// runtime signature of a reversed peer expression or a tag typo).
fn build_wait_graph(statuses: &[Status], ctxs: &[DeviceCtx], mailboxes: &[Mailbox]) -> WaitGraph {
    let mut blocked = Vec::new();
    let mut finished = Vec::new();
    for (rank, s) in statuses.iter().enumerate() {
        match s {
            Status::RecvWait { src, tag } => blocked.push(BlockedRank {
                rank,
                cause: WaitCause::Recv {
                    src: *src,
                    tag: *tag,
                },
                clock: ctxs[rank].now(),
            }),
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
    let mut unclaimed = Vec::new();
    for (dst, mailbox) in mailboxes.iter().enumerate() {
        for (&(src, tag), queue) in mailbox {
            if !queue.is_empty() {
                unclaimed.push(UnclaimedMessage {
                    dst,
                    src,
                    tag,
                    queued: queue.len(),
                });
            }
        }
    }
    WaitGraph::from_frontier(statuses.len(), blocked, finished, unclaimed)
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
        Barrier,
        Ring,
        Broadcast(usize),
        Gather(usize),
        Scatter(usize),
    }
    let shape = match &cmds[0] {
        Command::Barrier => Shape::Barrier,
        Command::RingAll2All { .. } => Shape::Ring,
        Command::Broadcast { root, .. } => Shape::Broadcast(*root),
        Command::Gather { root, .. } => Shape::Gather(*root),
        Command::Scatter { root, .. } => Shape::Scatter(*root),
        // Send/Recv/Advance never park a device in CollectiveWait.
        Command::Send { .. } | Command::Recv { .. } | Command::Advance { .. } => {
            unreachable!("point-to-point command parked as a collective")
        }
    };

    match shape {
        Shape::Barrier => {
            for (rank, ctx) in ctxs.iter_mut().enumerate() {
                ctx.advance_to(t0);
                statuses[rank] = Status::Ready(Resume::BarrierDone);
            }
        }
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
