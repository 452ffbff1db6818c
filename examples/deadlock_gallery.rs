//! Deadlock gallery: four communication bugs that `adaqp-lint` flags
//! statically and the event scheduler diagnoses dynamically — with matching
//! attribution. Each exhibit is a [`DeviceProgram`] carrying a
//! `lint:allow` on its planted bug (the gallery is deliberate); the static
//! test `gallery_is_flagged_statically` strips those allows and asserts the
//! scanner rediscovers every exhibit, while this binary runs each one on a
//! four-rank cluster and checks the [`ClusterError::Deadlock`] wait-for
//! graph names the same ranks the rule predicts.
//!
//! Run with: `cargo run --release --example deadlock_gallery`

use bytes::Bytes;
use comm::prelude::*;

/// Exhibit 1 — reversed ring (`unmatched-comm`): every rank sends right and
/// then *receives from the right as well*, so the message that actually
/// arrives (from the left) sits unclaimed forever. All four ranks block on
/// a mailbox key nobody writes.
struct ReversedRing;

// model:allow(deadlock): gallery exhibit — all four ranks park on the reversed recv
impl DeviceProgram for ReversedRing {
    type Output = ();
    fn resume(&mut self, ctx: &mut DeviceCtx, input: Resume) -> Step<()> {
        let n = ctx.num_devices();
        let right = (ctx.rank() + 1) % n;
        match input {
            Resume::Start => Step::Yield(Command::Send {
                dst: right,
                tag: 7,
                payload: Bytes::from_static(b"grad"),
            }),
            // lint:allow(unmatched-comm): gallery exhibit — the reversed recv is the bug on display
            Resume::Sent => Step::Yield(Command::Recv { src: right, tag: 7 }),
            _ => Step::Done(()),
        }
    }
}

/// Exhibit 2 — tag typo (`unmatched-comm`): the ring direction is right but
/// the receiver asks for tag 8 while every send uses tag 7. Same stall,
/// different cause: the unclaimed messages carry the mismatched tag.
struct TagTypo;

// model:allow(deadlock): gallery exhibit — every recv asks for the mistyped tag
impl DeviceProgram for TagTypo {
    type Output = ();
    fn resume(&mut self, ctx: &mut DeviceCtx, input: Resume) -> Step<()> {
        let n = ctx.num_devices();
        let right = (ctx.rank() + 1) % n;
        let left = (ctx.rank() + n - 1) % n;
        match input {
            Resume::Start => Step::Yield(Command::Send {
                dst: right,
                tag: 7,
                payload: Bytes::from_static(b"grad"),
            }),
            // lint:allow(unmatched-comm): gallery exhibit — the mistyped tag is the bug on display
            Resume::Sent => Step::Yield(Command::Recv { src: left, tag: 8 }),
            _ => Step::Done(()),
        }
    }
}

/// Exhibit 3 — skipped barrier (`collective-divergence`): rank 0 returns
/// early, so the barrier's rendezvous is reached by ranks 1..4 and never by
/// rank 0. Three ranks park at the collective front forever.
struct SkippedBarrier;

// model:allow(deadlock): gallery exhibit — rank 0 never joins the barrier rendezvous
impl DeviceProgram for SkippedBarrier {
    type Output = ();
    fn resume(&mut self, ctx: &mut DeviceCtx, input: Resume) -> Step<()> {
        match input {
            Resume::Start => {
                if ctx.rank() == 0 {
                    return Step::Done(());
                }
                // lint:allow(collective-divergence): gallery exhibit — the skipped rendezvous is the bug on display
                Step::Yield(Command::Barrier)
            }
            _ => Step::Done(()),
        }
    }
}

/// Exhibit 4 — recv-before-send cycle (`unmatched-comm`): the ring protocol
/// is mirrored correctly, but every rank *receives first*. With one program
/// on all ranks nobody ever produces the first message, so the cluster
/// blocks with every mailbox empty.
struct RecvFirstRing;

// model:allow(deadlock): gallery exhibit — nobody sends before the first recv
impl DeviceProgram for RecvFirstRing {
    type Output = ();
    fn resume(&mut self, ctx: &mut DeviceCtx, input: Resume) -> Step<()> {
        let n = ctx.num_devices();
        let right = (ctx.rank() + 1) % n;
        let left = (ctx.rank() + n - 1) % n;
        match input {
            // lint:allow(unmatched-comm): gallery exhibit — receiving before anyone sends is the bug on display
            Resume::Start => Step::Yield(Command::Recv { src: left, tag: 3 }),
            Resume::Received(_) => Step::Yield(Command::Send {
                dst: right,
                tag: 3,
                payload: Bytes::from_static(b"grad"),
            }),
            _ => Step::Done(()),
        }
    }
}

// --- Exhibits end; the rest of the gallery is the control group. ---------
//
// The programs below are correct: `adaqp-model --workspace` proves each one
// deadlock-free at n = 2..4 (certificates in results/MODEL_certificates.json)
// and `main` runs them to completion on the same four-rank cluster, so the
// static proofs and the dynamic runs vouch for each other.

/// Parks on the halo payload from `src` — a free helper the skeleton
/// extractor inlines into callers, so the model checker sees the recv this
/// function hides behind a call.
fn recv_from(src: usize, tag: u64) -> Step<()> {
    Step::Yield(Command::Recv { src, tag })
}

/// Control 1 — halo exchange: send the boundary slab right, take the
/// mirrored slab from the left (via [`recv_from`]), then fence.
struct HaloExchange;

impl DeviceProgram for HaloExchange {
    type Output = ();
    fn resume(&mut self, ctx: &mut DeviceCtx, input: Resume) -> Step<()> {
        let n = ctx.num_devices();
        let right = (ctx.rank() + 1) % n;
        let left = (ctx.rank() + n - 1) % n;
        match input {
            Resume::Start => Step::Yield(Command::Send {
                dst: right,
                tag: 11,
                payload: Bytes::from_static(b"halo"),
            }),
            Resume::Sent => recv_from(left, 11),
            Resume::Received(_) => Step::Yield(Command::Barrier),
            _ => Step::Done(()),
        }
    }
}

/// Control 2 — assigner round: gather per-rank stats to the master, which
/// broadcasts the bit-width assignment back. The master-only payload sits
/// inside the command braces, so every rank still reaches both collectives.
struct AssignerRound;

impl DeviceProgram for AssignerRound {
    type Output = ();
    fn resume(&mut self, ctx: &mut DeviceCtx, input: Resume) -> Step<()> {
        match input {
            Resume::Start => Step::Yield(Command::Gather {
                root: 0,
                payload: Bytes::from_static(b"stats"),
            }),
            Resume::GatherDone(_) => Step::Yield(Command::Broadcast {
                root: 0,
                payload: if ctx.is_master() {
                    Some(Bytes::from_static(b"bits"))
                } else {
                    None
                },
            }),
            Resume::BroadcastDone(_) => Step::Done(()),
            _ => Step::Done(()),
        }
    }
}

/// Control 3 — ghost sync: exchange ghost-node gradients all-to-all, then
/// the master scatters the fused result.
struct GhostSync;

impl DeviceProgram for GhostSync {
    type Output = ();
    fn resume(&mut self, ctx: &mut DeviceCtx, input: Resume) -> Step<()> {
        let n = ctx.num_devices();
        match input {
            Resume::Start => Step::Yield(Command::RingAll2All {
                sends: (0u32..)
                    .take(n)
                    .filter(|&dst| dst as usize != ctx.rank())
                    .map(|dst| (dst, Bytes::from_static(b"ghost")))
                    .collect(),
            }),
            Resume::RingDone(_) => Step::Yield(Command::Scatter {
                root: 0,
                payloads: if ctx.is_master() {
                    Some(vec![Bytes::from_static(b"fused"); n])
                } else {
                    None
                },
            }),
            Resume::ScatterDone(_) => Step::Done(()),
            _ => Step::Done(()),
        }
    }
}

const N: usize = 4;

/// Runs one exhibit to its deadlock and checks the wait-for graph blames
/// exactly the ranks the static rule predicts.
fn diagnose<P: DeviceProgram<Output = ()>>(
    name: &str,
    rule: &str,
    expect_blocked: &[usize],
    factory: impl FnMut(usize) -> P,
) -> comm::WaitGraph {
    let err =
        Cluster::try_run_with(N, None, factory).expect_err("every gallery exhibit must deadlock");
    let ClusterError::Deadlock { graph } = err else {
        panic!("{name}: expected a deadlock diagnosis, got {err}");
    };
    let blocked: Vec<usize> = graph.blocked.iter().map(|b| b.rank).collect();
    assert_eq!(
        blocked, expect_blocked,
        "{name}: runtime attribution must match the static [{rule}] finding"
    );
    println!("[{rule}] {name}");
    println!("  {}", graph.summary());
    *graph
}

fn main() {
    println!("deadlock gallery: {N} ranks per exhibit\n");
    let reversed = diagnose("ReversedRing", "unmatched-comm", &[0, 1, 2, 3], |_| {
        ReversedRing
    });
    assert_eq!(
        reversed.unclaimed.len(),
        N,
        "each rank's send sits unclaimed"
    );

    let typo = diagnose("TagTypo", "unmatched-comm", &[0, 1, 2, 3], |_| TagTypo);
    assert!(typo.unclaimed.iter().all(|m| m.tag == 7));

    let skipped = diagnose(
        "SkippedBarrier",
        "collective-divergence",
        &[1, 2, 3],
        |_| SkippedBarrier,
    );
    assert_eq!(
        skipped.finished,
        vec![0],
        "rank 0 exits without the barrier"
    );
    let front = skipped.collective.as_ref().expect("barrier front recorded");
    assert_eq!(
        (front.reached.as_slice(), front.absent.as_slice()),
        (&[1, 2, 3][..], &[0][..])
    );

    let cycle = diagnose("RecvFirstRing", "unmatched-comm", &[0, 1, 2, 3], |_| {
        RecvFirstRing
    });
    assert!(cycle.unclaimed.is_empty(), "nobody ever sent anything");

    println!("\ncontrol group: three correct programs run to completion");
    assert_eq!(Cluster::run(N, |_| HaloExchange).len(), N);
    assert_eq!(Cluster::run(N, |_| AssignerRound).len(), N);
    assert_eq!(Cluster::run(N, |_| GhostSync).len(), N);
    println!("  HaloExchange, AssignerRound, GhostSync: all {N} ranks finished");

    println!("\nwait-for graph of the reversed ring, rendered both ways:\n");
    println!("{}", reversed.to_dot());
    println!("{}", reversed.to_json());
}
