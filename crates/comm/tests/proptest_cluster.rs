//! Property tests for the cluster runtime: random message schedules must
//! deliver every payload exactly once, in order, regardless of
//! interleaving.

use bytes::Bytes;
use comm::{
    Cluster, ClusterError, Command, CostModel, DeviceCtx, DeviceProgram, FlightRecorder, Resume,
    Step,
};
use obs::time::{EventDetail, EventKind, Span};
use proptest::prelude::*;
use std::collections::VecDeque;

/// SplitMix64 step: the tests' own stream for payload lengths and link costs.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The commands `rank` of `n` yields for `script`, a list of opcodes every
/// rank runs: a charge (whose seconds, kind and span follow from the rank
/// and the position), a send to the right neighbour with the matching
/// receive from the left, a barrier, or a ring to every other rank.
fn scripted_commands(script: &[u8], rank: usize, n: usize) -> Vec<Command> {
    const KINDS: [EventKind; 4] = [
        EventKind::HaloSend,
        EventKind::QuantEncode,
        EventKind::CentralCompute,
        EventKind::AssignerSolve,
    ];
    let others = || (0..n as u32).filter(|&q| q as usize != rank);
    let mut out = Vec::new();
    for (i, &op) in script.iter().enumerate() {
        match op {
            0..=3 => {
                let mut span = Span::new(KINDS[(op as usize + rank) % KINDS.len()]);
                span.layer = (i % 3 > 0).then_some(i as u32 % 3);
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
                let seconds = 1e-4 * ((i + rank) % 5) as f64;
                out.push(Command::Advance {
                    epoch: i / 4,
                    seconds,
                    span: Box::new(span),
                });
            }
            4 => {
                let (dst, src, tag) = ((rank + 1) % n, (rank + n - 1) % n, i as u64);
                let payload = Bytes::from(vec![rank as u8; 1 + i % 40]);
                out.push(Command::Send { dst, tag, payload });
                out.push(Command::Recv { src, tag });
            }
            5 => out.push(Command::Barrier),
            _ => {
                let sends = others().map(|q| (q, Bytes::from(vec![q as u8; 1 + (i + rank) % 60])));
                out.push(Command::RingAll2All {
                    sends: sends.collect(),
                });
            }
        }
    }
    out
}

/// A native device that yields a fixed command list, one command a step.
struct Scripted(VecDeque<Command>);

impl DeviceProgram for Scripted {
    type Output = ();

    fn resume(&mut self, _ctx: &mut DeviceCtx, _input: Resume) -> Step<()> {
        self.0.pop_front().map_or(Step::Done(()), Step::Yield)
    }
}

/// The closure form of the same list: every command through the
/// `DeviceHandle` call that stands for it. Returns the handle's round trips.
fn run_scripted(mut dev: comm::DeviceHandle, cmds: Vec<Command>) -> u64 {
    for cmd in cmds {
        match cmd {
            Command::Advance {
                epoch,
                seconds,
                span,
            } => dev.charge(epoch, seconds, || *span),
            Command::Send { dst, tag, payload } => dev.send(dst, tag, payload),
            Command::Recv { src, tag } => drop(dev.recv(src, tag)),
            Command::Barrier => dev.barrier(),
            Command::RingAll2All { sends } => drop(dev.ring_exchange(sends)),
            other => unreachable!("the script has no {}", other.kind_name()),
        }
    }
    dev.round_trips()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn closure_charges_log_like_native_advances_and_cost_no_round_trip(
        n in 2usize..6,
        script in proptest::collection::vec(0u8..7, 0..40),
    ) {
        let cost = CostModel::homogeneous(n, 1e8, 1e-5);
        let script = &script;
        let mut native = FlightRecorder::new(n, Some(&cost));
        let programs = (0..n).map(|r| Scripted(scripted_commands(script, r, n).into()));
        comm::event::run_programs_recorded(programs.collect(), Some(&cost), Some(&mut native))
            .expect("native run succeeds");

        let device = |dev: comm::DeviceHandle| {
            let cmds = scripted_commands(script, dev.rank(), n);
            run_scripted(dev, cmds)
        };
        let mut closure = FlightRecorder::new(n, Some(&cost));
        let recorded = Cluster::try_run_fn_recorded(n, Some(&cost), Some(&mut closure), device)
            .expect("recorded closure run succeeds");
        prop_assert_eq!(closure.finish(), native.finish());

        // A charge is no round trip: the device thread is answered once per
        // send, recv or collective, recorder or not.
        let unrecorded = Cluster::try_run_fn_with(n, Some(&cost), device)
            .expect("unrecorded closure run succeeds");
        prop_assert_eq!(&recorded.outputs, &unrecorded.outputs);
        for (rank, &trips) in recorded.outputs.iter().enumerate() {
            let yields = scripted_commands(script, rank, n)
                .iter()
                .filter(|c| !matches!(c, Command::Advance { .. }))
                .count();
            prop_assert_eq!(trips, yields as u64, "rank {}", rank);
        }
    }

    #[test]
    fn random_p2p_schedules_deliver_everything(
        n in 2usize..5,
        // Each entry: (src, dst, tag, payload byte) with src/dst folded into range.
        plan in proptest::collection::vec((0usize..8, 0usize..8, 0u64..4, 0u8..=255), 1..24),
    ) {
        // Normalize the plan to the device count and make it visible to all.
        let sends: Vec<(usize, usize, u64, u8)> = plan
            .iter()
            .map(|&(s, d, t, b)| (s % n, d % n, t, b))
            .filter(|&(s, d, _, _)| s != d)
            .collect();
        let sends_ref = &sends;
        let results = Cluster::run_fn(n, move |mut dev| {
            let me = dev.rank();
            // Send phase: everything this rank must send, in plan order.
            for (i, &(s, d, t, b)) in sends_ref.iter().enumerate() {
                if s == me {
                    dev.send(d, t, Bytes::from(vec![b, i as u8]));
                }
            }
            // Receive phase: collect in plan order (per (src, tag) FIFO).
            let mut got = Vec::new();
            for &(s, d, t, _) in sends_ref {
                if d == me {
                    let payload = dev.recv(s, t);
                    got.push((s, t, payload[0]));
                }
            }
            got
        });
        // Every rank received exactly the payload bytes addressed to it, and
        // per-(src, tag) streams preserve send order.
        for (me, got) in results.iter().enumerate() {
            let mut expect_streams: std::collections::HashMap<(usize, u64), Vec<u8>> =
                std::collections::HashMap::new();
            for &(s, d, t, b) in sends_ref {
                if d == me {
                    expect_streams.entry((s, t)).or_default().push(b);
                }
            }
            let mut got_streams: std::collections::HashMap<(usize, u64), Vec<u8>> =
                std::collections::HashMap::new();
            for &(s, t, b) in got {
                got_streams.entry((s, t)).or_default().push(b);
            }
            prop_assert_eq!(expect_streams, got_streams, "rank {} streams differ", me);
        }
    }

    #[test]
    fn repeated_collectives_stay_consistent(
        n in 2usize..5,
        rounds in 1usize..5,
        seed in 0u64..1000,
    ) {
        let device = move |mut dev: comm::DeviceHandle| {
            let mut acc = Vec::new();
            for round in 0..rounds {
                // Interleave different collectives in a fixed order.
                let payloads: Vec<Bytes> = (0..n)
                    .map(|dst| Bytes::from(vec![dev.rank() as u8, dst as u8, round as u8]))
                    .collect();
                let got = dev.ring_all2all(payloads);
                let sum: u32 = got.iter().flatten().map(|b| b[0] as u32).sum();
                let bcast = dev.broadcast(
                    round % n,
                    (dev.rank() == round % n).then(|| Bytes::from(vec![seed as u8, round as u8])),
                );
                let mut reduced = vec![dev.rank() as f32, 1.0];
                dev.allreduce_sum_f32(&mut reduced);
                acc.push((sum, bcast[0], reduced[0] as u32, reduced[1] as u32));
            }
            acc
        };
        let results = Cluster::run_fn(n, device);
        // Every device computed identical collective results.
        let expected_sum: u32 = (0..n as u32).sum::<u32>();
        for (rank, acc) in results.iter().enumerate() {
            for (round, &(sum, bcast, red0, red1)) in acc.iter().enumerate() {
                // ring sum excludes self.
                prop_assert_eq!(sum, expected_sum - rank as u32, "rank {} round {}", rank, round);
                prop_assert_eq!(bcast, seed as u8);
                prop_assert_eq!(red0, expected_sum);
                prop_assert_eq!(red1, n as u32);
            }
        }
    }

    #[test]
    fn sparse_ring_is_the_dense_ring_minus_the_empties(
        n in 2usize..10,
        density in 0u64..5,
        seed in 0u64..1_000_000,
    ) {
        // A random sparse payload set: pair (s, d) carries `lens[s][d]`
        // bytes, zero (= not listed) with probability `1 - density / 4`.
        let mut state = seed;
        let lens: Vec<Vec<usize>> = (0..n)
            .map(|s| {
                (0..n)
                    .map(|d| {
                        let r = mix(&mut state);
                        if s == d || r % 4 >= density { 0 } else { 1 + (r >> 8) as usize % 300 }
                    })
                    .collect()
            })
            .collect();
        // Every directed link gets its own theta and gamma.
        let mut cost = CostModel::homogeneous(n, 1e9, 1e-6);
        for s in 0..n {
            for d in (0..n).filter(|&d| d != s) {
                let theta = 1e-9 * (1 + mix(&mut state) % 50) as f64;
                let gamma = 1e-6 * (mix(&mut state) % 20) as f64;
                cost.set_link(s, d, theta, gamma);
            }
        }
        let lens = &lens;
        let payload = |s: usize, d: usize| Bytes::from(vec![(s * 16 + d) as u8; lens[s][d]]);
        let dense = Cluster::try_run_fn_with(n, Some(&cost), move |mut dev| {
            let me = dev.rank();
            dev.ring_all2all((0..n).map(|d| payload(me, d)).collect())
        })
        .expect("dense ring runs");
        let sparse = Cluster::try_run_fn_with(n, Some(&cost), move |mut dev| {
            let me = dev.rank();
            let sends = (0..n)
                .filter(|&d| lens[me][d] > 0)
                .map(|d| (d as u32, payload(me, d)))
                .collect();
            dev.ring_exchange(sends)
        })
        .expect("sparse ring runs");
        for me in 0..n {
            let want: Vec<(u32, Bytes)> = dense.outputs[me]
                .iter()
                .enumerate()
                .filter_map(|(src, p)| match p {
                    Some(p) if !p.is_empty() => Some((src as u32, p.clone())),
                    Some(_) => None,
                    None => {
                        assert_eq!(src, me, "the dense form fills every other slot");
                        None
                    }
                })
                .collect();
            prop_assert_eq!(&sparse.outputs[me], &want, "rank {} deliveries", me);
            prop_assert_eq!(
                sparse.clocks[me].to_bits(),
                dense.clocks[me].to_bits(),
                "rank {} clock", me
            );
            // Every rank entered at 0, so its clock is the ring-time model
            // applied to the byte tables the scheduler rebuilt.
            let recv: Vec<usize> = lens.iter().map(|row| row[me]).collect();
            prop_assert_eq!(
                sparse.clocks[me].to_bits(),
                cost.ring_seconds(me, &lens[me], &recv, &[]).to_bits(),
                "rank {} clock against CostModel::ring_seconds", me
            );
        }
    }

    #[test]
    fn malformed_ring_destinations_are_a_collective_mismatch(
        n in 2usize..10,
        culprit in 0usize..10,
        kind in 0usize..4,
    ) {
        let culprit = culprit % n;
        let other = (culprit + 1) % n;
        let bad: Vec<u32> = match kind {
            0 if n > 2 => {
                // Unordered: two valid peers, descending.
                let mut peers: Vec<u32> =
                    (0..n as u32).filter(|&d| d as usize != culprit).collect();
                peers.reverse();
                peers
            }
            0 | 1 => vec![other as u32, other as u32], // duplicate
            2 => vec![culprit as u32],                  // self
            _ => vec![n as u32],                        // out of range
        };
        let bad = &bad;
        let err = Cluster::try_run_fn(n, move |mut dev| {
            let sends = if dev.rank() == culprit {
                bad.iter().map(|&d| (d, Bytes::from_static(b"x"))).collect()
            } else {
                Vec::new()
            };
            dev.ring_exchange(sends)
        })
        .expect_err("malformed destinations must be rejected");
        prop_assert!(
            matches!(err, ClusterError::CollectiveMismatch { rank, .. } if rank == culprit),
            "got {}", err
        );
    }
}
