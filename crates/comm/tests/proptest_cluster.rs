//! Property tests for the cluster runtime: random message schedules must
//! deliver every payload exactly once, in order, regardless of
//! interleaving.

use bytes::Bytes;
use comm::Cluster;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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
}
