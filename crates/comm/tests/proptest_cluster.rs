//! Property tests for the cluster runtime: repeated collectives agree on
//! every rank, the sparse ring is the dense ring minus its empty payloads,
//! and malformed ring destinations are a typed error.

use bytes::Bytes;
use comm::{AsyncDevice, Cluster, ClusterError, CostModel};
use proptest::prelude::*;

/// SplitMix64 step: the tests' own stream for payload lengths and link costs.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn repeated_collectives_stay_consistent(
        n in 2usize..5,
        rounds in 1usize..5,
        seed in 0u64..1000,
    ) {
        let device = move |mut dev: AsyncDevice| async move {
            let mut acc = Vec::new();
            for round in 0..rounds {
                // Interleave different collectives in a fixed order.
                let me = dev.rank();
                let sends = (0..n as u32)
                    .filter(|&dst| dst as usize != me)
                    .map(|dst| (dst, Bytes::from(vec![me as u8, dst as u8, round as u8])))
                    .collect();
                let got = dev.ring_exchange(sends).await;
                let sum: u32 = got.iter().map(|(_, b)| b[0] as u32).sum();
                let root = round % n;
                let own = (me == root).then(|| Bytes::from(vec![seed as u8, round as u8]));
                let bcast = dev.broadcast(root, own).await;
                let mut reduced = vec![me as f32, 1.0];
                dev.allreduce_sum_f32(&mut reduced).await;
                acc.push((sum, bcast[0], reduced[0] as u32, reduced[1] as u32));
            }
            acc
        };
        let results = Cluster::try_run_async(n, None, None, device)
            .expect("every rank enters every collective")
            .outputs;
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
        let sparse = Cluster::try_run_async(n, Some(&cost), None, move |mut dev| async move {
            let me = dev.rank();
            let sends = (0..n)
                .filter(|&d| lens[me][d] > 0)
                .map(|d| (d as u32, payload(me, d)))
                .collect();
            dev.ring_exchange(sends).await
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
        let err = Cluster::try_run_async(n, None, None, move |mut dev| async move {
            let sends = if dev.rank() == culprit {
                bad.iter().map(|&d| (d, Bytes::from_static(b"x"))).collect()
            } else {
                Vec::new()
            };
            dev.ring_exchange(sends).await
        })
        .expect_err("malformed destinations must be rejected");
        prop_assert!(
            matches!(err, ClusterError::CollectiveMismatch { rank, .. } if rank == culprit),
            "got {}", err
        );
    }
}
