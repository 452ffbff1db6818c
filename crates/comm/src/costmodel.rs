//! Affine link cost model (`t = theta * bytes + gamma`).

use crate::topology::Tiers;
use crate::Topology;

/// Per-device-pair affine transfer cost `t(bytes) = theta * bytes + gamma`
/// (seconds), the cost model of Eqn. 10, priced from the tiers of the
/// [`Topology`] it was built from: each tier's parameters are computed once,
/// and a pair's tier is looked up on each call, never stored per pair.
///
/// # Example
///
/// ```
/// let cm = comm::Topology::new(2, 2).cost_model();
/// // Intra-machine transfers are faster than inter-machine ones.
/// assert!(cm.transfer_time(0, 1, 1 << 20) < cm.transfer_time(0, 2, 1 << 20));
/// // Self-transfers are free.
/// assert_eq!(cm.transfer_time(1, 1, 123), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    tiers: Tiers,
    /// Multiplier on [`BASE_CPU_OPS_PER_SEC`] to emulate accelerator speed
    /// (a V100 is roughly an order of magnitude faster than the single CPU
    /// thread a simulated device gets here).
    pub compute_speedup: f64,
    /// Optional per-device speedup multipliers on top of `compute_speedup`,
    /// for heterogeneous clusters (the paper's 6M-4D testbed mixes V100 and
    /// A100 machines). `None` means a homogeneous cluster.
    per_device_scale: Option<Vec<f64>>,
}

/// Default effective inter-machine bandwidth (bytes/second).
///
/// Deliberately below the paper's 100 Gbps line rate: our graphs are ~40x
/// smaller than the originals, so the link is slowed proportionally to keep
/// the communication-to-computation ratio in the regime Table 1 reports
/// (comm = 65-80% of epoch time). This is the calibrated "same shape"
/// substitution documented in DESIGN.md.
pub const DEFAULT_INTER_BW: f64 = 130.0e6;

/// Default intra-machine (NVLink/PCIe-class) bandwidth in bytes/second.
pub const DEFAULT_INTRA_BW: f64 = 0.6e9;

/// Default per-transfer latency, seconds (RDMA-class round-trip setup).
pub const DEFAULT_LATENCY: f64 = 20.0e-6;

/// Default compute speedup (GPU vs single CPU thread).
pub const DEFAULT_COMPUTE_SPEEDUP: f64 = 10.0;

/// Effective scalar-operation rate of one unloaded CPU thread running this
/// workspace's kernels (ops/second). Calibrated against measured matmul /
/// aggregation / quantization throughput on a modern x86 core; used by
/// [`CostModel::ops_time_for`] so a simulated device's compute rate is
/// `BASE_CPU_OPS_PER_SEC * compute_speedup * device_scale`.
pub const BASE_CPU_OPS_PER_SEC: f64 = 2.5e9;

impl CostModel {
    /// The cost model of `topology`, at the default compute speedup.
    pub(crate) fn new(topology: &Topology) -> Self {
        Self {
            tiers: topology.tiers(),
            compute_speedup: DEFAULT_COMPUTE_SPEEDUP,
            per_device_scale: None,
        }
    }

    /// Builds a cost model with uniform bandwidth/latency on every link:
    /// `n` one-device machines in one rack, all at `inter_bw`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `bandwidth <= 0` or `latency < 0`.
    pub fn homogeneous(n: usize, bandwidth_bytes_per_sec: f64, latency_sec: f64) -> Self {
        Topology::new(n, 1)
            .inter_bw(bandwidth_bytes_per_sec)
            .latency(latency_sec)
            .cost_model()
    }

    /// Sets the compute-speedup divisor (builder style).
    pub fn with_compute_speedup(mut self, speedup: f64) -> Self {
        assert!(speedup > 0.0, "speedup must be positive");
        self.compute_speedup = speedup;
        self
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.tiers.num_devices()
    }

    /// Modeled seconds to move `bytes` from `src` to `dst`. Zero-byte
    /// transfers and self-transfers are free.
    ///
    /// # Panics
    ///
    /// Panics if ranks are out of range.
    pub fn transfer_time(&self, src: usize, dst: usize, bytes: usize) -> f64 {
        let n = self.num_devices();
        assert!(src < n && dst < n, "rank out of range");
        if src == dst || bytes == 0 {
            return 0.0;
        }
        let (theta, gamma) = self.tiers.link_params(src, dst);
        theta * bytes as f64 + gamma
    }

    /// Seconds `rank` spends in one unsynchronized ring all2all (Fig. 8,
    /// the Table 2 model): in each of the `n - 1` rounds it waits for the
    /// longer of its own send and its own receive on full-duplex links.
    /// In round `r` it sends to `rank + r` and receives from `rank - r`
    /// (mod `n`). `sent` / `recv` list `(peer, bytes)` for the peers it
    /// sends to / receives from, each strictly ascending by peer; an
    /// unlisted peer moves nothing. Only the rounds in which a listed
    /// peer moves are walked, in round order: a silent round would add
    /// `0.0`, so the sum is the same bits as a walk over every round.
    ///
    /// # Panics
    ///
    /// Panics if `rank` or a listed peer is out of range.
    pub fn ring_seconds(&self, rank: usize, sent: &[(u32, usize)], recv: &[(u32, usize)]) -> f64 {
        let n = self.num_devices();
        assert!(rank < n, "rank out of range");
        let send_round = |&&(dst, _): &&(u32, usize)| (dst as usize + n - rank) % n;
        let recv_round = |&&(src, _): &&(u32, usize)| (rank + n - src as usize) % n;
        // Send rounds ascend with the destination from the first peer above
        // `rank`, wrapping round; receive rounds ascend as the source
        // descends from the first peer below it. Round 0 is `rank` itself.
        let above = sent.partition_point(|&(q, _)| q as usize <= rank);
        let mut sends = sent[above..]
            .iter()
            .chain(&sent[..above])
            .filter(|e| send_round(e) != 0)
            .peekable();
        let below = recv.partition_point(|&(q, _)| (q as usize) < rank);
        let mut recvs = recv[..below]
            .iter()
            .rev()
            .chain(recv[below..].iter().rev())
            .filter(|e| recv_round(e) != 0)
            .peekable();
        let mut t = 0.0;
        loop {
            let round = match (sends.peek().map(send_round), recvs.peek().map(recv_round)) {
                (None, None) => break,
                (Some(s), Some(r)) => s.min(r),
                (Some(round), None) | (None, Some(round)) => round,
            };
            let send = sends
                .next_if(|e| send_round(e) == round)
                .map_or(0.0, |&(dst, bytes)| {
                    self.transfer_time(rank, dst as usize, bytes)
                });
            let recv = recvs
                .next_if(|e| recv_round(e) == round)
                .map_or(0.0, |&(src, bytes)| {
                    self.transfer_time(src as usize, rank, bytes)
                });
            t += send.max(recv);
        }
        t
    }

    /// The `(theta, gamma)` parameters of a directed link, as used by the
    /// bit-width assigner's time objective; `(0.0, 0.0)` on the diagonal.
    ///
    /// # Panics
    ///
    /// Panics if ranks are out of range.
    pub fn link_params(&self, src: usize, dst: usize) -> (f64, f64) {
        let n = self.num_devices();
        assert!(src < n && dst < n, "rank out of range");
        self.tiers.link_params(src, dst)
    }

    /// Sets per-device speedup multipliers (builder style): device `r`'s
    /// effective speedup becomes `compute_speedup * scales[r]`. Use for
    /// heterogeneous clusters (e.g. V100 machines at 1.0, A100 at ~1.7).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the device count or any scale is
    /// not positive.
    pub fn with_device_scales(mut self, scales: Vec<f64>) -> Self {
        assert_eq!(scales.len(), self.num_devices(), "one scale per device");
        assert!(scales.iter().all(|&s| s > 0.0), "scales must be positive");
        self.per_device_scale = Some(scales);
        self
    }

    /// Simulated seconds for `ops` scalar operations on device `rank`.
    ///
    /// This is the load-independent way to charge compute: kernels report
    /// their operation counts and the model divides by the device's
    /// effective rate (`BASE_CPU_OPS_PER_SEC * compute_speedup * scale`).
    /// Unlike wall-clock measurement it is immune to host CPU
    /// oversubscription, which matters when dozens of simulated devices
    /// share a few physical cores.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn ops_time_for(&self, rank: usize, ops: f64) -> f64 {
        assert!(rank < self.num_devices(), "rank out of range");
        let scale = self.per_device_scale.as_ref().map_or(1.0, |s| s[rank]);
        ops / (BASE_CPU_OPS_PER_SEC * self.compute_speedup * scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_machine_mapping() {
        let t = crate::Topology::new(2, 4);
        assert_eq!(t.num_devices(), 8);
        assert_eq!(t.label(), "2M-4D");
        // Ranks 0..4 share machine 0, ranks 4..8 machine 1.
        let cm = t.cost_model();
        let (intra, inter) = (1.0 / DEFAULT_INTRA_BW, 1.0 / DEFAULT_INTER_BW);
        assert_eq!(cm.link_params(0, 3).0, intra);
        assert_eq!(cm.link_params(1, 2).0, intra);
        assert_eq!(cm.link_params(3, 4).0, inter);
        assert_eq!(cm.link_params(4, 7).0, intra);
    }

    #[test]
    fn homogeneous_affine_cost() {
        let cm = CostModel::homogeneous(3, 1e9, 1e-4);
        let t = cm.transfer_time(0, 1, 1_000_000);
        assert!((t - (1e-3 + 1e-4)).abs() < 1e-12);
    }

    #[test]
    fn self_and_empty_transfers_free() {
        let cm = CostModel::homogeneous(2, 1e9, 1e-4);
        assert_eq!(cm.transfer_time(0, 0, 1000), 0.0);
        assert_eq!(cm.transfer_time(0, 1, 0), 0.0);
    }

    #[test]
    fn two_tier_orders_links() {
        let cm = crate::Topology::new(2, 2).cost_model();
        let intra = cm.transfer_time(0, 1, 1 << 20);
        let inter = cm.transfer_time(0, 2, 1 << 20);
        assert!(intra < inter);
    }

    #[test]
    fn cost_is_monotone_in_bytes() {
        let cm = crate::Topology::new(2, 2).cost_model();
        let mut prev = 0.0;
        for bytes in [1usize, 10, 100, 10_000, 1_000_000] {
            let t = cm.transfer_time(0, 3, bytes);
            assert!(t > prev);
            prev = t;
        }
    }

    /// The per-pair lowering the cost model once stored: an `n x n` table
    /// started homogeneous at `intra` with a zero diagonal, then every
    /// off-diagonal pair overwritten with its tier's `1 / bw` and `latency`.
    fn dense_lowering(
        machines: usize,
        devices: usize,
        rack: usize,
        [intra, inter, spine]: [f64; 3],
        latency: f64,
    ) -> Vec<(f64, f64)> {
        let n = machines * devices;
        let mut table = vec![(1.0 / intra, latency); n * n];
        for i in 0..n {
            table[i * n + i] = (0.0, 0.0);
        }
        let machine_of = |rank: usize| rank / devices;
        let rack_of = |rank: usize| rank / devices / rack;
        for src in 0..n {
            for dst in (0..n).filter(|&dst| dst != src) {
                let bw = if machine_of(src) == machine_of(dst) {
                    intra
                } else if rack_of(src) == rack_of(dst) {
                    inter
                } else {
                    spine
                };
                table[src * n + dst] = (1.0 / bw, latency);
            }
        }
        table
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn tier_lookup_is_the_dense_lowering_bit_for_bit(
            machines in 1usize..10,
            devices in 1usize..6,
            rack in 1usize..10,
            intra in 1e3f64..1e12,
            inter in 1e3f64..1e12,
            spine in 1e3f64..1e12,
            latency in 0.0f64..1e-3,
            oversub in 1.0f64..16.0,
            spine_by in 0u8..3,
        ) {
            let topo = crate::Topology::new(machines, devices)
                .machines_per_rack(rack)
                .intra_bw(intra)
                .inter_bw(inter)
                .latency(latency);
            // The spine follows `inter_bw`, an oversubscription ratio, or its
            // own bandwidth.
            let (topo, spine) = match spine_by {
                0 => (topo, inter),
                1 => (topo.oversubscription(oversub), inter / oversub),
                _ => (topo.spine_bw(spine), spine),
            };
            let cm = topo.cost_model();
            let want = dense_lowering(machines, devices, rack, [intra, inter, spine], latency);
            let n = machines * devices;
            for src in 0..n {
                for dst in 0..n {
                    let (theta, gamma) = cm.link_params(src, dst);
                    let (want_theta, want_gamma) = want[src * n + dst];
                    proptest::prop_assert_eq!(
                        (theta.to_bits(), gamma.to_bits()),
                        (want_theta.to_bits(), want_gamma.to_bits()),
                        "{} -> {}", src, dst
                    );
                }
            }
        }
    }

    /// The ring time as a walk over every round of dense per-peer byte
    /// tables, as `ring_seconds` computed it before it took sparse lists.
    fn dense_ring_seconds(cm: &CostModel, rank: usize, sent: &[usize], recv: &[usize]) -> f64 {
        let n = cm.num_devices();
        let mut t = 0.0;
        for round in 1..n {
            let dst = (rank + round) % n;
            let src = (rank + n - round) % n;
            let send = cm.transfer_time(rank, dst, sent[dst]);
            t += send.max(cm.transfer_time(src, rank, recv[src]));
        }
        t
    }

    /// A strictly ascending `(peer, bytes)` list over `0..n` drawn from
    /// `picks`: empty, one peer, every peer, or a random subset, with zero
    /// byte counts mixed in.
    fn sparse_list(n: usize, shape: u8, picks: &[(u8, usize)]) -> Vec<(u32, usize)> {
        let bytes = |q: usize| picks[q % picks.len()].1;
        match shape {
            0 => Vec::new(),
            1 => {
                let q = bytes(0) % n;
                vec![(q as u32, bytes(q))]
            }
            2 => (0..n).map(|q| (q as u32, bytes(q))).collect(),
            _ => (0..n)
                .filter(|&q| picks[q % picks.len()].0 == 1)
                .map(|q| (q as u32, bytes(q)))
                .collect(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn sparse_ring_seconds_is_the_dense_round_walk_bit_for_bit(
            machines in 1usize..12,
            devices in 1usize..5,
            rack in 1usize..6,
            oversub in 1.0f64..16.0,
            latency in 0.0f64..1e-4,
            rank in 0usize..64,
            shapes in (0u8..4, 0u8..4),
            picks in proptest::collection::vec(
                (0u8..2, byte_counts()),
                1..24,
            ),
        ) {
            let cm = crate::Topology::new(machines, devices)
                .machines_per_rack(rack)
                .oversubscription(oversub)
                .latency(latency)
                .cost_model();
            let n = cm.num_devices();
            let rank = rank % n;
            let sent = sparse_list(n, shapes.0, &picks);
            let rotated: Vec<(u8, usize)> = picks.iter().rev().copied().collect();
            let recv = sparse_list(n, shapes.1, &rotated);
            let dense = |list: &[(u32, usize)]| {
                let mut table = vec![0usize; n];
                for &(q, b) in list {
                    table[q as usize] = b;
                }
                table
            };
            let want = dense_ring_seconds(&cm, rank, &dense(&sent), &dense(&recv));
            let got = cm.ring_seconds(rank, &sent, &recv);
            proptest::prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?} / {:?}", sent, recv);
        }
    }

    /// Byte counts: zero, small, and payload-sized.
    fn byte_counts() -> impl proptest::strategy::Strategy<Value = usize> {
        proptest::prop_oneof![
            proptest::strategy::Just(0usize),
            1usize..64,
            64usize..4_000_000
        ]
    }

    #[test]
    fn link_params_roundtrip() {
        let cm = CostModel::homogeneous(2, 2.0, 3.0);
        let (theta, gamma) = cm.link_params(0, 1);
        assert_eq!(theta, 0.5);
        assert_eq!(gamma, 3.0);
    }
}

#[cfg(test)]
mod hetero_tests {
    use super::*;

    #[test]
    fn device_scales_apply_per_rank() {
        let cm = CostModel::homogeneous(3, 1e9, 0.0)
            .with_compute_speedup(10.0)
            .with_device_scales(vec![1.0, 2.0, 0.5]);
        let base = cm.ops_time_for(0, 1e9);
        assert_eq!(cm.ops_time_for(1, 1e9), base / 2.0);
        assert_eq!(cm.ops_time_for(2, 1e9), base * 2.0);
        // No scales configured: every rank runs at the base rate.
        let plain = CostModel::homogeneous(3, 1e9, 0.0).with_compute_speedup(10.0);
        assert_eq!(plain.ops_time_for(1, 1e9), base);
        assert_eq!(plain.ops_time_for(2, 1e9), base);
    }

    #[test]
    fn ops_time_uses_base_rate_and_scales() {
        let cm = CostModel::homogeneous(2, 1e9, 0.0)
            .with_compute_speedup(10.0)
            .with_device_scales(vec![1.0, 2.0]);
        let expect0 = 1e9 / (BASE_CPU_OPS_PER_SEC * 10.0);
        assert!((cm.ops_time_for(0, 1e9) - expect0).abs() < 1e-15);
        assert!((cm.ops_time_for(1, 1e9) - expect0 / 2.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "one scale per device")]
    fn scales_length_checked() {
        let _ = CostModel::homogeneous(3, 1e9, 0.0).with_device_scales(vec![1.0]);
    }
}
