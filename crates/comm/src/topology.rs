//! Hierarchical cluster topology: machines grouped into racks, racks joined
//! by an (oversubscribable) spine.
//!
//! Machines and devices-per-machine (paper notation `xM-yD`) are enough
//! for the paper's 4–8 machine testbeds, where every machine hangs off one
//! switch: the default single-rack layout is that two-tier model. Sweeping
//! to hundreds of machines needs the next tier: racks of machines with full
//! intra-rack bandwidth, and a spine between racks that real datacenters
//! oversubscribe (an oversubscription ratio of `k` means the spine offers
//! `1/k` of the rack-local bandwidth). [`Topology`] is the builder for that
//! three-tier model; [`Topology::cost_model`] wraps it in the [`CostModel`]
//! the scheduler and the bit-width assigner consume, which prices each pair
//! from its tier on every call.

use crate::costmodel::{CostModel, DEFAULT_INTER_BW, DEFAULT_INTRA_BW, DEFAULT_LATENCY};

/// Builder for a three-tier cluster: devices within a machine (intra),
/// machines within a rack (inter), racks across the spine.
///
/// # Example
///
/// ```
/// use comm::Topology;
///
/// // 16 machines x 4 devices, 4 machines per rack, 4:1 oversubscribed spine.
/// let topo = Topology::new(16, 4).machines_per_rack(4).oversubscription(4.0);
/// let cm = topo.cost_model();
/// let mb = 1 << 20;
/// // intra-machine < intra-rack < cross-rack
/// assert!(cm.transfer_time(0, 1, mb) < cm.transfer_time(0, 4, mb));
/// assert!(cm.transfer_time(0, 4, mb) < cm.transfer_time(0, 16, mb));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    machines: usize,
    devices_per_machine: usize,
    machines_per_rack: usize,
    intra_bw: f64,
    inter_bw: f64,
    spine_bw: f64,
    latency: f64,
}

impl Topology {
    /// Starts a topology of `machines x devices_per_machine` with the
    /// paper-preset link parameters and a single rack (no spine tier).
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(machines: usize, devices_per_machine: usize) -> Self {
        assert!(machines > 0 && devices_per_machine > 0, "empty topology");
        Self {
            machines,
            devices_per_machine,
            machines_per_rack: machines,
            intra_bw: DEFAULT_INTRA_BW,
            inter_bw: DEFAULT_INTER_BW,
            spine_bw: DEFAULT_INTER_BW,
            latency: DEFAULT_LATENCY,
        }
    }

    /// Groups machines into racks of `machines` each (the last rack may be
    /// partial). Machines in the same rack talk at `inter_bw`; machines in
    /// different racks cross the spine.
    ///
    /// # Panics
    ///
    /// Panics if `machines == 0`.
    pub fn machines_per_rack(mut self, machines: usize) -> Self {
        assert!(machines > 0, "a rack holds at least one machine");
        self.machines_per_rack = machines;
        self
    }

    /// Sets the intra-machine (NVLink/PCIe-class) bandwidth, bytes/second.
    ///
    /// # Panics
    ///
    /// Panics if `bw` is not positive.
    pub fn intra_bw(mut self, bw: f64) -> Self {
        assert!(bw > 0.0, "bandwidth must be positive");
        self.intra_bw = bw;
        self
    }

    /// Sets the intra-rack machine-to-machine bandwidth, bytes/second.
    /// Unless [`Topology::spine_bw`] or [`Topology::oversubscription`] is
    /// called afterwards, the spine keeps this bandwidth too.
    ///
    /// # Panics
    ///
    /// Panics if `bw` is not positive.
    pub fn inter_bw(mut self, bw: f64) -> Self {
        assert!(bw > 0.0, "bandwidth must be positive");
        self.inter_bw = bw;
        self.spine_bw = bw;
        self
    }

    /// Sets the cross-rack spine bandwidth directly, bytes/second.
    ///
    /// # Panics
    ///
    /// Panics if `bw` is not positive.
    pub fn spine_bw(mut self, bw: f64) -> Self {
        assert!(bw > 0.0, "bandwidth must be positive");
        self.spine_bw = bw;
        self
    }

    /// Sets the spine as an oversubscription ratio over `inter_bw`: a ratio
    /// of `k` gives cross-rack pairs `inter_bw / k`. Ratio `1.0` is a
    /// non-blocking fabric.
    ///
    /// # Panics
    ///
    /// Panics if `ratio < 1.0`.
    pub fn oversubscription(mut self, ratio: f64) -> Self {
        assert!(ratio >= 1.0, "oversubscription ratio must be >= 1");
        self.spine_bw = self.inter_bw / ratio;
        self
    }

    /// Sets the per-transfer latency, seconds (applied to every tier).
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative.
    pub fn latency(mut self, seconds: f64) -> Self {
        assert!(seconds >= 0.0, "latency must be non-negative");
        self.latency = seconds;
        self
    }

    /// Total device count.
    pub fn num_devices(&self) -> usize {
        self.machines * self.devices_per_machine
    }

    /// Number of racks (the last one may be partial).
    pub fn num_racks(&self) -> usize {
        self.machines.div_ceil(self.machines_per_rack)
    }

    /// Rack hosting `rank`.
    pub fn rack_of(&self, rank: usize) -> usize {
        rank / self.devices_per_machine / self.machines_per_rack
    }

    /// Paper-style name, e.g. `16M-4D` or `4R-16M-4D` once racks matter.
    pub fn label(&self) -> String {
        let base = format!("{}M-{}D", self.machines, self.devices_per_machine);
        if self.num_racks() > 1 {
            format!("{}R-{base}", self.num_racks())
        } else {
            base
        }
    }

    /// The per-pair affine [`CostModel`] of this topology: same machine ->
    /// `intra_bw`, same rack -> `inter_bw`, cross-rack -> `spine_bw`, all
    /// with the configured latency.
    pub fn cost_model(&self) -> CostModel {
        CostModel::new(self)
    }

    /// The three tiers of this topology, each priced once (see [`Tiers`]).
    pub(crate) fn tiers(&self) -> Tiers {
        let priced = |bw: f64| (1.0 / bw, self.latency);
        Tiers {
            devices: self.num_devices(),
            devices_per_machine: self.devices_per_machine,
            // `rank / dpm / mpr == rank / (dpm * mpr)`; a product past
            // `usize::MAX` means one rack, which the saturated divisor
            // gives too.
            devices_per_rack: self
                .devices_per_machine
                .saturating_mul(self.machines_per_rack),
            params: [
                priced(self.intra_bw),
                priced(self.inter_bw),
                priced(self.spine_bw),
            ],
        }
    }
}

/// A [`Topology`]'s links as the cost model reads them: each tier's
/// `(theta, gamma)` — `1 / bw` and the latency — computed once, and the
/// two group sizes that find a pair's tier.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Tiers {
    devices: usize,
    devices_per_machine: usize,
    devices_per_rack: usize,
    /// Same machine, same rack, across the spine.
    params: [(f64, f64); 3],
}

impl Tiers {
    /// Total device count.
    pub(crate) fn num_devices(&self) -> usize {
        self.devices
    }

    /// The `(theta, gamma)` of the directed link `src -> dst`: its tier's
    /// (same machine, then same rack, then spine), or `(0.0, 0.0)` on the
    /// diagonal. Ranks are not range-checked.
    pub(crate) fn link_params(&self, src: usize, dst: usize) -> (f64, f64) {
        if src == dst {
            return (0.0, 0.0);
        }
        let tier = if src / self.devices_per_machine == dst / self.devices_per_machine {
            0
        } else if src / self.devices_per_rack == dst / self.devices_per_rack {
            1
        } else {
            2
        };
        self.params[tier]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rack_mapping_and_label() {
        let topo = Topology::new(16, 4).machines_per_rack(4);
        assert_eq!(topo.num_devices(), 64);
        assert_eq!(topo.num_racks(), 4);
        assert_eq!(topo.rack_of(0), 0);
        assert_eq!(topo.rack_of(15), 0); // machine 3, rack 0
        assert_eq!(topo.rack_of(16), 1); // machine 4, rack 1
        assert_eq!(topo.rack_of(63), 3);
        assert_eq!(topo.label(), "4R-16M-4D");
        assert_eq!(Topology::new(2, 4).label(), "2M-4D");
    }

    #[test]
    fn partial_last_rack_counts() {
        let topo = Topology::new(5, 1).machines_per_rack(2);
        assert_eq!(topo.num_racks(), 3);
        assert_eq!(topo.rack_of(4), 2);
    }

    #[test]
    fn oversubscription_slows_only_the_spine() {
        let base = Topology::new(4, 2).machines_per_rack(2);
        let flat = base.clone().cost_model();
        let over = base.oversubscription(8.0).cost_model();
        let mb = 1 << 20;
        // Intra-rack pairs unchanged.
        assert_eq!(flat.transfer_time(0, 2, mb), over.transfer_time(0, 2, mb));
        // Cross-rack pairs 8x slower (minus the shared latency term).
        let lat = DEFAULT_LATENCY;
        let f = flat.transfer_time(0, 4, mb) - lat;
        let o = over.transfer_time(0, 4, mb) - lat;
        assert!((o / f - 8.0).abs() < 1e-9, "ratio {}", o / f);
    }

    #[test]
    fn tiers_are_ordered() {
        let cm = Topology::new(4, 2)
            .machines_per_rack(2)
            .oversubscription(4.0)
            .cost_model();
        let mb = 1 << 20;
        assert!(cm.transfer_time(0, 1, mb) < cm.transfer_time(0, 2, mb));
        assert!(cm.transfer_time(0, 2, mb) < cm.transfer_time(0, 4, mb));
    }

    #[test]
    fn inter_bw_resets_spine_until_overridden() {
        let topo = Topology::new(4, 1).machines_per_rack(2).inter_bw(1e6);
        let cm = topo.cost_model();
        // Spine follows inter_bw when no explicit spine setting exists.
        assert_eq!(cm.link_params(0, 2), cm.link_params(0, 1));
        let cm2 = Topology::new(4, 1)
            .machines_per_rack(2)
            .inter_bw(1e6)
            .spine_bw(5e5)
            .cost_model();
        assert!(cm2.link_params(0, 2).0 > cm2.link_params(0, 1).0);
    }
}
