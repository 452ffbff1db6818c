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

    /// The three tiers of this topology, each priced once, and every
    /// device's machine and rack (see [`Tiers`]).
    pub(crate) fn tiers(&self) -> Tiers {
        let priced = |bw: f64| (1.0 / bw, self.latency);
        // Machine and rack numbers by counting, not dividing: a new machine
        // every `devices_per_machine` devices, a new rack every
        // `machines_per_rack` machines (the last rack may be partial).
        let mut place = Vec::with_capacity(self.num_devices());
        let (mut machine, mut rack, mut in_machine, mut in_rack) = (0u32, 0u32, 0, 0);
        for _ in 0..self.num_devices() {
            place.push([machine, rack]);
            in_machine += 1;
            if in_machine == self.devices_per_machine {
                (machine, in_machine, in_rack) = (machine + 1, 0, in_rack + 1);
                if in_rack == self.machines_per_rack {
                    (rack, in_rack) = (rack + 1, 0);
                }
            }
        }
        Tiers {
            place,
            params: [
                priced(self.intra_bw),
                priced(self.inter_bw),
                priced(self.spine_bw),
            ],
        }
    }
}

/// The tier a directed link runs on. A topology has at most these four
/// distinct links, so work that depends only on a pair's link can be done
/// once per tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkTier {
    /// A device to itself: free.
    Local,
    /// Two devices of one machine.
    Machine,
    /// Two machines of one rack.
    Rack,
    /// Two racks, across the spine.
    Spine,
}

impl LinkTier {
    /// Position in declaration order: `Local` is 0, `Spine` 3.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A [`Topology`]'s links as the cost model reads them: each tier's
/// `(theta, gamma)` — `1 / bw` and the latency — computed once, and each
/// device's `[machine, rack]`, which find a pair's tier with two compares.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Tiers {
    /// `[machine, rack]` of every device.
    place: Vec<[u32; 2]>,
    /// Same machine, same rack, across the spine.
    params: [(f64, f64); 3],
}

impl Tiers {
    /// Total device count.
    pub(crate) fn num_devices(&self) -> usize {
        self.place.len()
    }

    /// The tier of the directed link `src -> dst`.
    ///
    /// # Panics
    ///
    /// Panics if a rank is out of range.
    pub(crate) fn tier(&self, src: usize, dst: usize) -> LinkTier {
        if src == dst {
            return LinkTier::Local;
        }
        let ([src_machine, src_rack], [dst_machine, dst_rack]) = (self.place[src], self.place[dst]);
        if src_machine == dst_machine {
            LinkTier::Machine
        } else if src_rack == dst_rack {
            LinkTier::Rack
        } else {
            LinkTier::Spine
        }
    }

    /// The `(theta, gamma)` of links on `tier`; `(0.0, 0.0)` for
    /// [`LinkTier::Local`].
    pub(crate) fn params(&self, tier: LinkTier) -> (f64, f64) {
        match tier {
            LinkTier::Local => (0.0, 0.0),
            LinkTier::Machine => self.params[0],
            LinkTier::Rack => self.params[1],
            LinkTier::Spine => self.params[2],
        }
    }

    /// The `(theta, gamma)` of the directed link `src -> dst`: its tier's.
    ///
    /// # Panics
    ///
    /// Panics if a rank is out of range.
    pub(crate) fn link_params(&self, src: usize, dst: usize) -> (f64, f64) {
        self.params(self.tier(src, dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pair's tier as `Tiers` found it before it kept each device's
    /// machine and rack: by dividing ranks by the devices per machine and
    /// per rack (a product past `usize::MAX` meaning one rack).
    fn divided_link_params(topo: &Topology, src: usize, dst: usize) -> (f64, f64) {
        let tiers = topo.tiers();
        if src == dst {
            return (0.0, 0.0);
        }
        let per_rack = topo
            .devices_per_machine
            .saturating_mul(topo.machines_per_rack);
        let tier = if src / topo.devices_per_machine == dst / topo.devices_per_machine {
            0
        } else if src / per_rack == dst / per_rack {
            1
        } else {
            2
        };
        tiers.params[tier]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn counted_places_price_every_link_as_division_did(
            machines in 1usize..24,
            devices in proptest::prop_oneof![proptest::strategy::Just(1usize), 1usize..9],
            rack in proptest::prop_oneof![
                proptest::strategy::Just(1usize),
                1usize..12,
                proptest::strategy::Just(usize::MAX),
            ],
            spine in 1e3f64..1e12,
        ) {
            // Rack sizes that do not divide the machine count leave a
            // partial last rack; one device per machine and one machine per
            // rack make two tiers coincide.
            let topo = Topology::new(machines, devices).machines_per_rack(rack).spine_bw(spine);
            let tiers = topo.tiers();
            let n = topo.num_devices();
            proptest::prop_assert_eq!(tiers.num_devices(), n);
            for src in 0..n {
                proptest::prop_assert_eq!(tiers.place[src][1] as usize, topo.rack_of(src));
                for dst in 0..n {
                    let (got, want) = (tiers.link_params(src, dst), divided_link_params(&topo, src, dst));
                    proptest::prop_assert_eq!(
                        (got.0.to_bits(), got.1.to_bits()),
                        (want.0.to_bits(), want.1.to_bits()),
                        "{} -> {}", src, dst
                    );
                }
            }
        }
    }

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
