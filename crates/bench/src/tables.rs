//! The paper's tables and figures, one module each. Every module's `run`
//! prints the table to stdout, reading its training runs through the shared
//! [`Runs`] cache, and returns the JSON files it fills under `results/`;
//! only the `reproduce` binary writes them.

use crate::Runs;
use serde_json::Value;

pub mod ablation_design;
pub mod fig10_breakdown;
pub mod fig11_sensitivity;
pub mod fig2_pair_volume;
pub mod fig3_marginal_compute;
pub mod fig9_convergence;
pub mod fig_topology_sensitivity;
pub mod table1_comm_cost;
pub mod table2_overlap_feasibility;
pub mod table3_datasets;
pub mod table4_main;
pub mod table5_wallclock;
pub mod table6_uniform_vs_adaptive;
pub mod table7_scalability;

/// The JSON documents a table fills, each by its file name under
/// `results/` (without `.json`).
pub type Files = Vec<(&'static str, Value)>;

/// A table's name and the function that prints it and returns its files.
pub type Table = (&'static str, fn(&mut Runs) -> Files);

/// Every table by name, in the order the binary runs them.
pub const ALL: &[Table] = &[
    ("table1_comm_cost", table1_comm_cost::run),
    ("fig2_pair_volume", fig2_pair_volume::run),
    (
        "table2_overlap_feasibility",
        table2_overlap_feasibility::run,
    ),
    ("fig3_marginal_compute", fig3_marginal_compute::run),
    ("table3_datasets", table3_datasets::run),
    ("table4_main", table4_main::run),
    ("table5_wallclock", table5_wallclock::run),
    (
        "table6_uniform_vs_adaptive",
        table6_uniform_vs_adaptive::run,
    ),
    ("table7_scalability", table7_scalability::run),
    ("fig9_convergence", fig9_convergence::run),
    ("fig10_breakdown", fig10_breakdown::run),
    ("fig11_sensitivity", fig11_sensitivity::run),
    ("ablation_design", ablation_design::run),
    ("fig_topology_sensitivity", fig_topology_sensitivity::run),
];
