//! perfsuite — the repository's benchmark: four seed-generated workloads,
//! four end-to-end metrics every workload reports (with regression
//! bounds), and a traced pass that attributes cost to layers. See
//! README.md; `table.rs` is the one registry everything is printed from.

pub mod aa;
pub mod classes;
pub mod cli;
pub mod harness;
pub mod inputs;
pub mod probes;
pub mod session;
pub mod stats;
pub mod table;
pub mod trace;
pub mod workloads;
