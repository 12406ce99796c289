//! A SQL front end for the engine.
//!
//! CasJobs "lets users submit long-running SQL queries" (§4); this module
//! makes that literal. The dialect covers what the paper's workloads write:
//! `SELECT [TOP n] expr-list FROM t [alias] [CROSS|INNER] JOIN ... ON ...`
//! with `WHERE`, `BETWEEN`, `IS [NOT] NULL`, arithmetic, `POWER/LOG/ABS/
//! FLOOR/SQRT`, single-column `GROUP BY` with `COUNT/MIN/MAX/SUM/AVG`,
//! `ORDER BY ... [DESC]`, `LIMIT`; plus `INSERT`, `CREATE TABLE` (PRIMARY
//! KEY becomes the clustered index), `DELETE`, `TRUNCATE`, and `DROP`.

pub mod ast;
pub mod engine;
pub mod lexer;
pub mod parser;
mod physical;
pub mod plan;
mod reference;

#[cfg(test)]
mod tests;

pub use engine::{execute, execute_with, SqlOutput};
pub use parser::parse;
pub use physical::{zonejoin_halo_rows, JoinProfile, OpProfile, PlanProfile, QueryProfile};
pub use plan::{column_interval, zone_band_halo, PlanOptions};
