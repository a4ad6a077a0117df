//! The LAAR benchmark: six named workloads timed from outside the engines.
//!
//! * [`api`] — the adapter, the only module that names `laar_*` items;
//! * [`workloads`] — what each workload sets up, runs, checks and reports;
//! * [`trace`] — spans around every call into a layer;
//! * [`report`] — the metric tables, the result line, and `compare`;
//! * [`stats`], [`process`] — order statistics, digest, procfs readings.
//!
//! `README.md` next to this package has the tables and the commands.

#![warn(missing_docs)]

pub mod api;
pub mod process;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
