//! `damocles_load`: an open-loop TCP benchmark for the damocles project
//! server — workloads, the load generator, the server processes under
//! test, the in-process replay that checks and traces them, and the
//! result line. See `README.md`.

pub mod design;
pub mod net;
pub mod procs;
pub mod replay;
pub mod report;
pub mod rng;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
