//! The cdim benchmark as a library: workloads, input preparation, the
//! three measured pipelines and the report. The `perfbench` binary is the
//! command-line front end.

pub mod catalogue;
pub mod live;
pub mod measure;
pub mod offline;
pub mod plan;
pub mod prepare;
pub mod requests;
pub mod serve;
pub mod spans;
pub mod stats;
