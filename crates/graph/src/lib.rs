#![warn(missing_docs)]
//! Directed social-graph substrate for the `cdim` workspace.
//!
//! The paper's input is an unweighted directed graph G = (V, E) of social
//! ties. This crate provides:
//!
//! * [`DirectedGraph`] — a compressed-sparse-row digraph storing both
//!   adjacency directions (out-neighbors for forward propagation,
//!   in-neighbors for credit assignment / in-degree probability models);
//! * [`GraphBuilder`] — edge-list ingestion with de-duplication;
//! * [`traversal`] — BFS reachability (the live-edge possible-world spread);
//! * [`pagerank`] — the PageRank baseline seed selector of Fig 6;
//! * [`stats`] — the degree statistics reported in Table 1.

pub mod builder;
pub mod csr;
pub mod pagerank;
pub mod stats;
pub mod traversal;

pub use builder::GraphBuilder;
pub use csr::{DirectedGraph, NodeId};
