//! Topology substrate for the DRAIN reproduction.
//!
//! This crate models interconnection-network topologies as collections of
//! routers (nodes) joined by *bidirectional links*, where each bidirectional
//! link is stored as a pair of opposing *unidirectional links*. All of the
//! higher layers (the drain-path algorithm, the network simulator, the
//! baselines) are built on these types.
//!
//! Key pieces (with the paper sections each module serves):
//!
//! * [`Topology`] — the graph itself, with builders for regular meshes,
//!   tori, rings, arbitrary edge lists, random connected graphs and
//!   multi-chiplet compositions (the §VI discussion topologies).
//! * [`faults`] — connectivity-preserving random link-failure injection,
//!   reproducing the §V-A methodology of evaluating irregular topologies
//!   derived from an 8×8/4×4 mesh by removing links.
//! * [`depgraph`] — the channel-dependency graph (nodes = unidirectional
//!   links, edges = turns, including U-turns) that the §III-B offline
//!   drain-path search runs over.
//! * [`updown`] — up*/down* spanning-tree labeling and legal-turn routing
//!   tables for the §II baselines (Fig 5, escape VCs on irregular
//!   topologies).
//! * [`distance`] — all-pairs BFS distances, diameter and next-hop sets for
//!   minimal adaptive routing.
//!
//! # Examples
//!
//! ```
//! use drain_topology::{Topology, faults::FaultInjector};
//!
//! let mesh = Topology::mesh(8, 8);
//! assert_eq!(mesh.num_nodes(), 64);
//! assert!(mesh.is_connected());
//!
//! // Remove 8 random bidirectional links while preserving connectivity.
//! let faulty = FaultInjector::new(0xD12A).remove_links(&mesh, 8).unwrap();
//! assert!(faulty.is_connected());
//! assert_eq!(faulty.num_bidirectional_links(), mesh.num_bidirectional_links() - 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chiplet;
mod csr;
pub mod depgraph;
pub mod distance;
pub mod faults;
mod graph;
#[cfg(test)]
mod oracle;
pub mod updown;

pub use graph::{IntoSharedTopology, LinkId, NodeId, Topology, TopologyError, UniLink};
