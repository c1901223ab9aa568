//! # eth-transport — rank-based message passing for the harness
//!
//! The original ETH runs on MPI within a job and "communicating via the
//! socket layer" between the simulation- and visualization-proxy jobs
//! (Section III-C). This crate is that substrate:
//!
//! * [`comm`] — the [`comm::Communicator`] trait: rank-addressed, tagged,
//!   ordered point-to-point messaging with traffic counters,
//! * [`local`] — in-process backend (threads + crossbeam channels): the
//!   intra-job MPI role, used by tight/intercore coupling and by tests,
//! * [`socket`] — TCP loopback backend with the paper's layout-file
//!   bootstrap: every simulation-proxy rank publishes `ip:port` to a
//!   globally visible layout file, opens its port and waits; visualization
//!   ranks poll the file and connect (Section III-C),
//! * [`layout`] — the layout file itself,
//! * [`collectives`] — barrier / broadcast / gather / reduce built on
//!   point-to-point (binomial trees), used by compositing and the harness,
//! * [`runner`] — the `mpirun` equivalent: spawn N ranks as threads and
//!   join them, with per-run budgets and heartbeat supervision,
//! * [`fault`] — deterministic, serializable fault plans (drop / corrupt /
//!   delay / disconnect as pure functions of a seed and the message key),
//! * [`chaos`] — wrappers that enact a fault plan around a real
//!   communicator or stream channel.

pub mod chaos;
pub mod collectives;
pub mod comm;
pub mod fault;
pub mod layout;
pub mod local;
pub mod message;
pub mod runner;
pub mod socket;

pub use chaos::{ChaosChannel, ChaosComm};
pub use comm::{Communicator, TransportError};
pub use fault::{Backoff, BackoffShape, FaultPlan, KillSpec};
pub use local::LocalFabric;
pub use runner::{
    launch, run_ranks, DeathNotice, HeartbeatBoard, HeartbeatPolicy, Liveness, MigrationBook,
    RankBody, RankFailure,
};
