//! RAS core: continuously optimized region-wide server-to-reservation
//! assignment (the paper's primary contribution).
//!
//! A *reservation* is a logical cluster with guaranteed capacity expressed
//! in relative resource units (RRUs). The [`solver::AsyncSolver`] takes a
//! broker snapshot of the whole region, formulates the assignment as a
//! mixed-integer program (Section 3.5.3 of the paper), reduces it by
//! grouping symmetric servers into equivalence classes (Section 3.5.2),
//! solves it in two phases (region-wide without rack goals, then rack
//! goals for the worst reservations), and emits per-server *target*
//! bindings that the Online Mover materializes.
//!
//! Module map:
//!
//! * [`reservation`] — reservation specs, spread policies, affinity;
//! * [`rru`] — relative-resource-unit tables;
//! * [`params`] — the MIP weights of Table 1 (`Ms`, `β`, `τ`, `αK`, `αF`, `θ`);
//! * [`classes`] — symmetric-server equivalence-class reduction (the
//!   one model reduction: classes, interned labels, size stats);
//! * [`model`] — the MIP build (Expressions 1–7) with constraint softening;
//! * [`assign`] — concretization of class counts into per-server targets;
//! * [`phases`] — the two phases, both run through one phase pipeline
//!   (classes → model → solve → concretize → stats);
//! * [`session`] — the warm-start state one round carries to the next
//!   (model skeleton, root basis, seed targets) and its report;
//! * [`shard`] — POP-style shard plans, capacity splits, and the
//!   merge/reconcile pass of a sharded round;
//! * [`solver`] — the Async Solver, the one stateful solve type: it owns
//!   the shard plan, one warm cache per shard and the failure recovery,
//!   and writes targets to the broker;
//! * [`baseline`] — Twine's previous greedy assignment (evaluation baseline);
//! * [`buffers`] — failure-buffer sizing and accounting;
//! * [`emergency`] — the out-of-band emergency allocation path;
//! * [`stats`] — per-phase timing/size breakdowns (Figures 8, 10, 11).

pub mod assign;
pub mod baseline;
pub mod buffers;
pub mod classes;
pub mod emergency;
pub mod error;
pub mod explain;
pub mod heuristic;
pub mod model;
pub mod params;
pub mod phases;
pub mod reservation;
pub mod rru;
pub mod session;
pub mod shard;
pub mod solver;
pub mod stats;

pub use classes::{build_reduction, Reduction, ReductionStats};
pub use error::CoreError;
pub use params::SolverParams;
pub use ras_milp::cast;
pub use ras_milp::{AuditMode, AuditReport};
pub use reservation::{DcAffinity, ReservationKind, ReservationSpec, SpreadPolicy};
pub use rru::RruTable;
pub use session::WarmReport;
pub use shard::{
    evaluate_targets, sharded_tolerance, PlanScore, ReconcileReport, ShardPlan, ShardReport,
    ShardedReport,
};
pub use solver::{AsyncSolver, SolveOutput};
