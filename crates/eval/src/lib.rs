#![warn(missing_docs)]

//! # snails-eval
//!
//! The SNAILS performance-evaluation layer (§5, appendix E):
//!
//! * [`execution`] — execution accuracy via result set-superset matching
//!   (appendix E.2): predicted columns must be a superset of gold columns,
//!   tuple order is ignored unless the question demands one;
//! * [`audit`] — the automated counterpart of the paper's manual-validation
//!   stage (appendix E.3), catching false positives that pass set matching;
//! * [`linking`] — query-level recall/precision/F1 (Equations 1–3) and
//!   identifier-level recall (Equation 4);
//! * [`stats`] — Kendall τ-b with tie-corrected normal-approximation
//!   p-values (the correlation machinery of tables 31a–47b) plus mean /
//!   confidence-interval helpers for the Figure 9 error bars;
//! * [`report`] — plain-text table formatting shared by the experiment
//!   binaries.

pub mod audit;
pub mod execution;
pub mod linking;
pub mod report;
pub mod stats;

pub use audit::{audit_semantics, audit_statements};
pub use execution::{match_result_sets, ExecutionOutcome};
pub use linking::{identifier_recall, query_linking, IdentifierTally, LinkingScores};
pub use stats::{kendall_tau_b, mean_confidence_interval, KendallResult};
