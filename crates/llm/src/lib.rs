#![warn(missing_docs)]

//! # snails-llm
//!
//! The LLM layer of the SNAILS benchmark. The paper calls hosted models
//! (GPT-3.5, GPT-4o, Gemini 1.5, Phind-CodeLlama, CodeS) through vendor
//! APIs; this crate substitutes a *simulated NL-to-SQL model*: a noisy schema
//! linker plus SQL synthesizer whose per-model parameters are calibrated
//! against the paper's aggregate results (Figure 30 grid, Figures 8–11).
//!
//! The simulation preserves exactly the mechanism under study: the model
//! links natural-language mention terms to the identifiers *as displayed in
//! the prompt* (i.e. at the active schema-variant naturalness level), so
//! lower naturalness mechanically degrades schema linking — abbreviated and
//! opaque tokens decode with lower probability, mis-links select plausible
//! distractors, and typo-like hallucinations mutate identifiers, all of which
//! the paper reports observing. Everything downstream of the simulated
//! API call — prompt construction, query denaturalization, execution, result
//! matching, linking metrics, statistics — is computed for real by the other
//! crates.
//!
//! Modules:
//! * [`schema_view`] — the displayed schema at a naturalness variant, with
//!   the link index the linker reads, plus zero-shot prompt rendering
//!   (appendix D.1);
//! * [`model`] — the model zoo and per-model parameter sets;
//! * [`linking`] — token decoding and identifier-linking simulation;
//! * [`generate`] — end-to-end simulated inference;
//! * [`workflows`] — zero-shot, DIN-SQL (prompt chaining with schema
//!   subsetting), and CodeS (finetuned filter + generator) pipelines;
//! * [`middleware`] — prompt naturalization and query denaturalization
//!   (appendix D.2 / D.4 and appendix H.2);
//! * [`views`] — natural views (§6, appendix H.2): `CREATE VIEW` DDL mapping
//!   Regular identifiers onto the native schema.

pub mod faults;
pub mod generate;
pub mod linking;
pub mod middleware;
pub mod model;
pub mod resilience;
pub mod schema_view;
pub mod views;
pub mod workflows;

pub use faults::{FailureKind, FaultKind, FaultProfile};
pub use generate::{infer, GoldQuery, Inference};
pub use model::{ModelConfig, ModelKind};
pub use resilience::{run_cell, CellExecution, CellOutcome, CellPlan, CircuitBreaker, Planner};
pub use schema_view::{build_prompt, SchemaView};
pub use workflows::{run_workflow, SubsetOutcome, Workflow, WorkflowResult};

// Thread-safety contract: the benchmark scheduler shares these read-only
// across worker threads, so they must stay `Send + Sync` (no `Rc`, no
// `Cell`/`RefCell`, no raw pointers). Compile-time only — no runtime cost.
const _: () = {
    const fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<SchemaView>();
    assert_shareable::<ModelConfig>();
    assert_shareable::<ModelKind>();
    assert_shareable::<Workflow>();
    assert_shareable::<WorkflowResult>();
    assert_shareable::<Inference>();
    assert_shareable::<GoldQuery>();
    assert_shareable::<FaultProfile>();
    assert_shareable::<CellPlan>();
    assert_shareable::<snails_data::SnailsDatabase>();
    assert_shareable::<snails_sql::IdentifierMap>();
};
