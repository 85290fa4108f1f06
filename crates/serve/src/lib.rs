#![warn(missing_docs)]

//! # snails-serve — the SNAILS serving layer
//!
//! A dependency-free async serving stack for the SNAILS NL-to-SQL engine:
//!
//! * [`protocol`] — a length-prefixed framed wire protocol (requests:
//!   ping / SQL / NL-to-SQL ask / stats / shutdown) with a bounds-checked
//!   incremental decoder that answers typed errors, never panics;
//! * [`tenant`] — per-tenant namespaces, each owning its database set, its
//!   own bounded [`snails_engine::PlanCache`], and its own
//!   [`snails_engine::ExecLimits`] budget — isolation by construction;
//! * [`server`] — bounded-queue admission control with typed load shedding,
//!   request batching, worker fan-out (or a deterministic `--serial`
//!   reactor on a simulated clock), graceful drain, and live telemetry through
//!   `snails-obs`;
//! * [`transport`] — in-process tickets and framed unix sockets over the
//!   same server;
//! * [`load`] — a seeded load generator with a wall-clock concurrent driver
//!   (thousands of closed-loop clients) and deterministic serial/lockstep
//!   drivers whose response transcripts are byte-identical across runs,
//!   thread counts, and transports, plus the gated suite `snails load`
//!   runs on them.
//!
//! The determinism contract, tenancy model, and protocol grammar are
//! documented in `DESIGN.md` §11.

pub mod load;
pub mod protocol;
pub mod server;
pub mod tenant;
pub mod transport;

pub use load::{
    classify, drive_unix, run_concurrent, run_serial, run_suite, run_unix_lockstep, DbWorkload,
    LoadPlan, LoadReport, Outcome, Percentiles, SerialOutcome, SuiteOutcome, TenantWorkload,
};
pub use protocol::{
    FrameReader, Message, ProtocolError, Request, Response, ServeError, TenantStats, WireValue,
};
pub use server::{Admission, ServeConfig, Server};
pub use tenant::{Tenant, TenantSource, TenantSpec, TENANT_PLAN_CAPACITY};
pub use transport::{InProcClient, Ticket, UnixClient, UnixServer};

// The facade crate (and its `snails` binary) reaches obs report types
// through here; it deliberately has no direct snails-obs dependency.
pub use snails_obs::{Metric, ObsCtx, Report, Section};
