//! The Lancet reproduction's benchmark: four workloads that exercise the
//! training executor, the paper-scale compiler, the serving runtime and
//! the decode runtime; end-to-end metrics from an untraced run and a
//! per-layer breakdown from a traced one. See `README.md` beside this
//! crate for the workloads, metrics and how to run them.

pub mod checks;
pub mod json;
pub mod metrics;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Formats any displayable error as a `String`.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}
