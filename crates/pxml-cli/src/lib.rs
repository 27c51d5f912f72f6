//! # pxml-cli — shared machinery behind the `pxml` binary
//!
//! The binary (`src/main.rs`) stays a thin argument parser; everything a
//! long-running process or a test needs programmatically lives here:
//!
//! * [`protocol`] — the length-prefixed wire protocol spoken by
//!   `pxml serve` and `pxml request`: framing, request grammar, and the
//!   status-byte taxonomy mirroring the CLI exit codes.
//! * [`serve`] — the query daemon itself: an instance registry answering
//!   queries from each instance's warm [`pxml_query::MarginalCache`],
//!   per-request [`pxml_query::BudgetSpec`]s as admission control,
//!   governed mutations with dirty-set invalidation, hot reload via
//!   atomic `Arc` swap, and a Prometheus `/metrics` exposition.
//! * [`load`] / [`save`] / [`translate_query`] — the loader/saver pair
//!   shared by every verb and the QL→engine query translation shared by
//!   `batch` and the daemon.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod protocol;
pub mod serve;

use std::path::Path;

use pxml_core::ProbInstance;

/// Loads an instance by extension: `.pxmlb` binary (CRC-checked),
/// anything else text.
pub fn load(path: &Path) -> Result<ProbInstance, String> {
    let is_binary = path.extension().is_some_and(|e| e == "pxmlb");
    if is_binary {
        pxml_storage::read_binary_file(path).map_err(|e| e.to_string())
    } else {
        pxml_storage::read_text_file(path).map_err(|e| e.to_string())
    }
}

/// [`load`] that also returns the CRC-32 of the exact bytes parsed —
/// the value a WAL segment header binds to. One read, one buffer: the
/// instance the engine serves and the CRC the journal binds to can
/// never describe two different on-disk states, which a `load` followed
/// by a second read-and-hash of the same path could (the file may
/// change between the reads, and recovered records would then replay
/// against a different base than the one they were journalled on).
pub fn load_with_crc(path: &Path) -> Result<(ProbInstance, u32), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let crc = pxml_storage::crc32(&bytes);
    let is_binary = path.extension().is_some_and(|e| e == "pxmlb");
    let pi = if is_binary {
        pxml_storage::from_binary(&bytes).map_err(|e| format!("{}: {e}", path.display()))?
    } else {
        let text = std::str::from_utf8(&bytes)
            .map_err(|e| format!("{}: not UTF-8: {e}", path.display()))?;
        pxml_storage::from_text(text).map_err(|e| format!("{}: {e}", path.display()))?
    };
    Ok((pi, crc))
}

/// Saves an instance by extension: `.pxmlb` binary (atomic, CRC
/// footer), anything else text.
pub fn save(pi: &ProbInstance, path: &Path) -> Result<(), String> {
    let is_binary = path.extension().is_some_and(|e| e == "pxmlb");
    if is_binary {
        pxml_storage::write_binary_file(pi, path).map(|_| ()).map_err(|e| e.to_string())
    } else {
        pxml_storage::write_text_file(pi, path).map(|_| ()).map_err(|e| e.to_string())
    }
}

/// Parses one QL line and resolves it onto the engine's query type.
/// Only the probability queries the batch engine supports are accepted
/// (`POINT` / `EXISTS` / `CHAIN`); everything else is rejected with a
/// pointer at the single-query mode.
///
/// Names are resolved straight from the parser's slices of `line`, so
/// no name is copied on the way.
pub fn translate_query(pi: &ProbInstance, line: &str) -> Result<pxml_query::Query, String> {
    use pxml_ql::ast::{PathText, Query as Ast};
    let resolve_object = |name: &str| {
        pi.catalog().find_object(name).ok_or_else(|| format!("unknown name {name:?}"))
    };
    let resolve_path = |path: PathText<&str>| -> Result<pxml_algebra::PathExpr, String> {
        let root = resolve_object(path.root)?;
        let labels = path
            .labels
            .iter()
            .map(|l| pi.catalog().find_label(l).ok_or_else(|| format!("unknown name {l:?}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(pxml_algebra::PathExpr::new(root, labels))
    };
    match pxml_ql::parse_borrowed(line).map_err(|e| e.to_string())? {
        Ast::Point { object, path } => Ok(pxml_query::Query::Point {
            path: resolve_path(path)?,
            object: resolve_object(object)?,
        }),
        Ast::Exists { path } => Ok(pxml_query::Query::Exists { path: resolve_path(path)? }),
        Ast::Chain { objects } => Ok(pxml_query::Query::Chain {
            objects: objects.into_iter().map(resolve_object).collect::<Result<Vec<_>, _>>()?,
        }),
        other => {
            let keyword = match other {
                Ast::Project { .. } => "PROJECT",
                Ast::SelectObject { .. } | Ast::SelectValue { .. } => "SELECT",
                Ast::Prob { .. } => "PROB",
                Ast::Worlds { .. } => "WORLDS",
                Ast::Render => "RENDER",
                _ => "this query",
            };
            Err(format!(
                "batch mode answers POINT/EXISTS/CHAIN only; run {keyword} through the single-query mode"
            ))
        }
    }
}
