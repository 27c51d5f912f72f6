//! Static analysis of textual queries: name resolution, satisfiability
//! and domain checks over the instance and its [`ArenaInstance`]
//! lowering, with the engine's `AQ0xx` diagnostic taxonomy.
//!
//! [`analyze`] never executes anything and never fails: parse errors
//! and unresolvable names become diagnostics (`AQ004` / `AQ005`), the
//! probability queries (`POINT` / `EXISTS` / `CHAIN`) are handed to the
//! engine-level pre-flight ([`pxml_query::preflight`]) whose full
//! [`Report`] — verdict, cost bound, probability ceiling — is attached
//! to the result, and the algebra statements get the QL-only checks:
//! unsatisfiable paths (`AQ001`), out-of-domain literals (`AQ002`) and
//! dead predicate branches (`AQ003`). Callers lower the instance once
//! with [`ArenaInstance::lower_unchecked`], which is total, so hostile
//! instances get diagnostics too.

use pxml_core::{ArenaInstance, Label, LeafInfo, ObjectId, ProbInstance, Value};
use pxml_query::preflight::{self, DiagCode, Diagnostic, Report};

use crate::ast::{PathText, Query};
use crate::parser;

/// The static-analysis result for one textual query.
#[derive(Clone, Debug)]
pub struct QueryAnalysis {
    /// The analysed source text, trimmed.
    pub text: String,
    /// All findings, in detection order. Empty means clean.
    pub diagnostics: Vec<Diagnostic>,
    /// The engine pre-flight report, when the statement maps to an
    /// engine query (`POINT` / `EXISTS` / `CHAIN` with resolvable
    /// names).
    pub report: Option<Report>,
}

impl QueryAnalysis {
    /// True when no diagnostic was raised.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when some diagnostic carries `code`.
    pub fn has(&self, code: DiagCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }
}

/// Parses and statically analyses one textual query. Total: malformed
/// input yields an `AQ004` diagnostic, never an error or a panic.
pub fn analyze(pi: &ProbInstance, arena: &ArenaInstance, text: &str) -> QueryAnalysis {
    let trimmed = text.trim();
    match parser::parse(trimmed) {
        Ok(q) => analyze_query(pi, arena, &q, trimmed),
        Err(e) => QueryAnalysis {
            text: trimmed.to_string(),
            diagnostics: vec![Diagnostic {
                code: DiagCode::WillError,
                message: format!("parse error: {e}"),
            }],
            report: None,
        },
    }
}

/// Statically analyses one parsed query; `arena` is `pi` lowered.
pub fn analyze_query(
    pi: &ProbInstance,
    arena: &ArenaInstance,
    q: &Query,
    text: &str,
) -> QueryAnalysis {
    let mut diagnostics = Vec::new();
    let mut report = None;
    match q {
        Query::Point { object, path } => {
            let target = resolve_object(pi, object, &mut diagnostics);
            if let (Some(x), Some(p)) = (target, resolve_path(pi, path, &mut diagnostics)) {
                let r = preflight::analyze(arena, &pxml_query::Query::point(p, x));
                diagnostics.extend(r.diagnostics.iter().cloned());
                report = Some(r);
            }
        }
        Query::Exists { path } => {
            if let Some(p) = resolve_path(pi, path, &mut diagnostics) {
                let r = preflight::analyze(arena, &pxml_query::Query::exists(p));
                diagnostics.extend(r.diagnostics.iter().cloned());
                report = Some(r);
            }
        }
        Query::Chain { objects } => {
            let resolved: Option<Vec<ObjectId>> = objects
                .iter()
                .map(|name| resolve_object(pi, name, &mut diagnostics))
                .collect();
            if let Some(chain) = resolved {
                let r = preflight::analyze(arena, &pxml_query::Query::chain(chain));
                diagnostics.extend(r.diagnostics.iter().cloned());
                report = Some(r);
            }
        }
        Query::Project { path, .. } => {
            check_satisfiable(pi, arena, path, &mut diagnostics);
        }
        Query::SelectObject { path, object } => {
            if let Some(located) = check_satisfiable(pi, arena, path, &mut diagnostics) {
                if let Some(x) = resolve_object(pi, object, &mut diagnostics) {
                    if located.binary_search(&x).is_err() {
                        diagnostics.push(Diagnostic {
                            code: DiagCode::DeadBranch,
                            message: format!(
                                "{object:?} is never located by the path; the selection \
                                 condition can never hold"
                            ),
                        });
                    }
                }
            }
        }
        Query::SelectValue { path, object, value } => {
            if let Some(located) = check_satisfiable(pi, arena, path, &mut diagnostics) {
                let mut scope = located;
                if let Some(name) = object {
                    match resolve_object(pi, name, &mut diagnostics) {
                        Some(x) if scope.binary_search(&x).is_err() => {
                            diagnostics.push(Diagnostic {
                                code: DiagCode::DeadBranch,
                                message: format!(
                                    "{name:?} is never located by the path; the `@` anchor \
                                     selects nothing"
                                ),
                            });
                            scope = Vec::new();
                        }
                        Some(x) => scope = vec![x],
                        None => scope = Vec::new(),
                    }
                }
                // Out-of-domain literal: no leaf in scope can take the
                // value with positive probability. Open domains (no
                // VPF, no fixed value) conservatively support anything.
                if !scope.is_empty() {
                    let supported = scope.iter().any(|&o| {
                        pi.weak()
                            .node(o)
                            .and_then(|n| n.leaf())
                            .is_none_or(|leaf| supports(pi, o, leaf, value))
                    });
                    if !supported {
                        diagnostics.push(Diagnostic {
                            code: DiagCode::OutOfDomainValue,
                            message: format!(
                                "literal {value:?} lies outside every located leaf's value \
                                 domain; the selection condition can never hold"
                            ),
                        });
                    }
                }
            }
        }
        Query::Prob { object } => {
            resolve_object(pi, object, &mut diagnostics);
        }
        Query::Worlds { .. } | Query::Render => {}
    }
    QueryAnalysis { text: text.to_string(), diagnostics, report }
}

/// Whether leaf `o` can take `v` with positive probability: `v` is in
/// its VPF's support, or equals its fixed value when it has no VPF. A
/// leaf with neither has an open domain, which supports everything.
fn supports(pi: &ProbInstance, o: ObjectId, leaf: &LeafInfo, v: &Value) -> bool {
    match pi.vpf(o) {
        Some(vpf) => vpf.iter().any(|(w, p)| p > 0.0 && w == v),
        None => leaf.val.as_ref().is_none_or(|w| w == v),
    }
}

/// Resolves an object name, recording `AQ005` on failure.
fn resolve_object(
    pi: &ProbInstance,
    name: &str,
    diagnostics: &mut Vec<Diagnostic>,
) -> Option<ObjectId> {
    let found = pi.catalog().find_object(name);
    if found.is_none() {
        diagnostics.push(Diagnostic {
            code: DiagCode::UnknownName,
            message: format!("unknown object {name:?}"),
        });
    }
    found
}

/// Resolves a textual path, recording `AQ005` per unknown segment.
/// Returns `None` when any segment fails.
fn resolve_path(
    pi: &ProbInstance,
    path: &PathText,
    diagnostics: &mut Vec<Diagnostic>,
) -> Option<pxml_algebra::PathExpr> {
    let root = resolve_object(pi, &path.root, diagnostics)?;
    let labels: Option<Vec<Label>> = path
        .labels
        .iter()
        .map(|l| {
            let found = pi.catalog().find_label(l);
            if found.is_none() {
                diagnostics.push(Diagnostic {
                    code: DiagCode::UnknownName,
                    message: format!("unknown label {l:?}"),
                });
            }
            found
        })
        .collect();
    Some(pxml_algebra::PathExpr::new(root, labels?))
}

/// Resolves `path` and checks it locates at least one object,
/// recording `AQ001` otherwise. Returns the located set (sorted) when
/// the path resolves.
fn check_satisfiable(
    pi: &ProbInstance,
    arena: &ArenaInstance,
    path: &PathText,
    diagnostics: &mut Vec<Diagnostic>,
) -> Option<Vec<ObjectId>> {
    let p = resolve_path(pi, path, diagnostics)?;
    let layers = arena.locate(p.root, &p.labels);
    let located: Vec<ObjectId> =
        layers[p.labels.len()].iter().map(|&x| ObjectId::from_raw(x)).collect();
    if located.is_empty() {
        diagnostics.push(Diagnostic {
            code: DiagCode::ProvablyZero,
            message: format!("path {path} locates no object in any compatible world"),
        });
    }
    Some(located)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_core::fixtures::fig2_instance;

    fn setup() -> (ProbInstance, ArenaInstance) {
        let pi = fig2_instance();
        let a = ArenaInstance::lower_unchecked(&pi);
        (pi, a)
    }

    #[test]
    fn clean_point_query_gets_a_report() {
        let (pi, s) = setup();
        let a = analyze(&pi, &s, "POINT T2 IN R.book.title");
        assert!(a.is_clean(), "{:?}", a.diagnostics);
        let r = a.report.expect("engine query analysed");
        assert!(r.cost.exact_steps);
    }

    #[test]
    fn unknown_names_are_aq005() {
        let (pi, s) = setup();
        let a = analyze(&pi, &s, "POINT NOPE IN R.book");
        assert!(a.has(DiagCode::UnknownName));
        assert!(a.report.is_none());
        let b = analyze(&pi, &s, "EXISTS R.nosuchlabel");
        assert!(b.has(DiagCode::UnknownName));
    }

    #[test]
    fn parse_errors_are_aq004() {
        let (pi, s) = setup();
        let a = analyze(&pi, &s, "FROBNICATE R");
        assert!(a.has(DiagCode::WillError));
    }

    #[test]
    fn out_of_domain_literal_is_aq002() {
        let (pi, s) = setup();
        let a = analyze(
            &pi,
            &s,
            "SELECT VALUE R.book.title = \"no such title anywhere\"",
        );
        assert!(a.has(DiagCode::OutOfDomainValue), "{:?}", a.diagnostics);
        // An in-domain literal stays clean.
        let title = pi
            .vpf(pi.oid("T1").unwrap())
            .and_then(|v| v.iter().next().map(|(val, _)| val.clone()))
            .unwrap_or(Value::from("VQDB"));
        let q = crate::ast::Query::SelectValue {
            path: crate::ast::PathText {
                root: "R".into(),
                labels: vec!["book".into(), "title".into()],
            },
            object: None,
            value: title,
        };
        let b = analyze_query(&pi, &s, &q, "SELECT VALUE ...");
        assert!(!b.has(DiagCode::OutOfDomainValue), "{:?}", b.diagnostics);
    }

    #[test]
    fn dead_anchor_is_aq003() {
        let (pi, s) = setup();
        // B1 is a book, never a title: the @ anchor is dead.
        let a = analyze(&pi, &s, "SELECT VALUE R.book.title @ B1 = \"VQDB\"");
        assert!(a.has(DiagCode::DeadBranch), "{:?}", a.diagnostics);
    }
}
