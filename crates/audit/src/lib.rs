//! `byc-audit`: the workspace static-analysis engine.
//!
//! The workspace has invariants that `rustc` and `clippy` cannot express
//! precisely enough — *library* code must not panic while test code may,
//! accounting paths must be deterministic, `byc-core` must not move byte
//! counts through raw `as` casts, and every shipped policy type must
//! plug into the [`CachePolicy`] hierarchy. This crate enforces them
//! over a real token tree and item parse of every source file:
//!
//! ```text
//! cargo run -p byc-audit -- lint                 # text, local default
//! cargo run -p byc-audit -- lint --format sarif  # SARIF 2.1.0, for CI
//! ```
//!
//! exits non-zero when any rule fires outside the checked-in
//! `audit.toml` allowlist (exact per-rule counts — fewer findings than
//! allowed is also an error, so paid-off debt shrinks the allowlist).
//!
//! The stack, bottom to top:
//!
//! * [`ast`] — a dependency-free lexer, token-tree builder, and item
//!   parser (the auditor must build offline, before anything else, so
//!   it cannot use `syn`). String/comment contents are dropped during
//!   lexing and `#[cfg(test)]` extents are item-structural, which kills
//!   the regex-era false-positive classes outright.
//! * [`callgraph`] — an intra-workspace call graph with a deliberate
//!   over-approximation for method calls (dyn dispatch), used for
//!   reachability from the replay entry points.
//! * [`passes`] — the four analysis passes: direct style rules,
//!   panic-reachability, determinism dataflow, concurrency readiness.
//! * [`sarif`] — SARIF 2.1.0 emission over `byc_types::json`.
//!
//! The runtime half of the audit story — [`CacheState::check_invariants`]
//! and `PolicyAuditor` — lives in `byc-core`, so the decision checks can
//! run inside replays without a dependency cycle.
//!
//! [`CachePolicy`]: ../byc_core/policy/trait.CachePolicy.html
//! [`CacheState::check_invariants`]: ../byc_core/cache/struct.CacheState.html

#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod config;
pub mod passes;
pub mod report;
pub mod sarif;
pub mod source;

use std::path::Path;

/// Everything one lint run produces.
pub struct LintOutcome {
    /// Findings surviving the allowlist, plus allowlist hygiene
    /// problems. Empty means the tree is clean.
    pub findings: Vec<report::Finding>,
    /// Headline numbers for the summary line.
    pub summary: passes::Summary,
}

/// Run the full lint pass over the workspace rooted at `root`.
///
/// # Errors
///
/// An I/O or allowlist-syntax error as a human-readable message, or a
/// replay entry point that matches no function in the workspace.
pub fn lint_workspace(root: &Path, allowlist: &Path) -> Result<LintOutcome, String> {
    let config = config::Allowlist::load(allowlist)?;
    let files = source::scan_workspace(root)?;
    let analysis = passes::analyze(files);
    if !analysis.missing_entries.is_empty() {
        return Err(format!(
            "replay entry point(s) {} match no function in the workspace; \
             update REPLAY_ENTRY_POINTS (crates/audit/src/callgraph/mod.rs) \
             to the renamed replay mouths",
            analysis.missing_entries.join(", ")
        ));
    }
    Ok(LintOutcome {
        findings: report::apply_allowlist(analysis.findings, &config),
        summary: analysis.summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A throwaway workspace holding one federation source file.
    fn workspace(tag: &str, src: &str) -> std::path::PathBuf {
        let root = std::env::temp_dir().join(format!("byc-audit-{tag}-{}", std::process::id()));
        let dir = root.join("crates/federation/src");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("lib.rs"), src).unwrap();
        root
    }

    const MOUTHS: &str = "pub struct CompiledChunk;\n\
        impl CompiledChunk { pub fn replay(&self) {} }\n\
        pub struct ReplayEngine;\n\
        impl ReplayEngine { pub fn replay(&self) {} pub fn serve_query(&self) {} }\n";

    #[test]
    fn unmatched_entry_point_is_a_usage_error() {
        // `ReplaySession::run`/`sweep` are missing: the lint must refuse
        // rather than report a clean tree with shrunken coverage.
        let root = workspace("missing-entry", MOUTHS);
        let err = match lint_workspace(&root, &root.join("audit.toml")) {
            Ok(_) => panic!("a missing replay entry point must be an error"),
            Err(e) => e,
        };
        assert!(err.contains("ReplaySession::run"), "{err}");
        assert!(err.contains("ReplaySession::sweep"), "{err}");
        assert!(err.contains("match no function"), "{err}");

        let complete = format!(
            "{MOUTHS}pub struct ReplaySession;\n\
             impl ReplaySession {{ pub fn run(self) {{}} pub fn sweep(self) {{}} }}\n"
        );
        let root_ok = workspace("all-entries", &complete);
        let outcome = lint_workspace(&root_ok, &root_ok.join("audit.toml"));
        assert!(outcome.is_ok(), "{:?}", outcome.err());
        std::fs::remove_dir_all(&root).ok();
        std::fs::remove_dir_all(&root_ok).ok();
    }
}
