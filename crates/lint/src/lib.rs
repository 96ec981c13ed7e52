//! dbcmp-lint: a self-contained static-analysis pass enforcing the
//! repo's determinism and robustness invariants (rules D1, D2, D3, P1,
//! X1, X2, X3 — see [`rules::RULES`] or `cargo run -p lint -- --explain <rule>`).
//!
//! The tool is deliberately dependency-free: a handwritten lexer
//! ([`lexer`]) that correctly skips strings, raw strings, char
//! literals, and nested block comments, plus a lightweight item/scope
//! scanner ([`scan`]) that finds test scopes, function spans, and enum
//! variants by brace matching. No network, no syn, no proc macros.
#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;
pub mod scan;

use std::fs;
use std::path::{Path, PathBuf};

pub use rules::{Diagnostic, RULES};

/// Directory names never descended into, anywhere in the tree.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "fixtures", "node_modules"];

/// Walk `root` for `.rs` files, returning workspace-relative
/// `/`-separated paths in sorted (deterministic) order.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push((rel, path));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lint the workspace rooted at `root`: every per-file rule over every
/// file, then the cross-file rules. Returns all diagnostics, sorted by
/// file then line then rule.
pub fn run(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut lexed = Vec::new();
    for (rel, path) in collect_sources(root)? {
        lexed.push((rel, lexer::lex(&fs::read_to_string(path)?)));
    }
    let mut diags = Vec::new();
    for (rel, lex) in &lexed {
        diags.extend(rules::lint_file(rel, lex));
    }
    diags.extend(rules::rule_x(&lexed));
    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(diags)
}

/// The `--explain` text for a rule id or name, if known.
pub fn explain(rule: &str) -> Option<String> {
    RULES
        .iter()
        .find(|(id, name, _)| rule.eq_ignore_ascii_case(id) || rule == *name)
        .map(|(id, name, text)| format!("{id} ({name})\n\n{text}\n"))
}
