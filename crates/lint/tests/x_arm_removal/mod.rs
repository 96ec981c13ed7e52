//! Arm-removal harness for the cross-file exhaustiveness rules, driven
//! by the same [`lint::rules::X_RULES`] table the linter runs: copy a
//! rule's live enum + surface files into a scratch tree, knock a single
//! variant out of one surface function, and assert the rule fires for
//! exactly that variant — for every function surface and every variant
//! the enum has today and any added later (the list is discovered from
//! the enum file, not hardcoded). Whole-file surfaces have no function
//! span to edit and are covered by the fixture trees instead.

use std::fs;
use std::path::{Path, PathBuf};

use lint::lexer::{lex, Tok};
use lint::rules::{XRule, X_RULES};
use lint::scan;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

fn rule(id: &str) -> &'static XRule {
    X_RULES
        .iter()
        .find(|r| r.id == id)
        .expect("rule id is in the X_RULES table")
}

/// Replace whole-identifier occurrences of `ident` with `Removed`.
fn strip_ident(line: &str, ident: &str) -> String {
    let chars: Vec<char> = line.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        if chars[i].is_alphanumeric() || chars[i] == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let word: String = chars[start..i].iter().collect();
            if word == ident {
                out.push_str("Removed");
            } else {
                out.push_str(&word);
            }
        } else {
            out.push(chars[i]);
            i += 1;
        }
    }
    out
}

/// Rewrite `src` so `func` no longer mentions `variant`, leaving the
/// rest of the file untouched.
fn remove_arm(src: &str, func: &str, variant: &str) -> String {
    let lexed = lex(src);
    let (s, e) = scan::fn_span(&lexed.tokens, func).expect("surface function exists");
    let first = lexed.tokens[s].line;
    let last = lexed.tokens[e - 1].line;
    src.lines()
        .enumerate()
        .map(|(i, line)| {
            let ln = (i + 1) as u32;
            if ln >= first && ln <= last {
                strip_ident(line, variant)
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Copy the rule's enum file and every surface file into `root`, with
/// `file_override` written in place of the live file it names.
fn write_tree(rule: &XRule, root: &Path, file_override: Option<(&str, &str)>) {
    let ws = workspace_root();
    let surface_files = rule.surfaces.iter().flat_map(|s| s.files.iter().copied());
    for rel in std::iter::once(rule.enum_file).chain(surface_files) {
        let dst = root.join(rel);
        fs::create_dir_all(dst.parent().expect("rel paths have parents")).expect("mkdir");
        match file_override {
            Some((file, src)) if file == rel => fs::write(&dst, src).expect("write modified file"),
            _ => {
                fs::copy(ws.join(rel), &dst).expect("copy surface file");
            }
        }
    }
}

/// The live surfaces of rule `id`, copied unmodified, lint clean.
pub fn pristine_surfaces_pass(id: &str) {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{id}_pristine"));
    let _ = fs::remove_dir_all(&root);
    write_tree(rule(id), &root, None);
    let diags = lint::run(&root).expect("tree readable");
    assert!(diags.is_empty(), "{diags:#?}");
}

/// Every (function surface × variant) knock-out of rule `id` fires it.
/// `min_variants` guards against the enum scan silently finding less
/// than the enum's seed variants.
pub fn removing_any_arm_fails(id: &str, min_variants: usize) {
    let rule = rule(id);
    let ws = workspace_root();
    let enum_src = fs::read_to_string(ws.join(rule.enum_file)).expect("enum file");
    let variants = scan::enum_variants(&lex(&enum_src).tokens, rule.enum_name);
    assert!(
        variants.len() >= min_variants,
        "{} should have at least its {min_variants} seed variants, found {variants:?}",
        rule.enum_name
    );

    let mut knocked_out = 0;
    for s in rule.surfaces {
        let (Some(func), [file]) = (s.func, s.files) else {
            continue;
        };
        let surface_src = fs::read_to_string(ws.join(file)).expect("surface file");
        for v in &variants {
            let modified = remove_arm(&surface_src, func, v);
            // Sanity: the variant really is gone from the function span.
            let toks = lex(&modified);
            let (lo, hi) = scan::fn_span(&toks.tokens, func).expect("function survives");
            assert!(
                !toks.tokens[lo..hi]
                    .iter()
                    .any(|t| matches!(&t.tok, Tok::Ident(n) if n == v)),
                "variant {v} still mentioned in {func} after removal"
            );

            let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{id}_drop_{func}_{v}"));
            let _ = fs::remove_dir_all(&root);
            write_tree(rule, &root, Some((file, &modified)));
            let diags = lint::run(&root).expect("tree readable");
            assert!(
                diags
                    .iter()
                    .any(|d| d.rule == id && d.msg.contains(v.as_str()) && d.msg.contains(func)),
                "dropping the {v} arm from {func} must fail {id}, got {diags:#?}"
            );
            knocked_out += 1;
        }
    }
    assert!(knocked_out > 0, "{id} has no function surface to knock out");
}
