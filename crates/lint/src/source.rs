//! Layer 1: the lexical source-policy pass.
//!
//! Walks every `.rs` file under the workspace's `crates/*/src` directories
//! (plus the facade crate's `src/`), classifies each file by context, and
//! applies the source rules over the token stream produced by
//! [`crate::lexer`]. Vendored stand-in crates (`crates/vendor/*`) are
//! skipped entirely: they mirror external code and follow their upstreams'
//! policies, not ours.

use std::path::{Path, PathBuf};

use crate::diag::Finding;
use crate::lexer::{self, Tok};

/// Library modules allowed to read process environment variables directly.
/// Everything else must take configuration through parameters so behaviour
/// stays a pure function of inputs.
const ENV_SANCTIONED: &[&str] = &[
    // The sanitizer drives the pool's schedule knobs through the
    // environment (that is the channel the pool reads) and must save and
    // restore the prior values around each run.
    "crates/lint/src/sanitize.rs",
    "crates/pool/src/lib.rs",
    "crates/telemetry/src/lib.rs",
    "crates/telemetry/src/log.rs",
];

/// Library modules allowed to write to stdout/stderr directly — the
/// telemetry logger is the sink everything else must route through.
const PRINT_SANCTIONED: &[&str] = &["crates/telemetry/src/log.rs"];

/// How a file's context modulates the rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileContext {
    /// `crates/vendor/*` — skipped entirely.
    Vendor,
    /// Binaries, integration tests, benches, examples: CLI surfaces where
    /// `panic!`/prints are the error-reporting idiom.
    Bin,
    /// `crates/bench` — the experiment harness; prints tables by design.
    Harness,
    /// Everything else: full policy applies.
    Lib,
}

/// Classifies a workspace-relative path (`/`-separated).
pub fn classify(rel: &str) -> FileContext {
    if rel.starts_with("crates/vendor/") {
        return FileContext::Vendor;
    }
    if rel.starts_with("crates/bench/") {
        return FileContext::Harness;
    }
    if rel.contains("/bin/")
        || rel.ends_with("/main.rs")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
    {
        return FileContext::Bin;
    }
    FileContext::Lib
}

/// `true` when `rel` is a library crate root that must carry
/// `#![forbid(unsafe_code)]`.
fn is_lib_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"))
}

/// Lints one file's source text. `rel` is the workspace-relative path used
/// in locations and for context classification.
pub fn lint_source(rel: &str, text: &str) -> Vec<Finding> {
    let context = classify(rel);
    if context == FileContext::Vendor {
        return Vec::new();
    }
    let toks = lexer::lex(text);
    let tests = lexer::test_regions(&toks);
    let mut findings = Vec::new();
    let at = |t: &Tok| format!("{rel}:{}", t.line);

    for (i, t) in toks.iter().enumerate() {
        // `unsafe` is denied everywhere, test code included — the workspace
        // compiles under #![forbid(unsafe_code)].
        if t.is_ident("unsafe") {
            findings.push(Finding::new(
                "unsafe-block",
                at(t),
                "`unsafe` in workspace code",
                "rewrite with safe primitives; the whole workspace builds under \
                 #![forbid(unsafe_code)]",
            ));
            continue;
        }

        // The remaining rules target library code outside #[cfg(test)].
        let lib_code = context == FileContext::Lib && !lexer::in_regions(&tests, i);
        if !lib_code {
            continue;
        }

        if t.is_punct(".") {
            if let (Some(name), Some(open)) = (toks.get(i + 1), toks.get(i + 2)) {
                if (name.is_ident("unwrap") || name.is_ident("expect")) && open.is_punct("(") {
                    findings.push(Finding::new(
                        "no-unwrap",
                        at(name),
                        format!("`.{}()` in library code", name.text),
                        "propagate the error (`?`), return a typed error, or recover with \
                         unwrap_or_else; reserve unreachable! for proven invariants",
                    ));
                }
            }
        }

        if t.is_ident("panic") && toks.get(i + 1).is_some_and(|n| n.is_punct("!")) {
            findings.push(Finding::new(
                "no-unwrap",
                at(t),
                "`panic!` in library code",
                "return a typed error; use unreachable! only for proven invariants",
            ));
        }

        if (t.is_ident("println")
            || t.is_ident("eprintln")
            || t.is_ident("print")
            || t.is_ident("eprint"))
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            && !PRINT_SANCTIONED.contains(&rel)
        {
            findings.push(Finding::new(
                "no-print",
                at(t),
                format!("`{}!` in a library crate", t.text),
                "emit through telemetry::log (or return the text to the caller)",
            ));
        }

        if t.is_ident("env")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && toks
                .get(i + 2)
                .is_some_and(|n| n.is_ident("var") || n.is_ident("var_os"))
            && !ENV_SANCTIONED.contains(&rel)
        {
            findings.push(Finding::new(
                "no-env-var",
                at(t),
                "direct environment read in library code",
                "take the value as a parameter, or extend a sanctioned config module",
            ));
        }

        if t.is_punct("==") || t.is_punct("!=") {
            let nonzero_float = |n: Option<&Tok>| {
                n.and_then(Tok::float_value)
                    .is_some_and(|v| v != 0.0 || v.is_nan())
            };
            // Zero-valued literals stay allowed: `x == 0.0` against an exact
            // sentinel (sparsity, "not yet set") is an established idiom
            // here; anything else needs a tolerance.
            if nonzero_float(i.checked_sub(1).and_then(|j| toks.get(j)))
                || nonzero_float(toks.get(i + 1))
            {
                findings.push(Finding::new(
                    "float-eq",
                    at(t),
                    format!("`{}` against a non-zero float literal", t.text),
                    "compare with sparsela::vector::approx_eq(a, b, tol)",
                ));
            }
        }
    }

    if is_lib_crate_root(rel) && !has_forbid_unsafe(&toks) {
        findings.push(Finding::new(
            "forbid-unsafe",
            format!("{rel}:1"),
            "crate root lacks #![forbid(unsafe_code)]",
            "add `#![forbid(unsafe_code)]` beneath the crate docs",
        ));
    }

    findings
}

/// Token-level check for `#![forbid(unsafe_code)]` — immune to the
/// attribute appearing inside a comment or string.
fn has_forbid_unsafe(toks: &[Tok]) -> bool {
    toks.windows(8).any(|w| {
        w[0].is_punct("#")
            && w[1].is_punct("!")
            && w[2].is_punct("[")
            && w[3].is_ident("forbid")
            && w[4].is_punct("(")
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(")")
            && w[7].is_punct("]")
    })
}

/// Collects every `.rs` file the policy applies to, workspace-relative and
/// sorted (deterministic report order). Vendor crates are excluded here so
/// the parallel pass never even reads them.
///
/// # Errors
///
/// I/O failures while walking the tree.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let entry = entry?;
            if entry.file_name() == "vendor" || !entry.path().is_dir() {
                continue;
            }
            let src = entry.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let facade_src = root.join("src");
    if facade_src.is_dir() {
        collect_rs(&facade_src, &mut files)?;
    }
    let mut rels: Vec<PathBuf> = files
        .into_iter()
        .filter_map(|p| p.strip_prefix(root).ok().map(Path::to_path_buf))
        .collect();
    rels.sort();
    Ok(rels)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the source pass over the whole workspace, fanning file handlers out
/// on the ambient [`pool::Pool`] (sized by `GSU_THREADS`). Findings come
/// back in deterministic path order regardless of thread count.
///
/// # Errors
///
/// I/O failures walking or reading sources.
pub fn lint_tree(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut span = telemetry::span("lint.source");
    let files = workspace_sources(root)?;
    span.record("files", files.len());
    let per_file: Vec<std::io::Result<Vec<Finding>>> =
        pool::Pool::current().map_indexed(files, |_, rel| {
            let text = std::fs::read_to_string(root.join(&rel))?;
            Ok(lint_source(
                &rel.to_string_lossy().replace('\\', "/"),
                &text,
            ))
        });
    let mut findings = Vec::new();
    for result in per_file {
        findings.extend(result?);
    }
    span.record("findings", findings.len());
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(rel: &str, src: &str) -> Vec<String> {
        lint_source(rel, src).into_iter().map(|f| f.rule).collect()
    }

    const LIB: &str = "crates/demo/src/lib.rs";

    #[test]
    fn vendor_is_skipped() {
        assert!(rules("crates/vendor/proptest/src/lib.rs", "unsafe { }").is_empty());
    }

    #[test]
    fn unsafe_denied_even_in_tests_and_bins() {
        let src = "#![forbid(unsafe_code)]\n#[cfg(test)]\nmod t { fn f() { unsafe { } } }";
        assert_eq!(rules(LIB, src), ["unsafe-block"]);
        assert_eq!(
            rules("crates/demo/src/bin/tool.rs", "fn main() { unsafe { } }"),
            ["unsafe-block"]
        );
    }

    #[test]
    fn unwrap_expect_panic_in_lib_only() {
        let src = "#![forbid(unsafe_code)]\nfn f() { x.unwrap(); y.expect(\"m\"); panic!(\"b\") }";
        assert_eq!(rules(LIB, src), ["no-unwrap", "no-unwrap", "no-unwrap"]);
        // Bins, tests, and the bench harness are exempt.
        assert!(rules("crates/demo/src/bin/t.rs", "fn main() { x.unwrap() }").is_empty());
        // The bench harness is exempt from no-unwrap, but its crate root
        // still owes the forbid attribute.
        assert!(rules(
            "crates/bench/src/lib.rs",
            "#![forbid(unsafe_code)]\nfn f() { x.unwrap() }"
        )
        .is_empty());
        let gated = "#![forbid(unsafe_code)]\n#[cfg(test)]\nmod t { fn f() { x.unwrap() } }";
        assert!(rules(LIB, gated).is_empty());
        // unwrap_or_else is a different identifier, not a violation; and a
        // commented-out unwrap is invisible to the lexer.
        assert!(rules(
            LIB,
            "#![forbid(unsafe_code)]\nfn f() { x.unwrap_or_else(g); /* x.unwrap() */ }"
        )
        .is_empty());
        // unreachable! stays available for invariants.
        assert!(rules(
            LIB,
            "#![forbid(unsafe_code)]\nfn f() { unreachable!(\"proven\") }"
        )
        .is_empty());
    }

    #[test]
    fn env_var_sanctioned_modules() {
        let src = "#![forbid(unsafe_code)]\nfn f() { let _ = std::env::var(\"X\"); }";
        assert_eq!(rules(LIB, src), ["no-env-var"]);
        assert!(rules("crates/pool/src/lib.rs", src).is_empty());
        assert!(rules("crates/telemetry/src/log.rs", src).is_empty());
    }

    #[test]
    fn float_eq_flags_nonzero_only() {
        let base = "#![forbid(unsafe_code)]\n";
        assert_eq!(
            rules(LIB, &format!("{base}fn f(x: f64) -> bool {{ x == 1.5 }}")),
            ["float-eq"]
        );
        assert_eq!(
            rules(
                LIB,
                &format!("{base}fn f(x: f64) -> bool {{ 2.0e-3 != x }}")
            ),
            ["float-eq"]
        );
        assert!(rules(LIB, &format!("{base}fn f(x: f64) -> bool {{ x == 0.0 }}")).is_empty());
        // Integer comparisons are not floats.
        assert!(rules(LIB, &format!("{base}fn f(x: u32) -> bool {{ x == 1 }}")).is_empty());
    }

    #[test]
    fn print_routed_through_telemetry() {
        let src = "#![forbid(unsafe_code)]\nfn f() { println!(\"x\"); eprintln!(\"y\") }";
        assert_eq!(rules(LIB, src), ["no-print", "no-print"]);
        assert!(rules("crates/telemetry/src/log.rs", src).is_empty());
        assert!(rules("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn forbid_unsafe_on_lib_roots() {
        assert_eq!(rules(LIB, "pub fn f() {}"), ["forbid-unsafe"]);
        assert!(rules(LIB, "#![forbid(unsafe_code)]\npub fn f() {}").is_empty());
        // Only genuine attribute tokens count.
        assert_eq!(
            rules(LIB, "// #![forbid(unsafe_code)]\npub fn f() {}"),
            ["forbid-unsafe"]
        );
        // Non-root modules are not required to repeat it.
        assert!(rules("crates/demo/src/other.rs", "pub fn f() {}").is_empty());
    }

    #[test]
    fn findings_carry_file_and_line() {
        let src = "#![forbid(unsafe_code)]\n\nfn f() {\n    x.unwrap();\n}\n";
        let f = &lint_source(LIB, src)[0];
        assert_eq!(f.location, format!("{LIB}:4"));
        assert_eq!(f.severity, crate::diag::Severity::Deny);
    }
}
