//! Public-API surface snapshot: future drift must be deliberate.
//!
//! A lightweight, offline stand-in for `cargo public-api`: every `pub`
//! item declaration in the facade (`src/lib.rs`) and the engine crate
//! (`crates/engine/src/**.rs`, the surface this repository evolves
//! fastest) is extracted and compared against the golden file
//! `results/public_api.txt`. CI runs this test, so adding, removing or
//! renaming a public item fails the build until the snapshot is
//! regenerated — run with `UPDATE_API_SNAPSHOT=1` to accept the new
//! surface and commit the diff alongside the code change.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const GOLDEN: &str = "results/public_api.txt";

/// Files whose public declarations constitute the tracked surface.
fn tracked_files(root: &Path) -> Vec<PathBuf> {
    let mut files = vec![root.join("src/lib.rs")];
    files.extend(rust_files(&root.join("crates/engine/src")));
    files.sort();
    files
}

/// Every `.rs` file under `dir`, recursively, sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
            .map(|e| e.expect("dir entry").path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// The trimmed lines of `src` outside `#[cfg(test)] mod …` regions, with
/// their 1-based line numbers.
fn non_test_lines(src: &str) -> Vec<(usize, &str)> {
    let mut lines = Vec::new();
    let mut depth_at_test_mod: Option<usize> = None;
    let mut depth: usize = 0;
    let mut pending_test_attr = false;
    for (i, raw) in src.lines().enumerate() {
        let line = raw.trim();
        // Depth tracking must not count braces in comment prose (the
        // common way an unbalanced brace sneaks into source text), or the
        // cfg(test) exclusion would silently desynchronize. String
        // literals are rustfmt'd onto code lines whose braces pair up, so
        // comment stripping covers the realistic drift cases.
        let code = line.split("//").next().unwrap_or(line);
        // Track `#[cfg(test)] mod …` regions so test-only code stays out.
        if line.starts_with("#[cfg(test)]") {
            pending_test_attr = true;
        } else if pending_test_attr && line.starts_with("mod ") {
            depth_at_test_mod = Some(depth);
            pending_test_attr = false;
        } else if !line.starts_with("#[") && !line.is_empty() {
            pending_test_attr = false;
        }
        if depth_at_test_mod.is_none() {
            lines.push((i + 1, line));
        }
        depth += code.matches('{').count();
        depth = depth.saturating_sub(code.matches('}').count());
        if let Some(d) = depth_at_test_mod {
            if depth <= d {
                depth_at_test_mod = None;
            }
        }
    }
    lines
}

/// Extracts the declaration lines of public items from one source file:
/// the first line of anything starting with `pub fn|struct|enum|...`,
/// outside `#[cfg(test)]` modules, trimmed. Public *fields* and enum
/// variants ride with their item (a change inside an item body does not
/// show here — the snapshot tracks the item list, not full signatures of
/// every field).
fn public_items(path: &Path) -> Vec<String> {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut items = Vec::new();
    for (_, line) in non_test_lines(&src) {
        let decl = line.strip_prefix("pub ").map(|rest| {
            rest.starts_with("fn ")
                || rest.starts_with("struct ")
                || rest.starts_with("enum ")
                || rest.starts_with("trait ")
                || rest.starts_with("type ")
                || rest.starts_with("const ")
                || rest.starts_with("mod ")
                || rest.starts_with("use ")
        });
        if decl == Some(true) {
            let first = line
                .split(" where")
                .next()
                .unwrap_or(line)
                .trim_end_matches([' ', '{', '('])
                .trim_end();
            items.push(first.to_string());
        }
    }
    items
}

fn snapshot(root: &Path) -> String {
    let mut out = String::from(
        "# Public API surface (facade + engine crate). Regenerate with\n\
         # UPDATE_API_SNAPSHOT=1 cargo test --test api_surface\n",
    );
    for file in tracked_files(root) {
        let rel = file.strip_prefix(root).expect("tracked file under root");
        let items = public_items(&file);
        if items.is_empty() {
            continue;
        }
        let _ = writeln!(out, "\n[{}]", rel.display());
        for item in items {
            let _ = writeln!(out, "{item}");
        }
    }
    out
}

#[test]
fn public_api_surface_matches_the_golden_snapshot() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let current = snapshot(&root);
    let golden_path = root.join(GOLDEN);
    if std::env::var_os("UPDATE_API_SNAPSHOT").is_some() {
        std::fs::write(&golden_path, &current).expect("write golden snapshot");
        eprintln!("api_surface: regenerated {GOLDEN}");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!("{GOLDEN} missing ({e}); regenerate with UPDATE_API_SNAPSHOT=1")
    });
    if golden != current {
        let diff: Vec<String> = {
            let old: std::collections::BTreeSet<&str> = golden.lines().collect();
            let new: std::collections::BTreeSet<&str> = current.lines().collect();
            old.symmetric_difference(&new)
                .map(|l| if new.contains(l) { format!("+ {l}") } else { format!("- {l}") })
                .collect()
        };
        panic!(
            "public API surface drifted from {GOLDEN} — if deliberate, regenerate with \
             UPDATE_API_SNAPSHOT=1 cargo test --test api_surface and commit the diff:\n{}",
            diff.join("\n")
        );
    }
}

/// Process-global mutable state the library crates may hold, as
/// `module::NAME`. Both are ID counters: their values name things (trace
/// IDs, scratch directories) and change no answer, no charge and no
/// collective. A switch that steers behaviour from a global makes results
/// depend on what else runs in the process, so a new entry here needs a
/// reason at least that strong.
const ALLOWED_GLOBALS: [&str; 2] = ["obs::NEXT_TRACE_ID", "socket_mp::DIR_COUNTER"];

/// Library crates whose sources the global-state guard scans.
const LIBRARY_CRATES: [&str; 7] =
    ["balance", "core", "engine", "runtime", "seqsel", "sort", "workloads"];

/// Every `static` item of an atomic, `Mutex`, `RwLock`, `OnceLock` or
/// `LazyLock` type (or any `static mut`) under `dir`, as `module::NAME`,
/// where the module is the file stem (a `mod.rs` names its directory).
fn mutable_statics(dir: &Path, out: &mut Vec<String>) {
    for path in rust_files(dir) {
        let stem = path.file_stem().and_then(|s| s.to_str()).expect("utf-8 file name");
        let module = if stem == "mod" {
            path.parent().and_then(|p| p.file_name()).and_then(|s| s.to_str()).expect("dir name")
        } else {
            stem
        };
        let src =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for line in src.lines() {
            let code = line.split("//").next().unwrap_or(line).trim();
            let item = match code.split_once("static ") {
                Some((vis, rest))
                    if vis.is_empty()
                        || vis == "pub "
                        || (vis.starts_with("pub(") && vis.ends_with(") ")) =>
                {
                    rest
                }
                _ => continue,
            };
            let is_mut = item.starts_with("mut ");
            let item = item.trim_start_matches("mut ");
            let Some((name, ty)) = item.split_once(':') else { continue };
            let interior = ["Atomic", "Mutex", "RwLock", "OnceLock", "LazyLock"]
                .iter()
                .any(|t| ty.contains(t));
            if is_mut || interior {
                out.push(format!("{module}::{}", name.trim()));
            }
        }
    }
}

#[test]
fn no_process_global_switch_beyond_the_allow_list() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    for krate in LIBRARY_CRATES {
        mutable_statics(&root.join("crates").join(krate).join("src"), &mut found);
    }
    found.sort();
    let mut allowed = ALLOWED_GLOBALS.map(String::from).to_vec();
    allowed.sort();
    assert_eq!(
        found, allowed,
        "process-global mutable statics changed: pass state as a parameter instead of a \
         global, or (for a counter that changes no result) extend ALLOWED_GLOBALS"
    );
}

/// The scalar loops `seqsel` keeps as differential-test oracles and as the
/// `wallclock` bench's baseline. Library code runs their kernels instead.
const SCALAR_REFERENCES: [&str; 4] = [
    "partition3",
    "partition_bound_reference",
    "partition_by_bounds_reference",
    "count_below_reference",
];

#[test]
fn library_code_calls_no_scalar_reference() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut calls = Vec::new();
    for krate in LIBRARY_CRATES {
        for path in rust_files(&root.join("crates").join(krate).join("src")) {
            let src = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            for (no, line) in non_test_lines(&src) {
                let code = line.split("//").next().unwrap_or(line);
                for name in SCALAR_REFERENCES {
                    // A call site, not a longer identifier that ends in the name.
                    let called = code.match_indices(name).any(|(at, _)| {
                        let before = code[..at].chars().next_back();
                        let after = &code[at + name.len()..];
                        !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
                            && (after.starts_with('(') || after.starts_with("::<"))
                    });
                    if called {
                        let rel = path.strip_prefix(&root).expect("source under root");
                        calls.push(format!("{}:{no}: {line}", rel.display()));
                    }
                }
            }
        }
    }
    assert!(
        calls.is_empty(),
        "library code calls a scalar reference loop; call its kernel instead:\n{}",
        calls.join("\n")
    );
}
