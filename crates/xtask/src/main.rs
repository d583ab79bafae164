//! Repo invariant lints, run as `cargo run -p xtask -- lint` (and as a
//! plain `cargo test -p xtask`, so the tier-1 suite enforces them too).
//!
//! Five invariants, chosen because nothing else in the build would catch
//! a quiet violation:
//!
//! 1. **`#![forbid(unsafe_code)]` in every first-party crate root.** The
//!    workspace lint table already forbids unsafe code, but a crate that
//!    drops the attribute *and* the `[lints] workspace = true` stanza
//!    would silently opt out; the attribute in the root is the local,
//!    greppable witness.
//! 2. **No `std::thread::spawn` outside `vendor/mini-rayon`.** All
//!    parallelism goes through the `mini-rayon` worker pool so the
//!    equivalence suites can pin every job count bit-identical; a stray
//!    hand-rolled thread would bypass the `FBIST_JOBS` knob and the
//!    deterministic splitting the suites rely on.
//! 3. **The throughput-knob exclusion list stays in sync.** Stage keys in
//!    `crates/core/src/stage.rs` deliberately exclude the knobs listed in
//!    its `THROUGHPUT_KNOBS` manifest, each justified by an equivalence
//!    suite that pins the knob bit-identical. The lint fails if a listed
//!    suite file disappears from `tests/`, or if a manifest knob's field
//!    name shows up inside a `Digest` call in the key-derivation code —
//!    either way the exclusion's justification has drifted from reality.
//! 4. **No hash-order dependence in result-affecting crates.** `HashMap`
//!    and `HashSet` iterate in a per-process randomized order; a stray
//!    iteration in `analyze`, `atpg`, `core`, `fault`, or `setcover`
//!    would make artifacts differ run to run, which the equivalence
//!    suites only catch if the nondeterminism happens to fire under the
//!    test inputs. Every use of a hashed container in those crates must
//!    carry a `determinism:` comment (same line or the comment block
//!    directly above) arguing why iteration order is never observed.
//! 5. **Every knob flag has a manifest entry.** Each flag in `fbist`'s
//!    `KNOB_FLAGS` table (`crates/cli/src/main.rs`) must name a
//!    `THROUGHPUT_KNOBS` entry, `--jobs` naming `jobs` (or a nested
//!    `<stage>.jobs`). So a knob flag cannot come back without the
//!    equivalence suite that pins it.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let failures = run_lints(&repo_root());
            if failures.is_empty() {
                println!("xtask lint: all repo invariants hold");
                ExitCode::SUCCESS
            } else {
                for f in &failures {
                    eprintln!("xtask lint: {f}");
                }
                eprintln!("xtask lint: {} invariant violation(s)", failures.len());
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root, two levels above this crate's manifest.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

/// Runs every lint; returns one human-readable message per violation.
fn run_lints(root: &Path) -> Vec<String> {
    let mut failures = Vec::new();
    lint_forbid_unsafe(root, &mut failures);
    lint_no_thread_spawn(root, &mut failures);
    lint_throughput_manifest(root, &mut failures);
    lint_no_hash_iteration(root, &mut failures);
    lint_knob_flags(root, &mut failures);
    failures
}

// ------------------------------------------------- 1: forbid(unsafe_code)

fn lint_forbid_unsafe(root: &Path, failures: &mut Vec<String>) {
    for krate in first_party_crates(root, failures) {
        let lib = krate.join("src/lib.rs");
        let main = krate.join("src/main.rs");
        let crate_root = if lib.is_file() { lib } else { main };
        let Ok(text) = std::fs::read_to_string(&crate_root) else {
            failures.push(format!(
                "{}: crate has neither src/lib.rs nor src/main.rs",
                krate.display()
            ));
            continue;
        };
        if !text.contains("#![forbid(unsafe_code)]") {
            failures.push(format!(
                "{}: crate root is missing #![forbid(unsafe_code)]",
                crate_root.display()
            ));
        }
    }
}

fn first_party_crates(root: &Path, failures: &mut Vec<String>) -> Vec<PathBuf> {
    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        failures.push(format!("cannot read {}", crates_dir.display()));
        return Vec::new();
    };
    let mut dirs: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    if dirs.len() < 10 {
        failures.push(format!(
            "only {} crates found under {} — workspace layout changed?",
            dirs.len(),
            crates_dir.display()
        ));
    }
    dirs
}

// ------------------------------------------------- 2: no raw thread spawns

fn lint_no_thread_spawn(root: &Path, failures: &mut Vec<String>) {
    // built at runtime so this source file cannot trip its own lint
    let needle: String = ["thread", "::", "spawn"].concat();
    let mut sources = Vec::new();
    for top in ["crates", "tests", "benches"] {
        collect_rs_files(&root.join(top), &mut sources);
    }
    for path in sources {
        // the lint binary itself may name the pattern in docs
        if path.starts_with(root.join("crates/xtask")) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        for (i, line) in text.lines().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            if code.contains(&needle) || code.contains(".spawn(") {
                failures.push(format!(
                    "{}:{}: raw thread spawn — route parallelism through \
                     mini_rayon so job counts stay pinned bit-identical",
                    path.display(),
                    i + 1
                ));
            }
        }
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

// ------------------------------------------- 3: throughput-knob manifest

fn lint_throughput_manifest(root: &Path, failures: &mut Vec<String>) {
    let stage = root.join("crates/core/src/stage.rs");
    let Ok(text) = std::fs::read_to_string(&stage) else {
        failures.push(format!("cannot read {}", stage.display()));
        return;
    };
    let manifest = parse_manifest(&text);
    if manifest.is_empty() {
        failures.push(format!(
            "{}: THROUGHPUT_KNOBS manifest missing or empty — the stage-key \
             exclusion list must stay greppable",
            stage.display()
        ));
        return;
    }

    // Forward: every excluded knob's pinning suite must still exist.
    for (knob, suite) in &manifest {
        let suite_file = root.join("tests").join(format!("{suite}.rs"));
        if !suite_file.is_file() {
            failures.push(format!(
                "THROUGHPUT_KNOBS lists {knob:?} as pinned by {suite:?}, but \
                 tests/{suite}.rs does not exist — an unkeyed knob without a \
                 pinning equivalence suite can silently change results under \
                 a warm artifact store"
            ));
        }
    }

    // Backward: no manifest knob may be hashed into a stage key. The scan
    // covers every `d.<method>(...)` digest call outside comments; a knob
    // whose field name appears there is keyed, so it no longer belongs in
    // the exclusion manifest.
    for (i, line) in text.lines().enumerate() {
        let code = line.split("//").next().unwrap_or("").trim_start();
        if !code.starts_with("d.") {
            continue;
        }
        for (knob, suite) in &manifest {
            let field = knob.rsplit('.').next().unwrap_or(knob);
            if code.contains(field) {
                failures.push(format!(
                    "{}:{}: digest call {code:?} mentions throughput knob \
                     {knob:?} (pinned by {suite}) — either remove it from \
                     the key derivation or drop it from THROUGHPUT_KNOBS",
                    stage.display(),
                    i + 1
                ));
            }
        }
    }
}

// ------------------------------------------- 4: no hash-order dependence

/// Crates whose outputs land in stage artifacts; hash-order leaks here
/// show up as run-to-run result drift under a warm artifact store.
const RESULT_AFFECTING_CRATES: &[&str] = &["analyze", "atpg", "core", "fault", "setcover"];

fn lint_no_hash_iteration(root: &Path, failures: &mut Vec<String>) {
    // built at runtime so this source file cannot trip its own lint
    let needles = [["Hash", "Map"].concat(), ["Hash", "Set"].concat()];
    let tag: String = ["determinism", ":"].concat();
    for krate in RESULT_AFFECTING_CRATES {
        let mut sources = Vec::new();
        collect_rs_files(&root.join("crates").join(krate).join("src"), &mut sources);
        for path in sources {
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            let lines: Vec<&str> = text.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                let code = line.split("//").next().unwrap_or("");
                if !needles.iter().any(|n| code.contains(n.as_str())) {
                    continue;
                }
                if line.contains(&tag) || preceding_comment_contains(&lines, i, &tag) {
                    continue;
                }
                failures.push(format!(
                    "{}:{}: hashed container in a result-affecting crate — \
                     iteration order is randomized per process; use a \
                     Vec/BTreeMap, or justify with a `// {tag} ...` comment \
                     proving the order is never observed",
                    path.display(),
                    i + 1
                ));
            }
        }
    }
}

/// True when the contiguous `//` comment block directly above line `i`
/// mentions `needle`.
fn preceding_comment_contains(lines: &[&str], i: usize, needle: &str) -> bool {
    lines[..i]
        .iter()
        .rev()
        .take_while(|l| l.trim_start().starts_with("//"))
        .any(|l| l.contains(needle))
}

// ------------------------------------------- 5: knob flags are manifested

fn lint_knob_flags(root: &Path, failures: &mut Vec<String>) {
    let read = |file: &str| std::fs::read_to_string(root.join(file)).unwrap_or_default();
    let manifest = parse_manifest(&read("crates/core/src/stage.rs"));
    let flags = parse_knob_flags(&read("crates/cli/src/main.rs"));
    if flags.is_empty() {
        failures.push("crates/cli/src/main.rs: KNOB_FLAGS table missing or empty".into());
    }
    for flag in flags {
        let knob = flag.trim_start_matches('-').replace('-', "_");
        let nested = format!(".{knob}");
        if !manifest
            .iter()
            .any(|(entry, _)| *entry == knob || entry.ends_with(&nested))
        {
            failures.push(format!(
                "KNOB_FLAGS lists {flag:?}, but THROUGHPUT_KNOBS has no \
                 {knob:?} entry — a knob flag needs the equivalence suite \
                 that pins it result-neutral"
            ));
        }
    }
}

/// The lines of the array declared on the first line that contains
/// `decl` and a `[`, up to its closing `];` — or, for an array that
/// closes on its declaration line, that line's initializer.
fn table_lines<'a>(text: &'a str, decl: &'a str) -> Vec<&'a str> {
    let mut lines = text
        .lines()
        .skip_while(move |l| !(l.contains(decl) && l.contains('[')));
    match lines.next() {
        Some(first) if first.contains("];") => first
            .split_once('=')
            .map(|(_, init)| init)
            .into_iter()
            .collect(),
        Some(_) => lines
            .take_while(|l| !l.trim_start().starts_with("];"))
            .collect(),
        None => Vec::new(),
    }
}

/// The `--flag` names in the `KNOB_FLAGS` table.
fn parse_knob_flags(text: &str) -> Vec<String> {
    table_lines(text, "const KNOB_FLAGS")
        .into_iter()
        .flat_map(quoted_strings)
        .filter(|s| s.starts_with("--"))
        .collect()
}

/// Extracts the `(knob, suite)` pairs from the `THROUGHPUT_KNOBS` array
/// by scanning the quoted string pairs between the declaration and the
/// closing `];`.
fn parse_manifest(text: &str) -> Vec<(String, String)> {
    table_lines(text, "THROUGHPUT_KNOBS")
        .into_iter()
        .map(quoted_strings)
        .filter(|strings| strings.len() == 2)
        .map(|mut strings| {
            let suite = strings.pop().expect("two strings");
            (strings.pop().expect("two strings"), suite)
        })
        .collect()
}

fn quoted_strings(line: &str) -> Vec<String> {
    let code = line.split("//").next().unwrap_or("");
    let mut out = Vec::new();
    let mut rest = code;
    while let Some(start) = rest.find('"') {
        let tail = &rest[start + 1..];
        let Some(end) = tail.find('"') else { break };
        out.push(tail[..end].to_owned());
        rest = &tail[end + 1..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The real lint over the real repo: `cargo test` enforces the
    /// invariants even where CI never runs the standalone binary.
    #[test]
    fn repo_invariants_hold() {
        let failures = run_lints(&repo_root());
        assert!(failures.is_empty(), "{failures:#?}");
    }

    #[test]
    fn manifest_parser_reads_pairs() {
        let src = r#"
            pub const THROUGHPUT_KNOBS: &[(&str, &str)] = &[
                ("jobs", "parallel_equivalence"),
                ("atpg.jobs", "atpg_equivalence"), // trailing comment
            ];
        "#;
        assert_eq!(
            parse_manifest(src),
            vec![
                ("jobs".to_owned(), "parallel_equivalence".to_owned()),
                ("atpg.jobs".to_owned(), "atpg_equivalence".to_owned()),
            ]
        );
    }

    #[test]
    fn knob_flag_without_manifest_entry_is_reported() {
        let dir = std::env::temp_dir().join(format!("xtask-lint4-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("crates/core/src")).unwrap();
        std::fs::create_dir_all(dir.join("crates/cli/src")).unwrap();
        std::fs::write(
            dir.join("crates/core/src/stage.rs"),
            "pub const THROUGHPUT_KNOBS: &[(&str, &str)] = &[\n\
             (\"atpg.jobs\", \"atpg_equivalence\"),\n];\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("crates/cli/src/main.rs"),
            "const KNOB_FLAGS: &[Flag] = &[\n\
             (\"--jobs\", true),\n\
             (\"--backend\", true),\n];\n",
        )
        .unwrap();
        let mut failures = Vec::new();
        lint_knob_flags(&dir, &mut failures);
        // --jobs passes on the nested atpg.jobs entry; --backend has none
        assert_eq!(failures.len(), 1, "{failures:#?}");
        assert!(failures[0].contains("\"--backend\""), "{failures:#?}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn one_line_knob_table_is_read_alone() {
        // a table that closes on its declaration line must not run on
        // into the rest of the file
        let src = "const KNOB_FLAGS: &[Flag] = &[(\"--jobs\", true), (\"--backend\", true)];\n\
                   const CIRCUIT_FLAGS: &[Flag] = &[(\"--scale\", true)];\n";
        assert_eq!(parse_knob_flags(src), vec!["--jobs", "--backend"]);
    }

    #[test]
    fn quoted_strings_ignores_comments() {
        assert_eq!(
            quoted_strings(r#"("a", "b"), // ("c", "d")"#),
            vec!["a".to_owned(), "b".to_owned()]
        );
    }

    #[test]
    fn missing_suite_is_reported() {
        let dir = std::env::temp_dir().join(format!("xtask-lint-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("crates/core/src")).unwrap();
        std::fs::create_dir_all(dir.join("tests")).unwrap();
        std::fs::write(
            dir.join("crates/core/src/stage.rs"),
            "pub const THROUGHPUT_KNOBS: &[(&str, &str)] = &[\n\
             (\"jobs\", \"no_such_suite\"),\n];\n",
        )
        .unwrap();
        let mut failures = Vec::new();
        lint_throughput_manifest(&dir, &mut failures);
        assert_eq!(failures.len(), 1, "{failures:#?}");
        assert!(failures[0].contains("no_such_suite"), "{failures:#?}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn unjustified_hash_container_is_reported() {
        let dir = std::env::temp_dir().join(format!("xtask-lint3-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("crates/fault/src")).unwrap();
        std::fs::write(
            dir.join("crates/fault/src/lib.rs"),
            "use std::collections::HashMap;\n\
             // determinism: lookup-only, never iterated.\n\
             fn ok(m: &HashMap<u32, u32>) -> Option<u32> { m.get(&0).copied() }\n\
             fn bad() { let s = std::collections::HashSet::<u32>::new(); \
             for _ in &s {} }\n",
        )
        .unwrap();
        let mut failures = Vec::new();
        lint_no_hash_iteration(&dir, &mut failures);
        // line 1 has no justification; line 3 is covered by the comment
        // above it; line 4 names HashSet with no justification.
        assert_eq!(failures.len(), 2, "{failures:#?}");
        assert!(failures[0].contains("lib.rs:1:"), "{failures:#?}");
        assert!(failures[1].contains("lib.rs:4:"), "{failures:#?}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn hashed_knob_is_reported() {
        let dir = std::env::temp_dir().join(format!("xtask-lint2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("crates/core/src")).unwrap();
        std::fs::create_dir_all(dir.join("tests")).unwrap();
        std::fs::write(dir.join("tests/parallel_equivalence.rs"), "").unwrap();
        std::fs::write(
            dir.join("crates/core/src/stage.rs"),
            "pub const THROUGHPUT_KNOBS: &[(&str, &str)] = &[\n\
             (\"jobs\", \"parallel_equivalence\"),\n];\n\
             fn f(d: &mut D, c: &C) {\n    d.usize(c.jobs);\n}\n",
        )
        .unwrap();
        let mut failures = Vec::new();
        lint_throughput_manifest(&dir, &mut failures);
        assert_eq!(failures.len(), 1, "{failures:#?}");
        assert!(failures[0].contains("digest call"), "{failures:#?}");
        let _ = std::fs::remove_dir_all(dir);
    }
}
