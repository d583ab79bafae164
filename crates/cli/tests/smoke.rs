//! End-to-end smoke tests of the `fbist` binary.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh, empty directory no other test shares, in this process or a
/// concurrent one: the label names the caller, the process id and a
/// process-wide counter keep equal labels apart.
fn unique_temp_dir(label: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fbist-{label}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

fn fbist(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fbist"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn profiles_lists_paper_suite() {
    let (ok, stdout, _) = fbist(&["profiles"]);
    assert!(ok);
    for name in ["c499", "s1238", "s15850"] {
        assert!(stdout.contains(name), "missing {name}");
    }
}

#[test]
fn reseed_on_embedded_circuit() {
    let (ok, stdout, _) = fbist(&["reseed", "c17", "--tau", "7"]);
    assert!(ok);
    assert!(stdout.contains("triplets"), "{stdout}");
    assert!(stdout.contains("necessary"), "{stdout}");
}

#[test]
fn gen_stats_roundtrip_through_file() {
    let dir = unique_temp_dir("cli-gen");
    let path = dir.join("tiny.bench");
    let path_s = path.to_str().unwrap();
    let (ok, _, stderr) = fbist(&["gen", "tiny64", "--out", path_s]);
    assert!(ok, "{stderr}");
    let (ok, stdout, stderr) = fbist(&["stats", path_s]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("faults:"), "{stdout}");
}

#[test]
fn sweep_prints_one_row_per_tau() {
    let (ok, stdout, _) = fbist(&["sweep", "tiny64", "--taus", "0,7,31"]);
    assert!(ok);
    assert!(stdout.contains("test_length"));
    // three data rows
    let rows = stdout
        .lines()
        .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
        .count();
    assert_eq!(rows, 3, "{stdout}");
}

#[test]
fn lp_export_is_wellformed() {
    let (ok, stdout, _) = fbist(&["lp", "c17", "--tau", "3"]);
    assert!(ok);
    assert!(stdout.starts_with("/* set covering:"));
    assert!(stdout.contains("min:"));
    assert!(stdout.contains(">= 1;"));
}

/// Like [`fbist`] but exposing the raw exit code, for subcommands with
/// more than two outcomes (`check`: 0 clean / 1 findings / 2 usage).
fn fbist_code(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fbist"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn check_clean_circuit_exits_zero() {
    let (code, stdout, _) = fbist_code(&["check", "c17"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("check c17:"), "{stdout}");
    assert!(stdout.contains("0 errors, 0 warnings"), "{stdout}");
}

#[test]
fn check_flags_findings_with_exit_one() {
    let dir = unique_temp_dir("cli-check");
    let path = dir.join("floating.bench");
    std::fs::write(&path, "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nz = BUFF(a)\n").unwrap();
    let (code, stdout, _) = fbist_code(&["check", path.to_str().unwrap()]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("[floating-net]"), "{stdout}");
    assert!(stdout.contains("\"z\""), "{stdout}");
}

#[test]
fn check_json_is_machine_readable() {
    let (code, stdout, _) = fbist_code(&["check", "c17", "--json"]);
    assert_eq!(code, Some(0));
    let line = stdout.trim();
    assert!(line.starts_with("{\"circuit\":\"c17\""), "{stdout}");
    assert!(
        line.contains("\"summary\":{\"errors\":0,\"warnings\":0,\"infos\":0}"),
        "{stdout}"
    );
    assert!(line.contains("\"findings\":[]"), "{stdout}");
    assert!(line.ends_with("}}"), "{stdout}");
}

/// Pins the `testability` JSON schema consumed by dashboards: a
/// `hard_nets` array whose entries carry the SCOAP numbers in a fixed
/// key order (`net`, `stuck`, `difficulty`, `cc0`, `cc1`, `co`).
#[test]
fn check_json_testability_schema_is_stable() {
    let (code, stdout, _) = fbist_code(&["check", "c17", "--json"]);
    assert_eq!(code, Some(0));
    let line = stdout.trim();
    let (_, tail) = line
        .split_once("\"testability\":{\"hard_nets\":[")
        .unwrap_or_else(|| panic!("no testability section: {stdout}"));
    // c17 is fully observable, so the hardest-site list is non-empty.
    let entry = tail
        .split('}')
        .next()
        .unwrap_or_else(|| panic!("empty hard_nets: {stdout}"));
    let positions: Vec<usize> = [
        "\"net\":",
        "\"stuck\":",
        "\"difficulty\":",
        "\"cc0\":",
        "\"cc1\":",
        "\"co\":",
    ]
    .iter()
    .map(|k| {
        entry
            .find(k)
            .unwrap_or_else(|| panic!("missing {k} in {entry}"))
    })
    .collect();
    assert!(
        positions.windows(2).all(|w| w[0] < w[1]),
        "key order drifted: {entry}"
    );
}

#[test]
fn check_json_reports_findings_with_severities() {
    let dir = unique_temp_dir("cli-check");
    let path = dir.join("redundant.bench");
    // OR(a, NOT a) is constant 1: info-level redundancy findings, which
    // must NOT flip the exit code
    std::fs::write(&path, "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = OR(a, na)\n").unwrap();
    let (code, stdout, _) = fbist_code(&["check", path.to_str().unwrap(), "--json"]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        code,
        Some(0),
        "info findings must not fail the check: {stdout}"
    );
    // the implication engine proves y constant, so SAT adds no constant
    // of its own; it still proves a's faults, which y masks, untestable
    for (code, message) in [
        ("implied-constant", "net \\\"y\\\" is provably constant 1"),
        (
            "untestable-faults",
            "7 of 12 stuck-at faults are provably untestable",
        ),
        (
            "sat-untestable",
            "SAT proves 2 faults untestable beyond the implication pass (a/0, a/1)",
        ),
    ] {
        let entry = format!("{{\"severity\":\"info\",\"code\":\"{code}\",\"message\":\"{message}");
        assert!(stdout.contains(&entry), "missing {entry}: {stdout}");
    }
    assert!(
        stdout.contains("\"summary\":{\"errors\":0,\"warnings\":0,\"infos\":3}"),
        "{stdout}"
    );
}

#[test]
fn check_proves_the_twin_xor_constant_with_sat() {
    // d = XOR(XOR(a, b), XOR(b, a)) is constant 0, which no direct
    // implication sees: SAT proves the constant and d/0, and with d
    // constant, no fault on a or b reaches the output either
    let dir = unique_temp_dir("cli-check");
    let path = dir.join("twin-xor.bench");
    let src = "INPUT(a)\nINPUT(b)\nOUTPUT(d)\nw = XOR(a, b)\nz = XOR(b, a)\nd = XOR(w, z)\n";
    std::fs::write(&path, src).unwrap();
    let (code, stdout, stderr) = fbist_code(&["check", path.to_str().unwrap()]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(!stdout.contains("[implied-constant]"), "{stdout}");
    assert!(
        stdout.contains("info: [sat-constant] net \"d\" is constant 0 by SAT"),
        "{stdout}"
    );
    assert!(
        stdout.contains(
            "info: [sat-untestable] SAT proves 5 faults untestable beyond the implication pass \
             (a/0, a/1, b/0, b/1, d/0)"
        ),
        "{stdout}"
    );
    assert!(stdout.contains("0 errors, 0 warnings, 3 infos"), "{stdout}");
}

#[test]
fn check_applies_and_validates_jobs() {
    let (code, stdout, stderr) = fbist_code(&["check", "c17", "--jobs", "abc"]);
    assert_eq!(code, Some(2), "{stdout}{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("--jobs"), "{stderr}");
    // check runs the parallel PODEM rounds, whose results never depend on
    // the worker count
    for circuit in ["big3500", "s953"] {
        let (ok_1, out_1, err_1) = fbist(&["check", circuit, "--jobs", "1"]);
        let (ok_4, out_4, err_4) = fbist(&["check", circuit, "--jobs", "4"]);
        assert!(ok_1 && ok_4, "{circuit}: {err_1}{err_4}");
        assert!(out_1.contains("[untestable-faults]"), "{circuit}: {out_1}");
        assert_eq!(out_1, out_4, "{circuit}: --jobs changed the check report");
    }
}

#[test]
fn check_usage_errors_exit_two() {
    let (code, _, stderr) = fbist_code(&["check", "c99999"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    let (code, _, _) = fbist_code(&["check"]);
    assert_eq!(code, Some(2));
}

#[test]
fn check_reports_cycles_from_bench_files_by_full_path() {
    let dir = unique_temp_dir("cli-check");
    let path = dir.join("cyclic.bench");
    std::fs::write(&path, "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = NOT(x)\n").unwrap();
    let (code, _, stderr) = fbist_code(&["check", path.to_str().unwrap()]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(2), "cycle is a parse error: {stderr}");
    for name in ["combinational cycle", "x", "y", "->"] {
        assert!(stderr.contains(name), "missing {name:?}: {stderr}");
    }
}

#[test]
fn atpg_prepass_flag_is_gone_because_the_prepass_always_runs() {
    // spelled in halves, like the retired sweep-engine flag below, so the
    // flag's name occurs nowhere in live code
    let retired = ["--static", "-prepass"].concat();
    let (code, stdout, stderr) = fbist_code(&["atpg", "c17", &retired]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    let named = format!("unknown flag \"{retired}\" for `atpg`");
    assert!(stderr.contains(&named), "{stderr}");
}

#[test]
fn atpg_static_learning_flag_is_gone_with_learning_in_atpg() {
    // SAT completion leaves static learning nothing to do in ATPG; the
    // flag's name is spelled in halves, like the retired flags above
    let retired = ["--static", "-learning"].concat();
    let (code, stdout, stderr) = fbist_code(&["atpg", "c17", &retired]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    let named = format!("unknown flag \"{retired}\" for `atpg`");
    assert!(stderr.contains(&named), "{stderr}");
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let (ok, _, stderr) = fbist(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn unknown_circuit_error_names_every_namespace() {
    let (ok, _, stderr) = fbist(&["reseed", "c99999"]);
    assert!(!ok);
    for namespace in [".bench", "profile", "embedded"] {
        assert!(stderr.contains(namespace), "missing {namespace}: {stderr}");
    }
}

/// A file or directory in the cwd named like a built-in profile must not
/// shadow the profile (it used to be read as a `.bench` file, yielding a
/// parse failure or a confusing `EISDIR`).
#[test]
fn profile_name_shadowed_by_cwd_entries_still_resolves() {
    let dir = unique_temp_dir("cli-shadow");
    std::fs::create_dir_all(dir.join("tiny64")).unwrap(); // directory shadow
    std::fs::write(dir.join("mid256"), "not a bench file").unwrap(); // file shadow
    std::fs::write(dir.join("c17"), "garbage").unwrap(); // embedded shadow
    for name in ["tiny64", "mid256", "c17"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fbist"))
            .args(["stats", name])
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name} shadowed: {stderr}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("faults:"),
            "{name}: no stats output"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explicit_directory_path_gets_a_clear_error() {
    let dir = unique_temp_dir("cli-dirpath");
    std::fs::create_dir_all(dir.join("subdir")).unwrap();
    let path = dir.join("subdir");
    let (ok, _, stderr) = fbist(&["stats", path.to_str().unwrap()]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!ok);
    assert!(
        stderr.contains("is a directory, not a .bench file"),
        "{stderr}"
    );
}

#[test]
fn backend_flag_is_gone_with_the_sparse_engine() {
    // one covering engine is left, so the flag that picked one is an
    // unknown flag everywhere, and an `err` answer in serve
    for cmd in ["reseed", "sweep", "compare", "lp", "atpg", "stats"] {
        let (code, stdout, stderr) = fbist_code(&[cmd, "c17", "--backend", "dense"]);
        assert_eq!(code, Some(2), "{cmd}: {stderr}");
        assert!(stdout.is_empty(), "{cmd}: {stdout}");
        let named = format!("unknown flag \"--backend\" for `{cmd}`");
        assert!(stderr.contains(&named), "{cmd}: {stderr}");
    }
    let dir = unique_temp_dir("cli-backend");
    let script = dir.join("requests");
    std::fs::write(
        &script,
        "reseed c17 --backend dense
reseed c17 --tau 3
",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_fbist"))
        .args(["serve", "--jobs", "1"])
        .stdin(std::fs::File::open(&script).unwrap())
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(
        lines[0].starts_with("err 0 unknown flag \"--backend\""),
        "{stdout}"
    );
    assert!(lines[1].starts_with("ok 1 reseed c17"), "{stdout}");
}

#[test]
fn unknown_flags_fail_on_reseed_sweep_and_serve() {
    // the retired sweep engine, matrix build and SIMD width knobs
    // (spelled in halves, so their names occur nowhere in live code) and
    // a made-up flag must all fail loudly, naming themselves, instead of
    // being ignored
    let retired = ["--sweep", "-engine"].concat();
    let matrix = ["--matrix", "-build"].concat();
    let width = ["--simd", "-width"].concat();
    let mut cases = vec![
        ["sweep", "tiny64", retired.as_str(), "per-tau"],
        ["sweep", "tiny64", "--bogus-flag", "1"],
        ["reseed", "c17", retired.as_str(), "auto"],
        ["reseed", "c17", "--bogus-flag", "1"],
    ];
    for cmd in [
        "reseed", "sweep", "compare", "lp", "atpg", "gen", "stats", "check",
    ] {
        cases.push([cmd, "c17", matrix.as_str(), "batched"]);
        cases.push([cmd, "c17", width.as_str(), "4"]);
    }
    for args in cases {
        let (code, stdout, stderr) = fbist_code(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        let named = format!("unknown flag \"{}\"", args[2]);
        assert!(
            stderr.contains(&named) && stderr.contains("usage:"),
            "{args:?}: {stderr}"
        );
    }
    // serve answers `err` for such request lines and keeps answering the
    // ones a benchmark client sends (`serve --store DIR --jobs 1`)
    let dir = unique_temp_dir("cli-flags");
    let (store, script) = (dir.join("store"), dir.join("requests"));
    std::fs::write(
        &script,
        format!(
            "reseed c17 {retired} auto\nsweep c17 --bogus-flag 1\nreseed c17 --tau 3\nsweep c17\n\
             reseed c17 {matrix} batched\nsweep c17 {width} auto\nquit\n"
        ),
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_fbist"))
        .args(["serve", "--store", store.to_str().unwrap(), "--jobs", "1"])
        .stdin(std::fs::File::open(&script).unwrap())
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 6, "{stdout}");
    let retired_err = format!("err 0 unknown flag \"{retired}\"");
    assert!(lines[0].starts_with(&retired_err), "{stdout}");
    assert!(
        lines[1].starts_with("err 1 unknown flag \"--bogus-flag\""),
        "{stdout}"
    );
    assert!(lines[2].starts_with("ok 2 reseed c17"), "{stdout}");
    assert!(lines[3].starts_with("ok 3 sweep c17"), "{stdout}");
    let matrix_err = format!("err 4 unknown flag \"{matrix}\"");
    assert!(lines[4].starts_with(&matrix_err), "{stdout}");
    let width_err = format!("err 5 unknown flag \"{width}\"");
    assert!(lines[5].starts_with(&width_err), "{stdout}");
}

#[test]
fn duplicate_and_valueless_flags_fail_on_the_cli_and_in_serve() {
    for (args, named) in [
        (
            &["reseed", "c17", "--tpg", "add", "--tpg", "lfsr"][..],
            "duplicate flag \"--tpg\" for `reseed`",
        ),
        (
            &["sweep", "c17", "--jobs", "1", "--jobs", "2"][..],
            "duplicate flag \"--jobs\" for `sweep`",
        ),
        (
            &["check", "c17", "--json", "--json"][..],
            "duplicate flag \"--json\" for `check`",
        ),
        (
            &["reseed", "c17", "--tau"][..],
            "flag \"--tau\" for `reseed` expects a value",
        ),
        (
            &["reseed", "c17", "--tpg", "--tau", "3"][..],
            "flag \"--tpg\" for `reseed` expects a value",
        ),
    ] {
        let (code, stdout, stderr) = fbist_code(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        assert!(
            stderr.contains(named) && stderr.contains("usage:"),
            "{args:?}: {stderr}"
        );
    }
    let dir = unique_temp_dir("cli-dup");
    let script = dir.join("requests");
    std::fs::write(
        &script,
        "reseed c17 --tpg add --tpg lfsr\nreseed c17 --tau\nreseed c17 --tau 3\nquit\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_fbist"))
        .args(["serve", "--jobs", "1"])
        .stdin(std::fs::File::open(&script).unwrap())
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(
        lines[0].starts_with("err 0 duplicate flag \"--tpg\""),
        "{stdout}"
    );
    assert!(
        lines[1].starts_with("err 1 flag \"--tau\" for `reseed` expects a value"),
        "{stdout}"
    );
    assert!(lines[2].starts_with("ok 2 reseed c17"), "{stdout}");
}

#[test]
fn closed_stdout_pipe_exits_quietly() {
    // `true` exits without reading, so the lines the sweep prints once it
    // has computed hit a closed pipe; that used to panic with status 101
    let dir = unique_temp_dir("cli-epipe");
    let (stderr_file, status_file) = (dir.join("stderr"), dir.join("status"));
    let out = Command::new("sh")
        .args([
            "-c",
            r#"("$0" sweep mid256 --taus 0,7 2>"$1"; echo $? >"$2") | true"#,
            env!("CARGO_BIN_EXE_fbist"),
            stderr_file.to_str().unwrap(),
            status_file.to_str().unwrap(),
        ])
        .output()
        .expect("sh runs");
    let status = std::fs::read_to_string(&status_file).unwrap();
    let stderr = std::fs::read_to_string(&stderr_file).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success());
    assert_eq!(status.trim(), "0", "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn sweep_rejects_empty_tau_list() {
    let (ok, _, stderr) = fbist(&["sweep", "tiny64", "--taus", ""]);
    assert!(!ok, "empty --taus must be rejected");
    assert!(stderr.contains("empty τ list"), "{stderr}");
    let (ok, _, stderr) = fbist(&["sweep", "tiny64", "--taus", "  "]);
    assert!(!ok);
    assert!(stderr.contains("empty τ list"), "{stderr}");
}

#[test]
fn sweep_rejects_malformed_tau_values() {
    for bad in ["1,,2", "1,banana", "-3"] {
        let (ok, _, stderr) = fbist(&["sweep", "tiny64", "--taus", bad]);
        assert!(!ok, "--taus {bad} must be rejected");
        assert!(stderr.contains("invalid τ value"), "--taus {bad}: {stderr}");
    }
}

#[test]
fn sweep_dedupes_tau_values_preserving_order() {
    // duplicates used to silently double the covering work; now each τ is
    // computed once and the table keeps first-occurrence order
    let (ok, stdout, _) = fbist(&["sweep", "tiny64", "--taus", "7,0,7,7,3"]);
    assert!(ok);
    let rows: Vec<&str> = stdout
        .lines()
        .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
        .collect();
    assert_eq!(rows.len(), 3, "{stdout}");
    let taus: Vec<&str> = rows
        .iter()
        .map(|r| r.split_whitespace().next().unwrap())
        .collect();
    assert_eq!(taus, ["7", "0", "3"], "{stdout}");
}

#[test]
fn tau_values_over_the_bound_are_rejected() {
    // τ > FlowConfig::MAX_TAU used to overflow τ + 1 in release builds
    let huge = usize::MAX.to_string();
    let (ok, _, stderr) = fbist(&["reseed", "c17", "--tau", &huge]);
    assert!(!ok, "--tau {huge} must be rejected");
    assert!(stderr.contains("exceeds the supported maximum"), "{stderr}");
    // the first value over the bound is rejected too (exact boundary —
    // MAX_TAU itself passing validation is pinned by the parse_taus unit
    // tests in the binary, where accepting it does not cost a 16M-pattern
    // expansion)
    let (ok, _, stderr) = fbist(&["sweep", "tiny64", "--taus", "0,16777216"]);
    assert!(!ok);
    assert!(stderr.contains("exceeds the supported maximum"), "{stderr}");
}

#[test]
fn jobs_flag_accepts_zero_as_auto() {
    let (ok, stdout, stderr) = fbist(&["reseed", "c17", "--tau", "3", "--jobs", "0"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("triplets"), "{stdout}");
}

#[test]
fn jobs_flag_accepts_explicit_count_with_identical_output() {
    let (ok1, out1, _) = fbist(&["reseed", "c17", "--tau", "3", "--jobs", "1"]);
    let (ok4, out4, _) = fbist(&["reseed", "c17", "--tau", "3", "--jobs", "4"]);
    assert!(ok1 && ok4);
    assert_eq!(out1, out4, "--jobs must never change results");
}

#[test]
fn jobs_flag_rejects_garbage_with_clear_error() {
    for bad in ["banana", "-2", "1.5"] {
        let (ok, _, stderr) = fbist(&["reseed", "c17", "--jobs", bad]);
        assert!(!ok, "--jobs {bad} must be rejected");
        assert!(
            stderr.contains("invalid value for --jobs"),
            "--jobs {bad}: {stderr}"
        );
        assert!(stderr.contains("0 = auto"), "--jobs {bad}: {stderr}");
    }
}

#[test]
fn jobs_env_var_is_honoured_and_flag_beats_it() {
    // `fbist profiles` prints the resolved worker count, so the env path
    // is observable: a regression in the FBIST_JOBS lookup fails here
    let resolved = |args: &[&str], env_jobs: Option<&str>| -> String {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_fbist"));
        cmd.args(args);
        if let Some(v) = env_jobs {
            cmd.env("FBIST_JOBS", v);
        }
        let out = cmd.output().expect("binary runs");
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        stdout
            .lines()
            .find(|l| l.starts_with("worker pool:"))
            .unwrap_or_else(|| panic!("no worker-pool line in {stdout}"))
            .to_owned()
    };
    assert!(resolved(&["profiles"], Some("2")).contains("worker pool: 2 jobs"));
    assert!(resolved(&["profiles", "--jobs", "5"], Some("2")).contains("worker pool: 5 jobs"));
}

#[test]
fn rom_and_csv_exports() {
    let dir = unique_temp_dir("cli-export");
    let csv = dir.join("sol.csv");
    let rom = dir.join("sol.rom");
    let (ok, _, stderr) = fbist(&[
        "reseed",
        "c17",
        "--tau",
        "7",
        "--csv",
        csv.to_str().unwrap(),
        "--rom",
        rom.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let csv_text = std::fs::read_to_string(&csv).unwrap();
    assert!(csv_text.starts_with("index,kind,delta,theta,tau"));
    let rom_text = std::fs::read_to_string(&rom).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(rom_text.starts_with("# seed ROM:"));
}

#[test]
fn lfsr_on_a_one_input_circuit_is_rejected_without_a_panic() {
    let dir = unique_temp_dir("cli-one-input");
    let bench = dir.join("one.bench");
    std::fs::write(&bench, "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n").unwrap();
    let path = bench.to_str().unwrap();
    for (cmd, tpg) in [("reseed", "lfsr"), ("sweep", "mplfsr"), ("compare", "lfsr")] {
        let (code, stdout, stderr) = fbist_code(&[cmd, path, "--tpg", tpg]);
        assert_eq!(code, Some(1), "{cmd} {tpg}: {stderr}");
        assert!(stdout.is_empty(), "{cmd} {tpg}: {stdout}");
        assert!(
            stderr.contains(&format!("TPG {tpg} needs a circuit with at least 2 inputs"))
                && stderr.contains("has 1")
                && !stderr.contains("panicked"),
            "{cmd} {tpg}: {stderr}"
        );
    }
    // in serve the request answers `err` and its batch siblings still
    // answer
    let script = dir.join("requests");
    std::fs::write(
        &script,
        format!("reseed {path} --tpg lfsr\nreseed {path} --tpg add\nreseed c17 --tau 3\nquit\n"),
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_fbist"))
        .args(["serve", "--jobs", "1"])
        .stdin(std::fs::File::open(&script).unwrap())
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(
        lines[0].starts_with("err 0 TPG lfsr needs a circuit with at least 2 inputs"),
        "{stdout}"
    );
    assert!(lines[1].starts_with("ok 1 reseed"), "{stdout}");
    assert!(lines[2].starts_with("ok 2 reseed c17"), "{stdout}");
}

#[test]
fn a_scale_out_of_range_is_rejected_without_a_panic() {
    // non-positive, non-finite, and so large that synthesis would
    // exhaust memory
    for scale in ["0", "-1", "nan", "inf", "16777216", "1e20"] {
        for cmd in ["stats", "gen"] {
            let (code, _, stderr) = fbist_code(&[cmd, "mid256", "--scale", scale]);
            assert_eq!(code, Some(1), "{cmd} --scale {scale}: {stderr}");
            assert!(
                stderr.contains("invalid value for --scale") && !stderr.contains("panicked"),
                "{cmd} --scale {scale}: {stderr}"
            );
        }
    }
}

/// The `cone_sweeps=<roots>/<faults>` token of a stats line.
fn cone_sweeps_token(stderr: &str) -> String {
    stderr
        .split_whitespace()
        .find(|t| t.starts_with("cone_sweeps="))
        .unwrap_or_else(|| panic!("no cone_sweeps in {stderr}"))
        .to_owned()
}

#[test]
fn cone_sweep_counter_is_identical_at_every_job_count() {
    // counted per block range with a per-range memo, so the pool's
    // scheduling never moves it; the sim_blocks token CI greps for keeps
    // its place in front of it
    let run = |jobs: &str| {
        let dir = unique_temp_dir("cone-sweeps");
        let store = dir.to_str().unwrap().to_owned();
        let (ok, _, err) = fbist(&[
            "reseed", "mid256", "--tau", "7", "--jobs", jobs, "--store", &store,
        ]);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(ok, "{err}");
        assert!(err.contains(" sim_blocks="), "{err}");
        cone_sweeps_token(&err)
    };
    let one = run("1");
    assert_ne!(one, "cone_sweeps=0/0");
    assert_eq!(one, run("4"));
}
