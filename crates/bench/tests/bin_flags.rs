//! The paper-artefact binaries reject bad command lines with `fbist`'s
//! usage errors (exit status 2) before doing any work.

use std::process::Command;

/// Runs `bin` with `args` and returns its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Every kind of bad flag exits 2 with a message naming the flag.
fn assert_rejects_bad_flags(bin: &str, name: &str, numeric: &str) {
    let cases: [(&[&str], String); 4] = [
        (
            &["--bogus", "1"],
            format!("unknown flag \"--bogus\" for `{name}`"),
        ),
        (
            &[numeric, "1", numeric, "2"],
            format!("duplicate flag \"{numeric}\" for `{name}`"),
        ),
        (
            &[numeric],
            format!("flag \"{numeric}\" for `{name}` expects a value"),
        ),
        (
            &[numeric, "many"],
            format!("invalid value for {numeric}: \"many\""),
        ),
    ];
    for (args, message) in cases {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{name} {args:?}: {stderr}");
        assert!(stderr.contains(&message), "{name} {args:?}: {stderr}");
    }
}

#[test]
fn table1_rejects_bad_flags() {
    assert_rejects_bad_flags(env!("CARGO_BIN_EXE_table1"), "table1", "--tau");
}

#[test]
fn table2_rejects_bad_flags() {
    assert_rejects_bad_flags(env!("CARGO_BIN_EXE_table2"), "table2", "--tau");
}

#[test]
fn figure2_rejects_bad_flags() {
    assert_rejects_bad_flags(env!("CARGO_BIN_EXE_figure2"), "figure2", "--scale");
}
