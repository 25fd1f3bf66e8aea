//! `wib-sim --help` / `-h` print the usage on stdout and exit 0; a bad
//! option still fails with the usage on stderr.

use std::process::Command;

fn wib_sim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_wib-sim"))
        .args(args)
        .output()
        .expect("wib-sim runs")
}

#[test]
fn help_prints_usage_and_succeeds() {
    for args in [&["--help"][..], &["-h"], &["run", "--help"]] {
        let out = wib_sim(args);
        assert!(out.status.success(), "{args:?}: {:?}", out.status);
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        assert!(stdout.starts_with("usage:"), "{args:?}: {stdout}");
        assert!(stdout.contains("wib-sim run <bench>"));
        assert!(out.stderr.is_empty(), "{args:?}");
    }
}

#[test]
fn unknown_option_still_fails_with_usage() {
    let out = wib_sim(&["run", "--bogus"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(
        stderr.starts_with("error: unknown option --bogus"),
        "{stderr}"
    );
    assert!(stderr.contains("usage:"));
}
