//! How `pamdc` reports its usage to a shell: asked for help, on
//! standard output with exit status 0; after a usage error, on standard
//! error with exit status 2.

use std::process::{Command, Output};

fn pamdc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pamdc"))
        .args(args)
        .output()
        .expect("pamdc starts")
}

#[test]
fn help_prints_usage_on_stdout_and_exits_0() {
    for args in [&["help"][..], &["--help"], &["-h"], &["help", "--quiet"]] {
        let out = pamdc(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(
            stdout.contains("USAGE") && stdout.contains("OPTIONS"),
            "{args:?}: {stdout}"
        );
        assert!(out.stderr.is_empty(), "{args:?}");
    }
}

#[test]
fn a_usage_error_prints_usage_on_stderr_and_exits_2() {
    for args in [
        &[][..],
        &["frobnicate"],
        &["run", "fig4", "--rate-scale", "2"],
        &["help", "run"],
    ] {
        let out = pamdc(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains("USAGE"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
