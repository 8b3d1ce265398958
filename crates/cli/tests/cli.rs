//! Drives the built `irma` binary to pin how `main()` maps outcomes to
//! exit codes: `help` exits 0 with the usage on stdout, a runtime error
//! exits 1, and every rejected command line exits 2 with `error: …` and
//! then the usage on stderr, before any trace work starts.

use std::process::{Command, Output};

fn irma(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_irma"))
        .args(args)
        .output()
        .expect("the irma binary runs")
}

fn usage() -> String {
    String::from_utf8(irma(&["help"]).stdout).expect("utf-8 usage")
}

#[test]
fn help_exits_zero_with_the_usage_on_stdout() {
    let out = irma(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("irma — "), "{stdout}");
    assert!(stdout.contains("\nUSAGE:\n") && stdout.contains("\nEXIT CODES:\n"));
    assert!(out.stderr.is_empty());
}

#[test]
fn a_runtime_error_exits_one() {
    let out = irma(&["trace", "no-such-trace-log.jsonl"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.starts_with("error: reading trace log no-such-trace-log.jsonl"),
        "{stderr}"
    );
}

#[test]
fn every_rejected_command_line_exits_two_with_error_then_usage() {
    let usage = usage();
    let rejected: [&[&str]; 11] = [
        &["frobnicate"],
        &["generate", "pai", "supercloud"],
        &["generate", "pai", "--bogus", "1"],
        &["generate", "pai", "--jobs"],
        &["analyze", "helios"],
        &["analyze", "pai", "--deadline", "fast"],
        &["analyze", "pai", "--threads", "0"],
        &["watch", "pai", "--window", "0"],
        &["serve", "--listen", "noport"],
        &["explain", "pai"],
        // An empty side is a usage error, found before the trace is
        // generated (small, so a run that does generate it stays quick).
        &[
            "explain",
            "pai",
            "--jobs",
            "300",
            "--rule",
            " => SM Util = 0%",
        ],
    ];
    for argv in rejected {
        let out = irma(argv);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?}");
        let message = stderr
            .strip_suffix(&usage)
            .unwrap_or_else(|| panic!("{argv:?}: no usage after the error: {stderr}"));
        assert!(
            message.starts_with("error: ")
                && message.ends_with("\n\n")
                && message.lines().count() == 2,
            "{argv:?}: {message:?}"
        );
    }
}
