//! The `fig` command line, driven as a subprocess: stdout of the figures
//! that need no capture is pinned byte-for-byte against their quick-scale
//! golden texts (`tests/expected/quick/`, the same files `fig_smoke`
//! compares the library's pages with), so the binary's own print path is
//! covered end to end; `--list` is pinned the same way, and a mistyped
//! flag or figure name is an error — not a silent paper-scale run.

use std::process::{Command, Output};

fn fig(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig"))
        .args(args)
        .output()
        .expect("fig binary runs")
}

fn stdout_of(args: &[&str]) -> String {
    let out = fig(args);
    assert!(out.status.success(), "fig {args:?} failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn capture_free_figures_print_the_pinned_text() {
    assert_eq!(
        stdout_of(&["table1_camps", "--quick"]),
        include_str!("expected/quick/table1_camps.txt")
    );
    assert_eq!(
        stdout_of(&["fig1_cache_trends", "--quick"]),
        include_str!("expected/quick/fig1_cache_trends.txt")
    );
}

#[test]
fn list_prints_the_registry() {
    assert_eq!(stdout_of(&["--list"]), include_str!("expected/list.txt"));
}

#[test]
fn unknown_flags_and_figures_exit_2_with_usage() {
    for (args, problem) in [
        (&["fig7_smp_cmp", "--quikc"][..], "unknown flag `--quikc`"),
        (&["--quikc"][..], "unknown flag `--quikc`"),
        (&["nosuchfig"][..], "unknown figure `nosuchfig`"),
        (&[][..], "expected exactly one figure name"),
        (
            &["fig7_smp_cmp", "fig8_core_count"][..],
            "expected exactly one figure name",
        ),
    ] {
        let out = fig(args);
        assert_eq!(out.status.code(), Some(2), "fig {args:?}");
        assert!(out.stdout.is_empty(), "fig {args:?} must print nothing");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(stderr.contains(problem), "fig {args:?}: {stderr}");
        assert!(stderr.contains("usage: fig <name> [--quick] | fig --list"));
        // The error carries the figure list, so the fix is one glance away.
        assert!(stderr.ends_with(include_str!("expected/list.txt")));
    }
}
