//! The binary's contract for bad input: exit 2 with the usage line,
//! before any sweep runs.

use std::process::Command;

#[test]
fn malformed_commands_exit_2_with_the_usage_line() {
    for line in [
        "",
        "nosuch",
        "fig6 x",
        "fig6 --scale",
        "memory --scale tiny",
        "ablation --bogus",
        "table2 insdel --threads 4",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(line.split_whitespace())
            .output()
            .expect("run bench");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "bench {line}: {stderr}");
        assert!(stderr.contains(bench::cli::USAGE), "bench {line}: {stderr}");
        assert!(out.stdout.is_empty(), "bench {line} printed results");
    }
}
