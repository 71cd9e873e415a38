//! A report binary whose reader has gone away (`table3 | head -1`) ends
//! with exit status 1 and one line on stderr, as `resim` does, not with a
//! panic and a backtrace.

use std::io;
use std::process::{Command, Stdio};

/// Runs `bin` with its stdout on a pipe whose read end is already
/// closed, so its first write fails.
fn run_into_closed_pipe(bin: &str) -> (Option<i32>, String) {
    let (reader, writer) = io::pipe().expect("a pipe");
    drop(reader);
    let output = Command::new(bin)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn the report binary");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    (output.status.code(), stderr)
}

#[test]
fn report_binaries_exit_1_on_a_closed_pipe() {
    for bin in [env!("CARGO_BIN_EXE_fig1"), env!("CARGO_BIN_EXE_table3")] {
        let (code, stderr) = run_into_closed_pipe(bin);
        assert_eq!(code, Some(1), "{bin}: stderr {stderr:?}");
        assert!(
            stderr.starts_with("cannot write output: "),
            "{bin}: stderr {stderr:?}"
        );
        assert_eq!(stderr.lines().count(), 1, "{bin}: stderr {stderr:?}");
        assert!(!stderr.contains("panicked"), "{bin}: stderr {stderr:?}");
    }
}
