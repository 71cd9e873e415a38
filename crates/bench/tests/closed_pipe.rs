//! The paper report, whose reader has gone away (`paper_report | head
//! -1`), ends with exit status 1 and one line on stderr, as `resim` does,
//! not with a panic and a backtrace.

use std::io;
use std::process::{Command, Stdio};

#[test]
fn paper_report_exits_1_on_a_closed_pipe() {
    // Its stdout is a pipe whose read end is already closed, so the
    // first write fails.
    let (reader, writer) = io::pipe().expect("a pipe");
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_paper_report"))
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn paper_report");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr {stderr:?}");
    assert!(
        stderr.starts_with("cannot write output: "),
        "stderr {stderr:?}"
    );
    assert_eq!(stderr.lines().count(), 1, "stderr {stderr:?}");
    assert!(!stderr.contains("panicked"), "stderr {stderr:?}");
}
