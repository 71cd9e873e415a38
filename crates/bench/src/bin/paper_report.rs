//! Writes the paper report, the Markdown of `docs/paper_report.md`, to
//! stdout (see `resim_bench::report`).
//!
//! Usage: `paper_report` (no arguments).

use std::io::{self, Write};

fn main() {
    let mut out = io::stdout().lock();
    resim_bench::exit_on_write_error(
        resim_bench::report::write_report(&mut out).and_then(|()| out.flush()),
    );
}
