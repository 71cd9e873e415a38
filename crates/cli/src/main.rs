//! The `resim` binary: a thin shell over [`resim_cli::run_cli`].

use std::io::{stderr, stdout};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Unlocked handles: each write takes the lock only for itself, so
    // a print from any other thread never waits on this one for the
    // whole run (`resim serve` blocks in `run_cli` until shutdown).
    let code = resim_cli::run_cli(&args, &mut stdout(), &mut stderr());
    std::process::exit(code);
}
