//! The pinned help surface of the `resim` binary.
//!
//! These strings are golden-tested (`tests/golden_help.rs`): changing
//! one is an intentional CLI-surface change and requires re-pinning.

/// `resim --version`.
pub const VERSION: &str = concat!("resim ", env!("CARGO_PKG_VERSION"));

/// `resim --help` / `resim help`.
pub const MAIN_HELP: &str = "\
resim — trace-driven, reconfigurable ILP processor simulator (DATE 2009)

Subcommands are driven by declarative TOML scenario files; see
docs/guide.md for the quickstart and the full scenario-file reference.

USAGE:
    resim <COMMAND> [OPTIONS]

COMMANDS:
    trace      generate a workload trace and encode it to a file
    run        full-detail simulation of a trace file or inline workload
    profile    instrumented simulation: stage timings, occupancy heatmap,
               metrics/events export
    sample     SMARTS sampled simulation with confidence-bounded IPC
    sweep      scenario-grid execution with CSV/Markdown reports
    serve      persistent simulation service with a content-addressed
               result cache
    submit     send a scenario to a running `resim serve` instance
    describe   dump the resolved engine/memory/predictor configuration
    record     run and capture a replayable RSSN session file
    replay     re-execute a recorded session and diff the statistics
    help       print this help, or a subcommand's with `resim help <cmd>`

OPTIONS:
    -h, --help       print help
    -V, --version    print version
";

/// `resim trace --help`.
pub const TRACE_HELP: &str = "\
resim trace — generate a workload trace and encode it to a file

Generates the scenario's [workload] through the [tracegen] model
(wrong-path blocks included) and writes a versioned trace container
(magic \"RSTR\") that `resim run`, `resim sample` and `resim sweep`
replay without regenerating.

USAGE:
    resim trace --scenario <FILE> [OPTIONS]

OPTIONS:
    -s, --scenario <FILE>    TOML scenario file (required)
    -o, --out <FILE>         output path (default: [trace] file key,
                             then <workload>.trace)
        --budget <N>         override the [workload] budget key
        --seed <N>           override the [workload] seed key
        --layout <V>         body layout version: 1 (default, the
                             paper's Table 3 codec) or 2 (delta-encoded
                             PCs and run-length-encoded branch bits)
    -h, --help               print help
";

/// `resim run --help`.
pub const RUN_HELP: &str = "\
resim run — full-detail simulation of a trace file or inline workload

Simulates every record cycle-accurately on the [engine] configuration.
The trace comes from --trace, else from the scenario's [trace] file
key, else it is generated in memory from [workload] and [tracegen].

USAGE:
    resim run --scenario <FILE> [OPTIONS]

OPTIONS:
    -s, --scenario <FILE>    TOML scenario file (required)
    -t, --trace <FILE>       replay this trace container
        --profile            attach a metrics recorder and print the
                             profiling breakdown (see `resim profile`)
    -h, --help               print help
";

/// `resim profile --help`.
pub const PROFILE_HELP: &str = "\
resim profile — instrumented simulation with metrics and events export

Runs the scenario exactly like `resim run`, but with a collecting
metrics recorder attached: per-stage engine wall time, an occupancy
heatmap over IFQ/RB/LSQ, power-of-two throughput histograms, and a
bounded journal of pipeline events (occupancy samples, mispredict
recoveries, misfetches, cache misses). The recorder only observes —
the simulated statistics are bit-identical to `resim run`.

USAGE:
    resim profile --scenario <FILE> [OPTIONS]

OPTIONS:
    -s, --scenario <FILE>     TOML scenario file (required)
    -t, --trace <FILE>        replay this trace container
        --metrics-out <FILE>  write the resim.metrics/1 JSON document
        --events-out <FILE>   write the resim.events/1 JSONL stream
        --journal <N>         event-journal capacity (default 65536;
                              oldest events are dropped past the bound)
    -h, --help                print help
";

/// `resim sample --help`.
pub const SAMPLE_HELP: &str = "\
resim sample — SMARTS sampled simulation with confidence-bounded IPC

Runs the scenario's [sample] plan: detailed windows at the head of
sampled intervals, functional (or bounded) warmup in between, and a
Student-t 95 % confidence interval over the per-window IPCs. The trace
source is resolved exactly like `resim run`.

USAGE:
    resim sample --scenario <FILE> [OPTIONS]

OPTIONS:
    -s, --scenario <FILE>    TOML scenario file (required)
    -t, --trace <FILE>       replay this trace container
    -h, --help               print help
";

/// `resim sweep --help`.
pub const SWEEP_HELP: &str = "\
resim sweep — scenario-grid execution with CSV/Markdown reports

Runs the [sweep] grid (configs x workloads x budgets x seeds x modes)
on a deterministic worker pool: per-cell statistics are bit-identical
at any thread count. Trace files whose header matches a grid cell are
replayed instead of regenerated.

USAGE:
    resim sweep --scenario <FILE> [OPTIONS]

OPTIONS:
    -s, --scenario <FILE>      TOML scenario file (required)
    -j, --threads <N>          worker threads (default: [sweep] threads
                               key, then all cores)
        --csv <FILE>           write the per-cell CSV report
        --stable-csv <FILE>    write the deterministic CSV (no wall_us
                               column; byte-identical across runs)
        --md <FILE>            write the Markdown report
        --trace-file <FILE>    preload this trace container into the
                               trace cache (repeatable; also read from
                               the [sweep] trace_files key)
        --progress             print per-phase progress lines (tracegen,
                               then simulate) before the report
    -h, --help                 print help
";

/// `resim serve --help`.
pub const SERVE_HELP: &str = "\
resim serve — persistent simulation service with a result cache

Listens for line-delimited JSON requests over TCP (schema
resim.serve/1; verbs ping, submit, status, wait, metrics, shutdown)
and executes submitted scenarios through the sweep runner. Every
simulated grid cell is stored in a content-addressed result cache
keyed by a platform-stable fingerprint of everything that determines
its statistics; with --cache-dir the cache also spills to checksummed
on-disk entries, so identical cells are answered without simulation
across requests and across server restarts. Jobs execute serially
(exactly-once under concurrent identical submissions); parallelism
lives inside a job. Runs until a shutdown verb arrives, then drains
cleanly. See docs/guide.md for the wire-level reference.

USAGE:
    resim serve [OPTIONS]

OPTIONS:
        --addr <HOST:PORT>    listen address (default 127.0.0.1:20009;
                              port 0 picks a free port)
        --cache-dir <DIR>     persist cache entries here (created if
                              missing; default: in-memory only)
    -j, --threads <N>         per-job sweep worker threads (default:
                              all cores)
    -h, --help                print help
";

/// `resim submit --help`.
pub const SUBMIT_HELP: &str = "\
resim submit — send a scenario to a running `resim serve` instance

Submits the scenario file's text to the server, waits for the job to
finish, and prints the deterministic per-cell CSV report — bit-identical
to `resim sweep --stable-csv` of the same scenario — plus a summary of
how many cells were simulated versus served from the result cache.
Action flags compose on one connection, executed in order: --ping,
then the submission (if -s is given), then --metrics, then --shutdown;
with an action flag the scenario itself is optional.

USAGE:
    resim submit --scenario <FILE> [OPTIONS]
    resim submit [--ping] [--metrics] [--shutdown]

OPTIONS:
    -s, --scenario <FILE>     TOML scenario file to submit
        --addr <HOST:PORT>    server address (default 127.0.0.1:20009)
        --progress            print streamed progress lines (tracegen,
                              then simulate) before the report
        --ping                probe the server and print its response
        --metrics             print the server's counter snapshot
        --shutdown            ask the server to stop cleanly
    -h, --help                print help
";

/// `resim describe --help`.
pub const DESCRIBE_HELP: &str = "\
resim describe — dump the resolved engine/memory/predictor configuration

Resolves the scenario and prints the simulated machine's block diagram
(paper Figure 1) with every structure size, the trace-generator
settings, and — when present — the sample plan and sweep grid shape.
No simulation runs.

USAGE:
    resim describe --scenario <FILE>

OPTIONS:
    -s, --scenario <FILE>    TOML scenario file (required)
    -h, --help               print help
";

/// `resim record --help`.
pub const RECORD_HELP: &str = "\
resim record — run and capture a replayable RSSN session file

Executes the scenario's run — full-detail, sampled (when a [sample]
section is present), or one cell of its grid with --cell — and writes a
versioned session record (magic \"RSSN\") capturing every
nondeterministic input: engine and tracegen fingerprints, workload,
seed, budget, sample plan, the scenario text itself, the resulting
statistics with a digest, and (for --trace runs) the whole trace
container, so `resim replay` re-executes bit-identically anywhere.

USAGE:
    resim record --scenario <FILE> [OPTIONS]

OPTIONS:
    -s, --scenario <FILE>    TOML scenario file (required)
    -t, --trace <FILE>       run this trace container and embed it in
                             the session (self-contained replay)
    -o, --out <FILE>         session path (default: <workload>.rssn,
                             or <workload>-cell<N>.rssn with --cell)
        --cell <N>           record cell N of the scenario's grid
                             (the [sweep] grid, else its one cell)
    -h, --help               print help
";

/// `resim replay --help`.
pub const REPLAY_HELP: &str = "\
resim replay — re-execute a recorded session and diff the statistics

Loads an RSSN session file, re-parses its embedded scenario,
cross-checks the engine and tracegen fingerprints, re-executes the run
(from the embedded trace container when present, else by regenerating
from the recorded workload/seed/budget), and compares every statistics
field against what was recorded. Exits non-zero on any divergence.

USAGE:
    resim replay --session <FILE>

OPTIONS:
    -s, --session <FILE>    RSSN session file (required)
    -h, --help              print help
";
