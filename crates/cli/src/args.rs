//! Hand-rolled argument parsing for the `resim` binary (no external
//! dependencies, like everything else in this workspace).

/// Where `resim serve` listens and `resim submit` connects when
/// `--addr` is not given (the port is a nod to the paper's year).
pub const DEFAULT_ADDR: &str = "127.0.0.1:20009";

/// A fully parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `resim trace`.
    Trace {
        /// Scenario file path.
        scenario: String,
        /// `--out` override of the output path.
        out: Option<String>,
        /// `--budget` override of the `[workload]` budget.
        budget: Option<usize>,
        /// `--seed` override of the `[workload]` seed.
        seed: Option<u64>,
        /// `--layout` body layout version (default 1).
        layout: Option<u16>,
    },
    /// `resim run`.
    Run {
        /// Scenario file path.
        scenario: String,
        /// `--trace` input container.
        trace: Option<String>,
        /// `--profile` switch: attach a metrics recorder and print the
        /// profiling breakdown.
        profile: bool,
    },
    /// `resim profile`.
    Profile {
        /// Scenario file path.
        scenario: String,
        /// `--trace` input container.
        trace: Option<String>,
        /// `--metrics-out` metrics JSON path.
        metrics_out: Option<String>,
        /// `--events-out` events JSONL path.
        events_out: Option<String>,
        /// `--journal` event-journal capacity override.
        journal: Option<usize>,
    },
    /// `resim sample`.
    Sample {
        /// Scenario file path.
        scenario: String,
        /// `--trace` input container.
        trace: Option<String>,
    },
    /// `resim sweep`.
    Sweep {
        /// Scenario file path.
        scenario: String,
        /// `--threads` override.
        threads: Option<usize>,
        /// `--csv` report path.
        csv: Option<String>,
        /// `--stable-csv` report path (deterministic rendering).
        stable_csv: Option<String>,
        /// `--md` report path.
        md: Option<String>,
        /// `--trace-file` containers to preload (repeatable).
        trace_files: Vec<String>,
        /// `--progress` switch: print per-phase progress lines.
        progress: bool,
    },
    /// `resim describe`.
    Describe {
        /// Scenario file path.
        scenario: String,
    },
    /// `resim record`.
    Record {
        /// Scenario file path.
        scenario: String,
        /// `--trace` input container (embedded into the session).
        trace: Option<String>,
        /// `--out` override of the session path.
        out: Option<String>,
        /// `--cell` sweep-grid cell index to record.
        cell: Option<usize>,
    },
    /// `resim replay`.
    Replay {
        /// Session record path.
        session: String,
    },
    /// `resim serve`.
    Serve {
        /// `--addr` listen address (default `DEFAULT_ADDR`).
        addr: String,
        /// `--cache-dir` on-disk result-cache directory (default:
        /// in-memory only, results do not survive a restart).
        cache_dir: Option<String>,
        /// `--threads` per-job sweep worker-pool size.
        threads: Option<usize>,
    },
    /// `resim submit`.
    Submit {
        /// Scenario file to submit (optional when an action flag is
        /// given).
        scenario: Option<String>,
        /// `--addr` server address (default `DEFAULT_ADDR`).
        addr: String,
        /// `--progress` switch: print streamed progress lines.
        progress: bool,
        /// `--ping` action: probe the server first.
        ping: bool,
        /// `--metrics` action: print the counter snapshot after.
        metrics: bool,
        /// `--shutdown` action: stop the server last.
        shutdown: bool,
    },
    /// `resim help [topic]`, `resim --help`, or `resim <cmd> --help`.
    Help(Option<String>),
    /// `resim --version`.
    Version,
}

/// Parses everything after the program name.
///
/// # Errors
///
/// A usage message (no line numbers — these are command-line, not
/// scenario-file, problems).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().map(String::as_str);
    let Some(cmd) = it.next() else {
        return Ok(Command::Help(None));
    };
    match cmd {
        "-h" | "--help" | "help" => Ok(Command::Help(it.next().map(str::to_string))),
        "-V" | "--version" => Ok(Command::Version),
        "trace" | "run" | "profile" | "sample" | "sweep" | "serve" | "submit" | "describe"
        | "record" | "replay" => parse_subcommand(cmd, &args[1..]),
        other => Err(format!(
            "unknown command {other:?} (expected trace, run, profile, sample, sweep, \
             serve, submit, describe, record, replay or help)"
        )),
    }
}

fn parse_subcommand(cmd: &str, rest: &[String]) -> Result<Command, String> {
    let mut scenario: Option<String> = None;
    let mut out: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut budget: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut layout: Option<u16> = None;
    let mut cell: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut csv: Option<String> = None;
    let mut stable_csv: Option<String> = None;
    let mut md: Option<String> = None;
    let mut trace_files: Vec<String> = Vec::new();
    let mut metrics_out: Option<String> = None;
    let mut events_out: Option<String> = None;
    let mut journal: Option<usize> = None;
    let mut profile = false;
    let mut progress = false;
    let mut addr: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut ping = false;
    let mut metrics = false;
    let mut shutdown = false;

    let mut it = rest.iter().map(String::as_str).peekable();
    while let Some(flag) = it.next() {
        // A flag's operand, or a usage error naming the flag.
        macro_rules! value {
            () => {
                it.next()
                    .ok_or_else(|| format!("{flag} requires a value"))?
            };
        }
        match flag {
            "-h" | "--help" => return Ok(Command::Help(Some(cmd.to_string()))),
            // `replay` takes a session file, not a scenario; `-s` is
            // its short form there too. `serve` takes neither — its
            // scenarios arrive over the wire.
            "-s" | "--session" if cmd == "replay" => scenario = Some(value!().to_string()),
            "-s" | "--scenario" if cmd != "replay" && cmd != "serve" => {
                scenario = Some(value!().to_string());
            }
            "-o" | "--out" if cmd == "trace" || cmd == "record" => {
                out = Some(value!().to_string());
            }
            "-t" | "--trace"
                if cmd == "run" || cmd == "profile" || cmd == "sample" || cmd == "record" =>
            {
                trace = Some(value!().to_string());
            }
            "--profile" if cmd == "run" => profile = true,
            "--metrics-out" if cmd == "profile" => metrics_out = Some(value!().to_string()),
            "--events-out" if cmd == "profile" => events_out = Some(value!().to_string()),
            "--journal" if cmd == "profile" => journal = Some(parse_num(flag, value!())?),
            "--progress" if cmd == "sweep" || cmd == "submit" => progress = true,
            "--addr" if cmd == "serve" || cmd == "submit" => addr = Some(value!().to_string()),
            "--cache-dir" if cmd == "serve" => cache_dir = Some(value!().to_string()),
            "--ping" if cmd == "submit" => ping = true,
            "--metrics" if cmd == "submit" => metrics = true,
            "--shutdown" if cmd == "submit" => shutdown = true,
            "--budget" if cmd == "trace" => budget = Some(parse_num(flag, value!())?),
            "--seed" if cmd == "trace" => seed = Some(parse_num(flag, value!())?),
            "--layout" if cmd == "trace" => layout = Some(parse_num(flag, value!())?),
            "--cell" if cmd == "record" => cell = Some(parse_num(flag, value!())?),
            "-j" | "--threads" if cmd == "sweep" || cmd == "serve" => {
                threads = Some(parse_num(flag, value!())?);
            }
            "--csv" if cmd == "sweep" => csv = Some(value!().to_string()),
            "--stable-csv" if cmd == "sweep" => stable_csv = Some(value!().to_string()),
            "--md" if cmd == "sweep" => md = Some(value!().to_string()),
            "--trace-file" if cmd == "sweep" => trace_files.push(value!().to_string()),
            other => return Err(format!("unknown option {other:?} for `resim {cmd}`")),
        }
    }
    // The service commands do not require a scenario file: `serve`
    // never takes one, and `submit` can be a pure action invocation
    // (--ping / --metrics / --shutdown).
    if cmd == "serve" {
        return Ok(Command::Serve {
            addr: addr.unwrap_or_else(|| DEFAULT_ADDR.to_string()),
            cache_dir,
            threads,
        });
    }
    if cmd == "submit" {
        if scenario.is_none() && !ping && !metrics && !shutdown {
            return Err(
                "`resim submit` requires --scenario <FILE>, or at least one of \
                 --ping, --metrics, --shutdown"
                    .to_string(),
            );
        }
        return Ok(Command::Submit {
            scenario,
            addr: addr.unwrap_or_else(|| DEFAULT_ADDR.to_string()),
            progress,
            ping,
            metrics,
            shutdown,
        });
    }
    let scenario = scenario.ok_or_else(|| {
        let key = if cmd == "replay" {
            "session"
        } else {
            "scenario"
        };
        format!("`resim {cmd}` requires --{key} <FILE>")
    })?;
    Ok(match cmd {
        "trace" => Command::Trace {
            scenario,
            out,
            budget,
            seed,
            layout,
        },
        "run" => Command::Run {
            scenario,
            trace,
            profile,
        },
        "profile" => Command::Profile {
            scenario,
            trace,
            metrics_out,
            events_out,
            journal,
        },
        "sample" => Command::Sample { scenario, trace },
        "sweep" => Command::Sweep {
            scenario,
            threads,
            csv,
            stable_csv,
            md,
            trace_files,
            progress,
        },
        "describe" => Command::Describe { scenario },
        "record" => Command::Record {
            scenario,
            trace,
            out,
            cell,
        },
        "replay" => Command::Replay { session: scenario },
        _ => unreachable!("caller matched the command"),
    })
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: invalid number {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Command, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse(&owned)
    }

    #[test]
    fn help_and_version() {
        assert_eq!(p(&[]), Ok(Command::Help(None)));
        assert_eq!(p(&["--help"]), Ok(Command::Help(None)));
        assert_eq!(
            p(&["help", "sweep"]),
            Ok(Command::Help(Some("sweep".into())))
        );
        assert_eq!(p(&["run", "--help"]), Ok(Command::Help(Some("run".into()))));
        assert_eq!(p(&["-V"]), Ok(Command::Version));
    }

    #[test]
    fn subcommands_parse() {
        assert_eq!(
            p(&[
                "trace", "-s", "a.toml", "-o", "t.trace", "--budget", "5000", "--seed", "7",
                "--layout", "2"
            ]),
            Ok(Command::Trace {
                scenario: "a.toml".into(),
                out: Some("t.trace".into()),
                budget: Some(5000),
                seed: Some(7),
                layout: Some(2),
            })
        );
        assert_eq!(
            p(&["run", "--scenario", "a.toml", "--trace", "t.trace"]),
            Ok(Command::Run {
                scenario: "a.toml".into(),
                trace: Some("t.trace".into()),
                profile: false,
            })
        );
        assert_eq!(
            p(&["run", "-s", "a.toml", "--profile"]),
            Ok(Command::Run {
                scenario: "a.toml".into(),
                trace: None,
                profile: true,
            })
        );
        assert_eq!(
            p(&[
                "sweep",
                "-s",
                "a.toml",
                "-j",
                "2",
                "--stable-csv",
                "r.csv",
                "--trace-file",
                "x.trace",
                "--trace-file",
                "y.trace"
            ]),
            Ok(Command::Sweep {
                scenario: "a.toml".into(),
                threads: Some(2),
                csv: None,
                stable_csv: Some("r.csv".into()),
                md: None,
                trace_files: vec!["x.trace".into(), "y.trace".into()],
                progress: false,
            })
        );
        assert_eq!(
            p(&["sweep", "-s", "a.toml", "--progress"]),
            Ok(Command::Sweep {
                scenario: "a.toml".into(),
                threads: None,
                csv: None,
                stable_csv: None,
                md: None,
                trace_files: vec![],
                progress: true,
            })
        );
        assert_eq!(
            p(&["describe", "-s", "a.toml"]),
            Ok(Command::Describe {
                scenario: "a.toml".into()
            })
        );
    }

    #[test]
    fn profile_parses() {
        assert_eq!(
            p(&[
                "profile",
                "-s",
                "a.toml",
                "-t",
                "t.trace",
                "--metrics-out",
                "m.json",
                "--events-out",
                "e.jsonl",
                "--journal",
                "1024"
            ]),
            Ok(Command::Profile {
                scenario: "a.toml".into(),
                trace: Some("t.trace".into()),
                metrics_out: Some("m.json".into()),
                events_out: Some("e.jsonl".into()),
                journal: Some(1024),
            })
        );
        assert_eq!(
            p(&["profile", "--scenario", "a.toml"]),
            Ok(Command::Profile {
                scenario: "a.toml".into(),
                trace: None,
                metrics_out: None,
                events_out: None,
                journal: None,
            })
        );
        assert!(p(&["profile"]).unwrap_err().contains("--scenario"));
        assert!(p(&["profile", "-s", "a", "--journal", "big"])
            .unwrap_err()
            .contains("invalid number"));
        assert!(p(&["run", "-s", "a", "--metrics-out", "m.json"])
            .unwrap_err()
            .contains("unknown option"));
        assert!(p(&["profile", "-s", "a", "--profile"])
            .unwrap_err()
            .contains("unknown option"));
    }

    #[test]
    fn record_and_replay_parse() {
        assert_eq!(
            p(&["record", "-s", "a.toml", "-t", "x.trace", "-o", "a.rssn", "--cell", "3"]),
            Ok(Command::Record {
                scenario: "a.toml".into(),
                trace: Some("x.trace".into()),
                out: Some("a.rssn".into()),
                cell: Some(3),
            })
        );
        assert_eq!(
            p(&["record", "--scenario", "a.toml"]),
            Ok(Command::Record {
                scenario: "a.toml".into(),
                trace: None,
                out: None,
                cell: None,
            })
        );
        assert_eq!(
            p(&["replay", "--session", "a.rssn"]),
            Ok(Command::Replay {
                session: "a.rssn".into()
            })
        );
        assert_eq!(
            p(&["replay", "-s", "a.rssn"]),
            Ok(Command::Replay {
                session: "a.rssn".into()
            })
        );
        assert!(p(&["replay"]).unwrap_err().contains("--session"));
        assert!(p(&["replay", "--scenario", "a"])
            .unwrap_err()
            .contains("unknown option"));
        assert!(p(&["record", "-s", "a", "--cell", "x"])
            .unwrap_err()
            .contains("invalid number"));
        assert!(p(&["replay", "-s", "a", "--cell", "1"])
            .unwrap_err()
            .contains("unknown option"));
    }

    #[test]
    fn serve_parses() {
        assert_eq!(
            p(&["serve"]),
            Ok(Command::Serve {
                addr: DEFAULT_ADDR.into(),
                cache_dir: None,
                threads: None,
            })
        );
        assert_eq!(
            p(&[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--cache-dir",
                "cache",
                "-j",
                "2"
            ]),
            Ok(Command::Serve {
                addr: "127.0.0.1:0".into(),
                cache_dir: Some("cache".into()),
                threads: Some(2),
            })
        );
        // Serve has no scenario: its work arrives over the wire.
        assert!(p(&["serve", "-s", "a.toml"])
            .unwrap_err()
            .contains("unknown option"));
        assert!(p(&["serve", "--ping"])
            .unwrap_err()
            .contains("unknown option"));
    }

    #[test]
    fn submit_parses() {
        assert_eq!(
            p(&["submit", "-s", "a.toml"]),
            Ok(Command::Submit {
                scenario: Some("a.toml".into()),
                addr: DEFAULT_ADDR.into(),
                progress: false,
                ping: false,
                metrics: false,
                shutdown: false,
            })
        );
        assert_eq!(
            p(&[
                "submit",
                "-s",
                "a.toml",
                "--addr",
                "127.0.0.1:7",
                "--progress",
                "--ping",
                "--metrics",
                "--shutdown"
            ]),
            Ok(Command::Submit {
                scenario: Some("a.toml".into()),
                addr: "127.0.0.1:7".into(),
                progress: true,
                ping: true,
                metrics: true,
                shutdown: true,
            })
        );
        // Pure action invocations need no scenario…
        assert_eq!(
            p(&["submit", "--shutdown"]),
            Ok(Command::Submit {
                scenario: None,
                addr: DEFAULT_ADDR.into(),
                progress: false,
                ping: false,
                metrics: false,
                shutdown: true,
            })
        );
        // …but a submit with nothing to do is a usage error.
        assert!(p(&["submit"]).unwrap_err().contains("--scenario"));
        assert!(p(&["submit", "--cache-dir", "x"])
            .unwrap_err()
            .contains("unknown option"));
    }

    #[test]
    fn usage_errors() {
        assert!(p(&["launch"]).unwrap_err().contains("unknown command"));
        assert!(p(&["run"]).unwrap_err().contains("--scenario"));
        assert!(p(&["run", "-s"]).unwrap_err().contains("requires a value"));
        assert!(p(&["run", "-s", "a.toml", "--csv", "x"])
            .unwrap_err()
            .contains("unknown option"));
        assert!(p(&["trace", "-s", "a", "--budget", "many"])
            .unwrap_err()
            .contains("invalid number"));
        assert!(p(&["describe", "-s", "a", "--trace", "t"])
            .unwrap_err()
            .contains("unknown option"));
    }
}
