//! `ev-cli` — the `easyview` command-line driver.
//!
//! The paper ships EasyView as a VSCode extension; this crate is the
//! equivalent for terminal users and scripts, driving the same library
//! stack (converters → analysis → views) from the shell:
//!
//! ```text
//! easyview info      <profile>                      # floating-window summary
//! easyview view      <profile> [options]            # flame graph (ANSI/SVG)
//! easyview flame     <profile> [options]            # alias of view
//! easyview stats     [profile] [options]            # process metrics dump
//! easyview table     <profile> [options]            # tree table
//! easyview diff      <before> <after> [options]     # differential view
//! easyview aggregate <profile>... --metric M        # multi-profile analysis
//! easyview search    <profile> <query>              # find frames
//! easyview script    <profile> <script.evs>         # run EVscript
//! easyview convert   <in> <out>                     # transcode formats
//! ```
//!
//! All commands auto-detect the input format ([`ev_formats::detect`]).
//! The crate keeps command logic in a library so every code path is unit
//! tested; the binary is a thin `main`.

#![forbid(unsafe_code)]

mod args;
mod commands;

pub use args::{parse_cli, Cli, Command, Options, TraceFormat, TraceOptions};
pub use commands::{run, run_cli};

use std::error::Error;
use std::fmt;

/// A user-facing CLI error (already formatted for display).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for CliError {}

impl From<String> for CliError {
    fn from(s: String) -> CliError {
        CliError(s)
    }
}

impl From<&str> for CliError {
    fn from(s: &str) -> CliError {
        CliError(s.to_owned())
    }
}

/// The usage text printed by `easyview help`.
pub const USAGE: &str = "\
easyview — performance profiles in your terminal

USAGE:
    easyview <command> [arguments] [options]

COMMANDS:
    info      <profile>                 summary: metrics, totals, hotspots
    view      <profile>                 render a flame graph (alias: flame)
    table     <profile>                 render a tree table
    diff      <before> <after>          differential view with [A]/[D]/[+]/[-] tags
    aggregate <profile>...              merge profiles; classify timelines
    search    <profile> <query>         find frames by name
    script    <profile> <file.evs>      run an EVscript customization
    convert   <input> <output>          transcode (by output extension:
                                        .evpf native, .pprof, .folded)
    stats     [profile]                 process metrics: view-cache counters
                                        and every pipeline counter/histogram
                                        (runs one view first when a profile
                                        is given)
    help                                this text

OPTIONS:
    --metric <name>     metric to analyze (default: the first one)
    --shape <s>         topdown | bottomup | flat   (default topdown)
    --width <cols>      terminal width for ANSI output (default 100)
    --depth <n>         tree-table expansion depth (default 4)
    --svg <path>        also write an SVG rendering
    --color             force ANSI colors on
    --threshold <f>     prune subtrees below this fraction (default 0)
    --threads <n>       analysis worker threads (default 0 = all cores,
                        1 = sequential; results are identical either way)
    --json              stats only: emit one machine-readable JSON
                        document (schema easyview-stats/v1) with every
                        counter and histogram p50/p90/p95/p99
    --script <file.evs> stats only: run an EVscript inside the traced
                        window so the script-engine counters
                        (script.vm_ops, script.chunks_compiled,
                        script.par_visits) land in the dump
    --trace-out <path>  self-profile this command with ev-trace and write
                        the recording to <path>
    --trace-format <f>  easyview (default; render with `easyview flame`)
                        | chrome (trace-event JSON for chrome://tracing)
";
