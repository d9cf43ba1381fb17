//! `ev-gen` — synthetic workload and profile generators for EasyView's
//! evaluation (paper §VII).
//!
//! The paper's experiments run on inputs we cannot ship: production
//! pprof profiles from industrial software (§VII-B), live gRPC memory
//! snapshots (§VII-C1), LULESH runs under HPCToolkit/DrCCTProf
//! (§VII-C2), and Spark traces (Fig. 3). Each generator here fabricates
//! a deterministic synthetic equivalent that preserves what the
//! experiment actually measures:
//!
//! * [`synthetic`] — parameterized random profiles with realistic CCT
//!   shape, emitted as genuine gzip'd pprof bytes and *size-calibrated*
//!   so the Fig. 5 response-time sweep covers the same ~1 MB → ~1 GB
//!   range (scaled to fit CI budgets).
//! * [`grpc_leak`] — a timeline of heap snapshots where some allocation
//!   sites leak (sustained, never reclaimed) and others are healthy,
//!   reproducing the signal the aggregate-histogram analysis detects.
//! * [`lulesh`] — an allocator-bound HPC CPU profile whose bottom-up
//!   view is dominated by `brk@libc` (Fig. 6), plus a DrCCTProf-style
//!   reuse-pair profile wired with `UseReuse` links (Fig. 7).
//! * [`spark`] — the RDD vs. SQL-Dataset profile pair behind the
//!   differential view of Fig. 3.
//! * [`ide_session`] — replayable traces of IDE actions (code link,
//!   hover, lens, view switches) for driving the EVP server in the
//!   serve benchmark.
//! * [`scripts`] — deterministic EVscript programs (hot loop, CCT
//!   fold, string formatting) for the script-engine benchmark.
//!
//! All generators take explicit seeds and are deterministic.

#![forbid(unsafe_code)]

pub mod grpc_leak;
pub mod ide_session;
pub mod lulesh;
pub mod scripts;
pub mod spark;
pub mod synthetic;
