//! `ev-bench` — the evaluation harness: everything needed to regenerate
//! the paper's tables and figures (paper §VII).
//!
//! | Experiment | Paper | Module / target |
//! |---|---|---|
//! | E1 programmability (LoC per adapter) | §VII-A | [`loc`], `paper_tables e1` |
//! | E2 response time vs. profile size | §VII-B Fig. 5 | [`pipeline`], `paper_tables e2` |
//! | E3 memory-leak case study | §VII-C1 Fig. 4 | `paper_tables e3`, `examples/memory_leak.rs` |
//! | E4 LULESH case study | §VII-C2 Figs. 6–7 | `paper_tables e4`, `examples/hpc_lulesh.rs` |
//! | E5 differential view | §VI-A Fig. 3 | `paper_tables e5`, `examples/diff_spark.rs` |
//! | E6 view effectiveness | §VII-D Fig. 8 | [`userstudy`], `paper_tables e6` |
//! | E7 control-group task times | §VII-D | [`userstudy`], `paper_tables e7` |
//!
//! [`oracle`] keeps the tree transforms the frame-id ones replaced, for
//! the differential tests and the `serve` bin's `coldViews` gate.

#![forbid(unsafe_code)]

pub mod loc;
pub mod oracle;
pub mod pipeline;
pub mod serve;
pub mod timer;
pub mod userstudy;
