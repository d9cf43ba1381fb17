//! `ev-test` — EasyView's self-contained deterministic property-testing
//! harness.
//!
//! The workspace charter is a from-scratch substrate that builds and
//! tests fully offline (`ev-wire` instead of prost, `ev-flate` instead
//! of flate2). This crate extends that charter to the *test* layer: it
//! replaces the external `proptest` and `rand` crates with a
//! deterministic harness built on std only.
//!
//! # Pieces
//!
//! - [`rng`]: a splittable xorshift128+ PRNG ([`Rng`]) — also the
//!   random source for `ev-gen`'s synthetic workload generators.
//! - [`gen`]: composable generators with integrated shrinking. Plain
//!   ranges are generators; tuples of generators are generators;
//!   [`gen::vec`], [`gen::string_from`] and friends cover collections.
//! - [`runner`]: the property driver — deterministic per-case seeds,
//!   greedy shrinking, failure reports that print a replay command.
//! - [`profiles`]: `Arbitrary`-style generators for `ev-core`
//!   [`Profile`](ev_core::Profile)s and CCT shapes.
//!
//! # Writing a property test
//!
//! ```
//! use ev_test::prelude::*;
//!
//! property! {
//!     #![cases(64)]
//!
//!     fn reverse_twice_is_identity(v in vec(0u8..255, 0..32)) {
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         prop_assert_eq!(v, w);
//!     }
//! }
//! ```
//!
//! # Reproducing a failure
//!
//! A failing property prints its master seed:
//!
//! ```text
//! property `reverse_twice_is_identity` failed (case 17/64, seed 0x9e3779b97f4a7c15)
//! minimal counterexample: [0]
//! replay with: EV_TEST_SEED=0x517cc1b727220a95 cargo test reverse_twice_is_identity
//! ```
//!
//! Setting `EV_TEST_SEED` pins the master seed for the run;
//! `EV_TEST_CASES` overrides the case count.

#![forbid(unsafe_code)]

pub mod gen;
pub mod profiles;
pub mod rng;
pub mod runner;

pub use gen::{Gen, GenExt};
pub use rng::Rng;
pub use runner::{check, Config};

/// Everything a property-test module needs.
pub mod prelude {
    pub use crate::gen::{
        any_bool, any_f64, any_i32, any_i64, any_u16, any_u32, any_u64, any_u8, btree_map,
        f64_finite, just, seeded, string_from, string_printable, vec, Gen, GenExt,
    };
    pub use crate::profiles::{
        arb_nonempty_profile, arb_profile, arb_profile_batch, arb_profile_pair,
        profile_from_samples, profile_from_samples_kind,
    };
    pub use crate::rng::Rng;
    pub use crate::runner::Config;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, property};
}
