//! Workload inputs, all generated from the `--seed` argument: the
//! synthetic profiles, the editor session mixes, and the EVscript
//! sources. The program under test only ever sees these generated
//! inputs.

use ev_core::Profile;
use ev_gen::ide_session::{session_traces, SessionOp};
use ev_gen::synthetic::SyntheticSpec;
use ev_json::Value;

/// Sizes of one benchmark configuration. [`Scale::full`] is what the
/// workloads run; [`Scale::toy`] is the same code at a size a unit test
/// can afford.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Samples of the paper-scale profile (~1M CCT nodes at full scale).
    pub paper_samples: usize,
    /// Function universe of the paper-scale profile.
    pub paper_functions: usize,
    /// Samples of the serve profile (10,695 nodes at the default seed).
    pub small_samples: usize,
    /// Function universe of the serve profile.
    pub small_functions: usize,
    /// Ops per session replayed by the serve correctness checks (at
    /// most; never more than the timed run completed).
    pub check_ops: usize,
    /// Minimum samples per method in the traced phase replay.
    pub trace_min_per_method: usize,
    /// Set-ups on the small profile before the timed window, and as many
    /// again after it (`setup_s` is the median of all).
    pub setup_repeats_small: usize,
    /// The same on the paper-scale profile.
    pub setup_repeats_paper: usize,
    /// Buffer size of the host-ceiling probes.
    pub ceiling_bytes: usize,
}

impl Scale {
    /// The benchmark's configuration.
    pub fn full() -> Scale {
        Scale {
            paper_samples: 1_060_000,
            paper_functions: 21_200,
            small_samples: 10_000,
            small_functions: 2000,
            check_ops: 400,
            trace_min_per_method: 4,
            setup_repeats_small: 8,
            setup_repeats_paper: 1,
            ceiling_bytes: 64 << 20,
        }
    }

    /// A tiny configuration for the self-test.
    pub fn toy() -> Scale {
        Scale {
            paper_samples: 3000,
            paper_functions: 300,
            small_samples: 400,
            small_functions: 100,
            check_ops: 40,
            trace_min_per_method: 2,
            setup_repeats_small: 2,
            setup_repeats_paper: 1,
            ceiling_bytes: 1 << 20,
        }
    }
}

/// The serve profile: the `functions 2000, samples 10_000` shape.
pub fn small_spec(scale: &Scale, seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        seed: seed ^ 0x5E12E,
        functions: scale.small_functions,
        samples: scale.small_samples,
        ..SyntheticSpec::default()
    }
}

/// The paper-scale profile: the `synthetic_7mib` shape (about 8 MiB of
/// gzip'd pprof and a million CCT nodes) from one build.
pub fn paper_spec(scale: &Scale, seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        seed: seed ^ 0x1173,
        functions: scale.paper_functions,
        samples: scale.paper_samples,
        ..SyntheticSpec::default()
    }
}

/// One replayed editor action.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// An action from the `ev_gen::ide_session` mix.
    Session(SessionOp),
    /// A `profile/script` request: the mutating `visit`/`set_value`
    /// script when `mutate`, the read-only `total` script otherwise.
    Script {
        /// Whether the script writes node values.
        mutate: bool,
        /// Varies the written values from one mutation to the next.
        salt: u32,
    },
}

/// Methods the benchmark reports on, by short name (metric names may
/// not contain `/`).
pub const METHODS: [&str; 7] = [
    "flameGraph",
    "codeLink",
    "codeLens",
    "hover",
    "search",
    "summary",
    "script",
];

impl Op {
    /// The EVP method.
    pub fn method(&self) -> &'static str {
        match self {
            Op::Session(op) => op.method(),
            Op::Script { .. } => "profile/script",
        }
    }

    /// Index into [`METHODS`].
    pub fn method_index(&self) -> usize {
        let short = self.method().trim_start_matches("profile/");
        METHODS
            .iter()
            .position(|&m| m == short)
            .expect("every replayed method is listed")
    }

    /// Whether the op is answered with an error when correct.
    pub fn expects_error(&self) -> bool {
        matches!(self, Op::Session(op) if op.expects_error())
    }
}

/// SplitMix64: a tiny deterministic generator for the script mix-in.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shares (per 100 ops) of each op kind in the `ev_gen` session mix:
/// bad link, code link, hover, code lens, the three flame-graph views
/// (top-down, bottom-up, flat), search, summary. A test holds them to
/// the generator's frequencies.
const KIND_SHARES: [usize; 9] = [2, 25, 25, 15, 7, 7, 6, 8, 5];

fn kind(op: &SessionOp) -> usize {
    match op {
        SessionOp::BadLink { .. } => 0,
        SessionOp::CodeLink { .. } => 1,
        SessionOp::Hover { .. } => 2,
        SessionOp::CodeLens { .. } => 3,
        SessionOp::FlameGraph { view: "topDown" } => 4,
        SessionOp::FlameGraph { view: "bottomUp" } => 5,
        SessionOp::FlameGraph { .. } => 6,
        SessionOp::Search { .. } => 7,
        SessionOp::Summary => 8,
    }
}

/// A deck of 100 op kinds holding each kind its [`KIND_SHARES`] times,
/// each kind spread evenly over the deck.
fn kind_deck() -> Vec<usize> {
    let mut slots: Vec<(f64, usize)> = KIND_SHARES
        .iter()
        .enumerate()
        .flat_map(|(k, &n)| (0..n).map(move |j| ((j as f64 + 0.5) / n as f64, k)))
        .collect();
    slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    slots.into_iter().map(|(_, k)| k).collect()
}

/// Reorders an `ev_gen` session trace so that every stretch of 100 ops
/// holds each op kind in its nominal share: the ops themselves (views,
/// picks, queries) and their order within a kind are the generator's;
/// only the kinds' interleaving is fixed. A short timed window then
/// sees the same request mix on every seed, not a random draw of it,
/// and the first (cold) request for each view comes at the same point.
fn stratify(trace: Vec<SessionOp>, len: usize) -> Vec<SessionOp> {
    let mut trace = trace.into_iter();
    let first = trace.next().expect("traces are nonempty");
    let mut queues: Vec<Vec<SessionOp>> = vec![Vec::new(); KIND_SHARES.len()];
    for op in trace {
        queues[kind(&op)].push(op);
    }
    let mut next = vec![0usize; queues.len()];
    let deck = kind_deck();
    let mut out = Vec::with_capacity(len);
    out.push(first);
    for i in 0..len.saturating_sub(1) {
        let k = deck[i % deck.len()];
        out.push(queues[k][next[k] % queues[k].len()].clone());
        next[k] += 1;
    }
    out
}

/// Ops per `profile/script` request in a mix with scripts (5%).
const SCRIPT_EVERY: usize = 20;

/// `sessions` session mixes of `len` ops each, from
/// `ev_gen::ide_session::session_traces` stratified by op kind. With
/// `scripts`, one op in every [`SCRIPT_EVERY`] (at a seeded position,
/// never a block's first op) becomes a `profile/script` request,
/// alternating between the mutating and the read-only script. A fixed
/// count per block, like the stratified kinds, keeps the number of
/// mutations, and so of views they invalidate, the same on every seed.
pub fn session_mixes(seed: u64, sessions: usize, len: usize, scripts: bool) -> Vec<Vec<Op>> {
    session_traces(seed, sessions, 2 * len + 1000)
        .into_iter()
        .enumerate()
        .map(|(s, trace)| {
            let mut state = seed ^ 0xC0FF_EE00 ^ (s as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407);
            let mut scripts_so_far = 0u32;
            let mut script_at = 0;
            stratify(trace, len)
                .into_iter()
                .enumerate()
                .map(|(i, op)| {
                    if i % SCRIPT_EVERY == 0 {
                        script_at =
                            i + 1 + (splitmix(&mut state) % (SCRIPT_EVERY as u64 - 1)) as usize;
                    }
                    if scripts && i == script_at {
                        scripts_so_far += 1;
                        Op::Script {
                            mutate: scripts_so_far % 2 == 1,
                            salt: (splitmix(&mut state) % 1000) as u32,
                        }
                    } else {
                        Op::Session(op)
                    }
                })
                .collect()
        })
        .collect()
}

/// The mutating script: rewrites every nonzero `cpu` value to a bounded
/// function of itself, then prints the new total.
pub fn mutate_script(salt: u32) -> String {
    format!(
        r#"visit(fn(n) {{
    let v = value(n, "cpu");
    if v > 0 {{ set_value(n, "cpu", (v * 7 + {salt}) % 9973 + 1); }}
}});
print(total("cpu"));
"#
    )
}

/// The read-only script.
pub fn read_script() -> String {
    "print(total(\"cpu\"), node_count());\n".to_owned()
}

/// Flame-graph rect limit of replayed view requests, as in the repo's
/// serve bench: real layout work, bounded response size.
pub const SERVE_FLAME_LIMIT: i64 = 512;

/// The tables a profile induces for resolving abstract picks: every
/// source-mapped node in node-id order. Derived from the profile alone,
/// never from responses or timing, so a replay is deterministic.
pub struct PickTables {
    mapped: Vec<(i64, String, u32)>,
    node_count: usize,
    metric: String,
}

impl PickTables {
    /// Derives the tables of `profile`.
    pub fn derive(profile: &Profile) -> PickTables {
        let mapped: Vec<(i64, String, u32)> = profile
            .node_ids()
            .filter_map(|id| {
                let frame = profile.resolve_frame(id);
                frame
                    .has_source_mapping()
                    .then(|| (id.index() as i64, frame.file, frame.line))
            })
            .collect();
        assert!(!mapped.is_empty(), "profile has no source-mapped nodes");
        PickTables {
            mapped,
            node_count: profile.node_count(),
            metric: profile
                .metrics()
                .first()
                .map(|m| m.name.clone())
                .unwrap_or_default(),
        }
    }

    fn pick(&self, i: usize) -> &(i64, String, u32) {
        &self.mapped[i % self.mapped.len()]
    }

    /// The JSON-RPC params of `op` against profile `profile_id`.
    pub fn params(&self, op: &Op, profile_id: i64) -> Value {
        let pid = ("profileId", Value::Int(profile_id));
        let op = match op {
            Op::Session(op) => op,
            Op::Script { mutate, salt } => {
                let source = if *mutate {
                    mutate_script(*salt)
                } else {
                    read_script()
                };
                return Value::object([pid, ("source", Value::from(source))]);
            }
        };
        match op {
            SessionOp::FlameGraph { view } => Value::object([
                pid,
                ("metric", Value::from(self.metric.as_str())),
                ("view", Value::from(*view)),
                ("limit", Value::Int(SERVE_FLAME_LIMIT)),
            ]),
            SessionOp::CodeLink { pick } => {
                Value::object([pid, ("node", Value::Int(self.pick(*pick).0))])
            }
            SessionOp::CodeLens { pick } => {
                Value::object([pid, ("file", Value::from(self.pick(*pick).1.as_str()))])
            }
            SessionOp::Hover { pick } => {
                let (_, file, line) = self.pick(*pick);
                Value::object([
                    pid,
                    ("file", Value::from(file.as_str())),
                    ("line", Value::Int(i64::from(*line))),
                ])
            }
            SessionOp::Summary => Value::object([pid]),
            SessionOp::Search { query } => {
                Value::object([pid, ("query", Value::from(query.as_str()))])
            }
            SessionOp::BadLink { offset } => {
                Value::object([pid, ("node", Value::Int((self.node_count + offset) as i64))])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_deterministic_and_carry_scripts() {
        let a = session_mixes(7, 2, 2000, true);
        assert_eq!(a, session_mixes(7, 2, 2000, true));
        assert_ne!(a, session_mixes(8, 2, 2000, true));
        let scripts = a[0]
            .iter()
            .filter(|op| matches!(op, Op::Script { .. }))
            .count();
        assert_eq!(scripts, 2000 / SCRIPT_EVERY);
        assert!(matches!(a[0][0], Op::Session(_)));
        let plain = session_mixes(7, 2, 2000, false);
        assert!(plain[0].iter().all(|op| matches!(op, Op::Session(_))));
        // Scripts replace ops in place; the rest of the trace is shared.
        for (x, y) in a[0].iter().zip(&plain[0]) {
            assert!(matches!(x, Op::Script { .. }) || x == y);
        }
    }

    #[test]
    fn kind_shares_follow_the_generators_mix() {
        let trace = ev_gen::ide_session::session_trace(5, 200_001);
        let mut counts = [0usize; 9];
        for op in &trace[1..] {
            counts[kind(op)] += 1;
        }
        // Within one op per hundred: whole shares round the three flame
        // views' even split of 20 to 7/7/6.
        for (k, (&n, &share)) in counts.iter().zip(&KIND_SHARES).enumerate() {
            let per_hundred = n as f64 / 2000.0;
            assert!(
                (per_hundred - share as f64).abs() < 1.0,
                "kind {k}: generator gives {per_hundred:.2} per 100, KIND_SHARES {share}"
            );
        }
    }

    #[test]
    fn every_hundred_ops_hold_the_nominal_mix() {
        let mix = &session_mixes(3, 1, 1001, false)[0];
        for window in mix[1..].chunks(100) {
            let mut counts = [0usize; 9];
            for op in window {
                let Op::Session(op) = op else { unreachable!() };
                counts[kind(op)] += 1;
            }
            assert_eq!(counts, KIND_SHARES);
        }
    }
}
