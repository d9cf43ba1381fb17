//! Pinned bytecode disassembly for three representative scripts.
//!
//! These goldens freeze the compiler's output shape — op selection,
//! step coalescing, slot assignment, and constant interning. A diff
//! here means codegen changed: if intentional, regenerate with
//! `EV_UPDATE_GOLDEN=1 cargo test -p ev-script --test golden_disasm`
//! and review the new listing like any other code change.

use ev_script::disassemble_source;
use std::path::PathBuf;

const SCRIPTS: &[(&str, &str)] = &[
    // The paper's hot-node example: interned constants, a visit
    // callback, and global/local slot resolution.
    (
        "hot_threshold",
        r#"let threshold = total("cpu") * 0.01;
let hot = 0;
visit(fn(n) {
    if value(n, "cpu") > threshold { hot = hot + 1; }
});
print("hot nodes:", hot);
"#,
    ),
    // Loops and functions: step batching across straight-line code,
    // back edges sealing the batches, break/continue patching.
    (
        "control_flow",
        r#"fn clamp(v, lo, hi) {
    if v < lo { return lo; }
    if v > hi { return hi; }
    return v;
}
let sum = 0;
for i in range(10) {
    if i % 2 == 0 { continue; }
    if i > 6 { break; }
    sum = sum + clamp(i, 1, 5);
}
while sum > 0 { sum = sum - 3; }
"#,
    ),
    // Host callbacks and flexible builtin dispatch: derive/map_nodes
    // (never definable, direct CallBuiltin) against a shadowed `len`
    // (FlexEnter/FlexCall runtime dispatch).
    (
        "derive_map",
        r#"fn len(x) { return 99; }
derive("cpi", fn(n) {
    let i = value(n, "instructions");
    if i == 0 { return 0; }
    return value(n, "cycles") / i;
});
let sizes = map_nodes(fn(n) { return len(children(n)); });
print(sizes);
"#,
    ),
];

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{name}.disasm"))
}

#[test]
fn disassembly_matches_golden_fixtures() {
    let update = std::env::var("EV_UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0");
    for (name, source) in SCRIPTS {
        let listing = disassemble_source(source)
            .expect("fixture script must parse and fit the bytecode's static tables");
        let path = fixture_path(name);
        if update {
            std::fs::write(&path, &listing).expect("write golden");
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        assert_eq!(
            listing,
            want,
            "disassembly of {name} drifted from {}",
            path.display()
        );
    }
}
