//! End-to-end CLI tests over the paper's case-study workloads: the
//! terminal driver reproduces the same findings the examples and
//! `paper_tables` do.

use ev_cli::{parse_cli, run};

fn run_line(line: &[&str]) -> String {
    let argv: Vec<String> = line.iter().map(|s| s.to_string()).collect();
    run(parse_cli(&argv).expect("parse").command).expect("run")
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("ev-cli-wl-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

fn save(profile: &ev_core::Profile, name: &str) -> String {
    let path = tmp(name);
    std::fs::write(&path, ev_core::format::to_bytes(profile)).unwrap();
    path
}

#[test]
fn lulesh_bottom_up_via_cli_shows_brk() {
    let cpu = ev_gen::lulesh::cpu_profile(11);
    let path = save(&cpu, "lulesh.evpf");
    let out = run_line(&["view", &path, "--shape", "bottomup", "--width", "120"]);
    // brk is the widest depth-1 frame; with 120 columns its label
    // surfaces in the second row.
    let second_row = out.lines().nth(1).expect("two rows");
    assert!(second_row.contains("rk"), "{second_row}");

    let info = run_line(&["info", &path]);
    assert!(info.contains("brk"), "{info}");
    assert!(info.contains("CPUTIME"), "{info}");
}

#[test]
fn spark_diff_via_cli_shows_tags() {
    let p1 = save(&ev_gen::spark::rdd_profile(), "rdd.evpf");
    let p2 = save(&ev_gen::spark::sql_profile(), "sql.evpf");
    let out = run_line(&["diff", &p1, &p2, "--width", "100"]);
    assert!(out.contains("[A]"), "{out}");
    assert!(out.contains("[D]"), "{out}");
    assert!(out.contains("total:"), "{out}");
}

#[test]
fn too_large_script_exits_1_with_a_clean_error() {
    let input = save(&ev_gen::spark::rdd_profile(), "script_input.evpf");
    let script = tmp("too_large.evs");
    std::fs::write(&script, ev_gen::scripts::too_large(70_000, 63, 120)).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_easyview"))
        .args(["script", &input, &script])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("program too large"), "{stderr}");
}

#[test]
fn leak_workload_via_cli_aggregate() {
    let snaps = ev_gen::grpc_leak::snapshots(24, 5);
    let paths: Vec<String> = snaps
        .iter()
        .enumerate()
        .map(|(i, p)| save(p, &format!("snap{i}.evpf")))
        .collect();
    let mut argv: Vec<&str> = vec!["aggregate"];
    argv.extend(paths.iter().map(String::as_str));
    argv.extend(["--metric", "inuse_space"]);
    let out = run_line(&argv);
    assert!(out.contains("transport.newBufWriter"), "{out}");
    assert!(out.contains("potential-leak"), "{out}");
    assert!(out.contains("reclaimed"), "{out}");
}

#[test]
fn pprof_files_open_via_cli() {
    let bytes = ev_gen::synthetic::SyntheticSpec {
        samples: 500,
        seed: 3,
        ..Default::default()
    }
    .build_pprof();
    let path = tmp("synthetic.pprof");
    std::fs::write(&path, &bytes).unwrap();
    let out = run_line(&["info", &path]);
    assert!(out.contains("profiler: pprof"), "{out}");
    let out = run_line(&["table", &path, "--depth", "2", "--metric", "cpu"]);
    assert!(out.contains("cpu(I)"), "{out}");
    // Pruned view on the same file.
    let out = run_line(&["view", &path, "--threshold", "0.05", "--width", "90"]);
    assert!(out.lines().count() >= 2, "{out}");
}
