//! Memory-scaling analysis (paper §V-B): differentiate two runs by
//! *division* instead of subtraction to find contexts that scale worse
//! than the program — the ScaAnalyzer-style measurement the paper cites
//! as a use of customizable differential metrics.
//!
//! Run with: `cargo run -p ev-bench --example memory_scaling`

use ev_analysis::scaling_diff;
use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit, Profile};

/// A fake MPI application's heap profile at a given rank count: local
/// state scales linearly, halo-exchange buffers quadratically, constants
/// not at all.
fn run_at(ranks: u32) -> Profile {
    let mut p = Profile::new(format!("app@{ranks}ranks"));
    let m = p.add_metric(MetricDescriptor::new(
        "heap",
        MetricUnit::Bytes,
        MetricKind::Exclusive,
    ));
    let r = f64::from(ranks);
    let mib = 1024.0 * 1024.0;
    p.add_sample(
        &[Frame::function("main"), Frame::function("allocate_local_state")],
        &[(m, 48.0 * r * mib)],
    );
    p.add_sample(
        &[
            Frame::function("main"),
            Frame::function("exchange_halos"),
            Frame::function("allocate_halo_buffers"),
        ],
        &[(m, 2.0 * r * r * mib)],
    );
    p.add_sample(
        &[Frame::function("main"), Frame::function("load_constants")],
        &[(m, 64.0 * mib)],
    );
    p
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let small = run_at(4);
    let large = run_at(16);

    let s = scaling_diff(&small, &large, "heap").map_err(|i| format!("profile {i} lacks heap"))?;
    println!(
        "program heap grows {:.1}x from 4 to 16 ranks",
        s.program_ratio
    );

    println!("\nper-context scaling ratios:");
    for node in s.profile().node_ids() {
        let ratio = s.ratio(node);
        if ratio == 0.0 {
            continue;
        }
        let frame = s.profile().resolve_frame(node);
        if frame.name.is_empty() {
            continue;
        }
        println!("  {:<28} {:>6.1}x", frame.name, ratio);
    }

    println!("\nscaling bottlenecks (ratio > program ratio):");
    for (node, ratio) in s.bottlenecks(0.10) {
        println!(
            "  {:<28} {:>6.1}x  <- superlinear, fix before scaling out",
            s.profile().resolve_frame(node).name,
            ratio
        );
    }

    println!(
        "\n(the subtraction-based diff would rank allocate_local_state\n\
         first by absolute delta; division surfaces the quadratic halo\n\
         buffers — the paper's point about ratio-based differentials.)"
    );
    Ok(())
}
