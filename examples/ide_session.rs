//! A full EVP session (paper §VI-B): everything an editor does with a
//! profile, over the wire protocol.
//!
//! Walks the protocol end to end — initialize, open, the three flame
//! views, search, the mandatory code-link action, code lenses, hovers,
//! the floating-window summary, and a customization script — exactly
//! the traffic the VSCode extension generates.
//!
//! Run with: `cargo run -p ev-bench --example ide_session`

use ev_formats::parse_auto;
use ev_ide::{EditorClient, EvpServer};
use ev_json::Value;

const FOLDED: &str = "\
main;router;handle_api;json_decode 240
main;router;handle_api;db_query 310
main;router;handle_api;render 120
main;router;handle_static 80
main;gc 95
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Any supported format can feed the session; use folded stacks here.
    let mut profile = parse_auto(FOLDED.as_bytes())?;
    // Give two frames source mapping so code links work.
    let db = profile
        .node_ids()
        .find(|&id| profile.resolve_frame(id).name == "db_query")
        .ok_or("frame missing")?;
    let frame = ev_core::Frame::function("db_query").with_source("src/db.rs", 77);
    let parent = profile.node(db).parent().ok_or("no parent")?;
    let mapped = profile.child(parent, &frame);
    let samples = profile.metric_by_name("samples").ok_or("metric")?;
    let v = profile.value(db, samples);
    profile.set_value(db, samples, 0.0);
    profile.set_value(mapped, samples, v);

    let mut client = EditorClient::connect(EvpServer::new());

    // initialize: capability discovery.
    let init = client.request("initialize", Value::Null)?;
    println!(
        "server: {} v{}, {} capabilities",
        init.get("name").and_then(Value::as_str).unwrap_or("?"),
        init.get("version").and_then(Value::as_str).unwrap_or("?"),
        init.get("capabilities").and_then(Value::as_array).map_or(0, <[Value]>::len),
    );

    // profile/open.
    let id = client.open_profile(&profile)?;
    println!("opened profile #{id}");

    // The three generic views (§VI-A-a).
    for view in ["topDown", "bottomUp", "flat"] {
        let rects = client.flame_graph(id, view, "samples")?;
        println!("  {view:<9} view: {} frames", rects.len());
    }

    // Search.
    let (hits, _) = client.search(id, "handle")?;
    println!(
        "search \"handle\": {:?}",
        hits.iter().map(|(_, l)| l.as_str()).collect::<Vec<_>>()
    );

    // Code link (the mandatory action) on the mapped frame.
    let rects = client.flame_graph(id, "topDown", "samples")?;
    let target = rects
        .iter()
        .find(|r| r.label == "db_query" && r.mapped)
        .ok_or("mapped frame missing")?;
    client.code_link(id, target.node)?;
    let editor = client.editor().clone();
    println!(
        "code link: opened {} line {}, {} code lens(es)",
        editor.open_file.as_deref().unwrap_or("?"),
        editor.highlighted_line.unwrap_or(0),
        editor.lenses.len()
    );
    for (line, text) in &editor.lenses {
        println!("  lens @{line}: {text}");
    }

    // Hover on the highlighted line.
    let hover = client.hover(id, "src/db.rs", 77)?;
    println!("hover: {}", hover.join(" | "));

    // Floating-window summary.
    let summary = client.summary(id)?;
    println!(
        "summary: {} nodes, hottest = {}",
        summary.get("nodes").and_then(Value::as_i64).unwrap_or(0),
        summary
            .get("hottest")
            .and_then(|h| h.at(0))
            .and_then(|h| h.get("label"))
            .and_then(Value::as_str)
            .unwrap_or("?")
    );

    // The programming pane (§V-B): derive a share metric in EVscript.
    let stdout = client.run_script(
        id,
        r#"
        derive("share", fn(n) { return value(n, "samples") / total("samples"); });
        let worst = 0;
        visit(fn(n) { if value(n, "share") > value(worst, "share") { worst = n; } });
        print("hottest context:", name(worst));
        "#,
    )?;
    print!("script output: {stdout}");
    Ok(())
}
