//! The HPCToolkit binding: `experiment.xml` call-path profile databases
//! (paper §IV-B; used in the HPC case study of §VII-C2, Figs. 6–7).
//!
//! An experiment database describes the CCT with nested elements —
//! `PF` (procedure frame), `C` (call site), `L` (loop), `S` (statement) —
//! whose `n`/`lm`/`f` attributes index the procedure, load-module, and
//! file tables in the header, and `M` elements carrying metric values.
//! The converter maps:
//!
//! * `PF` → function frames (with module/file/line code mapping),
//! * `L`  → [`ContextKind::Loop`] frames,
//! * `S`  → [`ContextKind::Line`] frames,
//! * `C`  → transparent (the nested callee attaches to the enclosing
//!   frame; the call-site line refines the parent's attribution),
//! * `M`  → metric values on the innermost frame.

use crate::FormatError;
use ev_core::{ContextKind, Frame, MetricDescriptor, MetricId, MetricKind, MetricUnit, NodeId, Profile};
use ev_xml::{Event, PullParser, StartTag};
use std::collections::HashMap;

#[derive(Debug, Default)]
struct Tables {
    procedures: HashMap<u64, String>,
    files: HashMap<u64, String>,
    modules: HashMap<u64, String>,
    /// experiment metric id → (profile metric, value scale)
    metrics: HashMap<u64, (MetricId, f64)>,
}

/// Parses an HPCToolkit `experiment.xml` document.
///
/// Metric names containing `sec` are interpreted as seconds and scaled
/// to nanoseconds; `t="inclusive"` metrics keep
/// [`MetricKind::Inclusive`].
///
/// # Errors
///
/// Fails on malformed XML or dangling table references.
pub fn parse(text: &str) -> Result<Profile, FormatError> {
    let _span = ev_trace::span("convert.hpctoolkit");
    let mut parser = PullParser::new(text);
    let mut profile = Profile::new("hpctoolkit");
    profile.meta_mut().profiler = "hpctoolkit".to_owned();
    let mut tables = Tables::default();

    // The CCT node of every open element, innermost last. Transparent
    // elements (C, sections, tables, M) repeat the enclosing node, so
    // the current node is always the top of the stack.
    let mut stack: Vec<NodeId> = Vec::new();
    let current = |stack: &[NodeId]| stack.last().copied().unwrap_or(NodeId::ROOT);

    while let Some(event) = parser.next_event()? {
        match event {
            Event::Start(tag) => match tag.name.as_str() {
                "SecCallPathProfile" => {
                    if let Some(name) = tag.attr("n") {
                        profile.meta_mut().name = name.to_owned();
                    }
                    stack.push(current(&stack));
                }
                "Metric" => {
                    let id = require_u64(&tag, "i")?;
                    let name = tag.attr("n").unwrap_or("metric").to_owned();
                    let inclusive = tag.attr("t") == Some("inclusive");
                    let (unit, scale) = if name.to_lowercase().contains("sec") {
                        (MetricUnit::Nanoseconds, 1e9)
                    } else {
                        (MetricUnit::Count, 1.0)
                    };
                    let metric = profile.add_metric(MetricDescriptor::new(
                        name,
                        unit,
                        if inclusive {
                            MetricKind::Inclusive
                        } else {
                            MetricKind::Exclusive
                        },
                    ));
                    tables.metrics.insert(id, (metric, scale));
                    stack.push(current(&stack));
                }
                "Procedure" => {
                    insert_table(&mut tables.procedures, &tag)?;
                    stack.push(current(&stack));
                }
                "File" => {
                    insert_table(&mut tables.files, &tag)?;
                    stack.push(current(&stack));
                }
                "LoadModule" => {
                    insert_table(&mut tables.modules, &tag)?;
                    stack.push(current(&stack));
                }
                "PF" | "Pr" => {
                    let name = match tag.attr_u64("n") {
                        Some(id) => tables
                            .procedures
                            .get(&id)
                            .cloned()
                            .unwrap_or_else(|| format!("proc-{id}")),
                        None => tag.attr("n").unwrap_or("(unknown)").to_owned(),
                    };
                    let mut frame = Frame::function(name);
                    if let Some(lm) = tag.attr_u64("lm") {
                        if let Some(module) = tables.modules.get(&lm) {
                            frame = frame.with_module(module.clone());
                        }
                    }
                    let line = tag.attr_u64("l").unwrap_or(0) as u32;
                    if let Some(f) = tag.attr_u64("f") {
                        if let Some(file) = tables.files.get(&f) {
                            frame = frame.with_source(file.clone(), line);
                        }
                    }
                    let node = profile.child(current(&stack), &frame);
                    stack.push(node);
                }
                "L" => {
                    let line = tag.attr_u64("l").unwrap_or(0) as u32;
                    let file = tag
                        .attr_u64("f")
                        .and_then(|f| tables.files.get(&f).cloned())
                        .unwrap_or_default();
                    let name = if file.is_empty() {
                        format!("loop@{line}")
                    } else {
                        format!("loop@{file}:{line}")
                    };
                    let mut frame = Frame::new(ContextKind::Loop, name);
                    if !file.is_empty() {
                        frame = frame.with_source(file, line);
                    }
                    let node = profile.child(current(&stack), &frame);
                    stack.push(node);
                }
                "S" => {
                    let line = tag.attr_u64("l").unwrap_or(0) as u32;
                    // Statements inherit the file of the enclosing frame.
                    let parent = current(&stack);
                    let file = profile.resolve_frame(parent).file;
                    let mut frame =
                        Frame::new(ContextKind::Line, format!("line {line}"));
                    if !file.is_empty() {
                        frame = frame.with_source(file, line);
                    }
                    let node = profile.child(parent, &frame);
                    stack.push(node);
                }
                "M" => {
                    let id = require_u64(&tag, "n")?;
                    let value = tag.attr_f64("v").ok_or_else(|| {
                        FormatError::Schema("M element missing v attribute".to_owned())
                    })?;
                    let &(metric, scale) = tables.metrics.get(&id).ok_or_else(|| {
                        FormatError::Schema(format!("M references unknown metric {id}"))
                    })?;
                    profile.add_value(current(&stack), metric, value * scale);
                    stack.push(current(&stack));
                }
                _ => stack.push(current(&stack)),
            },
            Event::End(_) => {
                stack.pop();
            }
            Event::Text(_) => {}
        }
    }
    Ok(profile)
}

fn require_u64(tag: &StartTag, attr: &str) -> Result<u64, FormatError> {
    tag.attr_u64(attr).ok_or_else(|| {
        FormatError::Schema(format!(
            "<{}> missing numeric attribute {attr:?}",
            tag.name
        ))
    })
}

fn insert_table(table: &mut HashMap<u64, String>, tag: &StartTag) -> Result<(), FormatError> {
    let id = require_u64(tag, "i")?;
    let name = tag.attr("n").unwrap_or("").to_owned();
    table.insert(id, name);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXPERIMENT: &str = r#"<?xml version="1.0"?>
<HPCToolkitExperiment version="2.2">
  <SecCallPathProfile i="0" n="lulesh2.0">
    <SecHeader>
      <MetricTable>
        <Metric i="0" n="CPUTIME (sec):Sum (I)" t="inclusive"/>
        <Metric i="1" n="CPUTIME (sec):Sum (E)" t="exclusive"/>
      </MetricTable>
      <LoadModuleTable>
        <LoadModule i="2" n="/usr/lib/libc-2.31.so"/>
        <LoadModule i="3" n="lulesh2.0"/>
      </LoadModuleTable>
      <FileTable>
        <File i="6" n="lulesh.cc"/>
      </FileTable>
      <ProcedureTable>
        <Procedure i="648" n="main"/>
        <Procedure i="649" n="CalcVolumeForceForElems"/>
        <Procedure i="650" n="brk"/>
      </ProcedureTable>
    </SecHeader>
    <SecCallPathProfileData>
      <PF i="2" l="2700" lm="3" f="6" n="648">
        <C i="5" l="2756">
          <PF i="6" l="1288" lm="3" f="6" n="649">
            <L i="7" l="1290" f="6">
              <S i="8" l="1299"><M n="1" v="2.5"/></S>
            </L>
          </PF>
        </C>
        <C i="9" l="2760">
          <PF i="10" l="0" lm="2" n="650">
            <S i="11" l="0"><M n="1" v="7.5"/></S>
          </PF>
        </C>
      </PF>
    </SecCallPathProfileData>
  </SecCallPathProfile>
</HPCToolkitExperiment>"#;

    #[test]
    fn converts_experiment_database() {
        let p = parse(EXPERIMENT).unwrap();
        p.validate().unwrap();
        assert_eq!(p.meta().name, "lulesh2.0");
        assert_eq!(p.metrics().len(), 2);
        let excl = p.metric_by_name("CPUTIME (sec):Sum (E)").unwrap();
        assert_eq!(p.metric(excl).kind, MetricKind::Exclusive);
        assert_eq!(p.metric(excl).unit, MetricUnit::Nanoseconds);
        // 10 seconds total, scaled to ns.
        assert!((p.total(excl) - 10e9).abs() < 1.0);
    }

    #[test]
    fn call_structure_and_code_mapping() {
        let p = parse(EXPERIMENT).unwrap();
        let brk = p
            .node_ids()
            .find(|&id| p.resolve_frame(id).name == "brk")
            .unwrap();
        assert_eq!(p.resolve_frame(brk).module, "/usr/lib/libc-2.31.so");
        // brk's parent is main (C elements are transparent).
        let parent = p.node(brk).parent().unwrap();
        assert_eq!(p.resolve_frame(parent).name, "main");
        assert_eq!(p.resolve_frame(parent).file, "lulesh.cc");
        assert_eq!(p.resolve_frame(parent).line, 2700);
    }

    #[test]
    fn loops_and_statements_materialize() {
        let p = parse(EXPERIMENT).unwrap();
        let l = p
            .node_ids()
            .find(|&id| p.resolve_frame(id).kind == ContextKind::Loop)
            .unwrap();
        assert_eq!(p.resolve_frame(l).name, "loop@lulesh.cc:1290");
        let s = p
            .node_ids()
            .find(|&id| {
                p.resolve_frame(id).kind == ContextKind::Line
                    && p.resolve_frame(id).line == 1299
            })
            .unwrap();
        // The statement inherits the loop's file.
        assert_eq!(p.resolve_frame(s).file, "lulesh.cc");
        let excl = p.metric_by_name("CPUTIME (sec):Sum (E)").unwrap();
        assert!((p.value(s, excl) - 2.5e9).abs() < 1.0);
    }

    #[test]
    fn dangling_metric_reference_is_error() {
        let doc = r#"<HPCToolkitExperiment><SecCallPathProfileData>
            <PF i="1" n="f"><M n="42" v="1.0"/></PF>
        </SecCallPathProfileData></HPCToolkitExperiment>"#;
        assert!(parse(doc).is_err());
    }

    #[test]
    fn unknown_procedure_id_synthesizes_name() {
        let doc = r#"<HPCToolkitExperiment>
          <MetricTable><Metric i="0" n="m" t="exclusive"/></MetricTable>
          <SecCallPathProfileData>
            <PF i="1" n="999"><M n="0" v="1.0"/></PF>
        </SecCallPathProfileData></HPCToolkitExperiment>"#;
        let p = parse(doc).unwrap();
        assert!(p.node_ids().any(|id| p.resolve_frame(id).name == "proc-999"));
    }

    #[test]
    fn deeply_nested_call_sites_attribute_to_the_enclosing_frame() {
        let depth = 20_000;
        let doc = format!(
            r#"<HPCToolkitExperiment>
              <MetricTable><Metric i="0" n="m" t="exclusive"/></MetricTable>
              <SecCallPathProfileData><PF i="1" n="f">{}<M n="0" v="3.5"/>{}</PF>
            </SecCallPathProfileData></HPCToolkitExperiment>"#,
            r#"<C i="2" l="7">"#.repeat(depth),
            "</C>".repeat(depth)
        );
        let p = parse(&doc).unwrap();
        assert_eq!(p.node_count(), 2, "C elements add no nodes");
        let f = NodeId::from_index(1);
        assert_eq!(p.resolve_frame(f).name, "f");
        let m = p.metric_by_name("m").unwrap();
        assert_eq!(p.value(f, m), 3.5);
        assert_eq!(p.total(m), 3.5);
    }

    #[test]
    fn malformed_xml_is_container_error() {
        assert!(matches!(
            parse("<HPCToolkitExperiment><PF></HPCToolkitExperiment>"),
            Err(FormatError::Container(_))
        ));
    }
}
