//! The EasyView "open a profile" pipeline measured in Fig. 5.
//!
//! Response time is "the end-to-end time of EasyView to open a profile,
//! including data processing (creating trees and computing metrics) and
//! data visualization (rendering flame graphs)" (§VII-B). The pipeline
//! here is exactly those stages: decompress + decode into the
//! prefix-merged CCT, compute the metric view, lay out the top-down
//! flame graph.

use ev_core::MetricId;
use ev_flame::FlameGraph;
use ev_formats::FormatError;

/// Byproducts of opening a profile (kept so benchmarks observe the
/// work).
#[derive(Debug)]
pub struct Opened {
    /// CCT node count.
    pub nodes: usize,
    /// Flame rectangles laid out.
    pub rects: usize,
    /// Total of the first metric.
    pub total: f64,
}

/// Opens a pprof file the EasyView way.
///
/// # Errors
///
/// Propagates converter errors.
pub fn easyview_open(data: &[u8]) -> Result<Opened, FormatError> {
    let profile = ev_formats::pprof::parse(data)?;
    let metric = MetricId::from_index(0);
    let graph = FlameGraph::top_down(&profile, metric);
    Ok(Opened {
        nodes: profile.node_count(),
        rects: graph.rects().len(),
        total: graph.total(),
    })
}

/// The three tools of Fig. 5, with a uniform entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tool {
    /// This system.
    EasyView,
    /// The default PProf visualizer pipeline.
    Pprof,
    /// The GoLand pprof-plugin pipeline.
    Goland,
}

impl Tool {
    /// All tools in presentation order.
    pub const ALL: [Tool; 3] = [Tool::EasyView, Tool::Pprof, Tool::Goland];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Tool::EasyView => "EasyView",
            Tool::Pprof => "PProf",
            Tool::Goland => "GoLand",
        }
    }

    /// Opens `data`, returning the number of items materialized.
    ///
    /// # Errors
    ///
    /// Propagates converter errors.
    pub fn open(self, data: &[u8]) -> Result<usize, FormatError> {
        match self {
            Tool::EasyView => easyview_open(data).map(|o| o.nodes + o.rects),
            Tool::Pprof => ev_baseline::PprofBaseline.open(data).map(|o| o.items),
            Tool::Goland => ev_baseline::GolandBaseline.open(data).map(|o| o.items),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_gen::synthetic::SyntheticSpec;

    #[test]
    fn all_tools_open_the_same_file() {
        let bytes = SyntheticSpec {
            samples: 500,
            ..SyntheticSpec::default()
        }
        .build_pprof();
        for tool in Tool::ALL {
            let items = tool.open(&bytes).unwrap();
            assert!(items > 100, "{} produced {items}", tool.name());
        }
    }

    #[test]
    fn easyview_open_reports_consistent_counts() {
        let bytes = SyntheticSpec {
            samples: 300,
            ..SyntheticSpec::default()
        }
        .build_pprof();
        let opened = easyview_open(&bytes).unwrap();
        assert!(opened.rects <= opened.nodes);
        assert!(opened.total > 0.0);
    }

    #[test]
    fn easyview_is_not_slower_than_baselines() {
        // A coarse sanity check of the Fig. 5 ordering on a mid-size
        // profile; the full sweep is `paper_tables e2`.
        let bytes = SyntheticSpec {
            samples: 20_000,
            ..SyntheticSpec::default()
        }
        .build_pprof();
        let time = |tool: Tool| {
            let start = std::time::Instant::now();
            for _ in 0..3 {
                tool.open(&bytes).unwrap();
            }
            start.elapsed()
        };
        // Warm up once.
        Tool::EasyView.open(&bytes).unwrap();
        let easyview = time(Tool::EasyView);
        let pprof = time(Tool::Pprof);
        let goland = time(Tool::Goland);
        assert!(
            easyview <= pprof,
            "EasyView {easyview:?} vs PProf {pprof:?}"
        );
        assert!(
            easyview <= goland * 2,
            "EasyView {easyview:?} vs GoLand {goland:?}"
        );
    }
}
