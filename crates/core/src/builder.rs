//! The data-builder API (paper §IV-B).
//!
//! Profilers adapt to EasyView either by emitting its format directly or
//! through converters. The paper reports that direct emission takes
//! "less than 20 lines of code" — this stack-shaped builder is the API
//! that makes that true: a profiler's existing enter/exit or unwind
//! callbacks map one-to-one onto [`ProfileBuilder::push`],
//! [`ProfileBuilder::pop`], and [`ProfileBuilder::sample`].

use crate::frame::Frame;
use crate::link::ContextLink;
use crate::metric::{MetricDescriptor, MetricId};
use crate::profile::{NodeId, Profile};
use crate::CoreError;

/// An incremental, stack-shaped profile writer.
///
/// # Examples
///
/// Adapting an imaginary instrumentation tool (the entire adaptation —
/// well under the paper's 20-line bound):
///
/// ```
/// use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit, ProfileBuilder};
///
/// let mut b = ProfileBuilder::new("tool-output");
/// let bytes = b.add_metric(MetricDescriptor::new(
///     "alloc",
///     MetricUnit::Bytes,
///     MetricKind::Exclusive,
/// ));
/// // on_function_enter:
/// b.push(Frame::function("main"));
/// b.push(Frame::function("parse"));
/// // on_allocation:
/// b.sample(&[(bytes, 4096.0)]);
/// // on_function_exit:
/// b.pop();
/// let profile = b.finish();
/// assert_eq!(profile.total(bytes), 4096.0);
/// ```
#[derive(Debug)]
pub struct ProfileBuilder {
    profile: Profile,
    stack: Vec<NodeId>,
}

impl ProfileBuilder {
    /// Creates a builder for a new profile.
    pub fn new(name: impl Into<String>) -> ProfileBuilder {
        ProfileBuilder {
            profile: Profile::new(name),
            stack: Vec::new(),
        }
    }

    /// Registers a metric channel.
    pub fn add_metric(&mut self, descriptor: MetricDescriptor) -> MetricId {
        self.profile.add_metric(descriptor)
    }

    /// Sets the producing profiler's name in the metadata.
    pub fn profiler(&mut self, name: impl Into<String>) -> &mut ProfileBuilder {
        self.profile.meta_mut().profiler = name.into();
        self
    }

    /// The node currently on top of the frame stack (the root when the
    /// stack is empty).
    pub fn current(&self) -> NodeId {
        self.stack.last().copied().unwrap_or(NodeId::ROOT)
    }

    /// Current stack depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Enters `frame` (function call, loop entry, allocation context…),
    /// merging with an existing sibling when the frame matches.
    pub fn push(&mut self, frame: Frame) -> NodeId {
        let node = self.profile.child(self.current(), &frame);
        self.stack.push(node);
        node
    }

    /// Leaves the innermost frame.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::StackUnderflow`] when the stack is empty.
    pub fn pop(&mut self) -> Result<NodeId, CoreError> {
        self.stack.pop().ok_or(CoreError::StackUnderflow)
    }

    /// Records metric values at the current monitoring point.
    pub fn sample(&mut self, values: &[(MetricId, f64)]) -> NodeId {
        let node = self.current();
        for &(metric, value) in values {
            self.profile.add_value(node, metric, value);
        }
        node
    }

    /// Records a complete call path in one call (for unwinding-based
    /// profilers that deliver whole backtraces).
    pub fn sample_path(&mut self, path: &[Frame], values: &[(MetricId, f64)]) -> NodeId {
        self.profile.add_sample(path, values)
    }

    /// Registers a cross-context link.
    pub fn link(&mut self, link: ContextLink) -> &mut ProfileBuilder {
        self.profile.add_link(link);
        self
    }

    /// Read access to the profile under construction (e.g. to mint
    /// [`NodeId`]s for links).
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Finishes building, returning the profile. Any frames still on the
    /// stack are implicitly popped.
    pub fn finish(mut self) -> Profile {
        self.profile.finish();
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkKind;
    use crate::metric::{MetricKind, MetricUnit};

    fn counter(b: &mut ProfileBuilder) -> MetricId {
        b.add_metric(MetricDescriptor::new(
            "n",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ))
    }

    #[test]
    fn push_pop_tracks_stack() {
        let mut b = ProfileBuilder::new("t");
        assert_eq!(b.current(), NodeId::ROOT);
        assert_eq!(b.depth(), 0);
        let main = b.push(Frame::function("main"));
        assert_eq!(b.current(), main);
        assert_eq!(b.depth(), 1);
        b.push(Frame::function("leaf"));
        assert_eq!(b.depth(), 2);
        b.pop().unwrap();
        assert_eq!(b.current(), main);
        b.pop().unwrap();
        assert_eq!(b.current(), NodeId::ROOT);
        assert_eq!(b.pop(), Err(CoreError::StackUnderflow));
    }

    #[test]
    fn reentering_a_frame_merges() {
        let mut b = ProfileBuilder::new("t");
        let m = counter(&mut b);
        for _ in 0..3 {
            b.push(Frame::function("main"));
            b.push(Frame::function("f"));
            b.sample(&[(m, 1.0)]);
            b.pop().unwrap();
            b.pop().unwrap();
        }
        let p = b.finish();
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.total(m), 3.0);
        p.validate().unwrap();
    }

    #[test]
    fn sample_at_root_attaches_to_root() {
        let mut b = ProfileBuilder::new("t");
        let m = counter(&mut b);
        b.sample(&[(m, 5.0)]);
        let p = b.finish();
        assert_eq!(p.value(NodeId::ROOT, m), 5.0);
    }

    #[test]
    fn sample_path_does_not_disturb_stack() {
        let mut b = ProfileBuilder::new("t");
        let m = counter(&mut b);
        let main = b.push(Frame::function("main"));
        b.sample_path(
            &[Frame::function("other"), Frame::function("leaf")],
            &[(m, 2.0)],
        );
        assert_eq!(b.current(), main);
        let p = b.finish();
        assert_eq!(p.total(m), 2.0);
        assert_eq!(p.node_count(), 4);
    }

    #[test]
    fn links_and_metadata() {
        let mut b = ProfileBuilder::new("t");
        let m = counter(&mut b);
        b.profiler("drcctprof");
        let use_ctx = b.push(Frame::function("use"));
        b.pop().unwrap();
        let reuse_ctx = b.push(Frame::function("reuse"));
        b.pop().unwrap();
        b.link(
            ContextLink::new(LinkKind::UseReuse)
                .with_endpoint(use_ctx)
                .with_endpoint(reuse_ctx)
                .with_value(m, 3.0),
        );
        let p = b.finish();
        assert_eq!(p.meta().profiler, "drcctprof");
        assert_eq!(p.links().len(), 1);
        assert_eq!(p.links()[0].value(m), 3.0);
        p.validate().unwrap();
    }

    #[test]
    fn unfinished_stack_is_fine() {
        let mut b = ProfileBuilder::new("t");
        b.push(Frame::function("main"));
        b.push(Frame::function("leaf"));
        let p = b.finish();
        assert_eq!(p.node_count(), 3);
        p.validate().unwrap();
    }
}
