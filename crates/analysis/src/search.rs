//! Name search over a profile's contexts — "all the flame graphs are
//! searchable" (§VI-A-a). The one matcher behind `easyview search` and
//! the EVP `profile/search` method.

use ev_core::{NodeId, Profile};

/// Every node whose frame name contains `query`, both case folded by
/// `to_lowercase`, in node-id order. Each distinct name id is folded
/// and tested once per search, however many nodes carry it. Matches
/// are found as the iterator is drawn, so a caller that keeps only the
/// first few can count the rest without collecting them.
pub fn search<'p>(profile: &'p Profile, query: &str) -> impl Iterator<Item = NodeId> + 'p {
    let query = query.to_lowercase();
    let strings = profile.strings();
    let mut tested: Vec<Option<bool>> = vec![None; strings.len()];
    profile.node_ids().filter(move |&id| {
        let name = profile.node(id).frame().name;
        *tested[name.index()]
            .get_or_insert_with(|| strings.resolve(name).to_lowercase().contains(&query))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit};

    #[test]
    fn search_is_case_insensitive() {
        let mut p = Profile::new("t");
        let m = p.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        p.add_sample(
            &[Frame::function("main"), Frame::function("a")],
            &[(m, 6.0)],
        );
        p.add_sample(
            &[Frame::function("main"), Frame::function("b")],
            &[(m, 3.0)],
        );
        assert_eq!(search(&p, "MAIN").count(), 1);
        assert_eq!(search(&p, "nothing").count(), 0);
        // Substring matches.
        assert_eq!(search(&p, "ai").count(), 1);
    }
}
