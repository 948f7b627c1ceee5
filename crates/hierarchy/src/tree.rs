//! The domain tree and Lowest-Common-Ancestor queries.

use saguaro_types::{DomainConfig, DomainId, NodeId, Region, Result, SaguaroError};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// The tree of domains making up one Saguaro deployment.
///
/// The tree is immutable after construction (reconfiguration is modelled by
/// building a new tree and informing the affected nodes, as the paper allows:
/// "if the underlying network infrastructure is reconfigured,
/// ancestor/descendant domains will be informed").
#[derive(Clone, Debug)]
pub struct HierarchyTree {
    root: DomainId,
    /// Domain configurations keyed by id.
    domains: BTreeMap<DomainId, DomainConfig>,
    /// Parent of each non-root domain.
    parents: BTreeMap<DomainId, DomainId>,
    /// Children of each domain, in insertion order.
    children: BTreeMap<DomainId, Vec<DomainId>>,
}

impl HierarchyTree {
    /// Builds a tree from a root configuration and a list of
    /// `(child configuration, parent id)` edges.  Returns an error if an edge
    /// references an unknown parent, a domain is defined twice, a child's
    /// height is not strictly below its parent's, or the structure is not a
    /// single connected tree.
    pub fn build(
        root: DomainConfig,
        edges: impl IntoIterator<Item = (DomainConfig, DomainId)>,
    ) -> Result<Self> {
        let root_id = root.id;
        let mut domains = BTreeMap::new();
        domains.insert(root_id, root);
        let mut parents = BTreeMap::new();
        let mut children: BTreeMap<DomainId, Vec<DomainId>> = BTreeMap::new();

        // Collect edges; parents may be declared after children, so resolve
        // in two passes.
        let edges: Vec<(DomainConfig, DomainId)> = edges.into_iter().collect();
        for (cfg, _) in &edges {
            if domains.contains_key(&cfg.id) {
                return Err(SaguaroError::InvalidTopology(format!(
                    "domain {:?} defined twice",
                    cfg.id
                )));
            }
            domains.insert(cfg.id, cfg.clone());
        }
        for (cfg, parent) in &edges {
            if !domains.contains_key(parent) {
                return Err(SaguaroError::InvalidTopology(format!(
                    "domain {:?} references unknown parent {:?}",
                    cfg.id, parent
                )));
            }
            if cfg.id.height >= parent.height {
                return Err(SaguaroError::InvalidTopology(format!(
                    "child {:?} must be strictly below parent {:?}",
                    cfg.id, parent
                )));
            }
            parents.insert(cfg.id, *parent);
            children.entry(*parent).or_default().push(cfg.id);
        }

        let tree = Self {
            root: root_id,
            domains,
            parents,
            children,
        };

        // Every non-root domain must reach the root.
        for id in tree.domains.keys() {
            if !tree.is_ancestor(root_id, *id) {
                return Err(SaguaroError::InvalidTopology(format!(
                    "domain {id:?} is not connected to the root"
                )));
            }
        }
        Ok(tree)
    }

    /// The root (cloud) domain.
    pub fn root(&self) -> DomainId {
        self.root
    }

    /// Number of domains in the tree.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// True if the tree has exactly one domain.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Configuration of a domain.
    pub fn config(&self, id: DomainId) -> Result<&DomainConfig> {
        self.domains.get(&id).ok_or(SaguaroError::UnknownDomain(id))
    }

    /// True if the domain exists in this tree.
    pub fn contains(&self, id: DomainId) -> bool {
        self.domains.contains_key(&id)
    }

    /// Iterates over every domain configuration.
    pub fn domains(&self) -> impl Iterator<Item = &DomainConfig> {
        self.domains.values()
    }

    /// All domains at the given height, in index order.
    pub fn domains_at_height(&self, height: u8) -> Vec<DomainId> {
        self.domains
            .keys()
            .filter(|d| d.height == height)
            .copied()
            .collect()
    }

    /// The height-1 (edge-server) domains, which execute transactions.
    pub fn edge_server_domains(&self) -> Vec<DomainId> {
        self.domains_at_height(1)
    }

    /// Parent of a domain (`None` for the root).
    pub fn parent(&self, id: DomainId) -> Option<DomainId> {
        self.parents.get(&id).copied()
    }

    /// Children of a domain.
    pub fn children(&self, id: DomainId) -> &[DomainId] {
        self.children.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// `id` and its ancestors, up to the root, without allocating.
    fn ancestry(&self, id: DomainId) -> impl Iterator<Item = DomainId> + '_ {
        std::iter::successors(Some(id), |d| self.parent(*d))
    }

    /// Depth of a domain (root has depth 0).
    pub fn depth(&self, id: DomainId) -> usize {
        self.ancestry(id).count() - 1
    }

    /// The Lowest Common Ancestor of a set of domains.
    ///
    /// This is the coordinator of the coordinator-based cross-domain protocol
    /// (Algorithm 1) and the domain that ultimately validates optimistic
    /// cross-domain transactions.  Returns an error if the set is empty or
    /// contains an unknown domain.
    pub fn lca(&self, involved: &[DomainId]) -> Result<DomainId> {
        let (first, rest) = involved
            .split_first()
            .ok_or_else(|| SaguaroError::InvalidTopology("LCA of empty set".into()))?;
        if !self.contains(*first) {
            return Err(SaguaroError::UnknownDomain(*first));
        }
        rest.iter().try_fold(*first, |lca, d| {
            if !self.contains(*d) {
                return Err(SaguaroError::UnknownDomain(*d));
            }
            self.lca_of_two(lca, *d).ok_or_else(|| {
                SaguaroError::InvalidTopology("domains share no common ancestor".into())
            })
        })
    }

    /// The LCA of two domains, walking parent links.  A parent is strictly
    /// higher than its child, so the lower of two distinct domains is not an
    /// ancestor of the other and can step up without passing their LCA; at
    /// equal heights neither is the other's ancestor and both step up.
    fn lca_of_two(&self, mut a: DomainId, mut b: DomainId) -> Option<DomainId> {
        while a != b {
            match a.height.cmp(&b.height) {
                Ordering::Less => a = self.parent(a)?,
                Ordering::Greater => b = self.parent(b)?,
                Ordering::Equal => (a, b) = (self.parent(a)?, self.parent(b)?),
            }
        }
        Some(a)
    }

    /// True if `ancestor` is an ancestor of (or equal to) `descendant`.
    pub fn is_ancestor(&self, ancestor: DomainId, descendant: DomainId) -> bool {
        self.ancestry(descendant).any(|d| d == ancestor)
    }

    /// The replica node ids of a domain.
    pub fn nodes_of(&self, id: DomainId) -> Result<Vec<NodeId>> {
        self.config(id)?;
        Ok(self.replicas_of(id).collect())
    }

    /// The replica node ids of a domain, yielded without allocating (what
    /// the replicas hand to a multicast); empty for an unknown domain.
    pub fn replicas_of(&self, id: DomainId) -> impl Iterator<Item = NodeId> {
        let size = self.config(id).map_or(0, |cfg| cfg.size());
        (0..size as u16).map(move |i| NodeId::new(id, i))
    }

    /// The region a domain is placed in.
    pub fn region_of(&self, id: DomainId) -> Result<Region> {
        Ok(self.config(id)?.region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_types::FailureModel;
    use std::collections::BTreeSet;

    /// Builds the 11-domain, 4-level tree of Figure 1 (leaf domains omitted;
    /// they hold no ledger):
    ///
    /// ```text
    ///                 D31
    ///            /          \
    ///          D21           D22
    ///         /   \         /   \
    ///      D11    D12    D13    D14
    /// ```
    fn figure1_like() -> HierarchyTree {
        let mk = |h: u8, i: u16| {
            DomainConfig::new(
                DomainId::new(h, i),
                FailureModel::Crash,
                1,
                Region(i as u8 % 4),
            )
        };
        HierarchyTree::build(
            mk(3, 0),
            vec![
                (mk(2, 0), DomainId::new(3, 0)),
                (mk(2, 1), DomainId::new(3, 0)),
                (mk(1, 0), DomainId::new(2, 0)),
                (mk(1, 1), DomainId::new(2, 0)),
                (mk(1, 2), DomainId::new(2, 1)),
                (mk(1, 3), DomainId::new(2, 1)),
            ],
        )
        .expect("valid tree")
    }

    #[test]
    fn construction_and_basic_lookups() {
        let t = figure1_like();
        assert_eq!(t.len(), 7);
        assert_eq!(t.root(), DomainId::new(3, 0));
        assert_eq!(t.edge_server_domains().len(), 4);
        assert_eq!(t.parent(DomainId::new(1, 2)), Some(DomainId::new(2, 1)));
        assert_eq!(t.parent(t.root()), None);
        assert_eq!(
            t.children(DomainId::new(2, 0)),
            &[DomainId::new(1, 0), DomainId::new(1, 1)]
        );
        assert_eq!(t.depth(t.root()), 0);
        assert_eq!(t.depth(DomainId::new(1, 3)), 2);
        assert!(t.contains(DomainId::new(2, 1)));
        assert!(!t.contains(DomainId::new(2, 9)));
    }

    #[test]
    fn lca_matches_figure_2_examples() {
        let t = figure1_like();
        let d = |h, i| DomainId::new(h, i);
        // t1 between D11 and D12 -> LCA D21 (here: heights renumbered, same shape).
        assert_eq!(t.lca(&[d(1, 0), d(1, 1)]).unwrap(), d(2, 0));
        // Domains under different fog servers -> root.
        assert_eq!(t.lca(&[d(1, 0), d(1, 2)]).unwrap(), d(3, 0));
        assert_eq!(t.lca(&[d(1, 0), d(1, 1), d(1, 3)]).unwrap(), d(3, 0));
        // LCA of a single domain is itself.
        assert_eq!(t.lca(&[d(1, 2)]).unwrap(), d(1, 2));
        // LCA including an internal domain.
        assert_eq!(t.lca(&[d(1, 0), d(2, 0)]).unwrap(), d(2, 0));
    }

    #[test]
    fn lca_errors() {
        let t = figure1_like();
        assert!(matches!(t.lca(&[]), Err(SaguaroError::InvalidTopology(_))));
        assert!(matches!(
            t.lca(&[DomainId::new(1, 9)]),
            Err(SaguaroError::UnknownDomain(_))
        ));
    }

    #[test]
    fn depth_and_ancestry() {
        let t = figure1_like();
        let d = |h, i| DomainId::new(h, i);
        assert_eq!(
            t.ancestry(d(1, 3)).collect::<Vec<_>>(),
            [d(1, 3), d(2, 1), d(3, 0)]
        );
        assert!(t.is_ancestor(d(2, 1), d(1, 3)));
        assert!(t.is_ancestor(d(3, 0), d(1, 0)));
        assert!(!t.is_ancestor(d(2, 0), d(1, 3)));
        assert!(t.is_ancestor(d(1, 1), d(1, 1)));
    }

    /// The reference the parent-link walks are checked against: each
    /// domain's path to the root, collected.
    fn path_to_root(t: &HierarchyTree, id: DomainId) -> Vec<DomainId> {
        let mut path = vec![id];
        while let Some(parent) = t.parent(path[path.len() - 1]) {
            path.push(parent);
        }
        path
    }

    /// The first domain's path to the root, kept where every other domain's
    /// path reaches too: its first survivor is the LCA.
    fn reference_lca(t: &HierarchyTree, involved: &[DomainId]) -> Result<DomainId> {
        let (first, rest) = involved
            .split_first()
            .ok_or_else(|| SaguaroError::InvalidTopology("LCA of empty set".into()))?;
        if !t.contains(*first) {
            return Err(SaguaroError::UnknownDomain(*first));
        }
        let mut chain = path_to_root(t, *first);
        for d in rest {
            if !t.contains(*d) {
                return Err(SaguaroError::UnknownDomain(*d));
            }
            let ancestors: BTreeSet<DomainId> = path_to_root(t, *d).into_iter().collect();
            chain.retain(|a| ancestors.contains(a));
        }
        Ok(chain[0])
    }

    /// A tree whose branches skip heights: an edge domain hangs directly off
    /// the root, beside a fog domain with edge children of its own.
    fn skewed() -> HierarchyTree {
        let mk = |h: u8, i: u16| {
            DomainConfig::new(DomainId::new(h, i), FailureModel::Crash, 1, Region(0))
        };
        let edges = [
            (mk(2, 0), DomainId::new(4, 0)),
            (mk(1, 0), DomainId::new(4, 0)),
            (mk(3, 0), DomainId::new(4, 0)),
            (mk(1, 1), DomainId::new(2, 0)),
            (mk(1, 2), DomainId::new(2, 0)),
            (mk(1, 3), DomainId::new(3, 0)),
        ];
        HierarchyTree::build(mk(4, 0), edges).expect("valid tree")
    }

    #[test]
    fn lca_depth_and_ancestry_agree_with_the_paths_to_the_root_on_every_pair_and_triple() {
        let trees = [
            crate::TopologyBuilder::paper_binary_tree().build().unwrap(),
            crate::TopologyBuilder::new(2, 128).build().unwrap(),
            skewed(),
        ];
        for t in &trees {
            let all: Vec<DomainId> = t.domains().map(|c| c.id).collect();
            for &a in &all {
                assert_eq!(t.depth(a), path_to_root(t, a).len() - 1, "{a:?}");
                for &b in &all {
                    assert_eq!(t.lca(&[a, b]), reference_lca(t, &[a, b]), "{a:?} {b:?}");
                    let on_path = path_to_root(t, b).contains(&a);
                    assert_eq!(t.is_ancestor(a, b), on_path, "{a:?} {b:?}");
                }
            }
            for (i, &a) in all.iter().enumerate() {
                for (j, &b) in all.iter().enumerate().skip(i) {
                    for &c in &all[j..] {
                        let set = [a, b, c];
                        assert_eq!(t.lca(&set), reference_lca(t, &set), "{set:?}");
                    }
                }
            }
            // The errors: an empty set, and the first unknown domain in
            // order wherever it stands.
            assert_eq!(t.lca(&[]), reference_lca(t, &[]));
            assert!(matches!(t.lca(&[]), Err(SaguaroError::InvalidTopology(_))));
            let (unknown, later) = (DomainId::new(1, 999), DomainId::new(9, 9));
            let (a, b) = (all[0], all[all.len() - 1]);
            for set in [
                vec![unknown],
                vec![unknown, a, b],
                vec![a, unknown, b],
                vec![a, b, unknown],
                vec![a, unknown, later],
            ] {
                assert_eq!(
                    t.lca(&set),
                    Err(SaguaroError::UnknownDomain(unknown)),
                    "{set:?}"
                );
                assert_eq!(t.lca(&set), reference_lca(t, &set), "{set:?}");
            }
        }
    }

    #[test]
    fn nodes_of_a_domain() {
        let t = figure1_like();
        // Crash f=1 -> 3 nodes per domain.
        let nodes = t.nodes_of(DomainId::new(1, 0)).unwrap();
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[2], NodeId::new(DomainId::new(1, 0), 2));
        assert!(t.nodes_of(DomainId::new(1, 9)).is_err());
        assert!(t.replicas_of(DomainId::new(1, 0)).eq(nodes));
        assert_eq!(t.replicas_of(DomainId::new(1, 9)).count(), 0);
    }

    #[test]
    fn duplicate_domain_rejected() {
        let mk = |h: u8, i: u16| {
            DomainConfig::new(DomainId::new(h, i), FailureModel::Crash, 1, Region(0))
        };
        let err = HierarchyTree::build(
            mk(2, 0),
            vec![
                (mk(1, 0), DomainId::new(2, 0)),
                (mk(1, 0), DomainId::new(2, 0)),
            ],
        );
        assert!(matches!(err, Err(SaguaroError::InvalidTopology(_))));
    }

    #[test]
    fn unknown_parent_rejected() {
        let mk = |h: u8, i: u16| {
            DomainConfig::new(DomainId::new(h, i), FailureModel::Crash, 1, Region(0))
        };
        let err = HierarchyTree::build(mk(2, 0), vec![(mk(1, 0), DomainId::new(2, 7))]);
        assert!(matches!(err, Err(SaguaroError::InvalidTopology(_))));
    }

    #[test]
    fn child_above_parent_rejected() {
        let mk = |h: u8, i: u16| {
            DomainConfig::new(DomainId::new(h, i), FailureModel::Crash, 1, Region(0))
        };
        let err = HierarchyTree::build(mk(2, 0), vec![(mk(2, 1), DomainId::new(2, 0))]);
        assert!(matches!(err, Err(SaguaroError::InvalidTopology(_))));
    }

    #[test]
    fn mixed_failure_models_are_allowed() {
        // The paper's Figure 1 mixes BFT (D21: 4 nodes) and CFT (D14: 5 nodes)
        // domains in one tree.
        let root = DomainConfig::new(DomainId::new(2, 0), FailureModel::Crash, 1, Region(0));
        let bft = DomainConfig::new(DomainId::new(1, 0), FailureModel::Byzantine, 1, Region(0));
        let cft = DomainConfig::new(DomainId::new(1, 1), FailureModel::Crash, 2, Region(1));
        let t = HierarchyTree::build(
            root,
            vec![(bft, DomainId::new(2, 0)), (cft, DomainId::new(2, 0))],
        )
        .unwrap();
        assert_eq!(t.config(DomainId::new(1, 0)).unwrap().size(), 4);
        assert_eq!(t.config(DomainId::new(1, 1)).unwrap().size(), 5);
        assert_eq!(t.region_of(DomainId::new(1, 1)).unwrap(), Region(1));
    }
}
