//! Cluster geometry and the inter-cluster interconnect.

/// Interconnect topology between clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// Clusters form a chain `0 – 1 – … – n-1`; the end clusters do not
    /// communicate directly (the paper's baseline).
    #[default]
    Linear,
    /// Clusters form a ring, so clusters `0` and `n-1` are adjacent (the
    /// paper's "mesh network" variant, which eliminates three-cluster
    /// communication for four clusters).
    Ring,
    /// Every pair of distinct clusters is one hop apart — an idealised
    /// point-to-point interconnect (Parcerisa et al., cited by the paper
    /// as the preferred alternative to buses).
    FullyConnected,
}

/// The shape of the clustered core: how many clusters, how many issue
/// slots each receives per fetch group, and how they are wired together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterGeometry {
    /// Number of clusters (the paper: 4; robustness study: 2).
    pub clusters: u8,
    /// Issue slots per cluster per fetch group (4).
    pub slots_per_cluster: u8,
    /// Interconnect topology.
    pub topology: Topology,
}

impl Default for ClusterGeometry {
    fn default() -> Self {
        ClusterGeometry {
            clusters: 4,
            slots_per_cluster: 4,
            topology: Topology::Linear,
        }
    }
}

impl ClusterGeometry {
    /// Total issue slots per fetch group (= trace line capacity).
    pub fn total_slots(&self) -> usize {
        self.clusters as usize * self.slots_per_cluster as usize
    }

    /// The cluster that issue slot `slot` feeds.
    pub fn cluster_of_slot(&self, slot: u8) -> u8 {
        slot / self.slots_per_cluster
    }

    /// Number of cluster hops data must traverse from `from` to `to`.
    pub fn distance(&self, from: u8, to: u8) -> u8 {
        debug_assert!(from < self.clusters && to < self.clusters);
        let d = from.abs_diff(to);
        match self.topology {
            Topology::Linear => d,
            Topology::Ring => d.min(self.clusters - d),
            Topology::FullyConnected => d.min(1),
        }
    }

    /// Clusters at distance 1 from `c`, nearest-to-centre first.
    pub fn neighbors(&self, c: u8) -> Vec<u8> {
        let mut n: Vec<u8> = (0..self.clusters)
            .filter(|&o| self.distance(c, o) == 1)
            .collect();
        n.sort_by_key(|&o| self.centrality(o));
        n
    }

    /// A centrality score: the maximum distance from `c` to any cluster
    /// (lower = more central).
    pub fn centrality(&self, c: u8) -> u8 {
        (0..self.clusters)
            .map(|o| self.distance(c, o))
            .max()
            .unwrap_or(0)
    }

    /// All clusters ordered most-central first (the "middle clusters" the
    /// FDRT strategy funnels unattached producers to), ties broken by
    /// index.
    pub fn middle_order(&self) -> Vec<u8> {
        let mut order: Vec<u8> = (0..self.clusters).collect();
        order.sort_by_key(|&c| (self.centrality(c), c));
        order
    }
}

/// Everything steering and placement look up about a geometry per
/// instruction — neighbour lists, centrality, the middle order — derived
/// once instead of being recomputed (and reallocated) per query.
#[derive(Debug, Clone)]
pub(crate) struct GeometryTables {
    geometry: ClusterGeometry,
    neighbors: Vec<Vec<u8>>,
    centrality: Vec<u8>,
    middle: Vec<u8>,
    /// Length of `middle`'s prefix of most-central clusters.
    central_tier: usize,
    /// Issue slots cluster-major, starting at the most central cluster
    /// and walking to adjacent clusters (Friendly's middle-first order).
    middle_walk: Vec<u8>,
}

impl GeometryTables {
    pub(crate) fn new(geometry: ClusterGeometry) -> Self {
        let n = geometry.clusters;
        let middle = geometry.middle_order();
        let centrality: Vec<u8> = (0..n).map(|c| geometry.centrality(c)).collect();
        let central_tier = middle
            .iter()
            .take_while(|&&c| centrality[c as usize] == centrality[middle[0] as usize])
            .count();
        let neighbors: Vec<Vec<u8>> = (0..n).map(|c| geometry.neighbors(c)).collect();
        // Walk the clusters from the most central one to adjacent
        // clusters, so small traces occupy the middle of the machine
        // while dependent instructions can still gather within one
        // cluster before the walk moves on.
        let mut walk: Vec<u8> = Vec::with_capacity(n as usize);
        if let Some(&first) = middle.first() {
            let mut cur = first;
            walk.push(cur);
            while walk.len() < n as usize {
                let next = neighbors[cur as usize]
                    .iter()
                    .copied()
                    .find(|c| !walk.contains(c))
                    .or_else(|| (0..n).find(|c| !walk.contains(c)))
                    .expect("unvisited cluster exists");
                walk.push(next);
                cur = next;
            }
        }
        let spc = geometry.slots_per_cluster;
        let middle_walk = walk
            .iter()
            .flat_map(|&c| (0..spc).map(move |k| c * spc + k))
            .collect();
        GeometryTables {
            geometry,
            neighbors,
            centrality,
            middle,
            central_tier,
            middle_walk,
        }
    }

    /// The geometry these tables describe.
    pub(crate) fn geometry(&self) -> &ClusterGeometry {
        &self.geometry
    }

    /// [`ClusterGeometry::neighbors`] of `c`.
    pub(crate) fn neighbors(&self, c: u8) -> &[u8] {
        &self.neighbors[c as usize]
    }

    /// [`ClusterGeometry::centrality`] of `c`.
    pub(crate) fn centrality(&self, c: u8) -> u8 {
        self.centrality[c as usize]
    }

    /// [`ClusterGeometry::middle_order`].
    pub(crate) fn middle_order(&self) -> &[u8] {
        &self.middle
    }

    /// The most central clusters: the prefix of the middle order that
    /// shares its first cluster's centrality.
    pub(crate) fn central_tier(&self) -> &[u8] {
        &self.middle[..self.central_tier]
    }

    /// Every issue slot, cluster-major, most central cluster first and
    /// then outward through adjacent clusters.
    pub(crate) fn middle_walk(&self) -> &[u8] {
        &self.middle_walk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear4() -> ClusterGeometry {
        ClusterGeometry::default()
    }

    fn ring4() -> ClusterGeometry {
        ClusterGeometry {
            topology: Topology::Ring,
            ..ClusterGeometry::default()
        }
    }

    #[test]
    fn slot_to_cluster() {
        let g = linear4();
        assert_eq!(g.total_slots(), 16);
        assert_eq!(g.cluster_of_slot(0), 0);
        assert_eq!(g.cluster_of_slot(3), 0);
        assert_eq!(g.cluster_of_slot(4), 1);
        assert_eq!(g.cluster_of_slot(15), 3);
    }

    #[test]
    fn linear_distances() {
        let g = linear4();
        assert_eq!(g.distance(0, 0), 0);
        assert_eq!(g.distance(0, 1), 1);
        assert_eq!(g.distance(0, 3), 3);
        assert_eq!(g.distance(3, 1), 2);
    }

    #[test]
    fn ring_wraps_ends() {
        let g = ring4();
        assert_eq!(g.distance(0, 3), 1);
        assert_eq!(g.distance(0, 2), 2);
        assert_eq!(g.distance(1, 3), 2);
    }

    #[test]
    fn neighbors_linear() {
        let g = linear4();
        assert_eq!(g.neighbors(0), vec![1]);
        assert_eq!(g.neighbors(3), vec![2]);
        // Both neighbors, more central one first.
        let n1 = g.neighbors(1);
        assert_eq!(n1.len(), 2);
        assert_eq!(n1[0], 2); // 2 is central (max dist 2) like 1; ties by centrality then order
        assert!(n1.contains(&0));
    }

    #[test]
    fn middle_order_prefers_central_clusters() {
        let g = linear4();
        let order = g.middle_order();
        assert_eq!(&order[..2], &[1, 2]);
        assert_eq!(&order[2..], &[0, 3]);
    }

    #[test]
    fn ring_is_symmetric() {
        let g = ring4();
        // Every cluster equally central on a ring.
        let c: Vec<u8> = (0..4).map(|x| g.centrality(x)).collect();
        assert!(c.iter().all(|&v| v == c[0]));
        assert_eq!(g.neighbors(0).len(), 2);
    }

    #[test]
    fn fully_connected_is_one_hop_everywhere() {
        let g = ClusterGeometry {
            topology: Topology::FullyConnected,
            ..ClusterGeometry::default()
        };
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(g.distance(a, b), u8::from(a != b));
            }
        }
        // Every other cluster is a neighbour.
        assert_eq!(g.neighbors(0).len(), 3);
        // All clusters equally central.
        let c: Vec<u8> = (0..4).map(|x| g.centrality(x)).collect();
        assert!(c.iter().all(|&v| v == c[0]));
    }

    #[test]
    fn two_cluster_geometry() {
        let g = ClusterGeometry {
            clusters: 2,
            slots_per_cluster: 4,
            topology: Topology::Linear,
        };
        assert_eq!(g.total_slots(), 8);
        assert_eq!(g.distance(0, 1), 1);
        assert_eq!(g.neighbors(0), vec![1]);
        assert_eq!(g.middle_order(), vec![0, 1]);
    }

    #[test]
    fn tables_match_the_geometry_queries() {
        for topology in [Topology::Linear, Topology::Ring, Topology::FullyConnected] {
            for clusters in 1..=8 {
                let g = ClusterGeometry {
                    clusters,
                    slots_per_cluster: 2,
                    topology,
                };
                let t = GeometryTables::new(g);
                assert_eq!(t.middle_order(), g.middle_order().as_slice());
                for c in 0..clusters {
                    assert_eq!(t.neighbors(c), g.neighbors(c).as_slice());
                    assert_eq!(t.centrality(c), g.centrality(c));
                }
                let tier = t.central_tier();
                assert!(!tier.is_empty());
                assert!(tier
                    .iter()
                    .all(|&c| g.centrality(c) == g.centrality(tier[0])));
                let mut walk = t.middle_walk().to_vec();
                assert_eq!(walk.len(), g.total_slots());
                walk.sort_unstable();
                assert_eq!(walk, (0..g.total_slots() as u8).collect::<Vec<_>>());
            }
        }
    }
}
