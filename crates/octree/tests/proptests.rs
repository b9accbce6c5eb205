//! Octree-specific property tests: construction invariants, spatial
//! consistency, Morton ordering of leaf ranges, and statistics coherence.

use geom::Vec3;
use octree::{
    build_adaptive, build_uniform, count_ops, dual_traversal, BuildParams, Mac, TreeStats,
};
use proptest::prelude::*;

fn arb_points() -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(
        (-10.0f64..10.0, -10.0f64..10.0, -10.0f64..10.0).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Structural invariants and leaf-capacity bound hold for any input.
    #[test]
    fn build_invariants(pts in arb_points(), s in 1usize..64) {
        let t = build_adaptive(&pts, BuildParams::with_s(s));
        prop_assert!(t.check_invariants().is_ok());
        for id in t.visible_leaves() {
            let n = t.node(id);
            // Leaves can only exceed S when the Morton resolution bottomed
            // out (coincident/ultra-close points).
            if n.count() > s {
                prop_assert_eq!(n.level as u32, geom::MAX_MORTON_LEVEL);
            }
        }
    }

    /// Every body sits geometrically inside its leaf's cube.
    #[test]
    fn bodies_inside_their_cells(pts in arb_points(), s in 2usize..48) {
        let t = build_adaptive(&pts, BuildParams::with_s(s));
        for id in t.visible_leaves() {
            let n = t.node(id);
            for i in n.range() {
                let p = pts[t.order()[i] as usize];
                let d = p - n.center;
                let tol = n.half_width * (1.0 + 1e-9);
                prop_assert!(d.x.abs() <= tol && d.y.abs() <= tol && d.z.abs() <= tol);
            }
        }
    }

    /// Visible leaves appear in ascending body-range order (Morton order),
    /// and their ranges tile [0, n) exactly.
    #[test]
    fn leaf_ranges_tile_in_order(pts in arb_points(), s in 2usize..48) {
        let t = build_adaptive(&pts, BuildParams::with_s(s));
        let mut pos = 0usize;
        for id in t.visible_leaves() {
            let n = t.node(id);
            prop_assert_eq!(n.range().start, pos, "leaf ranges must be contiguous in DFS order");
            pos = n.range().end;
        }
        prop_assert_eq!(pos, pts.len());
    }

    /// The levels() grouping partitions visible_nodes() exactly.
    #[test]
    fn levels_partition_nodes(pts in arb_points(), s in 2usize..48) {
        let t = build_adaptive(&pts, BuildParams::with_s(s));
        let by_level: usize = t.levels().iter().map(Vec::len).sum();
        prop_assert_eq!(by_level, t.visible_nodes().len());
        for (lvl, ids) in t.levels().iter().enumerate() {
            for &id in ids {
                prop_assert_eq!(t.node(id).level as usize, lvl);
            }
        }
    }

    /// visible_bfs() is a permutation of visible_nodes() in which every
    /// parent precedes its children.
    #[test]
    fn bfs_orders_parents_first(pts in arb_points(), s in 2usize..48) {
        let t = build_adaptive(&pts, BuildParams::with_s(s));
        let mut bfs = Vec::new();
        t.visible_bfs(&mut bfs);
        let mut dfs = t.visible_nodes();
        let mut sorted = bfs.clone();
        sorted.sort_unstable();
        dfs.sort_unstable();
        prop_assert_eq!(sorted, dfs);
        let mut seen = vec![false; t.num_nodes()];
        for &id in &bfs {
            let parent = t.node(id).parent;
            prop_assert!(parent == octree::NONE || seen[parent as usize]);
            seen[id as usize] = true;
        }
    }

    /// Uniform trees are complete and have 8^depth leaves at the target
    /// level.
    #[test]
    fn uniform_is_complete(pts in arb_points(), depth in 0u16..4) {
        let t = build_uniform(&pts, depth, 1e-6);
        prop_assert!(t.check_invariants().is_ok());
        let leaves = t.visible_leaves();
        prop_assert_eq!(leaves.len(), 8usize.pow(depth as u32));
        for id in leaves {
            prop_assert_eq!(t.node(id).level, depth);
        }
    }

    /// Tree statistics agree with first-principles recomputation.
    #[test]
    fn stats_consistent(pts in arb_points(), s in 2usize..48) {
        let t = build_adaptive(&pts, BuildParams::with_s(s));
        let st = TreeStats::gather(&t);
        prop_assert_eq!(st.visible_nodes, t.visible_nodes().len());
        prop_assert_eq!(st.visible_leaves, t.visible_leaves().len());
        prop_assert_eq!(st.nonempty_leaves, t.active_leaves().len());
        prop_assert_eq!(st.depth, t.depth());
        prop_assert!(st.max_leaf <= pts.len());
        let c = count_ops(&t, &dual_traversal(&t, Mac::default()));
        prop_assert_eq!(c.active_nodes as usize,
            t.visible_nodes().iter().filter(|&&id| t.node(id).count() > 0).count());
    }

    /// Total P2P interactions are bounded by all-pairs and reach all-pairs
    /// when the tree is a single leaf.
    #[test]
    fn p2p_bounded_by_all_pairs(pts in arb_points(), s in 2usize..48, theta in 0.35f64..0.95) {
        let n = pts.len() as u64;
        let t = build_adaptive(&pts, BuildParams::with_s(s));
        let c = count_ops(&t, &dual_traversal(&t, Mac::new(theta)));
        prop_assert!(c.p2p_interactions <= n * n.saturating_sub(1));
        let single = build_adaptive(&pts, BuildParams::with_s(usize::MAX >> 8));
        let cs = count_ops(&single, &dual_traversal(&single, Mac::new(theta)));
        prop_assert_eq!(cs.p2p_interactions, n * n.saturating_sub(1));
        prop_assert_eq!(cs.m2l_ops, 0);
    }
}
