//! Fractional unsplittable flow (= value-maximizing multicommodity flow
//! with per-request caps) via the packing solver with a Dijkstra oracle.
//!
//! This is the exact relaxation from the paper's Figure 1: variables are
//! (request, path) pairs, a capacity row per edge (`b_e = c_e`, entry
//! `d_r`), and a selection row per request (`b_r = 1`, entry `1`,
//! realizing `Σ_{s∈S_r} x_s ≤ 1`). The oracle that finds the most-violated
//! dual constraint is a shortest-path query per commodity — the same
//! structural fact Algorithm 1 exploits.
//!
//! The oracle also borrows Algorithm 1's incremental machinery. One
//! Garg–Könemann step raises the weights of a single column's edges, so
//! the oracle caches one `(distance, path)` per route class (distinct
//! `(src, dst)`) and re-queries only the classes whose cached path
//! crosses an edge that rose; a renormalization of the weights flushes
//! every class. The cached answers are bit-exact by the argument of
//! Invariant 2 in `crates/core/README.md`, so the solve is the one a
//! full re-query per call would give, at about one Dijkstra per step.

use std::cell::RefCell;

use ufp_netgraph::dijkstra::{Dijkstra, Targets};
use ufp_netgraph::graph::Graph;
use ufp_netgraph::ids::{EdgeId, NodeId};
use ufp_netgraph::path::Path;
use ufp_netgraph::pathcache::PathCache;

use crate::duality::weak_duality_gap;
use crate::packing::{solve_packing, Column, ColumnOracle, PackingConfig, PackingSolution};
use crate::simplex::{LpProblem, Relation};

/// An edge participates in the oracle only with a positive, finite
/// capacity; everything else (failed links, exhausted residuals, NaN)
/// is treated as absent.
#[inline]
fn usable_cap(c: f64) -> bool {
    c.is_finite() && c > 0.0
}

/// A commodity: the LP-substrate view of a connection request.
/// (`ufp-core` converts its richer request type into this.)
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Commodity {
    /// Source vertex.
    pub src: NodeId,
    /// Target vertex.
    pub dst: NodeId,
    /// Demand `d_r > 0`.
    pub demand: f64,
    /// Value `v_r > 0`.
    pub value: f64,
}

/// One fractional flow: `amount` ∈ \[0,1\] of `commodity` routed on `path`.
#[derive(Clone, Debug)]
pub struct FracFlow {
    /// Index into the commodity slice.
    pub commodity: usize,
    /// The routing path.
    pub path: Path,
    /// Fraction of the request routed along this path.
    pub amount: f64,
}

/// Output of [`solve_fractional_ufp`]. `value ≤ OPT_frac ≤ upper_bound`.
#[derive(Clone, Debug)]
pub struct FracUfpSolution {
    /// Certified feasible fractional objective.
    pub value: f64,
    /// Certified upper bound on the fractional optimum (hence also on the
    /// integral optimum — this is the bound experiments compare against).
    pub upper_bound: f64,
    /// Path flows, already scaled to feasibility.
    pub flows: Vec<FracFlow>,
    /// Oracle iterations used.
    pub iterations: usize,
    /// Dual certificate behind `upper_bound`, expanded to the full row
    /// space: `m` edge rows (graph edge order; `0.0` at edges with no
    /// usable capacity) followed by one selection row per commodity.
    /// `Σ b_i·duals[i] == upper_bound` and the vector prices every
    /// (request, path) column — see [`certified_duality_gap`]. Empty
    /// when the oracle never produced a column (nothing routable).
    pub duals: Vec<f64>,
}

/// The Dijkstra oracle of the packing solve, with one cached answer per
/// route class.
///
/// A route class is a distinct `(src, dst)` pair. Each keeps its last
/// `(distance, path)` in a [`PathCache`], whose interest index maps an
/// edge to the classes whose cached paths cross it. Between two calls the
/// solver raises `y` only on the previous column's rows, multiplying by
/// `exp(·) ≥ 1`, so the oracle diffs `y` against its own weight copy:
///
/// * an edge whose weight **rose** dirties exactly the classes whose
///   cached path crosses it;
/// * an edge whose weight **fell** (or is NaN) means the solver
///   renormalized `y`, and every class is flushed;
/// * a class with no usable path stays pathless, because the `alive`
///   mask is fixed for the whole solve.
///
/// Only dirty classes are re-queried, one `Targets::Set` run per source.
/// An untouched cached answer is bit-exact, the distance *and* the path
/// a fresh query would return, by the argument of Invariant 2 in
/// `crates/core/README.md`: Dijkstra pops by `(distance, node-id)`, the
/// weights never decrease between flushes, and a targeted query settles
/// the same nodes in the same order as a `Set` query up to its target.
struct UfpOracle<'a> {
    graph: &'a Graph,
    /// Per-edge capacities (the oracle's `b_e`); may differ from the
    /// graph's built-in capacities when solving over residuals.
    capacities: &'a [f64],
    commodities: &'a [Commodity],
    /// Dense packing-row index per edge, `usize::MAX` for edges with no
    /// usable capacity. Dead edges get *no* row at all — a zero row
    /// limit would blow up the solver's `1/b_i` weight initialisation.
    row_of_edge: Vec<usize>,
    /// Edge index per dense edge row (inverse of `row_of_edge`).
    edge_of_row: Vec<usize>,
    /// `(commodity, class)` in argmin scan order: by `(src, r)`.
    scan: Vec<(usize, u32)>,
    /// Target vertex per route class.
    class_dst: Vec<NodeId>,
    /// Route classes grouped by source vertex, so dirty classes that
    /// share a source share one Dijkstra run.
    by_source: Vec<(NodeId, Vec<u32>)>,
    // Interior mutability: the oracle trait takes &self.
    state: RefCell<OracleState>,
}

/// The oracle's mutable half: the class cache, the weights it answers
/// for, and the paths handed out as columns (for tag lookup).
struct OracleState {
    dijkstra: Dijkstra,
    /// Per-edge copy of `y` as of the last call; dead edges keep ∞ and
    /// are filtered out by the `alive` mask anyway.
    weights: Vec<f64>,
    cache: PathCache,
    dirty: Vec<bool>,
    pathless: Vec<bool>,
    /// Scratch: classes drained from the interest index.
    drained: Vec<u32>,
    /// Scratch: one source's dirty targets.
    targets: Vec<NodeId>,
    paths: Vec<(usize, Path)>,
}

impl<'a> UfpOracle<'a> {
    fn new(graph: &'a Graph, capacities: &'a [f64], commodities: &'a [Commodity]) -> Self {
        assert_eq!(capacities.len(), graph.num_edges(), "one capacity per edge");
        let mut row_of_edge = vec![usize::MAX; graph.num_edges()];
        let mut edge_of_row = Vec::new();
        for (e, &cap) in capacities.iter().enumerate() {
            if usable_cap(cap) {
                row_of_edge[e] = edge_of_row.len();
                edge_of_row.push(e);
            }
        }
        let mut pairs: Vec<(NodeId, NodeId)> = commodities.iter().map(|c| (c.src, c.dst)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut by_source: Vec<(NodeId, Vec<u32>)> = Vec::new();
        for (class, &(src, _)) in pairs.iter().enumerate() {
            match by_source.last_mut() {
                Some((s, classes)) if *s == src => classes.push(class as u32),
                _ => by_source.push((src, vec![class as u32])),
            }
        }
        let mut scan: Vec<(usize, u32)> = commodities
            .iter()
            .enumerate()
            .map(|(r, c)| {
                let class = pairs
                    .binary_search(&(c.src, c.dst))
                    .expect("every pair has a class");
                (r, class as u32)
            })
            .collect();
        scan.sort_unstable_by_key(|&(r, _)| (commodities[r].src, r));
        let classes = pairs.len();
        UfpOracle {
            graph,
            capacities,
            commodities,
            row_of_edge,
            edge_of_row,
            scan,
            class_dst: pairs.iter().map(|&(_, dst)| dst).collect(),
            by_source,
            state: RefCell::new(OracleState {
                dijkstra: Dijkstra::new(graph.num_nodes()),
                weights: vec![f64::INFINITY; graph.num_edges()],
                cache: PathCache::new(classes, graph.num_edges()),
                dirty: vec![true; classes],
                pathless: vec![false; classes],
                drained: Vec::new(),
                targets: Vec::new(),
                paths: Vec::new(),
            }),
        }
    }

    /// Copy `y`'s edge rows into the weight copy, dirtying the classes
    /// whose cached paths cross an edge that rose, or every class with a
    /// path when any edge changed without rising (a renormalization).
    /// Every class starts dirty, so the first call queries them all.
    fn sync_weights(&self, st: &mut OracleState, y: &[f64]) {
        let mut flush = false;
        for (row, &e) in self.edge_of_row.iter().enumerate() {
            let (new, old) = (y[row], st.weights[e]);
            if new > old {
                st.cache.drain_interested(EdgeId(e as u32), &mut st.drained);
            } else if new != old {
                flush = true;
            }
            st.weights[e] = new;
        }
        if flush {
            for (dirty, &pathless) in st.dirty.iter_mut().zip(&st.pathless) {
                *dirty = !pathless;
            }
        } else {
            for &class in &st.drained {
                st.dirty[class as usize] = true;
            }
        }
        st.drained.clear();
    }

    /// Re-query every dirty class: one `Set` run per source that has
    /// any, committing each answer to the cache.
    fn refresh_dirty(&self, st: &mut OracleState) {
        let alive = |e: EdgeId| self.row_of_edge[e.index()] != usize::MAX;
        for (src, classes) in &self.by_source {
            st.targets.clear();
            st.targets.extend(
                classes
                    .iter()
                    .filter(|&&k| st.dirty[k as usize])
                    .map(|&k| self.class_dst[k as usize]),
            );
            if st.targets.is_empty() {
                continue;
            }
            st.dijkstra.run(
                self.graph,
                &st.weights,
                *src,
                Targets::Set(&st.targets),
                alive,
            );
            for &k in classes {
                if !std::mem::take(&mut st.dirty[k as usize]) {
                    continue;
                }
                let dst = self.class_dst[k as usize];
                match st.dijkstra.distance(dst) {
                    Some(dist) => {
                        st.dijkstra.path_to_into(dst, st.cache.refresh_buffer(k));
                        st.cache.commit(k, dist);
                    }
                    None => {
                        st.cache.evict(k);
                        st.pathless[k as usize] = true;
                    }
                }
            }
        }
    }
}

impl<'a> ColumnOracle for UfpOracle<'a> {
    fn num_rows(&self) -> usize {
        self.edge_of_row.len() + self.commodities.len()
    }

    fn row_limit(&self, i: usize) -> f64 {
        let nu = self.edge_of_row.len();
        if i < nu {
            self.capacities[self.edge_of_row[i]]
        } else {
            1.0
        }
    }

    fn best_column(&self, y: &[f64]) -> Option<Column> {
        let nu = self.edge_of_row.len();
        let mut guard = self.state.borrow_mut();
        let st = &mut *guard;
        self.sync_weights(st, y);
        self.refresh_dirty(st);
        let mut best: Option<(f64, usize, &Path)> = None;
        for &(r, class) in &self.scan {
            let Some((dist, path)) = st.cache.get(class) else {
                continue;
            };
            let c = &self.commodities[r];
            // Ratio of the (request, path) column: (d_r·|p| + z_r)/v_r.
            let ratio = (c.demand * dist + y[nu + r]) / c.value;
            let better = match &best {
                None => true,
                Some((b, _, _)) => ratio < *b,
            };
            if better {
                best = Some((ratio, r, path));
            }
        }
        let (_, r, path) = best?;
        let c = &self.commodities[r];
        let mut entries: Vec<(usize, f64)> = path
            .edges()
            .iter()
            .map(|e| (self.row_of_edge[e.index()], c.demand))
            .collect();
        entries.push((nu + r, 1.0));
        let tag = st.paths.len() as u64;
        st.paths.push((r, path.clone()));
        Some(Column {
            value: c.value,
            entries,
            tag,
        })
    }
}

/// Solve the fractional UFP relaxation to a certified `(1+ε)` bracket,
/// using the graph's built-in edge capacities.
pub fn solve_fractional_ufp(
    graph: &Graph,
    commodities: &[Commodity],
    epsilon: f64,
    max_iterations: usize,
) -> FracUfpSolution {
    let capacities: Vec<f64> = graph.edges().iter().map(|e| e.capacity).collect();
    solve_fractional_ufp_with_caps(graph, &capacities, commodities, epsilon, max_iterations)
}

/// [`solve_fractional_ufp`] over caller-supplied per-edge capacities —
/// the regret oracle's entry point, where `capacities` is a frozen copy
/// of the engine's pre-epoch residuals. Edges with zero, negative, or
/// non-finite capacity are treated as absent (no packing row, excluded
/// from routing), so failed links and exhausted residuals are handled
/// without perturbing the solver's `1/b_i` weight initialisation.
pub fn solve_fractional_ufp_with_caps(
    graph: &Graph,
    capacities: &[f64],
    commodities: &[Commodity],
    epsilon: f64,
    max_iterations: usize,
) -> FracUfpSolution {
    for c in commodities {
        assert!(
            c.demand > 0.0 && c.value > 0.0,
            "commodities must be positive"
        );
    }
    let oracle = UfpOracle::new(graph, capacities, commodities);
    let cfg = PackingConfig {
        epsilon,
        max_iterations,
    };
    let sol: PackingSolution = solve_packing(&oracle, cfg);
    // Expand the dense dual vector back to the full (m edges + nc
    // selection rows) space; dead edges price at zero, which is dual
    // feasible because no column can touch them.
    let m = graph.num_edges();
    let duals = if sol.duals.is_empty() {
        Vec::new()
    } else {
        let nu = oracle.edge_of_row.len();
        let mut full = vec![0.0; m + commodities.len()];
        for (row, &e) in oracle.edge_of_row.iter().enumerate() {
            full[e] = sol.duals[row];
        }
        full[m..].copy_from_slice(&sol.duals[nu..]);
        full
    };
    let paths = oracle.state.into_inner().paths;
    let flows = sol
        .columns
        .into_iter()
        .filter(|(_, amt)| *amt > 0.0)
        .map(|(col, amount)| {
            let (commodity, path) = paths[col.tag as usize].clone();
            FracFlow {
                commodity,
                path,
                amount,
            }
        })
        .collect();
    FracUfpSolution {
        value: sol.primal_value,
        upper_bound: sol.dual_bound,
        flows,
        iterations: sol.iterations,
        duals,
    }
}

/// Drop commodities the oracle cannot price: non-positive or non-finite
/// demand/value, and degenerate self-loops (`src == dst`, which would
/// admit value over an empty path). Returns the surviving commodities
/// plus their indices into the input slice, so callers can map oracle
/// results back to their own request identifiers.
pub fn sanitize_commodities(raw: &[Commodity]) -> (Vec<Commodity>, Vec<usize>) {
    let mut kept = Vec::with_capacity(raw.len());
    let mut index = Vec::with_capacity(raw.len());
    for (i, c) in raw.iter().enumerate() {
        let positive = c.demand > 0.0 && c.value > 0.0;
        let finite = c.demand.is_finite() && c.value.is_finite();
        if positive && finite && c.src != c.dst {
            kept.push(*c);
            index.push(i);
        }
    }
    (kept, index)
}

/// Mechanical weak-duality witness for a [`FracUfpSolution`]: rebuild
/// the restricted LP over exactly the returned flows (all `m` edge
/// capacity rows in graph order — dead edges get `b_i = 0` — followed
/// by one selection row per commodity), then price the primal flows
/// against the solution's dual vector via [`weak_duality_gap`]. The
/// result is `upper_bound − value` recomputed through the generic
/// checker (non-negative up to tolerance); `None` when the solve
/// produced no dual certificate (nothing was ever routable).
pub fn certified_duality_gap(
    graph: &Graph,
    capacities: &[f64],
    commodities: &[Commodity],
    sol: &FracUfpSolution,
    tol: f64,
) -> Option<f64> {
    if sol.duals.is_empty() {
        return None;
    }
    let m = graph.num_edges();
    assert_eq!(capacities.len(), m, "one capacity per edge");
    assert_eq!(sol.duals.len(), m + commodities.len());
    let mut lp = LpProblem::new(sol.flows.len());
    let mut edge_terms: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
    let mut selection_terms: Vec<Vec<(usize, f64)>> = vec![Vec::new(); commodities.len()];
    for (j, f) in sol.flows.iter().enumerate() {
        let c = &commodities[f.commodity];
        lp.objective[j] = c.value;
        for e in f.path.edges() {
            edge_terms[e.index()].push((j, c.demand));
        }
        selection_terms[f.commodity].push((j, 1.0));
    }
    for (i, terms) in edge_terms.into_iter().enumerate() {
        let cap = capacities[i];
        let rhs = if usable_cap(cap) { cap } else { 0.0 };
        lp.add_constraint(terms, Relation::Le, rhs);
    }
    for terms in selection_terms {
        lp.add_constraint(terms, Relation::Le, 1.0);
    }
    let x: Vec<f64> = sol.flows.iter().map(|f| f.amount).collect();
    Some(weak_duality_gap(&lp, &x, &sol.duals, tol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufp_netgraph::graph::GraphBuilder;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn single_edge_single_commodity() {
        let mut b = GraphBuilder::directed(2);
        b.add_edge(n(0), n(1), 10.0);
        let g = b.build();
        let c = vec![Commodity {
            src: n(0),
            dst: n(1),
            demand: 1.0,
            value: 5.0,
        }];
        let sol = solve_fractional_ufp(&g, &c, 0.02, 100_000);
        // Request fully routable: OPT = 5 (bounded by the x_r <= 1 row).
        assert!(sol.value <= 5.0 + 1e-9);
        assert!(sol.upper_bound >= 5.0 - 1e-9);
        assert!(sol.value >= 5.0 / 1.05, "value {}", sol.value);
    }

    #[test]
    fn capacity_binds_fractional_share() {
        // Edge capacity 1, two unit-demand commodities of values 3 and 1:
        // fractional OPT routes all of the valuable one => 3 + 0 ... but
        // x_r <= 1 caps each, capacity 1 total => OPT = 3.
        let mut b = GraphBuilder::directed(2);
        b.add_edge(n(0), n(1), 1.0);
        let g = b.build();
        let c = vec![
            Commodity {
                src: n(0),
                dst: n(1),
                demand: 1.0,
                value: 3.0,
            },
            Commodity {
                src: n(0),
                dst: n(1),
                demand: 1.0,
                value: 1.0,
            },
        ];
        let sol = solve_fractional_ufp(&g, &c, 0.02, 200_000);
        assert!(sol.value <= 3.0 + 1e-9);
        assert!(sol.upper_bound >= 3.0 - 1e-6);
        assert!(sol.value >= 3.0 / 1.05);
    }

    #[test]
    fn splits_across_parallel_paths() {
        // Two disjoint 2-hop paths of capacity 1 each; one commodity of
        // demand 1, value 1 => it can route at most 1 unit; but capacity
        // lets fractional OPT = 1 (x_r <= 1 binds first).
        let mut b = GraphBuilder::directed(4);
        b.add_edge(n(0), n(1), 1.0);
        b.add_edge(n(1), n(3), 1.0);
        b.add_edge(n(0), n(2), 1.0);
        b.add_edge(n(2), n(3), 1.0);
        let g = b.build();
        let c = vec![Commodity {
            src: n(0),
            dst: n(3),
            demand: 2.0,
            value: 4.0,
        }];
        // demand 2 > capacity 1 per path: fractional routes 0.5 on each
        // path => x_r = 1 total? Load on each edge = 2 * 0.5 = 1 ok.
        let sol = solve_fractional_ufp(&g, &c, 0.02, 200_000);
        assert!(sol.value <= 4.0 + 1e-9);
        assert!(sol.value >= 4.0 / 1.1, "value {}", sol.value);
    }

    #[test]
    fn flows_are_feasible() {
        let mut b = GraphBuilder::directed(3);
        b.add_edge(n(0), n(1), 2.0);
        b.add_edge(n(1), n(2), 1.0);
        let g = b.build();
        let c = vec![
            Commodity {
                src: n(0),
                dst: n(2),
                demand: 1.0,
                value: 2.0,
            },
            Commodity {
                src: n(0),
                dst: n(1),
                demand: 1.0,
                value: 1.0,
            },
        ];
        let sol = solve_fractional_ufp(&g, &c, 0.05, 100_000);
        let mut loads = vec![0.0; g.num_edges()];
        let mut per_req = vec![0.0; c.len()];
        for f in &sol.flows {
            assert!(f.path.validate(&g).is_ok());
            assert_eq!(f.path.source(), c[f.commodity].src);
            assert_eq!(f.path.target(), c[f.commodity].dst);
            per_req[f.commodity] += f.amount;
            for e in f.path.edges() {
                loads[e.index()] += c[f.commodity].demand * f.amount;
            }
        }
        for (e, &l) in loads.iter().enumerate() {
            assert!(
                l <= g.edges()[e].capacity + 1e-7,
                "edge {e} overloaded: {l}"
            );
        }
        for (r, &t) in per_req.iter().enumerate() {
            assert!(t <= 1.0 + 1e-7, "request {r} routed more than once: {t}");
        }
    }

    #[test]
    fn disconnected_commodity_contributes_nothing() {
        let g = GraphBuilder::directed(3).build();
        let c = vec![Commodity {
            src: n(0),
            dst: n(2),
            demand: 1.0,
            value: 9.0,
        }];
        let sol = solve_fractional_ufp(&g, &c, 0.05, 1000);
        assert_eq!(sol.value, 0.0);
        assert!(sol.flows.is_empty());
        assert!(sol.duals.is_empty(), "no column ever priced");
    }

    #[test]
    fn residual_caps_override_graph_capacities() {
        // Two parallel 1-hop routes; residuals kill the direct edge and
        // shrink the detour, so the solve must respect the residual
        // view, not the built-in capacities.
        let mut b = GraphBuilder::directed(3);
        b.add_edge(n(0), n(2), 10.0); // edge 0: direct, residual 0
        b.add_edge(n(0), n(1), 10.0); // edge 1: detour hop, residual 2
        b.add_edge(n(1), n(2), 10.0); // edge 2: detour hop, residual 2
        let g = b.build();
        let caps = vec![0.0, 2.0, 2.0];
        let c = vec![Commodity {
            src: n(0),
            dst: n(2),
            demand: 4.0,
            value: 8.0,
        }];
        let sol = solve_fractional_ufp_with_caps(&g, &caps, &c, 0.02, 200_000);
        // Only the detour is open: 2 of 4 units fit => x_r = 1/2 => value 4.
        assert!(sol.value <= 4.0 + 1e-9, "value {}", sol.value);
        assert!(sol.value >= 4.0 / 1.05, "value {}", sol.value);
        assert!(sol.upper_bound >= 4.0 - 1e-6);
        for f in &sol.flows {
            for e in f.path.edges() {
                assert_ne!(e.index(), 0, "routed over a zero-residual edge");
            }
        }
    }

    #[test]
    fn all_edges_dead_is_a_clean_zero() {
        let mut b = GraphBuilder::directed(2);
        b.add_edge(n(0), n(1), 5.0);
        let g = b.build();
        let caps = vec![0.0];
        let c = vec![Commodity {
            src: n(0),
            dst: n(1),
            demand: 1.0,
            value: 3.0,
        }];
        let sol = solve_fractional_ufp_with_caps(&g, &caps, &c, 0.05, 1000);
        assert_eq!(sol.value, 0.0);
        assert!(sol.flows.is_empty());
        assert!(sol.upper_bound.is_infinite() || sol.upper_bound >= 0.0);
        assert!(certified_duality_gap(&g, &caps, &c, &sol, 1e-9).is_none());
    }

    #[test]
    fn sanitize_drops_degenerates_and_keeps_indices() {
        let raw = vec![
            Commodity {
                src: n(0),
                dst: n(1),
                demand: 1.0,
                value: 2.0,
            },
            Commodity {
                src: n(1),
                dst: n(1), // self-loop
                demand: 1.0,
                value: 2.0,
            },
            Commodity {
                src: n(0),
                dst: n(2),
                demand: 0.0, // no demand
                value: 2.0,
            },
            Commodity {
                src: n(0),
                dst: n(2),
                demand: 1.0,
                value: f64::NAN, // non-finite
            },
            Commodity {
                src: n(2),
                dst: n(0),
                demand: 0.5,
                value: 1.0,
            },
        ];
        let (kept, index) = sanitize_commodities(&raw);
        assert_eq!(index, vec![0, 4]);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[1], raw[4]);
    }

    #[test]
    fn duals_certify_the_upper_bound_through_the_generic_checker() {
        let mut b = GraphBuilder::directed(3);
        b.add_edge(n(0), n(1), 2.0);
        b.add_edge(n(1), n(2), 1.0);
        b.add_edge(n(0), n(2), 1.5);
        let g = b.build();
        let caps = vec![2.0, 1.0, 0.0]; // direct edge exhausted
        let c = vec![
            Commodity {
                src: n(0),
                dst: n(2),
                demand: 1.0,
                value: 2.0,
            },
            Commodity {
                src: n(0),
                dst: n(1),
                demand: 1.0,
                value: 1.0,
            },
        ];
        let sol = solve_fractional_ufp_with_caps(&g, &caps, &c, 0.02, 400_000);
        assert_eq!(sol.duals.len(), g.num_edges() + c.len());
        assert_eq!(sol.duals[2], 0.0, "dead edge priced at zero");
        // b·y over the full row space reproduces the reported bound.
        let objective: f64 = caps
            .iter()
            .zip(&sol.duals)
            .map(|(&cap, &y)| if cap > 0.0 { cap * y } else { 0.0 })
            .sum::<f64>()
            + sol.duals[g.num_edges()..].iter().sum::<f64>();
        assert!(
            (objective - sol.upper_bound).abs() <= 1e-6 * sol.upper_bound.max(1.0),
            "b·y = {objective} vs upper_bound = {}",
            sol.upper_bound
        );
        // And the generic weak-duality checker agrees: gap == upper − value.
        let gap = certified_duality_gap(&g, &caps, &c, &sol, 1e-6).unwrap();
        assert!(gap >= -1e-9, "negative duality gap {gap}");
        assert!(
            (gap - (sol.upper_bound - sol.value)).abs() <= 1e-6 * sol.upper_bound.max(1.0),
            "gap {gap} vs bracket width {}",
            sol.upper_bound - sol.value
        );
    }
}
