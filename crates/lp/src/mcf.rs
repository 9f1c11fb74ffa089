//! Fractional unsplittable flow (= value-maximizing multicommodity flow
//! with per-request caps) via the packing solver with a Dijkstra oracle.
//!
//! This is the exact relaxation from the paper's Figure 1: variables are
//! (request, path) pairs, a capacity row per edge (`b_e = c_e`, entry
//! `d_r`), and a selection row per request (`b_r = 1`, entry `1`,
//! realizing `Σ_{s∈S_r} x_s ≤ 1`). The oracle that finds the most-violated
//! dual constraint is a shortest-path query per commodity — the same
//! structural fact Algorithm 1 exploits.

use std::cell::RefCell;

use ufp_netgraph::dijkstra::{Dijkstra, Targets};
use ufp_netgraph::graph::Graph;
use ufp_netgraph::ids::NodeId;
use ufp_netgraph::path::Path;

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
    /// Commodity indices grouped by source vertex: one Dijkstra per
    /// distinct source per oracle call instead of one per commodity.
    by_source: Vec<(NodeId, Vec<usize>)>,
    // Interior mutability: the oracle trait takes &self, but we reuse one
    // Dijkstra workspace, a per-edge weight scratch, and accumulate
    // discovered paths for tag lookup.
    dijkstra: RefCell<Dijkstra>,
    weights: RefCell<Vec<f64>>,
    paths: RefCell<Vec<(usize, Path)>>,
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
        let mut by_source: Vec<(NodeId, Vec<usize>)> = Vec::new();
        let mut order: Vec<usize> = (0..commodities.len()).collect();
        order.sort_unstable_by_key(|&r| (commodities[r].src, r));
        for r in order {
            let src = commodities[r].src;
            match by_source.last_mut() {
                Some((s, members)) if *s == src => members.push(r),
                _ => by_source.push((src, vec![r])),
            }
        }
        UfpOracle {
            graph,
            capacities,
            commodities,
            row_of_edge,
            edge_of_row,
            by_source,
            dijkstra: RefCell::new(Dijkstra::new(graph.num_nodes())),
            weights: RefCell::new(vec![f64::INFINITY; graph.num_edges()]),
            paths: RefCell::new(Vec::new()),
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
        // Scatter the dense edge-row weights back to per-edge indices
        // for Dijkstra; dead edges keep ∞ and are filtered out anyway.
        let mut weights = self.weights.borrow_mut();
        for (row, &e) in self.edge_of_row.iter().enumerate() {
            weights[e] = y[row];
        }
        let alive = |e: ufp_netgraph::ids::EdgeId| self.row_of_edge[e.index()] != usize::MAX;
        let mut dij = self.dijkstra.borrow_mut();
        let mut best: Option<(f64, usize)> = None;
        // One shortest-path tree per distinct source covers all of its
        // commodities.
        for (src, members) in &self.by_source {
            let targets: Vec<NodeId> = members.iter().map(|&r| self.commodities[r].dst).collect();
            dij.run(self.graph, &weights, *src, Targets::Set(&targets), alive);
            for &r in members {
                let c = &self.commodities[r];
                let Some(dist) = dij.distance(c.dst) else {
                    continue;
                };
                // Ratio of the (request, path) column: (d_r·|p| + z_r)/v_r.
                let ratio = (c.demand * dist + y[nu + r]) / c.value;
                let better = match &best {
                    None => true,
                    Some((b, _)) => ratio < *b,
                };
                if better {
                    best = Some((ratio, r));
                }
            }
        }
        let (_, r) = best?;
        // Re-run the winner's source to extract its path (the workspace
        // was clobbered by later groups).
        let c = &self.commodities[r];
        let path = dij
            .shortest_path(self.graph, &weights, c.src, c.dst, alive)
            .expect("winner was reachable a moment ago")
            .path;
        let mut entries: Vec<(usize, f64)> = path
            .edges()
            .iter()
            .map(|e| (self.row_of_edge[e.index()], c.demand))
            .collect();
        entries.push((nu + r, 1.0));
        let mut paths = self.paths.borrow_mut();
        let tag = paths.len() as u64;
        paths.push((r, path));
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
    let paths = oracle.paths.into_inner();
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
