//! Property-based tests for the LP substrate: the two solvers must
//! bracket each other on random inputs, simplex optima must satisfy
//! strong duality and complementary slackness, and the fractional UFP
//! solve with its cached oracle must equal, bit for bit, the same solve
//! with a full re-query per oracle call.

use std::cell::{Cell, RefCell};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ufp_lp::duality::{dual_objective, is_dual_feasible};
use ufp_lp::mcf::{solve_fractional_ufp_with_caps, Commodity, FracFlow, FracUfpSolution};
use ufp_lp::packing::{solve_packing, Column, ColumnOracle, PackingConfig};
use ufp_lp::simplex::{solve, LpOutcome, LpProblem, Relation};
use ufp_netgraph::dijkstra::{Dijkstra, Targets};
use ufp_netgraph::graph::{Graph, GraphBuilder};
use ufp_netgraph::ids::{EdgeId, NodeId};
use ufp_netgraph::path::Path;

/// Random bounded packing LP with explicit columns.
fn arb_packing() -> impl Strategy<Value = (LpProblem, Vec<f64>, Vec<Column>)> {
    (2usize..6, 1usize..5, any::<u64>()).prop_map(|(ncols, rows, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let b: Vec<f64> = (0..rows).map(|_| rng.random_range(1.0..9.0)).collect();
        let mut lp = LpProblem::new(ncols);
        let mut cols = Vec::new();
        for j in 0..ncols {
            let value = rng.random_range(0.2..4.0);
            lp.objective[j] = value;
            let mut entries = Vec::new();
            for i in 0..rows {
                if rng.random_range(0.0..1.0) < 0.8 {
                    entries.push((i, rng.random_range(0.2..2.0)));
                }
            }
            if entries.is_empty() {
                entries.push((rng.random_range(0..rows), 1.0));
            }
            cols.push(Column {
                value,
                entries,
                tag: j as u64,
            });
        }
        for (i, &bi) in b.iter().enumerate() {
            let terms: Vec<(usize, f64)> = cols
                .iter()
                .enumerate()
                .flat_map(|(j, c)| {
                    c.entries
                        .iter()
                        .filter(move |&&(r, _)| r == i)
                        .map(move |&(_, a)| (j, a))
                })
                .collect();
            lp.add_constraint(terms, Relation::Le, bi);
        }
        (lp, b, cols)
    })
}

struct Explicit {
    b: Vec<f64>,
    cols: Vec<Column>,
}

impl ColumnOracle for Explicit {
    fn num_rows(&self) -> usize {
        self.b.len()
    }
    fn row_limit(&self, i: usize) -> f64 {
        self.b[i]
    }
    fn best_column(&self, y: &[f64]) -> Option<Column> {
        self.cols
            .iter()
            .map(|c| {
                let w: f64 = c.entries.iter().map(|&(i, a)| a * y[i]).sum();
                (w / c.value, c)
            })
            .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
            .map(|(_, c)| c.clone())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn strong_duality_and_certificates((lp, _b, _cols) in arb_packing()) {
        let sol = match solve(&lp) {
            LpOutcome::Optimal(s) => s,
            other => return Err(TestCaseError::fail(format!("not optimal: {other:?}"))),
        };
        prop_assert!(lp.is_primal_feasible(&sol.x, 1e-7));
        prop_assert!(is_dual_feasible(&lp, &sol.duals, 1e-6));
        let gap = dual_objective(&lp, &sol.duals) - sol.objective;
        prop_assert!(gap.abs() < 1e-6, "strong duality gap {gap}");
    }

    #[test]
    fn packing_brackets_simplex((lp, b, cols) in arb_packing()) {
        let exact = match solve(&lp) {
            LpOutcome::Optimal(s) => s.objective,
            other => return Err(TestCaseError::fail(format!("not optimal: {other:?}"))),
        };
        let oracle = Explicit { b, cols };
        let approx = solve_packing(&oracle, PackingConfig {
            epsilon: 0.03,
            max_iterations: 300_000,
        });
        prop_assert!(approx.primal_value <= exact + 1e-6,
            "primal {} exceeds exact {exact}", approx.primal_value);
        prop_assert!(approx.dual_bound >= exact - 1e-6,
            "dual bound {} below exact {exact}", approx.dual_bound);
        if exact > 1e-9 {
            prop_assert!(approx.primal_value >= exact / 1.07,
                "primal {} too far below exact {exact}", approx.primal_value);
        }
    }

    #[test]
    fn complementary_slackness((lp, _b, _cols) in arb_packing()) {
        let sol = match solve(&lp) {
            LpOutcome::Optimal(s) => s,
            other => return Err(TestCaseError::fail(format!("not optimal: {other:?}"))),
        };
        // y_i > 0 ⇒ row i is tight.
        for (c, &y) in lp.constraints.iter().zip(&sol.duals) {
            if y > 1e-7 {
                let lhs: f64 = c.terms.iter().map(|&(j, a)| a * sol.x[j]).sum();
                prop_assert!((lhs - c.rhs).abs() < 1e-6,
                    "positive dual on a slack row: y={y}, slack={}", c.rhs - lhs);
            }
        }
        // x_j > 0 ⇒ dual constraint j is tight.
        let mut covered = vec![0.0f64; lp.num_vars()];
        for (c, &y) in lp.constraints.iter().zip(&sol.duals) {
            for &(j, a) in &c.terms {
                covered[j] += a * y;
            }
        }
        for (j, &cov) in covered.iter().enumerate() {
            if sol.x[j] > 1e-7 {
                prop_assert!((cov - lp.objective[j]).abs() < 1e-6,
                    "x_{j} basic but reduced cost {}", cov - lp.objective[j]);
            }
        }
    }
}

/// The fractional UFP oracle without a cache: every call runs one
/// Dijkstra per distinct source, scans the commodities by `(src, r)`
/// with a strict `<` tie-break, and re-derives the winner's path with a
/// second, targeted query. It also records whether the solver ever
/// renormalized `y` (some weight fell between two calls).
struct ReferenceOracle<'a> {
    graph: &'a Graph,
    capacities: &'a [f64],
    commodities: &'a [Commodity],
    row_of_edge: Vec<usize>,
    edge_of_row: Vec<usize>,
    by_source: Vec<(NodeId, Vec<usize>)>,
    dijkstra: RefCell<Dijkstra>,
    weights: RefCell<Vec<f64>>,
    paths: RefCell<Vec<(usize, Path)>>,
    last_y: RefCell<Vec<f64>>,
    rescaled: Cell<bool>,
}

impl<'a> ReferenceOracle<'a> {
    fn new(graph: &'a Graph, capacities: &'a [f64], commodities: &'a [Commodity]) -> Self {
        let mut row_of_edge = vec![usize::MAX; graph.num_edges()];
        let mut edge_of_row = Vec::new();
        for (e, &cap) in capacities.iter().enumerate() {
            if cap.is_finite() && cap > 0.0 {
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
        ReferenceOracle {
            graph,
            capacities,
            commodities,
            row_of_edge,
            edge_of_row,
            by_source,
            dijkstra: RefCell::new(Dijkstra::new(graph.num_nodes())),
            weights: RefCell::new(vec![f64::INFINITY; graph.num_edges()]),
            paths: RefCell::new(Vec::new()),
            last_y: RefCell::new(Vec::new()),
            rescaled: Cell::new(false),
        }
    }
}

impl ColumnOracle for ReferenceOracle<'_> {
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
        let mut last_y = self.last_y.borrow_mut();
        if last_y.iter().zip(y).any(|(&old, &new)| new < old) {
            self.rescaled.set(true);
        }
        last_y.clear();
        last_y.extend_from_slice(y);
        let nu = self.edge_of_row.len();
        let mut weights = self.weights.borrow_mut();
        for (row, &e) in self.edge_of_row.iter().enumerate() {
            weights[e] = y[row];
        }
        let alive = |e: EdgeId| self.row_of_edge[e.index()] != usize::MAX;
        let mut dij = self.dijkstra.borrow_mut();
        let mut best: Option<(f64, usize)> = None;
        for (src, members) in &self.by_source {
            let targets: Vec<NodeId> = members.iter().map(|&r| self.commodities[r].dst).collect();
            dij.run(self.graph, &weights, *src, Targets::Set(&targets), alive);
            for &r in members {
                let c = &self.commodities[r];
                let Some(dist) = dij.distance(c.dst) else {
                    continue;
                };
                let ratio = (c.demand * dist + y[nu + r]) / c.value;
                if best.is_none_or(|(b, _)| ratio < b) {
                    best = Some((ratio, r));
                }
            }
        }
        let (_, r) = best?;
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

/// `solve_fractional_ufp_with_caps` through the reference oracle, plus
/// whether the run renormalized `y`.
fn reference_solve(
    graph: &Graph,
    capacities: &[f64],
    commodities: &[Commodity],
    epsilon: f64,
    max_iterations: usize,
) -> (FracUfpSolution, bool) {
    let oracle = ReferenceOracle::new(graph, capacities, commodities);
    let sol = solve_packing(
        &oracle,
        PackingConfig {
            epsilon,
            max_iterations,
        },
    );
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
    let paths = oracle.paths.take();
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
    let frac = FracUfpSolution {
        value: sol.primal_value,
        upper_bound: sol.dual_bound,
        flows,
        iterations: sol.iterations,
        duals,
    };
    (frac, oracle.rescaled.get())
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Every field of the two solutions, floats compared by their bits.
fn assert_bit_identical(
    got: &FracUfpSolution,
    want: &FracUfpSolution,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.iterations, want.iterations);
    prop_assert_eq!(
        got.value.to_bits(),
        want.value.to_bits(),
        "value {} vs {}",
        got.value,
        want.value
    );
    prop_assert_eq!(
        got.upper_bound.to_bits(),
        want.upper_bound.to_bits(),
        "upper bound {} vs {}",
        got.upper_bound,
        want.upper_bound
    );
    prop_assert_eq!(bits(&got.duals), bits(&want.duals));
    prop_assert_eq!(got.flows.len(), want.flows.len());
    for (i, (g, w)) in got.flows.iter().zip(&want.flows).enumerate() {
        prop_assert_eq!(g.commodity, w.commodity, "flow {}", i);
        prop_assert_eq!(&g.path, &w.path, "flow {}", i);
        prop_assert_eq!(g.amount.to_bits(), w.amount.to_bits(), "flow {}", i);
    }
    Ok(())
}

/// A random fractional UFP instance: a directed or undirected graph
/// whose oracle capacities include dead edges (zero, negative, NaN), one
/// isolated vertex that commodities may target (unroutable), and either
/// many commodities over few pairs or all-distinct pairs.
fn arb_ufp() -> impl Strategy<Value = (Graph, Vec<f64>, Vec<Commodity>, f64)> {
    (
        4usize..12,
        any::<bool>(),
        any::<bool>(),
        0.02f64..0.5,
        any::<u64>(),
    )
        .prop_map(|(n, directed, distinct, epsilon, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            // The last vertex gets no edges.
            let wired = n - 1;
            let mut b = if directed {
                GraphBuilder::directed(n)
            } else {
                GraphBuilder::undirected(n)
            };
            let mut caps = Vec::new();
            for _ in 0..rng.random_range(2 * wired..5 * wired) {
                let u = rng.random_range(0..wired as u32);
                let v = rng.random_range(0..wired as u32);
                if u == v {
                    continue;
                }
                b.add_edge(NodeId(u), NodeId(v), 1.0);
                caps.push(match rng.random_range(0..10) {
                    0 => 0.0,
                    1 => -1.0,
                    2 => f64::NAN,
                    _ => rng.random_range(0.5..8.0),
                });
            }
            let graph = b.build();
            let pair = |rng: &mut StdRng| loop {
                let u = rng.random_range(0..wired as u32);
                // One pair in ten targets the isolated vertex.
                let v = if rng.random_bool(0.1) {
                    wired as u32
                } else {
                    rng.random_range(0..wired as u32)
                };
                if u != v {
                    return (NodeId(u), NodeId(v));
                }
            };
            let pairs: Vec<(NodeId, NodeId)> = if distinct {
                let mut ps = Vec::new();
                for _ in 0..rng.random_range(2..10) {
                    let p = pair(&mut rng);
                    if !ps.contains(&p) {
                        ps.push(p);
                    }
                }
                ps
            } else {
                let few: Vec<_> = (0..rng.random_range(1..4))
                    .map(|_| pair(&mut rng))
                    .collect();
                (0..rng.random_range(4..16))
                    .map(|_| few[rng.random_range(0..few.len())])
                    .collect()
            };
            let commodities = pairs
                .into_iter()
                .map(|(src, dst)| Commodity {
                    src,
                    dst,
                    demand: rng.random_range(0.2..3.0),
                    value: rng.random_range(0.5..5.0),
                })
                .collect();
            (graph, caps, commodities, epsilon)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cached_oracle_matches_full_scan_reference((graph, caps, commodities, epsilon) in arb_ufp()) {
        let got = solve_fractional_ufp_with_caps(&graph, &caps, &commodities, epsilon, 20_000);
        let (want, _) = reference_solve(&graph, &caps, &commodities, epsilon, 20_000);
        assert_bit_identical(&got, &want)?;
    }
}

/// A run that crosses the solver's `Σy > 1e140` renormalization part-way.
/// Commodity 0 can only use edge 0, whose capacity is `1e-139`: its
/// weight starts at `1e139`, and with a demand of the same scale its
/// column is ordinary, so each time it wins, `Σy` grows by `e^ε` until
/// the solver rescales every weight. The other commodities share three
/// routes out of vertex 3, so after the rescale a cache that missed the
/// flush would price them against stale distances.
#[test]
fn cached_oracle_matches_reference_across_a_renormalization() {
    let mut b = GraphBuilder::directed(6);
    let mut caps = Vec::new();
    for (u, v, cap) in [
        (0, 1, 1e-139),
        (3, 4, 1.0),
        (3, 5, 1.5),
        (4, 5, 2.0),
        (5, 1, 1.0),
        (4, 1, 0.5),
    ] {
        b.add_edge(NodeId(u), NodeId(v), 1.0);
        caps.push(cap);
    }
    let graph = b.build();
    let c = |src, dst, demand, value| Commodity {
        src: NodeId(src),
        dst: NodeId(dst),
        demand,
        value,
    };
    let commodities = vec![
        c(0, 1, 1e-139, 1.0),
        c(3, 4, 1.0, 2.0),
        c(3, 1, 0.5, 1.5),
        c(3, 5, 1.2, 2.5),
        c(3, 1, 0.8, 1.0),
        c(3, 4, 0.6, 1.1),
    ];
    for epsilon in [0.05, 0.1, 0.2] {
        let got = solve_fractional_ufp_with_caps(&graph, &caps, &commodities, epsilon, 200_000);
        let (want, rescaled) = reference_solve(&graph, &caps, &commodities, epsilon, 200_000);
        assert!(rescaled, "ε = {epsilon}: the run must renormalize y");
        assert!(want.iterations > 1);
        if let Err(e) = assert_bit_identical(&got, &want) {
            panic!("ε = {epsilon}: {e}");
        }
    }
}
