//! ISP admission control: the paper's motivating network-routing
//! scenario on a grid backbone.
//!
//! An ISP sells bandwidth-reserved connections across its backbone.
//! Customers declare (bandwidth, willingness-to-pay); the operator wants
//! near-maximal revenue **and** robustness to strategic bidding. This is
//! precisely the Ω(ln m)-bounded UFP in its mechanism-design setting.
//!
//! ```text
//! cargo run --release --example isp_routing
//! ```

use truthful_ufp::prelude::*;
use truthful_ufp::ufp_core::baselines::{greedy, GreedyOrder};
use truthful_ufp::ufp_workloads::{random_grid_ufp, ValueModel};

fn main() {
    // A 6x8 grid backbone; link capacities set to satisfy B >= ln(m)/eps^2
    // for eps = 0.25. 400 customer requests with heavy-tailed values.
    let eps = 0.25;
    let instance = random_grid_ufp(6, 8, 400, eps, 2024);
    let _ = ValueModel::Uniform(0.0, 0.0); // (models available for custom workloads)
    println!(
        "backbone: {} routers, {} links, link capacity ≥ {:.0}",
        instance.graph().num_nodes(),
        instance.graph().num_edges(),
        instance.graph().min_capacity()
    );
    println!(
        "demand book: {} requests, total declared value {:.1}",
        instance.num_requests(),
        instance.total_value()
    );

    // Admission control via Algorithm 1.
    let config = BoundedUfpConfig::with_epsilon(eps);
    let run = bounded_ufp(&instance, &config);
    run.solution
        .check_feasible(&instance, false)
        .expect("admission plan must respect link capacities");
    let value = run.solution.value(&instance);
    println!(
        "\nBounded-UFP admitted {} connections, booked value {value:.1}",
        run.solution.len()
    );
    if let Some(bound) = run.tight_upper_bound(&instance) {
        println!(
            "certified: no clairvoyant plan exceeds {bound:.1} (ratio ≤ {:.3})",
            bound / value
        );
    }

    // Link utilization profile.
    let util = run.solution.edge_utilization(&instance);
    let mean = util.iter().sum::<f64>() / util.len() as f64;
    let peak = util.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "link utilization: mean {:.1}%, peak {:.1}%",
        mean * 100.0,
        peak * 100.0
    );

    // Compare against a non-truthful greedy the ISP might have used.
    let g = greedy(&instance, GreedyOrder::ByDensity);
    println!(
        "\ngreedy-by-density books {:.1} — but offers no strategy-proofness:",
        g.value(&instance)
    );
    println!("customers can game it by shading bids; Bounded-UFP + critical-value");
    println!("payments make truthful bidding a dominant strategy (see E8).");

    // Longest admitted route, for flavor.
    if let Some((rid, path)) = run.solution.routed.iter().max_by_key(|(_, p)| p.len()) {
        println!(
            "\nlongest admitted route: request {rid} over {} hops",
            path.len()
        );
    }
}
