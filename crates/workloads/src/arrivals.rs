//! Streaming arrival-process traces for the admission-control engine.
//!
//! Where [`crate::random_ufp()`] builds one-shot batch instances, this
//! module builds *time series*: per-epoch batches of
//! [`ufp_engine::Arrival`]s following classic traffic shapes —
//! homogeneous Poisson, diurnal sinusoid, flash-crowd bursts, and churn
//! (finite request lifetimes that release capacity back to the network).
//! All generators are deterministic functions of their seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ufp_core::Request;
use ufp_engine::Arrival;
use ufp_netgraph::graph::Graph;

use crate::endpoints::EndpointSampler;
use crate::random_ufp::ValueModel;

/// Shape of the per-epoch arrival counts.
#[derive(Clone, Copy, Debug)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson: counts `~ Poisson(mean)` every epoch.
    Poisson {
        /// Mean arrivals per epoch `λ`.
        mean: f64,
    },
    /// Diurnal sinusoid: `λ_t = mean·(1 + amplitude·sin(2πt/period))`,
    /// the day/night load swing of user-facing traffic.
    Diurnal {
        /// Baseline mean arrivals per epoch.
        mean: f64,
        /// Relative swing in `[0, 1]`.
        amplitude: f64,
        /// Period in epochs.
        period: u32,
    },
    /// Flash crowd: Poisson at `base`, except epochs
    /// `[at, at + width)` spike to `base + spike`.
    FlashCrowd {
        /// Off-peak mean arrivals per epoch.
        base: f64,
        /// Additional mean during the spike.
        spike: f64,
        /// First spiked epoch (0-based).
        at: u32,
        /// Spike duration in epochs.
        width: u32,
    },
}

impl ArrivalProcess {
    /// Mean arrivals for epoch `t`.
    pub fn mean_at(&self, t: u32) -> f64 {
        match *self {
            ArrivalProcess::Poisson { mean } => mean,
            ArrivalProcess::Diurnal {
                mean,
                amplitude,
                period,
            } => {
                let phase = 2.0 * std::f64::consts::PI * t as f64 / period.max(1) as f64;
                (mean * (1.0 + amplitude * phase.sin())).max(0.0)
            }
            ArrivalProcess::FlashCrowd {
                base,
                spike,
                at,
                width,
            } => {
                if (at..at.saturating_add(width)).contains(&t) {
                    base + spike
                } else {
                    base
                }
            }
        }
    }
}

/// Configuration of [`arrival_trace`].
#[derive(Clone, Copy, Debug)]
pub struct ArrivalTraceConfig {
    /// Number of epochs (batches) to generate.
    pub epochs: usize,
    /// Arrival-count process.
    pub process: ArrivalProcess,
    /// When `Some(k)`, endpoints are drawn from `k` fixed connected
    /// hotspot pairs (concentrated demand, as in
    /// [`crate::RandomUfpConfig::hotspot_pairs`]); `None` samples
    /// uniformly random connected pairs.
    pub hotspot_pairs: Option<usize>,
    /// Demand range within `(0, 1]`.
    pub demand_range: (f64, f64),
    /// Value model.
    pub values: ValueModel,
    /// Churn: `Some((lo, hi))` draws each request's TTL uniformly from
    /// `lo..=hi` epochs; `None` makes admissions permanent.
    pub ttl_range: Option<(u32, u32)>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ArrivalTraceConfig {
    fn default() -> Self {
        ArrivalTraceConfig {
            epochs: 10,
            process: ArrivalProcess::Poisson { mean: 50.0 },
            hotspot_pairs: None,
            demand_range: (0.2, 1.0),
            values: ValueModel::Uniform(0.5, 2.0),
            ttl_range: None,
            seed: 1,
        }
    }
}

/// Sample a Poisson count. Knuth's product-of-uniforms for small means,
/// normal approximation (Box–Muller) for large ones — `e^{−λ}` underflows
/// long before λ reaches the trace sizes the engine targets.
pub fn poisson_count<R: Rng>(mean: f64, rng: &mut R) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    if mean < 30.0 {
        let limit = (-mean).exp();
        let mut k = 0usize;
        let mut p = 1.0f64;
        loop {
            p *= rng.random_range(0.0..1.0);
            if p <= limit {
                return k;
            }
            k += 1;
        }
    }
    // Box–Muller; Poisson(λ) ≈ N(λ, λ) for large λ.
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (mean + mean.sqrt() * z).round().max(0.0) as usize
}

/// Generate a deterministic arrival trace over `graph`: one batch of
/// [`Arrival`]s per epoch. Every request connects a reachable endpoint
/// pair, so rejections measure congestion rather than disconnection.
pub fn arrival_trace(graph: &Graph, config: &ArrivalTraceConfig) -> Vec<Vec<Arrival>> {
    let (dlo, dhi) = config.demand_range;
    assert!(
        0.0 < dlo && dlo <= dhi && dhi <= 1.0,
        "demands must lie in (0,1]"
    );
    if let Some((lo, hi)) = config.ttl_range {
        assert!(1 <= lo && lo <= hi, "ttl range must be 1 <= lo <= hi");
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut sampler = EndpointSampler::new(graph, config.hotspot_pairs);
    let mut trace = Vec::with_capacity(config.epochs);
    for t in 0..config.epochs {
        let count = poisson_count(config.process.mean_at(t as u32), &mut rng);
        let mut batch = Vec::with_capacity(count);
        for _ in 0..count {
            let (src, dst) = sampler.sample(graph, &mut rng);
            let demand = if dlo == dhi {
                dlo
            } else {
                rng.random_range(dlo..=dhi)
            };
            let value = config.values.sample_value(demand, &mut rng);
            let request = Request::new(src, dst, demand, value);
            let arrival = match config.ttl_range {
                None => Arrival::permanent(request),
                Some((lo, hi)) => Arrival::with_ttl(request, rng.random_range(lo..=hi)),
            };
            batch.push(arrival);
        }
        trace.push(batch);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufp_netgraph::generators;

    fn test_graph(seed: u64) -> Graph {
        generators::gnm_digraph(30, 200, (50.0, 100.0), &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn poisson_counts_track_the_mean() {
        let mut rng = StdRng::seed_from_u64(5);
        for &mean in &[0.5f64, 5.0, 20.0, 200.0] {
            let n = 400;
            let total: usize = (0..n).map(|_| poisson_count(mean, &mut rng)).sum();
            let avg = total as f64 / n as f64;
            assert!(
                (avg - mean).abs() < 4.0 * (mean / n as f64).sqrt() + 0.5,
                "mean {mean}: sample average {avg}"
            );
        }
        assert_eq!(poisson_count(0.0, &mut rng), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = test_graph(1);
        let cfg = ArrivalTraceConfig {
            epochs: 5,
            ..Default::default()
        };
        let a = arrival_trace(&g, &cfg);
        let b = arrival_trace(&g, &cfg);
        assert_eq!(a, b);
        let c = arrival_trace(&g, &ArrivalTraceConfig { seed: 2, ..cfg });
        assert_ne!(a, c);
    }

    #[test]
    fn diurnal_swings_between_day_and_night() {
        let p = ArrivalProcess::Diurnal {
            mean: 100.0,
            amplitude: 0.8,
            period: 24,
        };
        let peak = p.mean_at(6); // sin peaks a quarter period in
        let trough = p.mean_at(18);
        assert!(peak > 170.0, "peak {peak}");
        assert!(trough < 30.0, "trough {trough}");
        assert!((p.mean_at(0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn flash_crowd_spikes_in_window() {
        let p = ArrivalProcess::FlashCrowd {
            base: 10.0,
            spike: 90.0,
            at: 5,
            width: 3,
        };
        assert_eq!(p.mean_at(4), 10.0);
        assert_eq!(p.mean_at(5), 100.0);
        assert_eq!(p.mean_at(7), 100.0);
        assert_eq!(p.mean_at(8), 10.0);
    }

    #[test]
    fn churn_ttls_land_in_range() {
        let g = test_graph(2);
        let cfg = ArrivalTraceConfig {
            epochs: 4,
            ttl_range: Some((2, 6)),
            ..Default::default()
        };
        let trace = arrival_trace(&g, &cfg);
        let mut seen = 0;
        for batch in &trace {
            for a in batch {
                let ttl = a.ttl.expect("churn trace must set ttls");
                assert!((2..=6).contains(&ttl));
                seen += 1;
            }
        }
        assert!(seen > 0);
    }

    #[test]
    fn hotspots_concentrate_endpoints() {
        let g = test_graph(3);
        let cfg = ArrivalTraceConfig {
            epochs: 6,
            hotspot_pairs: Some(4),
            ..Default::default()
        };
        let trace = arrival_trace(&g, &cfg);
        let mut pairs = std::collections::HashSet::new();
        for a in trace.iter().flatten() {
            pairs.insert((a.request.src, a.request.dst));
        }
        assert!(
            pairs.len() <= 4,
            "expected ≤ 4 hotspot pairs, got {}",
            pairs.len()
        );
    }

    #[test]
    fn demands_and_values_in_range() {
        let g = test_graph(4);
        let cfg = ArrivalTraceConfig {
            epochs: 3,
            demand_range: (0.25, 0.75),
            ..Default::default()
        };
        for a in arrival_trace(&g, &cfg).iter().flatten() {
            assert!((0.25..=0.75).contains(&a.request.demand));
            assert!(a.request.value > 0.0);
        }
    }
}
