//! Budget-constrained optimization (paper eq. 6):
//! minimize `E(Instr)` subject to `C_cluster ≤ B`.
//!
//! The space is small (hundreds of configurations), so we follow the paper
//! and enumerate exhaustively; Rayon parallelizes the model evaluations
//! across candidates (the per-candidate work is a closed-form evaluation
//! plus a short fixed-point solve).

use crate::enumerate::CandidateSpace;
use crate::prices::PriceTable;
use crate::wire::{CostError, OptimizeReport, OptimizeRequest, RankedEntry, SearchStats};
use memhier_core::locality::WorkloadParams;
use memhier_core::model::AnalyticModel;
use memhier_core::platform::ClusterSpec;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// One evaluated candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedConfig {
    /// The cluster.
    pub spec: ClusterSpec,
    /// Its cost in dollars.
    pub cost: f64,
    /// Predicted `E(Instr)` in seconds (∞ = model rejected/saturated).
    pub e_instr_seconds: f64,
}

/// Where one candidate of the grid landed during evaluation.
enum Tally {
    Unpriced,
    OverBudget,
    ModelRejected,
    SloFiltered,
    Feasible(RankedConfig),
}

/// A fully evaluated candidate space: the ranked feasible survivors,
/// their Pareto frontier, and the counted fate of every candidate.
#[derive(Debug, Clone)]
pub struct SpaceEvaluation {
    /// Feasible candidates, best predicted `E(Instr)` first (ties broken
    /// by lower cost).
    pub feasible: Vec<RankedConfig>,
    /// Cost/performance Pareto frontier of the feasible set, cost
    /// ascending and `E(Instr)` strictly descending.
    pub pareto: Vec<RankedConfig>,
    /// Where every candidate went (`confirmed` still 0 at this stage —
    /// simulation confirmation happens in `memhier-bench`).
    pub stats: SearchStats,
}

/// Evaluate every candidate of `space` against `budget`, an optional
/// `slo` (max model-predicted seconds), `workload`, and `prices` in one
/// parallel pass.  Nothing is silently dropped: a candidate the market
/// cannot price, an over-budget cluster, a model-rejected config, and an
/// SLO miss are each counted in [`SearchStats`].
pub fn evaluate_space(
    budget: f64,
    slo: Option<f64>,
    workload: &WorkloadParams,
    model: &AnalyticModel,
    prices: &PriceTable,
    space: &CandidateSpace,
) -> SpaceEvaluation {
    let tallies: Vec<Tally> = space
        .candidates()
        .into_par_iter()
        .map(|spec| {
            let Some(cost) = prices.cluster_cost(&spec) else {
                return Tally::Unpriced;
            };
            if cost > budget {
                return Tally::OverBudget;
            }
            let e = model.evaluate_or_inf(&spec, workload);
            if !e.is_finite() {
                return Tally::ModelRejected;
            }
            if slo.is_some_and(|max| e > max) {
                return Tally::SloFiltered;
            }
            Tally::Feasible(RankedConfig {
                spec,
                cost,
                e_instr_seconds: e,
            })
        })
        .collect();

    let mut stats = SearchStats {
        candidates: tallies.len(),
        ..SearchStats::default()
    };
    let mut feasible = Vec::new();
    for t in tallies {
        match t {
            Tally::Unpriced => stats.unpriced += 1,
            Tally::OverBudget => stats.over_budget += 1,
            Tally::ModelRejected => stats.model_rejected += 1,
            Tally::SloFiltered => stats.slo_filtered += 1,
            Tally::Feasible(r) => feasible.push(r),
        }
    }
    stats.feasible = feasible.len();
    stats.set_confirmed(0);
    feasible.sort_by(|a, b| {
        a.e_instr_seconds
            .total_cmp(&b.e_instr_seconds)
            .then(a.cost.total_cmp(&b.cost))
    });
    let pareto = frontier_of(feasible.clone());
    SpaceEvaluation {
        feasible,
        pareto,
        stats,
    }
}

/// The Pareto frontier of an arbitrary evaluated set: sort by cost, keep
/// every config no cheaper config can match.
fn frontier_of(mut all: Vec<RankedConfig>) -> Vec<RankedConfig> {
    all.sort_by(|a, b| {
        a.cost
            .total_cmp(&b.cost)
            .then(a.e_instr_seconds.total_cmp(&b.e_instr_seconds))
    });
    let mut frontier: Vec<RankedConfig> = Vec::new();
    let mut best = f64::INFINITY;
    for c in all {
        if c.e_instr_seconds < best {
            best = c.e_instr_seconds;
            frontier.push(c);
        }
    }
    frontier
}

/// Enumerate `space`, keep candidates within `budget`, evaluate the model
/// for `workload`, and return the survivors sorted by predicted
/// `E(Instr)` (ties broken by lower cost).
///
/// The first element, if any, is the optimizer's answer to the paper's
/// question 1: *"what is an optimal or a nearly optimal cluster platform
/// for cost-effective parallel computing under a given budget and a given
/// type of workload?"*  (Thin wrapper over [`evaluate_space`], which
/// additionally reports where every pruned candidate went.)
pub fn optimize(
    budget: f64,
    workload: &WorkloadParams,
    model: &AnalyticModel,
    prices: &PriceTable,
    space: &CandidateSpace,
) -> Vec<RankedConfig> {
    evaluate_space(budget, None, workload, model, prices, space).feasible
}

/// Run the analytic stage of an [`OptimizeRequest`] end to end: resolve
/// the workload, evaluate the grid, and assemble the [`OptimizeReport`]
/// (ranked shortlist, analytic `best`, feasible-set Pareto frontier,
/// pruning diagnostics).  Simulation confirmation of the finalists —
/// `confirm > 0` — is layered on by `memhier-bench`, which owns the
/// simulator; this function alone leaves `search.confirmed` at 0.
pub fn analyze(req: &OptimizeRequest) -> Result<OptimizeReport, CostError> {
    Ok(analyze_eval(req)?.0)
}

/// [`analyze`] returning the underlying [`SpaceEvaluation`] alongside
/// the report, so a confirmation stage can reach the concrete
/// [`ClusterSpec`]s of the ranked finalists (the report itself carries
/// only their flattened wire projection).
pub fn analyze_eval(req: &OptimizeRequest) -> Result<(OptimizeReport, SpaceEvaluation), CostError> {
    let w = req.workload.resolve()?;
    let eval = evaluate_space(
        req.budget,
        req.slo,
        &w,
        &AnalyticModel::default(),
        &req.prices,
        &req.search_space,
    );
    // The shortlist must show every simulated finalist, so it extends to
    // `confirm` when that exceeds `top`.
    let shortlist = req.top.max(req.confirm).min(eval.feasible.len());
    let ranked: Vec<RankedEntry> = eval.feasible[..shortlist]
        .iter()
        .map(RankedEntry::from_ranked)
        .collect();
    let best = ranked.first().cloned();
    let pareto = eval.pareto.iter().map(RankedEntry::from_ranked).collect();
    let report = OptimizeReport {
        workload: w.name.clone(),
        alpha: w.locality.alpha,
        beta: w.locality.beta,
        rho: w.rho,
        budget: req.budget,
        slo: req.slo,
        search: eval.stats.clone(),
        ranked,
        best,
        pareto,
    };
    Ok((report, eval))
}

/// The cost-vs-performance **Pareto frontier** of a candidate space: the
/// configurations that no cheaper configuration can match.  Useful when
/// the budget itself is negotiable — the frontier shows where extra
/// dollars stop buying meaningful speedup.  Returned sorted by cost
/// ascending (and, by construction, `E(Instr)` strictly descending).
pub fn pareto_frontier(
    workload: &WorkloadParams,
    model: &AnalyticModel,
    prices: &PriceTable,
    space: &CandidateSpace,
) -> Vec<RankedConfig> {
    let all: Vec<RankedConfig> = space
        .candidates()
        .into_par_iter()
        .filter_map(|spec| {
            let cost = prices.cluster_cost(&spec)?;
            let e = model.evaluate_or_inf(&spec, workload);
            if !e.is_finite() {
                return None;
            }
            Some(RankedConfig {
                spec,
                cost,
                e_instr_seconds: e,
            })
        })
        .collect();
    frontier_of(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fft() -> WorkloadParams {
        WorkloadParams::new("FFT", 1.21, 103.26, 0.20).unwrap()
    }
    fn lu() -> WorkloadParams {
        WorkloadParams::new("LU", 1.30, 90.27, 0.31).unwrap()
    }
    fn radix() -> WorkloadParams {
        WorkloadParams::new("Radix", 1.14, 120.84, 0.37).unwrap()
    }

    fn run(budget: f64, w: &WorkloadParams) -> Vec<RankedConfig> {
        optimize(
            budget,
            w,
            &AnalyticModel::default(),
            &PriceTable::circa_1999(),
            &CandidateSpace::paper_market(),
        )
    }

    #[test]
    fn respects_budget() {
        for r in run(5000.0, &fft()) {
            assert!(r.cost <= 5000.0);
        }
    }

    #[test]
    fn sorted_by_predicted_time() {
        let rs = run(20_000.0, &lu());
        assert!(!rs.is_empty());
        for w in rs.windows(2) {
            assert!(w[0].e_instr_seconds <= w[1].e_instr_seconds);
        }
    }

    #[test]
    fn five_k_budget_excludes_smps() {
        // §6 case 1: at $5,000 no SMP is affordable — every candidate is
        // workstation-based (n = 1).
        let rs = run(5000.0, &fft());
        assert!(!rs.is_empty());
        assert!(
            rs.iter().all(|r| r.spec.machine.n_procs == 1),
            "SMP leaked under $5k"
        );
    }

    #[test]
    fn lu_wants_more_machines_slower_net_than_fft() {
        // §6's FFT-vs-LU contrast: among genuinely parallel candidates
        // (N ≥ 2), LU (good locality) tolerates a slow network and buys
        // machine count, while FFT (poor locality) spends on the network.
        let budget = 12_000.0;
        let best_multi = |w: &WorkloadParams| {
            run(budget, w)
                .into_iter()
                .find(|r| r.spec.machines >= 2)
                .expect("a multi-machine candidate exists")
        };
        let lu_best = best_multi(&lu());
        let fft_best = best_multi(&fft());
        assert!(
            lu_best.spec.machines >= fft_best.spec.machines,
            "LU {} vs FFT {}",
            lu_best.spec.describe(),
            fft_best.spec.describe()
        );
        let bw = |r: &RankedConfig| r.spec.network.map(|n| n.mbps()).unwrap_or(0.0);
        assert!(
            bw(&lu_best) <= bw(&fft_best),
            "LU picked a faster network ({}) than FFT ({})",
            lu_best.spec.describe(),
            fft_best.spec.describe()
        );
    }

    #[test]
    fn bigger_budget_never_hurts() {
        let small = run(5000.0, &radix());
        let big = run(20_000.0, &radix());
        assert!(big[0].e_instr_seconds <= small[0].e_instr_seconds);
        assert!(big.len() > small.len());
    }

    #[test]
    fn zero_budget_buys_nothing() {
        assert!(run(0.0, &fft()).is_empty());
    }

    #[test]
    fn memory_bound_poor_locality_prefers_short_hierarchy() {
        // §6: Radix-class workloads should pick an SMP (or at worst a fast
        // switch cluster) over slow-Ethernet clusters at a budget where
        // SMPs are affordable.
        let rs = run(20_000.0, &radix());
        let best = &rs[0];
        let net_ok = best
            .spec
            .network
            .map(|n| n != memhier_core::machine::NetworkKind::Ethernet10)
            .unwrap_or(true);
        assert!(
            net_ok,
            "Radix should avoid 10Mb Ethernet: {}",
            best.spec.describe()
        );
    }
    #[test]
    fn pareto_frontier_is_monotone() {
        let f = pareto_frontier(
            &radix(),
            &AnalyticModel::default(),
            &PriceTable::circa_1999(),
            &CandidateSpace::paper_market(),
        );
        assert!(!f.is_empty());
        for w in f.windows(2) {
            assert!(w[0].cost < w[1].cost, "costs strictly increase");
            assert!(
                w[0].e_instr_seconds > w[1].e_instr_seconds,
                "E(Instr) strictly decreases along the frontier"
            );
        }
    }

    #[test]
    fn frontier_head_matches_cheapest_and_optimizer() {
        // The frontier's best-E point equals the unconstrained optimum.
        let model = AnalyticModel::default();
        let prices = PriceTable::circa_1999();
        let space = CandidateSpace::paper_market();
        let f = pareto_frontier(&fft(), &model, &prices, &space);
        let unconstrained = optimize(f64::INFINITY, &fft(), &model, &prices, &space);
        let best = f.last().unwrap();
        assert_eq!(best.e_instr_seconds, unconstrained[0].e_instr_seconds);
    }
}
