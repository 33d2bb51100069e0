//! The fleet-scale optimizer's simulation-confirmation stage: the glue
//! between `memhier-cost`'s analytic search and the sweep runner.
//!
//! [`run_optimize`] is the one entry point behind both `memhier
//! optimize` and `memhierd`'s `POST /v1/optimize`:
//!
//! 1. **Prune analytically** — [`memhier_cost::analyze_eval`] enumerates
//!    the request's candidate grid (thousands of configurations),
//!    prices every candidate, and ranks the feasible survivors by the
//!    closed-form model, counting every pruned candidate.
//! 2. **Confirm by simulation** — the top `confirm` finalists run
//!    through the full program-driven simulator via a [`SweepPlan`], so
//!    they inherit the whole sweep substrate for free: the `--jobs`
//!    rayon pool and — when a process-wide
//!    [`CheckpointConfig`](crate::sweeprun::CheckpointConfig) is
//!    installed — the crash-safe JSONL journal with `--resume`.
//!
//! Results are deterministic at any `--jobs` width (grid-ordered sweep
//! results, each from a deterministic single-threaded engine), so the
//! report is byte-identical however it was scheduled — pinned by
//! `tests/optimize_determinism.rs`.

use crate::names::{sizes_by_name, workload_kind_by_name};
use crate::sweeprun::{run_sweep, SweepPlan};
use memhier_cost::{CostError, OptimizeReport, OptimizeRequest, SimConfirmation, WorkloadSpec};

/// Execute an optimize request end to end: analytic pruning, then
/// simulation confirmation of the `confirm` best-ranked finalists.
///
/// With `confirm = 0` this is exactly the analytic
/// [`analyze`](memhier_cost::analyze).  With `confirm > 0` the workload
/// must be a named paper kernel (custom `(α, β, ρ)` parameters have no
/// simulator kernel — [`CostError::Unsimulatable`]); each finalist's
/// entry gains a `simulated` block, `search.confirmed` and the pruning
/// ratio are updated, and `best` becomes the **simulation-confirmed**
/// winner (minimum simulated seconds, ties broken by lower cost).
///
/// Grid points the kernel cannot be decomposed across (see
/// [`Workload::supports_processes`](memhier_workloads::registry::Workload::supports_processes))
/// are passed over in rank order for the next feasible candidate, so a
/// searched grid never panics the simulator.
pub fn run_optimize(req: &OptimizeRequest) -> Result<OptimizeReport, CostError> {
    let (mut report, eval) = memhier_cost::analyze_eval(req)?;
    let finalists = req.confirm.min(eval.feasible.len());
    if req.confirm == 0 || finalists == 0 {
        return Ok(report);
    }

    let kind = match &req.workload {
        WorkloadSpec::Named(name) => workload_kind_by_name(name)
            .map_err(|_| CostError::Unsimulatable(format!("no simulator kernel for `{name}`")))?,
        WorkloadSpec::Custom { .. } => {
            return Err(CostError::Unsimulatable(
                "custom (alpha, beta, rho) workloads have no simulator kernel; \
                 set `confirm` to 0 for analytic-only search"
                    .to_string(),
            ))
        }
    };
    let sizes =
        sizes_by_name(&req.confirm_size).map_err(|e| CostError::Invalid("confirm_size", e))?;
    let workload = sizes.workload(kind);

    // Pick the finalists in rank order, passing over grid points the
    // kernel has no decomposition for (e.g. Radix needs the process
    // count to divide the key count) in favor of the next-ranked
    // candidate — a searched grid is not a curated config list.
    let selected: Vec<usize> = eval
        .feasible
        .iter()
        .enumerate()
        .filter(|(_, r)| workload.supports_processes(r.spec.total_procs() as usize))
        .map(|(i, _)| i)
        .take(finalists)
        .collect();

    // The shortlist must show every simulated finalist; skipping can
    // push a finalist past the `top.max(confirm)` prefix `analyze_eval`
    // ranked, so extend it (it stays a rank-ordered prefix of the
    // feasible set).
    if let Some(&deepest) = selected.last() {
        while report.ranked.len() <= deepest {
            let next = &eval.feasible[report.ranked.len()];
            report
                .ranked
                .push(memhier_cost::RankedEntry::from_ranked(next));
        }
    }

    // One point per selected finalist, in rank order, so sweep index
    // `i` maps onto `report.ranked[selected[i]]`.  The plan inherits the
    // ambient jobs pool and checkpoint journal.  With no finalist there
    // is nothing to confirm, so no sweep runs and no journal is read or
    // written.
    let specs: Vec<_> = selected
        .iter()
        .map(|&i| eval.feasible[i].spec.clone())
        .collect();
    let results = if specs.is_empty() {
        Vec::new()
    } else {
        run_sweep(&SweepPlan::cross("optimize", sizes, &specs, &[kind]))
    };

    for pr in &results {
        debug_assert!(pr.index < selected.len());
        if let Some(entry) = report.ranked.get_mut(selected[pr.index]) {
            entry.simulated = Some(SimConfirmation {
                size: req.confirm_size.clone(),
                seconds: pr.run.report.e_instr_seconds,
                wall_cycles: pr.run.report.wall_cycles,
            });
        }
    }
    // Quarantined points (fault injection / panics) are dropped by the
    // sweep runner, so `confirmed` counts what actually ran.
    report.search.set_confirmed(results.len());

    // The recommendation follows the simulator once it has spoken.
    report.best = report
        .ranked
        .iter()
        .filter(|e| e.simulated.is_some())
        .min_by(|a, b| {
            let (sa, sb) = (
                a.simulated.as_ref().expect("filtered").seconds,
                b.simulated.as_ref().expect("filtered").seconds,
            );
            sa.total_cmp(&sb).then(a.cost.total_cmp(&b.cost))
        })
        .cloned()
        .or(report.best);
    Ok(report)
}

/// Resolve a recommend request into the typed report, running the
/// trace-measurement and budget-ranking stages as asked: the one entry
/// point behind `memhier recommend` and `memhierd`'s `/v1/recommend`.
pub fn run_recommend(
    req: &memhier_cost::RecommendRequest,
) -> Result<memhier_cost::RecommendReport, CostError> {
    let params = match (&req.workload, req.measure) {
        (WorkloadSpec::Named(name), true) => {
            let kind = workload_kind_by_name(name).map_err(|_| {
                CostError::Invalid("measure", format!("no simulator kernel for `{name}`"))
            })?;
            let sizes = sizes_by_name(req.size.as_deref().unwrap_or("small"))
                .map_err(|e| CostError::Invalid("size", e))?;
            crate::sweeprun::characterize_cached(&sizes.workload(kind), 64).to_model_params()
        }
        _ => req.workload.resolve()?,
    };
    let rec = memhier_cost::recommend(&params);
    let ranked = match req.budget {
        None => None,
        Some(budget) => {
            let ranked = memhier_cost::optimize(
                budget,
                &params,
                &memhier_core::model::AnalyticModel::default(),
                &req.prices,
                &memhier_cost::CandidateSpace::paper_market(),
            );
            Some(
                ranked
                    .iter()
                    .take(req.top.max(1))
                    .map(memhier_cost::RankedEntry::from_ranked)
                    .collect(),
            )
        }
    };
    Ok(memhier_cost::RecommendReport::new(&params, &rec, ranked))
}

#[cfg(test)]
mod tests {
    use super::*;
    use memhier_cost::WorkloadSpec;

    fn small_request(confirm: usize) -> OptimizeRequest {
        let mut req = OptimizeRequest::new(WorkloadSpec::named("LU").unwrap(), 8_000.0);
        // A compact grid keeps the test fast while still exercising the
        // prune → confirm pipeline.
        req.search_space.max_machines = 4;
        req.search_space.memory_mb = vec![32, 64];
        req.confirm = confirm;
        req
    }

    #[test]
    fn analytic_only_leaves_confirmed_zero() {
        let report = run_optimize(&small_request(0)).unwrap();
        assert_eq!(report.search.confirmed, 0);
        assert!(report.ranked.iter().all(|e| e.simulated.is_none()));
        assert_eq!(report.search.pruning_ratio, 1.0);
    }

    #[test]
    fn confirmation_attaches_sims_and_updates_ratio() {
        let report = run_optimize(&small_request(2)).unwrap();
        assert_eq!(report.search.confirmed, 2);
        let simulated: Vec<_> = report
            .ranked
            .iter()
            .filter(|e| e.simulated.is_some())
            .collect();
        assert_eq!(simulated.len(), 2);
        // The two finalists are the head of the ranked list.
        assert!(report.ranked[0].simulated.is_some());
        assert!(report.ranked[1].simulated.is_some());
        let best = report.best.as_ref().unwrap();
        assert!(best.simulated.is_some(), "best must be sim-confirmed");
        assert!(
            report.search.pruning_ratio < 1.0
                && report.search.pruning_ratio > 1.0 - 3.0 / report.search.candidates as f64
        );
    }

    #[test]
    fn undivisible_grid_points_are_passed_over() {
        // small Radix sorts 16 K keys: no 3-process decomposition exists
        // (3 ∤ 2^14), so the 3-machine workstation cluster must be
        // skipped in favor of the next-ranked finalist, not panic the
        // simulator.
        let mut req = OptimizeRequest::new(WorkloadSpec::named("Radix").unwrap(), 30_000.0);
        req.search_space.proc_counts = vec![1];
        req.search_space.cache_kb = vec![256];
        req.search_space.memory_mb = vec![64];
        req.search_space.max_machines = 3;
        req.confirm = 8;
        let report = run_optimize(&req).unwrap();

        let eval = memhier_cost::analyze_eval(&req).unwrap().1;
        let workload = sizes_by_name(&req.confirm_size)
            .unwrap()
            .workload(workload_kind_by_name("Radix").unwrap());
        let compatible = eval
            .feasible
            .iter()
            .filter(|r| workload.supports_processes(r.spec.total_procs() as usize))
            .count();
        assert!(
            compatible < eval.feasible.len(),
            "grid must contain an undivisible point for this test to bite"
        );
        assert_eq!(report.search.confirmed, compatible);
        assert!(report.best.unwrap().simulated.is_some());
    }

    #[test]
    fn custom_workload_cannot_confirm() {
        let mut req = OptimizeRequest::new(
            WorkloadSpec::Custom {
                alpha: 1.3,
                beta: 90.0,
                rho: 0.31,
            },
            8_000.0,
        );
        req.confirm = 2;
        assert!(matches!(
            run_optimize(&req),
            Err(CostError::Unsimulatable(_))
        ));
        req.confirm = 0;
        assert!(run_optimize(&req).is_ok());
    }
}
