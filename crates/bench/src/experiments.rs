//! One function per paper artifact (DESIGN.md experiment index E1–E11).
//!
//! Every function returns (and its binary prints) a [`Table`] and saves a
//! JSON artifact under `target/experiments/` for EXPERIMENTS.md.

use crate::calib::{calibrate, CalibPoint};
use crate::runner::{simulate_workload, Characterization, Sizes};
use crate::sweeprun::{characterize_many, run_sweep, SweepPlan};
use crate::tables::{fmt_pct, fmt_seconds, save_json, Table};
use memhier_core::locality::WorkloadParams;
use memhier_core::machine::{MachineSpec, NetworkKind};
use memhier_core::model::AnalyticModel;
use memhier_core::params::configs;
use memhier_core::platform::{ClusterSpec, PlatformKind};
use memhier_cost::{optimize, plan_upgrade, recommend, CandidateSpace, PriceTable};
use memhier_workloads::registry::WorkloadKind;
use serde::Serialize;

/// Stack-distance granularity for all characterizations (one cache line).
pub const GRANULARITY: u64 = 64;

/// E1 — Table 1: platform ↔ additional memory-hierarchy levels.
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table 1: classifying the three parallel systems by the cluster memory hierarchy",
        &[
            "Parallel system",
            "Additional memory levels",
            "Hierarchy length k",
        ],
    );
    for p in [
        PlatformKind::Smp,
        PlatformKind::ClusterOfWorkstations,
        PlatformKind::ClusterOfSmps,
    ] {
        t.row(vec![
            p.to_string(),
            p.additional_levels().to_string(),
            p.hierarchy_length().to_string(),
        ]);
    }
    t
}

/// E2 — Table 2: measured `(α, β, ρ)` of the four kernels (plus TPC-C),
/// side by side with the paper's published values.
pub fn table2(sizes: Sizes, include_tpcc: bool) -> (Table, Vec<Characterization>) {
    let kinds = table2_kinds(include_tpcc);
    let mut t = Table::new(
        "Table 2: program characteristics (ours vs paper)",
        &[
            "Program",
            "alpha",
            "beta",
            "rho",
            "R^2",
            "refs",
            "alpha(paper)",
            "beta(paper)",
            "rho(paper)",
        ],
    );
    // Fan the per-program characterizations out over the sweep pool; the
    // process-wide cache means re-running table2 (as every figure experiment
    // does) analyzes each address stream only once.
    let chars = characterize_many(sizes, &kinds, GRANULARITY);
    for (kind, c) in kinds.iter().zip(&chars) {
        let p = kind.info();
        t.row(vec![
            c.name.clone(),
            format!("{:.2}", c.alpha),
            format!("{:.1}", c.beta),
            format!("{:.2}", c.rho),
            format!("{:.3}", c.r_squared),
            c.refs.to_string(),
            format!("{:.2}", p.alpha),
            format!("{:.1}", p.beta),
            format!("{:.2}", p.rho),
        ]);
    }
    save_json("table2", &chars);
    (t, chars)
}

/// The four Table-2 kernels, plus the §5.2 TPC-C aside when asked.
fn table2_kinds(include_tpcc: bool) -> Vec<WorkloadKind> {
    let mut kinds = WorkloadKind::PAPER.to_vec();
    if include_tpcc {
        kinds.push(WorkloadKind::Tpcc);
    }
    kinds
}

/// [`table2_kinds`]' published model parameters.
fn table2_params(include_tpcc: bool) -> Vec<WorkloadParams> {
    table2_kinds(include_tpcc)
        .iter()
        .map(|k| k.params())
        .collect()
}

/// One row of a model-vs-simulation figure.
#[derive(Debug, Clone, Serialize)]
pub struct FigureRow {
    /// Configuration name (C1–C15).
    pub config: String,
    /// Workload name.
    pub workload: String,
    /// Simulated `E(Instr)`, seconds.
    pub sim_seconds: f64,
    /// Model with the paper's published knobs (12.4%, raw disk tail).
    pub model_paper_seconds: f64,
    /// Model after §5.3.2-style calibration.
    pub model_calibrated_seconds: f64,
    /// Relative difference of the calibrated model vs simulation.
    pub diff_calibrated: f64,
    /// Simulated node-0 bus utilization (§5.3.1's saturation diagnostic).
    pub bus_utilization: f64,
    /// Simulated interconnect utilization (0 for a single SMP).
    pub network_utilization: f64,
}

/// Shared engine of E3/E4/E5: simulate every (config × kernel), evaluate
/// the model with measured parameters, calibrate the rate knobs on these
/// points, and report.
pub fn figure_experiment(
    figure_name: &str,
    title: &str,
    cluster_set: &[ClusterSpec],
    sizes: Sizes,
    chars: &[Characterization],
) -> (Table, Vec<FigureRow>, AnalyticModel) {
    let base = AnalyticModel::default();
    // 1. Simulate everything — the full (config × kernel) grid fanned out
    //    over the sweep pool — and gather comparison points.  `run_sweep`
    //    returns results in grid order (cluster-major, matching the old
    //    serial loops), so the rows below are identical at any `--jobs`.
    let kinds: Vec<WorkloadKind> = chars.iter().map(Characterization::kind).collect();
    let plan = SweepPlan::cross(figure_name, sizes, cluster_set, &kinds);
    let results = run_sweep(&plan);
    let points: Vec<CalibPoint> = results
        .iter()
        .map(|r| {
            let ch = &chars[r.index % chars.len()];
            debug_assert_eq!(ch.kind(), r.point.workload);
            CalibPoint {
                cluster: r.point.config.clone(),
                workload: ch.to_model_params(),
                sim_seconds: r.run.report.e_instr_seconds,
            }
        })
        .collect();
    // 2. §5.3.2 methodology: "through experiments ... by adjusting the
    //    average remote memory access rate ... the differences ... are
    //    below 10%.  Figure 3 presents the results with such adjustments"
    //    — i.e. the paper tunes its rate adjustment on the reported
    //    configuration set itself.  We do the same, one adjustment per
    //    workload (our coherence-accurate simulator spreads the apps too
    //    far apart for the paper's single global constant; EXPERIMENTS.md
    //    discusses the residual).
    let cal_cfg_name = cluster_set[0].name.clone().unwrap_or_default();
    let mut cal_by_wl: std::collections::HashMap<String, AnalyticModel> =
        std::collections::HashMap::new();
    for ch in chars {
        let cal_points: Vec<CalibPoint> = points
            .iter()
            .filter(|p| p.workload.name == ch.name)
            .cloned()
            .collect();
        let (m, _) = calibrate(&base, &cal_points);
        cal_by_wl.insert(ch.name.clone(), m);
    }
    // 3. Assemble rows.
    let mut t = Table::new(
        title,
        &[
            "Config",
            "App",
            "Sim E(Instr)",
            "Model(paper)",
            "diff",
            "Model(calib)",
            "diff",
            "bus u",
            "net u",
        ],
    );
    let mut rows = Vec::new();
    let mut held_out_err = 0.0;
    let mut held_out_n = 0usize;
    for (p, r) in points.iter().zip(results.iter()) {
        let cal = &cal_by_wl[&p.workload.name];
        let m_paper = base.evaluate_or_inf(&p.cluster, &p.workload);
        let m_cal = cal.evaluate_or_inf(&p.cluster, &p.workload);
        let d_paper = (m_paper - p.sim_seconds) / p.sim_seconds;
        let d_cal = (m_cal - p.sim_seconds) / p.sim_seconds;
        let cfg_name = p.cluster.name.clone().unwrap_or_default();
        let bus_u = r.run.report.bus_utilization(0);
        let net_u = r.run.report.network_utilization();
        held_out_err += d_cal.abs();
        held_out_n += 1;
        t.row(vec![
            cfg_name,
            p.workload.name.clone(),
            fmt_seconds(p.sim_seconds),
            fmt_seconds(m_paper),
            fmt_pct(d_paper),
            fmt_seconds(m_cal),
            fmt_pct(d_cal),
            format!("{bus_u:.3}"),
            format!("{net_u:.3}"),
        ]);
        rows.push(FigureRow {
            config: p.cluster.name.clone().unwrap_or_default(),
            workload: p.workload.name.clone(),
            sim_seconds: p.sim_seconds,
            model_paper_seconds: m_paper,
            model_calibrated_seconds: m_cal,
            diff_calibrated: d_cal,
            bus_utilization: bus_u,
            network_utilization: net_u,
        });
    }
    let knobs = chars
        .iter()
        .map(|ch| {
            let m = &cal_by_wl[&ch.name];
            format!("{}:coh={:+.0}%", ch.name, m.coherence_adjustment * 100.0)
        })
        .collect::<Vec<_>>()
        .join(" ");
    let _ = cal_cfg_name;
    t.row(vec![
        "".into(),
        "".into(),
        "(per-workload rate adjustment)".into(),
        "".into(),
        "".into(),
        knobs,
        format!(
            "mean |diff| {}",
            fmt_pct(held_out_err / held_out_n.max(1) as f64)
        ),
        "".into(),
        "".into(),
    ]);
    save_json(figure_name, &rows);
    // Return the first workload's calibrated model (diagnostics).
    let cal = cal_by_wl.into_values().next().unwrap_or(base);
    (t, rows, cal)
}

/// The paper configurations of one platform family: Table 3 (SMPs),
/// Table 4 (COWs) or Table 5 (CLUMPs).
fn paper_table(kind: PlatformKind) -> Vec<ClusterSpec> {
    configs::all_configs()
        .into_iter()
        .filter(|c| c.platform() == kind)
        .collect()
}

/// A named configuration (`"C5"`), for the experiments that fix one.
fn named(name: &str) -> ClusterSpec {
    configs::by_name(name).expect("a named config")
}

/// E3 — Figure 2 (+ Table 3 configs): SMPs C1–C6.
pub fn fig2_smp(sizes: Sizes, chars: &[Characterization]) -> (Table, Vec<FigureRow>) {
    let (t, rows, _) = figure_experiment(
        "fig2_smp",
        "Figure 2: modeled vs simulated E(Instr) on SMPs C1-C6",
        &paper_table(PlatformKind::Smp),
        sizes,
        chars,
    );
    (t, rows)
}

/// E4 — Figure 3 (+ Table 4 configs): clusters of workstations C7–C11.
pub fn fig3_cow(sizes: Sizes, chars: &[Characterization]) -> (Table, Vec<FigureRow>) {
    let (t, rows, _) = figure_experiment(
        "fig3_cow",
        "Figure 3: modeled vs simulated E(Instr) on clusters of workstations C7-C11",
        &paper_table(PlatformKind::ClusterOfWorkstations),
        sizes,
        chars,
    );
    (t, rows)
}

/// E5 — Figure 4 (+ Table 5 configs): clusters of SMPs C12–C15.
pub fn fig4_clump(sizes: Sizes, chars: &[Characterization]) -> (Table, Vec<FigureRow>) {
    let (t, rows, _) = figure_experiment(
        "fig4_clump",
        "Figure 4: modeled vs simulated E(Instr) on clusters of SMPs C12-C15",
        &paper_table(PlatformKind::ClusterOfSmps),
        sizes,
        chars,
    );
    (t, rows)
}

/// §5.3.1's coherence-traffic aside: the share of bus traffic caused by
/// the coherence protocol on an SMP (paper: FFT 6.3%, LU 4.7%, Radix
/// 7.2%, EDGE 2.1%).
pub fn coherence_traffic(sizes: Sizes) -> Table {
    let paper = [("FFT", 6.3), ("LU", 4.7), ("Radix", 7.2), ("EDGE", 2.1)];
    let cfg = named("C5");
    let mut t = Table::new(
        "Coherence share of SMP bus traffic (C5)",
        &["App", "ours", "paper"],
    );
    let mut artifact = Vec::new();
    let plan = SweepPlan::cross("coherence_traffic", sizes, &[cfg], &WorkloadKind::PAPER);
    for r in run_sweep(&plan) {
        let frac = r.run.report.traffic.coherence_fraction();
        let name = r.point.workload.name();
        let p = paper.iter().find(|x| x.0 == name).unwrap().1;
        t.row(vec![
            name.to_string(),
            format!("{:.1}%", frac * 100.0),
            format!("{p:.1}%"),
        ]);
        artifact.push((name, frac));
    }
    save_json("coherence_traffic", &artifact);
    t
}

/// E6 — the §5.3.3 closing claim: modeling takes well under a second and
/// ~a hundred bytes, simulation takes orders of magnitude longer.
pub fn speedup(sizes: Sizes) -> Table {
    let cfg = named("C5");
    let w = WorkloadKind::Fft.params();
    let model = AnalyticModel::default();
    let t0 = std::time::Instant::now();
    let iters = 1000;
    for _ in 0..iters {
        let _ = model.evaluate(&cfg, &w).unwrap();
    }
    let model_time = t0.elapsed().as_secs_f64() / iters as f64;
    let t1 = std::time::Instant::now();
    let _ = simulate_workload(&sizes.workload(WorkloadKind::Fft), &cfg);
    let sim_time = t1.elapsed().as_secs_f64();
    let mut t = Table::new(
        "Model vs simulation cost (FFT on C5)",
        &["method", "wall time", "ratio"],
    );
    t.row(vec![
        "analytic model".into(),
        format!("{:.3e} s", model_time),
        "1x".into(),
    ]);
    t.row(vec![
        "program-driven simulation".into(),
        format!("{:.3} s", sim_time),
        format!("{:.0}x", sim_time / model_time),
    ]);
    save_json(
        "speedup",
        &serde_json::json!({"model_s": model_time, "sim_s": sim_time}),
    );
    t
}

/// E7/E8 — §6 case studies 1 and 2: the best cluster for a budget.
pub fn case_budget(budget: f64, include_tpcc: bool) -> Table {
    let model = AnalyticModel::default();
    let prices = PriceTable::circa_1999();
    let space = CandidateSpace::paper_market();
    let workloads = table2_params(include_tpcc);
    let mut t = Table::new(
        format!("Case study: optimal cluster under ${budget:.0}"),
        &[
            "Workload",
            "Best configuration",
            "Cost",
            "E(Instr)",
            "Runner-up",
        ],
    );
    let mut artifact = Vec::new();
    for w in &workloads {
        let ranked = optimize(budget, w, &model, &prices, &space);
        if ranked.is_empty() {
            t.row(vec![
                w.name.clone(),
                "(nothing affordable)".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        let best = &ranked[0];
        let second = ranked
            .iter()
            .find(|r| r.spec != best.spec)
            .map(|r| r.spec.describe())
            .unwrap_or_default();
        t.row(vec![
            w.name.clone(),
            best.spec.describe(),
            format!("${:.0}", best.cost),
            fmt_seconds(best.e_instr_seconds),
            second,
        ]);
        artifact.push((w.name.clone(), best.clone()));
    }
    save_json(&format!("case_budget_{}", budget as u64), &artifact);
    t
}

/// E9 — §6 case study 3: upgrading an existing cluster with extra money.
pub fn case_upgrade(extra: f64) -> Table {
    let existing = ClusterSpec::cluster(
        MachineSpec::new(1, 256, 32, 200.0),
        2,
        NetworkKind::Ethernet10,
    )
    .named("existing");
    let model = AnalyticModel::default();
    let prices = PriceTable::circa_1999();
    let mut t = Table::new(
        format!(
            "Case study: upgrading {} with ${extra:.0}",
            existing.describe()
        ),
        &[
            "Workload",
            "Plan",
            "Cost",
            "E(Instr) before",
            "E(Instr) after",
            "gain",
        ],
    );
    let mut artifact = Vec::new();
    for w in WorkloadKind::PAPER.map(|k| k.params()) {
        let before = model.evaluate_or_inf(&existing, &w);
        let plans = plan_upgrade(&existing, extra, &w, &model, &prices);
        let best = &plans[0];
        t.row(vec![
            w.name.clone(),
            best.actions.join(", "),
            format!("${:.0}", best.cost),
            fmt_seconds(before),
            fmt_seconds(best.e_instr_seconds),
            format!("{:.2}x", before / best.e_instr_seconds),
        ]);
        artifact.push((w.name.clone(), best.clone()));
    }
    save_json("case_upgrade", &artifact);
    t
}

/// E10 — the §6 FFT claim: 4 workstations on slow Ethernet vs 3 on ATM at
/// comparable cost, ~4× execution-time gap.
pub fn case_fft_4x() -> Table {
    let prices = PriceTable::circa_1999();
    let model = AnalyticModel::default();
    let w = WorkloadKind::Fft.params();
    let eth = ClusterSpec::cluster(
        MachineSpec::new(1, 256, 64, 200.0),
        4,
        NetworkKind::Ethernet10,
    )
    .named("4 ws / 10Mb Ethernet");
    let atm = ClusterSpec::cluster(MachineSpec::new(1, 256, 32, 200.0), 3, NetworkKind::Atm155)
        .named("3 ws / 155Mb ATM");
    let (ee, ea) = (
        model.evaluate_or_inf(&eth, &w),
        model.evaluate_or_inf(&atm, &w),
    );
    let mut t = Table::new(
        "FFT: equal-cost Ethernet vs ATM clusters (paper: ~4x gap)",
        &["Cluster", "Cost", "E(Instr)", "relative"],
    );
    t.row(vec![
        eth.describe(),
        format!("${:.0}", prices.cluster_cost(&eth).unwrap()),
        fmt_seconds(ee),
        format!("{:.2}x", ee / ea),
    ]);
    t.row(vec![
        atm.describe(),
        format!("${:.0}", prices.cluster_cost(&atm).unwrap()),
        fmt_seconds(ea),
        "1.00x".into(),
    ]);
    save_json(
        "case_fft_4x",
        &serde_json::json!({"ethernet": ee, "atm": ea, "ratio": ee / ea}),
    );
    t
}

/// E12 (extension) — sensitivity analysis backing the abstract's "length
/// of memory hierarchy is the most sensitive factor" claim: per-workload
/// factor elasticities plus the discrete 3-level-vs-5-level comparison.
pub fn sensitivity() -> Table {
    use memhier_core::sensitivity::analyze;
    let model = AnalyticModel::default();
    let baseline = ClusterSpec::cluster(
        MachineSpec::new(1, 256, 64, 200.0),
        4,
        NetworkKind::Ethernet100,
    );
    let mut t = Table::new(
        "Sensitivity of E(Instr) around a 4-node Fast-Ethernet COW",
        &[
            "Workload",
            "Dominant factor",
            "Elasticities",
            "5-level/3-level ratio",
        ],
    );
    let mut artifact = Vec::new();
    for w in &table2_params(true) {
        let r = analyze(&model, &baseline, w);
        let el = r
            .factors
            .iter()
            .map(|f| format!("{} {:+.2}", f.factor, f.elasticity))
            .collect::<Vec<_>>()
            .join(", ");
        t.row(vec![
            w.name.clone(),
            r.dominant_factor().to_string(),
            el,
            format!("{:.2}x", r.hierarchy.ratio),
        ]);
        artifact.push(r);
    }
    save_json("sensitivity", &artifact);
    t
}

/// E13 (extension) — sweep the optimizer over a (ρ, β) grid at three SPMD
/// sharing levels and draw the winning-platform maps.  The §6 matrix
/// emerges along the ρ/β axes; the sharing axis is our reproduction's own
/// finding — it is the factor that actually flips the platform choice
/// between "many workstations on a switch" and "one SMP".
pub fn sweep_map(budget: f64) -> String {
    use memhier_cost::render_map;
    use memhier_cost::sweep::sweep_with_sharing;
    let rho_grid = [0.05, 0.15, 0.25, 0.35, 0.45, 0.6];
    let beta_grid = [25.0, 50.0, 100.0, 200.0, 400.0, 1200.0];
    let mut out = String::new();
    let mut all_cells = Vec::new();
    for sharing in [0.0, 0.12, 0.25] {
        let cells = sweep_with_sharing(
            budget,
            1.3,
            sharing,
            &rho_grid,
            &beta_grid,
            &AnalyticModel::default(),
            &PriceTable::circa_1999(),
            &CandidateSpace::paper_market(),
        );
        out.push_str(&format!(
            "== Optimal platform by (rho, beta) at ${budget:.0}, sharing = {sharing:.2} ==\n{}\n",
            render_map(&cells, &rho_grid, &beta_grid)
        ));
        all_cells.push((sharing, cells));
    }
    save_json(&format!("sweep_map_{}", budget as u64), &all_cells);
    out
}

/// E14 (ablation) — the model's two reconstruction choices (DESIGN.md
/// §2.3): Open vs SelfConsistent arrivals, Untruncated vs Truncated
/// locality tails.  Shows where the paper-literal open model diverges and
/// what footprint truncation removes.
pub fn ablation() -> Table {
    use memhier_core::model::{ArrivalModel, TailMode};
    let clusters = [named("C5"), named("C8"), named("C11")];
    let mut t = Table::new(
        "Ablation: arrival model x tail mode, E(Instr) seconds",
        &[
            "Config",
            "App",
            "Open/Raw",
            "Open/Trunc",
            "SelfCons/Raw",
            "SelfCons/Trunc",
        ],
    );
    let mut artifact = Vec::new();
    for cfg in &clusters {
        for w in WorkloadKind::PAPER.map(|k| k.params()) {
            let eval = |arrival, tail_mode| {
                let m = AnalyticModel {
                    arrival,
                    tail_mode,
                    ..AnalyticModel::default()
                };
                m.evaluate_or_inf(cfg, &w)
            };
            let cells = [
                eval(ArrivalModel::Open, TailMode::Untruncated),
                eval(ArrivalModel::Open, TailMode::Truncated),
                eval(ArrivalModel::SelfConsistent, TailMode::Untruncated),
                eval(ArrivalModel::SelfConsistent, TailMode::Truncated),
            ];
            let fmt = |x: f64| {
                if x.is_finite() {
                    fmt_seconds(x)
                } else {
                    "diverges".to_string()
                }
            };
            t.row(vec![
                cfg.name.clone().unwrap_or_default(),
                w.name.clone(),
                fmt(cells[0]),
                fmt(cells[1]),
                fmt(cells[2]),
                fmt(cells[3]),
            ]);
            artifact.push((cfg.name.clone(), w.name.clone(), cells));
        }
    }
    save_json("ablation", &artifact);
    t
}

/// E15 (extension) — network utilization, model vs simulator: the M/D/1
/// utilization the model predicts for the remote level against the
/// fraction of wall-clock the simulated network medium was busy.  A
/// second, independent axis of validation beyond E(Instr).
pub fn utilization(sizes: Sizes, chars: &[Characterization]) -> Table {
    let model = AnalyticModel::default();
    let mut t = Table::new(
        "Cluster network utilization: model (M/D/1, other-clients) vs simulated (busy/wall)",
        &["Config", "App", "model util", "sim util"],
    );
    let mut artifact = Vec::new();
    let clusters = [named("C7"), named("C8"), named("C10")];
    let kinds: Vec<WorkloadKind> = chars.iter().map(Characterization::kind).collect();
    let plan = SweepPlan::cross("utilization", sizes, &clusters, &kinds);
    for r in run_sweep(&plan) {
        let ch = &chars[r.index % chars.len()];
        let cfg = &r.point.config;
        let w = ch.to_model_params();
        let m_util = model
            .evaluate(cfg, &w)
            .ok()
            .and_then(|p| {
                p.levels
                    .iter()
                    .find(|l| l.name == "remote")
                    .map(|l| l.utilization)
            })
            .unwrap_or(f64::NAN);
        let s_util = r.run.report.network_utilization();
        t.row(vec![
            cfg.name.clone().unwrap_or_default(),
            ch.name.clone(),
            format!("{m_util:.3}"),
            format!("{s_util:.3}"),
        ]);
        artifact.push((cfg.name.clone(), ch.name.clone(), m_util, s_util));
    }
    save_json("utilization", &artifact);
    t
}

/// E11 — the §6 recommendation matrix over the five characterized
/// workloads.
pub fn recommendations() -> Table {
    let mut t = Table::new(
        "Recommendations (paper section 6)",
        &["Workload", "rho", "beta", "Platform", "Upgrade advice"],
    );
    let mut artifact = Vec::new();
    for w in &table2_params(true) {
        let r = recommend(w);
        t.row(vec![
            w.name.clone(),
            format!("{:.2}", w.rho),
            format!("{:.1}", w.locality.beta),
            format!("{:?}", r.platform),
            r.upgrade_advice.to_string(),
        ]);
        artifact.push((w.name.clone(), r));
    }
    save_json("recommendations", &artifact);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_three_platforms() {
        let t = table1();
        assert_eq!(t.rows.len(), 3);
        assert!(t.render().contains("gray blocks A, B, and C"));
    }

    #[test]
    fn table2_small_runs() {
        let (t, chars) = table2(Sizes::Small, false);
        assert_eq!(chars.len(), 4);
        assert_eq!(t.rows.len(), 4);
        for c in &chars {
            assert!(c.alpha > 1.0 && c.beta > 1.0, "{c:?}");
        }
    }

    #[test]
    fn recommendations_cover_five_classes() {
        let t = recommendations();
        assert_eq!(t.rows.len(), 5);
        let s = t.render();
        assert!(s.contains("SingleSmp"));
        assert!(s.contains("SmpOrFastClusterOfSmps"));
    }

    #[test]
    fn case_fft_4x_shows_large_gap() {
        let t = case_fft_4x();
        let s = t.render();
        assert!(s.contains("x"), "{s}");
    }

    #[test]
    fn case_budget_small_runs() {
        let t = case_budget(5000.0, false);
        assert_eq!(t.rows.len(), 4);
    }

    #[test]
    fn figure_small_smoke() {
        // One config, one kernel, small size: the full pipeline holds
        // together and produces finite numbers.
        let (_, chars) = table2(Sizes::Small, false);
        let (t, rows, _) =
            figure_experiment("smoke", "smoke", &[named("C1")], Sizes::Small, &chars[..1]);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].sim_seconds.is_finite() && rows[0].sim_seconds > 0.0);
        assert!(rows[0].model_calibrated_seconds.is_finite());
        assert!(t.rows.len() >= 2);
    }
}
