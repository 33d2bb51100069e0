//! Sensitivity analysis of `E(Instr)` to the architectural factors — the
//! quantitative backing for the paper's abstract claim that *"the length
//! of memory hierarchy is the most sensitive factor to affect the
//! execution time for many types of workloads."*
//!
//! Each factor is perturbed around a baseline cluster and the elasticity
//! `(ΔE/E) / (Δx/x)` is reported, plus a discrete "hierarchy-length"
//! factor comparing platform families at equal processor count and
//! aggregate memory.

use crate::locality::WorkloadParams;
use crate::machine::{MachineSpec, NetworkKind};
use crate::model::AnalyticModel;
use crate::platform::ClusterSpec;
use serde::{Deserialize, Serialize};

/// One factor's measured effect.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FactorSensitivity {
    /// Factor name.
    pub factor: String,
    /// Baseline `E(Instr)` in seconds.
    pub baseline_seconds: f64,
    /// Perturbed `E(Instr)` in seconds.
    pub perturbed_seconds: f64,
    /// Relative change of E per relative change of the factor
    /// (elasticity; sign kept: negative = improving the factor reduces E).
    pub elasticity: f64,
}

/// The discrete hierarchy-length comparison (3-level SMP vs 5-level
/// cluster at equal `q` and aggregate memory).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchyLengthEffect {
    /// `E(Instr)` on the single SMP (3 levels).
    pub smp_seconds: f64,
    /// `E(Instr)` on the cluster of workstations (5 levels), best network.
    pub cow_seconds: f64,
    /// `cow / smp` — how much the two extra levels cost.
    pub ratio: f64,
}

/// Full sensitivity report for one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityReport {
    /// Workload name.
    pub workload: String,
    /// Continuous factors, sorted by |elasticity| descending.
    pub factors: Vec<FactorSensitivity>,
    /// The discrete hierarchy-length effect.
    pub hierarchy: HierarchyLengthEffect,
}

impl SensitivityReport {
    /// The most sensitive continuous factor.
    pub fn dominant_factor(&self) -> &str {
        &self.factors[0].factor
    }
}

/// Compute elasticities of `E(Instr)` around `baseline` for `workload`:
/// cache size, memory size, processor clock, network service time (via the
/// model's latency table), and machine count.
pub fn analyze(
    model: &AnalyticModel,
    baseline: &ClusterSpec,
    workload: &WorkloadParams,
) -> SensitivityReport {
    let e0 = model.evaluate_or_inf(baseline, workload);
    let bump = 0.25; // 25% perturbations
    let mut factors = Vec::new();

    let push = |factors: &mut Vec<FactorSensitivity>, name: &str, e1: f64, dx: f64| {
        if e0.is_finite() && e1.is_finite() && e0 > 0.0 {
            factors.push(FactorSensitivity {
                factor: name.to_string(),
                baseline_seconds: e0,
                perturbed_seconds: e1,
                elasticity: ((e1 - e0) / e0) / dx,
            });
        }
    };

    // Cache capacity +25%.
    let mut c = baseline.clone();
    c.machine.cache_bytes = (baseline.machine.cache_bytes as f64 * (1.0 + bump)) as u64;
    push(
        &mut factors,
        "cache capacity",
        model.evaluate_or_inf(&c, workload),
        bump,
    );

    // Memory capacity +25%.
    let mut c = baseline.clone();
    c.machine.memory_bytes = (baseline.machine.memory_bytes as f64 * (1.0 + bump)) as u64;
    push(
        &mut factors,
        "memory capacity",
        model.evaluate_or_inf(&c, workload),
        bump,
    );

    // Clock +25%.
    let mut c = baseline.clone();
    c.machine.clock_hz = baseline.machine.clock_hz * (1.0 + bump);
    push(
        &mut factors,
        "processor clock",
        model.evaluate_or_inf(&c, workload),
        bump,
    );

    // Network service −25% (faster network): scale the latency table.
    if baseline.network.is_some() {
        let mut m = model.clone();
        for v in m
            .latencies
            .remote_node_cow
            .iter_mut()
            .chain(m.latencies.remote_cached_cow.iter_mut())
            .chain(m.latencies.remote_node_clump.iter_mut())
            .chain(m.latencies.remote_cached_clump.iter_mut())
        {
            *v *= 1.0 - bump;
        }
        push(
            &mut factors,
            "network speed",
            m.evaluate_or_inf(baseline, workload),
            // E should fall as the network gets faster; express the factor
            // change as +25% speed.
            bump,
        );
    }

    // Machine count +1 (relative change 1/N).
    if baseline.machines > 1 {
        let mut c = baseline.clone();
        c.machines += 1;
        push(
            &mut factors,
            "machine count",
            model.evaluate_or_inf(&c, workload),
            1.0 / baseline.machines as f64,
        );
    }

    factors.sort_by(|a, b| b.elasticity.abs().total_cmp(&a.elasticity.abs()));

    // Hierarchy length: q processors as one SMP (clamped to the 4-way
    // market limit) vs q workstations on the best network, equal aggregate
    // memory.
    let q = baseline.total_procs().clamp(2, 4);
    let agg_mem_mb = (baseline.total_memory_bytes() / (1024 * 1024)).max(64);
    let smp = ClusterSpec::single(MachineSpec::new(
        q,
        baseline.machine.cache_bytes / 1024,
        agg_mem_mb,
        baseline.machine.clock_hz / 1e6,
    ));
    let cow = ClusterSpec::cluster(
        MachineSpec::new(
            1,
            baseline.machine.cache_bytes / 1024,
            (agg_mem_mb / q as u64).max(32),
            baseline.machine.clock_hz / 1e6,
        ),
        q,
        NetworkKind::Atm155,
    );
    let (es, ec) = (
        model.evaluate_or_inf(&smp, workload),
        model.evaluate_or_inf(&cow, workload),
    );
    SensitivityReport {
        workload: workload.name.clone(),
        factors,
        hierarchy: HierarchyLengthEffect {
            smp_seconds: es,
            cow_seconds: ec,
            ratio: ec / es,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadKind;

    fn cow_baseline() -> ClusterSpec {
        ClusterSpec::cluster(
            MachineSpec::new(1, 256, 64, 200.0),
            4,
            NetworkKind::Ethernet100,
        )
    }

    #[test]
    fn produces_all_factors_for_cluster() {
        let r = analyze(
            &AnalyticModel::default(),
            &cow_baseline(),
            &WorkloadKind::Fft.params(),
        );
        let names: Vec<&str> = r.factors.iter().map(|f| f.factor.as_str()).collect();
        assert!(names.contains(&"cache capacity"));
        assert!(names.contains(&"memory capacity"));
        assert!(names.contains(&"processor clock"));
        assert!(names.contains(&"network speed"));
        assert!(names.contains(&"machine count"));
    }

    #[test]
    fn clock_elasticity_is_negative() {
        // A faster clock reduces E(Instr).
        let r = analyze(
            &AnalyticModel::default(),
            &cow_baseline(),
            &WorkloadKind::Lu.params(),
        );
        let clock = r
            .factors
            .iter()
            .find(|f| f.factor == "processor clock")
            .unwrap();
        assert!(clock.elasticity < 0.0, "{clock:?}");
    }

    #[test]
    fn faster_network_reduces_e_for_cluster() {
        let r = analyze(
            &AnalyticModel::default(),
            &cow_baseline(),
            &WorkloadKind::Fft.params(),
        );
        let net = r
            .factors
            .iter()
            .find(|f| f.factor == "network speed")
            .unwrap();
        assert!(net.perturbed_seconds < net.baseline_seconds, "{net:?}");
    }

    #[test]
    fn hierarchy_length_penalizes_clusters() {
        // The headline claim: the 5-level platform is slower than the
        // 3-level SMP at equal q for the paper's kernels.
        for w in WorkloadKind::PAPER.map(|k| k.params()) {
            let r = analyze(&AnalyticModel::default(), &cow_baseline(), &w);
            assert!(
                r.hierarchy.ratio > 1.0,
                "{}: hierarchy ratio {}",
                w.name,
                r.hierarchy.ratio
            );
        }
    }

    #[test]
    fn factors_sorted_by_magnitude() {
        let r = analyze(
            &AnalyticModel::default(),
            &cow_baseline(),
            &WorkloadKind::Radix.params(),
        );
        for w in r.factors.windows(2) {
            assert!(w[0].elasticity.abs() >= w[1].elasticity.abs());
        }
        assert!(!r.dominant_factor().is_empty());
    }

    #[test]
    fn smp_baseline_skips_network_factor() {
        let smp = ClusterSpec::single(MachineSpec::new(4, 256, 128, 200.0));
        let r = analyze(&AnalyticModel::default(), &smp, &WorkloadKind::Fft.params());
        assert!(r.factors.iter().all(|f| f.factor != "network speed"));
        assert!(r.factors.iter().all(|f| f.factor != "machine count"));
    }
}
