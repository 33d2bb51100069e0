//! The §6 recommendation rules: a qualitative classification of workloads
//! by memory-boundedness (ρ) and locality (β) onto platform advice.
//!
//! | class | paper rule | example |
//! |-------|-----------|---------|
//! | ρ small, β < 100 | slow network of many high-speed workstations | LU |
//! | ρ small, β > 100 | fast network of few high-speed workstations | FFT |
//! | ρ large, β < 100 | slow network of workstations with large memory | EDGE |
//! | ρ large, β > 100 | an SMP | Radix |
//! | ρ large, β ≫ 100 (commercial) | an SMP or fast cluster of SMPs | TPC-C |

use memhier_core::locality::WorkloadParams;
use serde::{Deserialize, Serialize};

/// Platform classes the paper recommends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecommendedPlatform {
    /// Slow network, many high-speed workstations (CPU-bound, good locality).
    ManyWorkstationsSlowNetwork,
    /// Fast network, few high-speed workstations (CPU-bound, poor locality).
    FewWorkstationsFastNetwork,
    /// Slow network, workstations with large memories (memory-bound, good
    /// locality).
    WorkstationsLargeMemory,
    /// A single SMP (memory-bound, poor locality).
    SingleSmp,
    /// An SMP or a fast cluster of SMPs (memory- and I/O-bound commercial
    /// workloads).
    SmpOrFastClusterOfSmps,
}

/// A recommendation with its rationale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// The recommended platform class.
    pub platform: RecommendedPlatform,
    /// Why (restating the triggering rule).
    pub rationale: String,
    /// §6 upgrade guidance for this class.
    pub upgrade_advice: String,
}

/// ρ at or above this is "memory bound" (Radix 0.37 and EDGE 0.45 classify
/// as bound; FFT 0.20 and LU 0.31 as CPU bound, matching §6's examples).
pub const RHO_MEMORY_BOUND: f64 = 0.35;
/// β below this is "good program locality" (§6 uses β ≶ 100 explicitly).
pub const BETA_GOOD_LOCALITY: f64 = 100.0;
/// β above this marks commercial-scale locality (TPC-C's β ≈ 1223 is "over
/// 10 times higher" than the scientific kernels').
pub const BETA_COMMERCIAL: f64 = 1000.0;

/// Apply the §6 rules to a characterized workload.
pub fn recommend(w: &WorkloadParams) -> Recommendation {
    let rho = w.rho;
    let beta = w.locality.beta;
    let memory_bound = rho >= RHO_MEMORY_BOUND;
    let good_locality = beta < BETA_GOOD_LOCALITY;

    let (platform, rationale) = match (memory_bound, good_locality) {
        (false, true) => (
            RecommendedPlatform::ManyWorkstationsSlowNetwork,
            format!(
                "CPU bound (rho = {rho:.2}) with good locality (beta = {beta:.1} < 100): \
                 accesses rarely leave a node, so buy compute, not network"
            ),
        ),
        (false, false) => (
            RecommendedPlatform::FewWorkstationsFastNetwork,
            format!(
                "CPU bound (rho = {rho:.2}) with poor locality (beta = {beta:.1} > 100): \
                 network accesses will be frequent, so buy network speed"
            ),
        ),
        (true, true) => (
            RecommendedPlatform::WorkstationsLargeMemory,
            format!(
                "memory bound (rho = {rho:.2}) with good locality (beta = {beta:.1} < 100): \
                 accesses stay in-node, so buy memory capacity"
            ),
        ),
        (true, false) if beta >= BETA_COMMERCIAL => (
            RecommendedPlatform::SmpOrFastClusterOfSmps,
            format!(
                "memory bound (rho = {rho:.2}) with commercial-scale locality \
                 (beta = {beta:.1}): data transfer dominates, use an SMP or a fast \
                 cluster of SMPs"
            ),
        ),
        (true, false) => (
            RecommendedPlatform::SingleSmp,
            format!(
                "memory bound (rho = {rho:.2}) with poor locality (beta = {beta:.1} > 100): \
                 minimize the memory-hierarchy length with an SMP"
            ),
        ),
    };

    let upgrade_advice = if good_locality {
        "spend first on cache/memory capacity to reduce network usage".to_string()
    } else {
        "network activity is largely capacity-independent here: upgrade the \
         cluster network bandwidth first"
            .to_string()
    };

    Recommendation {
        platform,
        rationale,
        upgrade_advice,
    }
}

/// The one JSON shape for a recommendation, shared by `memhier recommend
/// --format json` and the `memhierd` `/v1/recommend` endpoint so the CLI
/// and the service stay byte-compatible.
///
/// `ranked` (present only when a budget was supplied) carries the
/// cost-optimal concrete clusters backing the qualitative advice.
///
/// Thin wrapper over the typed [`RecommendReport`](crate::wire::RecommendReport)
/// wire struct — prefer that type directly in new code.
pub fn recommendation_json(
    w: &WorkloadParams,
    r: &Recommendation,
    ranked: Option<&[crate::optimize::RankedConfig]>,
) -> serde_json::Value {
    let entries = ranked.map(|rs| {
        rs.iter()
            .map(crate::wire::RankedEntry::from_ranked)
            .collect()
    });
    crate::wire::RecommendReport::new(w, r, entries).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use memhier_core::WorkloadKind;

    #[test]
    fn paper_examples_classify_as_stated() {
        // §6 names an example program for each rule.
        assert_eq!(
            recommend(&WorkloadKind::Lu.params()).platform,
            RecommendedPlatform::ManyWorkstationsSlowNetwork,
            "LU"
        );
        assert_eq!(
            recommend(&WorkloadKind::Fft.params()).platform,
            RecommendedPlatform::FewWorkstationsFastNetwork,
            "FFT"
        );
        assert_eq!(
            recommend(&WorkloadKind::Edge.params()).platform,
            RecommendedPlatform::WorkstationsLargeMemory,
            "EDGE"
        );
        assert_eq!(
            recommend(&WorkloadKind::Radix.params()).platform,
            RecommendedPlatform::SingleSmp,
            "Radix"
        );
        assert_eq!(
            recommend(&WorkloadKind::Tpcc.params()).platform,
            RecommendedPlatform::SmpOrFastClusterOfSmps,
            "TPC-C"
        );
    }

    #[test]
    fn rationale_mentions_parameters() {
        let r = recommend(&WorkloadKind::Radix.params());
        assert!(r.rationale.contains("0.37"));
        assert!(r.rationale.contains("120.8"));
    }

    #[test]
    fn recommendation_json_shape() {
        let w = WorkloadKind::Fft.params();
        let r = recommend(&w);
        let v = recommendation_json(&w, &r, None);
        assert_eq!(v["workload"].as_str(), Some("FFT"));
        assert!(v["rationale"].as_str().unwrap().contains("locality"));
        assert!(v.get("ranked").is_none(), "no budget, no ranked list");
        let ranked = vec![];
        let v = recommendation_json(&w, &r, Some(&ranked));
        assert!(v.get("ranked").is_some());
    }

    #[test]
    fn upgrade_advice_follows_locality() {
        let good = recommend(&WorkloadKind::Edge.params());
        assert!(good.upgrade_advice.contains("cache/memory"));
        let poor = recommend(&WorkloadKind::Fft.params());
        assert!(poor.upgrade_advice.contains("network"));
    }
}
