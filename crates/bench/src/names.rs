//! Canonical string names for configs, workloads, and size tiers.
//!
//! The CLI, `memhier reproduce`, and the `memhierd` service all take
//! the same spellings (`C1..C15` plus the extended `N4/N8/FT8/FT16`
//! configs, any workload-registry key, `small|medium|paper`); resolving
//! them lives here so every entry point accepts and rejects exactly the
//! same inputs.

use crate::runner::Sizes;
use memhier_core::locality::WorkloadParams;
use memhier_core::params::configs;
use memhier_core::platform::ClusterSpec;
use memhier_workloads::registry::WorkloadKind;

/// Resolve a named configuration: the paper's `C1`..`C15` or the
/// extended `N4`/`N8`/`FT8`/`FT16` NUMA and fat-tree configs.
pub fn config_by_name(name: &str) -> Result<ClusterSpec, String> {
    configs::by_name(name).ok_or_else(|| format!("unknown config `{name}` (try `memhier configs`)"))
}

/// Resolve a workload kind by registry key or alias (case-insensitive).
pub fn workload_kind_by_name(name: &str) -> Result<WorkloadKind, String> {
    WorkloadKind::parse(name).ok_or_else(|| WorkloadKind::unknown(name))
}

/// Resolve a problem-size tier by name.
pub fn sizes_by_name(name: &str) -> Result<Sizes, String> {
    match name.to_ascii_lowercase().as_str() {
        "small" => Ok(Sizes::Small),
        "medium" => Ok(Sizes::Medium),
        "paper" => Ok(Sizes::Paper),
        other => Err(format!("unknown size `{other}` (small|medium|paper)")),
    }
}

/// The paper's Table-2 `(α, β, ρ)` parameters for a kernel (its
/// workload-table row, [`WorkloadKind::params`]).
pub fn paper_params(kind: WorkloadKind) -> WorkloadParams {
    kind.params()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_lookup_roundtrips() {
        for row in &configs::NAMED {
            let c = config_by_name(row.name).unwrap();
            assert_eq!(c.name.as_deref(), Some(row.name));
        }
        assert!(config_by_name("C99").is_err());
    }

    #[test]
    fn workload_names_case_insensitive() {
        assert_eq!(workload_kind_by_name("fft").unwrap(), WorkloadKind::Fft);
        assert_eq!(workload_kind_by_name("TPCC").unwrap(), WorkloadKind::Tpcc);
        assert_eq!(
            workload_kind_by_name("stencil").unwrap(),
            WorkloadKind::Stencil4D
        );
        assert_eq!(
            workload_kind_by_name("GraphWalk").unwrap(),
            WorkloadKind::GraphWalk
        );
        let err = workload_kind_by_name("SORT").unwrap_err();
        assert!(
            err.contains("Stencil4D"),
            "error lists registry keys: {err}"
        );
    }

    #[test]
    fn every_kind_has_paper_params() {
        for kind in WorkloadKind::ALL {
            let p = paper_params(kind);
            assert!(p.locality.alpha > 1.0, "{}", kind.name());
        }
    }

    #[test]
    fn size_names() {
        assert_eq!(sizes_by_name("small").unwrap(), Sizes::Small);
        assert_eq!(sizes_by_name("PAPER").unwrap(), Sizes::Paper);
        assert!(sizes_by_name("huge").is_err());
    }
}
