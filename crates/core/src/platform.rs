//! Cluster specifications and platform classification (paper §2, Table 1).

use crate::error::ModelError;
use crate::machine::{MachineSpec, NetworkKind};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The three (plus uniprocessor) platform families of the paper's Table 1,
/// distinguished by which gray blocks of the Figure-1 hierarchy they add.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlatformKind {
    /// One machine, one processor: no extra hierarchy levels.
    Uniprocessor,
    /// A single SMP: adds gray block A (intra-machine shared memory).
    Smp,
    /// A cluster of workstations: adds gray blocks B and C (remote memory
    /// and remote disks over the cluster network).
    ClusterOfWorkstations,
    /// A cluster of SMPs: adds gray blocks A, B and C.
    ClusterOfSmps,
}

impl PlatformKind {
    /// The paper's Table-1 description of which memory levels the platform
    /// adds on top of cache/local-memory/local-disk.
    pub fn additional_levels(&self) -> &'static str {
        match self {
            PlatformKind::Uniprocessor => "none",
            PlatformKind::Smp => "gray block A",
            PlatformKind::ClusterOfWorkstations => "gray blocks B and C",
            PlatformKind::ClusterOfSmps => "gray blocks A, B, and C",
        }
    }

    /// Number of memory-hierarchy levels `k` seen by one processor
    /// (paper Figure 1): uniprocessor 3 (cache/memory/disk), SMP 3 (its
    /// shared memory is level 2), clusters 5 (adds remote memory and
    /// remote disk).
    pub fn hierarchy_length(&self) -> u32 {
        match self {
            PlatformKind::Uniprocessor | PlatformKind::Smp => 3,
            PlatformKind::ClusterOfWorkstations | PlatformKind::ClusterOfSmps => 5,
        }
    }
}

impl fmt::Display for PlatformKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformKind::Uniprocessor => write!(f, "uniprocessor"),
            PlatformKind::Smp => write!(f, "a single SMP"),
            PlatformKind::ClusterOfWorkstations => write!(f, "a cluster of workstations"),
            PlatformKind::ClusterOfSmps => write!(f, "a cluster of SMPs"),
        }
    }
}

/// A complete homogeneous cluster: `machines` identical machines connected
/// by `network` (None for a single machine, which needs no cluster network).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ClusterSpec {
    /// The per-machine specification.
    pub machine: MachineSpec,
    /// Number of machines `N` in the cluster.
    pub machines: u32,
    /// Cluster network (Networks 2/3 of Figure 1); required when
    /// `machines > 1`.
    pub network: Option<NetworkKind>,
    /// Optional human-readable configuration name (e.g. `"C5"`).
    pub name: Option<String>,
}

impl ClusterSpec {
    /// A single machine (SMP or uniprocessor).
    pub fn single(machine: MachineSpec) -> Self {
        ClusterSpec {
            machine,
            machines: 1,
            network: None,
            name: None,
        }
    }

    /// A cluster of `machines` identical machines over `network`.
    pub fn cluster(machine: MachineSpec, machines: u32, network: NetworkKind) -> Self {
        ClusterSpec {
            machine,
            machines,
            network: Some(network),
            name: None,
        }
    }

    /// Builder-style: attach a configuration name.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Total processor count `q = n·N`.
    pub fn total_procs(&self) -> u32 {
        self.machine.n_procs * self.machines
    }

    /// Aggregate memory across the cluster, in bytes.
    pub fn total_memory_bytes(&self) -> u64 {
        self.machine.memory_bytes * self.machines as u64
    }

    /// Classify per the paper's Table 1.
    pub fn platform(&self) -> PlatformKind {
        match (self.machines, self.machine.n_procs) {
            (0, _) | (_, 0) => PlatformKind::Uniprocessor, // caught by validate()
            (1, 1) => PlatformKind::Uniprocessor,
            (1, _) => PlatformKind::Smp,
            (_, 1) => PlatformKind::ClusterOfWorkstations,
            (_, _) => PlatformKind::ClusterOfSmps,
        }
    }

    /// Structural validation: machine sanity, machine count, network
    /// presence for multi-machine clusters.
    pub fn validate(&self) -> Result<(), ModelError> {
        self.machine.validate()?;
        if self.machines == 0 {
            return Err(ModelError::InvalidSpec("cluster with 0 machines".into()));
        }
        if self.machines > 1 && self.network.is_none() {
            return Err(ModelError::MissingNetwork);
        }
        Ok(())
    }

    /// Short human-readable description, e.g.
    /// `"C9: 4 x (1P, 512KB, 64MB) over 100Mb bus"`.
    pub fn describe(&self) -> String {
        let m = &self.machine;
        let base = format!(
            "{} x ({}P, {}KB, {}MB)",
            self.machines,
            m.n_procs,
            m.cache_bytes / 1024,
            m.memory_bytes / (1024 * 1024)
        );
        let net = match self.network {
            Some(n) if self.machines > 1 => format!(" over {n}"),
            _ => String::new(),
        };
        match &self.name {
            Some(name) => format!("{name}: {base}{net}"),
            None => format!("{base}{net}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws() -> MachineSpec {
        MachineSpec::new(1, 256, 64, 200.0)
    }
    fn smp(n: u32) -> MachineSpec {
        MachineSpec::new(n, 256, 128, 200.0)
    }

    #[test]
    fn classification_matches_table1() {
        assert_eq!(
            ClusterSpec::single(ws()).platform(),
            PlatformKind::Uniprocessor
        );
        assert_eq!(ClusterSpec::single(smp(2)).platform(), PlatformKind::Smp);
        assert_eq!(
            ClusterSpec::cluster(ws(), 4, NetworkKind::Ethernet100).platform(),
            PlatformKind::ClusterOfWorkstations
        );
        assert_eq!(
            ClusterSpec::cluster(smp(2), 2, NetworkKind::Atm155).platform(),
            PlatformKind::ClusterOfSmps
        );
    }

    #[test]
    fn table1_additional_levels_text() {
        assert_eq!(PlatformKind::Smp.additional_levels(), "gray block A");
        assert_eq!(
            PlatformKind::ClusterOfWorkstations.additional_levels(),
            "gray blocks B and C"
        );
        assert_eq!(
            PlatformKind::ClusterOfSmps.additional_levels(),
            "gray blocks A, B, and C"
        );
    }

    #[test]
    fn hierarchy_lengths() {
        assert_eq!(PlatformKind::Smp.hierarchy_length(), 3);
        assert_eq!(PlatformKind::ClusterOfSmps.hierarchy_length(), 5);
    }

    #[test]
    fn totals() {
        let c = ClusterSpec::cluster(smp(4), 2, NetworkKind::Ethernet100);
        assert_eq!(c.total_procs(), 8);
        assert_eq!(c.total_memory_bytes(), 2 * 128 * 1024 * 1024);
    }

    #[test]
    fn validation_requires_network_for_clusters() {
        let mut c = ClusterSpec::cluster(ws(), 4, NetworkKind::Ethernet10);
        assert!(c.validate().is_ok());
        c.network = None;
        assert_eq!(c.validate(), Err(ModelError::MissingNetwork));
        c.machines = 1;
        assert!(c.validate().is_ok(), "single machine needs no network");
    }

    #[test]
    fn validation_rejects_zero_machines() {
        let mut c = ClusterSpec::single(ws());
        c.machines = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn describe_contains_essentials() {
        let c = ClusterSpec::cluster(ws(), 4, NetworkKind::Ethernet100).named("C8");
        let d = c.describe();
        assert!(d.contains("C8"), "{d}");
        assert!(d.contains("4 x"), "{d}");
        assert!(d.contains("256KB"), "{d}");
        assert!(d.contains("100Mb bus"), "{d}");
        // Single machine omits the network clause.
        let s = ClusterSpec::single(smp(2)).describe();
        assert!(!s.contains("over"), "{s}");
    }
}
