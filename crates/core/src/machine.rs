//! Machine, network, and latency parameter types (paper §2, §5.1).
//!
//! A [`NetworkKind`] is a handle into a static table of [`NetworkSpec`]
//! rows: the paper's three media (`Ethernet10`, `Ethernet100`, `Atm155`)
//! plus a multi-rack [`fat-tree`](NetworkKind::FatTree) switch fabric.
//! The three paper media keep their exact wire spellings and §5.1
//! latency constants.

use crate::error::ModelError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// NUMA geometry of one SMP machine: `domains` memory controllers, with
/// an extra `remote_penalty_cycles` charged when a processor reaches a
/// domain other than its own.  `domains == 1` is flat (UMA) and behaves
/// exactly like a machine with no NUMA spec at all.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NumaSpec {
    /// Number of NUMA domains (memory controllers) in the machine.
    pub domains: u32,
    /// Extra cycles for a memory access served by a remote domain.
    pub remote_penalty_cycles: f64,
}

/// One machine of the (homogeneous) cluster: an `n`-processor SMP when
/// `n_procs > 1`, a uniprocessor workstation when `n_procs == 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineSpec {
    /// Processors per machine (`n` in the paper; 1, 2 or 4 in its studies).
    pub n_procs: u32,
    /// Per-processor cache capacity in bytes (`s1`).
    pub cache_bytes: u64,
    /// Main-memory capacity in bytes (`s2` contribution of one machine).
    pub memory_bytes: u64,
    /// Processor speed `S` in instructions per second (clock rate at the
    /// paper's 1 instruction/cycle; 200 MHz in all its experiments).
    pub clock_hz: f64,
    /// Optional NUMA geometry; `None` is a flat (UMA) machine.
    pub numa: Option<NumaSpec>,
}

impl MachineSpec {
    /// Convenience constructor with sizes in the paper's customary units.
    ///
    /// ```
    /// use memhier_core::machine::MachineSpec;
    /// let m = MachineSpec::new(2, 256, 64, 200.0); // 2P, 256 KB, 64 MB, 200 MHz
    /// assert_eq!(m.cache_bytes, 256 * 1024);
    /// ```
    pub fn new(n_procs: u32, cache_kb: u64, memory_mb: u64, clock_mhz: f64) -> Self {
        MachineSpec {
            n_procs,
            cache_bytes: cache_kb * 1024,
            memory_bytes: memory_mb * 1024 * 1024,
            clock_hz: clock_mhz * 1e6,
            numa: None,
        }
    }

    /// Attach a NUMA geometry: `domains` memory controllers with
    /// `remote_penalty_cycles` extra latency for cross-domain accesses.
    pub fn with_numa(mut self, domains: u32, remote_penalty_cycles: f64) -> Self {
        self.numa = Some(NumaSpec {
            domains,
            remote_penalty_cycles,
        });
        self
    }

    /// Effective NUMA domain count (1 for flat machines).
    pub fn numa_domains(&self) -> u32 {
        self.numa.map(|n| n.domains.max(1)).unwrap_or(1)
    }

    /// Validate structural sanity.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.n_procs == 0 {
            return Err(ModelError::InvalidSpec("machine with 0 processors".into()));
        }
        if self.cache_bytes == 0 || self.memory_bytes == 0 {
            return Err(ModelError::InvalidSpec(
                "zero cache or memory capacity".into(),
            ));
        }
        if self.cache_bytes >= self.memory_bytes {
            return Err(ModelError::InvalidSpec(format!(
                "cache ({}) must be smaller than memory ({})",
                self.cache_bytes, self.memory_bytes
            )));
        }
        if self.clock_hz.is_nan() || self.clock_hz <= 0.0 {
            return Err(ModelError::InvalidSpec("non-positive clock".into()));
        }
        if let Some(numa) = self.numa {
            if numa.domains == 0 {
                return Err(ModelError::InvalidSpec(
                    "NUMA machine with 0 domains".into(),
                ));
            }
            if !self.n_procs.is_multiple_of(numa.domains) {
                return Err(ModelError::InvalidSpec(format!(
                    "NUMA domains ({}) must divide the processor count ({})",
                    numa.domains, self.n_procs
                )));
            }
            if numa.remote_penalty_cycles.is_nan() || numa.remote_penalty_cycles < 0.0 {
                return Err(ModelError::InvalidSpec(
                    "negative NUMA remote penalty".into(),
                ));
            }
        }
        Ok(())
    }
}

/// Hand-written so the optional `numa` key is *omitted* when absent:
/// every pre-NUMA spec (golden fixtures, cached request bodies) keeps
/// its exact bytes, and a spec without the key parses as a flat machine.
impl serde::Serialize for MachineSpec {
    fn to_json_value(&self) -> serde::__private::Value {
        let mut fields = vec![
            ("n_procs".to_string(), self.n_procs.to_json_value()),
            ("cache_bytes".to_string(), self.cache_bytes.to_json_value()),
            (
                "memory_bytes".to_string(),
                self.memory_bytes.to_json_value(),
            ),
            ("clock_hz".to_string(), self.clock_hz.to_json_value()),
        ];
        if let Some(numa) = &self.numa {
            fields.push(("numa".to_string(), numa.to_json_value()));
        }
        serde::__private::Value::Object(fields)
    }
}

impl serde::Deserialize for MachineSpec {
    fn from_json_value(v: serde::__private::Value) -> Result<Self, String> {
        let serde::__private::Value::Object(fields) = v else {
            return Err(format!("expected object for MachineSpec, got {v:?}"));
        };
        let take = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or(serde::__private::Value::Null)
        };
        Ok(MachineSpec {
            n_procs: u32::from_json_value(take("n_procs"))
                .map_err(|e| format!("MachineSpec.n_procs: {e}"))?,
            cache_bytes: u64::from_json_value(take("cache_bytes"))
                .map_err(|e| format!("MachineSpec.cache_bytes: {e}"))?,
            memory_bytes: u64::from_json_value(take("memory_bytes"))
                .map_err(|e| format!("MachineSpec.memory_bytes: {e}"))?,
            clock_hz: f64::from_json_value(take("clock_hz"))
                .map_err(|e| format!("MachineSpec.clock_hz: {e}"))?,
            numa: Option::<NumaSpec>::from_json_value(take("numa"))
                .map_err(|e| format!("MachineSpec.numa: {e}"))?,
        })
    }
}

/// Topology class of a cluster network: a bus is one shared server; a switch
/// provides independent paths that contend only at the destination port; a
/// fat tree is switch-like within a rack but funnels rack-crossing traffic
/// through (possibly oversubscribed) uplinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetworkTopology {
    /// Shared medium: every transfer occupies the single network resource.
    Bus,
    /// Crossbar-like switch: transfers contend only per destination port.
    Switch,
    /// Multi-rack fat tree: per-port contention within a rack plus a shared
    /// uplink per rack for transfers that cross racks.
    FatTree,
}

/// Registry entry for one network medium: its wire spellings, its §5.1-style
/// latency terms, and (for fat trees) its rack geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// Canonical registry key and wire spelling (`"Ethernet10"`, ...).
    pub key: &'static str,
    /// Short CLI/optimizer spelling (`"eth10"`, ...).
    pub wire: &'static str,
    /// Additional accepted parse spellings (case-insensitive).
    pub aliases: &'static [&'static str],
    /// Human-readable display string (`"10Mb bus"`).
    pub display: &'static str,
    /// One-line description for registry listings.
    pub description: &'static str,
    /// Nominal bandwidth in megabits per second.
    pub mbps: f64,
    /// Contention model class.
    pub topology: NetworkTopology,
    /// COW remote-node fetch cost in cycles (clean copy at the home).
    pub remote_node_cow: f64,
    /// COW remotely-cached (dirty) fetch cost in cycles.
    pub remote_cached_cow: f64,
    /// CLUMP variant of [`remote_node_cow`](Self::remote_node_cow).
    pub remote_node_clump: f64,
    /// CLUMP variant of [`remote_cached_cow`](Self::remote_cached_cow).
    pub remote_cached_clump: f64,
    /// Fat-tree geometry: machines per rack (0 for single-tier networks).
    pub machines_per_rack: u32,
    /// Extra cycles for a transfer that crosses racks.
    pub rack_crossing_cycles: f64,
    /// Uplink oversubscription ratio (1.0 = full bisection bandwidth).
    pub oversubscription: f64,
}

/// The built-in media: the paper's three (§5.1 latencies exactly) plus the
/// gigabit fat tree.  Order matters — the first three indices are the
/// `LatencyParams` array indices the paper tables use.
const BUILTIN_NETWORKS: [NetworkSpec; 4] = [
    NetworkSpec {
        key: "Ethernet10",
        wire: "eth10",
        aliases: &["ethernet10", "eth10", "10mb"],
        display: "10Mb bus",
        description:
            "10 Mb/s shared Ethernet (paper Network 2): one bus every transfer serializes on",
        mbps: 10.0,
        topology: NetworkTopology::Bus,
        remote_node_cow: 45075.0,
        remote_cached_cow: 90150.0,
        remote_node_clump: 45078.0,
        remote_cached_clump: 90153.0,
        machines_per_rack: 0,
        rack_crossing_cycles: 0.0,
        oversubscription: 1.0,
    },
    NetworkSpec {
        key: "Ethernet100",
        wire: "eth100",
        aliases: &["ethernet100", "eth100", "100mb"],
        display: "100Mb bus",
        description:
            "100 Mb/s shared Fast Ethernet (paper Network 2): a faster bus, still serialized",
        mbps: 100.0,
        topology: NetworkTopology::Bus,
        remote_node_cow: 4575.0,
        remote_cached_cow: 9150.0,
        remote_node_clump: 4578.0,
        remote_cached_clump: 9153.0,
        machines_per_rack: 0,
        rack_crossing_cycles: 0.0,
        oversubscription: 1.0,
    },
    NetworkSpec {
        key: "Atm155",
        wire: "atm",
        aliases: &["atm155", "atm"],
        display: "155Mb switch",
        description:
            "155 Mb/s ATM switch (paper Network 3): transfers contend only per destination port",
        mbps: 155.0,
        topology: NetworkTopology::Switch,
        remote_node_cow: 3275.0,
        remote_cached_cow: 6550.0,
        remote_node_clump: 3278.0,
        remote_cached_clump: 6553.0,
        machines_per_rack: 0,
        rack_crossing_cycles: 0.0,
        oversubscription: 1.0,
    },
    NetworkSpec {
        key: "FatTree",
        wire: "fattree",
        aliases: &["fattree", "fat-tree", "fattree1g"],
        display: "1Gb fat-tree",
        description: "gigabit multi-rack fat tree: per-port switching within a 4-machine rack, \
                      2:1-oversubscribed uplinks and +400 cycles for rack-crossing transfers",
        mbps: 1000.0,
        topology: NetworkTopology::FatTree,
        remote_node_cow: 1475.0,
        remote_cached_cow: 2950.0,
        remote_node_clump: 1478.0,
        remote_cached_clump: 2953.0,
        machines_per_rack: 4,
        rack_crossing_cycles: 400.0,
        oversubscription: 2.0,
    },
];

/// Physical medium of Networks 2/3 (the cluster network): a handle to one
/// row of the network table.  Every medium is an associated constant
/// (`NetworkKind::Atm155`, ...); [`parse`](Self::parse) resolves names.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetworkKind(u16);

#[allow(non_upper_case_globals)]
impl NetworkKind {
    /// 10 Mb/s Ethernet — a bus network.
    pub const Ethernet10: NetworkKind = NetworkKind(0);
    /// 100 Mb/s Fast Ethernet — a bus network.
    pub const Ethernet100: NetworkKind = NetworkKind(1);
    /// 155 Mb/s ATM — a switch network.
    pub const Atm155: NetworkKind = NetworkKind(2);
    /// 1 Gb/s multi-rack fat tree — the post-paper switch fabric.
    pub const FatTree: NetworkKind = NetworkKind(3);

    /// The three network kinds the paper evaluates, in bandwidth order.
    /// (Every medium, the paper's and the fat tree, is enumerated by
    /// [`registered`](Self::registered).)
    pub const ALL: [NetworkKind; 3] = [
        NetworkKind::Ethernet10,
        NetworkKind::Ethernet100,
        NetworkKind::Atm155,
    ];

    /// The table row behind this handle.
    pub fn spec(&self) -> &'static NetworkSpec {
        &BUILTIN_NETWORKS[self.0 as usize]
    }

    /// Canonical registry key (also the JSON wire spelling).
    pub fn key(&self) -> &'static str {
        self.spec().key
    }

    /// Index into the paper's §5.1 latency arrays, when this is one of the
    /// three paper media.
    pub fn paper_index(&self) -> Option<usize> {
        (self.0 < 3).then_some(self.0 as usize)
    }

    /// The topology class of this medium (paper §2: Ethernet ⇒ bus,
    /// ATM ⇒ switch; fat trees are their own class).
    pub fn topology(&self) -> NetworkTopology {
        self.spec().topology
    }

    /// Nominal bandwidth in megabits per second.
    pub fn mbps(&self) -> f64 {
        self.spec().mbps
    }

    /// Which rack `node` lives in (always rack 0 on single-tier networks).
    pub fn rack_of(&self, node: usize) -> usize {
        match self.spec().machines_per_rack {
            0 => 0,
            per_rack => node / per_rack as usize,
        }
    }

    /// Resolve a medium by key, wire spelling, or alias (case-insensitive).
    pub fn parse(name: &str) -> Option<NetworkKind> {
        BUILTIN_NETWORKS
            .iter()
            .position(|spec| {
                spec.key.eq_ignore_ascii_case(name)
                    || spec.wire.eq_ignore_ascii_case(name)
                    || spec.aliases.iter().any(|a| a.eq_ignore_ascii_case(name))
            })
            .map(|i| NetworkKind(i as u16))
    }

    /// Every medium, in table order.
    pub fn registered() -> Vec<NetworkKind> {
        (0..BUILTIN_NETWORKS.len())
            .map(|i| NetworkKind(i as u16))
            .collect()
    }

    /// Canonical keys of every registered medium (for error messages and
    /// registry listings).
    pub fn known_keys() -> Vec<&'static str> {
        NetworkKind::registered().iter().map(|n| n.key()).collect()
    }
}

/// Debug prints the registry key, matching the old enum's derived output
/// for the paper trio (`Ethernet10`, not `NetworkKind(0)`).
impl fmt::Debug for NetworkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

impl fmt::Display for NetworkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec().display)
    }
}

/// Serializes as the canonical registry key — for the paper trio these are
/// the exact unit-variant spellings the old enum emitted
/// (`"Ethernet10"` / `"Ethernet100"` / `"Atm155"`), so pre-registry wire
/// bytes are unchanged.
impl serde::Serialize for NetworkKind {
    fn to_json_value(&self) -> serde::__private::Value {
        serde::__private::Value::String(self.key().to_string())
    }
}

impl serde::Deserialize for NetworkKind {
    fn from_json_value(v: serde::__private::Value) -> Result<Self, String> {
        let name = v
            .as_str()
            .ok_or_else(|| format!("expected string for NetworkKind, got {v:?}"))?;
        NetworkKind::parse(name).ok_or_else(|| {
            format!(
                "unknown NetworkKind variant `{name}` (known: {})",
                NetworkKind::known_keys().join("|")
            )
        })
    }
}

/// The paper's §5.1 latency table, in processor cycles.
///
/// All values are *incremental* costs charged when a reference must descend
/// to the given level, exactly as listed in the paper.  The three `[f64; 3]`
/// arrays are indexed by the paper trio (Eth10/Eth100/ATM) and keep their
/// published values; every other registered medium carries its own latency
/// terms in its [`NetworkSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyParams {
    /// One instruction execution: 1 cycle.
    pub instr: f64,
    /// Cache hit: 1 cycle.
    pub cache_hit: f64,
    /// Cache miss serviced by local memory: 50 cycles.
    pub local_memory: f64,
    /// Cache miss serviced by another processor's cache within an SMP
    /// (snoop hit): 15 cycles.
    pub smp_remote_cache: f64,
    /// Memory miss serviced by the local disk: 2000 cycles.
    pub local_disk: f64,
    /// Cache miss serviced by a remote node's memory, per paper network
    /// (COW: 45075 / 4575 / 3275 cycles for Eth10 / Eth100 / ATM).
    pub remote_node_cow: [f64; 3],
    /// Cache miss serviced by remotely *cached* (dirty) data, per paper
    /// network kind (COW: 90150 / 9150 / 6550).
    pub remote_cached_cow: [f64; 3],
    /// CLUMP variants of the two remote costs (each +3 cycles for the
    /// intra-SMP hop at the home node: 45078/4578/3278 and 90153/9153/6553).
    pub remote_node_clump: [f64; 3],
    /// See [`LatencyParams::remote_node_clump`].
    pub remote_cached_clump: [f64; 3],
}

impl LatencyParams {
    /// The exact §5.1 parameter set.
    pub fn paper() -> Self {
        LatencyParams {
            instr: 1.0,
            cache_hit: 1.0,
            local_memory: 50.0,
            smp_remote_cache: 15.0,
            local_disk: 2000.0,
            remote_node_cow: [45075.0, 4575.0, 3275.0],
            remote_cached_cow: [90150.0, 9150.0, 6550.0],
            remote_node_clump: [45078.0, 4578.0, 3278.0],
            remote_cached_clump: [90153.0, 9153.0, 6553.0],
        }
    }

    /// Remote-node fetch cost over `net` for a cluster of workstations.
    pub fn remote_node(&self, net: NetworkKind, clump: bool) -> f64 {
        match net.paper_index() {
            Some(i) if clump => self.remote_node_clump[i],
            Some(i) => self.remote_node_cow[i],
            None if clump => net.spec().remote_node_clump,
            None => net.spec().remote_node_cow,
        }
    }

    /// Remotely-cached (dirty) fetch cost over `net`.
    pub fn remote_cached(&self, net: NetworkKind, clump: bool) -> f64 {
        match net.paper_index() {
            Some(i) if clump => self.remote_cached_clump[i],
            Some(i) => self.remote_cached_cow[i],
            None if clump => net.spec().remote_cached_clump,
            None => net.spec().remote_cached_cow,
        }
    }

    /// Blended remote-access service time: `(1−f)·remote_node +
    /// f·remote_cached` where `f` is the workload's dirty fraction.
    pub fn remote_service(&self, net: NetworkKind, clump: bool, dirty_fraction: f64) -> f64 {
        let f = dirty_fraction.clamp(0.0, 1.0);
        (1.0 - f) * self.remote_node(net, clump) + f * self.remote_cached(net, clump)
    }
}

impl Default for LatencyParams {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_constructor_units() {
        let m = MachineSpec::new(4, 512, 128, 200.0);
        assert_eq!(m.cache_bytes, 512 * 1024);
        assert_eq!(m.memory_bytes, 128 * 1024 * 1024);
        assert_eq!(m.clock_hz, 2e8);
        assert_eq!(m.numa, None);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn machine_validation_catches_errors() {
        let mut m = MachineSpec::new(2, 256, 64, 200.0);
        m.n_procs = 0;
        assert!(m.validate().is_err());

        let mut m = MachineSpec::new(2, 256, 64, 200.0);
        m.cache_bytes = m.memory_bytes;
        assert!(m.validate().is_err());

        let mut m = MachineSpec::new(2, 256, 64, 200.0);
        m.clock_hz = 0.0;
        assert!(m.validate().is_err());
    }

    #[test]
    fn numa_validation() {
        // 4 procs over 2 domains is fine; 3 domains don't divide 4 procs.
        assert!(MachineSpec::new(4, 256, 128, 200.0)
            .with_numa(2, 40.0)
            .validate()
            .is_ok());
        assert!(MachineSpec::new(4, 256, 128, 200.0)
            .with_numa(3, 40.0)
            .validate()
            .is_err());
        assert!(MachineSpec::new(4, 256, 128, 200.0)
            .with_numa(0, 40.0)
            .validate()
            .is_err());
        assert!(MachineSpec::new(4, 256, 128, 200.0)
            .with_numa(2, -1.0)
            .validate()
            .is_err());
        assert_eq!(MachineSpec::new(4, 256, 128, 200.0).numa_domains(), 1);
        assert_eq!(
            MachineSpec::new(4, 256, 128, 200.0)
                .with_numa(2, 40.0)
                .numa_domains(),
            2
        );
    }

    #[test]
    fn machine_serde_omits_absent_numa() {
        // Flat machines keep the exact pre-NUMA wire bytes.
        let m = MachineSpec::new(2, 256, 64, 200.0);
        let v = m.to_json_value();
        assert!(v.get("numa").is_none(), "no numa key for flat machines");
        assert_eq!(MachineSpec::from_json_value(v).unwrap(), m);

        let n = MachineSpec::new(4, 256, 128, 200.0).with_numa(2, 40.0);
        let v = n.to_json_value();
        assert_eq!(v["numa"]["domains"].as_u64(), Some(2));
        assert_eq!(MachineSpec::from_json_value(v).unwrap(), n);
    }

    #[test]
    fn network_topology_classes() {
        assert_eq!(NetworkKind::Ethernet10.topology(), NetworkTopology::Bus);
        assert_eq!(NetworkKind::Ethernet100.topology(), NetworkTopology::Bus);
        assert_eq!(NetworkKind::Atm155.topology(), NetworkTopology::Switch);
        assert_eq!(NetworkKind::FatTree.topology(), NetworkTopology::FatTree);
    }

    #[test]
    fn network_bandwidth_order() {
        let b: Vec<f64> = NetworkKind::ALL.iter().map(|n| n.mbps()).collect();
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(NetworkKind::FatTree.mbps(), 1000.0);
    }

    #[test]
    fn registry_parse_and_keys() {
        assert_eq!(
            NetworkKind::parse("Ethernet10"),
            Some(NetworkKind::Ethernet10)
        );
        assert_eq!(NetworkKind::parse("eth100"), Some(NetworkKind::Ethernet100));
        assert_eq!(NetworkKind::parse("ATM155"), Some(NetworkKind::Atm155));
        assert_eq!(NetworkKind::parse("fat-tree"), Some(NetworkKind::FatTree));
        assert_eq!(NetworkKind::parse("infiniband"), None);
        assert!(NetworkKind::known_keys().starts_with(&[
            "Ethernet10",
            "Ethernet100",
            "Atm155",
            "FatTree"
        ]));
    }

    #[test]
    fn fat_tree_rack_geometry() {
        let ft = NetworkKind::FatTree;
        assert_eq!(ft.spec().machines_per_rack, 4);
        assert_eq!(ft.rack_of(0), 0);
        assert_eq!(ft.rack_of(3), 0);
        assert_eq!(ft.rack_of(4), 1);
        assert_eq!(ft.rack_of(11), 2);
        // Single-tier media are one big rack.
        assert_eq!(NetworkKind::Atm155.rack_of(7), 0);
    }

    #[test]
    fn network_serde_preserves_paper_spellings() {
        use serde::__private::Value;
        for (kind, key) in [
            (NetworkKind::Ethernet10, "Ethernet10"),
            (NetworkKind::Ethernet100, "Ethernet100"),
            (NetworkKind::Atm155, "Atm155"),
            (NetworkKind::FatTree, "FatTree"),
        ] {
            assert_eq!(kind.to_json_value(), Value::String(key.to_string()));
            assert_eq!(
                NetworkKind::from_json_value(Value::String(key.to_string())),
                Ok(kind)
            );
        }
        assert!(NetworkKind::from_json_value(Value::String("wat".into()))
            .unwrap_err()
            .contains("Ethernet10|Ethernet100|Atm155|FatTree"));
    }

    #[test]
    fn paper_latencies_exact() {
        let l = LatencyParams::paper();
        assert_eq!(l.local_memory, 50.0);
        assert_eq!(l.smp_remote_cache, 15.0);
        assert_eq!(l.local_disk, 2000.0);
        assert_eq!(l.remote_node(NetworkKind::Ethernet10, false), 45075.0);
        assert_eq!(l.remote_node(NetworkKind::Ethernet100, false), 4575.0);
        assert_eq!(l.remote_node(NetworkKind::Atm155, false), 3275.0);
        assert_eq!(l.remote_cached(NetworkKind::Ethernet10, false), 90150.0);
        assert_eq!(l.remote_node(NetworkKind::Ethernet10, true), 45078.0);
        assert_eq!(l.remote_cached(NetworkKind::Atm155, true), 6553.0);
    }

    #[test]
    fn fat_tree_latencies_come_from_the_registry() {
        let l = LatencyParams::paper();
        assert_eq!(l.remote_node(NetworkKind::FatTree, false), 1475.0);
        assert_eq!(l.remote_cached(NetworkKind::FatTree, false), 2950.0);
        assert_eq!(l.remote_node(NetworkKind::FatTree, true), 1478.0);
        assert_eq!(l.remote_cached(NetworkKind::FatTree, true), 2953.0);
        // Dirty data costs 2x clean, the paper's COW ratio.
        assert_eq!(
            l.remote_cached(NetworkKind::FatTree, false),
            2.0 * l.remote_node(NetworkKind::FatTree, false)
        );
    }

    #[test]
    fn remote_service_blend() {
        let l = LatencyParams::paper();
        let s = l.remote_service(NetworkKind::Ethernet100, false, 0.0);
        assert_eq!(s, 4575.0);
        let s = l.remote_service(NetworkKind::Ethernet100, false, 1.0);
        assert_eq!(s, 9150.0);
        let s = l.remote_service(NetworkKind::Ethernet100, false, 0.5);
        assert!((s - (4575.0 + 9150.0) / 2.0).abs() < 1e-12);
        // Clamps out-of-range fractions.
        assert_eq!(
            l.remote_service(NetworkKind::Ethernet100, false, -3.0),
            4575.0
        );
    }

    #[test]
    fn display_matches_paper_naming() {
        assert_eq!(NetworkKind::Ethernet10.to_string(), "10Mb bus");
        assert_eq!(NetworkKind::Atm155.to_string(), "155Mb switch");
        assert_eq!(NetworkKind::FatTree.to_string(), "1Gb fat-tree");
        assert_eq!(format!("{:?}", NetworkKind::Ethernet100), "Ethernet100");
    }
}
