//! Component prices and the cluster cost function (paper eq. 5).
//!
//! The paper's exact price list lives in its unavailable tech report; this
//! table is reconstructed from late-1998 market prices with the orderings
//! the paper asserts (DESIGN.md substitution 4):
//!
//! * an SMP box is "significantly more expensive than a normal cluster
//!   network connecting independent computer nodes" — a $5,000 budget
//!   cannot cover one (§6 case study 1);
//! * ATM NIC + switch port ≫ Fast-Ethernet NIC + hub port ≫ Ethernet.

use memhier_core::machine::{MachineSpec, NetworkKind};
use memhier_core::platform::ClusterSpec;
use serde::{Deserialize, Serialize};

/// Price table in dollars.  On the wire every missing price takes its
/// [`circa_1999`](PriceTable::circa_1999) value, so a request can
/// override just one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields, expecting = "`prices`")]
pub struct PriceTable {
    /// Uniprocessor workstation base (200 MHz CPU, chassis, 256 KB cache).
    pub ws_base: f64,
    /// 2-processor SMP box base (256 KB cache per processor).
    pub smp2_base: f64,
    /// 4-processor SMP box base.
    pub smp4_base: f64,
    /// Memory, per megabyte.
    pub mem_per_mb: f64,
    /// Upgrading one processor's cache from 256 KB to 512 KB.
    pub cache512_per_proc: f64,
    /// Per-machine 10 Mb Ethernet cost (NIC + hub port).
    pub eth10_per_machine: f64,
    /// Per-machine 100 Mb Fast Ethernet cost.
    pub eth100_per_machine: f64,
    /// Per-machine 155 Mb ATM cost (NIC + switch port).
    pub atm_per_machine: f64,
}

impl PriceTable {
    /// The reconstructed late-1998 price table used throughout the case
    /// studies.
    pub fn circa_1999() -> Self {
        PriceTable {
            ws_base: 1750.0,
            smp2_base: 5500.0,
            smp4_base: 11_000.0,
            mem_per_mb: 1.50,
            cache512_per_proc: 250.0,
            eth10_per_machine: 50.0,
            eth100_per_machine: 150.0,
            atm_per_machine: 750.0,
        }
    }

    /// `C_machine(n)`: one machine's cost.
    ///
    /// Returns `None` for processor counts the market of the paper's era
    /// does not offer (only 1, 2, 4).
    pub fn machine_cost(&self, m: &MachineSpec) -> Option<f64> {
        let base = match m.n_procs {
            1 => self.ws_base,
            2 => self.smp2_base,
            4 => self.smp4_base,
            _ => return None,
        };
        let cache = match m.cache_bytes {
            c if c == 256 * 1024 => 0.0,
            c if c == 512 * 1024 => self.cache512_per_proc * m.n_procs as f64,
            _ => return None,
        };
        let mem = self.mem_per_mb * (m.memory_bytes / (1024 * 1024)) as f64;
        Some(base + cache + mem)
    }

    /// `C_net`: per-machine network cost.
    pub fn network_cost(&self, net: NetworkKind) -> f64 {
        match net {
            NetworkKind::Ethernet10 => self.eth10_per_machine,
            NetworkKind::Ethernet100 => self.eth100_per_machine,
            NetworkKind::Atm155 => self.atm_per_machine,
            // `NetworkKind` is non_exhaustive; unknown media are priced as
            // the most expensive known one so the optimizer never
            // underestimates.
            _ => self.atm_per_machine,
        }
    }

    /// Eq. (5): `C_cluster = N·C_machine(n) + N·C_net` (the network term
    /// vanishing for a single machine).
    pub fn cluster_cost(&self, c: &ClusterSpec) -> Option<f64> {
        let m = self.machine_cost(&c.machine)?;
        let net = match (c.machines, c.network) {
            (1, _) => 0.0,
            (_, Some(k)) => self.network_cost(k),
            (_, None) => return None,
        };
        Some(c.machines as f64 * (m + net))
    }
}

impl Default for PriceTable {
    fn default() -> Self {
        Self::circa_1999()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(cache_kb: u64, mem_mb: u64) -> MachineSpec {
        MachineSpec::new(1, cache_kb, mem_mb, 200.0)
    }

    #[test]
    fn machine_costs() {
        let p = PriceTable::circa_1999();
        assert_eq!(p.machine_cost(&ws(256, 64)), Some(1750.0 + 96.0));
        assert_eq!(p.machine_cost(&ws(512, 64)), Some(1750.0 + 250.0 + 96.0));
        let smp = MachineSpec::new(4, 512, 128, 200.0);
        assert_eq!(p.machine_cost(&smp), Some(11_000.0 + 1000.0 + 192.0));
        // Unavailable processor counts and cache sizes.
        assert_eq!(p.machine_cost(&MachineSpec::new(3, 256, 64, 200.0)), None);
        assert_eq!(p.machine_cost(&MachineSpec::new(1, 128, 64, 200.0)), None);
    }

    #[test]
    fn cluster_cost_includes_network_per_machine() {
        let p = PriceTable::circa_1999();
        let c = ClusterSpec::cluster(ws(256, 64), 4, NetworkKind::Ethernet100);
        assert_eq!(p.cluster_cost(&c), Some(4.0 * (1846.0 + 150.0)));
        // Single machine pays no network.
        let s = ClusterSpec::single(MachineSpec::new(2, 256, 64, 200.0));
        assert_eq!(p.cluster_cost(&s), Some(5500.0 + 96.0));
    }

    #[test]
    fn paper_ordering_smp_unaffordable_at_5k() {
        // §6 case 1: $5,000 covers workstation clusters but no SMP.
        let p = PriceTable::circa_1999();
        let smp2 = ClusterSpec::single(MachineSpec::new(2, 256, 32, 200.0));
        assert!(p.cluster_cost(&smp2).unwrap() > 5000.0);
        let cow = ClusterSpec::cluster(ws(256, 64), 2, NetworkKind::Ethernet100);
        assert!(p.cluster_cost(&cow).unwrap() < 5000.0);
    }

    #[test]
    fn paper_fft_case_configs_cost_comparably() {
        // §6: 4 workstations (64 MB) on Ethernet vs 3 workstations (32 MB)
        // on ATM — "different cluster platforms of the same cost".
        let p = PriceTable::circa_1999();
        let eth = ClusterSpec::cluster(ws(256, 64), 4, NetworkKind::Ethernet10);
        let atm = ClusterSpec::cluster(ws(256, 32), 3, NetworkKind::Atm155);
        let (ce, ca) = (p.cluster_cost(&eth).unwrap(), p.cluster_cost(&atm).unwrap());
        assert!(
            (ce - ca).abs() / ce < 0.05,
            "Ethernet {ce} vs ATM {ca} should be within 5%"
        );
    }

    #[test]
    fn network_price_ordering() {
        let p = PriceTable::circa_1999();
        assert!(p.network_cost(NetworkKind::Ethernet10) < p.network_cost(NetworkKind::Ethernet100));
        assert!(p.network_cost(NetworkKind::Ethernet100) < p.network_cost(NetworkKind::Atm155));
    }
}
