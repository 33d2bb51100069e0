//! The paper's published constants: Tables 3–5 platform configurations
//! (C1–C15) and problem sizes (§5.2).  Table 2's workload characteristics
//! are rows of the workload table ([`crate::workload`]).

use crate::machine::{MachineSpec, NetworkKind};
use crate::platform::ClusterSpec;

/// Paper problem sizes (§5.2) and the resulting data footprints in bytes.
pub mod sizes {
    /// FFT: 64 K complex points (two arrays of complex doubles).
    pub const FFT_POINTS: usize = 64 * 1024;
    /// LU: 512 × 512 dense matrix of doubles.
    pub const LU_N: usize = 512;
    /// Radix: 1 M integers, radix 1024.
    pub const RADIX_KEYS: usize = 1024 * 1024;
    /// Radix digit width (radix 1024).
    pub const RADIX_RADIX: usize = 1024;
    /// EDGE: 128 × 128 bitmap.
    pub const EDGE_DIM: usize = 128;
    /// Stencil4D: 16⁴ lattice (QCD-style 4-D nearest-neighbor stencil).
    pub const STENCIL_L: usize = 16;
    /// Stream: 1 M doubles copied/scanned per pass.
    pub const STREAM_ELEMS: usize = 1024 * 1024;
    /// GraphWalk: 256 K-node pointer-chase permutation.
    pub const GRAPH_NODES: usize = 256 * 1024;
    /// Inference: 128-wide layers, 4 of them, batch 32.
    pub const INFER_DIM: usize = 128;
    /// Inference layer count.
    pub const INFER_LAYERS: usize = 4;
    /// Inference batch size.
    pub const INFER_BATCH: usize = 32;

    /// FFT footprint: data + roots-of-unity arrays, 16 B per complex point.
    pub const FFT_FOOTPRINT: f64 = (FFT_POINTS * 16 * 2) as f64;
    /// LU footprint: the matrix, 8 B per element.
    pub const LU_FOOTPRINT: f64 = (LU_N * LU_N * 8) as f64;
    /// Radix footprint: keys + permutation buffer (4 B each) + histograms.
    pub const RADIX_FOOTPRINT: f64 = (RADIX_KEYS * 4 * 2 + RADIX_RADIX * 8) as f64;
    /// EDGE footprint: image + 3 working planes, 4 B per pixel.
    pub const EDGE_FOOTPRINT: f64 = (EDGE_DIM * EDGE_DIM * 4 * 4) as f64;
    /// Stencil4D footprint: two lattice fields (src/dst), 8 B per site.
    pub const STENCIL_FOOTPRINT: f64 =
        (STENCIL_L * STENCIL_L * STENCIL_L * STENCIL_L * 8 * 2) as f64;
    /// Stream footprint: source + destination arrays, 8 B per element.
    pub const STREAM_FOOTPRINT: f64 = (STREAM_ELEMS * 8 * 2) as f64;
    /// GraphWalk footprint: successor pointers + payloads, 8 B each.
    pub const GRAPH_FOOTPRINT: f64 = (GRAPH_NODES * 8 * 2) as f64;
    /// Inference footprint: layer weights + double-buffered activations.
    pub const INFER_FOOTPRINT: f64 =
        (INFER_LAYERS * INFER_DIM * INFER_DIM * 8 + 2 * INFER_BATCH * INFER_DIM * 8) as f64;
}

/// The paper's platform configurations (Tables 3–5), all at 200 MHz.
pub mod configs {
    use super::*;

    /// Table 3 — C1: 2P SMP, 256 KB cache, 64 MB memory.
    pub fn c1() -> ClusterSpec {
        ClusterSpec::single(MachineSpec::new(2, 256, 64, 200.0)).named("C1")
    }
    /// Table 3 — C2: 2P SMP, 512 KB, 64 MB.
    pub fn c2() -> ClusterSpec {
        ClusterSpec::single(MachineSpec::new(2, 512, 64, 200.0)).named("C2")
    }
    /// Table 3 — C3: 2P SMP, 256 KB, 128 MB.
    pub fn c3() -> ClusterSpec {
        ClusterSpec::single(MachineSpec::new(2, 256, 128, 200.0)).named("C3")
    }
    /// Table 3 — C4: 2P SMP, 512 KB, 128 MB.
    pub fn c4() -> ClusterSpec {
        ClusterSpec::single(MachineSpec::new(2, 512, 128, 200.0)).named("C4")
    }
    /// Table 3 — C5: 4P SMP, 256 KB, 128 MB.
    pub fn c5() -> ClusterSpec {
        ClusterSpec::single(MachineSpec::new(4, 256, 128, 200.0)).named("C5")
    }
    /// Table 3 — C6: 4P SMP, 512 KB, 128 MB.
    pub fn c6() -> ClusterSpec {
        ClusterSpec::single(MachineSpec::new(4, 512, 128, 200.0)).named("C6")
    }

    /// Table 4 — C7: 2 workstations, 256 KB, 32 MB, 10 Mb bus.
    pub fn c7() -> ClusterSpec {
        ClusterSpec::cluster(
            MachineSpec::new(1, 256, 32, 200.0),
            2,
            NetworkKind::Ethernet10,
        )
        .named("C7")
    }
    /// Table 4 — C8: 4 workstations, 256 KB, 64 MB, 100 Mb bus.
    pub fn c8() -> ClusterSpec {
        ClusterSpec::cluster(
            MachineSpec::new(1, 256, 64, 200.0),
            4,
            NetworkKind::Ethernet100,
        )
        .named("C8")
    }
    /// Table 4 — C9: 4 workstations, 512 KB, 64 MB, 100 Mb bus.
    pub fn c9() -> ClusterSpec {
        ClusterSpec::cluster(
            MachineSpec::new(1, 512, 64, 200.0),
            4,
            NetworkKind::Ethernet100,
        )
        .named("C9")
    }
    /// Table 4 — C10: 4 workstations, 256 KB, 64 MB, 155 Mb switch.
    pub fn c10() -> ClusterSpec {
        ClusterSpec::cluster(MachineSpec::new(1, 256, 64, 200.0), 4, NetworkKind::Atm155)
            .named("C10")
    }
    /// Table 4 — C11: 8 workstations, 512 KB, 64 MB, 155 Mb switch.
    pub fn c11() -> ClusterSpec {
        ClusterSpec::cluster(MachineSpec::new(1, 512, 64, 200.0), 8, NetworkKind::Atm155)
            .named("C11")
    }

    /// Table 5 — C12: 2 × 2P SMPs, 256 KB, 64 MB, 10 Mb bus.
    pub fn c12() -> ClusterSpec {
        ClusterSpec::cluster(
            MachineSpec::new(2, 256, 64, 200.0),
            2,
            NetworkKind::Ethernet10,
        )
        .named("C12")
    }
    /// Table 5 — C13: 2 × 2P SMPs, 256 KB, 128 MB, 100 Mb bus.
    pub fn c13() -> ClusterSpec {
        ClusterSpec::cluster(
            MachineSpec::new(2, 256, 128, 200.0),
            2,
            NetworkKind::Ethernet100,
        )
        .named("C13")
    }
    /// Table 5 — C14: 2 × 4P SMPs, 256 KB, 128 MB, 100 Mb bus.
    pub fn c14() -> ClusterSpec {
        ClusterSpec::cluster(
            MachineSpec::new(4, 256, 128, 200.0),
            2,
            NetworkKind::Ethernet100,
        )
        .named("C14")
    }
    /// Table 5 — C15: 2 × 4P SMPs, 256 KB, 128 MB, 155 Mb switch.
    pub fn c15() -> ClusterSpec {
        ClusterSpec::cluster(MachineSpec::new(4, 256, 128, 200.0), 2, NetworkKind::Atm155)
            .named("C15")
    }

    /// Table 3's SMP configurations C1–C6.
    pub fn smp_configs() -> Vec<ClusterSpec> {
        vec![c1(), c2(), c3(), c4(), c5(), c6()]
    }
    /// Table 4's cluster-of-workstations configurations C7–C11.
    pub fn cow_configs() -> Vec<ClusterSpec> {
        vec![c7(), c8(), c9(), c10(), c11()]
    }
    /// Table 5's cluster-of-SMPs configurations C12–C15.
    pub fn clump_configs() -> Vec<ClusterSpec> {
        vec![c12(), c13(), c14(), c15()]
    }
    /// Every configuration C1–C15 in paper order.
    pub fn all_configs() -> Vec<ClusterSpec> {
        let mut v = smp_configs();
        v.extend(cow_configs());
        v.extend(clump_configs());
        v
    }

    /// Post-paper — N4: one 4P SMP, 256 KB, 128 MB, 2 NUMA domains with a
    /// 40-cycle remote-domain penalty (C5's geometry made NUMA-aware).
    pub fn n4() -> ClusterSpec {
        ClusterSpec::single(MachineSpec::new(4, 256, 128, 200.0).with_numa(2, 40.0)).named("N4")
    }
    /// Post-paper — N8: one 8P SMP, 512 KB, 256 MB, 4 NUMA domains.
    pub fn n8() -> ClusterSpec {
        ClusterSpec::single(MachineSpec::new(8, 512, 256, 200.0).with_numa(4, 40.0)).named("N8")
    }
    /// Post-paper — FT8: 8 workstations, 256 KB, 64 MB, 1 Gb fat tree
    /// (2 racks of 4).
    pub fn ft8() -> ClusterSpec {
        ClusterSpec::cluster(MachineSpec::new(1, 256, 64, 200.0), 8, NetworkKind::FatTree)
            .named("FT8")
    }
    /// Post-paper — FT16: 16 workstations, 512 KB, 64 MB, 1 Gb fat tree
    /// (4 racks of 4).
    pub fn ft16() -> ClusterSpec {
        ClusterSpec::cluster(
            MachineSpec::new(1, 512, 64, 200.0),
            16,
            NetworkKind::FatTree,
        )
        .named("FT16")
    }
    /// Post-paper configurations: NUMA SMPs and fat-tree clusters.  Kept
    /// separate from [`all_configs`] so the paper's C1–C15 net is pinned.
    pub fn extended_configs() -> Vec<ClusterSpec> {
        vec![n4(), n8(), ft8(), ft16()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformKind;

    #[test]
    fn config_counts_and_names() {
        assert_eq!(configs::smp_configs().len(), 6);
        assert_eq!(configs::cow_configs().len(), 5);
        assert_eq!(configs::clump_configs().len(), 4);
        let all = configs::all_configs();
        assert_eq!(all.len(), 15);
        for (i, c) in all.iter().enumerate() {
            assert_eq!(c.name.as_deref(), Some(format!("C{}", i + 1).as_str()));
            assert!(c.validate().is_ok(), "{:?}", c.name);
        }
    }

    #[test]
    fn config_platform_kinds() {
        for c in configs::smp_configs() {
            assert_eq!(c.platform(), PlatformKind::Smp);
        }
        for c in configs::cow_configs() {
            assert_eq!(c.platform(), PlatformKind::ClusterOfWorkstations);
        }
        for c in configs::clump_configs() {
            assert_eq!(c.platform(), PlatformKind::ClusterOfSmps);
        }
    }

    #[test]
    fn table5_geometry() {
        let c14 = configs::c14();
        assert_eq!(c14.machine.n_procs, 4);
        assert_eq!(c14.machines, 2);
        assert_eq!(c14.total_procs(), 8);
        assert_eq!(c14.network, Some(NetworkKind::Ethernet100));
    }

    #[test]
    fn extended_configs_validate_and_classify() {
        let ext = configs::extended_configs();
        assert_eq!(ext.len(), 4);
        for c in &ext {
            assert!(c.validate().is_ok(), "{:?}", c.name);
        }
        assert_eq!(configs::n4().platform(), PlatformKind::Smp);
        assert_eq!(configs::n4().machine.numa_domains(), 2);
        assert_eq!(configs::n8().machine.numa_domains(), 4);
        assert_eq!(
            configs::ft8().platform(),
            PlatformKind::ClusterOfWorkstations
        );
        assert_eq!(configs::ft16().machines, 16);
        assert_eq!(configs::ft8().network, Some(NetworkKind::FatTree));
        // The paper set stays exactly C1-C15.
        assert_eq!(configs::all_configs().len(), 15);
    }
}
