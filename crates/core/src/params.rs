//! The paper's published constants: Tables 3–5 platform configurations
//! (C1–C15) and problem sizes (§5.2).  Table 2's workload characteristics
//! are rows of the workload table ([`crate::workload`]).

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

/// The named configurations: the paper's Tables 3–5 (C1–C15, all at
/// 200 MHz) and the post-paper N4/N8/FT8/FT16, each one row naming a point
/// in a platform family ([`crate::catalog::FAMILIES`]).
pub mod configs {
    use crate::catalog::platform_by_key;
    use crate::platform::ClusterSpec;
    use serde::__private::{Number, Value};

    /// An override value, as a Scenario's `"params"` JSON carries it.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum Arg {
        /// A whole number (`"procs": 4`).
        Int(u64),
        /// A string (`"network": "Atm155"`).
        Str(&'static str),
    }
    use Arg::{Int, Str};

    /// One row of the named table: a family key and the parameters that
    /// differ from the family's defaults.
    #[derive(Debug)]
    pub struct NamedConfig {
        /// Configuration name (`"C5"`).
        pub name: &'static str,
        /// Platform family key ([`crate::catalog::platform_by_key`]).
        pub family: &'static str,
        /// `{"param": value}` overrides of the family defaults.
        pub overrides: &'static [(&'static str, Arg)],
    }

    impl NamedConfig {
        /// The overrides as the JSON parameter map a Scenario would send.
        fn params(&self) -> Value {
            Value::Object(
                self.overrides
                    .iter()
                    .map(|&(k, v)| {
                        let v = match v {
                            Int(n) => Value::Number(Number::U64(n)),
                            Str(s) => Value::String(s.to_string()),
                        };
                        (k.to_string(), v)
                    })
                    .collect(),
            )
        }

        /// Build the configuration through its family's builder.
        fn build(&self) -> ClusterSpec {
            platform_by_key(self.family)
                .expect("named rows use family keys")
                .build(&self.params())
                .unwrap_or_else(|e| panic!("named config {}: {e}", self.name))
                .named(self.name)
        }
    }

    /// Every named configuration: C1–C15 in paper order, then the
    /// post-paper NUMA SMPs and fat-tree clusters.
    #[rustfmt::skip]
    pub static NAMED: [NamedConfig; 19] = [
        // Table 3: SMPs.
        NamedConfig { name: "C1", family: "smp", overrides: &[("memory_mb", Int(64))] },
        NamedConfig { name: "C2", family: "smp", overrides: &[("cache_kb", Int(512)), ("memory_mb", Int(64))] },
        NamedConfig { name: "C3", family: "smp", overrides: &[] },
        NamedConfig { name: "C4", family: "smp", overrides: &[("cache_kb", Int(512))] },
        NamedConfig { name: "C5", family: "smp", overrides: &[("procs", Int(4))] },
        NamedConfig { name: "C6", family: "smp", overrides: &[("procs", Int(4)), ("cache_kb", Int(512))] },
        // Table 4: clusters of workstations.
        NamedConfig { name: "C7", family: "cow", overrides: &[("machines", Int(2)), ("memory_mb", Int(32)), ("network", Str("Ethernet10"))] },
        NamedConfig { name: "C8", family: "cow", overrides: &[] },
        NamedConfig { name: "C9", family: "cow", overrides: &[("cache_kb", Int(512))] },
        NamedConfig { name: "C10", family: "cow", overrides: &[("network", Str("Atm155"))] },
        NamedConfig { name: "C11", family: "cow", overrides: &[("machines", Int(8)), ("cache_kb", Int(512)), ("network", Str("Atm155"))] },
        // Table 5: clusters of SMPs.
        NamedConfig { name: "C12", family: "clump", overrides: &[("memory_mb", Int(64)), ("network", Str("Ethernet10"))] },
        NamedConfig { name: "C13", family: "clump", overrides: &[] },
        NamedConfig { name: "C14", family: "clump", overrides: &[("procs", Int(4))] },
        NamedConfig { name: "C15", family: "clump", overrides: &[("procs", Int(4)), ("network", Str("Atm155"))] },
        // Post-paper: N4 is C5's geometry made NUMA-aware; FT8 and FT16
        // span two and four fat-tree racks.
        NamedConfig { name: "N4", family: "numa-smp", overrides: &[] },
        NamedConfig { name: "N8", family: "numa-smp", overrides: &[("procs", Int(8)), ("domains", Int(4)), ("cache_kb", Int(512)), ("memory_mb", Int(256))] },
        NamedConfig { name: "FT8", family: "fattree-cow", overrides: &[] },
        NamedConfig { name: "FT16", family: "fattree-cow", overrides: &[("machines", Int(16)), ("cache_kb", Int(512))] },
    ];

    /// How many rows of [`NAMED`] are the paper's C1–C15.
    const PAPER_ROWS: usize = 15;

    /// Every configuration C1–C15 in paper order.
    pub fn all_configs() -> Vec<ClusterSpec> {
        NAMED[..PAPER_ROWS].iter().map(NamedConfig::build).collect()
    }

    /// Post-paper configurations: NUMA SMPs and fat-tree clusters.  Kept
    /// separate from [`all_configs`] so the paper's C1–C15 net is pinned.
    pub fn extended_configs() -> Vec<ClusterSpec> {
        NAMED[PAPER_ROWS..].iter().map(NamedConfig::build).collect()
    }

    /// Look up a named configuration (exact, case-sensitive name).
    pub fn by_name(name: &str) -> Option<ClusterSpec> {
        NAMED
            .iter()
            .find(|c| c.name == name)
            .map(NamedConfig::build)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::NetworkKind;
    use crate::platform::{ClusterSpec, PlatformKind};

    fn named(name: &str) -> ClusterSpec {
        configs::by_name(name).unwrap()
    }

    #[test]
    fn config_counts_and_names() {
        let all = configs::all_configs();
        assert_eq!(all.len(), 15);
        for (i, c) in all.iter().enumerate() {
            assert_eq!(c.name.as_deref(), Some(format!("C{}", i + 1).as_str()));
            assert!(c.validate().is_ok(), "{:?}", c.name);
        }
        assert!(configs::by_name("C99").is_none());
        assert!(configs::by_name("c5").is_none(), "names are case-sensitive");
    }

    #[test]
    fn config_platform_kinds() {
        // Tables 3, 4 and 5 are the SMP, COW and CLUMP families.
        for (range, kind) in [
            (1..=6, PlatformKind::Smp),
            (7..=11, PlatformKind::ClusterOfWorkstations),
            (12..=15, PlatformKind::ClusterOfSmps),
        ] {
            for i in range {
                assert_eq!(named(&format!("C{i}")).platform(), kind, "C{i}");
            }
        }
    }

    #[test]
    fn table5_geometry() {
        let c14 = named("C14");
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
        assert_eq!(named("N4").platform(), PlatformKind::Smp);
        assert_eq!(named("N4").machine.numa_domains(), 2);
        assert_eq!(named("N8").machine.numa_domains(), 4);
        assert_eq!(named("FT8").platform(), PlatformKind::ClusterOfWorkstations);
        assert_eq!(named("FT16").machines, 16);
        assert_eq!(named("FT8").network, Some(NetworkKind::FatTree));
        // The paper set stays exactly C1-C15.
        assert_eq!(configs::all_configs().len(), 15);
    }
}
