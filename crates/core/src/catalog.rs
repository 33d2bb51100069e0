//! The platform family table: one row per family of clusters, each a
//! typed parameter schema plus a plain builder from a parameter map to a
//! [`ClusterSpec`].
//!
//! The paper's closed universe (SMP / COW / CLUMP over three networks) is
//! four of the six rows; the NUMA-aware SMP and multi-rack fat-tree
//! families are the other two.  Every row publishes its schema
//! ([`ParamInfo`]) so `memhier platforms` and `GET /v1/registry` are
//! discoverable instead of folklore, and every builder reads a missing
//! parameter from that schema's default, so each default is written once.
//! The named configurations (C1–C15, N4, N8, FT8, FT16) are points in
//! these families ([`crate::params::configs`]).

use crate::error::ModelError;
use crate::machine::{MachineSpec, NetworkKind};
use crate::platform::ClusterSpec;
use serde::__private::{Number, Value};

/// One named, typed parameter a platform (or workload) back-end accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamInfo {
    /// Parameter name as it appears in a scenario's parameter map.
    pub name: &'static str,
    /// Type tag: `"u32"`, `"u64"`, `"f64"`, or `"string"`.
    pub kind: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// Default value, rendered as a string.
    pub default: &'static str,
}

/// One row of the family table.
#[derive(Debug)]
pub struct PlatformFamily {
    /// Canonical key (e.g. `"numa-smp"`).
    pub key: &'static str,
    /// Additional accepted spellings (matched case-insensitively, like the
    /// key).
    pub aliases: &'static [&'static str],
    /// One-line description for registry listings.
    pub description: &'static str,
    /// The typed parameter schema, defaults included.
    pub params: &'static [ParamInfo],
    builder: fn(&Params) -> Result<ClusterSpec, ModelError>,
}

impl PlatformFamily {
    /// Build a validated cluster from a JSON object of parameters
    /// (missing keys take the schema defaults; unknown keys are rejected).
    pub fn build(&self, params: &Value) -> Result<ClusterSpec, ModelError> {
        self.check_unknown_keys(params)?;
        let cluster = (self.builder)(&Params {
            schema: self.params,
            values: params,
        })?;
        cluster.validate()?;
        Ok(cluster)
    }

    /// Reject parameter keys outside the declared schema — a typo'd knob
    /// must fail loudly, not silently fall back to its default.
    fn check_unknown_keys(&self, params: &Value) -> Result<(), ModelError> {
        let Value::Object(fields) = params else {
            if params.is_null() {
                return Ok(());
            }
            return Err(ModelError::InvalidSpec(format!(
                "platform `{}` parameters must be a JSON object",
                self.key
            )));
        };
        for (k, _) in fields {
            if !self.params.iter().any(|p| p.name == k) {
                let known: Vec<&str> = self.params.iter().map(|p| p.name).collect();
                return Err(ModelError::InvalidSpec(format!(
                    "platform `{}` has no parameter `{k}` (known: {})",
                    self.key,
                    known.join(", ")
                )));
            }
        }
        Ok(())
    }
}

/// A parameter map seen through its family's schema: a missing key reads
/// the schema default.
struct Params<'a> {
    schema: &'static [ParamInfo],
    values: &'a Value,
}

impl Params<'_> {
    fn get(&self, key: &str) -> Value {
        if let Some(v) = self.values.get(key) {
            return v.clone();
        }
        let info = self
            .schema
            .iter()
            .find(|p| p.name == key)
            .expect("builders read only schema parameters");
        let default = match info.kind {
            "u32" | "u64" => info.default.parse().ok().map(Number::U64),
            "f64" => info.default.parse().ok().map(Number::F64),
            _ => return Value::String(info.default.to_string()),
        };
        Value::Number(
            default.unwrap_or_else(|| panic!("default of `{key}` is not a {}", info.kind)),
        )
    }

    fn u32(&self, key: &str) -> Result<u32, ModelError> {
        self.get(key)
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| ModelError::InvalidSpec(format!("parameter `{key}` must be a u32")))
    }

    fn u64(&self, key: &str) -> Result<u64, ModelError> {
        self.get(key)
            .as_u64()
            .ok_or_else(|| ModelError::InvalidSpec(format!("parameter `{key}` must be a u64")))
    }

    fn f64(&self, key: &str) -> Result<f64, ModelError> {
        self.get(key)
            .as_f64()
            .ok_or_else(|| ModelError::InvalidSpec(format!("parameter `{key}` must be a number")))
    }

    fn network(&self, key: &str) -> Result<NetworkKind, ModelError> {
        let v = self.get(key);
        let name = v.as_str().ok_or_else(|| {
            ModelError::InvalidSpec(format!("parameter `{key}` must be a network name"))
        })?;
        NetworkKind::parse(name).ok_or_else(|| {
            ModelError::InvalidSpec(format!(
                "unknown network `{name}` (known: {})",
                NetworkKind::known_keys().join("|")
            ))
        })
    }

    /// One machine of `n_procs` processors from the shared geometry
    /// parameters.
    fn machine(&self, n_procs: u32) -> Result<MachineSpec, ModelError> {
        Ok(MachineSpec::new(
            n_procs,
            self.u64("cache_kb")?,
            self.u64("memory_mb")?,
            self.f64("clock_mhz")?,
        ))
    }
}

/// Per-processor cache capacity, shared by every family.
const CACHE_KB: ParamInfo = ParamInfo {
    name: "cache_kb",
    kind: "u64",
    about: "per-processor cache capacity, KB",
    default: "256",
};

/// Per-machine memory capacity; each family sets its own default.
const fn memory_mb(default: &'static str) -> ParamInfo {
    ParamInfo {
        name: "memory_mb",
        kind: "u64",
        about: "per-machine memory capacity, MB",
        default,
    }
}

/// Processor clock, shared by every family.
const CLOCK_MHZ: ParamInfo = ParamInfo {
    name: "clock_mhz",
    kind: "f64",
    about: "processor clock, MHz",
    default: "200",
};

/// The cluster network of the COW and CLUMP families.
const NETWORK: ParamInfo = ParamInfo {
    name: "network",
    kind: "string",
    about: "cluster network (any registered NetworkKind)",
    default: "Ethernet100",
};

/// The six families, in listing order.
pub static FAMILIES: [PlatformFamily; 6] = [
    PlatformFamily {
        key: "uniprocessor",
        aliases: &["uni"],
        description: "one machine, one processor: the paper's baseline 3-level hierarchy",
        params: &[CACHE_KB, memory_mb("64"), CLOCK_MHZ],
        builder: |p| Ok(ClusterSpec::single(p.machine(1)?)),
    },
    PlatformFamily {
        key: "smp",
        aliases: &[],
        description: "a single bus-based SMP (paper Table 3 family)",
        params: &[
            ParamInfo {
                name: "procs",
                kind: "u32",
                about: "processors sharing the memory bus",
                default: "2",
            },
            CACHE_KB,
            memory_mb("128"),
            CLOCK_MHZ,
        ],
        builder: |p| Ok(ClusterSpec::single(p.machine(p.u32("procs")?)?)),
    },
    PlatformFamily {
        key: "cow",
        aliases: &["cluster", "cluster-of-workstations"],
        description: "a cluster of single-processor workstations (paper Table 4 family)",
        params: &[
            ParamInfo {
                name: "machines",
                kind: "u32",
                about: "workstations in the cluster",
                default: "4",
            },
            NETWORK,
            CACHE_KB,
            memory_mb("64"),
            CLOCK_MHZ,
        ],
        builder: |p| {
            Ok(ClusterSpec::cluster(
                p.machine(1)?,
                p.u32("machines")?,
                p.network("network")?,
            ))
        },
    },
    PlatformFamily {
        key: "clump",
        aliases: &["cluster-of-smps"],
        description: "a cluster of SMP nodes (paper Table 5 family)",
        params: &[
            ParamInfo {
                name: "machines",
                kind: "u32",
                about: "SMP nodes in the cluster",
                default: "2",
            },
            ParamInfo {
                name: "procs",
                kind: "u32",
                about: "processors per node",
                default: "2",
            },
            NETWORK,
            CACHE_KB,
            memory_mb("128"),
            CLOCK_MHZ,
        ],
        builder: |p| {
            Ok(ClusterSpec::cluster(
                p.machine(p.u32("procs")?)?,
                p.u32("machines")?,
                p.network("network")?,
            ))
        },
    },
    PlatformFamily {
        key: "numa-smp",
        aliases: &["numa"],
        description: "a NUMA-aware SMP: per-domain memory buses with a remote-domain latency penalty",
        params: &[
            ParamInfo {
                name: "procs",
                kind: "u32",
                about: "processors in the machine",
                default: "4",
            },
            ParamInfo {
                name: "domains",
                kind: "u32",
                about: "NUMA domains (memory controllers); must divide procs",
                default: "2",
            },
            ParamInfo {
                name: "remote_penalty_cycles",
                kind: "f64",
                about: "extra cycles for a cross-domain memory access",
                default: "40",
            },
            CACHE_KB,
            memory_mb("128"),
            CLOCK_MHZ,
        ],
        builder: |p| {
            let machine = p.machine(p.u32("procs")?)?;
            Ok(ClusterSpec::single(machine.with_numa(
                p.u32("domains")?,
                p.f64("remote_penalty_cycles")?,
            )))
        },
    },
    PlatformFamily {
        key: "fattree-cow",
        aliases: &["fattree", "fat-tree-cow"],
        description: "workstations on a multi-rack 1Gb fat tree: per-port switching in-rack, oversubscribed uplinks across",
        params: &[
            ParamInfo {
                name: "machines",
                kind: "u32",
                about: "workstations across the racks (4 per rack)",
                default: "8",
            },
            CACHE_KB,
            memory_mb("64"),
            CLOCK_MHZ,
        ],
        builder: |p| {
            Ok(ClusterSpec::cluster(
                p.machine(1)?,
                p.u32("machines")?,
                NetworkKind::FatTree,
            ))
        },
    },
];

/// Canonical keys of every family, in table order.
pub fn platform_keys() -> Vec<&'static str> {
    FAMILIES.iter().map(|f| f.key).collect()
}

/// Resolve a family by key or alias (case-insensitive).
pub fn platform_by_key(name: &str) -> Option<&'static PlatformFamily> {
    FAMILIES.iter().find(|f| {
        f.key.eq_ignore_ascii_case(name) || f.aliases.iter().any(|a| a.eq_ignore_ascii_case(name))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformKind;
    use serde_json::json;

    #[test]
    fn builtin_keys_are_discoverable() {
        assert_eq!(
            platform_keys(),
            [
                "uniprocessor",
                "smp",
                "cow",
                "clump",
                "numa-smp",
                "fattree-cow"
            ]
        );
        assert!(platform_by_key("NUMA").is_some(), "alias lookup");
        assert!(platform_by_key("nonesuch").is_none());
    }

    /// Every family builds from `{}`, and builds what it advertises:
    /// setting each parameter to its published default string, parsed by
    /// its kind, gives the same cluster.
    #[test]
    fn every_family_builds_its_advertised_defaults() {
        for f in &FAMILIES {
            let explicit = Value::Object(
                f.params
                    .iter()
                    .map(|p| {
                        let v = match p.kind {
                            "u32" | "u64" => json!(p.default.parse::<u64>().unwrap()),
                            "f64" => json!(p.default.parse::<f64>().unwrap()),
                            _ => json!(p.default),
                        };
                        (p.name.to_string(), v)
                    })
                    .collect(),
            );
            let built = f
                .build(&Value::Object(vec![]))
                .unwrap_or_else(|e| panic!("{}: {e}", f.key));
            assert_eq!(built, f.build(&explicit).unwrap(), "{}", f.key);
        }
    }

    #[test]
    fn params_override_defaults() {
        let smp = platform_by_key("smp").unwrap();
        let c = smp
            .build(&json!({"procs": 4, "cache_kb": 512, "memory_mb": 256}))
            .unwrap();
        assert_eq!(c.machine.n_procs, 4);
        assert_eq!(c.machine.cache_bytes, 512 * 1024);
        assert_eq!(c.machine.memory_bytes, 256 * 1024 * 1024);
        assert_eq!(c.platform(), PlatformKind::Smp);

        let numa = platform_by_key("numa-smp").unwrap();
        let c = numa
            .build(&json!({"procs": 8, "domains": 4, "remote_penalty_cycles": 55.0}))
            .unwrap();
        assert_eq!(c.machine.numa_domains(), 4);
        assert_eq!(c.machine.numa.unwrap().remote_penalty_cycles, 55.0);

        let ft = platform_by_key("fattree-cow").unwrap();
        let c = ft.build(&json!({"machines": 16})).unwrap();
        assert_eq!(c.machines, 16);
        assert_eq!(c.network, Some(NetworkKind::FatTree));
    }

    #[test]
    fn cow_accepts_any_registered_network() {
        let cow = platform_by_key("cow").unwrap();
        let c = cow.build(&json!({"network": "atm"})).unwrap();
        assert_eq!(c.network, Some(NetworkKind::Atm155));
        let c = cow
            .build(&json!({"network": "fat-tree", "machines": 8}))
            .unwrap();
        assert_eq!(c.network, Some(NetworkKind::FatTree));
        let err = cow.build(&json!({"network": "token-ring"})).unwrap_err();
        assert!(err.to_string().contains("Ethernet10"), "{err}");
    }

    #[test]
    fn unknown_parameter_keys_fail_loudly() {
        let smp = platform_by_key("smp").unwrap();
        let err = smp.build(&json!({"prcs": 4})).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("prcs"), "{msg}");
        assert!(msg.contains("procs"), "should list known keys: {msg}");
    }

    #[test]
    fn invalid_geometry_is_rejected_at_build() {
        let numa = platform_by_key("numa-smp").unwrap();
        // 3 domains don't divide 4 procs.
        assert!(numa.build(&json!({"procs": 4, "domains": 3})).is_err());
    }
}
