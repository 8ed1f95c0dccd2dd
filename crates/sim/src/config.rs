//! Core and simulator configuration.
//!
//! Defaults reproduce §3.1 of the paper: a 4-way superscalar,
//! dynamically scheduled processor with a 13-stage pipeline (3 fetch,
//! 1 decode, 1 rename, 2 schedule, 2 register read, 1 execute,
//! 1 writeback, 1 DIVA, 1 retire), at most 128 instructions and 64 memory
//! operations in flight, and a 40-entry reservation-station scheduler
//! issuing up to 2 simple-integer, 2 complex/FP, 1 load and 1 store per
//! cycle. The §3.5 reduced-complexity design points (`RS`, `IW`, `IW+RS`)
//! are provided as presets.
//!
//! Every config struct lists its fields once, in a
//! [`rix_isa::json_fields!`] invocation beside it. That list generates
//! its `KEYS`, `to_json` and `apply_json` and, for the whole tree,
//! [`SimConfig::field_paths`], so a new config field is one line in its
//! struct's list: specs, sweep axes and cache keys pick it up from there.

use rix_frontend::PredictorConfig;
use rix_integration::IntegrationConfig;
use rix_isa::json::{Json, JsonFields};
use rix_mem::MemConfig;
use std::sync::OnceLock;

/// Per-cycle issue limits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IssueConfig {
    /// Total instructions selected per cycle.
    pub width: usize,
    /// Simple-integer slots (ALU ops, branches, returns).
    pub simple: usize,
    /// Complex-integer / floating-point slots.
    pub complex: usize,
    /// Load-port slots.
    pub load: usize,
    /// Store-port slots.
    pub store: usize,
    /// When true, loads and stores share a single memory port (the §3.5
    /// `IW` configuration).
    pub shared_ldst: bool,
}

impl IssueConfig {
    /// The base machine: 4-way issue, 2+2+1+1 ports.
    #[must_use]
    pub fn base() -> Self {
        Self { width: 4, simple: 2, complex: 2, load: 1, store: 1, shared_ldst: false }
    }

    /// The §3.5 `IW` point: 3-way issue with a single shared load/store
    /// port.
    #[must_use]
    pub fn reduced() -> Self {
        Self { width: 3, simple: 2, complex: 2, load: 1, store: 1, shared_ldst: true }
    }
}

impl Default for IssueConfig {
    fn default() -> Self {
        Self::base()
    }
}

rix_isa::json_fields!(IssueConfig: "issue config" {
    width, simple, complex, load, store, shared_ldst
});

/// Out-of-order core geometry and pipeline depths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions renamed per cycle.
    pub rename_width: usize,
    /// Instructions retired per cycle.
    pub retire_width: usize,
    /// Reorder-buffer entries (max instructions in flight).
    pub rob_entries: usize,
    /// Max memory operations in flight.
    pub lsq_entries: usize,
    /// Reservation stations.
    pub rs_entries: usize,
    /// Issue ports.
    pub issue: IssueConfig,
    /// Fetch + decode depth: cycles from fetch to rename availability.
    pub front_delay: u64,
    /// Schedule depth: cycles from rename to earliest select.
    pub sched_delay: u64,
    /// Register-read depth: cycles from select to execute.
    pub regread_delay: u64,
    /// Writeback + DIVA depth: cycles from completion to retirement
    /// eligibility.
    pub diva_delay: u64,
    /// Fetch-queue (decoupling buffer) depth.
    pub fetch_queue: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            fetch_width: 4,
            rename_width: 4,
            retire_width: 4,
            rob_entries: 128,
            lsq_entries: 64,
            rs_entries: 40,
            issue: IssueConfig::base(),
            front_delay: 4,   // 3 fetch + 1 decode
            sched_delay: 2,   // 2 schedule stages
            regread_delay: 2, // 2 register-read stages
            diva_delay: 2,    // writeback + DIVA
            fetch_queue: 16,
        }
    }
}

impl CoreConfig {
    /// The §3.5 `RS` point: reservation stations halved (40 → 20).
    #[must_use]
    pub fn rs20() -> Self {
        Self { rs_entries: 20, ..Self::default() }
    }

    /// The §3.5 `IW` point: 3-way issue, single load/store port.
    #[must_use]
    pub fn iw3() -> Self {
        Self { issue: IssueConfig::reduced(), ..Self::default() }
    }

    /// The §3.5 `IW+RS` point: both reductions combined.
    #[must_use]
    pub fn iw3_rs20() -> Self {
        Self { rs_entries: 20, issue: IssueConfig::reduced(), ..Self::default() }
    }
}

rix_isa::json_fields!(CoreConfig: "core config" {
    fetch_width, rename_width, retire_width, rob_entries, lsq_entries, rs_entries, issue,
    front_delay, sched_delay, regread_delay, diva_delay, fetch_queue,
});

/// Complete simulator configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Core geometry.
    pub core: CoreConfig,
    /// Memory hierarchy.
    pub mem: MemConfig,
    /// Integration machinery (set `enabled: false` for the baseline).
    pub integration: IntegrationConfig,
    /// Branch-predictor table sizes (paper: 8K-entry hybrid).
    pub predictor: PredictorConfig,
    /// Physical register file size (paper: 1K).
    pub num_pregs: usize,
    /// Initial stack-pointer value.
    pub stack_top: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            core: CoreConfig::default(),
            mem: MemConfig::default(),
            integration: IntegrationConfig::default(),
            predictor: PredictorConfig::default(),
            num_pregs: 1024,
            stack_top: 0x0800_0000,
        }
    }
}

rix_isa::json_fields!(SimConfig: "simulator config" {
    core, mem, integration, predictor, num_pregs, stack_top
});

impl SimConfig {
    /// The no-integration baseline processor.
    #[must_use]
    pub fn baseline() -> Self {
        Self { integration: IntegrationConfig::disabled(), ..Self::default() }
    }

    /// Replaces the integration configuration.
    #[must_use]
    pub fn with_integration(self, integration: IntegrationConfig) -> Self {
        Self { integration, ..self }
    }

    /// Replaces the core configuration.
    #[must_use]
    pub fn with_core(self, core: CoreConfig) -> Self {
        Self { core, ..self }
    }

    /// Physical register file size override (the 4K-IT point of Figure 6
    /// also uses 4K registers).
    #[must_use]
    pub fn with_pregs(self, num_pregs: usize) -> Self {
        Self { num_pregs, ..self }
    }

    /// Checks that the machine can actually be **built**: the physical
    /// register file covers the architectural registers plus the
    /// in-flight window, and every sub-config passes its own
    /// buildability check (cache geometry, predictor table sizes, IT /
    /// LISP geometry, counter widths). This is what separates a merely
    /// well-typed configuration — which the JSON layer accepts — from
    /// one [`crate::Simulator::new`] will not panic on; experiment
    /// validation calls it per arm so a bad spec fails with a named
    /// error instead of a worker-thread panic.
    pub fn validate(&self) -> Result<(), String> {
        let floor = rix_isa::reg::NUM_LOG_REGS + self.core.rob_entries + 8;
        if self.num_pregs < floor {
            return Err(format!(
                "num_pregs = {} cannot cover the {} architectural registers plus the \
                 {}-entry window (needs at least {floor})",
                self.num_pregs,
                rix_isa::reg::NUM_LOG_REGS,
                self.core.rob_entries
            ));
        }
        self.mem.validate().map_err(|e| format!("mem: {e}"))?;
        self.integration.validate().map_err(|e| format!("integration: {e}"))?;
        self.predictor.validate().map_err(|e| format!("predictor: {e}"))?;
        Ok(())
    }

    // ----- JSON round trip ----------------------------------------------

    /// Parses a configuration from JSON text: [`SimConfig::default`]
    /// plus the document's (possibly partial) overrides. `{}` is the
    /// default machine; unknown keys anywhere are rejected.
    pub fn from_json(text: &str) -> Result<Self, String> {
        Self::from_json_value(&Json::parse(text)?)
    }

    /// As [`SimConfig::from_json`], over an already-parsed [`Json`].
    pub fn from_json_value(v: &Json) -> Result<Self, String> {
        let mut cfg = Self::default();
        cfg.apply_json(v)?;
        Ok(cfg)
    }

    // ----- named presets ------------------------------------------------

    /// Every named preset: `(name, what it is)`. Resolve one with
    /// [`SimConfig::preset`].
    pub const PRESET_NAMES: &'static [(&'static str, &'static str)] = &[
        ("base", "the no-integration baseline machine (§3.1)"),
        ("default", "the headline machine: +general +opcode +reverse, realistic LISP"),
        ("plus_reverse", "alias of `default` (the fourth Figure 4 arm)"),
        ("squash_reuse", "integration arm 1: PC-indexed squash reuse only"),
        ("plus_general", "integration arm 2: + general reuse via reference counting"),
        ("plus_opcode", "integration arm 3: + opcode/immediate/call-depth indexing"),
        ("oracle", "the headline machine with oracle mis-integration suppression"),
        ("rs20", "the §3.5 `RS` point: 20 reservation stations, no integration"),
        ("iw3", "the §3.5 `IW` point: 3-way issue, shared load/store port, no integration"),
        ("iw3_rs20", "the §3.5 `IW+RS` point: both reductions, no integration"),
    ];

    /// Resolves a named preset — every design point of the paper's
    /// evaluation is reachable by string. Unknown names produce an error
    /// naming the closest preset and listing all of them.
    pub fn preset(name: &str) -> Result<Self, String> {
        Ok(match name {
            "base" => Self::baseline(),
            "default" | "plus_reverse" => Self::default(),
            "squash_reuse" => {
                Self::default().with_integration(IntegrationConfig::squash_reuse())
            }
            "plus_general" => {
                Self::default().with_integration(IntegrationConfig::plus_general())
            }
            "plus_opcode" => Self::default().with_integration(IntegrationConfig::plus_opcode()),
            "oracle" => Self::default().with_integration(IntegrationConfig::default().with_oracle()),
            "rs20" => Self::baseline().with_core(CoreConfig::rs20()),
            "iw3" => Self::baseline().with_core(CoreConfig::iw3()),
            "iw3_rs20" => Self::baseline().with_core(CoreConfig::iw3_rs20()),
            other => {
                let names: Vec<&str> = Self::PRESET_NAMES.iter().map(|(n, _)| *n).collect();
                let closest = names
                    .iter()
                    .min_by_key(|n| rix_isa::json::edit_distance(other, n))
                    .expect("preset list is non-empty");
                return Err(format!(
                    "unknown preset `{other}` (did you mean `{closest}`?); known presets: {}",
                    names.join(", ")
                ));
            }
        })
    }

    // ----- field paths --------------------------------------------------

    /// Every leaf field of the configuration tree as a dotted path
    /// (`"integration.it_entries"`, `"core.issue.width"`, …), in JSON
    /// order — the address space parameter axes sweep over. Derived once
    /// from the field lists, so a new config field is a new path.
    pub fn field_paths() -> &'static [String] {
        static PATHS: OnceLock<Vec<String>> = OnceLock::new();
        PATHS.get_or_init(|| {
            let mut paths = Vec::new();
            Self::default().leaf_paths("", &mut paths);
            paths
        })
    }

    /// Resolves a field path: a full dotted path resolves to itself, a
    /// bare leaf name (`"it_entries"`) resolves when it is unambiguous.
    /// Unknown or ambiguous names produce an error naming the
    /// candidates.
    pub fn resolve_path(path: &str) -> Result<&'static str, String> {
        let paths = Self::field_paths();
        if let Some(full) = paths.iter().find(|p| *p == path) {
            return Ok(full);
        }
        let suffix = format!(".{path}");
        let matches: Vec<&'static str> =
            paths.iter().filter(|p| p.ends_with(&suffix)).map(String::as_str).collect();
        match matches[..] {
            [full] => Ok(full),
            [] => {
                let closest = paths
                    .iter()
                    .min_by_key(|p| {
                        rix_isa::json::edit_distance(
                            path,
                            p.rsplit('.').next().expect("paths are non-empty"),
                        )
                    })
                    .expect("path list is non-empty");
                Err(format!(
                    "unknown config field `{path}` (did you mean `{closest}`?); \
                     see SimConfig::field_paths() for the full list"
                ))
            }
            _ => Err(format!(
                "ambiguous config field `{path}`: matches {}; use a full dotted path",
                matches.join(", ")
            )),
        }
    }

    /// Sets one leaf field by path (full dotted path, or an unambiguous
    /// leaf name). The value goes through the same typed parsing as
    /// [`SimConfig::apply_json`], so type mismatches and enum typos are
    /// rejected with the same messages.
    pub fn set_path(&mut self, path: &str, value: &Json) -> Result<(), String> {
        let full = Self::resolve_path(path)?;
        let mut wrapped = value.clone();
        for seg in full.rsplit('.') {
            wrapped = Json::Obj(vec![(seg.to_string(), wrapped)]);
        }
        self.apply_json(&wrapped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = CoreConfig::default();
        assert_eq!(c.rename_width, 4);
        assert_eq!(c.rob_entries, 128);
        assert_eq!(c.lsq_entries, 64);
        assert_eq!(c.rs_entries, 40);
        assert_eq!(c.issue.width, 4);
        // 3 fetch + 1 decode + 1 rename + 2 sched + 2 read + 1 exec
        // + 1 WB + 1 DIVA + 1 retire = 13 stages.
        assert_eq!(c.front_delay + 1 + c.sched_delay + c.regread_delay + 1 + c.diva_delay + 1, 13);
    }

    #[test]
    fn fig7_presets() {
        assert_eq!(CoreConfig::rs20().rs_entries, 20);
        assert_eq!(CoreConfig::iw3().issue.width, 3);
        assert!(CoreConfig::iw3().issue.shared_ldst);
        let both = CoreConfig::iw3_rs20();
        assert_eq!(both.rs_entries, 20);
        assert_eq!(both.issue.width, 3);
    }

    #[test]
    fn baseline_disables_integration() {
        assert!(!SimConfig::baseline().integration.enabled);
        assert!(SimConfig::default().integration.enabled);
    }

    #[test]
    fn builders() {
        let c = SimConfig::default().with_pregs(4096).with_core(CoreConfig::rs20());
        assert_eq!(c.num_pregs, 4096);
        assert_eq!(c.core.rs_entries, 20);
    }

    #[test]
    fn json_round_trip_is_exact_for_every_preset() {
        for (name, _) in SimConfig::PRESET_NAMES {
            let cfg = SimConfig::preset(name).expect("listed preset resolves");
            let back = SimConfig::from_json(&cfg.to_json()).expect("parses");
            assert_eq!(back, cfg, "preset `{name}` round-trips");
            assert_eq!(back.to_json(), cfg.to_json(), "`{name}` serialisation is stable");
        }
    }

    #[test]
    fn from_json_defaults_omitted_fields() {
        assert_eq!(SimConfig::from_json("{}").unwrap(), SimConfig::default());
        let c = SimConfig::from_json(r#"{"integration":{"it_entries":64,"it_ways":64}}"#)
            .unwrap();
        assert_eq!(c.integration.it_entries, 64);
        assert_eq!(c.core, CoreConfig::default(), "untouched subtree keeps defaults");
        assert_eq!(c.num_pregs, 1024);
    }

    #[test]
    fn from_json_rejects_unknown_keys_naming_them() {
        let err = SimConfig::from_json(r#"{"corez":{}}"#).unwrap_err();
        assert!(err.contains("unknown key `corez`"), "{err}");
        assert!(err.contains("did you mean `core`?"), "{err}");
        let err = SimConfig::from_json(r#"{"integration":{"generel_reuse":true}}"#).unwrap_err();
        assert!(err.contains("integration: unknown key `generel_reuse`"), "{err}");
        assert!(err.contains("general_reuse"), "{err}");
        let err = SimConfig::from_json(r#"{"mem":{"l1d":{"wayz":4}}}"#).unwrap_err();
        assert!(err.contains("l1d: unknown key `wayz`"), "{err}");
        let err =
            SimConfig::from_json(r#"{"integration":{"suppression":"orakle"}}"#).unwrap_err();
        assert!(err.contains("orakle") && err.contains("oracle"), "{err}");
    }

    #[test]
    fn presets_resolve_by_string() {
        assert_eq!(SimConfig::preset("base").unwrap(), SimConfig::baseline());
        assert_eq!(SimConfig::preset("plus_reverse").unwrap(), SimConfig::default());
        assert_eq!(
            SimConfig::preset("iw3_rs20").unwrap(),
            SimConfig::baseline().with_core(CoreConfig::iw3_rs20())
        );
        assert_eq!(
            SimConfig::preset("oracle").unwrap().integration.suppression,
            rix_integration::Suppression::Oracle
        );
        let err = SimConfig::preset("iw3_rs21").unwrap_err();
        assert!(err.contains("unknown preset `iw3_rs21`"), "{err}");
        assert!(err.contains("did you mean `iw3_rs20`?"), "{err}");
        assert!(err.contains("plus_reverse"), "lists all presets: {err}");
    }

    #[test]
    fn set_path_resolves_leaf_names() {
        let mut c = SimConfig::default();
        c.set_path("it_entries", &Json::Num("256".into())).unwrap();
        assert_eq!(c.integration.it_entries, 256);
        c.set_path("core.issue.width", &Json::Num("3".into())).unwrap();
        assert_eq!(c.core.issue.width, 3);
        c.set_path("suppression", &Json::Str("oracle".into())).unwrap();
        assert_eq!(c.integration.suppression, rix_integration::Suppression::Oracle);

        // `ways` appears under every cache level and the IT: ambiguous.
        let err = c.set_path("ways", &Json::Num("1".into())).unwrap_err();
        assert!(err.contains("ambiguous"), "{err}");
        assert!(err.contains("mem.l1d.ways"), "{err}");
        let err = c.set_path("it_entrees", &Json::Num("1".into())).unwrap_err();
        assert!(err.contains("unknown config field `it_entrees`"), "{err}");
        assert!(err.contains("it_entries"), "{err}");
        // Type mismatches surface the apply_json message.
        let err = c.set_path("it_entries", &Json::Str("many".into())).unwrap_err();
        assert!(err.contains("unsigned integer"), "{err}");
    }

    #[test]
    fn field_paths_cover_every_serialised_leaf() {
        // Every field_paths() entry must be settable, and the number of
        // leaves must match what to_json emits (guards against a new
        // config field missing from the path list).
        let mut c = SimConfig::default();
        for path in SimConfig::field_paths() {
            let leaf = path.rsplit('.').next().unwrap();
            let probe = match leaf {
                "shared_ldst" | "enabled" | "general_reuse" => Json::Bool(true),
                "index" => Json::Str("pc".into()),
                "reverse" => Json::Str("off".into()),
                "suppression" => Json::Str("oracle".into()),
                _ => Json::Num("2".into()),
            };
            c.set_path(path, &probe).unwrap_or_else(|e| panic!("{path}: {e}"));
        }
        let leaves = SimConfig::default().to_json().matches(':').count()
            - SimConfig::default().to_json().matches(r#"":{""#).count();
        assert_eq!(
            SimConfig::field_paths().len(),
            leaves,
            "field_paths() and to_json disagree on the number of leaf fields"
        );
    }
}
