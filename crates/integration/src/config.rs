//! Integration configuration and the paper's experiment presets.

/// How the integration table is indexed (§2.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexScheme {
    /// PC indexing: instructions only integrate results of older dynamic
    /// instances of *themselves* (squash-reuse style).
    Pc,
    /// Opcode ⊕ immediate ⊕ call-depth indexing: different static
    /// instructions with the same operation can integrate each other's
    /// results, and save/restore pairs land in conflict-free sets.
    OpcodeDepth,
}

impl IndexScheme {
    /// The scheme's stable JSON name.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Pc => "pc",
            Self::OpcodeDepth => "opcode_depth",
        }
    }

    /// Parses a JSON name produced by [`IndexScheme::as_str`].
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "pc" => Ok(Self::Pc),
            "opcode_depth" => Ok(Self::OpcodeDepth),
            other => Err(format!("unknown index scheme `{other}` (expected `pc` or `opcode_depth`)")),
        }
    }
}

rix_isa::json_fields!(enum IndexScheme);

/// Which operations create reverse IT entries (§2.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReverseScope {
    /// No reverse entries.
    Off,
    /// The paper's design point: stack-pointer-based stores (register
    /// saves) and stack-pointer adds (frame pushes/pops) only.
    StackPointer,
    /// Every store and every invertible immediate add — a generalisation
    /// the paper sketches (more IT pressure, more coverage).
    AllInvertible,
}

impl ReverseScope {
    /// The scope's stable JSON name.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::StackPointer => "stack_pointer",
            Self::AllInvertible => "all_invertible",
        }
    }

    /// Parses a JSON name produced by [`ReverseScope::as_str`].
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(Self::Off),
            "stack_pointer" => Ok(Self::StackPointer),
            "all_invertible" => Ok(Self::AllInvertible),
            other => Err(format!(
                "unknown reverse scope `{other}` (expected `off`, `stack_pointer` or `all_invertible`)"
            )),
        }
    }
}

rix_isa::json_fields!(enum ReverseScope);

/// How load mis-integrations are suppressed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Suppression {
    /// The realistic predictor: a 1K-entry 2-way PC-indexed tag cache
    /// where a hit suppresses integration (overbiased: any past
    /// mis-integration of this PC suppresses all its future
    /// integrations).
    Lisp,
    /// Oracle suppression: an integration is allowed only if its value
    /// will verify at DIVA (the paper's dark-bar configurations).
    Oracle,
}

impl Suppression {
    /// The policy's stable JSON name.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Lisp => "lisp",
            Self::Oracle => "oracle",
        }
    }

    /// Parses a JSON name produced by [`Suppression::as_str`].
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "lisp" => Ok(Self::Lisp),
            "oracle" => Ok(Self::Oracle),
            other => Err(format!("unknown suppression `{other}` (expected `lisp` or `oracle`)")),
        }
    }
}

rix_isa::json_fields!(enum Suppression);

/// Full configuration of the integration machinery.
///
/// `IntegrationConfig::default()` is the paper's headline configuration:
/// general reuse + opcode indexing + stack-pointer reverse integration,
/// a 1K-entry 4-way IT, 4-bit generation counters, 4-bit reference
/// counters, and a realistic LISP.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntegrationConfig {
    /// Master switch; `false` gives the no-integration baseline renamer.
    pub enabled: bool,
    /// `true` = general reuse (reference counting); `false` = squash
    /// reuse only (only squashed registers integrate).
    pub general_reuse: bool,
    /// IT index function.
    pub index: IndexScheme,
    /// Reverse-entry creation policy.
    pub reverse: ReverseScope,
    /// Mis-integration suppression.
    pub suppression: Suppression,
    /// Total IT entries (power of two).
    pub it_entries: usize,
    /// IT associativity; use [`IntegrationConfig::fully_associative`] or
    /// set `it_ways == it_entries` for a fully-associative table.
    pub it_ways: usize,
    /// Generation counter width in bits (paper: 4).
    pub gen_bits: u32,
    /// Reference counter width in bits (paper: 4).
    pub count_bits: u32,
    /// LISP entries (power of two).
    pub lisp_entries: usize,
    /// LISP associativity.
    pub lisp_ways: usize,
    /// Emulated integration-pipeline depth (§3.3): an IT entry becomes
    /// visible to lookups only this many renamed instructions after its
    /// creation. 0 models the atomic (single-stage) integration circuit;
    /// 4 models integration pipelined over four stages on a 4-wide
    /// machine. Squash reuse is naturally impervious (the squash
    /// separates creator and integrator by a pipeline flush).
    pub pipeline_depth: u64,
}

impl Default for IntegrationConfig {
    fn default() -> Self {
        Self::plus_reverse()
    }
}

impl IntegrationConfig {
    fn base() -> Self {
        Self {
            enabled: true,
            general_reuse: true,
            index: IndexScheme::OpcodeDepth,
            reverse: ReverseScope::StackPointer,
            suppression: Suppression::Lisp,
            it_entries: 1024,
            it_ways: 4,
            gen_bits: 4,
            count_bits: 4,
            lisp_entries: 1024,
            lisp_ways: 2,
            pipeline_depth: 0,
        }
    }

    /// Integration disabled: the baseline processor.
    #[must_use]
    pub fn disabled() -> Self {
        Self { enabled: false, ..Self::base() }
    }

    /// The paper's first experiment arm: PC-indexed squash reuse only.
    #[must_use]
    pub fn squash_reuse() -> Self {
        Self {
            general_reuse: false,
            index: IndexScheme::Pc,
            reverse: ReverseScope::Off,
            ..Self::base()
        }
    }

    /// Second arm: + general reuse via reference counting.
    #[must_use]
    pub fn plus_general() -> Self {
        Self {
            general_reuse: true,
            index: IndexScheme::Pc,
            reverse: ReverseScope::Off,
            ..Self::base()
        }
    }

    /// Third arm: + opcode ⊕ immediate ⊕ call-depth indexing.
    #[must_use]
    pub fn plus_opcode() -> Self {
        Self {
            general_reuse: true,
            index: IndexScheme::OpcodeDepth,
            reverse: ReverseScope::Off,
            ..Self::base()
        }
    }

    /// Final arm (the paper's headline configuration): + reverse
    /// integration for stack saves/restores.
    #[must_use]
    pub fn plus_reverse() -> Self {
        Self::base()
    }

    /// Switches this configuration to oracle mis-integration suppression.
    #[must_use]
    pub fn with_oracle(self) -> Self {
        Self { suppression: Suppression::Oracle, ..self }
    }

    /// Sets IT geometry (entries must be a power of two and a multiple of
    /// ways).
    #[must_use]
    pub fn with_it_geometry(self, entries: usize, ways: usize) -> Self {
        Self { it_entries: entries, it_ways: ways, ..self }
    }

    /// Makes the IT fully associative at its current size.
    #[must_use]
    pub fn fully_associative(self) -> Self {
        Self { it_ways: self.it_entries, ..self }
    }

    /// Sets the emulated integration-pipeline depth (§3.3).
    #[must_use]
    pub fn with_pipeline_depth(self, depth: u64) -> Self {
        Self { pipeline_depth: depth, ..self }
    }

    /// Sets the generation-counter width (§2.2's register
    /// mis-integration defence; the paper uses 4 bits).
    #[must_use]
    pub fn with_gen_bits(self, bits: u32) -> Self {
        Self { gen_bits: bits, ..self }
    }

    /// Checks that the machinery can actually be built (the IT, LISP
    /// and reference-vector constructors would panic otherwise):
    /// buildable IT geometry with a power-of-two set count, buildable
    /// LISP geometry, and 1–8-bit counters. Checked even when
    /// `enabled` is false — the simulator constructs the structures
    /// either way.
    pub fn validate(&self) -> Result<(), String> {
        let ways = self.it_ways.min(self.it_entries);
        if self.it_entries == 0 || ways == 0 || !self.it_entries.is_multiple_of(ways) {
            return Err(format!(
                "bad IT geometry: {} entries must be a non-zero multiple of {} ways",
                self.it_entries, self.it_ways
            ));
        }
        if !(self.it_entries / ways).is_power_of_two() {
            return Err(format!(
                "IT set count must be a power of two ({} entries / {} ways = {} sets)",
                self.it_entries,
                ways,
                self.it_entries / ways
            ));
        }
        if self.lisp_entries == 0
            || self.lisp_ways == 0
            || !self.lisp_entries.is_multiple_of(self.lisp_ways)
        {
            return Err(format!(
                "bad LISP geometry: {} entries must be a non-zero multiple of {} ways",
                self.lisp_entries, self.lisp_ways
            ));
        }
        if !(1..=8).contains(&self.gen_bits) {
            return Err(format!("gen_bits must be 1-8 (got {})", self.gen_bits));
        }
        if !(1..=8).contains(&self.count_bits) {
            return Err(format!("count_bits must be 1-8 (got {})", self.count_bits));
        }
        Ok(())
    }

    /// The four extension arms of Figure 4, in order, with their paper
    /// labels.
    #[must_use]
    pub fn figure4_arms() -> Vec<(&'static str, Self)> {
        vec![
            ("squash", Self::squash_reuse()),
            ("+general", Self::plus_general()),
            ("+opcode", Self::plus_opcode()),
            ("+reverse", Self::plus_reverse()),
        ]
    }
}

rix_isa::json_fields!(IntegrationConfig: "integration config" {
    enabled, general_reuse, index, reverse, suppression, it_entries, it_ways, gen_bits,
    count_bits, lisp_entries, lisp_ways, pipeline_depth,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_headline_config() {
        let c = IntegrationConfig::default();
        assert!(c.enabled);
        assert!(c.general_reuse);
        assert_eq!(c.index, IndexScheme::OpcodeDepth);
        assert_eq!(c.reverse, ReverseScope::StackPointer);
        assert_eq!(c.it_entries, 1024);
        assert_eq!(c.it_ways, 4);
        assert_eq!(c.gen_bits, 4);
    }

    #[test]
    fn arms_are_cumulative() {
        let arms = IntegrationConfig::figure4_arms();
        assert_eq!(arms.len(), 4);
        assert!(!arms[0].1.general_reuse);
        assert!(arms[1].1.general_reuse);
        assert_eq!(arms[1].1.index, IndexScheme::Pc);
        assert_eq!(arms[2].1.index, IndexScheme::OpcodeDepth);
        assert_eq!(arms[2].1.reverse, ReverseScope::Off);
        assert_eq!(arms[3].1.reverse, ReverseScope::StackPointer);
    }

    #[test]
    fn ablation_builders() {
        let c = IntegrationConfig::default().with_pipeline_depth(4).with_gen_bits(1);
        assert_eq!(c.pipeline_depth, 4);
        assert_eq!(c.gen_bits, 1);
        assert_eq!(IntegrationConfig::default().pipeline_depth, 0);
    }

    #[test]
    fn builders_compose() {
        let c = IntegrationConfig::plus_reverse()
            .with_oracle()
            .with_it_geometry(256, 256);
        assert_eq!(c.suppression, Suppression::Oracle);
        assert_eq!(c.it_entries, 256);
        assert_eq!(c.it_ways, 256);
        let f = IntegrationConfig::default().fully_associative();
        assert_eq!(f.it_ways, f.it_entries);
    }
}
