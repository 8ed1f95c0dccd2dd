//! On-disk session checkpoints.
//!
//! A [`Checkpoint`] is everything a simulation session needs to continue
//! in another process: the [`ArchState`] at a retirement boundary, the
//! statistics accumulated so far (every raw counter, losslessly — the
//! figure-facing [`SimStats::to_json`] serialises derived metrics and is
//! not invertible), and the absolute cycle count. It serialises to a
//! single JSON document (schema `rix-ckpt/1`) that
//! `python3 -m json.tool` — and [`rix_isa::json`] — can read back.
//!
//! The statistics are written and read through the field lists of
//! `SimStats` and its nested stats ([`rix_isa::json_fields!`]), so a new
//! counter is one line in its struct's list and this format follows it;
//! decoding is strict, and a missing or mistyped counter is an error.
//!
//! The contract (see [`Simulator::checkpoint`]): a session that
//! checkpoints and keeps running is byte-identical to one that saves the
//! checkpoint, reloads it elsewhere, and resumes.
//!
//! [`Simulator::checkpoint`]: crate::Simulator::checkpoint
//!
//! ```
//! use rix_sim::{Checkpoint, SimConfig, Simulator, StopWhen};
//! use rix_isa::{Asm, reg};
//!
//! let mut a = Asm::new();
//! a.addq_i(reg::R1, reg::ZERO, 500);
//! a.label("loop");
//! a.subq_i(reg::R1, reg::R1, 1);
//! a.bne(reg::R1, "loop");
//! a.halt();
//! let p = a.assemble()?;
//!
//! let mut live = Simulator::new(&p, SimConfig::default());
//! live.run_until(&StopWhen::RetiredAtLeast(200));
//! let ck = live.checkpoint();
//! // ... the live session keeps running; elsewhere, the round trip:
//! let restored = Checkpoint::from_json(&ck.to_json()).unwrap();
//! let mut resumed = Simulator::from_checkpoint(&p, SimConfig::default(), &restored);
//! let a = live.run_budget(1_000_000);
//! let b = resumed.run_budget(1_000_000);
//! assert_eq!(a.to_json(), b.to_json()); // byte-identical
//! # Ok::<(), rix_isa::AsmError>(())
//! ```

use crate::stats::SimStats;
use rix_isa::json::{Json, JsonFields, Pull};
use rix_isa::{ArchState, Program};
use rix_mem::Cycle;
use std::fmt::Write as _;
use std::path::Path;

/// A serialisable session snapshot at a retirement boundary. See the
/// [module docs](self).
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// The architectural state (PC, registers, memory, retired
    /// position).
    pub arch: ArchState,
    /// Every statistics counter accumulated since the last
    /// `reset_stats` (or construction), losslessly.
    pub stats: SimStats,
    /// The absolute machine cycle at capture.
    pub cycle: Cycle,
    /// [`fingerprint`] of the program the snapshot belongs to. An
    /// `ArchState` is meaningless against any other instruction stream,
    /// so `Simulator::from_checkpoint` refuses a mismatch instead of
    /// running garbage.
    pub program_hash: u64,
}

/// A 64-bit FNV-1a fingerprint of a program's identity: entry point,
/// instruction stream (dense encoding) and initial data image. Stored
/// in every [`Checkpoint`] and checked at restore, so a checkpoint
/// saved from one (benchmark, seed) cannot silently resume against
/// another.
#[must_use]
pub fn fingerprint(program: &Program) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    mix(program.entry());
    mix(program.len() as u64);
    for &i in program.instrs() {
        // Assembled instructions always encode (the codec is lossless
        // over the ISA); fold a sentinel rather than fail on a
        // hand-built exotic one.
        mix(rix_isa::encode::encode(i).unwrap_or(u64::MAX));
    }
    for seg in program.data_segments() {
        mix(seg.base);
        mix(seg.words.len() as u64);
        for &w in &seg.words {
            mix(w);
        }
    }
    h
}

impl Checkpoint {
    /// Serialises the checkpoint as a `rix-ckpt/1` JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            r#"{{"schema":"rix-ckpt/1","cycle":{},"program_hash":{},"stats":"#,
            self.cycle, self.program_hash,
        );
        self.stats.write_json(&mut out);
        out.push_str(r#","arch":"#);
        out.push_str(&self.arch.to_json());
        out.push('}');
        out
    }

    /// Parses a checkpoint serialised by [`Checkpoint::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Json::parse(text)?;
        match v.req("schema")?.as_str() {
            Some("rix-ckpt/1") => {}
            other => return Err(format!("unsupported checkpoint schema {other:?}")),
        }
        Ok(Self {
            cycle: v.req_u64("cycle")?,
            program_hash: v.req_u64("program_hash")?,
            stats: read_stats(&v)?,
            arch: ArchState::from_json_value(v.req("arch")?)?,
        })
    }

    /// Writes the checkpoint to `path`, with a trailing newline.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, format!("{}\n", self.to_json()))
    }

    /// Reads a checkpoint from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("cannot read checkpoint {:?}: {e}", path.as_ref()))?;
        Self::from_json(text.trim_end())
    }
}

// ----- lossless RunResult serialisation ---------------------------------

/// Serialises a [`RunResult`] losslessly (every raw counter, plus the
/// halt/timeout flags): the multi-process dispatch wire format and
/// trial-cache payload. The figure-facing [`RunResult::to_json`] emits
/// derived metrics and is **not** invertible; this encoding is. It is
/// generated from the field lists of `RunResult` (`halted`,
/// `timed_out`, `stats`) and the stats it nests.
///
/// [`RunResult`]: crate::RunResult
/// [`RunResult::to_json`]: crate::RunResult::to_json
#[must_use]
pub fn result_to_json(r: &crate::RunResult) -> String {
    let mut out = String::with_capacity(1024);
    r.write_json(&mut out);
    out
}

/// Parses a [`result_to_json`] tree back into the identical
/// [`RunResult`] (`result_to_json(&result_from_json(v)?) ==` the
/// original text). Strict: every key must be present exactly once, and
/// no other key may appear.
///
/// [`RunResult`]: crate::RunResult
pub fn result_from_json(v: &Json) -> Result<crate::RunResult, String> {
    let mut r = empty_result();
    r.apply_json(v)?;
    Ok(r)
}

/// [`result_from_json`] straight from the text, with no tree: it
/// accepts exactly the documents `result_from_json(&Json::parse(text)?)`
/// accepts, and decodes them to the same value.
pub fn result_from_text(text: &str) -> Result<crate::RunResult, String> {
    let mut p = Pull::new(text);
    let r = result_from_pull(&mut p)?;
    p.end()?;
    Ok(r)
}

/// The [`result_to_json`] document `p` holds next, as [`result_from_text`]
/// reads it: for a caller that embeds results in a larger document.
pub fn result_from_pull(p: &mut Pull<'_>) -> Result<crate::RunResult, String> {
    let mut r = empty_result();
    r.apply_pull(p)?;
    Ok(r)
}

fn empty_result() -> crate::RunResult {
    crate::RunResult { stats: SimStats::default(), halted: false, timed_out: false }
}

/// The lossless [`SimStats`] under `v`'s `"stats"` key: every counter
/// must be present (see `SimStats`'s field list in [`crate::stats`]).
fn read_stats(v: &Json) -> Result<SimStats, String> {
    let mut stats = SimStats::default();
    stats.read_json("stats", v.req("stats")?)?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::pipeline::Simulator;
    use crate::session::StopWhen;
    use rix_isa::{reg, Asm};

    fn busy_program() -> rix_isa::Program {
        let mut a = Asm::new();
        a.data(0x4000, (0..32).map(|i| i * 3).collect::<Vec<u64>>());
        a.addq_i(reg::R1, reg::ZERO, 200); // trips
        a.addq_i(reg::R2, reg::ZERO, 0x4000);
        a.label("loop");
        a.ldq(reg::R3, 0, reg::R2);
        a.addq_i(reg::R3, reg::R3, 1);
        a.stq(reg::R3, 0, reg::R2);
        a.lda(reg::SP, -16, reg::SP);
        a.stq(reg::R3, 8, reg::SP);
        a.ldq(reg::R4, 8, reg::SP);
        a.lda(reg::SP, 16, reg::SP);
        a.subq_i(reg::R1, reg::R1, 1);
        a.bne(reg::R1, "loop");
        a.halt();
        a.assemble().expect("assembles")
    }

    #[test]
    fn stats_serde_is_lossless() {
        let p = busy_program();
        let mut sim = Simulator::new(&p, SimConfig::default());
        sim.run_until(&StopWhen::RetiredAtLeast(600));
        let ck = sim.checkpoint();
        assert!(ck.stats.retired >= 600);
        assert!(ck.stats.integration.integrations() > 0, "exercise the histograms");
        let back = Checkpoint::from_json(&ck.to_json()).expect("parses");
        assert_eq!(back, ck);
        assert_eq!(back.to_json(), ck.to_json());
    }

    #[test]
    fn json_is_well_formed_and_self_describing() {
        let p = busy_program();
        let mut sim = Simulator::new(&p, SimConfig::baseline());
        sim.run_until(&StopWhen::RetiredAtLeast(100));
        let j = sim.checkpoint().to_json();
        assert!(j.contains(r#""schema":"rix-ckpt/1""#));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(rix_isa::json::Json::parse(&j).is_ok());
    }

    #[test]
    fn run_result_serde_is_lossless() {
        let p = busy_program();
        let mut sim = Simulator::new(&p, SimConfig::default());
        let r = sim.run_budget(2_000);
        let text = result_to_json(&r);
        let v = rix_isa::json::Json::parse(&text).expect("well-formed");
        let back = result_from_json(&v).expect("parses");
        assert_eq!(back, r);
        assert_eq!(result_to_json(&back), text, "byte-stable round trip");
        assert_eq!(result_from_text(&text), Ok(r), "the pull reader agrees");
        // And it is the *lossless* form, not the derived-metric one.
        assert!(text.contains("\"rs_occupancy_sum\""), "{text}");
    }

    #[test]
    fn from_json_rejects_other_schemas() {
        let err = Checkpoint::from_json(r#"{"schema":"rix-perf/1"}"#).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }
}
