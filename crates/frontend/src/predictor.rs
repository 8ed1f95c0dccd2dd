//! The hybrid gshare/bimodal conditional-branch predictor.
//!
//! The paper's machine uses an "8K-entry hybrid gshare/bimodal branch
//! predictor" (§3.1). We implement the classic McFarling combining
//! predictor: an 8K-entry bimodal table of 2-bit counters, an 8K-entry
//! gshare table (global history XOR PC), and an 8K-entry chooser table of
//! 2-bit counters trained towards whichever component was correct.

use rix_isa::InstAddr;

/// Sizes of the three component tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PredictorConfig {
    /// Entries in the bimodal table (power of two).
    pub bimodal_entries: usize,
    /// Entries in the gshare table (power of two).
    pub gshare_entries: usize,
    /// Entries in the chooser table (power of two).
    pub chooser_entries: usize,
    /// Bits of global history used by gshare.
    pub history_bits: u32,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self {
            bimodal_entries: 8192,
            gshare_entries: 8192,
            chooser_entries: 8192,
            history_bits: 13,
        }
    }
}

rix_isa::json_fields!(PredictorConfig: "predictor config" {
    bimodal_entries, gshare_entries, chooser_entries, history_bits
});

impl PredictorConfig {
    /// Checks that the tables can actually be built
    /// ([`HybridPredictor::new`] would panic otherwise): power-of-two
    /// table sizes and a history width the shift math can represent.
    pub fn validate(&self) -> Result<(), String> {
        for (name, n) in [
            ("bimodal_entries", self.bimodal_entries),
            ("gshare_entries", self.gshare_entries),
            ("chooser_entries", self.chooser_entries),
        ] {
            if !n.is_power_of_two() {
                return Err(format!("{name} must be a non-zero power of two (got {n})"));
            }
        }
        if !(1..=63).contains(&self.history_bits) {
            return Err(format!("history_bits must be 1-63 (got {})", self.history_bits));
        }
        Ok(())
    }
}

#[inline]
fn counter_up(c: &mut u8) {
    *c = (*c + 1).min(3);
}

#[inline]
fn counter_down(c: &mut u8) {
    *c = c.saturating_sub(1);
}

#[inline]
fn counter_taken(c: u8) -> bool {
    c >= 2
}

/// McFarling-style combining predictor with speculative global history.
#[derive(Clone, Debug)]
pub struct HybridPredictor {
    cfg: PredictorConfig,
    bimodal: Vec<u8>,
    gshare: Vec<u8>,
    chooser: Vec<u8>, // 0..=1: prefer bimodal, 2..=3: prefer gshare
    history: u64,
    lookups: u64,
}

impl HybridPredictor {
    /// Builds a predictor; counters start weakly not-taken / no
    /// preference.
    ///
    /// # Panics
    ///
    /// Panics if any table size is not a power of two.
    #[must_use]
    pub fn new(cfg: PredictorConfig) -> Self {
        for (name, n) in [
            ("bimodal", cfg.bimodal_entries),
            ("gshare", cfg.gshare_entries),
            ("chooser", cfg.chooser_entries),
        ] {
            assert!(n.is_power_of_two(), "{name} table size must be a power of two");
        }
        Self {
            cfg,
            bimodal: vec![1; cfg.bimodal_entries],
            gshare: vec![1; cfg.gshare_entries],
            chooser: vec![2; cfg.chooser_entries],
            history: 0,
            lookups: 0,
        }
    }

    /// Current (speculative) global history.
    #[must_use]
    pub fn history(&self) -> u64 {
        self.history
    }

    /// Restores history after a squash. When `corrected` is given, the
    /// squashing branch's true outcome is shifted in (the branch itself
    /// was not squashed, only everything younger).
    pub fn set_history(&mut self, history: u64, corrected: Option<bool>) {
        self.history = history;
        if let Some(taken) = corrected {
            self.shift_history(taken);
        }
    }

    fn shift_history(&mut self, taken: bool) {
        let mask = (1u64 << self.cfg.history_bits) - 1;
        self.history = ((self.history << 1) | u64::from(taken)) & mask;
    }

    fn indices(&self, pc: InstAddr, history: u64) -> (usize, usize, usize) {
        let b = (pc as usize) & (self.cfg.bimodal_entries - 1);
        let g = ((pc ^ history) as usize) & (self.cfg.gshare_entries - 1);
        let c = (pc as usize) & (self.cfg.chooser_entries - 1);
        (b, g, c)
    }

    /// Predicts the branch at `pc` and speculatively shifts the predicted
    /// direction into the global history.
    pub fn predict_and_update(&mut self, pc: InstAddr) -> bool {
        self.lookups += 1;
        let (b, g, c) = self.indices(pc, self.history);
        let bim = counter_taken(self.bimodal[b]);
        let gsh = counter_taken(self.gshare[g]);
        let taken = if counter_taken(self.chooser[c]) { gsh } else { bim };
        self.shift_history(taken);
        taken
    }

    /// Trains the tables with the resolved outcome. `history` must be the
    /// history the prediction was made with (from the checkpoint).
    pub fn train(&mut self, pc: InstAddr, history: u64, taken: bool) {
        let (b, g, c) = self.indices(pc, history);
        let bim_correct = counter_taken(self.bimodal[b]) == taken;
        let gsh_correct = counter_taken(self.gshare[g]) == taken;
        // Chooser moves toward the component that was right (when they
        // disagree).
        match (bim_correct, gsh_correct) {
            (true, false) => counter_down(&mut self.chooser[c]),
            (false, true) => counter_up(&mut self.chooser[c]),
            _ => {}
        }
        if taken {
            counter_up(&mut self.bimodal[b]);
            counter_up(&mut self.gshare[g]);
        } else {
            counter_down(&mut self.bimodal[b]);
            counter_down(&mut self.gshare[g]);
        }
    }

    /// Number of predictions made.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.lookups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HybridPredictor {
        HybridPredictor::new(PredictorConfig {
            bimodal_entries: 64,
            gshare_entries: 64,
            chooser_entries: 64,
            history_bits: 6,
        })
    }

    #[test]
    fn learns_always_taken() {
        let mut p = tiny();
        for _ in 0..16 {
            let h = p.history();
            p.predict_and_update(5);
            p.train(5, h, true);
        }
        assert!(p.predict_and_update(5));
    }

    #[test]
    fn learns_always_not_taken() {
        let mut p = tiny();
        for _ in 0..16 {
            let h = p.history();
            p.predict_and_update(9);
            p.train(9, h, false);
        }
        assert!(!p.predict_and_update(9));
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        // A strict T/N/T/N pattern is hopeless for bimodal but trivial
        // for gshare once the chooser swings over.
        let mut p = tiny();
        let mut correct = 0;
        let mut outcome = false;
        for i in 0..400 {
            let h = p.history();
            let pred = p.predict_and_update(3);
            if pred == outcome && i >= 200 {
                correct += 1;
            }
            p.train(3, h, outcome);
            if pred != outcome {
                // Mispredictions repair speculative history, as the
                // pipeline does on a squash.
                p.set_history(h, Some(outcome));
            }
            outcome = !outcome;
        }
        assert!(correct > 180, "late-phase accuracy {correct}/200");
    }

    #[test]
    fn history_masked_to_width() {
        let mut p = tiny();
        for _ in 0..100 {
            p.predict_and_update(1);
        }
        assert!(p.history() < (1 << 6));
    }

    #[test]
    fn set_history_with_correction() {
        let mut p = tiny();
        p.set_history(0b101, Some(true));
        assert_eq!(p.history(), 0b1011);
        p.set_history(0b101, None);
        assert_eq!(p.history(), 0b101);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_rejected() {
        let _ = HybridPredictor::new(PredictorConfig {
            bimodal_entries: 100,
            ..PredictorConfig::default()
        });
    }
}
