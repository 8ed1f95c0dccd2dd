//! Set-associative cache with true-LRU replacement and write-back policy.
//!
//! The cache models tags and dirty state only; data values live in the
//! simulator's [`rix_isa::MemImage`]. Lookups and fills update LRU
//! order; fills report the victim line so the memory system can charge
//! write-back bus traffic.

use crate::Cycle;

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Access latency in cycles for a hit.
    pub hit_latency: Cycle,
}

impl CacheConfig {
    /// The paper's 64 KB / 32 B / 2-way / 1-cycle instruction cache.
    #[must_use]
    pub fn l1i() -> Self {
        Self { size_bytes: 64 * 1024, line_bytes: 32, ways: 2, hit_latency: 1 }
    }

    /// The paper's 32 KB / 32 B / 2-way / 2-cycle data cache.
    #[must_use]
    pub fn l1d() -> Self {
        Self { size_bytes: 32 * 1024, line_bytes: 32, ways: 2, hit_latency: 2 }
    }

    /// The paper's 2 MB / 64 B / 4-way / 6-cycle unified L2.
    #[must_use]
    pub fn l2() -> Self {
        Self { size_bytes: 2 * 1024 * 1024, line_bytes: 64, ways: 4, hit_latency: 6 }
    }

    /// Number of sets implied by the geometry.
    #[must_use]
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * self.ways as u64)
    }

    /// Checks that the geometry can actually be built ([`Cache::new`]
    /// would panic otherwise): at least one way, a power-of-two line
    /// size, and a capacity that divides evenly into at least one set.
    pub fn validate(&self) -> Result<(), String> {
        if self.ways == 0 {
            return Err("cache must have at least one way".to_string());
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "cache line size must be a non-zero power of two (got {})",
                self.line_bytes
            ));
        }
        let set_bytes = self.line_bytes * self.ways as u64;
        if self.size_bytes == 0 || !self.size_bytes.is_multiple_of(set_bytes) {
            return Err(format!(
                "cache capacity {} must be a non-zero multiple of line_bytes × ways = {}",
                self.size_bytes, set_bytes
            ));
        }
        Ok(())
    }
}

rix_isa::json_fields!(CacheConfig: "cache config" { size_bytes, line_bytes, ways, hit_latency });

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64, // larger = more recently used
}

/// Hit/miss counters for one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of lookups that hit.
    pub hits: u64,
    /// Number of lookups that missed.
    pub misses: u64,
    /// Number of dirty lines written back on eviction.
    pub writebacks: u64,
}

rix_isa::json_fields!(complete CacheStats: "cache stats" { hits, misses, writebacks });

impl CacheStats {
    /// Miss ratio over all lookups (0 when no lookups happened).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A dirty victim evicted by [`Cache::fill`], which the next level must
/// absorb.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Victim {
    /// Line-aligned byte address of the evicted line.
    pub addr: u64,
}

/// One level of set-associative, write-back, true-LRU cache.
///
/// ```
/// use rix_mem::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::l1d());
/// assert!(!c.lookup(0x1000, false)); // cold miss
/// c.fill(0x1000);
/// assert!(c.lookup(0x1000, false)); // now hits
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// All lines in one strided allocation: set `s` occupies
    /// `lines[s * ways .. (s + 1) * ways]` (one contiguous cache-line-
    /// friendly block per set, no per-set `Vec` indirection).
    lines: Vec<Line>,
    /// `cfg.num_sets()`, cached so the per-access index math does not
    /// re-derive it with a hardware divide.
    num_sets: u64,
    /// `log2(cfg.line_bytes)` (line size is asserted a power of two).
    line_shift: u32,
    /// Line number of the last lookup hit (`u64::MAX` = none) and the
    /// flat index of its way. A consecutive repeat hit skips the set
    /// scan *and* the LRU stamp: the line already holds the
    /// most-recent stamp, so its relative LRU order cannot change.
    /// Invalidated on every fill (a fill can evict this very line).
    last_line: u64,
    last_way: usize,
    stamp: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways, non-power-of-two
    /// line size, or capacity not divisible by `line_bytes * ways`).
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.ways > 0, "cache must have at least one way");
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(
            cfg.size_bytes.is_multiple_of(cfg.line_bytes * cfg.ways as u64),
            "capacity must divide evenly into sets"
        );
        let sets = cfg.num_sets() as usize;
        Self {
            cfg,
            lines: vec![Line::default(); sets * cfg.ways],
            num_sets: cfg.num_sets(),
            line_shift: cfg.line_bytes.trailing_zeros(),
            last_line: u64::MAX,
            last_way: 0,
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// The ways of one set, as a contiguous slice.
    #[inline]
    fn set_ways(&self, set: usize) -> &[Line] {
        &self.lines[set * self.cfg.ways..(set + 1) * self.cfg.ways]
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    #[inline]
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        // Power-of-two set counts (all realistic geometries) split the
        // line number with mask/shift instead of hardware divides.
        if self.num_sets.is_power_of_two() {
            let shift = self.num_sets.trailing_zeros();
            ((line & (self.num_sets - 1)) as usize, line >> shift)
        } else {
            ((line % self.num_sets) as usize, line / self.num_sets)
        }
    }

    /// Looks up `addr`; on a hit updates LRU (and the dirty bit when
    /// `write` is true) and returns `true`.
    pub fn lookup(&mut self, addr: u64, write: bool) -> bool {
        if addr >> self.line_shift == self.last_line {
            self.lines[self.last_way].dirty |= write;
            self.stats.hits += 1;
            return true;
        }
        let (set, tag) = self.set_and_tag(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        let w = self.cfg.ways;
        for (wi, line) in self.lines[set * w..(set + 1) * w].iter_mut().enumerate() {
            if line.valid && line.tag == tag {
                line.lru = stamp;
                line.dirty |= write;
                self.stats.hits += 1;
                self.last_line = addr >> self.line_shift;
                self.last_way = set * w + wi;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Probes for `addr` without touching LRU, dirty state, or statistics.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.set_ways(set).iter().any(|l| l.valid && l.tag == tag)
    }

    /// Installs the line containing `addr`, evicting the LRU way.
    ///
    /// Returns the dirty victim (if any) that must be written back to the
    /// next level. Filling a line that is already present only refreshes
    /// its LRU position.
    pub fn fill(&mut self, addr: u64) -> Option<Victim> {
        // The fill may evict the memoized last-hit line.
        self.last_line = u64::MAX;
        let (set, tag) = self.set_and_tag(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        let num_sets = self.num_sets;
        let line_bytes = self.cfg.line_bytes;
        let w = self.cfg.ways;
        let set_lines = &mut self.lines[set * w..(set + 1) * w];
        if let Some(line) = set_lines.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = stamp;
            return None;
        }
        let way = set_lines
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.lru } else { 0 })
            .map(|(i, _)| i)
            .expect("cache has at least one way");
        let victim = set_lines[way];
        let evicted = (victim.valid && victim.dirty).then(|| {
            self.stats.writebacks += 1;
            Victim { addr: (victim.tag * num_sets + set as u64) * line_bytes }
        });
        set_lines[way] = Line { tag, valid: true, dirty: false, lru: stamp };
        evicted
    }

    /// Marks the line containing `addr` dirty if present (used when a
    /// write-buffer drain hits).
    pub fn mark_dirty(&mut self, addr: u64) {
        let (set, tag) = self.set_and_tag(addr);
        let w = self.cfg.ways;
        for line in &mut self.lines[set * w..(set + 1) * w] {
            if line.valid && line.tag == tag {
                line.dirty = true;
            }
        }
    }

    /// Line-aligns an address.
    #[must_use]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 32B = 256B.
        Cache::new(CacheConfig { size_bytes: 256, line_bytes: 32, ways: 2, hit_latency: 1 })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.lookup(0x40, false));
        assert!(c.fill(0x40).is_none());
        assert!(c.lookup(0x40, false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_line_offsets_hit() {
        let mut c = small();
        c.fill(0x40);
        assert!(c.lookup(0x47, false));
        assert!(c.lookup(0x5f, false));
        assert!(!c.lookup(0x60, false)); // next line
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Set 0 holds lines with addr % 128 == 0 (4 sets * 32B).
        c.fill(0x000);
        c.fill(0x080); // both in set 0 now
        c.lookup(0x000, false); // touch first → second is LRU
        c.fill(0x100); // evicts 0x080
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
        assert!(c.probe(0x100));
    }

    #[test]
    fn dirty_victim_reported() {
        let mut c = small();
        c.fill(0x000);
        c.lookup(0x000, true); // dirty it
        c.fill(0x080);
        let victim = c.fill(0x100); // evicts 0x000 (LRU, dirty)
        assert_eq!(victim, Some(Victim { addr: 0x000 }));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_victim_not_reported() {
        let mut c = small();
        c.fill(0x000);
        c.fill(0x080);
        assert_eq!(c.fill(0x100), None);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn refill_refreshes_lru_without_eviction() {
        let mut c = small();
        c.fill(0x000);
        c.fill(0x080);
        c.fill(0x000); // refresh, no eviction
        c.fill(0x100); // should evict 0x080
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
    }

    #[test]
    fn probe_does_not_perturb() {
        let mut c = small();
        c.fill(0x000);
        let before = c.stats();
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn paper_geometries() {
        assert_eq!(CacheConfig::l1d().num_sets(), 512);
        assert_eq!(CacheConfig::l1i().num_sets(), 1024);
        assert_eq!(CacheConfig::l2().num_sets(), 8192);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        let _ = Cache::new(CacheConfig { size_bytes: 256, line_bytes: 32, ways: 0, hit_latency: 1 });
    }

    #[test]
    fn miss_rate() {
        let mut c = small();
        assert_eq!(c.stats().miss_rate(), 0.0);
        c.lookup(0x00, false);
        c.fill(0x00);
        c.lookup(0x00, false);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    proptest! {
        /// After filling a line, a lookup of any offset within it hits;
        /// capacity is bounded: at most `sets*ways` distinct lines resident.
        #[test]
        fn fill_makes_line_resident(addr in 0u64..0x10000) {
            let mut c = small();
            c.fill(addr);
            prop_assert!(c.probe(addr));
            prop_assert!(c.probe(c.line_addr(addr)));
        }

        /// A freshly filled line is never its own victim.
        #[test]
        fn victim_differs_from_fill(addrs in proptest::collection::vec(0u64..0x4000, 1..64)) {
            let mut c = small();
            for a in addrs {
                c.lookup(a, true);
                if let Some(v) = c.fill(a) {
                    prop_assert_ne!(c.line_addr(v.addr), c.line_addr(a));
                }
                prop_assert!(c.probe(a));
            }
        }
    }
}
