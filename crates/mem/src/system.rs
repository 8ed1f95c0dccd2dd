//! The composed memory system.
//!
//! [`MemSystem`] wires the L1 caches, unified L2, TLBs, MSHR file, buses
//! and write buffer into the three operations the core needs:
//!
//! * [`MemSystem::ifetch`] — instruction fetch timing,
//! * [`MemSystem::dload`] — out-of-order load timing (cache port side;
//!   store-queue forwarding is the LSQ's job),
//! * [`MemSystem::retire_store`] — retirement-time store drain through the
//!   write buffer.
//!
//! Every operation returns the cycle its data is available. Miss flows
//! charge, in order: the L2 lookup, the memory bus + 80-cycle DRAM on an
//! L2 miss, the L2→L1 backside transfer, and any dirty-victim write-backs.

use crate::bus::Bus;
use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::mshr::MshrFile;
use crate::tlb::Tlb;
use crate::writebuf::WriteBuffer;
use crate::Cycle;

/// Configuration of the whole hierarchy (defaults = §3.1 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemConfig {
    /// Instruction cache geometry.
    pub l1i: CacheConfig,
    /// Data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Main-memory access latency in cycles.
    pub mem_latency: Cycle,
    /// Number of data-cache MSHRs.
    pub mshrs: usize,
    /// Retirement write-buffer entries.
    pub write_buffer: usize,
}

impl Default for MemConfig {
    fn default() -> Self {
        Self {
            l1i: CacheConfig::l1i(),
            l1d: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            mem_latency: 80,
            mshrs: 16,
            write_buffer: 16,
        }
    }
}

rix_isa::json_fields!(MemConfig: "memory config" {
    l1i, l1d, l2, mem_latency, mshrs, write_buffer
});

impl MemConfig {
    /// Checks that every cache level can actually be built (see
    /// [`CacheConfig::validate`]), naming the level on failure.
    pub fn validate(&self) -> Result<(), String> {
        for (name, c) in [("l1i", &self.l1i), ("l1d", &self.l1d), ("l2", &self.l2)] {
            c.validate().map_err(|e| format!("{name}: {e}"))?;
        }
        Ok(())
    }
}

/// Aggregate statistics across the hierarchy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemSystemStats {
    /// Instruction-cache hit/miss counters.
    pub l1i: CacheStats,
    /// Data-cache hit/miss counters.
    pub l1d: CacheStats,
    /// L2 hit/miss counters.
    pub l2: CacheStats,
    /// I-TLB misses.
    pub itlb_misses: u64,
    /// D-TLB misses.
    pub dtlb_misses: u64,
    /// MSHR merges (loads piggy-backing on in-flight fills).
    pub mshr_merges: u64,
    /// Write-buffer full events (retirement stalls).
    pub write_buffer_stalls: u64,
    /// Backside-bus busy cycles.
    pub backside_busy: u64,
    /// Memory-bus busy cycles.
    pub membus_busy: u64,
}

rix_isa::json_fields!(complete MemSystemStats: "memory stats" {
    l1i, l1d, l2, itlb_misses, dtlb_misses, mshr_merges, write_buffer_stalls, backside_busy,
    membus_busy,
});

/// The full cache/TLB/bus hierarchy.
#[derive(Clone, Debug)]
pub struct MemSystem {
    cfg: MemConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    dmshr: MshrFile,
    backside: Bus,
    membus: Bus,
    wb: WriteBuffer,
}

impl MemSystem {
    /// Builds the hierarchy from a configuration.
    #[must_use]
    pub fn new(cfg: MemConfig) -> Self {
        Self {
            cfg,
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            itlb: Tlb::itlb(),
            dtlb: Tlb::dtlb(),
            dmshr: MshrFile::new(cfg.mshrs),
            backside: Bus::backside(),
            membus: Bus::memory(),
            wb: WriteBuffer::new(cfg.write_buffer),
        }
    }

    /// The configuration this system was built with.
    #[must_use]
    pub fn config(&self) -> MemConfig {
        self.cfg
    }

    /// Fetches the L2 line containing `line_addr` into the L2 (if absent)
    /// and returns the cycle the line is available at the L2's output.
    fn l2_data_ready(&mut self, now: Cycle, addr: u64) -> Cycle {
        let l2_line = self.l2.line_addr(addr);
        let lookup_done = now + self.l2.config().hit_latency;
        if self.l2.lookup(l2_line, false) {
            return lookup_done;
        }
        // L2 miss: DRAM access then transfer over the memory bus.
        let dram_done = lookup_done + self.cfg.mem_latency;
        let line_bytes = self.l2.config().line_bytes;
        let bus_done = self.membus.acquire(dram_done, line_bytes);
        if let Some(victim) = self.l2.fill(l2_line) {
            // Dirty L2 victim drains to memory; charges the bus but does
            // not delay the demand fill.
            let _ = self.membus.acquire(bus_done, line_bytes);
            let _ = victim;
        }
        bus_done
    }

    /// Moves the L1 line containing `addr` from L2 to the given L1,
    /// returning its arrival cycle. Handles dirty-victim write-back.
    fn fill_l1(&mut self, now: Cycle, addr: u64, which: WhichL1) -> Cycle {
        let l2_ready = self.l2_data_ready(now, addr);
        let l1 = match which {
            WhichL1::Instr => &mut self.l1i,
            WhichL1::Data => &mut self.l1d,
        };
        let line_bytes = l1.config().line_bytes;
        let line = l1.line_addr(addr);
        let arrival = self.backside.acquire(l2_ready, line_bytes);
        if let Some(victim) = l1.fill(line) {
            // Dirty L1 victim goes down the backside bus into L2.
            let wb_done = self.backside.acquire(arrival, line_bytes);
            if !self.l2.lookup(victim.addr, true) {
                // Victim missing in L2 (non-inclusive): allocate it there.
                let _ = self.l2.fill(victim.addr);
                let _ = wb_done;
            }
        }
        arrival
    }

    /// Instruction fetch of the line containing byte address `addr`,
    /// requested at `now`. Returns the cycle the line is available.
    pub fn ifetch(&mut self, now: Cycle, addr: u64) -> Cycle {
        let t0 = now + self.itlb.translate(addr);
        let line = self.l1i.line_addr(addr);
        let hit_latency = self.l1i.config().hit_latency;
        if self.l1i.lookup(line, false) {
            return t0 + hit_latency;
        }
        self.fill_l1(t0, addr, WhichL1::Instr) + hit_latency
    }

    /// Data load of the word at `addr`, requested at `now` (after address
    /// generation). Returns the cycle the data is available.
    ///
    /// Captures hit-under-miss (hits proceed while fills are in flight),
    /// MSHR merging, and MSHR exhaustion.
    pub fn dload(&mut self, now: Cycle, addr: u64) -> Cycle {
        let t0 = now + self.dtlb.translate(addr);
        let line = self.l1d.line_addr(addr);
        let hit_latency = self.l1d.config().hit_latency;
        // The MSHR check precedes the tag lookup: fills update tag state
        // eagerly in this latency-oracle model, so an in-flight line would
        // otherwise appear to hit before its data has arrived.
        if let Some(fill_done) = self.dmshr.merge(t0, line) {
            return fill_done.max(t0) + hit_latency;
        }
        if self.l1d.lookup(line, false) {
            return t0 + hit_latency;
        }
        let start = self.dmshr.allocate_at(t0);
        let fill_done = self.fill_l1(start, addr, WhichL1::Data);
        self.dmshr.insert(line, fill_done);
        fill_done + hit_latency
    }

    /// Attempts to retire a store at `now`: enters the write buffer and
    /// performs the (write-allocate) cache write in the background.
    ///
    /// Returns `None` when the write buffer is full — the caller must
    /// stall retirement and retry next cycle.
    pub fn retire_store(&mut self, now: Cycle, addr: u64) -> Option<Cycle> {
        if !self.wb.can_accept(now) {
            return None;
        }
        let t0 = now + self.dtlb.translate(addr);
        let line = self.l1d.line_addr(addr);
        let hit_latency = self.l1d.config().hit_latency;
        let done = if let Some(fill_done) = self.dmshr.merge(t0, line) {
            self.l1d.mark_dirty(line);
            fill_done.max(t0) + hit_latency
        } else if self.l1d.lookup(line, true) {
            t0 + hit_latency
        } else {
            let fill_done = self.fill_l1(t0, addr, WhichL1::Data);
            self.l1d.mark_dirty(line);
            fill_done + hit_latency
        };
        self.wb.push(done);
        Some(done)
    }

    /// Whether the data cache currently holds the line of `addr`
    /// (probe only; no state change).
    #[must_use]
    pub fn dcache_resident(&self, addr: u64) -> bool {
        self.l1d.probe(addr)
    }

    /// Aggregated statistics snapshot.
    #[must_use]
    pub fn stats(&mut self) -> MemSystemStats {
        MemSystemStats {
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            itlb_misses: self.itlb.misses(),
            dtlb_misses: self.dtlb.misses(),
            mshr_merges: self.dmshr.merges(),
            write_buffer_stalls: self.wb.full_stalls(),
            backside_busy: self.backside.busy_cycles(),
            membus_busy: self.membus.busy_cycles(),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum WhichL1 {
    Instr,
    Data,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemSystem {
        MemSystem::new(MemConfig::default())
    }

    #[test]
    fn load_hit_is_min_latency() {
        let mut m = sys();
        let _ = m.dload(0, 0x1000); // cold miss warms TLB + caches
        let t = m.dload(1000, 0x1000);
        assert_eq!(t, 1002, "2-cycle D$ hit");
    }

    #[test]
    fn cold_miss_goes_to_memory() {
        let mut m = sys();
        let t = m.dload(0, 0x1000);
        // TLB walk (30) + L2 lookup (6) + DRAM (80) + buses.
        assert!(t > 100, "cold miss should cost >100 cycles, got {t}");
    }

    #[test]
    fn l2_hit_cheaper_than_memory() {
        let mut m = sys();
        let cold = m.dload(0, 0x1000);
        // A different L1 line mapping to the same L2 line (L2 lines are
        // 64 B, L1 lines 32 B): 0x1020 misses L1, hits L2.
        let warm = m.dload(cold + 100, 0x1020) - (cold + 100);
        let cold_cost = cold; // from cycle 0
        assert!(warm < cold_cost / 2, "L2 hit {warm} vs cold {cold_cost}");
    }

    #[test]
    fn mshr_merge_shares_fill() {
        let mut m = sys();
        let t1 = m.dload(0, 0x1000);
        let t2 = m.dload(1, 0x1008); // same L1 line, fill in flight
        assert!(t2 <= t1 + 2, "merged access piggy-backs: {t2} vs {t1}");
        assert_eq!(m.stats().mshr_merges, 1);
    }

    #[test]
    fn hit_under_miss() {
        let mut m = sys();
        let _ = m.dload(0, 0x1000); // warm line A
        let miss = m.dload(100, 0x9000); // miss starts
        let hit = m.dload(101, 0x1000); // hit proceeds underneath
        assert!(hit < miss, "hit {hit} completes before miss {miss}");
    }

    #[test]
    fn ifetch_hits_after_warmup() {
        let mut m = sys();
        let _ = m.ifetch(0, 0x0);
        let t = m.ifetch(500, 0x8);
        assert_eq!(t, 501, "1-cycle I$ hit");
    }

    #[test]
    fn store_retire_uses_write_buffer() {
        let mut m = sys();
        let done = m.retire_store(0, 0x1000);
        assert!(done.is_some());
        // Immediately-following stores to a warm line accept quickly.
        let _ = m.retire_store(1, 0x1000).unwrap();
    }

    #[test]
    fn write_buffer_fills_up() {
        let mut m = MemSystem::new(MemConfig { write_buffer: 2, ..MemConfig::default() });
        // Two cold stores to distinct far-apart lines occupy the buffer
        // for the full miss latency.
        assert!(m.retire_store(0, 0x10000).is_some());
        assert!(m.retire_store(0, 0x20000).is_some());
        assert!(m.retire_store(1, 0x30000).is_none(), "buffer full");
        assert!(m.stats().write_buffer_stalls >= 1);
    }

    #[test]
    fn stats_populate() {
        let mut m = sys();
        let _ = m.dload(0, 0x1000);
        let _ = m.dload(200, 0x1000);
        let _ = m.ifetch(0, 0x40);
        let s = m.stats();
        assert_eq!(s.l1d.hits, 1);
        assert_eq!(s.l1d.misses, 1);
        assert_eq!(s.l1i.misses, 1);
        assert!(s.dtlb_misses >= 1);
        assert!(s.membus_busy > 0);
    }

    #[test]
    fn bus_contention_serialises_misses() {
        let mut m = sys();
        // Two concurrent cold misses to distinct lines contend on the
        // memory bus; the second finishes no earlier than the first.
        let t1 = m.dload(0, 0x40000);
        let t2 = m.dload(0, 0x80000);
        assert!(t2 >= t1);
    }
}
