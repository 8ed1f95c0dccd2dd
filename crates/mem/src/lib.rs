//! # rix-mem: the memory hierarchy
//!
//! A cycle-level model of the aggressive memory system from §3.1 of the
//! paper:
//!
//! * 64 KB / 32 B / 2-way instruction cache,
//! * 32 KB / 32 B / 2-way, 2-cycle, write-back, non-blocking data cache
//!   with 16 MSHRs and a 16-entry retirement write buffer,
//! * 2 MB / 64 B / 4-way, 6-cycle unified L2,
//! * infinite main memory at 80 cycles,
//! * a 32-byte backside bus at core frequency and a 32-byte memory bus at
//!   one-quarter core frequency, both modelled at cycle granularity,
//! * 64-entry 4-way I-TLB and 128-entry 4-way D-TLB with a 30-cycle
//!   hardware-walked miss.
//!
//! The model is a *latency oracle*: every access updates the cache/TLB/bus
//! state immediately and returns the cycle at which its data is available.
//! This captures hit-under-miss, MSHR merging and bus contention without
//! an event queue, which keeps the out-of-order core simple.
//!
//! The caches model timing only. Memory *values* live in the
//! architectural [`rix_isa::MemImage`] the simulator retires into; the
//! split mirrors how execute-driven simulators like SimpleScalar keep
//! functional and timing state separate.

pub mod bus;
pub mod cache;
pub mod mshr;
pub mod system;
pub mod tlb;
pub mod writebuf;

pub use bus::Bus;
pub use cache::{Cache, CacheConfig, CacheStats};
pub use mshr::MshrFile;
pub use system::{MemConfig, MemSystem, MemSystemStats};
pub use tlb::Tlb;
pub use writebuf::WriteBuffer;

/// A machine cycle count.
pub type Cycle = u64;
