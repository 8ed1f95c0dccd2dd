//! Architectural state: the portable truth shared by every execution
//! engine.
//!
//! [`ArchState`] is the complete architectural snapshot of a program at a
//! retirement boundary — program counter, the 64 logical registers, the
//! memory image, and the retired-instruction position. The reference
//! interpreter ([`crate::interp::Interp`]) steps one;
//! the out-of-order simulator retires into one and can boot from one
//! mid-program (`Simulator::from_arch_state`); checkpoints serialise one
//! to disk; and the sweep layer forks one warm-up across config arms.
//!
//! Two engines agree architecturally **iff** their `ArchState`s compare
//! equal — equality covers the memory image word-for-word, not just the
//! registers.
//!
//! [`MemImage`] is the workspace's one sparse page table: the
//! interpreter loads and stores through it, and the simulator keeps its
//! architectural memory in one (reading a warm-up snapshot's image in
//! place until it first stores to a page), so a snapshot moves between
//! engines without conversion.
//!
//! ```
//! use rix_isa::{ArchState, Asm, reg};
//! use rix_isa::interp::Interp;
//!
//! let mut a = Asm::new();
//! a.addq_i(reg::R1, reg::ZERO, 7);
//! a.halt();
//! let p = a.assemble()?;
//! let mut i = Interp::new(&p, 0x8000);
//! let state: ArchState = i.fast_forward(1); // run 1 instruction
//! assert_eq!(state.reg(reg::R1), 7);
//! assert_eq!(state.retired, 1);
//! // The snapshot round-trips through its hand-rolled JSON form.
//! assert_eq!(ArchState::from_json(&state.to_json())?, state);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::json::Json;
use crate::program::Program;
use crate::reg::{LogReg, NUM_LOG_REGS, SP};
use crate::{DataAddr, InstAddr};

/// Words per 4 KB page.
pub const WORDS_PER_PAGE: usize = 512;
/// Page number = byte address >> this.
pub const PAGE_SHIFT: u32 = 12;

/// Fibonacci multiplicative hash constant (2^64 / φ).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// A sparse, page-granular memory image of 64-bit words. Uninitialised
/// words read as zero; two images are equal **iff** every word reads
/// equal (an explicitly written zero is indistinguishable from an
/// untouched word, so equality and serialisation consider non-zero
/// words only).
///
/// Every functional load and store touches it, so pages live in one
/// dense vector behind an open-addressed, linearly-probed index, and hot
/// loops front it with a [`PageCursor`]: one compare when an access
/// stays on the last page. The pages are stored inline in that vector,
/// not boxed one by one: a large image is one allocation, returned whole
/// when dropped, so the warm-up states a sweep keeps do not fragment the
/// heap. [`MemImage::words`] sorts the page numbers, so equality and the
/// serialised form do not depend on write order.
///
/// ```
/// use rix_isa::{MemImage, PageCursor};
/// let mut m = MemImage::new();
/// let mut cur = PageCursor::default();
/// m.write_word_with(0x1000, 42, &mut cur);
/// assert_eq!(m.resident_word_with(0x1000, &mut cur), Some(42));
/// assert_eq!(m.resident_word_with(0x2000, &mut cur), None);
/// assert_eq!(m.read_word(0x2000), 0);
/// ```
#[derive(Clone, Debug)]
pub struct MemImage {
    /// Dense page storage; `keys[i]` is the page number of `pages[i]`.
    pages: Vec<[u64; WORDS_PER_PAGE]>,
    keys: Vec<u64>,
    /// Open-addressed page table: slot → dense index + 1, 0 = empty.
    /// Length is a power of two, load factor kept below ~0.7.
    index: Vec<u32>,
}

/// The last page a [`MemImage`] access touched (page number, dense
/// index). It belongs to one image and stays valid in its clones (pages
/// are never removed or renumbered). The caller keeps it, so the image
/// stays `Sync` for the threads of a sweep that share warm-up states.
#[derive(Clone, Copy, Debug)]
pub struct PageCursor {
    page: u64,
    dense: u32,
}

impl Default for PageCursor {
    fn default() -> Self {
        // No page: page numbers are `addr >> 12`.
        Self { page: u64::MAX, dense: 0 }
    }
}

impl Default for MemImage {
    fn default() -> Self {
        Self { pages: Vec::new(), keys: Vec::new(), index: vec![0; 64] }
    }
}

impl MemImage {
    /// An empty (all-zero) image.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Where `page` is: `Ok(dense index)` when resident, otherwise
    /// `Err(the empty slot that ends its probe chain)`.
    #[inline]
    fn probe(&self, page: u64) -> Result<u32, usize> {
        let mask = self.index.len() - 1;
        let mut slot = ((page.wrapping_mul(HASH_MUL) >> 32) as usize) & mask;
        loop {
            match self.index[slot] {
                0 => return Err(slot),
                e if self.keys[e as usize - 1] == page => return Ok(e - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Allocates a zero page for the absent `page`, doubling the index
    /// (and re-placing every page) when its load would pass ~0.7.
    fn insert_page(&mut self, page: u64) -> u32 {
        let grow = (self.keys.len() + 1) * 10 > self.index.len() * 7;
        if grow {
            self.index = vec![0; self.index.len() * 2];
        }
        self.pages.push([0; WORDS_PER_PAGE]);
        self.keys.push(page);
        let added = self.keys.len() - 1;
        for di in if grow { 0 } else { added }..=added {
            if let Err(slot) = self.probe(self.keys[di]) {
                self.index[slot] = di as u32 + 1;
            }
        }
        added as u32
    }

    /// Reads the naturally-aligned word containing `addr`.
    #[must_use]
    pub fn read_word(&self, addr: DataAddr) -> u64 {
        self.resident_word_with(addr, &mut PageCursor::default()).unwrap_or(0)
    }

    /// Writes the naturally-aligned word containing `addr`.
    pub fn write_word(&mut self, addr: DataAddr, value: u64) {
        self.write_word_with(addr, value, &mut PageCursor::default());
    }

    /// [`MemImage::read_word`] through `cur`, this image's cursor (one
    /// compare when `addr` is on the page it last touched), but `None`
    /// when the page holding `addr` is not resident, which tells an
    /// untouched word from a stored zero.
    #[must_use]
    #[inline]
    pub fn resident_word_with(&self, addr: DataAddr, cur: &mut PageCursor) -> Option<u64> {
        let page = addr >> PAGE_SHIFT;
        let idx = ((addr >> 3) as usize) & (WORDS_PER_PAGE - 1);
        if cur.page != page {
            *cur = PageCursor { page, dense: self.probe(page).ok()? };
        }
        Some(self.pages[cur.dense as usize][idx])
    }

    /// [`MemImage::write_word`] through `cur`, this image's cursor.
    #[inline]
    pub fn write_word_with(&mut self, addr: DataAddr, value: u64, cur: &mut PageCursor) {
        let page = addr >> PAGE_SHIFT;
        let idx = ((addr >> 3) as usize) & (WORDS_PER_PAGE - 1);
        if cur.page != page {
            let dense = self.probe(page).unwrap_or_else(|_| self.insert_page(page));
            *cur = PageCursor { page, dense };
        }
        self.pages[cur.dense as usize][idx] = value;
    }

    /// Seeds the image from an assembled program's data segments.
    pub fn load_segments(&mut self, segments: &[crate::program::DataSegment]) {
        let mut cur = PageCursor::default();
        for seg in segments {
            for (i, &w) in seg.words.iter().enumerate() {
                self.write_word_with(seg.base + 8 * i as u64, w, &mut cur);
            }
        }
    }

    /// Iterates the non-zero words as `(byte address, word)`, in
    /// ascending address order.
    pub fn words(&self) -> impl Iterator<Item = (DataAddr, u64)> + '_ {
        let mut order: Vec<usize> = (0..self.keys.len()).collect();
        order.sort_unstable_by_key(|&di| self.keys[di]);
        order.into_iter().flat_map(move |di| {
            let page = self.keys[di];
            self.pages[di]
                .iter()
                .enumerate()
                .filter(|&(_, &w)| w != 0)
                .map(move |(i, &w)| ((page << PAGE_SHIFT) | (i as u64) << 3, w))
        })
    }

    /// Number of resident pages (all-zero pages may count).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

impl PartialEq for MemImage {
    fn eq(&self, other: &Self) -> bool {
        // Word-for-word over the non-zero words: resident-but-zero pages
        // (a zero stored over a fresh page) must not break equality.
        self.words().eq(other.words())
    }
}

impl Eq for MemImage {}

impl FromIterator<(DataAddr, u64)> for MemImage {
    fn from_iter<T: IntoIterator<Item = (DataAddr, u64)>>(iter: T) -> Self {
        let (mut img, mut cur) = (Self::new(), PageCursor::default());
        for (addr, word) in iter {
            img.write_word_with(addr, word, &mut cur);
        }
        img
    }
}

/// A complete architectural snapshot at a retirement boundary.
///
/// See the [module docs](self) for the role this plays across the
/// workspace. Serialises with [`ArchState::to_json`] /
/// [`ArchState::from_json`] (hand-rolled, dependency-free, exact-`u64`
/// round trip).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArchState {
    /// The next instruction to execute (for a halted state: the
    /// instruction after the `halt`).
    pub pc: InstAddr,
    /// The 64 logical registers, by flat index.
    pub regs: [u64; NUM_LOG_REGS],
    /// Instructions retired to reach this state, counted from program
    /// entry.
    pub retired: u64,
    /// Whether a `halt` has retired.
    pub halted: bool,
    /// The memory image (initial data segments plus every retired
    /// store).
    pub mem: MemImage,
}

impl ArchState {
    /// The state of `program` before any instruction executes: PC at the
    /// entry point, registers zero except the stack pointer, memory
    /// seeded from the data segments.
    #[must_use]
    pub fn initial(program: &Program, stack_top: u64) -> Self {
        let mut regs = [0u64; NUM_LOG_REGS];
        regs[SP.index()] = stack_top;
        let mut mem = MemImage::new();
        mem.load_segments(program.data_segments());
        Self { pc: program.entry(), regs, retired: 0, halted: false, mem }
    }

    /// Register value by name.
    #[must_use]
    pub fn reg(&self, r: LogReg) -> u64 {
        self.regs[r.index()]
    }

    /// Memory word containing `addr` (zero when untouched).
    #[must_use]
    pub fn mem_word(&self, addr: DataAddr) -> u64 {
        self.mem.read_word(addr)
    }

    /// Serialises the snapshot as a JSON object: scalars, the full
    /// register file, and the non-zero memory words as `[address, word]`
    /// pairs in ascending address order (so equal states serialise to
    /// identical bytes).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            r#"{{"pc":{},"retired":{},"halted":{},"regs":["#,
            self.pc, self.retired, self.halted
        );
        for (i, r) in self.regs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{r}");
        }
        out.push_str("],\"mem\":[");
        for (i, (addr, word)) in self.mem.words().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{addr},{word}]");
        }
        out.push_str("]}");
        out
    }

    /// Parses a snapshot serialised by [`ArchState::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        Self::from_json_value(&Json::parse(text)?)
    }

    /// Reads a snapshot out of an already-parsed [`Json`] value (e.g. a
    /// field of an enclosing document, like a checkpoint's `"arch"`).
    pub fn from_json_value(v: &Json) -> Result<Self, String> {
        let pc = v.req_u64("pc")?;
        let retired = v.req_u64("retired")?;
        let halted = v
            .req("halted")?
            .as_bool()
            .ok_or_else(|| "key `halted` is not a bool".to_string())?;
        let regs_json = v
            .req("regs")?
            .as_arr()
            .ok_or_else(|| "key `regs` is not an array".to_string())?;
        if regs_json.len() != NUM_LOG_REGS {
            return Err(format!("expected {NUM_LOG_REGS} registers, got {}", regs_json.len()));
        }
        let mut regs = [0u64; NUM_LOG_REGS];
        for (i, r) in regs_json.iter().enumerate() {
            regs[i] = r.as_u64().ok_or_else(|| format!("register {i} is not a u64"))?;
        }
        let mut mem = MemImage::new();
        for (i, cell) in v
            .req("mem")?
            .as_arr()
            .ok_or_else(|| "key `mem` is not an array".to_string())?
            .iter()
            .enumerate()
        {
            let pair = cell.as_arr().filter(|p| p.len() == 2);
            let (addr, word) = pair
                .and_then(|p| Some((p[0].as_u64()?, p[1].as_u64()?)))
                .ok_or_else(|| format!("mem entry {i} is not an [address, word] pair"))?;
            mem.write_word(addr, word);
        }
        Ok(Self { pc, regs, retired, halted, mem })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::reg;

    use proptest::prelude::*;
    use std::collections::BTreeMap;

    // Prepared rows share warm-up states across sweep threads.
    const _: () = {
        const fn send_sync<T: Send + Sync>() {}
        send_sync::<MemImage>();
        send_sync::<ArchState>();
    };

    #[test]
    fn image_zero_fill_and_roundtrip() {
        let mut m = MemImage::new();
        assert_eq!(m.read_word(0), 0);
        assert_eq!(m.read_word(!7), 0);
        m.write_word(0x1000, 42);
        m.write_word(0x0ff8, 7);
        assert_eq!(m.read_word(0x1000), 42);
        assert_eq!(m.read_word(0x1004), 42, "word-aligned access");
        assert_eq!(m.resident_pages(), 2, "cross-page writes land on two pages");
        let words: Vec<_> = m.words().collect();
        assert_eq!(words, vec![(0x0ff8, 7), (0x1000, 42)], "ascending address order");
    }

    #[test]
    fn image_equality_ignores_explicit_zeros() {
        let mut a = MemImage::new();
        let b = MemImage::new();
        a.write_word(0x9000, 0); // resident page, all-zero
        assert_eq!(a, b);
        a.write_word(0x9000, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn image_from_iterator_and_segments() {
        let img: MemImage = vec![(0x2000u64, 5u64), (0x2008, 6)].into_iter().collect();
        assert_eq!(img.read_word(0x2008), 6);
        assert_eq!(img.resident_pages(), 1);
        let mut seg = MemImage::new();
        seg.load_segments(&[crate::program::DataSegment { base: 0x2000, words: vec![5, 6] }]);
        assert_eq!(seg, img);
    }

    #[test]
    fn many_pages_survive_index_growth() {
        // Enough pages to force several open-addressed table doublings,
        // with strided page numbers to exercise probe collisions.
        let mut m = MemImage::new();
        for i in 0..500u64 {
            m.write_word(i * 0x1000 * 64, i + 1);
        }
        assert_eq!(m.resident_pages(), 500);
        for i in 0..500u64 {
            assert_eq!(m.read_word(i * 0x1000 * 64), i + 1, "page {i}");
            assert_eq!(m.read_word(i * 0x1000 * 64 + 8), 0);
        }
    }

    #[test]
    fn cursor_follows_its_image_into_a_clone() {
        let mut a = MemImage::new();
        let mut cur = PageCursor::default();
        a.write_word_with(0x1000, 7, &mut cur);
        let mut b = a.clone();
        let mut b_cur = cur;
        b.write_word_with(0x1000, 8, &mut b_cur);
        assert_eq!(a.resident_word_with(0x1000, &mut cur), Some(7));
        assert_eq!(b.resident_word_with(0x1000, &mut b_cur), Some(8));
        // A cursor stays valid while its image grows around it.
        for p in 0..100u64 {
            a.write_word_with(p << PAGE_SHIFT, p, &mut PageCursor::default());
        }
        assert_eq!(a.resident_word_with(0x1000, &mut cur), Some(1), "page 1 was rewritten to 1");
    }

    /// A random access stream: (page, word slot, value, is-write). Pages
    /// are drawn from a spread-out set so the index doubles several
    /// times and probe chains collide.
    fn accesses() -> impl Strategy<Value = Vec<(u64, u64, u64, bool)>> {
        proptest::collection::vec(
            (0u64..300, 0u64..WORDS_PER_PAGE as u64, 0u64..4, 0u8..4)
                .prop_map(|(p, w, v, k)| (p * 0x9_0001, w, v * 0x1_0000_0001, k != 0)),
            1..2_000,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// `MemImage` behaves as a `BTreeMap` of words, through cursors
        /// and without, and its iteration, serialisation and equality
        /// do not depend on the order pages were first written.
        #[test]
        fn image_matches_a_btreemap_model(ops in accesses()) {
            let mut img = MemImage::new();
            let mut model = BTreeMap::new();
            let mut cur = PageCursor::default();
            for (k, &(page, word, value, write)) in ops.iter().enumerate() {
                let addr = (page << PAGE_SHIFT) | word << 3;
                let want = model.get(&addr).copied().unwrap_or(0);
                if write {
                    if k % 2 == 0 {
                        img.write_word_with(addr, value, &mut cur);
                    } else {
                        img.write_word(addr, value);
                    }
                    model.insert(addr, value);
                } else if k % 2 == 0 {
                    prop_assert_eq!(img.resident_word_with(addr | 5, &mut cur).unwrap_or(0), want);
                } else {
                    prop_assert_eq!(img.read_word(addr), want);
                }
            }
            let nonzero: Vec<_> = model.iter().filter(|(_, &w)| w != 0).map(|(&a, &w)| (a, w)).collect();
            prop_assert_eq!(img.words().collect::<Vec<_>>(), nonzero.clone());

            // The same final contents, written in reverse page order
            // with the zero words left out: equal, and the same bytes.
            let reversed: MemImage = nonzero.iter().rev().copied().collect();
            prop_assert!(reversed == img);
            let mut a = ArchState { pc: 0, regs: [0; NUM_LOG_REGS], retired: 0, halted: false, mem: img };
            let b = ArchState { mem: reversed, ..a.clone() };
            prop_assert_eq!(a.to_json(), b.to_json());
            prop_assert_eq!(ArchState::from_json(&a.to_json()).map_err(TestCaseError::fail)?, b.clone());

            // A zero-filled resident page is an absent one.
            a.mem.write_word(0x7_7777_7000, 0);
            prop_assert!(a == b);
        }

        #[test]
        fn write_read_roundtrip(addr in any::<u64>(), val in any::<u64>()) {
            let addr = addr & !7;
            let mut m = MemImage::new();
            m.write_word(addr, val);
            prop_assert_eq!(m.read_word(addr), val);
        }

        #[test]
        fn distinct_words_independent(a in any::<u64>(), b in any::<u64>(), va in any::<u64>(), vb in any::<u64>()) {
            let (a, b) = (a & !7, b & !7);
            prop_assume!(a != b);
            let mut m = MemImage::new();
            let mut cur = PageCursor::default();
            m.write_word_with(a, va, &mut cur);
            m.write_word_with(b, vb, &mut cur);
            prop_assert_eq!(m.resident_word_with(a, &mut cur), Some(va));
            prop_assert_eq!(m.read_word(b), vb);
        }
    }

    #[test]
    fn initial_state_seeds_sp_and_segments() {
        let mut a = Asm::new();
        a.data(0x3000, vec![11, 12]);
        a.halt();
        let p = a.assemble().unwrap();
        let s = ArchState::initial(&p, 0x8000);
        assert_eq!(s.pc, p.entry());
        assert_eq!(s.reg(reg::SP), 0x8000);
        assert_eq!(s.reg(reg::R1), 0);
        assert_eq!(s.mem_word(0x3008), 12);
        assert_eq!(s.retired, 0);
        assert!(!s.halted);
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let mut a = Asm::new();
        a.halt();
        let p = a.assemble().unwrap();
        let mut s = ArchState::initial(&p, 0x0800_0000);
        s.regs[5] = u64::MAX;
        s.regs[63] = 0x8000_0000_0000_0001;
        s.mem.write_word(0xffff_ffff_ffff_f000, u64::MAX - 1);
        s.retired = 123_456;
        s.halted = true;
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        let back = ArchState::from_json(&j).expect("parses");
        assert_eq!(back, s);
        assert_eq!(back.to_json(), j, "canonical form is stable");
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(ArchState::from_json("{}").is_err());
        assert!(ArchState::from_json(r#"{"pc":0,"retired":0,"halted":true,"regs":[1],"mem":[]}"#)
            .unwrap_err()
            .contains("64 registers"));
        let mut asm = Asm::new();
        asm.halt();
        let mut ok = ArchState::initial(&asm.assemble().unwrap(), 0).to_json();
        ok.truncate(ok.len() - 1);
        assert!(ArchState::from_json(&ok).is_err());
    }
}
