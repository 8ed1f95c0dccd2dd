//! The simulator's architectural memory: a copy-on-write view over the
//! snapshot a machine booted from.
//!
//! A sweep boots every config arm of a benchmark from one warm-up
//! snapshot, and a measured interval stores to a handful of pages, so
//! copying the whole image into each machine would be most of a short
//! cell's boot (mcf's warmed image is 2 MiB). [`ArchMem`] instead reads
//! the snapshot's pages in place and copies a page into its own image
//! on the first retired store to it.

use rix_isa::arch::{PAGE_SHIFT, WORDS_PER_PAGE};
use rix_isa::{MemImage, PageCursor};
use std::cell::Cell;

/// Retired (architectural) memory: the pages of `own`, over those of
/// `base` where `own` has none.
pub(crate) struct ArchMem<'b> {
    /// The snapshot booted from, read in place.
    base: Option<&'b MemImage>,
    /// Every page stored to since boot (all of memory without a base).
    own: MemImage,
    /// The pages of `own` and `base` the last reads touched (`Cell`s so
    /// reads stay `&self`): one compare when a read stays on its page.
    own_cur: Cell<PageCursor>,
    base_cur: Cell<PageCursor>,
}

impl<'b> ArchMem<'b> {
    /// Memory that is `image` alone.
    pub(crate) fn new(image: MemImage) -> Self {
        Self { base: None, own: image, own_cur: Cell::default(), base_cur: Cell::default() }
    }

    /// Memory that reads as `base` until stored to.
    pub(crate) fn over(base: &'b MemImage) -> Self {
        Self { base: Some(base), ..Self::new(MemImage::new()) }
    }

    /// The naturally-aligned word containing `addr`.
    #[inline]
    pub(crate) fn read_word(&self, addr: u64) -> u64 {
        let mut cur = self.own_cur.get();
        let own = self.own.resident_word_with(addr, &mut cur);
        self.own_cur.set(cur);
        own.unwrap_or_else(|| {
            let mut cur = self.base_cur.get();
            let word = self.base.and_then(|b| b.resident_word_with(addr, &mut cur));
            self.base_cur.set(cur);
            word.unwrap_or(0)
        })
    }

    /// Writes the naturally-aligned word containing `addr`, first
    /// copying its page from the base when this is the page's first
    /// store.
    pub(crate) fn write_word(&mut self, addr: u64, value: u64) {
        let cur = self.own_cur.get_mut();
        if let (Some(base), None) = (self.base, self.own.resident_word_with(addr, cur)) {
            let first = addr & !((1 << PAGE_SHIFT) - 1);
            for w in (first..).step_by(8).take(WORDS_PER_PAGE) {
                self.own.write_word_with(w, base.read_word(w), cur);
            }
        }
        self.own.write_word_with(addr, value, cur);
    }

    /// The whole memory as one image.
    pub(crate) fn to_image(&self) -> MemImage {
        let Some(base) = self.base else { return self.own.clone() };
        let mut cur = PageCursor::default();
        let unshadowed = |&(a, _): &(u64, u64)| self.own.resident_word_with(a, &mut cur).is_none();
        base.words().filter(unshadowed).chain(self.own.words()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// A view over a base reads and writes as a private copy of the
        /// base would, including stores of zero over a base's non-zero
        /// words.
        #[test]
        fn view_matches_a_private_copy(
            seed in proptest::collection::vec((0u64..6, 0u64..8, any::<u64>()), 0..40),
            ops in proptest::collection::vec((0u64..8, 0u64..8, 0u64..3, any::<bool>()), 1..200),
        ) {
            let addr = |page: u64, word: u64| (page << PAGE_SHIFT) | word << 3;
            let base: MemImage = seed.iter().map(|&(p, w, v)| (addr(p, w), v)).collect();
            let (mut copy, mut view) = (base.clone(), ArchMem::over(&base));
            for &(p, w, v, write) in &ops {
                let a = addr(p, w);
                if write {
                    copy.write_word(a, v);
                    view.write_word(a, v);
                }
                prop_assert_eq!(view.read_word(a | 3), copy.read_word(a));
            }
            prop_assert!(view.to_image() == copy);
            prop_assert_eq!(view.to_image().words().collect::<Vec<_>>(), copy.words().collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_view_without_base_is_its_image() {
        let mut m = ArchMem::new([(0x1000, 7)].into_iter().collect());
        m.write_word(0x2000, 9);
        assert_eq!((m.read_word(0x1000), m.read_word(0x2000), m.read_word(0x3000)), (7, 9, 0));
        assert!(m.to_image() == [(0x1000, 7), (0x2000, 9)].into_iter().collect());
    }
}
