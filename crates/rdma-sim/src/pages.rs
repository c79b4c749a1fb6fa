//! Sparse page tables: an array of `T` stored in fixed-size pages that are
//! materialized only when first written.
//!
//! Registered memory ([`crate::fabric`]) and the race detector's shadow
//! cells ([`crate::tsan`]) both cover large address ranges of which a run
//! touches a small part. A page that was never written is not allocated
//! and reads as the table's fill value (zero bytes, or the detector's
//! initial cell), so memory use follows what the run writes rather than
//! what it registers.

/// A sparse array of `T` in pages of `N` elements. The table's length is
/// a count of page slots; growing it allocates no page.
pub(crate) struct PageTable<T, const N: usize> {
    pages: Vec<Option<Box<[T; N]>>>,
    resident: usize,
}

impl<T: Clone, const N: usize> PageTable<T, N> {
    pub(crate) const fn new() -> Self {
        PageTable {
            pages: Vec::new(),
            resident: 0,
        }
    }

    /// Extends the table so it covers elements `0..len`, without
    /// allocating any page.
    pub(crate) fn cover(&mut self, len: usize) {
        let n = len.div_ceil(N);
        if self.pages.len() < n {
            self.pages.resize_with(n, || None);
        }
    }

    /// Page `i`, or `None` if it was never written (or lies past the end).
    #[inline]
    pub(crate) fn page(&self, i: usize) -> Option<&[T; N]> {
        self.pages.get(i).and_then(|p| p.as_deref())
    }

    /// Page `i` for writing, materialized as `N` copies of `fill` on first
    /// use. Grows the table if `i` lies past its end.
    #[inline]
    pub(crate) fn page_mut(&mut self, i: usize, fill: &T) -> &mut [T; N] {
        if i >= self.pages.len() {
            self.cover((i + 1) * N);
        }
        let slot = &mut self.pages[i];
        if slot.is_none() {
            self.resident += 1;
        }
        slot.get_or_insert_with(|| {
            vec![fill.clone(); N]
                .into_boxed_slice()
                .try_into()
                .unwrap_or_else(|_| unreachable!("vec of N elements"))
        })
    }

    /// Element `idx`, or `None` if its page was never written.
    #[inline]
    pub(crate) fn get(&self, idx: usize) -> Option<&T> {
        self.page(idx / N).map(|p| &p[idx % N])
    }

    /// Element `idx` for writing, materializing its page from `fill`.
    #[inline]
    pub(crate) fn get_mut(&mut self, idx: usize, fill: &T) -> &mut T {
        &mut self.page_mut(idx / N, fill)[idx % N]
    }

    /// Whether page `i` holds data.
    #[inline]
    pub(crate) fn is_resident(&self, i: usize) -> bool {
        self.page(i).is_some()
    }

    /// Number of materialized pages.
    pub(crate) fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Frees every page; the table keeps its length.
    pub(crate) fn clear(&mut self) {
        self.pages.iter_mut().for_each(|p| *p = None);
        self.resident = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_materialize_on_first_write_only() {
        let mut t: PageTable<u32, 4> = PageTable::new();
        t.cover(10);
        assert_eq!(t.resident_pages(), 0);
        assert_eq!(t.get(9), None);
        *t.get_mut(5, &7) = 1;
        assert_eq!(t.resident_pages(), 1);
        // The rest of the page holds the fill value.
        assert_eq!(t.page(1), Some(&[7, 1, 7, 7]));
        assert!(!t.is_resident(0) && t.is_resident(1));
        // Writing past the covered range grows the table.
        *t.get_mut(40, &0) = 3;
        assert_eq!(t.get(40), Some(&3));
        assert_eq!(t.resident_pages(), 2);
        t.clear();
        assert_eq!(t.resident_pages(), 0);
        assert_eq!(t.get(5), None);
    }
}
