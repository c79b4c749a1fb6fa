//! Sparse page tables: an array of `T` stored in fixed-size pages that are
//! materialized only when first written.
//!
//! Registered memory ([`crate::fabric`]) and the race detector's shadow
//! cells ([`crate::tsan`]) both cover large address ranges of which a run
//! touches a small part. A page that was never written is not allocated
//! and reads as the table's fill value (zero bytes, or the detector's
//! initial cell), so memory use follows what the run writes rather than
//! what it registers.
//!
//! Pages are reference-counted and copied on write: cloning a table shares
//! every page with the clone, and the first write through either table to
//! a shared page copies that page. Replicas that start from one image
//! ([`crate::Node::fork_from`]) therefore pay host memory only for the pages
//! they go on to write.

use std::sync::Arc;

/// A sparse array of `T` in pages of `N` elements. The table's length is
/// a count of page slots; growing it allocates no page.
#[derive(Clone)]
pub(crate) struct PageTable<T, const N: usize> {
    pages: Vec<Option<Arc<[T; N]>>>,
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
    /// use and copied first if another table shares it. Grows the table if
    /// `i` lies past its end.
    #[inline]
    pub(crate) fn page_mut(&mut self, i: usize, fill: &T) -> &mut [T; N] {
        if i >= self.pages.len() {
            self.cover((i + 1) * N);
        }
        let slot = &mut self.pages[i];
        if slot.is_none() {
            self.resident += 1;
        }
        Arc::make_mut(slot.get_or_insert_with(|| {
            // Collected straight into the `Arc`'s allocation: the iterator
            // has an exact length, so no intermediate buffer is built.
            Arc::<[T]>::from_iter(std::iter::repeat_n(fill.clone(), N))
                .try_into()
                .unwrap_or_else(|_| unreachable!("N elements"))
        }))
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

    /// Number of materialized pages this table maps, shared or private.
    pub(crate) fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Addresses of the materialized pages, for counting pages shared
    /// between tables once.
    pub(crate) fn page_addrs(&self) -> impl Iterator<Item = usize> + '_ {
        self.pages.iter().flatten().map(|p| Arc::as_ptr(p) as usize)
    }

    /// Maps `other`'s pages from page `first` onward into this table,
    /// sharing them until either side writes. This table must hold no
    /// page there.
    pub(crate) fn share_from(&mut self, other: &Self, first: usize) {
        self.cover(other.pages.len() * N);
        for (i, page) in other.pages.iter().enumerate().skip(first) {
            assert!(self.pages[i].is_none(), "page {i} is already resident");
            if let Some(page) = page {
                self.pages[i] = Some(Arc::clone(page));
                self.resident += 1;
            }
        }
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

    #[test]
    fn a_cloned_table_shares_pages_until_either_side_writes() {
        let mut a: PageTable<u32, 4> = PageTable::new();
        *a.get_mut(1, &0) = 1;
        *a.get_mut(5, &0) = 5;
        let mut b = a.clone();
        assert_eq!(b.resident_pages(), 2);
        let distinct = |t: &[&PageTable<u32, 4>]| {
            let mut addrs: Vec<usize> = t.iter().flat_map(|t| t.page_addrs()).collect();
            addrs.sort_unstable();
            addrs.dedup();
            addrs.len()
        };
        assert_eq!(distinct(&[&a, &b]), 2, "the clone copies no page");
        // A write through the clone copies only the page it hits...
        *b.get_mut(1, &0) = 10;
        assert_eq!((a.get(1), b.get(1)), (Some(&1), Some(&10)));
        assert_eq!(distinct(&[&a, &b]), 3);
        // ...and so does a write through the original.
        *a.get_mut(5, &0) = 50;
        assert_eq!((a.get(5), b.get(5)), (Some(&50), Some(&5)));
        assert_eq!(distinct(&[&a, &b]), 4);
        // A page the other side no longer shares is written in place.
        *a.get_mut(5, &0) = 51;
        assert_eq!(distinct(&[&a, &b]), 4);
        // Clearing one side drops only its own references.
        b.clear();
        assert_eq!((a.get(1), a.get(5)), (Some(&1), Some(&51)));
        assert_eq!(b.get(1), None);
    }

    #[test]
    fn share_from_maps_pages_from_the_first_index_on() {
        let mut a: PageTable<u8, 4> = PageTable::new();
        for i in [0, 4, 8] {
            *a.get_mut(i, &0) = i as u8 + 1;
        }
        let mut b: PageTable<u8, 4> = PageTable::new();
        b.share_from(&a, 1);
        assert_eq!(b.resident_pages(), 2);
        assert_eq!((b.get(0), b.get(4), b.get(8)), (None, Some(&5), Some(&9)));
        *b.get_mut(4, &0) = 0;
        assert_eq!(a.get(4), Some(&5));
    }
}
