//! Compressed-sparse-row storage for per-pair link sets.
//!
//! Both all-pairs routing tables ([`crate::distance::DistanceMap`]'s
//! productive links and [`crate::updown::UpDownRouting`]'s legal next
//! hops) map a `(cur, dest)` pair to a short list of output links. Storing
//! each list as its own heap `Vec` costs one allocation and a 24-byte
//! header per pair — 2·n² allocations for an n-router up*/down* table.
//! [`LinkCsr`] keeps every list in one flat buffer plus an offset array,
//! so a lookup is two loads into contiguous memory.

use crate::LinkId;

/// Per-row link sets in CSR form: row `r` is `links[off[r] .. off[r + 1]]`.
///
/// Rows are appended in index order, each by extending the link buffer
/// and then closing the row with [`LinkCsr::end_row`].
#[derive(Clone, Debug)]
pub(crate) struct LinkCsr {
    off: Vec<u32>,
    links: Vec<LinkId>,
}

impl LinkCsr {
    /// An empty table with room for `rows` rows and at least one link per
    /// row (every reachable pair of a connected topology has one).
    pub(crate) fn with_rows(rows: usize) -> Self {
        let mut off = Vec::with_capacity(rows + 1);
        off.push(0);
        LinkCsr {
            off,
            links: Vec::with_capacity(rows),
        }
    }

    /// Appends `l` to the row being built.
    #[inline]
    pub(crate) fn push(&mut self, l: LinkId) {
        self.links.push(l);
    }

    /// Closes the row being built; the next [`LinkCsr::push`] starts a new
    /// row.
    ///
    /// # Panics
    ///
    /// Panics if the table would exceed `u32::MAX` links.
    #[inline]
    pub(crate) fn end_row(&mut self) {
        let end = u32::try_from(self.links.len()).expect("CSR link table exceeds u32 offsets");
        self.off.push(end);
    }

    /// The links of row `r`.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &[LinkId] {
        &self.links[self.off[r] as usize..self.off[r + 1] as usize]
    }

    /// Number of links in row `r`.
    #[inline]
    pub(crate) fn row_len(&self, r: usize) -> usize {
        (self.off[r + 1] - self.off[r]) as usize
    }
}
