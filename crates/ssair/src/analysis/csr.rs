//! Compressed sparse rows: a table of short lists stored as one offset
//! array plus one item array, so building a table costs two allocations
//! however many rows it has.

/// Row `r` holds `items[at[r]..at[r + 1]]`.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Csr<T> {
    at: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// Builds `rows` rows from `(row, item)` pairs; each row keeps its
    /// items in pair order. `pairs` is called twice (count, then fill) and
    /// must yield the same sequence both times; `fill` only initialises
    /// the item array.
    pub(crate) fn from_pairs<I>(rows: usize, fill: T, pairs: impl Fn() -> I) -> Csr<T>
    where
        I: Iterator<Item = (usize, T)>,
    {
        // Counts go two slots up, so that after the prefix sum `at[r + 1]`
        // is row `r`'s start: filling advances it to row `r`'s end, which
        // is row `r + 1`'s start.
        let mut at = vec![0u32; rows + 2];
        for (r, _) in pairs() {
            at[r + 2] += 1;
        }
        for k in 1..at.len() {
            at[k] += at[k - 1];
        }
        let mut items = vec![fill; at[rows + 1] as usize];
        for (r, item) in pairs() {
            let slot = &mut at[r + 1];
            items[*slot as usize] = item;
            *slot += 1;
        }
        at.pop();
        Csr { at, items }
    }

    /// Builds the rows in order, each from its own list.
    pub(crate) fn from_rows<'a>(rows: impl Iterator<Item = &'a [T]>) -> Csr<T>
    where
        T: 'a,
    {
        let hint = rows.size_hint().0;
        let mut at = Vec::with_capacity(hint + 1);
        let mut items = Vec::with_capacity(2 * hint);
        at.push(0);
        for row in rows {
            items.extend_from_slice(row);
            at.push(u32::try_from(items.len()).expect("fewer than 2^32 items"));
        }
        Csr { at, items }
    }

    /// The items of row `r`.
    pub(crate) fn row(&self, r: usize) -> &[T] {
        &self.items[self.at[r] as usize..self.at[r + 1] as usize]
    }

    /// The number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.at.len() - 1
    }
}
