//! Per-line coherence state in a paged table indexed by line number.
//!
//! The traced address space is dense (`channels × grids × 2` bytes of
//! cost array, about 900 lines for bnrE at 8-byte lines), so the table
//! holds the first page of lines itself: a reference below line 4096
//! finds its line with a shift and one bounds-checked index. Lines above
//! it live in pages allocated on first touch through a two-level
//! directory, so a stray address at the top of the 32-bit space costs one
//! page and a small directory node rather than a table sized to reach it.

/// Per-line snoop/directory entry. Caches are infinite, so presence bits
/// are never evicted.
#[derive(Clone, Copy, Default)]
pub(crate) struct LineState {
    /// Bitmask of processors holding a valid copy.
    pub holders: u64,
    /// Processors whose copy was invalidated and not yet refetched.
    pub invalidated: u64,
    /// Processor holding the line dirty (exclusive), if any.
    pub dirty: Option<u32>,
}

/// Lines per page: `2^12 × 24` bytes = 96 KiB.
const PAGE_BITS: u32 = 12;
/// Fan-out of each of the two directory levels above the pages;
/// `2 × NODE_BITS + PAGE_BITS` covers every 32-bit line number.
const NODE_BITS: u32 = 10;

const PAGE_LINES: usize = 1 << PAGE_BITS;
const NODE_SLOTS: usize = 1 << NODE_BITS;

type Page = Box<[LineState; PAGE_LINES]>;
type Node<T> = Box<[Option<T>; NODE_SLOTS]>;

// Allocation happens once per page or node: kept out of line so that the
// per-reference lookup stays a leaf with no stack frame to probe.
#[cold]
#[inline(never)]
fn new_page() -> Page {
    // Built on the heap: a `[LineState; PAGE_LINES]` temporary would put
    // 96 KiB on the stack in debug builds.
    let lines = vec![LineState::default(); PAGE_LINES].into_boxed_slice();
    lines.try_into().unwrap_or_else(|_| unreachable!("the vector has PAGE_LINES elements"))
}

#[cold]
#[inline(never)]
fn new_node<T>() -> Node<T> {
    Box::new([const { None }; NODE_SLOTS])
}

/// Line state for every line a run touches, found by line number.
pub(crate) struct LineTable {
    /// `log2(line_size)`: the line number is `addr >> shift`.
    shift: u32,
    /// Lines `0..PAGE_LINES`, where every traced cost array lies.
    first: Page,
    /// The pages above the first. Its first node's first page is never
    /// allocated.
    root: Node<Node<Page>>,
}

impl LineTable {
    /// An empty table for lines of `line_size` bytes.
    ///
    /// # Panics
    /// Panics unless `line_size` is a nonzero power of two: the registry
    /// validates configurations before they get here, and this is the
    /// documented panic of `traffic_by_line_size`.
    pub(crate) fn new(line_size: u32) -> Self {
        assert!(line_size.is_power_of_two(), "line size must be a nonzero power of two");
        LineTable { shift: line_size.trailing_zeros(), first: new_page(), root: new_node() }
    }

    /// The line number of byte address `addr`.
    #[inline]
    pub(crate) fn line_of(&self, addr: u32) -> u32 {
        addr >> self.shift
    }

    /// The state of line number `line`, default-initialized (no holders)
    /// on first touch.
    #[inline]
    pub(crate) fn line(&mut self, line: u32) -> &mut LineState {
        let i = line as usize;
        if i < PAGE_LINES {
            &mut self.first[i]
        } else {
            self.line_above(line)
        }
    }

    /// The state of a line above the first page, through the directory.
    #[cold]
    #[inline(never)]
    fn line_above(&mut self, line: u32) -> &mut LineState {
        let top = (line >> (PAGE_BITS + NODE_BITS)) as usize;
        let mid = (line >> PAGE_BITS) as usize % NODE_SLOTS;
        let page = self.root[top].get_or_insert_with(new_node)[mid].get_or_insert_with(new_page);
        &mut page[line as usize % PAGE_LINES]
    }

    /// The state of the line holding byte address `addr`.
    #[cfg(test)]
    fn entry(&mut self, addr: u32) -> &mut LineState {
        self.line(self.line_of(addr))
    }

    /// Heap bytes the table holds: the first page, the root, and every
    /// directory node and page allocated so far.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        let mut bytes = std::mem::size_of_val(&*self.first) + std::mem::size_of_val(&*self.root);
        for node in self.root.iter().flatten() {
            bytes += std::mem::size_of_val(&**node);
            bytes +=
                node.iter().flatten().map(|page| std::mem::size_of_val(&**page)).sum::<usize>();
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE_BYTES: usize = PAGE_LINES * std::mem::size_of::<LineState>();
    const NODE_BYTES: usize = NODE_SLOTS * std::mem::size_of::<usize>();

    #[test]
    fn directory_covers_every_line_number() {
        assert_eq!(2 * NODE_BITS + PAGE_BITS, u32::BITS);
        assert_eq!(std::mem::size_of::<Option<Page>>(), std::mem::size_of::<usize>());
    }

    #[test]
    fn a_stray_top_address_costs_one_page_and_the_directory() {
        let empty = PAGE_BYTES + NODE_BYTES;
        for line_size in [1u32, 4, 8, 32] {
            let mut t = LineTable::new(line_size);
            assert_eq!(t.heap_bytes(), empty, "line {line_size}: the first page and the root");
            t.entry(u32::MAX - 1).holders = 1;
            assert_eq!(
                t.heap_bytes() - empty,
                PAGE_BYTES + NODE_BYTES,
                "line {line_size}: one page and one directory node more"
            );
            assert!(t.heap_bytes() < 224 << 10);
        }
    }

    #[test]
    fn a_dense_cost_array_shares_pages() {
        // bnrE's cost array is about 7 KiB: within the first page at any
        // line size, so the directory stays empty.
        let mut t = LineTable::new(4);
        for addr in (0..7200u32).step_by(2) {
            t.entry(addr).holders |= 1;
        }
        assert_eq!(t.heap_bytes(), PAGE_BYTES + NODE_BYTES);
        assert!(t.root.iter().all(Option::is_none));
    }

    #[test]
    fn lines_are_distinct_and_persistent() {
        let mut t = LineTable::new(8);
        // Line 0 twice, then the last byte of line 4095 and the first of
        // line 4096 (the first page's last line and the directory's first),
        // lines whose numbers differ from 0 in one directory-index bit, and
        // the top.
        let addrs = [0u32, 7, 8, 4096 * 8 - 1, 4096 * 8, 8 << 21, 8 << 22, (8 << 22) + 8, u32::MAX];
        for (i, &a) in addrs.iter().enumerate() {
            t.entry(a).holders |= 1 << i;
        }
        // 0 and 7 share line 0; every other address is a line of its own.
        assert_eq!(t.entry(0).holders, 0b11);
        for (i, &a) in addrs.iter().enumerate().skip(2) {
            assert_eq!(t.entry(a).holders, 1 << i, "addr {a}");
        }
        assert_eq!((t.line(4095).holders, t.line(4096).holders), (1 << 3, 1 << 4));
        assert_eq!(t.entry(16).holders, 0, "untouched lines start with no holders");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_line_sizes_a_shift_cannot_express() {
        let _ = LineTable::new(12);
    }
}
