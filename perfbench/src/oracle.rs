//! Closed-form index arithmetic for the benchmark's layouts, written apart
//! from the program under test.
//!
//! A layout distributes a row-major array of `elem`-byte elements over a
//! processor grid, one HPF distribution per dimension (`BLOCK`, `CYCLIC`,
//! `CYCLIC(b)` or undistributed), tiled from a byte displacement. An
//! element's *view* is its bytes in increasing file order, so view offset
//! `v` is the `v`-th byte the element owns. Every byte the program returns
//! is compared against these formulas, never against a stored copy of an
//! earlier run's output.

/// How one array dimension is dealt to the processors along it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist {
    /// Not distributed: the single processor owns every index.
    Whole,
    /// `BLOCK`: contiguous chunks of `ceil(n / P)` indices.
    Block,
    /// `CYCLIC`: index `i` belongs to processor `i mod P`.
    Cyclic,
    /// `CYCLIC(b)`: blocks of `b` indices dealt round-robin.
    BlockCyclic(u64),
}

impl Dist {
    /// Indices of an `n`-long dimension that processor `p` of `procs` owns.
    #[must_use]
    pub fn count(self, n: u64, p: u64, procs: u64) -> u64 {
        match self {
            Dist::Whole => n,
            Dist::Block => {
                let b = n.div_ceil(procs);
                n.min((p + 1) * b).saturating_sub(p * b)
            }
            Dist::Cyclic => {
                if p >= n {
                    0
                } else {
                    (n - 1 - p) / procs + 1
                }
            }
            Dist::BlockCyclic(b) => {
                let cycle = procs * b;
                let full = n / cycle * b;
                let rest = n % cycle;
                full + rest.saturating_sub(p * b).min(b)
            }
        }
    }

    /// Global index of processor `p`'s `i`-th owned index.
    #[must_use]
    pub fn global(self, n: u64, p: u64, procs: u64, i: u64) -> u64 {
        match self {
            Dist::Whole => i,
            Dist::Block => p * n.div_ceil(procs) + i,
            Dist::Cyclic => p + i * procs,
            Dist::BlockCyclic(b) => (i / b * procs + p) * b + i % b,
        }
    }

    /// End (exclusive) of the run of local indices starting at `i` whose
    /// global indices are consecutive.
    fn run_end(self, i: u64, count: u64) -> u64 {
        match self {
            Dist::Whole | Dist::Block => count,
            Dist::Cyclic => i + 1,
            Dist::BlockCyclic(b) => (i - i % b + b).min(count),
        }
    }
}

/// A distributed array laid out in a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Extents, outermost first.
    pub shape: Vec<u64>,
    /// Bytes per array element.
    pub elem: u64,
    /// One distribution per dimension.
    pub dists: Vec<Dist>,
    /// Processors along each dimension.
    pub grid: Vec<u64>,
    /// File byte where the first tile starts.
    pub disp: u64,
}

/// The paper's matrix layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Matrix {
    /// Blocks of rows.
    Rows,
    /// Square blocks on a √P × √P grid.
    Squares,
    /// Blocks of columns.
    Columns,
}

impl Layout {
    /// An `n × n` matrix of `elem`-byte elements in layout `kind` over
    /// `procs` processors.
    ///
    /// # Panics
    /// Panics when `kind` is [`Matrix::Squares`] and `procs` is not a
    /// square.
    #[must_use]
    pub fn matrix(kind: Matrix, n: u64, elem: u64, procs: u64, disp: u64) -> Self {
        let (dists, grid) = match kind {
            Matrix::Rows => (vec![Dist::Block, Dist::Whole], vec![procs, 1]),
            Matrix::Columns => (vec![Dist::Whole, Dist::Block], vec![1, procs]),
            Matrix::Squares => {
                let q = (1..=procs).find(|q| q * q >= procs).unwrap_or(1);
                assert_eq!(q * q, procs, "square blocks need a square processor count");
                (vec![Dist::Block, Dist::Block], vec![q, q])
            }
        };
        Layout { shape: vec![n, n], elem, dists, grid, disp }
    }

    /// Grid coordinate of element `e`, row-major.
    fn coord(&self, e: usize) -> Vec<u64> {
        let mut rest = e as u64;
        let mut c = vec![0; self.grid.len()];
        for d in (0..self.grid.len()).rev() {
            c[d] = rest % self.grid[d];
            rest /= self.grid[d];
        }
        c
    }

    /// Bytes of one tile (the whole array).
    #[must_use]
    pub fn tile_bytes(&self) -> u64 {
        self.shape.iter().product::<u64>() * self.elem
    }

    fn counts(&self, c: &[u64]) -> Vec<u64> {
        (0..self.shape.len())
            .map(|d| self.dists[d].count(self.shape[d], c[d], self.grid[d]))
            .collect()
    }

    /// Bytes element `e` owns in one tile.
    #[must_use]
    pub fn element_bytes(&self, e: usize) -> u64 {
        self.counts(&self.coord(e)).iter().product::<u64>() * self.elem
    }

    /// Bytes element `e` holds in a file of `file_len` bytes.
    #[must_use]
    pub fn element_len(&self, e: usize, file_len: u64) -> u64 {
        let per = self.element_bytes(e);
        if per == 0 || file_len <= self.disp {
            return 0;
        }
        // File offsets grow with view offsets: the element holds exactly
        // the view offsets below the first one that lands past the end.
        let (mut lo, mut hi) = (0, ((file_len - self.disp) / self.tile_bytes() + 1) * per);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.file_offset(e, mid) < file_len {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// File offset of view byte `v` of element `e`.
    #[must_use]
    pub fn file_offset(&self, e: usize, v: u64) -> u64 {
        let mut out = 0;
        self.runs(e, v, v, |_, f, _| out = f);
        out
    }

    /// Streams the view interval `[lo, hi]` of element `e` as maximal runs
    /// of consecutive file bytes: `f(view_offset, file_offset, len)`.
    pub fn runs(&self, e: usize, lo: u64, hi: u64, mut f: impl FnMut(u64, u64, u64)) {
        let c = self.coord(e);
        let counts = self.counts(&c);
        let per = counts.iter().product::<u64>() * self.elem;
        if per == 0 || lo > hi {
            return;
        }
        let dims = self.shape.len();
        let inner = dims - 1;
        let inner_count = counts[inner];
        // Byte stride of one index step in each dimension.
        let mut unit = vec![self.elem; dims];
        for d in (0..inner).rev() {
            unit[d] = unit[d + 1] * self.shape[d + 1];
        }
        let row_bytes = inner_count * self.elem;
        let mut v = lo;
        while v <= hi {
            let tile = v / per;
            let r = v % per;
            let row = r / row_bytes;
            let within = r % row_bytes;
            // Outer local indices of this row, row-major.
            let mut base = self.disp + tile * self.tile_bytes();
            let mut rest = row;
            for d in (0..inner).rev() {
                let i = rest % counts[d];
                rest /= counts[d];
                base += self.dists[d].global(self.shape[d], c[d], self.grid[d], i) * unit[d];
            }
            let i = within / self.elem;
            let byte = within % self.elem;
            let end = self.dists[inner].run_end(i, inner_count);
            let g = self.dists[inner].global(self.shape[inner], c[inner], self.grid[inner], i);
            let run = (end - i) * self.elem - byte;
            let len = run.min(hi - v + 1);
            f(v, base + g * self.elem + byte, len);
            v += len;
        }
    }
}

/// The byte generation `gen` writes at file offset `f` (generation 0 is the
/// zero-filled file a fresh `Open` creates).
#[must_use]
pub fn byte_at(gen: u64, f: u64) -> u8 {
    if gen == 0 {
        return 0;
    }
    let x = (f ^ gen.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    (x >> 56) as u8 ^ (f as u8)
}

/// Fills `out` with generation `gen`'s bytes for the view interval
/// `[lo, lo + out.len())` of element `e`.
pub fn fill_view(layout: &Layout, e: usize, lo: u64, gen: u64, out: &mut [u8]) {
    if out.is_empty() {
        return;
    }
    layout.runs(e, lo, lo + out.len() as u64 - 1, |v, f, n| {
        let at = (v - lo) as usize;
        for (k, b) in out[at..at + n as usize].iter_mut().enumerate() {
            *b = byte_at(gen, f + k as u64);
        }
    });
}

/// Where a checked buffer first differs from the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Index of the first differing byte in the checked buffer.
    pub at: usize,
    /// The byte the oracle expects.
    pub expected: u8,
    /// The byte the program produced.
    pub actual: u8,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte {} is {:#04x}, expected {:#04x}", self.at, self.actual, self.expected)
    }
}

/// Compares two equally long buffers.
pub fn compare(actual: &[u8], expected: &[u8]) -> Result<(), Mismatch> {
    if actual.len() != expected.len() {
        let at = actual.len().min(expected.len());
        return Err(Mismatch {
            at,
            expected: expected.get(at).copied().unwrap_or(0),
            actual: actual.get(at).copied().unwrap_or(0),
        });
    }
    match actual.iter().zip(expected).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(at) => Err(Mismatch { at, expected: expected[at], actual: actual[at] }),
    }
}

/// Checks a fetched subfile: byte `o` of physical element `s` must equal
/// `file[phys.file_offset(s, o)]`, the serial-order file content.
pub fn check_subfile(phys: &Layout, s: usize, actual: &[u8], file: &[u8]) -> Result<(), Mismatch> {
    let expected_len = phys.element_len(s, file.len() as u64) as usize;
    if actual.len() != expected_len {
        return Err(Mismatch { at: actual.len().min(expected_len), expected: 0, actual: 0 });
    }
    let mut result = Ok(());
    if !actual.is_empty() {
        phys.runs(s, 0, actual.len() as u64 - 1, |o, f, n| {
            if result.is_err() {
                return;
            }
            let (o, f, n) = (o as usize, f as usize, n as usize);
            if let Err(m) = compare(&actual[o..o + n], &file[f..f + n]) {
                result = Err(Mismatch { at: o + m.at, ..m });
            }
        });
    }
    result
}

/// Applies a write of `data` over the view interval starting at `lo` of
/// element `e` to a serial-order shadow of the file.
pub fn apply_view_write(layout: &Layout, e: usize, lo: u64, data: &[u8], shadow: &mut [u8]) {
    if data.is_empty() {
        return;
    }
    layout.runs(e, lo, lo + data.len() as u64 - 1, |v, f, n| {
        let (a, f, n) = ((v - lo) as usize, f as usize, n as usize);
        shadow[f..f + n].copy_from_slice(&data[a..a + n]);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All view offsets of element `e` in one tile, by the runs.
    fn offsets(l: &Layout, e: usize) -> Vec<u64> {
        let mut out = Vec::new();
        l.runs(e, 0, l.element_bytes(e) - 1, |_, f, n| out.extend(f..f + n));
        out
    }

    // Hand-worked 8×8 one-byte matrices: byte (row, col) sits at 8·row + col.

    #[test]
    fn rows_over_four() {
        let l = Layout::matrix(Matrix::Rows, 8, 1, 4, 0);
        // Element 1 owns rows 2 and 3.
        assert_eq!(offsets(&l, 1), (16..32).collect::<Vec<_>>());
        assert_eq!(l.file_offset(1, 9), 25);
        // View offset 16 is the first byte of element 1 in the second tile.
        assert_eq!(l.file_offset(1, 16), 64 + 16);
    }

    #[test]
    fn columns_over_four() {
        let l = Layout::matrix(Matrix::Columns, 8, 1, 4, 0);
        // Element 2 owns columns 4 and 5 of every row.
        let want: Vec<u64> = (0..8).flat_map(|r| [8 * r + 4, 8 * r + 5]).collect();
        assert_eq!(offsets(&l, 2), want);
        assert_eq!(l.file_offset(2, 15), 61);
    }

    #[test]
    fn squares_over_four() {
        let l = Layout::matrix(Matrix::Squares, 8, 1, 4, 0);
        // Element 3 is the lower-right 4×4 block.
        let want: Vec<u64> = (4..8).flat_map(|r| (4..8).map(move |c| 8 * r + c)).collect();
        assert_eq!(offsets(&l, 3), want);
        assert_eq!(l.file_offset(3, 5), 45);
    }

    #[test]
    fn columns_over_two_as_subfiles() {
        let l = Layout::matrix(Matrix::Columns, 8, 1, 2, 0);
        assert_eq!(l.file_offset(1, 0), 4);
        assert_eq!(l.file_offset(1, 4), 12);
        assert_eq!(l.element_len(1, 64), 32);
        // A 60-byte file ends inside row 7's right half (bytes 60..63 gone).
        assert_eq!(l.element_len(1, 60), 28);
        assert_eq!(l.element_len(0, 60), 32);
    }

    #[test]
    fn cyclic_rows_block_columns() {
        let l = Layout {
            shape: vec![8, 8],
            elem: 1,
            dists: vec![Dist::Cyclic, Dist::Block],
            grid: vec![2, 2],
            disp: 0,
        };
        // Element 2 = grid (1, 0): odd rows, columns 0..3.
        let want: Vec<u64> =
            [1, 3, 5, 7].iter().flat_map(|r| (0..4).map(move |c| 8 * r + c)).collect();
        assert_eq!(offsets(&l, 2), want);
        assert_eq!(l.file_offset(2, 4), 24);
    }

    #[test]
    fn block_cyclic_rows() {
        let l = Layout {
            shape: vec![8, 8],
            elem: 1,
            dists: vec![Dist::BlockCyclic(3), Dist::Whole],
            grid: vec![2, 1],
            disp: 0,
        };
        // CYCLIC(3) over 2: processor 0 owns rows 0, 1, 2, 6, 7; processor 1
        // owns rows 3, 4, 5.
        assert_eq!(Dist::BlockCyclic(3).count(8, 0, 2), 5);
        assert_eq!(Dist::BlockCyclic(3).count(8, 1, 2), 3);
        assert_eq!(l.file_offset(0, 24), 48);
        assert_eq!(l.file_offset(1, 0), 24);
        assert_eq!(l.element_bytes(0) + l.element_bytes(1), 64);
    }

    #[test]
    fn cyclic_columns_with_element_size_and_displacement() {
        let l = Layout {
            shape: vec![8, 8],
            elem: 2,
            dists: vec![Dist::Whole, Dist::Cyclic],
            grid: vec![1, 2],
            disp: 5,
        };
        // Element 1 owns odd columns; each element is 2 bytes.
        assert_eq!(l.file_offset(1, 0), 5 + 2);
        assert_eq!(l.file_offset(1, 1), 5 + 3);
        assert_eq!(l.file_offset(1, 2), 5 + 6);
        // Row 1 starts after 4 owned elements (8 bytes): column 1 of row 1.
        assert_eq!(l.file_offset(1, 8), 5 + 16 + 2);
    }

    #[test]
    fn one_dimensional_record_striping() {
        let l = Layout {
            shape: vec![32],
            elem: 1,
            dists: vec![Dist::BlockCyclic(4)],
            grid: vec![2],
            disp: 0,
        };
        assert_eq!(l.file_offset(1, 0), 4);
        assert_eq!(l.file_offset(1, 4), 12);
        assert_eq!(l.file_offset(0, 7), 11);
    }

    #[test]
    fn every_layout_tiles_the_matrix_exactly_once() {
        for kind in [Matrix::Rows, Matrix::Squares, Matrix::Columns] {
            let l = Layout::matrix(kind, 8, 1, 4, 0);
            let mut all: Vec<u64> = (0..4).flat_map(|e| offsets(&l, e)).collect();
            all.sort_unstable();
            assert_eq!(all, (0..64).collect::<Vec<_>>(), "{kind:?}");
        }
    }

    #[test]
    fn view_check_fails_on_any_wrong_expected_byte() {
        let l = Layout::matrix(Matrix::Squares, 8, 1, 4, 0);
        let mut got = vec![0u8; 16];
        fill_view(&l, 1, 0, 7, &mut got);
        let mut want = got.clone();
        assert!(compare(&got, &want).is_ok());
        for i in 0..want.len() {
            want[i] ^= 1;
            assert_eq!(compare(&got, &want).map_err(|m| m.at), Err(i));
            want[i] ^= 1;
        }
    }

    #[test]
    fn subfile_check_fails_on_any_wrong_expected_byte() {
        let phys = Layout::matrix(Matrix::Columns, 8, 1, 2, 0);
        let mut file = vec![0u8; 64];
        for (f, b) in file.iter_mut().enumerate() {
            *b = byte_at(3, f as u64);
        }
        for s in 0..2 {
            let mut sub = vec![0u8; 32];
            fill_view(&phys, s, 0, 3, &mut sub);
            assert!(check_subfile(&phys, s, &sub, &file).is_ok());
            for o in 0..32 {
                sub[o] ^= 0x80;
                assert_eq!(check_subfile(&phys, s, &sub, &file).map_err(|m| m.at), Err(o));
                sub[o] ^= 0x80;
            }
        }
    }

    #[test]
    fn shadow_write_lands_where_the_layout_says() {
        let view = Layout::matrix(Matrix::Rows, 8, 1, 4, 0);
        let mut shadow = vec![0u8; 64];
        apply_view_write(&view, 3, 2, &[1, 2, 3], &mut shadow);
        // Element 3 starts at row 6 (byte 48); view offsets 2..4.
        assert_eq!(&shadow[48..54], &[0, 0, 1, 2, 3, 0]);
        assert_eq!(shadow.iter().filter(|&&b| b != 0).count(), 3);
    }

    #[test]
    fn generations_differ_and_zero_is_the_fresh_file() {
        assert_eq!(byte_at(0, 123), 0);
        let differ = (0..256u64).filter(|&f| byte_at(1, f) != byte_at(2, f)).count();
        assert!(differ > 200, "{differ}");
    }
}
