//! Contiguous row-major vector storage.
//!
//! Every nearest-neighbor structure in the workspace used to clone its
//! training set as `Vec<Vec<f32>>` — one heap allocation per row, with
//! a pointer chase per distance computation. A [`VectorStore`] packs
//! rows into one `f32` buffer with rows padded to a 32-byte boundary,
//! so a scan walks memory linearly and the auto-vectorized distance
//! kernels see aligned, contiguous operands.

/// Row padding unit: 8 `f32`s = 32 bytes, one AVX lane / half a cache
/// line, so consecutive rows never share a partially-filled vector
/// register load.
const ROW_ALIGN: usize = 8;

/// Contiguous row-major storage of fixed-dimension `f32` vectors.
///
/// Rows are stored at a stride of `dim` rounded up to a multiple of 8
/// floats; the padding is zero-filled and never exposed —
/// [`VectorStore::row`] returns exactly `dim` components.
#[derive(Debug, Clone, Default)]
pub struct VectorStore {
    data: Vec<f32>,
    dim: usize,
    stride: usize,
    len: usize,
}

impl VectorStore {
    /// An empty store for vectors of `dim` components.
    ///
    /// # Panics
    /// If `dim == 0`.
    pub fn new(dim: usize) -> VectorStore {
        assert!(dim > 0, "VectorStore dimension must be positive");
        let stride = dim.div_ceil(ROW_ALIGN) * ROW_ALIGN;
        VectorStore {
            data: Vec::new(),
            dim,
            stride,
            len: 0,
        }
    }

    /// An empty store with room for `rows` vectors pre-allocated.
    pub fn with_capacity(dim: usize, rows: usize) -> VectorStore {
        let mut s = VectorStore::new(dim);
        s.data.reserve(rows * s.stride);
        s
    }

    /// Bulk-build a store from ragged-free row data.
    ///
    /// # Panics
    /// If `rows` is empty (the dimension would be unknown) or any row's
    /// length differs from the first row's.
    pub fn from_rows(rows: &[Vec<f32>]) -> VectorStore {
        assert!(!rows.is_empty(), "VectorStore::from_rows on empty input");
        let mut s = VectorStore::with_capacity(rows[0].len(), rows.len());
        s.extend(rows.iter().map(Vec::as_slice));
        s
    }

    /// Append one row; returns its id (insertion order, dense from 0).
    ///
    /// # Panics
    /// If `row.len() != self.dim()`.
    pub fn push(&mut self, row: &[f32]) -> u32 {
        assert_eq!(
            row.len(),
            self.dim,
            "VectorStore::push: row has {} components, store holds {}-dim vectors",
            row.len(),
            self.dim
        );
        self.data.extend_from_slice(row);
        self.data
            .resize(self.data.len() + (self.stride - self.dim), 0.0);
        self.len += 1;
        (self.len - 1) as u32
    }

    /// Bulk insert: append every row, in order.
    ///
    /// # Panics
    /// If any row's length differs from the store dimension.
    pub fn extend<'a, I: IntoIterator<Item = &'a [f32]>>(&mut self, rows: I) {
        for row in rows {
            self.push(row);
        }
    }

    /// Row `i` (exactly `dim` components — padding is not exposed).
    ///
    /// # Panics
    /// If `i >= self.len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        let start = i * self.stride;
        &self.data[start..start + self.dim]
    }

    /// Iterate over all rows in id order.
    pub fn iter(&self) -> impl Iterator<Item = &[f32]> {
        (0..self.len).map(move |i| self.row(i))
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no vectors are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of stored vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Padded row stride in `f32`s (≥ `dim`, multiple of 8).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The raw padded backing buffer (`len() * stride()` floats, row
    /// `i` at `i * stride()`, padding zero-filled) — the operand the
    /// fused [`querc_linalg::kernel`] block kernels scan without per-row slicing.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Bytes held by the backing buffer.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Materialize row `i` as an owned vector (diagnostics / interop
    /// with `Vec<Vec<f32>>` consumers like `querc_cluster::kmeans`).
    pub fn row_vec(&self, i: usize) -> Vec<f32> {
        self.row(i).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_roundtrip_and_ids_are_dense() {
        let mut s = VectorStore::new(3);
        assert_eq!(s.push(&[1.0, 2.0, 3.0]), 0);
        assert_eq!(s.push(&[4.0, 5.0, 6.0]), 1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(s.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(s.iter().count(), 2);
    }

    #[test]
    fn stride_is_padded_to_32_bytes_and_rows_stay_exact() {
        for dim in [1usize, 3, 7, 8, 9, 17, 32, 33] {
            let mut s = VectorStore::new(dim);
            let row: Vec<f32> = (0..dim).map(|i| i as f32 + 0.5).collect();
            s.push(&row);
            s.push(&row);
            assert_eq!(s.stride() % 8, 0);
            assert!(s.stride() >= dim && s.stride() < dim + 8);
            assert_eq!(s.row(1), row.as_slice(), "padding must not leak, dim={dim}");
        }
    }

    #[test]
    fn from_rows_bulk_builds() {
        let rows = vec![vec![0.0f32, 1.0], vec![2.0, 3.0], vec![4.0, 5.0]];
        let s = VectorStore::from_rows(&rows);
        assert_eq!((s.len(), s.dim()), (3, 2));
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(s.row(i), r.as_slice());
        }
        assert_eq!(s.row_vec(2), rows[2]);
        assert!(s.memory_bytes() >= 3 * 2 * 4);
    }

    #[test]
    #[should_panic(expected = "row has 2 components")]
    fn ragged_push_panics() {
        let mut s = VectorStore::new(3);
        s.push(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "empty input")]
    fn from_rows_empty_panics() {
        VectorStore::from_rows(&[]);
    }
}
