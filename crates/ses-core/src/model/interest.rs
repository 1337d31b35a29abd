//! Storage for the interest function `µ : U × (E ∪ C) → [0, 1]`.
//!
//! Interest drives every score computation (Eq. 1/4), so its layout decides
//! the performance of the whole system. Three interchangeable representations
//! are provided:
//!
//! * [`DenseInterest`] — an *item-major* dense matrix (`data[item · |U| + u]`).
//!   Iterating an item's column touches `|U|` contiguous doubles, exactly
//!   matching the paper's cost accounting of `|U|` operations per assignment
//!   score. This is the faithful-reproduction representation.
//! * [`SparseInterest`] — a CSC-like per-item list of `(user, µ)` non-zeros.
//!   Real EBSN interest is extremely sparse (a Meetup user cares about a
//!   handful of the ~16K events), and a score only receives contributions
//!   from users with `µ_{u,e} > 0`, so iterating non-zeros is an exact
//!   optimization. The `ablation` bench quantifies the difference.
//! * [`CompressedInterest`] — dictionary-encoded codes in 512-user-aligned
//!   compressed blocks, ~2 bytes per stored entry on quantized dense
//!   columns. The million-user layout; see [`super::compressed`].
//!
//! All three decode to the same `(user, µ)` sequence in the same order (the
//! dense walk also visits the zeros, which add exactly nothing), so every
//! downstream float reduction is bit-identical across backends. Every
//! consumer reads a column through one walk,
//! [`InterestMatrix::for_each_in_part`].
//!
//! Both candidate-event interest and competing-event interest use this type;
//! an "item" is a column (an event) and the matrix is `items × users`.

use super::compressed::{CompressedInterest, CompressedInterestBuilder, StorageKind};
use crate::error::BuildError;
use serde::{Deserialize, Serialize};

/// Interest of every user over a set of items (events), in one of three
/// physical layouts. See the module docs for the trade-off.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InterestMatrix {
    /// Dense item-major storage; column iteration touches every user.
    Dense(DenseInterest),
    /// Sparse per-item non-zero lists; column iteration touches `nnz` users.
    Sparse(SparseInterest),
    /// Dictionary-encoded 512-aligned compressed blocks; column iteration
    /// touches `nnz` users, decoded block-wise.
    Compressed(CompressedInterest),
}

impl InterestMatrix {
    /// Number of items (columns/events).
    #[inline]
    pub fn num_items(&self) -> usize {
        match self {
            Self::Dense(d) => d.num_items,
            Self::Sparse(s) => s.indptr.len() - 1,
            Self::Compressed(c) => c.num_items(),
        }
    }

    /// Number of users (rows).
    #[inline]
    pub fn num_users(&self) -> usize {
        match self {
            Self::Dense(d) => d.num_users,
            Self::Sparse(s) => s.num_users,
            Self::Compressed(c) => c.num_users(),
        }
    }

    /// Interest value `µ(user, item)`; `0.0` for absent sparse entries.
    ///
    /// # Panics
    /// Panics if `item` or `user` is out of range.
    #[inline]
    pub fn value(&self, item: usize, user: usize) -> f64 {
        match self {
            Self::Dense(d) => d.value(item, user),
            Self::Sparse(s) => s.value(item, user),
            Self::Compressed(c) => c.value(item, user),
        }
    }

    /// Walks positions `range` of `item`'s column, calling `f(user, µ)` in
    /// increasing user order — the one column traversal every consumer
    /// (the scoring kernel, `apply`, the engine build, validation and the
    /// layout conversions) goes through. Dense storage yields **every**
    /// user, zeros included, and its positions are user indices (the
    /// paper's `|U|`-per-score accounting); sparse and compressed yield
    /// their stored non-zeros, and positions index that list. Walking the
    /// blocks of [`crate::parallel::block_range`] in ascending order
    /// reproduces [`for_each`](Self::for_each) exactly — the unit the
    /// engine's fixed-block reduction works in. The layout is matched once
    /// per call, never per entry.
    ///
    /// # Panics
    /// Panics if `range` exceeds `column_len(item)`.
    #[inline]
    pub fn for_each_in_part(
        &self,
        item: usize,
        range: std::ops::Range<usize>,
        mut f: impl FnMut(usize, f64),
    ) {
        match self {
            Self::Dense(d) => {
                let first = range.start;
                for (i, &v) in d.column_slice(item)[range].iter().enumerate() {
                    f(first + i, v);
                }
            }
            Self::Sparse(s) => {
                let (users, values) = s.column_slices(item);
                for (&u, &v) in users[range.clone()].iter().zip(&values[range]) {
                    f(u as usize, v);
                }
            }
            Self::Compressed(c) => c.for_each_in_part(item, range, f),
        }
    }

    /// [`for_each_in_part`](Self::for_each_in_part) over the whole column.
    #[inline]
    pub fn for_each(&self, item: usize, f: impl FnMut(usize, f64)) {
        self.for_each_in_part(item, 0..self.column_len(item), f);
    }

    /// Number of entries a [`for_each`](Self::for_each) walk visits for
    /// `item` — the per-score "user operations" cost of this representation.
    #[inline]
    pub fn column_len(&self, item: usize) -> usize {
        match self {
            Self::Dense(d) => {
                assert!(item < d.num_items, "item {item} out of range");
                d.num_users
            }
            Self::Sparse(s) => {
                let (users, _) = s.column_slices(item);
                users.len()
            }
            Self::Compressed(c) => c.column_len(item),
        }
    }

    /// Total mass `Σ_u µ(u, item)` of one column — O(1): every layout
    /// caches per-column sums, maintained as the bitwise left-to-right sum
    /// of the stored column on every mutation. The scoring engine's
    /// bound-first gate leans on this being cheap.
    #[inline]
    pub fn column_sum(&self, item: usize) -> f64 {
        match self {
            Self::Dense(d) => d.col_sums[item],
            Self::Sparse(s) => s.col_sums[item],
            Self::Compressed(c) => c.column_sum(item),
        }
    }

    /// Validates that every stored value lies in `[0, 1]`, reporting the
    /// first offender in column order.
    pub fn validate(&self) -> Result<(), BuildError> {
        for item in 0..self.num_items() {
            let mut bad = None;
            self.for_each(item, |user, v| {
                if bad.is_none() && !(0.0..=1.0).contains(&v) {
                    bad = Some((user, v));
                }
            });
            if let Some((user, value)) = bad {
                return Err(BuildError::InterestOutOfRange {
                    value,
                    context: format!("user {user}, item {item}"),
                });
            }
        }
        Ok(())
    }

    /// Appends one item (event) with the given dense per-user column.
    /// Sparse storage keeps only the non-zeros.
    ///
    /// # Panics
    /// Panics if `column.len() != num_users()`.
    pub fn push_item(&mut self, column: &[f64]) {
        match self {
            Self::Dense(d) => d.push_item(column),
            Self::Sparse(s) => s.push_item(column),
            Self::Compressed(c) => c.push_item(column),
        }
    }

    /// Removes one item (event); items above it shift down by one, exactly
    /// mirroring a `Vec::remove` on the owning event list.
    ///
    /// # Panics
    /// Panics if `item` is out of range.
    pub fn remove_item(&mut self, item: usize) {
        match self {
            Self::Dense(d) => d.remove_item(item),
            Self::Sparse(s) => s.remove_item(item),
            Self::Compressed(c) => c.remove_item(item),
        }
    }

    /// Sets `µ(user, item)`. Sparse storage inserts, overwrites, or (for a
    /// zero) drops the entry, preserving the drop-exact-zeros convention of
    /// [`to_sparse`](Self::to_sparse).
    ///
    /// # Panics
    /// Panics if `item` or `user` is out of range.
    pub fn set_value(&mut self, item: usize, user: usize, value: f64) {
        match self {
            Self::Dense(d) => d.set(item, user, value),
            Self::Sparse(s) => s.set_value(item, user, value),
            Self::Compressed(c) => c.set_value(item, user, value),
        }
    }

    /// Appends new users. `rows[j]` is the j-th new user's interest over all
    /// items (`rows[j].len() == num_items()`); the new users receive the next
    /// consecutive user indices.
    ///
    /// # Panics
    /// Panics on a row-length mismatch.
    pub fn append_users(&mut self, rows: &[Vec<f64>]) {
        match self {
            Self::Dense(d) => d.append_users(rows),
            Self::Sparse(s) => s.append_users(rows),
            Self::Compressed(c) => c.append_users(rows),
        }
    }

    /// Removes the given users (strictly increasing indices); surviving
    /// users shift down to keep indices dense.
    ///
    /// # Panics
    /// Panics if the indices are not strictly increasing or out of range.
    pub fn remove_users(&mut self, users: &[usize]) {
        match self {
            Self::Dense(d) => d.remove_users(users),
            Self::Sparse(s) => s.remove_users(users),
            Self::Compressed(c) => c.remove_users(users),
        }
    }

    /// Converts to the dense representation (no-op if already dense).
    pub fn to_dense(&self) -> DenseInterest {
        match self {
            Self::Dense(d) => d.clone(),
            _ => {
                // Fill the raw buffer, then compute each column sum once at
                // construction — `set` would recompute the O(|U|) sum per
                // stored entry.
                let (num_items, num_users) = (self.num_items(), self.num_users());
                let mut data = vec![0.0; num_items * num_users];
                for item in 0..num_items {
                    self.for_each(item, |u, v| data[item * num_users + u] = v);
                }
                DenseInterest::from_raw(num_items, num_users, data)
                    .expect("shape is consistent by construction")
            }
        }
    }

    /// Converts to the sparse representation (no-op if already sparse),
    /// dropping exact zeros.
    pub fn to_sparse(&self) -> SparseInterest {
        match self {
            Self::Sparse(s) => s.clone(),
            _ => {
                let mut b = SparseInterestBuilder::new(self.num_items(), self.num_users());
                for item in 0..self.num_items() {
                    self.for_each(item, |u, v| b.push(item, u, v)); // the builder drops zeros
                }
                b.build()
            }
        }
    }

    /// Converts to the compressed representation (no-op if already
    /// compressed), dropping exact zeros and interning the dictionary in
    /// canonical first-use order over the item-ascending, user-ascending
    /// entry stream.
    pub fn to_compressed(&self) -> CompressedInterest {
        match self {
            Self::Compressed(c) => c.clone(),
            _ => {
                let mut b = CompressedInterestBuilder::new(self.num_items(), self.num_users());
                for item in 0..self.num_items() {
                    self.for_each(item, |u, v| b.push(item, u, v)); // the builder drops zeros
                }
                b.build()
            }
        }
    }

    /// An empty (zero-item) matrix in the requested layout, ready to grow
    /// one column at a time via [`push_item`](Self::push_item) — the
    /// streaming-generation entry point: large instances are assembled
    /// column-by-column without ever materializing a dense matrix.
    pub fn empty(kind: StorageKind, num_users: usize) -> InterestMatrix {
        match kind {
            StorageKind::Dense => Self::Dense(DenseInterest::zeros(0, num_users)),
            StorageKind::Sparse => Self::Sparse(SparseInterestBuilder::new(0, num_users).build()),
            StorageKind::Compressed => Self::Compressed(CompressedInterest::empty(num_users)),
        }
    }

    /// The physical layout currently in use.
    #[inline]
    pub fn storage_kind(&self) -> StorageKind {
        match self {
            Self::Dense(_) => StorageKind::Dense,
            Self::Sparse(_) => StorageKind::Sparse,
            Self::Compressed(_) => StorageKind::Compressed,
        }
    }

    /// Converts to the requested layout (no-op when already there).
    pub fn convert_to(&self, kind: StorageKind) -> InterestMatrix {
        match kind {
            StorageKind::Dense => Self::Dense(self.to_dense()),
            StorageKind::Sparse => Self::Sparse(self.to_sparse()),
            StorageKind::Compressed => Self::Compressed(self.to_compressed()),
        }
    }

    /// Approximate resident bytes of the backing arrays (element counts ×
    /// element sizes; allocator slack excluded so the figure is
    /// deterministic).
    pub fn heap_bytes(&self) -> usize {
        match self {
            Self::Dense(d) => d.heap_bytes(),
            Self::Sparse(s) => s.heap_bytes(),
            Self::Compressed(c) => c.heap_bytes(),
        }
    }

    /// Normalizes the representation so that logically equal matrices built
    /// through different mutation histories compare equal after conversion:
    /// drops stored exact zeros from the sparse and compressed layouts
    /// (reachable only via hand-built or deserialized data — every mutation
    /// path already drops them) and re-interns the compressed dictionary.
    /// Dense storage is always canonical. Returns the number of stored
    /// entries dropped.
    pub fn canonicalize(&mut self) -> usize {
        match self {
            Self::Dense(_) => 0,
            Self::Sparse(s) => s.canonicalize(),
            Self::Compressed(c) => c.canonicalize(),
        }
    }
}

impl From<DenseInterest> for InterestMatrix {
    fn from(d: DenseInterest) -> Self {
        Self::Dense(d)
    }
}

impl From<SparseInterest> for InterestMatrix {
    fn from(s: SparseInterest) -> Self {
        Self::Sparse(s)
    }
}

impl From<CompressedInterest> for InterestMatrix {
    fn from(c: CompressedInterest) -> Self {
        Self::Compressed(c)
    }
}

/// Dense item-major interest storage. `data[item · num_users + user]`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DenseInterest {
    num_items: usize,
    num_users: usize,
    data: Vec<f64>,
    /// Cached per-item column sums — always the bitwise left-to-right sum of
    /// the stored column (every mutation recomputes the affected columns, it
    /// never adjusts incrementally, so the cache cannot drift).
    col_sums: Vec<f64>,
}

/// The serialized layout of [`DenseInterest`].
#[derive(Deserialize)]
struct DenseInterestRepr {
    num_items: usize,
    num_users: usize,
    data: Vec<f64>,
    #[allow(dead_code)]
    col_sums: Vec<f64>,
}

// Loading goes through `from_raw`, so a state written by a build that still
// stored `-0.0` comes back with unsigned zeros, and the column sums are
// re-derived from the data (bitwise what such a build stored: a `±0.0`
// entry adds nothing to a sum that starts at `+0.0`).
impl Deserialize for DenseInterest {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let r = DenseInterestRepr::from_value(v)?;
        Self::from_raw(r.num_items, r.num_users, r.data).map_err(serde::Error::custom)
    }
}

/// Dense storage writes a `-0.0` as `+0.0`, as sparse and compressed
/// storage (which drop zeros) effectively do. With no signed zero stored,
/// a cached column sum is bitwise the per-user fold of `value()` reads on
/// every layout — an all-`-0.0` column would otherwise fold to `-0.0`.
#[inline]
fn unsigned_zero(v: f64) -> f64 {
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

/// The one definition of a cached column sum: the left-to-right sum of the
/// stored values. Shared by all layouts so the caches agree bitwise
/// (interleaved exact zeros add nothing).
#[inline]
pub(crate) fn stored_sum(values: &[f64]) -> f64 {
    let mut s = 0.0;
    for &v in values {
        s += v;
    }
    s
}

impl DenseInterest {
    /// An all-zero matrix of the given shape.
    pub fn zeros(num_items: usize, num_users: usize) -> Self {
        Self {
            num_items,
            num_users,
            data: vec![0.0; num_items * num_users],
            col_sums: vec![0.0; num_items],
        }
    }

    /// Builds from a generator function `f(item, user) -> µ`.
    pub fn from_fn(
        num_items: usize,
        num_users: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Self {
        let mut data = Vec::with_capacity(num_items * num_users);
        for item in 0..num_items {
            for user in 0..num_users {
                data.push(f(item, user));
            }
        }
        Self::with_sums(num_items, num_users, data)
    }

    /// Builds from raw item-major data.
    ///
    /// # Errors
    /// Returns [`BuildError::DimensionMismatch`] if
    /// `data.len() != num_items * num_users`.
    pub fn from_raw(
        num_items: usize,
        num_users: usize,
        data: Vec<f64>,
    ) -> Result<Self, BuildError> {
        if data.len() != num_items * num_users {
            return Err(BuildError::DimensionMismatch {
                what: "dense interest",
                expected: num_items * num_users,
                actual: data.len(),
            });
        }
        Ok(Self::with_sums(num_items, num_users, data))
    }

    fn with_sums(num_items: usize, num_users: usize, mut data: Vec<f64>) -> Self {
        data.iter_mut().for_each(|v| *v = unsigned_zero(*v));
        let col_sums =
            (0..num_items).map(|i| stored_sum(&data[i * num_users..(i + 1) * num_users])).collect();
        Self { num_items, num_users, data, col_sums }
    }

    /// Recomputes one cached column sum from storage.
    fn refresh_sum(&mut self, item: usize) {
        let s = stored_sum(self.column_slice(item));
        self.col_sums[item] = s;
    }

    /// Number of items (columns).
    #[inline]
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of users (rows).
    #[inline]
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// The contiguous per-user slice of one item.
    #[inline]
    pub fn column_slice(&self, item: usize) -> &[f64] {
        let start = item * self.num_users;
        &self.data[start..start + self.num_users]
    }

    /// Value lookup.
    #[inline]
    pub fn value(&self, item: usize, user: usize) -> f64 {
        assert!(user < self.num_users, "user {user} out of range");
        self.data[item * self.num_users + user]
    }

    /// Sets one value.
    #[inline]
    pub fn set(&mut self, item: usize, user: usize, value: f64) {
        assert!(user < self.num_users, "user {user} out of range");
        self.data[item * self.num_users + user] = unsigned_zero(value);
        self.refresh_sum(item);
    }

    /// Appends one item column. See [`InterestMatrix::push_item`].
    pub fn push_item(&mut self, column: &[f64]) {
        assert_eq!(column.len(), self.num_users, "column length must equal user count");
        self.data.extend(column.iter().map(|&v| unsigned_zero(v)));
        self.col_sums.push(stored_sum(column));
        self.num_items += 1;
    }

    /// Removes one item column. See [`InterestMatrix::remove_item`].
    pub fn remove_item(&mut self, item: usize) {
        assert!(item < self.num_items, "item {item} out of range");
        let start = item * self.num_users;
        self.data.drain(start..start + self.num_users);
        self.col_sums.remove(item);
        self.num_items -= 1;
    }

    /// Appends new users. See [`InterestMatrix::append_users`].
    pub fn append_users(&mut self, rows: &[Vec<f64>]) {
        for row in rows {
            assert_eq!(row.len(), self.num_items, "user row length must equal item count");
        }
        let new_users = self.num_users + rows.len();
        let mut data = Vec::with_capacity(self.num_items * new_users);
        for item in 0..self.num_items {
            data.extend_from_slice(self.column_slice(item));
            data.extend(rows.iter().map(|row| row[item]));
        }
        *self = Self::with_sums(self.num_items, new_users, data);
    }

    /// Removes users. See [`InterestMatrix::remove_users`].
    pub fn remove_users(&mut self, users: &[usize]) {
        let keep = user_keep_mask(self.num_users, users);
        let mut data = Vec::with_capacity(self.num_items * (self.num_users - users.len()));
        for item in 0..self.num_items {
            let col = self.column_slice(item);
            data.extend(col.iter().zip(&keep).filter(|(_, &k)| k).map(|(&v, _)| v));
        }
        *self = Self::with_sums(self.num_items, self.num_users - users.len(), data);
    }

    /// Approximate resident bytes (element counts × element sizes; allocator
    /// slack excluded so the figure is deterministic).
    pub fn heap_bytes(&self) -> usize {
        (self.data.len() + self.col_sums.len()) * 8
    }
}

/// Validates a strictly increasing user-removal list and returns the
/// per-user keep mask — the one definition of the removal invariant shared
/// by every user-indexed structure (interest, activity, weights).
///
/// # Panics
/// Panics if the list is not strictly increasing or references a user out
/// of range.
pub(crate) fn user_keep_mask(num_users: usize, users: &[usize]) -> Vec<bool> {
    let mut keep = vec![true; num_users];
    let mut prev = None;
    for &u in users {
        assert!(u < num_users, "user {u} out of range");
        assert!(prev.is_none_or(|p| p < u), "user removal list must be strictly increasing");
        keep[u] = false;
        prev = Some(u);
    }
    keep
}

/// Sparse (CSC-like) interest storage: per item, sorted `(user, value)`
/// non-zeros held in two parallel arrays (`users[i]` indexes `values[i]`),
/// so a column is a pair of contiguous slices the scoring kernel can stream
/// without per-entry dispatch.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SparseInterest {
    num_users: usize,
    /// `indptr[item]..indptr[item+1]` delimits item's entries.
    indptr: Vec<usize>,
    users: Vec<u32>,
    values: Vec<f64>,
    /// Cached per-item column sums; see [`DenseInterest`]'s field docs —
    /// identical invariant (bitwise left-to-right sum of stored non-zeros,
    /// recomputed on every mutation of the column).
    col_sums: Vec<f64>,
}

/// The serialized layout of [`SparseInterest`].
#[derive(Deserialize)]
struct SparseInterestRepr {
    num_users: usize,
    indptr: Vec<usize>,
    users: Vec<u32>,
    values: Vec<f64>,
}

// Loading goes through `from_parts`, so a malformed file is an error rather
// than a later out-of-bounds panic, and the stored column sums are replaced
// by a recompute (bitwise what a well-formed file holds).
impl Deserialize for SparseInterest {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let r = SparseInterestRepr::from_value(v)?;
        Self::from_parts(r.num_users, r.indptr, r.users, r.values).map_err(serde::Error::custom)
    }
}

impl SparseInterest {
    /// Assembles raw CSC arrays after checking them: `indptr` starts at 0,
    /// never decreases and ends at the entry count, the two entry arrays
    /// have equal length, and every column's users strictly increase below
    /// `num_users`. The column sums are derived.
    fn from_parts(
        num_users: usize,
        indptr: Vec<usize>,
        users: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, String> {
        if indptr.first() != Some(&0) || indptr.last() != Some(&users.len()) {
            return Err("sparse interest: indptr must run from 0 to the entry count".into());
        }
        if users.len() != values.len() {
            return Err("sparse interest: user and value arrays differ in length".into());
        }
        for (item, w) in indptr.windows(2).enumerate() {
            let col = users
                .get(w[0]..w[1])
                .ok_or_else(|| format!("sparse interest: item {item}: indptr is not monotone"))?;
            if col.windows(2).any(|p| p[0] >= p[1]) {
                return Err(format!("sparse interest: item {item}: users do not increase"));
            }
            if col.last().is_some_and(|&u| u as usize >= num_users) {
                return Err(format!("sparse interest: item {item}: user out of range"));
            }
        }
        let mut s = Self { num_users, indptr, users, values, col_sums: Vec::new() };
        s.refresh_all_sums();
        Ok(s)
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Number of users (rows).
    #[inline]
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of items (columns).
    #[inline]
    pub fn num_items(&self) -> usize {
        self.indptr.len() - 1
    }

    /// One item's column as parallel `(user-index, value)` slices — the raw
    /// form the scoring kernel's sparse loop streams over.
    #[inline]
    pub fn column_slices(&self, item: usize) -> (&[u32], &[f64]) {
        let (a, b) = (self.indptr[item], self.indptr[item + 1]);
        (&self.users[a..b], &self.values[a..b])
    }

    /// Recomputes one cached column sum from storage.
    fn refresh_sum(&mut self, item: usize) {
        let (a, b) = (self.indptr[item], self.indptr[item + 1]);
        self.col_sums[item] = stored_sum(&self.values[a..b]);
    }

    /// Recomputes every cached column sum (used after whole-matrix rebuilds).
    fn refresh_all_sums(&mut self) {
        self.col_sums = (0..self.num_items())
            .map(|i| stored_sum(&self.values[self.indptr[i]..self.indptr[i + 1]]))
            .collect();
    }

    /// Value lookup by binary search; absent entries are `0.0`.
    pub fn value(&self, item: usize, user: usize) -> f64 {
        assert!(user < self.num_users, "user {user} out of range");
        let (users, values) = self.column_slices(item);
        match users.binary_search(&(user as u32)) {
            Ok(i) => values[i],
            Err(_) => 0.0,
        }
    }

    /// Appends one item column (dense input; zeros are dropped). See
    /// [`InterestMatrix::push_item`].
    pub fn push_item(&mut self, column: &[f64]) {
        assert_eq!(column.len(), self.num_users, "column length must equal user count");
        let before = self.values.len();
        for (u, &v) in column.iter().enumerate() {
            if v != 0.0 {
                self.users.push(u as u32);
                self.values.push(v);
            }
        }
        self.indptr.push(self.users.len());
        self.col_sums.push(stored_sum(&self.values[before..]));
    }

    /// Removes one item column. See [`InterestMatrix::remove_item`].
    pub fn remove_item(&mut self, item: usize) {
        assert!(item < self.num_items(), "item {item} out of range");
        let (a, b) = (self.indptr[item], self.indptr[item + 1]);
        self.users.drain(a..b);
        self.values.drain(a..b);
        self.indptr.remove(item + 1);
        self.col_sums.remove(item);
        for p in self.indptr.iter_mut().skip(item + 1) {
            *p -= b - a;
        }
    }

    /// Sets one value, inserting/overwriting/dropping the stored non-zero.
    /// See [`InterestMatrix::set_value`].
    pub fn set_value(&mut self, item: usize, user: usize, value: f64) {
        assert!(item < self.num_items(), "item {item} out of range");
        assert!(user < self.num_users, "user {user} out of range");
        let (a, b) = (self.indptr[item], self.indptr[item + 1]);
        match self.users[a..b].binary_search(&(user as u32)) {
            Ok(i) if value != 0.0 => self.values[a + i] = value,
            Ok(i) => {
                self.users.remove(a + i);
                self.values.remove(a + i);
                for p in self.indptr.iter_mut().skip(item + 1) {
                    *p -= 1;
                }
            }
            Err(_) if value == 0.0 => {}
            Err(i) => {
                self.users.insert(a + i, user as u32);
                self.values.insert(a + i, value);
                for p in self.indptr.iter_mut().skip(item + 1) {
                    *p += 1;
                }
            }
        }
        self.refresh_sum(item);
    }

    /// Appends new users (zeros dropped). New users receive the largest
    /// indices, so their non-zeros land at every column's tail in order.
    /// See [`InterestMatrix::append_users`].
    pub fn append_users(&mut self, rows: &[Vec<f64>]) {
        let num_items = self.num_items();
        for row in rows {
            assert_eq!(row.len(), num_items, "user row length must equal item count");
        }
        let mut users = Vec::with_capacity(self.users.len());
        let mut values = Vec::with_capacity(self.values.len());
        let mut indptr = Vec::with_capacity(self.indptr.len());
        indptr.push(0);
        for item in 0..num_items {
            let (old_u, old_v) = self.column_slices(item);
            users.extend_from_slice(old_u);
            values.extend_from_slice(old_v);
            for (j, row) in rows.iter().enumerate() {
                if row[item] != 0.0 {
                    users.push((self.num_users + j) as u32);
                    values.push(row[item]);
                }
            }
            indptr.push(users.len());
        }
        self.users = users;
        self.values = values;
        self.indptr = indptr;
        self.num_users += rows.len();
        self.refresh_all_sums();
    }

    /// Removes users, remapping the surviving indices down. See
    /// [`InterestMatrix::remove_users`].
    pub fn remove_users(&mut self, users: &[usize]) {
        let keep = user_keep_mask(self.num_users, users);
        // remap[u] = u's new index (meaningful only where keep[u]).
        let mut remap = vec![0u32; self.num_users];
        let mut next = 0u32;
        for (u, &k) in keep.iter().enumerate() {
            remap[u] = next;
            if k {
                next += 1;
            }
        }
        let mut new_users = Vec::with_capacity(self.users.len());
        let mut new_values = Vec::with_capacity(self.values.len());
        let mut indptr = Vec::with_capacity(self.indptr.len());
        indptr.push(0);
        for item in 0..self.num_items() {
            let (old_u, old_v) = self.column_slices(item);
            for (&u, &v) in old_u.iter().zip(old_v) {
                if keep[u as usize] {
                    new_users.push(remap[u as usize]);
                    new_values.push(v);
                }
            }
            indptr.push(new_users.len());
        }
        self.users = new_users;
        self.values = new_values;
        self.indptr = indptr;
        self.num_users -= users.len();
        self.refresh_all_sums();
    }

    /// Approximate resident bytes (element counts × element sizes; allocator
    /// slack excluded so the figure is deterministic).
    pub fn heap_bytes(&self) -> usize {
        (self.indptr.len() + self.values.len() + self.col_sums.len()) * 8 + self.users.len() * 4
    }

    /// Drops any stored exact zeros (reachable only via deserialized data —
    /// every mutation path drops them as it goes). Returns the number of
    /// entries dropped. See [`InterestMatrix::canonicalize`].
    pub fn canonicalize(&mut self) -> usize {
        let before = self.values.len();
        if !self.values.contains(&0.0) {
            return 0;
        }
        let mut users = Vec::with_capacity(before);
        let mut values = Vec::with_capacity(before);
        let mut indptr = Vec::with_capacity(self.indptr.len());
        indptr.push(0);
        for item in 0..self.num_items() {
            let (old_u, old_v) = self.column_slices(item);
            for (&u, &v) in old_u.iter().zip(old_v) {
                if v != 0.0 {
                    users.push(u);
                    values.push(v);
                }
            }
            indptr.push(users.len());
        }
        self.users = users;
        self.values = values;
        self.indptr = indptr;
        self.refresh_all_sums();
        before - self.values.len()
    }
}

/// Incremental builder for [`SparseInterest`]. Entries may be pushed in any
/// order; `build` sorts and deduplicates (last write wins).
#[derive(Debug)]
pub struct SparseInterestBuilder {
    num_items: usize,
    num_users: usize,
    triplets: Vec<(u32, u32, f64)>,
}

impl SparseInterestBuilder {
    /// A builder for a matrix of the given shape.
    pub fn new(num_items: usize, num_users: usize) -> Self {
        Self { num_items, num_users, triplets: Vec::new() }
    }

    /// Adds one `(item, user) -> value` entry. Zero values are dropped.
    ///
    /// # Panics
    /// Panics if `item` or `user` is out of range.
    pub fn push(&mut self, item: usize, user: usize, value: f64) {
        assert!(item < self.num_items, "item {item} out of range");
        assert!(user < self.num_users, "user {user} out of range");
        if value != 0.0 {
            self.triplets.push((item as u32, user as u32, value));
        }
    }

    /// Finalizes into CSC form.
    pub fn build(mut self) -> SparseInterest {
        self.triplets.sort_unstable_by_key(|&(i, u, _)| (i, u));
        // Last write wins on duplicates.
        self.triplets.dedup_by(|later, earlier| {
            if later.0 == earlier.0 && later.1 == earlier.1 {
                earlier.2 = later.2;
                true
            } else {
                false
            }
        });

        let mut indptr = Vec::with_capacity(self.num_items + 1);
        let mut users = Vec::with_capacity(self.triplets.len());
        let mut values = Vec::with_capacity(self.triplets.len());
        let mut pos = 0usize;
        indptr.push(0);
        for item in 0..self.num_items as u32 {
            while pos < self.triplets.len() && self.triplets[pos].0 == item {
                users.push(self.triplets[pos].1);
                values.push(self.triplets[pos].2);
                pos += 1;
            }
            indptr.push(users.len());
        }
        let mut out =
            SparseInterest { num_users: self.num_users, indptr, users, values, col_sums: vec![] };
        out.refresh_all_sums();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dense() -> DenseInterest {
        // 2 items × 3 users
        DenseInterest::from_raw(2, 3, vec![0.9, 0.0, 0.2, 0.3, 0.6, 0.0]).unwrap()
    }

    /// The `(user, µ)` sequence a walk over positions `range` visits.
    fn walk_part(
        m: &InterestMatrix,
        item: usize,
        range: std::ops::Range<usize>,
    ) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        m.for_each_in_part(item, range, |u, v| out.push((u, v)));
        out
    }

    fn walk(m: &InterestMatrix, item: usize) -> Vec<(usize, f64)> {
        walk_part(m, item, 0..m.column_len(item))
    }

    #[test]
    fn dense_value_and_column() {
        let d = sample_dense();
        assert_eq!(d.value(0, 0), 0.9);
        assert_eq!(d.value(1, 1), 0.6);
        let col = walk(&InterestMatrix::from(d), 0);
        assert_eq!(col, vec![(0, 0.9), (1, 0.0), (2, 0.2)]);
    }

    #[test]
    fn dense_column_len_is_all_users() {
        let m = InterestMatrix::from(sample_dense());
        assert_eq!(m.column_len(0), 3);
        assert_eq!(m.column_len(1), 3);
    }

    #[test]
    fn sparse_skips_zeros() {
        let m = InterestMatrix::from(sample_dense()).to_sparse();
        assert_eq!(m.nnz(), 4);
        let m = InterestMatrix::from(m);
        let col = walk(&m, 0);
        assert_eq!(col, vec![(0, 0.9), (2, 0.2)]);
        assert_eq!(m.column_len(0), 2);
        assert_eq!(m.value(0, 1), 0.0);
        assert_eq!(m.value(1, 1), 0.6);
    }

    #[test]
    fn dense_sparse_roundtrip_preserves_values() {
        let d = sample_dense();
        let roundtrip = InterestMatrix::from(d.clone()).to_sparse();
        let back = InterestMatrix::from(roundtrip).to_dense();
        assert_eq!(d, back);
    }

    #[test]
    fn column_sum_agrees_across_layouts() {
        let dense = InterestMatrix::from(sample_dense());
        let sparse = InterestMatrix::from(dense.to_sparse());
        for item in 0..2 {
            assert!((dense.column_sum(item) - sparse.column_sum(item)).abs() < 1e-12);
        }
    }

    /// The cached `column_sum` must stay bitwise equal to a fresh
    /// left-to-right recompute of the stored column through every mutation,
    /// in both layouts — the O(1) lookup the scoring engine's bound-first
    /// gate relies on.
    #[test]
    fn column_sum_cache_survives_mutations() {
        let assert_cache = |m: &InterestMatrix, what: &str| {
            for item in 0..m.num_items() {
                let recomputed: f64 = {
                    let mut s = 0.0;
                    m.for_each(item, |_, v| s += v);
                    s
                };
                assert_eq!(
                    m.column_sum(item).to_bits(),
                    recomputed.to_bits(),
                    "{what}: cached sum of item {item} drifted"
                );
            }
        };
        for mut m in [
            InterestMatrix::from(sample_dense()),
            InterestMatrix::from(sample_dense().to_sparse_helper()),
            InterestMatrix::from(sample_dense()).convert_to(StorageKind::Compressed),
        ] {
            assert_cache(&m, "fresh");
            m.push_item(&[0.0, 0.5, 0.8]);
            assert_cache(&m, "push_item");
            m.set_value(0, 1, 0.4);
            m.set_value(2, 1, 0.0);
            assert_cache(&m, "set_value");
            m.append_users(&[vec![0.1, 0.0, 0.2]]);
            assert_cache(&m, "append_users");
            m.remove_item(1);
            assert_cache(&m, "remove_item");
            m.remove_users(&[0, 3]);
            assert_cache(&m, "remove_users");
        }
    }

    #[test]
    fn builder_handles_unordered_and_duplicate_pushes() {
        let mut b = SparseInterestBuilder::new(2, 4);
        b.push(1, 3, 0.5);
        b.push(0, 2, 0.1);
        b.push(0, 0, 0.7);
        b.push(0, 2, 0.4); // overwrite
        b.push(1, 1, 0.0); // dropped
        let s = b.build();
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.value(0, 2), 0.4);
        assert_eq!(s.value(0, 0), 0.7);
        assert_eq!(s.value(1, 3), 0.5);
        assert_eq!(s.value(1, 1), 0.0);
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let d = DenseInterest::from_raw(1, 2, vec![0.5, 1.5]).unwrap();
        let err = InterestMatrix::from(d).validate().unwrap_err();
        assert!(matches!(err, BuildError::InterestOutOfRange { .. }));
    }

    #[test]
    fn validate_accepts_bounds() {
        let d = DenseInterest::from_raw(1, 2, vec![0.0, 1.0]).unwrap();
        assert!(InterestMatrix::from(d).validate().is_ok());
    }

    #[test]
    fn from_raw_rejects_wrong_len() {
        assert!(matches!(
            DenseInterest::from_raw(2, 2, vec![0.0; 3]),
            Err(BuildError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn from_fn_layout() {
        let d = DenseInterest::from_fn(2, 2, |item, user| (item * 10 + user) as f64 / 100.0);
        assert_eq!(d.value(1, 0), 0.10);
        assert_eq!(d.value(0, 1), 0.01);
    }

    #[test]
    fn walk_visits_column_len_entries() {
        let dense = InterestMatrix::from(sample_dense());
        let sparse = InterestMatrix::from(dense.to_sparse());
        let compressed = InterestMatrix::from(dense.to_compressed());
        for m in [&dense, &sparse, &compressed] {
            for item in 0..2 {
                let len = m.column_len(item);
                assert_eq!(walk(m, item).len(), len);
                assert_eq!(walk_part(m, item, 1..len).len(), len - 1);
            }
        }
        assert_eq!(dense.column_len(0), 3);
        assert_eq!(sparse.column_len(0), 2);
    }

    /// The walk over any split of a column, and over the engine's
    /// `block_range` tiling, concatenates to the whole walk — on every
    /// layout, with columns spanning several 512-entry blocks (full,
    /// partial and empty ones).
    #[test]
    fn for_each_in_part_tiles_the_column() {
        use crate::parallel::{block_count, block_range, PAR_BLOCK};
        let small = InterestMatrix::from(sample_dense());
        let nu = 2 * PAR_BLOCK + 37;
        let wide = InterestMatrix::from(DenseInterest::from_fn(3, nu, |item, u| match item {
            0 => ((u % 7) + 1) as f64 / 8.0,
            1 if u / PAR_BLOCK == 1 => 0.0,
            _ if (u * 31 + item) % 5 == 0 => ((u % 3) + 1) as f64 / 4.0,
            _ => 0.0,
        }));
        for source in [&small, &wide] {
            for kind in StorageKind::ALL {
                let m = source.convert_to(kind);
                for item in 0..m.num_items() {
                    let len = m.column_len(item);
                    let whole = walk(&m, item);
                    assert_eq!(whole.len(), len, "{kind} item {item}");
                    for split in (0..=len).step_by(1 + len / 16).chain([len]) {
                        let mut tiled = walk_part(&m, item, 0..split);
                        tiled.extend(walk_part(&m, item, split..len));
                        assert_eq!(tiled, whole, "{kind} item {item} split {split}");
                    }
                    let mut blocks = Vec::new();
                    for b in 0..block_count(len) {
                        blocks.extend(walk_part(&m, item, block_range(b, len)));
                    }
                    assert_eq!(blocks, whole, "{kind} item {item}: block tiling");
                }
            }
        }
    }

    /// Every mutation, applied to both layouts, must leave them agreeing
    /// value-for-value (the delta module relies on this to keep dense and
    /// sparse instances interchangeable under op streams).
    #[test]
    fn mutations_agree_across_layouts() {
        let mut dense = InterestMatrix::from(sample_dense());
        let mut sparse = InterestMatrix::from(sample_dense().to_sparse_helper());
        let mut compressed =
            InterestMatrix::from(sample_dense()).convert_to(StorageKind::Compressed);
        let assert_agree = |d: &InterestMatrix, s: &InterestMatrix, what: &str| {
            assert_eq!(d.num_items(), s.num_items(), "{what}: item counts");
            assert_eq!(d.num_users(), s.num_users(), "{what}: user counts");
            for item in 0..d.num_items() {
                for user in 0..d.num_users() {
                    assert_eq!(d.value(item, user), s.value(item, user), "{what} ({item},{user})");
                }
            }
        };
        for m in [&mut dense, &mut sparse, &mut compressed] {
            m.push_item(&[0.0, 0.5, 0.8]);
            m.set_value(0, 1, 0.4); // insert (was 0)
            m.set_value(2, 1, 0.0); // drop
            m.set_value(1, 0, 0.9); // overwrite
            m.append_users(&[vec![0.1, 0.0, 0.2], vec![0.0, 0.0, 0.0]]);
            m.remove_item(1);
            m.remove_users(&[0, 3]);
        }
        assert_agree(&dense, &sparse, "after mutation chain (sparse)");
        assert_agree(&dense, &compressed, "after mutation chain (compressed)");
        assert_eq!(dense.num_items(), 2);
        assert_eq!(dense.num_users(), 3);
        // Mutated sparse/compressed must equal a from-scratch conversion of
        // the mutated dense (canonical form, zeros dropped).
        assert_eq!(dense.to_sparse(), sparse.to_sparse());
        assert_eq!(dense.to_compressed(), compressed.to_compressed());
    }

    #[test]
    fn push_and_remove_item_shift_ids() {
        let mut m = InterestMatrix::from(sample_dense());
        m.push_item(&[0.7, 0.0, 0.1]);
        assert_eq!(m.num_items(), 3);
        assert_eq!(m.value(2, 0), 0.7);
        m.remove_item(0);
        // Former items 1, 2 are now 0, 1.
        assert_eq!(m.value(0, 1), 0.6);
        assert_eq!(m.value(1, 0), 0.7);
    }

    #[test]
    fn sparse_set_value_keeps_zero_drop_convention() {
        let mut s = InterestMatrix::from(sample_dense().to_sparse_helper());
        let nnz_before = s.column_len(0);
        s.set_value(0, 0, 0.0);
        assert_eq!(s.column_len(0), nnz_before - 1, "zeros must be dropped, not stored");
        s.set_value(0, 0, 0.0); // idempotent on absent entries
        assert_eq!(s.column_len(0), nnz_before - 1);
    }

    /// `set_value(.., 0.0)` is representation-invariant: whichever backend
    /// absorbs the write, converting all backends to canonical sparse form
    /// afterwards yields the identical matrix — the regression the
    /// `canonicalize` helper guards.
    #[test]
    fn set_zero_is_representation_invariant() {
        let mut dense = InterestMatrix::from(sample_dense());
        let mut sparse = InterestMatrix::from(sample_dense().to_sparse_helper());
        let mut compressed =
            InterestMatrix::from(sample_dense()).convert_to(StorageKind::Compressed);
        for m in [&mut dense, &mut sparse, &mut compressed] {
            m.set_value(0, 0, 0.0); // drop a stored non-zero
            m.set_value(1, 2, 0.0); // no-op on an absent/zero entry
            assert_eq!(m.canonicalize(), 0, "mutation paths must already drop zeros");
        }
        assert_eq!(dense.to_sparse(), sparse.to_sparse());
        assert_eq!(dense.to_sparse(), compressed.to_sparse());
        assert_eq!(dense.to_compressed(), compressed.to_compressed());
        assert_eq!(dense.value(0, 0), 0.0);
    }

    /// Deserialized sparse data may carry stored exact zeros; `canonicalize`
    /// drops them and restores equality with the canonical form.
    #[test]
    fn canonicalize_drops_stored_zeros() {
        let mut s = sample_dense().to_sparse_helper();
        // Hand-build a stored zero the mutation API can't produce.
        let json = serde_json::to_string(&s).unwrap().replacen("0.9", "0.0", 1);
        let mut tainted: SparseInterest = serde_json::from_str(&json).unwrap();
        assert_eq!(tainted.nnz(), s.nnz(), "the zero is stored before canonicalization");
        let mut m = InterestMatrix::from(tainted.clone());
        assert_eq!(m.canonicalize(), 1);
        tainted.canonicalize();
        s.set_value(0, 0, 0.0);
        assert_eq!(tainted, s);
        assert_eq!(m, InterestMatrix::from(s));
    }

    /// Dense data serialized with a `-0.0` (as builds that kept signed
    /// zeros wrote it) loads with unsigned zeros and re-derived sums; a
    /// data length that does not fit the shape is an error, not a panic.
    #[test]
    fn dense_load_unsigns_zeros() {
        let json =
            r#"{"num_items":2,"num_users":2,"data":[-0.0,-0.0,0.5,-0.0],"col_sums":[0.0,0.5]}"#;
        let d: DenseInterest = serde_json::from_str(json).unwrap();
        let m = InterestMatrix::from(d);
        assert_eq!(m.value(0, 0).to_bits(), 0.0f64.to_bits());
        assert_eq!(m.value(1, 1).to_bits(), 0.0f64.to_bits());
        assert_eq!(m.column_sum(0).to_bits(), 0.0f64.to_bits());
        assert_eq!(m.column_sum(1).to_bits(), 0.5f64.to_bits());
        let short = r#"{"num_items":2,"num_users":2,"data":[0.5],"col_sums":[0.5,0.0]}"#;
        assert!(serde_json::from_str::<DenseInterest>(short).is_err());
    }

    /// Loading checks the CSC arrays instead of trusting them, and
    /// re-derives the cached column sums.
    #[test]
    fn sparse_load_is_checked() {
        let good = sample_dense().to_sparse_helper();
        let load = |s: &SparseInterest| {
            serde_json::from_str::<SparseInterest>(&serde_json::to_string(s).unwrap())
        };
        assert_eq!(load(&good).unwrap(), good);
        type Tamper = fn(&mut SparseInterest);
        let cases: [(&str, Tamper); 6] = [
            ("indptr not from 0", |s| s.indptr[0] = 1),
            ("indptr past the end", |s| *s.indptr.last_mut().unwrap() += 1),
            ("indptr not monotone", |s| s.indptr[1] = s.users.len() + 1),
            ("value array short", |s| {
                s.values.pop();
            }),
            ("users do not increase", |s| s.users.swap(0, 1)),
            ("user past |U|", |s| s.users[1] = s.num_users as u32),
        ];
        for (what, tamper) in cases {
            let mut s = good.clone();
            tamper(&mut s);
            assert!(load(&s).is_err(), "{what}: loaded");
        }
        let mut stale = good.clone();
        stale.col_sums[0] = 7.0;
        assert_eq!(load(&stale).unwrap(), good);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn remove_users_rejects_unsorted() {
        let mut m = InterestMatrix::from(sample_dense());
        m.remove_users(&[1, 0]);
    }

    impl DenseInterest {
        fn to_sparse_helper(&self) -> SparseInterest {
            InterestMatrix::from(self.clone()).to_sparse()
        }
    }

    #[test]
    fn empty_sparse_column() {
        let b = SparseInterestBuilder::new(3, 2);
        let s = b.build();
        assert_eq!(s.num_items(), 3);
        let m = InterestMatrix::from(s);
        assert!(walk(&m, 1).is_empty());
        assert_eq!(m.column_sum(1), 0.0);
    }
}
