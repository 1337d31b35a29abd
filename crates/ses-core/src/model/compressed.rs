//! Dictionary-encoded, block-compressed columnar interest storage — the
//! third [`super::InterestMatrix`] backend, built for the 10⁵–10⁶-user axis.
//!
//! The dataset generators draw interest values from small alphabets (the
//! quantized scale generators cap them explicitly), so a column is mostly
//! repetitions of a few hundred distinct doubles. [`CompressedInterest`]
//! stores, per item:
//!
//! * one global **dictionary** of distinct non-zero values (`Vec<f64>`,
//!   first-use order) and a `u16`/`u32` **code** per stored entry
//!   ([`CodeVec`] starts narrow and promotes to wide only if the dictionary
//!   outgrows `u16`);
//! * entries grouped into **512-user-aligned blocks** (the same constant as
//!   the engine's reduction geometry, [`crate::parallel::PAR_BLOCK`]). A
//!   *full* block (512 stored entries) stores **no user indices at all** —
//!   the user is `base + position` — while a partial block keeps one `u16`
//!   local offset per entry. On a dense quantized column this is ~2 bytes
//!   per entry against the sparse layout's 12 (`u32` user + `f64` value);
//! * a per-item block directory with per-block non-zero counts, and the
//!   same cached column sums as the other layouts.
//!
//! **Bit-identity.** A column decodes to exactly the `(user, µ)` sequence
//! the sparse layout stores — same values (codes are exact `f64` bit
//! patterns, never re-derived), same ascending-user order, same positional
//! indexing for [`super::InterestMatrix::for_each_in_part`]. The cached
//! column sum is the identical flat left-to-right
//! [`stored_sum`](super::interest::stored_sum) over the decoded sequence. So every consumer of the `InterestMatrix` API — the
//! fused scoring kernel, the delta layer, the stream repairer, the
//! constraint gate — produces the same output bits on `Compressed` as on
//! `Sparse`, at any thread count.
//!
//! **Mutation.** `push_item` appends one column incrementally (the
//! streaming-generation hot path). A point edit (`set_value`, the path of
//! every `ShiftInterest`) rewrites only the touched 512-user block: it
//! overwrites a stored code, or splices one code (plus one `u16` offset
//! in a partial block) in or out, converting between full and partial
//! blocks and adding or dropping the block as needed, then shifts the
//! later blocks' starts and the pointer tails and refreshes that one
//! column's cached sum. New values are interned into the existing
//! dictionary and never renumbered, so a point edit can leave dead
//! dictionary entries behind. The O(nnz) ops (`remove_item`, user churn,
//! [`CompressedInterest::canonicalize`]) decode and re-encode the matrix,
//! re-interning the dictionary in canonical first-use order, which drops
//! dead entries. A point edit runs that re-encode itself on one fixed rule
//! (see [`COMPACT_MIN_DICT`]) that reads only serialized fields, so a
//! snapshot load plus a log replay rebuilds the same bytes. Two histories
//! can therefore hold the same values in different dictionary orders;
//! equality compares decoded values, not encodings.

use super::interest::user_keep_mask;
use crate::parallel::PAR_BLOCK;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Users per compressed block — deliberately the engine's reduction-block
/// constant so the shard unit of a future multi-process split matches the
/// sweep geometry.
pub const COMPRESSED_BLOCK: usize = PAR_BLOCK;

/// The dead-code compaction rule. When a point edit appends a value that
/// brings the dictionary to a power of two of at least this size, the
/// matrix counts its live codes in one pass and re-encodes canonically if
/// dead entries outnumber live ones. Dictionaries of quantized data never
/// get there; an unbounded stream of fresh values keeps the dictionary
/// below twice its live size plus this floor.
pub const COMPACT_MIN_DICT: usize = 1024;

/// The physical layout of an interest matrix, selectable per instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StorageKind {
    /// Item-major dense matrix — the faithful-reproduction layout.
    Dense,
    /// CSC non-zero lists — the EBSN-sparsity layout.
    Sparse,
    /// Dictionary-encoded 512-aligned compressed blocks — the scale layout.
    Compressed,
}

impl StorageKind {
    /// All kinds, in declaration order.
    pub const ALL: [StorageKind; 3] = [Self::Dense, Self::Sparse, Self::Compressed];

    /// Canonical lowercase name (the `--storage` flag vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            Self::Dense => "dense",
            Self::Sparse => "sparse",
            Self::Compressed => "compressed",
        }
    }

    /// Parses a canonical name; `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "dense" => Some(Self::Dense),
            "sparse" => Some(Self::Sparse),
            "compressed" => Some(Self::Compressed),
            _ => None,
        }
    }
}

impl std::fmt::Display for StorageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-entry value codes: narrow while the dictionary fits `u16`, promoted
/// to wide exactly once if it doesn't (quantized generators never do).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum CodeVec {
    /// `u16` codes — 2 bytes per stored entry.
    Narrow(Vec<u16>),
    /// `u32` codes — for dictionaries beyond 65 536 distinct values.
    Wide(Vec<u32>),
}

impl CodeVec {
    fn new() -> Self {
        Self::Narrow(Vec::new())
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            Self::Narrow(v) => v.len(),
            Self::Wide(v) => v.len(),
        }
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> u32 {
        match self {
            Self::Narrow(v) => v[i] as u32,
            Self::Wide(v) => v[i],
        }
    }

    /// Promotes narrow → wide if `code` doesn't fit `u16`.
    fn widen_for(&mut self, code: u32) {
        if let Self::Narrow(v) = self {
            if code > u16::MAX as u32 {
                *self = Self::Wide(v.iter().map(|&c| c as u32).collect());
            }
        }
    }

    /// Appends one code, promoting narrow → wide on the first code that
    /// doesn't fit.
    fn push(&mut self, code: u32) {
        self.widen_for(code);
        match self {
            Self::Narrow(v) => v.push(code as u16),
            Self::Wide(v) => v.push(code),
        }
    }

    /// Overwrites the code at `i`, promoting if it doesn't fit.
    fn set(&mut self, i: usize, code: u32) {
        self.widen_for(code);
        match self {
            Self::Narrow(v) => v[i] = code as u16,
            Self::Wide(v) => v[i] = code,
        }
    }

    /// Inserts a code at `i`, promoting if it doesn't fit.
    fn insert(&mut self, i: usize, code: u32) {
        self.widen_for(code);
        match self {
            Self::Narrow(v) => v.insert(i, code as u16),
            Self::Wide(v) => v.insert(i, code),
        }
    }

    fn remove(&mut self, i: usize) {
        match self {
            Self::Narrow(v) => {
                v.remove(i);
            }
            Self::Wide(v) => {
                v.remove(i);
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Self::Narrow(v) => v.len() * 2,
            Self::Wide(v) => v.len() * 4,
        }
    }
}

/// One non-empty 512-user block of one item's column.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct ColumnBlock {
    /// User-range index: the block covers users
    /// `[block · 512, block · 512 + 512)`.
    block: u32,
    /// Stored entries in this block (`1..=512`). `len == 512` means the
    /// block is full and user indices are implicit (`base + position`).
    len: u16,
    /// Absolute index of the block's first entry in `codes`.
    entry_start: usize,
    /// Absolute index of the block's first local offset in `offsets`
    /// (unused — equal to the next block's — when the block is full).
    offset_start: usize,
}

impl ColumnBlock {
    #[inline]
    fn base(&self) -> usize {
        self.block as usize * COMPRESSED_BLOCK
    }

    #[inline]
    fn entry_end(&self) -> usize {
        self.entry_start + self.len as usize
    }

    #[inline]
    fn is_full(&self) -> bool {
        self.len as usize == COMPRESSED_BLOCK
    }
}

/// Transient dictionary index used while encoding — the matrix itself never
/// holds the hash map, only the plain `Vec<f64>` dictionary.
#[derive(Default)]
struct Interner {
    by_bits: HashMap<u64, u32>,
}

impl Interner {
    fn for_dict(dict: &[f64]) -> Self {
        let by_bits = dict.iter().enumerate().map(|(i, v)| (v.to_bits(), i as u32)).collect();
        Self { by_bits }
    }

    #[inline]
    fn intern(&mut self, dict: &mut Vec<f64>, value: f64) -> u32 {
        *self.by_bits.entry(value.to_bits()).or_insert_with(|| {
            dict.push(value);
            (dict.len() - 1) as u32
        })
    }
}

/// Dictionary-encoded, 512-aligned block-compressed interest storage. See
/// the module docs for the layout and the bit-identity argument.
///
/// Equality is value equality: the same shape, the same decoded
/// `(user, µ bits)` sequence per column and the same cached-sum bits. Two
/// matrices built by different edit histories can be equal while their
/// dictionaries differ in order or in dead entries.
#[derive(Debug, Clone, Serialize)]
pub struct CompressedInterest {
    num_users: usize,
    /// Distinct non-zero values, in first-use (encode-order) position; codes
    /// index into it. Exact `f64` bit patterns — never re-derived.
    dict: Vec<f64>,
    /// One code per stored entry, all items concatenated in column order.
    codes: CodeVec,
    /// Local user offsets (`user - block base`) of entries in **partial**
    /// blocks only, in the same global order; full blocks store none.
    offsets: Vec<u16>,
    /// Non-empty blocks, grouped by item, ascending block index within.
    blocks: Vec<ColumnBlock>,
    /// `block_ptr[item]..block_ptr[item+1]` delimits item's blocks.
    block_ptr: Vec<usize>,
    /// `entry_ptr[item]..entry_ptr[item+1]` delimits item's entries.
    entry_ptr: Vec<usize>,
    /// Cached per-item column sums — the same bitwise left-to-right
    /// [`stored_sum`](super::interest::stored_sum) invariant as the dense
    /// and sparse layouts.
    col_sums: Vec<f64>,
}

/// The serialized layout of [`CompressedInterest`].
#[derive(Deserialize)]
struct CompressedInterestRepr {
    num_users: usize,
    dict: Vec<f64>,
    codes: CodeVec,
    offsets: Vec<u16>,
    blocks: Vec<ColumnBlock>,
    block_ptr: Vec<usize>,
    entry_ptr: Vec<usize>,
}

// Loading runs the structural half of `check_consistency`, so a malformed
// file is an error rather than a later out-of-bounds panic, and replaces
// the stored column sums by a recompute (bitwise what a well-formed file
// holds).
impl Deserialize for CompressedInterest {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let r = CompressedInterestRepr::from_value(v)?;
        let mut c = Self {
            num_users: r.num_users,
            dict: r.dict,
            codes: r.codes,
            offsets: r.offsets,
            blocks: r.blocks,
            block_ptr: r.block_ptr,
            entry_ptr: r.entry_ptr,
            col_sums: Vec::new(),
        };
        c.check_structure()
            .map_err(|e| serde::Error::custom(format!("compressed interest: {e}")))?;
        c.col_sums = (0..c.num_items()).map(|item| c.fold_column(item)).collect();
        Ok(c)
    }
}

impl CompressedInterest {
    /// An empty matrix (zero items) over the given user count.
    pub fn empty(num_users: usize) -> Self {
        Self {
            num_users,
            dict: Vec::new(),
            codes: CodeVec::new(),
            offsets: Vec::new(),
            blocks: Vec::new(),
            block_ptr: vec![0],
            entry_ptr: vec![0],
            col_sums: Vec::new(),
        }
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.codes.len()
    }

    /// Number of distinct dictionary values currently interned.
    #[inline]
    pub fn dict_len(&self) -> usize {
        self.dict.len()
    }

    /// Number of users (rows).
    #[inline]
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of items (columns).
    #[inline]
    pub fn num_items(&self) -> usize {
        self.entry_ptr.len() - 1
    }

    /// Stored entries of one item's column.
    #[inline]
    pub fn column_len(&self, item: usize) -> usize {
        self.entry_ptr[item + 1] - self.entry_ptr[item]
    }

    /// Cached column sum (O(1)).
    #[inline]
    pub fn column_sum(&self, item: usize) -> f64 {
        self.col_sums[item]
    }

    /// Approximate resident bytes of the backing arrays (element counts ×
    /// element sizes; allocator slack excluded so the figure is
    /// deterministic).
    pub fn heap_bytes(&self) -> usize {
        self.dict.len() * 8
            + self.codes.heap_bytes()
            + self.offsets.len() * 2
            + self.blocks.len() * std::mem::size_of::<ColumnBlock>()
            + (self.block_ptr.len() + self.entry_ptr.len()) * 8
            + self.col_sums.len() * 8
    }

    /// Value lookup; absent entries are `0.0`.
    ///
    /// # Panics
    /// Panics if `item` or `user` is out of range.
    pub fn value(&self, item: usize, user: usize) -> f64 {
        assert!(user < self.num_users, "user {user} out of range");
        let blocks = &self.blocks[self.block_ptr[item]..self.block_ptr[item + 1]];
        let want = (user / COMPRESSED_BLOCK) as u32;
        let Ok(b) = blocks.binary_search_by_key(&want, |b| b.block) else {
            return 0.0;
        };
        let b = &blocks[b];
        let local = user - b.base();
        if b.is_full() {
            return self.dict[self.codes.get(b.entry_start + local) as usize];
        }
        let offs = &self.offsets[b.offset_start..b.offset_start + b.len as usize];
        match offs.binary_search(&(local as u16)) {
            Ok(i) => self.dict[self.codes.get(b.entry_start + i) as usize],
            Err(_) => 0.0,
        }
    }

    /// The block directory index (into `self.blocks`) of the block holding
    /// absolute entry `pos` of `item`. `pos` must lie inside the item.
    fn block_of(&self, item: usize, pos: usize) -> usize {
        let (lo, hi) = (self.block_ptr[item], self.block_ptr[item + 1]);
        // First block whose entry range ends beyond pos.
        lo + self.blocks[lo..hi].partition_point(|b| b.entry_end() <= pos)
    }

    /// Streams `(user, µ)` over positions `range` of `item`'s column, one
    /// code-width dispatch **per block** rather than per entry — the
    /// compressed arm of [`super::InterestMatrix::for_each_in_part`]. The
    /// iteration order is the sparse layout's, so the fixed-block
    /// reduction sees the same sequence of addends.
    ///
    /// # Panics
    /// Panics if `range` exceeds `column_len(item)`.
    pub(crate) fn for_each_in_part(
        &self,
        item: usize,
        range: std::ops::Range<usize>,
        mut f: impl FnMut(usize, f64),
    ) {
        assert!(range.end <= self.column_len(item), "range exceeds column length");
        if range.start >= range.end {
            return;
        }
        let mut pos = self.entry_ptr[item] + range.start;
        let end = self.entry_ptr[item] + range.end;
        let mut bi = self.block_of(item, pos);
        while pos < end {
            let b = &self.blocks[bi];
            let stop = end.min(b.entry_end());
            let base = b.base();
            if b.is_full() {
                let rel0 = pos - b.entry_start;
                match &self.codes {
                    CodeVec::Narrow(codes) => {
                        for (i, &c) in codes[pos..stop].iter().enumerate() {
                            f(base + rel0 + i, self.dict[c as usize]);
                        }
                    }
                    CodeVec::Wide(codes) => {
                        for (i, &c) in codes[pos..stop].iter().enumerate() {
                            f(base + rel0 + i, self.dict[c as usize]);
                        }
                    }
                }
            } else {
                let off0 = b.offset_start + (pos - b.entry_start);
                let offs = &self.offsets[off0..off0 + (stop - pos)];
                match &self.codes {
                    CodeVec::Narrow(codes) => {
                        for (&o, &c) in offs.iter().zip(&codes[pos..stop]) {
                            f(base + o as usize, self.dict[c as usize]);
                        }
                    }
                    CodeVec::Wide(codes) => {
                        for (&o, &c) in offs.iter().zip(&codes[pos..stop]) {
                            f(base + o as usize, self.dict[c as usize]);
                        }
                    }
                }
            }
            pos = stop;
            bi += 1;
        }
    }

    /// Encodes one item's sorted non-zero column at the arrays' tails and
    /// pushes its block directory, pointers, and cached sum. The core of
    /// both the incremental `push_item` and the rebuild paths.
    fn encode_column(
        &mut self,
        entries: impl Iterator<Item = (u32, f64)>,
        interner: &mut Interner,
    ) {
        let item_block_start = self.blocks.len();
        let mut sum = 0.0;
        let mut prev: Option<u32> = None;
        for (user, value) in entries {
            assert!((user as usize) < self.num_users, "user {user} out of range");
            assert!(prev.is_none_or(|p| p < user), "column entries must be strictly increasing");
            prev = Some(user);
            debug_assert!(value != 0.0, "zeros are dropped before encoding");
            let block = user / COMPRESSED_BLOCK as u32;
            let local = (user as usize % COMPRESSED_BLOCK) as u16;
            // A new block starts on the item's first entry or when the user
            // crosses a 512 boundary (entries arrive in ascending user
            // order, so each block index appears as one contiguous run).
            let needs_new = self.blocks.len() == item_block_start
                || self.blocks.last().expect("item has blocks").block != block;
            if needs_new {
                self.blocks.push(ColumnBlock {
                    block,
                    len: 0,
                    entry_start: self.codes.len(),
                    offset_start: self.offsets.len(),
                });
            }
            let code = interner.intern(&mut self.dict, value);
            self.codes.push(code);
            self.offsets.push(local);
            let b = self.blocks.last_mut().expect("pushed above");
            b.len += 1;
            sum += value;
        }
        // Full blocks drop their offsets: implicit users. (Done per item,
        // after the fact, so the loop above stays branch-light.)
        self.compact_full_block_offsets();
        self.block_ptr.push(self.blocks.len());
        self.entry_ptr.push(self.codes.len());
        self.col_sums.push(sum);
    }

    /// Drops the stored offsets of every full block of the item currently
    /// being finalized, shifting later offsets down.
    fn compact_full_block_offsets(&mut self) {
        let item_block_start = *self.block_ptr.last().expect("block_ptr is never empty");
        let mut write = match self.blocks.get(item_block_start) {
            Some(b) => b.offset_start,
            None => return,
        };
        let mut read = write;
        for bi in item_block_start..self.blocks.len() {
            let (len, full) = {
                let b = &self.blocks[bi];
                (b.len as usize, b.is_full())
            };
            self.blocks[bi].offset_start = write;
            if full {
                read += len;
            } else {
                if read != write {
                    self.offsets.copy_within(read..read + len, write);
                }
                read += len;
                write += len;
            }
        }
        self.offsets.truncate(write);
    }

    /// Appends one item column (dense input; zeros dropped) — incremental,
    /// the streaming-generation hot path. See
    /// [`super::InterestMatrix::push_item`].
    pub fn push_item(&mut self, column: &[f64]) {
        assert_eq!(column.len(), self.num_users, "column length must equal user count");
        let mut interner = Interner::for_dict(&self.dict);
        let entries =
            column.iter().enumerate().filter(|(_, &v)| v != 0.0).map(|(u, &v)| (u as u32, v));
        self.encode_column(entries, &mut interner);
    }

    /// Decodes one column into its sorted `(user, value)` entry list.
    fn decode_column(&self, item: usize) -> Vec<(u32, f64)> {
        let mut col = Vec::with_capacity(self.column_len(item));
        self.for_each_in_part(item, 0..self.column_len(item), |u, v| col.push((u as u32, v)));
        col
    }

    /// Decodes every column into sorted `(user, value)` entry lists.
    fn decode_columns(&self) -> Vec<Vec<(u32, f64)>> {
        (0..self.num_items()).map(|item| self.decode_column(item)).collect()
    }

    /// Rebuilds in place from decoded columns, re-interning the dictionary
    /// in canonical first-use order (dead codes left by point edits are
    /// dropped). The O(nnz) mutations funnel through here; see the module
    /// docs.
    fn rebuild_from(&mut self, num_users: usize, columns: Vec<Vec<(u32, f64)>>) {
        let mut fresh = Self::empty(num_users);
        let mut interner = Interner::default();
        for col in columns {
            fresh.encode_column(col.into_iter().filter(|&(_, v)| v != 0.0), &mut interner);
        }
        *self = fresh;
    }

    /// Removes one item column. See [`super::InterestMatrix::remove_item`].
    pub fn remove_item(&mut self, item: usize) {
        assert!(item < self.num_items(), "item {item} out of range");
        let mut cols = self.decode_columns();
        cols.remove(item);
        self.rebuild_from(self.num_users, cols);
    }

    /// Sets one value, preserving the drop-exact-zeros convention. See
    /// [`super::InterestMatrix::set_value`].
    ///
    /// Rewrites only the touched block (see the module docs): a stored cell
    /// gets its code overwritten; otherwise one entry is spliced in or out.
    /// The column's cached sum is refolded over its decoded entries, so it
    /// stays bitwise the [`stored_sum`](super::interest::stored_sum) a
    /// re-encode would compute.
    pub fn set_value(&mut self, item: usize, user: usize, value: f64) {
        assert!(item < self.num_items(), "item {item} out of range");
        assert!(user < self.num_users, "user {user} out of range");
        let (lo, hi) = (self.block_ptr[item], self.block_ptr[item + 1]);
        let want = (user / COMPRESSED_BLOCK) as u32;
        let local = user % COMPRESSED_BLOCK;
        let grew = match self.blocks[lo..hi].binary_search_by_key(&want, |b| b.block) {
            Ok(rel) => {
                let bi = lo + rel;
                let b = self.blocks[bi];
                let slot = if b.is_full() {
                    Ok(local)
                } else {
                    self.offsets[b.offset_start..b.offset_start + b.len as usize]
                        .binary_search(&(local as u16))
                };
                match slot {
                    Ok(i) if value != 0.0 => {
                        let (code, grew) = self.intern(value);
                        self.codes.set(b.entry_start + i, code);
                        grew
                    }
                    Ok(i) => {
                        self.remove_entry(item, bi, i);
                        false
                    }
                    Err(_) if value == 0.0 => return,
                    Err(i) => {
                        let (code, grew) = self.intern(value);
                        self.insert_entry(item, bi, i, local as u16, code);
                        grew
                    }
                }
            }
            Err(_) if value == 0.0 => return,
            Err(rel) => {
                let (code, grew) = self.intern(value);
                self.insert_block(item, lo + rel, want, local as u16, code);
                grew
            }
        };
        self.col_sums[item] = self.fold_column(item);
        if grew {
            self.compact_if_mostly_dead();
        }
    }

    /// The code of `value`, appending it to the dictionary if new (the
    /// flag). A linear scan: the matrix keeps no hash index, and quantized
    /// dictionaries hold a few hundred values.
    fn intern(&mut self, value: f64) -> (u32, bool) {
        let bits = value.to_bits();
        match self.dict.iter().position(|v| v.to_bits() == bits) {
            Some(code) => (code as u32, false),
            None => {
                self.dict.push(value);
                ((self.dict.len() - 1) as u32, true)
            }
        }
    }

    /// Removes entry `i` of block `bi` (of `item`). A full block turns
    /// partial and gains explicit offsets; a block losing its last entry
    /// leaves the directory.
    fn remove_entry(&mut self, item: usize, bi: usize, i: usize) {
        let b = self.blocks[bi];
        self.codes.remove(b.entry_start + i);
        let offsets_delta = if b.is_full() {
            let gone = i as u16;
            let users = (0..COMPRESSED_BLOCK as u16).filter(|&o| o != gone);
            self.offsets.splice(b.offset_start..b.offset_start, users);
            COMPRESSED_BLOCK as isize - 1
        } else {
            self.offsets.remove(b.offset_start + i);
            -1
        };
        if b.len == 1 {
            self.blocks.remove(bi);
            self.shift_tail(item, bi, -1, offsets_delta, -1);
        } else {
            self.blocks[bi].len -= 1;
            self.shift_tail(item, bi + 1, -1, offsets_delta, 0);
        }
    }

    /// Inserts `code` for user offset `local` at position `i` of partial
    /// block `bi` (of `item`). A block that fills up drops its offsets.
    fn insert_entry(&mut self, item: usize, bi: usize, i: usize, local: u16, code: u32) {
        let b = self.blocks[bi];
        self.codes.insert(b.entry_start + i, code);
        let len = b.len as usize;
        let offsets_delta = if len + 1 == COMPRESSED_BLOCK {
            self.offsets.drain(b.offset_start..b.offset_start + len);
            -(len as isize)
        } else {
            self.offsets.insert(b.offset_start + i, local);
            1
        };
        self.blocks[bi].len += 1;
        self.shift_tail(item, bi + 1, 1, offsets_delta, 0);
    }

    /// Inserts a one-entry block `block` at directory index `at` (inside
    /// `item`'s block range, keeping it ascending).
    fn insert_block(&mut self, item: usize, at: usize, block: u32, local: u16, code: u32) {
        // The new block starts where the block it displaces started, or at
        // the arrays' ends when it becomes the last block overall.
        let (entry_start, offset_start) = self
            .blocks
            .get(at)
            .map_or((self.codes.len(), self.offsets.len()), |b| (b.entry_start, b.offset_start));
        self.codes.insert(entry_start, code);
        self.offsets.insert(offset_start, local);
        self.blocks.insert(at, ColumnBlock { block, len: 1, entry_start, offset_start });
        self.shift_tail(item, at + 1, 1, 1, 1);
    }

    /// Moves the entry and offset starts of every block from directory
    /// index `from` on, and `item`'s later pointer tails, by the given
    /// deltas.
    fn shift_tail(
        &mut self,
        item: usize,
        from: usize,
        entries: isize,
        offsets: isize,
        blocks: isize,
    ) {
        for b in &mut self.blocks[from..] {
            b.entry_start = b.entry_start.wrapping_add_signed(entries);
            b.offset_start = b.offset_start.wrapping_add_signed(offsets);
        }
        for p in &mut self.entry_ptr[item + 1..] {
            *p = p.wrapping_add_signed(entries);
        }
        for p in &mut self.block_ptr[item + 1..] {
            *p = p.wrapping_add_signed(blocks);
        }
    }

    /// The flat left-to-right sum of `item`'s decoded entries — bitwise
    /// [`stored_sum`](super::interest::stored_sum) of the column.
    fn fold_column(&self, item: usize) -> f64 {
        let mut sum = 0.0;
        self.for_each_in_part(item, 0..self.column_len(item), |_, v| sum += v);
        sum
    }

    /// Number of dictionary entries some stored code refers to.
    fn live_dict_len(&self) -> usize {
        let mut live = vec![false; self.dict.len()];
        for i in 0..self.codes.len() {
            live[self.codes.get(i) as usize] = true;
        }
        live.iter().filter(|&&l| l).count()
    }

    /// The [`COMPACT_MIN_DICT`] rule, checked after a point edit appended
    /// a dictionary value.
    fn compact_if_mostly_dead(&mut self) {
        let n = self.dict.len();
        if n < COMPACT_MIN_DICT || !n.is_power_of_two() {
            return;
        }
        let live = self.live_dict_len();
        if n - live > live {
            self.canonicalize();
        }
    }

    /// Appends new users (zeros dropped). See
    /// [`super::InterestMatrix::append_users`].
    pub fn append_users(&mut self, rows: &[Vec<f64>]) {
        let num_items = self.num_items();
        for row in rows {
            assert_eq!(row.len(), num_items, "user row length must equal item count");
        }
        let mut cols = self.decode_columns();
        for (item, col) in cols.iter_mut().enumerate() {
            for (j, row) in rows.iter().enumerate() {
                if row[item] != 0.0 {
                    col.push(((self.num_users + j) as u32, row[item]));
                }
            }
        }
        self.rebuild_from(self.num_users + rows.len(), cols);
    }

    /// Removes users, remapping surviving indices down. See
    /// [`super::InterestMatrix::remove_users`].
    pub fn remove_users(&mut self, users: &[usize]) {
        let keep = user_keep_mask(self.num_users, users);
        let mut remap = vec![0u32; self.num_users];
        let mut next = 0u32;
        for (u, &k) in keep.iter().enumerate() {
            remap[u] = next;
            if k {
                next += 1;
            }
        }
        let cols = self
            .decode_columns()
            .into_iter()
            .map(|col| {
                col.into_iter()
                    .filter(|&(u, _)| keep[u as usize])
                    .map(|(u, v)| (remap[u as usize], v))
                    .collect()
            })
            .collect();
        self.rebuild_from(self.num_users - users.len(), cols);
    }

    /// Drops any stored exact zeros (possible only in hand-built or
    /// deserialized data — every mutation path drops them) and re-interns
    /// the dictionary canonically. Returns the number of entries dropped.
    pub fn canonicalize(&mut self) -> usize {
        let before = self.nnz();
        let cols = self.decode_columns();
        self.rebuild_from(self.num_users, cols);
        before - self.nnz()
    }

    /// Validates internal consistency: the structure (see
    /// [`check_structure`](Self::check_structure)) and the cached sums,
    /// which must equal a bitwise recompute of the decoded columns.
    pub fn check_consistency(&self) -> Result<(), String> {
        self.check_structure()?;
        if self.col_sums.len() != self.num_items() {
            return Err("column-sum count disagrees with the item count".into());
        }
        for item in 0..self.num_items() {
            if self.fold_column(item).to_bits() != self.col_sums[item].to_bits() {
                return Err(format!("item {item}: cached sum drifted"));
            }
        }
        Ok(())
    }

    /// Validates everything decoding relies on: the pointer arrays agree
    /// with the block directory, blocks ascend within an item and hold
    /// `1..=512` entries at contiguous starts, full blocks own no offsets,
    /// partial blocks' offsets strictly increase and stay inside the user
    /// range, and every code lies within the dictionary. A matrix that
    /// passes decodes every column without an out-of-bounds access.
    fn check_structure(&self) -> Result<(), String> {
        let Some(items) = self.entry_ptr.len().checked_sub(1) else {
            return Err("entry_ptr is empty".into());
        };
        if self.block_ptr.len() != items + 1 {
            return Err("block_ptr / entry_ptr lengths disagree".into());
        }
        if self.block_ptr[items] != self.blocks.len() {
            return Err("block_ptr does not end at the block count".into());
        }
        if self.entry_ptr[items] != self.codes.len() {
            return Err("entry_ptr does not end at the code count".into());
        }
        let dict_len = self.dict.len();
        if let Some(pos) = (0..self.codes.len()).find(|&i| self.codes.get(i) as usize >= dict_len) {
            return Err(format!("entry {pos}: code outside the {dict_len}-value dictionary"));
        }
        let (mut entry, mut offset, mut block_idx) = (0usize, 0usize, 0usize);
        for item in 0..items {
            let next = self.block_ptr[item + 1];
            if self.block_ptr[item] != block_idx || next < block_idx || next > self.blocks.len() {
                return Err(format!("item {item}: block_ptr is not monotone"));
            }
            if self.entry_ptr[item] != entry {
                return Err(format!("item {item}: entry_ptr disagrees with the block lengths"));
            }
            let mut prev_block = None;
            for b in &self.blocks[block_idx..next] {
                let len = b.len as usize;
                if prev_block.is_some_and(|p| p >= b.block) {
                    return Err(format!("item {item}: blocks do not ascend"));
                }
                prev_block = Some(b.block);
                if !(1..=COMPRESSED_BLOCK).contains(&len) {
                    return Err(format!("item {item}, block {}: length {len}", b.block));
                }
                if b.entry_start != entry {
                    return Err(format!("item {item}, block {}: entry_start gap", b.block));
                }
                if b.offset_start != offset {
                    return Err(format!("item {item}, block {}: offset_start gap", b.block));
                }
                let last_local = if b.is_full() {
                    COMPRESSED_BLOCK - 1
                } else {
                    let offs = self.offsets.get(offset..offset + len).ok_or_else(|| {
                        format!("item {item}, block {}: offsets past the end", b.block)
                    })?;
                    if offs.windows(2).any(|w| w[0] >= w[1]) {
                        return Err(format!(
                            "item {item}, block {}: offsets not increasing",
                            b.block
                        ));
                    }
                    offset += len;
                    offs[len - 1] as usize
                };
                if last_local >= COMPRESSED_BLOCK || b.base() + last_local >= self.num_users {
                    return Err(format!("item {item}, block {}: user out of range", b.block));
                }
                entry += len;
            }
            block_idx = next;
            if self.entry_ptr[item + 1] != entry || entry > self.codes.len() {
                return Err(format!("item {item}: entry_ptr disagrees with the block lengths"));
            }
        }
        if offset != self.offsets.len() {
            return Err("offsets stored beyond the last partial block".into());
        }
        Ok(())
    }
}

impl PartialEq for CompressedInterest {
    fn eq(&self, other: &Self) -> bool {
        let bits = |m: &Self, item| -> Vec<(u32, u64)> {
            m.decode_column(item).into_iter().map(|(u, v)| (u, v.to_bits())).collect()
        };
        self.num_users == other.num_users
            && self.num_items() == other.num_items()
            && (0..self.num_items()).all(|item| {
                self.col_sums[item].to_bits() == other.col_sums[item].to_bits()
                    && bits(self, item) == bits(other, item)
            })
    }
}

/// Incremental builder for [`CompressedInterest`]. Entries may be pushed in
/// any per-item order; `build` sorts each column and deduplicates (last
/// write wins), matching [`super::SparseInterestBuilder`]'s semantics while
/// holding only 8 transient bytes per entry (a `u32` user plus a `u32`
/// code) — the property that lets the streaming generators assemble a
/// million-user matrix without a dense intermediate.
#[derive(Debug)]
pub struct CompressedInterestBuilder {
    num_items: usize,
    num_users: usize,
    dict: Vec<f64>,
    index: HashMap<u64, u32>,
    cols: Vec<ColBuf>,
}

#[derive(Debug, Default)]
struct ColBuf {
    users: Vec<u32>,
    codes: Vec<u32>,
}

impl CompressedInterestBuilder {
    /// A builder for a matrix of the given shape.
    pub fn new(num_items: usize, num_users: usize) -> Self {
        let mut cols = Vec::with_capacity(num_items);
        cols.resize_with(num_items, ColBuf::default);
        Self { num_items, num_users, dict: Vec::new(), index: HashMap::new(), cols }
    }

    /// Adds one `(item, user) -> value` entry. Zero values are dropped.
    ///
    /// # Panics
    /// Panics if `item` or `user` is out of range.
    pub fn push(&mut self, item: usize, user: usize, value: f64) {
        assert!(item < self.num_items, "item {item} out of range");
        assert!(user < self.num_users, "user {user} out of range");
        if value == 0.0 {
            return;
        }
        let code = *self.index.entry(value.to_bits()).or_insert_with(|| {
            self.dict.push(value);
            (self.dict.len() - 1) as u32
        });
        let col = &mut self.cols[item];
        col.users.push(user as u32);
        col.codes.push(code);
    }

    /// Finalizes into block-compressed form.
    pub fn build(self) -> CompressedInterest {
        let Self { num_users, dict, cols, .. } = self;
        let mut out = CompressedInterest::empty(num_users);
        // Encode with a fresh interner so the final dictionary is in
        // first-use order of the *sorted* entry stream — the same canonical
        // order `to_compressed` and the rebuild paths produce.
        let mut interner = Interner::default();
        for col in cols {
            let mut entries: Vec<(u32, f64)> =
                col.users.iter().zip(&col.codes).map(|(&u, &c)| (u, dict[c as usize])).collect();
            entries.sort_by_key(|&(u, _)| u);
            // Last write wins on duplicates: keep the final occurrence.
            let mut dedup: Vec<(u32, f64)> = Vec::with_capacity(entries.len());
            for (u, v) in entries {
                match dedup.last_mut() {
                    Some(last) if last.0 == u => last.1 = v,
                    _ => dedup.push((u, v)),
                }
            }
            out.encode_column(dedup.into_iter(), &mut interner);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::interest::{stored_sum, DenseInterest, InterestMatrix};
    use super::*;

    fn sample_dense() -> DenseInterest {
        DenseInterest::from_raw(2, 3, vec![0.9, 0.0, 0.2, 0.3, 0.6, 0.0]).unwrap()
    }

    fn sample_compressed() -> CompressedInterest {
        InterestMatrix::from(sample_dense()).to_compressed()
    }

    #[test]
    fn skips_zeros_and_looks_up_values() {
        let c = sample_compressed();
        assert_eq!(c.nnz(), 4);
        assert_eq!(c.value(0, 0), 0.9);
        assert_eq!(c.value(0, 1), 0.0);
        assert_eq!(c.value(0, 2), 0.2);
        assert_eq!(c.value(1, 1), 0.6);
        assert_eq!(c.column_len(0), 2);
        assert_eq!(c.dict_len(), 4);
    }

    #[test]
    fn dictionary_dedups_repeated_values() {
        let d = DenseInterest::from_fn(3, 10, |_, u| if u % 2 == 0 { 0.25 } else { 0.75 });
        let c = InterestMatrix::from(d).to_compressed();
        assert_eq!(c.nnz(), 30);
        assert_eq!(c.dict_len(), 2);
    }

    #[test]
    fn full_blocks_store_no_offsets() {
        // 512 users, fully dense column => exactly one full block, zero
        // offsets; 513 users => one full + one partial block, one offset.
        let full = InterestMatrix::from(DenseInterest::from_fn(1, COMPRESSED_BLOCK, |_, _| 0.5))
            .to_compressed();
        assert_eq!(full.blocks.len(), 1);
        assert!(full.offsets.is_empty());
        let spill =
            InterestMatrix::from(DenseInterest::from_fn(1, COMPRESSED_BLOCK + 1, |_, _| 0.5))
                .to_compressed();
        assert_eq!(spill.blocks.len(), 2);
        assert_eq!(spill.offsets.len(), 1);
        assert_eq!(spill.value(0, COMPRESSED_BLOCK), 0.5);
        spill.check_consistency().unwrap();
    }

    #[test]
    fn multi_block_columns_decode_in_order() {
        let nu = 3 * COMPRESSED_BLOCK + 17;
        let d = DenseInterest::from_fn(2, nu, |item, u| {
            if (u + item) % 3 == 0 {
                0.0
            } else {
                ((u % 7) + 1) as f64 / 8.0
            }
        });
        let dense = InterestMatrix::from(d);
        let sparse = dense.to_sparse();
        let c = dense.to_compressed();
        c.check_consistency().unwrap();
        for item in 0..2 {
            let (us, vs) = sparse.column_slices(item);
            let mut got = Vec::new();
            c.for_each_in_part(item, 0..c.column_len(item), |u, v| got.push((u as u32, v)));
            let want: Vec<(u32, f64)> = us.iter().copied().zip(vs.iter().copied()).collect();
            assert_eq!(got, want, "item {item}");
            assert_eq!(c.column_sum(item).to_bits(), stored_sum(vs).to_bits(), "item {item} sum");
        }
    }

    #[test]
    fn code_vec_promotes_to_wide_past_u16_dictionary() {
        let n = u16::MAX as usize + 10;
        let d = DenseInterest::from_fn(1, n, |_, u| (u + 1) as f64 / (n + 1) as f64);
        let c = InterestMatrix::from(d.clone()).to_compressed();
        assert_eq!(c.dict_len(), n);
        assert!(matches!(c.codes, CodeVec::Wide(_)), "dictionary overflow must promote codes");
        c.check_consistency().unwrap();
        // Values survive the promotion exactly.
        for u in [0, 1, u16::MAX as usize, n - 1] {
            assert_eq!(c.value(0, u).to_bits(), d.value(0, u).to_bits());
        }
    }

    #[test]
    fn builder_handles_unordered_and_duplicate_pushes() {
        let mut b = CompressedInterestBuilder::new(2, 4);
        b.push(1, 3, 0.5);
        b.push(0, 2, 0.1);
        b.push(0, 0, 0.7);
        b.push(0, 2, 0.4); // overwrite
        b.push(1, 1, 0.0); // dropped
        let c = b.build();
        assert_eq!(c.nnz(), 3);
        assert_eq!(c.value(0, 2), 0.4);
        assert_eq!(c.value(0, 0), 0.7);
        assert_eq!(c.value(1, 3), 0.5);
        assert_eq!(c.value(1, 1), 0.0);
        c.check_consistency().unwrap();
    }

    #[test]
    fn rebuild_mutations_drop_dead_dictionary_codes() {
        let mut c = sample_compressed();
        c.set_value(0, 0, 0.2); // 0.9 becomes dead
        assert_eq!(c.value(0, 0), 0.2);
        assert_eq!(c.dict_len(), 4, "a point edit never renumbers the dictionary");
        let before = c.clone();
        assert_eq!(c.canonicalize(), 0);
        assert_eq!(c.dict_len(), 3, "the canonical re-encode must drop dead codes");
        assert_eq!(c, before, "re-encoding changes no value");
        c.check_consistency().unwrap();
    }

    /// The [`COMPACT_MIN_DICT`] rule: a cell cycled through fresh values
    /// leaves one dead entry per edit; the edit that brings the dictionary
    /// to the first power of two ≥ the floor re-encodes it canonically.
    #[test]
    fn point_edits_compact_a_mostly_dead_dictionary() {
        let mut c = InterestMatrix::from(DenseInterest::from_fn(1, 4, |_, _| 0.5)).to_compressed();
        let fresh = |i: usize| (i + 1) as f64 / 4096.0;
        for i in 0..COMPACT_MIN_DICT - 2 {
            c.set_value(0, 0, fresh(i));
            assert_eq!(c.dict_len(), i + 2, "edit {i}: the rule fired early");
        }
        assert_eq!(c.live_dict_len(), 2);
        c.set_value(0, 0, fresh(COMPACT_MIN_DICT - 2));
        assert_eq!(c.dict_len(), 2, "1022 dead of 1024 must compact");
        assert_eq!(c.dict[0], fresh(COMPACT_MIN_DICT - 2), "canonical first-use order");
        c.check_consistency().unwrap();

        // Live values outnumbering dead ones keep the dictionary as is.
        let mut wide = InterestMatrix::from(DenseInterest::from_fn(1, COMPACT_MIN_DICT, |_, u| {
            fresh(u + COMPACT_MIN_DICT)
        }))
        .to_compressed();
        assert_eq!(wide.dict_len(), COMPACT_MIN_DICT);
        wide.set_value(0, 0, 0.75);
        assert_eq!(wide.dict_len(), COMPACT_MIN_DICT + 1);
    }

    /// Per-block `(block, len, codes, offsets)` of one column.
    type Layout = Vec<(u32, u16, Vec<u32>, Vec<u16>)>;

    fn column_layout(c: &CompressedInterest, item: usize) -> Layout {
        c.blocks[c.block_ptr[item]..c.block_ptr[item + 1]]
            .iter()
            .map(|b| {
                let codes = (b.entry_start..b.entry_end()).map(|i| c.codes.get(i)).collect();
                let offs = if b.is_full() {
                    Vec::new()
                } else {
                    c.offsets[b.offset_start..b.offset_start + b.len as usize].to_vec()
                };
                (b.block, b.len, codes, offs)
            })
            .collect()
    }

    /// Three items over four blocks of users: item 0 has a full block 0,
    /// a partial block 1 missing one user, a one-entry block 2 and an empty
    /// block 3; items 1 and 2 are patterned partial columns.
    fn multi_block() -> CompressedInterest {
        let nu = 3 * COMPRESSED_BLOCK + 40;
        let d = DenseInterest::from_fn(3, nu, |item, u| match item {
            0 if u < COMPRESSED_BLOCK => ((u % 5) + 1) as f64 / 8.0,
            0 if u < 2 * COMPRESSED_BLOCK - 1 => 0.25,
            0 => (u == 2 * COMPRESSED_BLOCK + 7) as u8 as f64 * 0.5,
            _ if (u + item) % 3 == 0 => 0.0,
            _ => ((u % 7) + 1) as f64 / 8.0,
        });
        InterestMatrix::from(d).to_compressed()
    }

    /// Every block transition of a point edit: overwrite, full → partial,
    /// partial → full, a block emptying out, a new block, a cell in the
    /// last (short) block, plus no-op zero writes. After each edit the
    /// matrix is consistent and value-equal to a canonical re-encode, the
    /// other columns keep their codes and offsets, and the dictionary grows
    /// by at most one.
    #[test]
    fn point_edits_touch_one_column_and_match_a_reencode() {
        let b = COMPRESSED_BLOCK;
        let edits = [
            (0, 3, 0.125),         // overwrite in a full block
            (0, 3, 0.0),           // full -> partial
            (0, 3, 0.9),           // partial -> full again, new value
            (0, 2 * b - 1, 0.25),  // fill the one hole of block 1
            (0, 2 * b + 7, 0.0),   // block 2 loses its only entry
            (0, 3 * b + 5, 0.3),   // a new block in empty block 3
            (0, 2 * b + 100, 0.0), // zero write on an absent cell
            (1, 0, 0.0),           // partial block entry removed
            (1, 2, 0.6),           // partial block entry inserted
            (2, 3 * b + 39, 0.7),  // last user, short final block
            (1, 3 * b + 1, 0.0),   // absent in a partial block
        ];
        let mut c = multi_block();
        c.check_consistency().unwrap();
        for (n, &(item, user, value)) in edits.iter().enumerate() {
            let others: Vec<Layout> =
                (0..c.num_items()).filter(|&i| i != item).map(|i| column_layout(&c, i)).collect();
            let dict_before = c.dict_len();
            c.set_value(item, user, value);
            c.check_consistency().unwrap_or_else(|e| panic!("edit {n}: {e}"));
            assert_eq!(c.value(item, user).to_bits(), value.to_bits(), "edit {n}");
            let after: Vec<Layout> =
                (0..c.num_items()).filter(|&i| i != item).map(|i| column_layout(&c, i)).collect();
            assert_eq!(after, others, "edit {n}: another column changed");
            assert!(c.dict_len() <= dict_before + 1, "edit {n}: dictionary grew by more than one");
            let mut canonical = c.clone();
            canonical.canonicalize();
            assert_eq!(c, canonical, "edit {n}: point edit diverged from a re-encode");
            for i in 0..c.num_items() {
                assert_eq!(c.column_sum(i).to_bits(), canonical.column_sum(i).to_bits());
            }
        }
        // The transitions above really happened.
        let item0 = column_layout(&c, 0);
        let shape: Vec<(u32, u16)> = item0.iter().map(|&(blk, len, ..)| (blk, len)).collect();
        assert_eq!(shape, vec![(0, b as u16), (1, b as u16), (3, 1)]);
    }

    #[test]
    fn equality_ignores_dictionary_order_and_dead_entries() {
        let mut a = sample_compressed();
        let mut b = sample_compressed();
        a.set_value(0, 0, 0.6); // reuses 0.6's code; 0.9 dies
        b.set_value(0, 0, 0.6);
        b.canonicalize(); // same values, shorter dictionary
        assert_ne!(a.dict, b.dict);
        assert_eq!(a, b);
        b.set_value(1, 2, 0.5);
        assert_ne!(a, b);
    }

    #[test]
    fn consistency_check_reports_corruption_without_panicking() {
        let good = multi_block();
        good.check_consistency().unwrap();
        type Tamper = fn(&mut CompressedInterest);
        let cases: [(&str, Tamper); 10] = [
            ("code outside the dictionary", |c| c.codes.set(0, c.dict.len() as u32)),
            ("blocks do not ascend", |c| c.blocks.swap(0, 1)),
            ("zero-length block", |c| c.blocks[2].len = 0),
            ("entry_start gap", |c| c.blocks[1].entry_start += 1),
            ("offset_start gap", |c| c.blocks[1].offset_start += 1),
            ("full block owning offsets", |c| {
                c.offsets.insert(0, 0);
                c.blocks[1..].iter_mut().for_each(|b| b.offset_start += 1);
            }),
            ("offsets not increasing", |c| {
                let at = c.blocks[1].offset_start;
                c.offsets.swap(at, at + 1);
            }),
            ("block_ptr not monotone", |c| c.block_ptr[1] = c.blocks.len() + 5),
            ("entry_ptr off the block lengths", |c| c.entry_ptr[1] -= 1),
            ("cached sum drifted", |c| c.col_sums[2] += 1.0),
        ];
        let load = |c: &CompressedInterest| {
            serde_json::from_str::<CompressedInterest>(&serde_json::to_string(c).unwrap())
        };
        for (what, tamper) in cases {
            let mut c = good.clone();
            tamper(&mut c);
            assert!(c.check_consistency().is_err(), "{what}: not detected");
            // Loading refuses the structural cases and re-derives the sums.
            match load(&c) {
                Ok(loaded) => {
                    assert_eq!(what, "cached sum drifted", "{what}: loaded");
                    loaded.check_consistency().unwrap();
                    assert_eq!(loaded, good);
                }
                Err(e) => assert!(e.to_string().contains("compressed interest"), "{what}: {e}"),
            }
        }
        // A user sequence that does not increase is an error, not a panic.
        let mut c = good.clone();
        let at = c.blocks[1].offset_start;
        c.offsets[at] = c.offsets[at + 1];
        assert!(c.check_consistency().is_err());
        assert!(load(&c).is_err());
    }

    #[test]
    fn heap_bytes_reflects_full_block_compression() {
        // A fully dense quantized column: ~2 bytes/entry, far below the
        // sparse layout's 12.
        let nu = 8 * COMPRESSED_BLOCK;
        let d = DenseInterest::from_fn(4, nu, |_, u| ((u % 16) + 1) as f64 / 16.0);
        let m = InterestMatrix::from(d);
        let sparse_bytes = {
            let s = m.to_sparse();
            s.heap_bytes()
        };
        let compressed_bytes = m.to_compressed().heap_bytes();
        assert!(
            compressed_bytes * 3 <= sparse_bytes,
            "compressed {compressed_bytes} > sparse {sparse_bytes} / 3"
        );
    }
}
