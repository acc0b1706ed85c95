//! The engine's one hash kernel: a flat open-addressing table over
//! fixed-width 64-bit key atoms, driven column-at-a-time.
//!
//! [`JoinTable`] (hash join) and [`GroupTable`] (grouped aggregation)
//! are the only hash structures the batch operators in
//! [`crate::vexec`] and the morsel executor in [`crate::parallel`] use.
//! The row interpreter in [`crate::exec`] keeps its own string-keyed
//! `HashMap`: it is the oracle and shares nothing with this module.
//!
//! **Keys.** A key row is `ceil(k / 16)` tag words (four bits per key
//! column: NULL, bool, number, date, text) followed by one atom per
//! column: numbers as `f64` bits (so `Int(1)` and `Float(1.0)` are one
//! key), bools and dates as their integer, text as a code in the
//! table's per-column [`TextPool`]. A text column whose dictionary the
//! pool adopted (the first one it sees — the build side of a join)
//! contributes its codes unchanged; any other dictionary is interned by
//! string. Every key column has one layout, so a column has one tag.
//!
//! **Two equivalences.** Join keys follow `exec::join_key`: a NULL
//! component keeps the row out of the table and out of every probe, all
//! NaNs are one key. Group keys follow `Value::total_eq`: NULL is a
//! group of its own and NaNs group by payload. `-0.0` and `0.0` differ
//! under both. The equivalence is fixed by the table type, never passed
//! by a caller.
//!
//! **Index.** Distinct keys get dense ids in first-appearance order. A
//! single-column key whose first batch spans a small dense integer
//! domain is indexed by a direct array (`value - base`); everything
//! else, and a direct table that later meets a key outside its array,
//! by linear probing over a power-of-two slot vector of ids. Hashing is
//! seeded per table from [`RandomState`], so crafted keys cannot aim at
//! a fixed function; nothing observable depends on the seed (join
//! chains are in build-row order, groups are numbered by first
//! appearance).

use crate::vector::{Col, ColumnData};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::{Arc, OnceLock};

/// "No such key": the id of a probe row that matches nothing (or has a
/// NULL key component).
pub(crate) const NO_KEY: u32 = u32::MAX;

/// Soft cap on the pairs one [`JoinTable::pairs`] call emits, so a
/// probe's candidate batch stays bounded however skewed the keys are.
const PROBE_PAIRS: usize = 16 * 1024;

const TAG_NULL: u64 = 0;
const TAG_BOOL: u64 = 1;
const TAG_NUM: u64 = 2;
const TAG_DATE: u64 = 3;
const TAG_TEXT: u64 = 4;
const TAGS_PER_WORD: usize = 16;

/// Atom of a string the (read-only) pool does not hold: equal to no
/// stored code, so the row simply finds nothing.
const ABSENT: u64 = u32::MAX as u64;

#[derive(Clone, Copy, PartialEq)]
enum KeyEq {
    Join,
    Group,
}

impl KeyEq {
    #[inline]
    fn num(self, f: f64) -> u64 {
        match self {
            KeyEq::Join if f.is_nan() => f64::NAN.to_bits(),
            _ => f.to_bits(),
        }
    }
}

#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let r = u128::from(a).wrapping_mul(u128::from(b));
    (r as u64) ^ ((r >> 64) as u64)
}

// ---------------------------------------------------------------------------
// Text pools
// ---------------------------------------------------------------------------

/// The strings of one text key column, coded. Codes below `home.len()`
/// are the adopted dictionary's own; later strings are appended. A
/// [`crate::vector::ColumnBuilder`] interns a text column's dictionary
/// through a pool with no home, so the engine codes strings one way.
pub(crate) struct TextPool {
    home: Option<Arc<Vec<String>>>,
    pub(crate) extra: Vec<String>,
    /// string → code, built when the first string has to be looked up
    /// (a table that only ever sees its home dictionary never hashes a
    /// string). Slots hold `code + 1`.
    index: OnceLock<Vec<u32>>,
    seed: RandomState,
}

impl TextPool {
    pub(crate) fn new() -> Self {
        TextPool {
            home: None,
            extra: Vec::new(),
            index: OnceLock::new(),
            seed: RandomState::new(),
        }
    }

    /// A pool expecting up to about `n` strings: its index is sized for
    /// them at once instead of growing.
    pub(crate) fn with_capacity(n: usize) -> Self {
        let pool = TextPool::new();
        let _ = pool.index.set(pool.build_index(n));
        pool
    }

    fn home_len(&self) -> usize {
        self.home.as_ref().map_or(0, |d| d.len())
    }

    fn len(&self) -> usize {
        self.home_len() + self.extra.len()
    }

    fn str_at(&self, code: u32) -> &str {
        let code = code as usize;
        match &self.home {
            Some(d) if code < d.len() => &d[code],
            _ => &self.extra[code - self.home_len()],
        }
    }

    fn is_home(&self, dict: &Arc<Vec<String>>) -> bool {
        self.home.as_ref().is_some_and(|h| Arc::ptr_eq(h, dict))
    }

    fn slot_of(&self, slots: &[u32], s: &str) -> usize {
        let mask = slots.len() - 1;
        let mut at = self.seed.hash_one(s) as usize & mask;
        while slots[at] != 0 && self.str_at(slots[at] - 1) != s {
            at = (at + 1) & mask;
        }
        at
    }

    fn build_index(&self, min_codes: usize) -> Vec<u32> {
        let mut slots = vec![0u32; (min_codes.max(8) * 2).next_power_of_two()];
        for code in 0..self.len() as u32 {
            let at = self.slot_of(&slots, self.str_at(code));
            // A dictionary holds each string once (`ColumnBuilder`
            // interns its NULL placeholder "" too), and `intern` only
            // appends what `lookup` missed — so the rows holding a
            // string all hold the one code that stands for it here.
            debug_assert_eq!(slots[at], 0, "string coded twice");
            slots[at] = code + 1;
        }
        slots
    }

    fn lookup(&self, s: &str) -> Option<u32> {
        let slots = self.index.get_or_init(|| self.build_index(self.len()));
        slots[self.slot_of(slots, s)].checked_sub(1)
    }

    /// The code of `s`, appending it on first sight (one probe either
    /// way; only a new string is copied).
    pub(crate) fn intern(&mut self, s: &str) -> u32 {
        let slots = self.index.get_or_init(|| self.build_index(self.len()));
        let at = self.slot_of(slots, s);
        if let Some(code) = slots[at].checked_sub(1) {
            return code;
        }
        let grow = (self.len() + 1) * 2 > slots.len();
        let code = self.len() as u32;
        self.extra.push(s.to_string());
        if grow {
            self.index = OnceLock::from(self.build_index(self.len() * 2));
        } else {
            self.index.get_mut().expect("built above")[at] = code + 1;
        }
        code
    }
}

/// How an encoder resolves strings: a build/assign pass may grow the
/// pools, a probe of a shared table may only read them.
enum Pools<'a> {
    Grow(&'a mut [TextPool]),
    Read(&'a [TextPool]),
}

impl Pools<'_> {
    fn pool(&self, j: usize) -> &TextPool {
        match self {
            Pools::Grow(p) => &p[j],
            Pools::Read(p) => &p[j],
        }
    }

    fn code(&mut self, j: usize, s: &str) -> u64 {
        match self {
            Pools::Grow(p) => u64::from(p[j].intern(s)),
            Pools::Read(p) => p[j].lookup(s).map_or(ABSENT, u64::from),
        }
    }

    /// Adopt `dict` as column `j`'s home dictionary if the pool is
    /// still empty; report whether its codes can be used unchanged.
    fn shares(&mut self, j: usize, dict: &Arc<Vec<String>>) -> bool {
        if let Pools::Grow(p) = self {
            if p[j].home.is_none() && p[j].extra.is_empty() {
                p[j].home = Some(Arc::clone(dict));
            }
        }
        self.pool(j).is_home(dict)
    }
}

// ---------------------------------------------------------------------------
// Key encoding
// ---------------------------------------------------------------------------

/// Row-major encoded keys of one batch.
struct Encoded {
    width: usize,
    words: Vec<u64>,
    /// Join equivalence only: rows with a NULL component.
    null: Vec<bool>,
}

impl Encoded {
    /// `id_of(key)` for every row; [`NO_KEY`] for a join-NULL row.
    fn ids(&self, len: usize, mut id_of: impl FnMut(&[u64]) -> u32) -> Vec<u32> {
        (0..len)
            .map(|i| match self.null.get(i) {
                Some(true) => NO_KEY,
                _ => id_of(&self.words[i * self.width..(i + 1) * self.width]),
            })
            .collect()
    }
}

fn tag_words(n_cols: usize) -> usize {
    n_cols.div_ceil(TAGS_PER_WORD)
}

fn encode(eq: KeyEq, cols: &[Col], len: usize, mut pools: Pools) -> Encoded {
    let tw = tag_words(cols.len());
    let width = tw + cols.len();
    let mut words = vec![0u64; len * width];
    let mut null = vec![false; if eq == KeyEq::Join { len } else { 0 }];
    for (j, col) in cols.iter().enumerate() {
        let (tag_at, shift) = (j / TAGS_PER_WORD, 4 * (j % TAGS_PER_WORD));
        let mut put = |i: usize, tag: u64, atom: u64| {
            words[i * width + tag_at] |= tag << shift;
            words[i * width + tw + j] = atom;
        };
        // Typed layouts: one tag for the column, atoms straight off the
        // slice. NULL rows keep tag 0 / atom 0 (the NULL group) and are
        // flagged below for joins.
        let off = col.off;
        let all_valid = col.vec.validity.is_none();
        let valid = |i: usize| all_valid || col.is_valid(i);
        match &col.vec.data {
            ColumnData::Int(v) => {
                for i in (0..len).filter(|&i| valid(i)) {
                    put(i, TAG_NUM, (v[off + i] as f64).to_bits());
                }
            }
            ColumnData::Float(v) => {
                for i in (0..len).filter(|&i| valid(i)) {
                    put(i, TAG_NUM, eq.num(v[off + i]));
                }
            }
            ColumnData::Bool(v) => {
                for i in (0..len).filter(|&i| valid(i)) {
                    put(i, TAG_BOOL, u64::from(v[off + i]));
                }
            }
            ColumnData::Date(v) => {
                for i in (0..len).filter(|&i| valid(i)) {
                    put(i, TAG_DATE, v[off + i] as u32 as u64);
                }
            }
            ColumnData::Text { codes, dict } => {
                if pools.shares(j, dict) {
                    for i in (0..len).filter(|&i| valid(i)) {
                        put(i, TAG_TEXT, u64::from(codes[off + i]));
                    }
                } else {
                    // A different dictionary: equal strings must meet,
                    // so translate each referenced code once by string.
                    const UNSET: u64 = u64::MAX;
                    let mut trans = vec![UNSET; dict.len()];
                    for i in (0..len).filter(|&i| valid(i)) {
                        let c = codes[off + i] as usize;
                        if trans[c] == UNSET {
                            trans[c] = pools.code(j, &dict[c]);
                        }
                        put(i, TAG_TEXT, trans[c]);
                    }
                }
            }
        }
        // Whatever wrote no tag is NULL (`null` is empty unless joining).
        for (i, n) in null.iter_mut().enumerate() {
            *n |= (words[i * width + tag_at] >> shift) & 0xF == TAG_NULL;
        }
    }
    Encoded { width, words, null }
}

// ---------------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------------

enum Index {
    /// Single-column keys of tag `tag` whose integer reading `v` lies in
    /// `base..base + slots.len()`: `slots[v - base]` holds `id + 1`.
    Direct {
        tag: u64,
        base: i64,
        slots: Vec<u32>,
    },
    /// Linear probing; slots hold `id + 1`, 0 is empty.
    Hash { slots: Vec<u32> },
}

/// The integer a single-column key stands for, if it stands for one:
/// bools, dates and text codes as they are, numbers when integral and
/// exactly representable (`-0.0` is not `0`).
#[inline]
fn small_int(tag: u64, atom: u64) -> Option<i64> {
    match tag {
        TAG_NUM => {
            let f = f64::from_bits(atom);
            let i = f as i64;
            (f.abs() < 9.0e15 && (i as f64).to_bits() == atom).then_some(i)
        }
        TAG_NULL => None,
        _ => Some(atom as i64),
    }
}

struct KeyTable {
    eq: KeyEq,
    width: usize,
    pools: Vec<TextPool>,
    /// Distinct keys, id-major, `width` words each.
    keys: Vec<u64>,
    count: usize,
    index: Index,
    seed: u64,
}

impl KeyTable {
    fn new(eq: KeyEq, n_cols: usize) -> Self {
        KeyTable {
            eq,
            width: tag_words(n_cols) + n_cols,
            pools: (0..n_cols).map(|_| TextPool::new()).collect(),
            keys: Vec::new(),
            count: 0,
            index: Index::Hash { slots: Vec::new() },
            seed: RandomState::new().hash_one(0u8),
        }
    }

    fn len(&self) -> usize {
        self.count
    }

    fn key(&self, id: u32) -> &[u64] {
        &self.keys[id as usize * self.width..(id as usize + 1) * self.width]
    }

    fn hash(&self, key: &[u64]) -> usize {
        key.iter()
            .fold(self.seed, |h, &w| fold(h ^ w, 0x9E37_79B9_7F4A_7C15)) as usize
    }

    /// A direct index for an empty single-column table whose first
    /// batch is one tag over a domain no wider than twice its rows.
    fn try_direct(&self, enc: &Encoded) -> Option<Index> {
        if self.width != 2 || self.count != 0 {
            return None;
        }
        let mut rows =
            (0..enc.words.len() / 2).filter(|&i| !enc.null.get(i).copied().unwrap_or(false));
        let first = rows.next()?;
        let tag = enc.words[first * 2];
        let v0 = small_int(tag, enc.words[first * 2 + 1])?;
        let (mut lo, mut hi, mut n) = (v0, v0, 1usize);
        for i in rows {
            if enc.words[i * 2] != tag {
                return None;
            }
            let v = small_int(tag, enc.words[i * 2 + 1])?;
            lo = lo.min(v);
            hi = hi.max(v);
            n += 1;
        }
        let span = usize::try_from(hi - lo).ok()?.checked_add(1)?;
        (span <= 2 * n + 64).then(|| Index::Direct {
            tag,
            base: lo,
            slots: vec![0; span],
        })
    }

    #[inline]
    fn direct_slot(tag: u64, base: i64, n: usize, key: &[u64]) -> Option<usize> {
        if key[0] != tag {
            return None;
        }
        let at = small_int(tag, key[1])?.checked_sub(base)?;
        usize::try_from(at).ok().filter(|&at| at < n)
    }

    fn find(&self, key: &[u64]) -> u32 {
        match &self.index {
            Index::Direct { tag, base, slots } => Self::direct_slot(*tag, *base, slots.len(), key)
                .map_or(NO_KEY, |at| slots[at].wrapping_sub(1)),
            Index::Hash { slots } if slots.is_empty() => NO_KEY,
            Index::Hash { slots } => {
                let mask = slots.len() - 1;
                let mut at = self.hash(key) & mask;
                loop {
                    match slots[at] {
                        0 => return NO_KEY,
                        s if self.key(s - 1) == key => return s - 1,
                        _ => at = (at + 1) & mask,
                    }
                }
            }
        }
    }

    /// Rebuild a hash index of at least `cap` slots over the stored keys
    /// (growth, and a direct table meeting a key outside its array).
    fn rehash(&mut self, cap: usize) {
        let mut slots = vec![0u32; cap.max(16).next_power_of_two()];
        let mask = slots.len() - 1;
        for id in 0..self.len() as u32 {
            let mut at = self.hash(self.key(id)) & mask;
            while slots[at] != 0 {
                at = (at + 1) & mask;
            }
            slots[at] = id + 1;
        }
        self.index = Index::Hash { slots };
    }

    fn insert(&mut self, key: &[u64]) -> u32 {
        let next = self.count as u32;
        if let Index::Direct { tag, base, slots } = &mut self.index {
            if let Some(at) = Self::direct_slot(*tag, *base, slots.len(), key) {
                if slots[at] == 0 {
                    slots[at] = next + 1;
                    self.keys.extend_from_slice(key);
                    self.count += 1;
                }
                return slots[at] - 1;
            }
            self.rehash(self.count * 4);
        } else if (self.count + 1) * 2 > self.slots_len() {
            self.rehash(self.slots_len() * 2);
        }
        let Index::Hash { slots } = &self.index else {
            unreachable!("a direct index returned or was rehashed above")
        };
        let mask = slots.len() - 1;
        let mut at = self.hash(key) & mask;
        while slots[at] != 0 {
            if self.key(slots[at] - 1) == key {
                return slots[at] - 1;
            }
            at = (at + 1) & mask;
        }
        if let Index::Hash { slots } = &mut self.index {
            slots[at] = next + 1;
        }
        self.keys.extend_from_slice(key);
        self.count += 1;
        next
    }

    fn slots_len(&self) -> usize {
        match &self.index {
            Index::Direct { slots, .. } | Index::Hash { slots } => slots.len(),
        }
    }

    /// Ids for every row of `cols`, inserting unseen keys. Join-null
    /// rows get [`NO_KEY`].
    fn insert_all(&mut self, cols: &[Col], len: usize) -> Vec<u32> {
        let enc = encode(self.eq, cols, len, Pools::Grow(&mut self.pools));
        if let Some(direct) = self.try_direct(&enc) {
            self.index = direct;
        }
        enc.ids(len, |key| self.insert(key))
    }

    fn find_all(&self, cols: &[Col], len: usize) -> Vec<u32> {
        encode(self.eq, cols, len, Pools::Read(&self.pools)).ids(len, |key| self.find(key))
    }
}

/// Group ids for grouped aggregation, under `Value::total_eq`.
pub(crate) struct GroupTable(KeyTable);

impl GroupTable {
    pub(crate) fn new(n_keys: usize) -> Self {
        GroupTable(KeyTable::new(KeyEq::Group, n_keys))
    }

    /// The group id of each of the first `len` rows of the key columns.
    /// A key not seen before — in this call or an earlier one — opens
    /// the next id, so ids count groups in first-appearance order.
    pub(crate) fn assign(&mut self, keys: &[Col], len: usize) -> Vec<u32> {
        self.0.insert_all(keys, len)
    }

    /// Groups opened so far.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

/// The build side of a hash join, under `exec::join_key` equivalence:
/// distinct keys, each with its build rows in build order. Read-only
/// once built, so morsel workers probe one shared table.
pub(crate) struct JoinTable {
    table: KeyTable,
    /// `rows[starts[id]..starts[id + 1]]` are key `id`'s build rows.
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl JoinTable {
    /// Index the first `len` rows of the build-side key columns. Rows
    /// with a NULL key component are left out: NULL never joins.
    pub(crate) fn build(keys: &[Col], len: usize) -> Self {
        let mut table = KeyTable::new(KeyEq::Join, keys.len());
        let ids = table.insert_all(keys, len);
        let mut starts = vec![0u32; table.len() + 1];
        for &id in ids.iter().filter(|&&id| id != NO_KEY) {
            starts[id as usize + 1] += 1;
        }
        for k in 1..starts.len() {
            starts[k] += starts[k - 1];
        }
        let mut next = starts.clone();
        let mut rows = vec![0u32; *starts.last().expect("non-empty") as usize];
        for (row, &id) in ids.iter().enumerate().filter(|(_, &id)| id != NO_KEY) {
            rows[next[id as usize] as usize] = row as u32;
            next[id as usize] += 1;
        }
        JoinTable {
            table,
            starts,
            rows,
        }
    }

    /// The key id each of the first `len` probe rows matches, or
    /// [`NO_KEY`].
    pub(crate) fn lookup(&self, keys: &[Col], len: usize) -> Vec<u32> {
        self.table.find_all(keys, len)
    }

    /// Build rows holding key `id`, in build order.
    pub(crate) fn matches(&self, id: u32) -> &[u32] {
        &self.rows[self.starts[id as usize] as usize..self.starts[id as usize + 1] as usize]
    }

    /// Expand probe rows `from..ids.len()` into `(probe, build)`
    /// selection vectors — probe order, each row's matches in build
    /// order — stopping after the row that fills the batch. Returns the
    /// first row not expanded.
    pub(crate) fn pairs(
        &self,
        ids: &[u32],
        from: usize,
        probe: &mut Vec<u32>,
        build: &mut Vec<u32>,
    ) -> usize {
        let mut row = from;
        while row < ids.len() && probe.len() < PROBE_PAIRS {
            if ids[row] != NO_KEY {
                let m = self.matches(ids[row]);
                probe.extend(std::iter::repeat_n(row as u32, m.len()));
                build.extend_from_slice(m);
            }
            row += 1;
        }
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::cmp_rows;
    use crate::value::{DataType, Row, Value};
    use crate::vector::Batch;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// A column typed by its first non-NULL value.
    fn col(values: &[Value]) -> Col {
        let ty = values.iter().find_map(Value::data_type).unwrap_or(DataType::Int);
        let rows: Vec<Row> = values.iter().map(|v| vec![v.clone()]).collect();
        Batch::from_rows(&rows, &[ty]).cols.remove(0)
    }

    fn text(s: &str) -> Value {
        Value::Text(s.into())
    }

    /// Join matches of each probe value against the build values.
    fn join(build: &[Value], probe: &[Value]) -> Vec<Vec<u32>> {
        let table = JoinTable::build(&[col(build)], build.len());
        table
            .lookup(&[col(probe)], probe.len())
            .into_iter()
            .map(|id| {
                if id == NO_KEY {
                    Vec::new()
                } else {
                    table.matches(id).to_vec()
                }
            })
            .collect()
    }

    fn groups(values: &[Value]) -> Vec<u32> {
        GroupTable::new(1).assign(&[col(values)], values.len())
    }

    #[test]
    fn join_keys_follow_exec_join_key() {
        let nan2 = f64::from_bits(f64::NAN.to_bits() | 1);
        let build = [
            Value::Float(1.0),
            Value::Null,
            Value::Float(f64::NAN),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(1.0),
        ];
        let probe = [
            Value::Float(1.0),
            Value::Null,
            Value::Float(nan2),
            Value::Float(-0.0),
            Value::Float(0.0),
        ];
        assert_eq!(
            join(&build, &probe),
            vec![vec![0, 5], vec![], vec![2], vec![4], vec![3]],
            "NULL never joins, NaNs are one key, -0.0 <> 0.0"
        );
        assert_eq!(join(&[Value::Int(1)], &[Value::Float(1.0)]), [[0]], "Int(1) = Float(1.0)");
        assert_eq!(join(&[Value::Int(1)], &[text("1")]), [[]], "text '1' is not the number 1");
        // The model the encoder mirrors.
        let values = [&build[..], &probe, &[Value::Int(1), Value::Int(0), text("1")]].concat();
        for (b, p) in values.iter().flat_map(|b| values.iter().map(move |p| (b, p))) {
            let (b, p) = (std::slice::from_ref(b), std::slice::from_ref(p));
            let same = match (crate::exec::join_key(b), crate::exec::join_key(p)) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            };
            assert_eq!(!join(b, p)[0].is_empty(), same, "{b:?} vs {p:?}");
        }
    }

    #[test]
    fn group_keys_follow_total_eq() {
        let nan2 = f64::from_bits(f64::NAN.to_bits() | 1);
        let values = [
            Value::Null,
            Value::Float(1.0),
            Value::Float(f64::NAN),
            Value::Float(1.0),
            Value::Null,
            Value::Float(nan2),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
        ];
        assert_eq!(
            groups(&values),
            vec![0, 1, 2, 1, 0, 3, 4, 5, 2],
            "NULL is a group, NaNs group by payload, -0.0 <> 0.0"
        );
        // Pairs meet in two calls, so an Int column meets a Float one:
        // Int(1) = Float(1.0).
        let values = [&values[..], &[Value::Int(1), Value::Int(0)]].concat();
        for (i, a) in values.iter().enumerate() {
            for (j, b) in values.iter().enumerate() {
                let mut t = GroupTable::new(1);
                let (a1, b1) = (std::slice::from_ref(a), std::slice::from_ref(b));
                let (ga, gb) = (t.assign(&[col(a1)], 1), t.assign(&[col(b1)], 1));
                assert_eq!(ga == gb, a.total_eq(b), "values {i} and {j}");
            }
        }
    }

    #[test]
    fn text_from_different_dictionaries_matches_by_string() {
        // Same strings, different code assignment on the two sides.
        let build = [text("x"), text("y"), text("z"), text("y")];
        let probe = [text("z"), text("q"), text("y"), text("x")];
        assert_eq!(
            join(&build, &probe),
            vec![vec![2], vec![], vec![1, 3], vec![0]]
        );
        // Grouping across two assign calls with different dictionaries.
        let mut t = GroupTable::new(1);
        assert_eq!(t.assign(&[col(&[text("a"), text("b")])], 2), vec![0, 1]);
        assert_eq!(
            t.assign(&[col(&[text("b"), text("c"), text("a")])], 3),
            vec![1, 2, 0]
        );
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn empty_string_behind_a_leading_null_is_one_key() {
        // The builder seeds a text dictionary with "" as the leading
        // NULL's placeholder; the real "" must share that code, or a ""
        // from another dictionary finds the placeholder's code and misses
        // the rows.
        let a = [Value::Null, text(""), text("a")];
        let b = [text(""), text("a")];
        assert_eq!(join(&a, &b), vec![vec![1], vec![2]]);
        assert_eq!(join(&b, &a), vec![vec![], vec![0], vec![1]]);
        assert_eq!(
            join(&a, &[text("b"), text(""), Value::Null]),
            vec![vec![], vec![1], vec![]],
            "a probe dictionary of its own interns by string"
        );
        let mut t = GroupTable::new(1);
        assert_eq!(t.assign(&[col(&a)], 3), vec![0, 1, 2]);
        assert_eq!(t.assign(&[col(&b)], 2), vec![1, 2]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn shared_dictionary_codes_are_used_unchanged() {
        let batch =
            Batch::from_rows(&[vec![text("x")], vec![text("y")], vec![text("x")]], &[DataType::Text]);
        let table = JoinTable::build(&batch.cols, 3);
        // Same `Arc`: no string is ever looked up, so no index is built.
        let ids = table.lookup(&batch.slice(1..3).cols, 2);
        assert_eq!(
            ids.iter().map(|&id| table.matches(id)).collect::<Vec<_>>(),
            [&[1][..], &[0, 2]]
        );
        assert!(table.table.pools[0].index.get().is_none());
    }

    #[test]
    fn dense_domain_uses_the_direct_index_and_survives_outliers() {
        let dense: Vec<Value> = (0..500).map(|i| Value::Int(1990 + i % 30)).collect();
        let mut t = GroupTable::new(1);
        let ids = t.assign(&[col(&dense)], dense.len());
        assert!(matches!(t.0.index, Index::Direct { .. }));
        assert_eq!(t.len(), 30);
        assert_eq!(ids[31], 1);
        // A key outside the array (and one of another type) moves the
        // table to hashing without renumbering a group.
        assert_eq!(t.assign(&[col(&[Value::Int(5), Value::Int(1991)])], 2), vec![30, 1]);
        assert_eq!(t.assign(&[col(&[Value::Float(1992.5), Value::Float(1992.0)])], 2), vec![31, 2]);
        assert!(matches!(t.0.index, Index::Hash { .. }));
        let sparse: Vec<Value> = (0..100).map(|i| Value::Int(i * 1_000_003)).collect();
        let mut t = GroupTable::new(1);
        t.assign(&[col(&sparse)], sparse.len());
        assert!(matches!(t.0.index, Index::Hash { .. }));
    }

    #[test]
    fn pairs_fill_in_bounded_batches() {
        let build: Vec<Value> = (0..300).map(|_| Value::Int(7)).collect();
        let probe: Vec<Value> = (0..200).map(|i| Value::Int(7 + i % 2)).collect();
        let table = JoinTable::build(&[col(&build)], build.len());
        let ids = table.lookup(&[col(&probe)], probe.len());
        let (mut from, mut total, mut calls) = (0, 0, 0);
        while from < ids.len() {
            let (mut p, mut b) = (Vec::new(), Vec::new());
            from = table.pairs(&ids, from, &mut p, &mut b);
            assert!(p.len() < PROBE_PAIRS + 300);
            assert!(p.windows(2).all(|w| w[0] <= w[1]));
            total += p.len();
            calls += 1;
        }
        assert_eq!(total, 100 * 300);
        assert!(calls > 1);
    }

    /// Model key: `cmp_rows` order, which is `total_eq` equality.
    #[derive(Debug)]
    struct K(Row);
    impl PartialEq for K {
        fn eq(&self, o: &K) -> bool {
            cmp_rows(&self.0, &o.0).is_eq()
        }
    }
    impl Eq for K {}
    impl PartialOrd for K {
        fn partial_cmp(&self, o: &K) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    impl Ord for K {
        fn cmp(&self, o: &K) -> std::cmp::Ordering {
            cmp_rows(&self.0, &o.0)
        }
    }

    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// One cell of a key column of the given flavor: every flavor is one
    /// type's loop (dense and sparse integer domains, floats with NaN and
    /// -0.0, dictionary text, dates). About one cell in six is NULL.
    fn gen_cell(flavor: u64, domain: u64, r: &mut Rng) -> Value {
        if r.below(6) == 0 {
            return Value::Null;
        }
        let x = r.below(domain);
        match flavor {
            0 => Value::Int(x as i64 - 3),
            1 => Value::Int((x as i64 - 3) * 7_000_000_007),
            2 => match x % 5 {
                0 => Value::Float(f64::NAN),
                1 => Value::Float(-0.0),
                _ => Value::Float(x as f64 / 2.0),
            },
            // "" is the builder's NULL placeholder: with a NULL ahead of
            // it in the column it must still be one key.
            3 if x.is_multiple_of(7) => Value::Text(String::new()),
            3 => Value::Text(format!("s{x}")),
            _ => Value::Date(x as i32 - 10),
        }
    }

    fn flavor_type(flavor: u64) -> DataType {
        [DataType::Int, DataType::Int, DataType::Float, DataType::Text, DataType::Date][flavor as usize]
    }

    fn gen_keys(r: &mut Rng, flavors: &[u64], domain: u64, n: usize) -> Vec<Row> {
        (0..n)
            .map(|_| flavors.iter().map(|&f| gen_cell(f, domain, r)).collect())
            .collect()
    }

    /// `exec::join_key`'s normal form as values: numbers to one float
    /// per key, `None` for a NULL component.
    fn join_norm(key: &Row) -> Option<Row> {
        key.iter()
            .map(|v| match v {
                Value::Null => None,
                Value::Int(i) => Some(Value::Float(*i as f64)),
                Value::Float(f) if f.is_nan() => Some(Value::Float(f64::NAN)),
                v => Some(v.clone()),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn tables_match_btreemap_model(seed in proptest::any::<u64>()) {
            let mut r = Rng(seed | 1);
            let flavors: Vec<u64> = (0..1 + r.below(3)).map(|_| r.below(5)).collect();
            let types: Vec<DataType> = flavors.iter().map(|&f| flavor_type(f)).collect();
            // Small domains make duplicates, large ones make the table
            // grow through several resizes.
            let domain = [4, 40, 5000][r.below(3) as usize];
            let n = r.below(600) as usize;
            let build = gen_keys(&mut r, &flavors, domain, n);
            let n_probe = r.below(200) as usize;
            let probe = gen_keys(&mut r, &flavors, domain, n_probe);
            let width = flavors.len();
            let batch = |rows: &[Row]| Batch::from_rows(rows, &types);

            // Grouping, fed in two calls: ids follow first appearance.
            let mut model: BTreeMap<K, u32> = BTreeMap::new();
            let mut table = GroupTable::new(width);
            let split = n / 3;
            let mut got = table.assign(&batch(&build[..split]).cols, split);
            got.extend(table.assign(&batch(&build[split..]).cols, n - split));
            for (key, id) in build.iter().zip(got) {
                let next = model.len() as u32;
                prop_assert_eq!(id, *model.entry(K(key.clone())).or_insert(next), "group of {:?}", key);
            }
            prop_assert_eq!(table.len(), model.len());

            // Join: every probe row's matches, in build order.
            let mut model: BTreeMap<K, Vec<usize>> = BTreeMap::new();
            for (i, key) in build.iter().enumerate() {
                if let Some(k) = join_norm(key) {
                    model.entry(K(k)).or_default().push(i);
                }
            }
            let table = JoinTable::build(&batch(&build).cols, n);
            let ids = table.lookup(&batch(&probe).cols, probe.len());
            for (key, id) in probe.iter().zip(ids) {
                let want = join_norm(key).and_then(|k| model.get(&K(k)).cloned()).unwrap_or_default();
                let got: Vec<usize> = if id == NO_KEY {
                    Vec::new()
                } else {
                    table.matches(id).iter().map(|&r| r as usize).collect()
                };
                prop_assert_eq!(got, want, "matches of {:?}", key);
            }
        }
    }
}
