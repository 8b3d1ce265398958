//! Eclat frequent-itemset mining (Zaki, IEEE TKDE 2000) — the pipeline's
//! miner.
//!
//! Vertical layout (one transaction-id set per frequent item), depth-first
//! prefix extension by tid-set intersection. The encoded traces are narrow
//! and dense (a few dozen items, ~14 per job), so at the paper's 5%
//! support every tid-set is a packed bitset and an intersection is a
//! word-wise AND + popcount ([`crate::simd`]). At a fixed threshold the
//! frequent family is unique, so the output equals FP-Growth's and
//! Apriori's (property-tested at real widths).
//!
//! * Tid-sets are density-adaptive: one covering at least one transaction
//!   in [`DENSE_CUTOVER_FACTOR`] is a bitset, a thinner one a sorted list,
//!   so low-support runs keep paying sparse-merge costs in the deep
//!   lattice instead of full-universe word scans.
//! * The layout is built in one scan from [`TransactionDb::item_counts`]:
//!   dense items set their bits in place, sparse items fill presized
//!   lists.
//! * At the last level (prefix length `max_len − 1`) extensions are only
//!   counted ([`simd::and_count`]), never stored.
//! * Every conditional tail comes from a per-worker, per-depth [`Tail`]
//!   pool, like FP-Growth's frame pool, so steady-state mining allocates
//!   nothing beyond the emitted itemsets.
//! * On a pool wider than one worker each top-level item is one task, and fat
//!   prefix ranges keep splitting through [`rayon::join`] at every depth.
//!   Results merge in item order, so the output is identical at any
//!   width. A panic is contained per top-level item and comes back as
//!   [`MineError::WorkerPanic`].

use std::cell::RefCell;
use std::panic::AssertUnwindSafe;

use irma_obs::Metrics;
use rayon::prelude::*;

use crate::budget::{BudgetBreach, BudgetGuard, MineError};
use crate::counts::{FrequentItemsets, MinerConfig};
use crate::db::TransactionDb;
use crate::item::{ItemId, Itemset};
use crate::simd;

/// Representation cutover: a tid-set covering at least `1 /
/// DENSE_CUTOVER_FACTOR` of all transactions is stored dense. At 32, the
/// dense words (`n_txns / 8` bytes) never exceed the sparse list they
/// replace (`4 * count` bytes).
const DENSE_CUTOVER_FACTOR: u64 = 32;

/// Prefix ranges narrower than this run sequentially: below it the fork
/// bookkeeping (a deque push/pop per split) costs more than the work a
/// thief could take.
const PAR_SPLIT_MIN: usize = 8;

/// Where one tail entry's tid-set is stored inside its [`Tail`].
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// A bitset: this range of [`Tail::words`].
    Dense(usize, usize),
    /// A sorted tid list: this range of [`Tail::tids`].
    Sparse(usize, usize),
}

/// A borrowed tid-set.
#[derive(Debug, Clone, Copy)]
enum Tids<'a> {
    Dense(&'a [u64]),
    Sparse(&'a [u32]),
}

/// Whether bit `tid` is set.
fn has(words: &[u64], tid: u32) -> bool {
    words[(tid / 64) as usize] & (1u64 << (tid % 64)) != 0
}

/// Calls `f` with every tid in both sorted lists, in order.
fn merge(a: &[u32], b: &[u32], mut f: impl FnMut(u32)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Support of `a ∩ b`, computed without storing the intersection.
fn count_join(a: Tids<'_>, b: Tids<'_>) -> u64 {
    match (a, b) {
        (Tids::Dense(x), Tids::Dense(y)) => simd::and_count(x, y),
        (Tids::Sparse(tids), Tids::Dense(words)) | (Tids::Dense(words), Tids::Sparse(tids)) => {
            tids.iter().filter(|&&tid| has(words, tid)).count() as u64
        }
        (Tids::Sparse(x), Tids::Sparse(y)) => {
            let mut count = 0;
            merge(x, y, |_| count += 1);
            count
        }
    }
}

/// Immutable mining parameters threaded through the recursion. The guard
/// rides along by reference, so stolen subtasks charge the same shared
/// accounting as the spawning worker.
struct Ctx<'a> {
    n_txns: usize,
    /// Words per dense tid-set.
    n_words: usize,
    min_count: u64,
    max_len: usize,
    /// Fork at all: the pool is wider than one worker.
    parallel: bool,
    guard: &'a BudgetGuard,
}

/// The items that can extend one prefix, in ascending item order, each
/// with its support and the tid-set of the prefix plus that item. Stored
/// flat, so a cleared tail reuses its allocations on the next fill.
#[derive(Debug, Default)]
struct Tail {
    entries: Vec<(ItemId, u64, Slot)>,
    /// Dense tid-sets. Grows to its high-water mark and never shrinks, so
    /// a refill writes over old slots without zeroing or reallocating.
    words: Vec<u64>,
    /// Words of `words` holding this occupant's sets.
    words_used: usize,
    /// Sparse tid-sets, concatenated.
    tids: Vec<u32>,
}

thread_local! {
    static TAIL_POOL: RefCell<Vec<Tail>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a pooled [`Tail`]: pops one (or allocates the first time
/// this worker reaches this depth) and returns it afterwards. Each
/// recursion level holds one tail while active, so stolen subtasks draw
/// from their own worker's pool and nothing is shared.
fn with_tail<R>(f: impl FnOnce(&mut Tail) -> R) -> R {
    let mut tail = TAIL_POOL
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default();
    let result = f(&mut tail);
    tail.clear();
    TAIL_POOL.with(|pool| pool.borrow_mut().push(tail));
    result
}

impl Tail {
    /// The vertical layout: every frequent item of `db` with its tid-set,
    /// sized from the item counts and filled in one scan.
    fn layout(db: &TransactionDb, ctx: &Ctx<'_>) -> Tail {
        let mut tail = Tail::default();
        let mut sparse_len = 0;
        // Per item: where its next tid goes (a sparse slot's start doubles
        // as its fill cursor).
        let mut place: Vec<Option<Slot>> = Vec::with_capacity(db.n_items());
        for (item, count) in db.item_counts().into_iter().enumerate() {
            let slot = if count < ctx.min_count {
                None
            } else if count * DENSE_CUTOVER_FACTOR >= ctx.n_txns as u64 {
                tail.words_used += ctx.n_words;
                Some(Slot::Dense(tail.words_used - ctx.n_words, tail.words_used))
            } else {
                sparse_len += count as usize;
                Some(Slot::Sparse(sparse_len - count as usize, sparse_len))
            };
            if let Some(slot) = slot {
                tail.entries.push((item as ItemId, count, slot));
            }
            place.push(slot);
        }
        tail.words = vec![0; tail.words_used];
        tail.tids = vec![0; sparse_len];
        for (tid, txn) in db.iter().enumerate() {
            for &item in txn {
                match &mut place[item as usize] {
                    Some(Slot::Dense(start, _)) => {
                        tail.words[*start + tid / 64] |= 1u64 << (tid % 64);
                    }
                    Some(Slot::Sparse(next, _)) => {
                        tail.tids[*next] = tid as u32;
                        *next += 1;
                    }
                    None => {}
                }
            }
        }
        tail
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.words_used = 0;
        self.tids.clear();
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Entry `pos`: item, support and tid-set.
    fn get(&self, pos: usize) -> (ItemId, u64, Tids<'_>) {
        let (item, count, slot) = self.entries[pos];
        let tids = match slot {
            Slot::Dense(start, end) => Tids::Dense(&self.words[start..end]),
            Slot::Sparse(start, end) => Tids::Sparse(&self.tids[start..end]),
        };
        (item, count, tids)
    }

    /// Bytes of tid-sets this occupant holds, charged against the budget's
    /// tree-memory cap as if freshly allocated, so where a cap trips does
    /// not depend on pool warmth or pool width.
    fn bytes(&self) -> u64 {
        (self.words_used * 8 + self.tids.len() * 4) as u64
    }

    /// Appends `item` with tid-set `a ∩ b` if its support reaches the
    /// threshold, stored dense or sparse by its density.
    fn push_join(&mut self, item: ItemId, a: Tids<'_>, b: Tids<'_>, ctx: &Ctx<'_>) {
        let tids_start = self.tids.len();
        let slot = match (a, b) {
            (Tids::Dense(x), Tids::Dense(y)) => {
                let start = self.words_used;
                let end = start + ctx.n_words;
                if self.words.len() < end {
                    self.words.resize(end, 0);
                }
                let words = &mut self.words[start..end];
                let count = simd::and_popcount(x, y, words);
                if count < ctx.min_count {
                    return;
                }
                if count * DENSE_CUTOVER_FACTOR >= ctx.n_txns as u64 {
                    self.words_used = end;
                    self.entries.push((item, count, Slot::Dense(start, end)));
                    return;
                }
                // Below the cutover: decode to a sorted list so deeper
                // levels pay sparse-merge costs, not full-universe scans.
                for (index, &word) in words.iter().enumerate() {
                    let mut word = word;
                    while word != 0 {
                        self.tids.push(index as u32 * 64 + word.trailing_zeros());
                        word &= word - 1;
                    }
                }
                Slot::Sparse(tids_start, self.tids.len())
            }
            (Tids::Sparse(tids), Tids::Dense(words)) | (Tids::Dense(words), Tids::Sparse(tids)) => {
                // No larger than the sparse operand, already below the
                // cutover, so the result stays sparse.
                self.tids
                    .extend(tids.iter().copied().filter(|&tid| has(words, tid)));
                Slot::Sparse(tids_start, self.tids.len())
            }
            (Tids::Sparse(x), Tids::Sparse(y)) => {
                merge(x, y, |tid| self.tids.push(tid));
                Slot::Sparse(tids_start, self.tids.len())
            }
        };
        let count = (self.tids.len() - tids_start) as u64;
        if count >= ctx.min_count {
            self.entries.push((item, count, slot));
        } else {
            self.tids.truncate(tids_start);
        }
    }
}

/// A batch of emitted itemsets, merged in item order.
type Chunk = Vec<(Itemset, u64)>;

/// Depth-first extension of `prefix` by the entries at positions
/// `lo..hi` of `tail`, appending to `out` and counting intersections in
/// `joins`.
///
/// On a pool wider than one worker, a range of [`PAR_SPLIT_MIN`] or more
/// positions splits in two via [`rayon::join`] — at every depth, so one
/// fat prefix subtree keeps forking stealable halves instead of
/// serializing a worker. The whole `tail` travels to both halves:
/// position `p` joins with `tail[p + 1..]`, which crosses the split
/// point. Halves emit into their own buffers, merged left then right, so
/// the output order is the 1-wide one; on concurrent failures the left
/// error wins.
///
/// Checkpoints the guard once per call, charges one itemset per emission
/// and each stored tail's bytes.
fn extend(
    prefix: &[ItemId],
    tail: &Tail,
    lo: usize,
    hi: usize,
    ctx: &Ctx<'_>,
    out: &mut Chunk,
    joins: &mut u64,
) -> Result<(), BudgetBreach> {
    ctx.guard.checkpoint()?;
    if ctx.parallel && hi - lo >= PAR_SPLIT_MIN {
        let mid = lo + (hi - lo) / 2;
        let half = |from: usize, to: usize| {
            let (mut chunk, mut n) = (Vec::new(), 0);
            let result = extend(prefix, tail, from, to, ctx, &mut chunk, &mut n);
            (result, chunk, n)
        };
        let ((left, left_out, left_n), (right, right_out, right_n)) =
            rayon::join(|| half(lo, mid), || half(mid, hi));
        left?;
        right?;
        out.extend(left_out);
        out.extend(right_out);
        *joins += left_n + right_n;
        return Ok(());
    }
    for pos in lo..hi {
        let (item, count, tids) = tail.get(pos);
        let mut itemset = Vec::with_capacity(prefix.len() + 1);
        itemset.extend_from_slice(prefix);
        itemset.push(item);
        ctx.guard.charge_itemsets(1)?;
        out.push((Itemset::from_sorted(itemset.clone()), count));
        let later = pos + 1..tail.len();
        if itemset.len() >= ctx.max_len || later.is_empty() {
            continue;
        }
        *joins += later.len() as u64;
        if itemset.len() + 1 == ctx.max_len {
            // Last level: each extension is only counted, never stored.
            for other in later {
                let (other_item, _, other_tids) = tail.get(other);
                let joined = count_join(tids, other_tids);
                if joined >= ctx.min_count {
                    ctx.guard.charge_itemsets(1)?;
                    let mut set = Vec::with_capacity(itemset.len() + 1);
                    set.extend_from_slice(&itemset);
                    set.push(other_item);
                    out.push((Itemset::from_sorted(set), joined));
                }
            }
            continue;
        }
        with_tail(|next| {
            for other in later {
                let (other_item, _, other_tids) = tail.get(other);
                next.push_join(other_item, tids, other_tids, ctx);
            }
            ctx.guard.charge_tree_bytes(next.bytes())?;
            if next.len() == 0 {
                return Ok(());
            }
            extend(&itemset, next, 0, next.len(), ctx, out, joins)
        })?;
    }
    Ok(())
}

/// Renders a `catch_unwind` payload for a [`MineError::WorkerPanic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Mines all frequent itemsets with Eclat.
///
/// Emits a `mine.tree_build` stage event for the vertical layout
/// (`transactions_in`, `frequent_items`, `tidset_bytes`) and a
/// `mine.mine` event (`itemsets_out`, `intersections`) into `metrics`.
///
/// Budget breaches come back as [`MineError::Budget`]; the tree-memory
/// cap is charged with the layout's bytes and every stored tail's. An
/// invalid config is [`MineError::InvalidConfig`], and a panic inside a
/// top-level item's subtree — wherever it was stolen to — is contained by
/// that item's `catch_unwind` and surfaced as [`MineError::WorkerPanic`].
/// When several items fail, the lowest position's error wins.
pub fn eclat(
    db: &TransactionDb,
    config: &MinerConfig,
    metrics: &Metrics,
    guard: &BudgetGuard,
) -> Result<FrequentItemsets, MineError> {
    config.validate().map_err(MineError::InvalidConfig)?;
    guard.checkpoint_now()?;
    let n_txns = db.len();
    let ctx = Ctx {
        n_txns,
        n_words: n_txns.div_ceil(64),
        min_count: config.min_count(n_txns),
        max_len: config.max_len,
        parallel: rayon::current_num_threads() > 1,
        guard,
    };

    let mut span = metrics.span("mine.tree_build");
    let layout = Tail::layout(db, &ctx);
    span.field("transactions_in", n_txns as u64);
    span.field("frequent_items", layout.len() as u64);
    span.field("tidset_bytes", layout.bytes());
    drop(span);
    guard.charge_tree_bytes(layout.bytes())?;
    guard.checkpoint_now()?;

    let mut span = metrics.span("mine.mine");
    let mine_item = |pos: usize| -> Result<(Chunk, u64), MineError> {
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            let (mut chunk, mut joins) = (Vec::new(), 0);
            extend(&[], &layout, pos, pos + 1, &ctx, &mut chunk, &mut joins)?;
            Ok((chunk, joins))
        }))
        .unwrap_or_else(|payload| {
            Err(MineError::WorkerPanic {
                message: panic_message(payload),
            })
        })
    };
    let results: Vec<_> = (0..layout.len()).into_par_iter().map(mine_item).collect();
    let mut out: Chunk = Vec::new();
    let mut joins = 0;
    for result in results {
        let (chunk, n) = result?;
        out.extend(chunk);
        joins += n;
    }
    span.field("itemsets_out", out.len() as u64);
    span.field("intersections", joins);
    drop(span);

    Ok(FrequentItemsets::new(out, n_txns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::apriori;
    use crate::budget::ExecBudget;
    use crate::fpgrowth::fpgrowth;

    fn textbook_db() -> TransactionDb {
        TransactionDb::from_transactions(vec![
            vec![0, 1],
            vec![1, 2, 3],
            vec![0, 2, 3, 4],
            vec![0, 3, 4],
            vec![0, 1, 2],
            vec![0, 1, 2, 3],
            vec![0],
            vec![0, 1, 2],
            vec![0, 1, 3],
            vec![1, 2, 4],
        ])
    }

    fn unbudgeted(db: &TransactionDb, config: &MinerConfig) -> FrequentItemsets {
        eclat(db, config, &Metrics::disabled(), &BudgetGuard::unlimited()).unwrap()
    }

    fn ctx(n_txns: usize, guard: &BudgetGuard) -> Ctx<'_> {
        Ctx {
            n_txns,
            n_words: n_txns.div_ceil(64),
            min_count: 1,
            max_len: 5,
            parallel: false,
            guard,
        }
    }

    /// Decodes any tid-set to a sorted list.
    fn decode(tids: Tids<'_>) -> Vec<u32> {
        match tids {
            Tids::Sparse(tids) => tids.to_vec(),
            Tids::Dense(words) => (0..words.len() as u32 * 64)
                .filter(|&tid| has(words, tid))
                .collect(),
        }
    }

    /// A one-entry tail holding `tids` in the given representation.
    fn tail_of(tids: &[u32], dense: bool, n_txns: usize) -> Tail {
        let mut tail = Tail::default();
        let slot = if dense {
            tail.words = vec![0; n_txns.div_ceil(64)];
            for &tid in tids {
                tail.words[(tid / 64) as usize] |= 1u64 << (tid % 64);
            }
            tail.words_used = tail.words.len();
            Slot::Dense(0, tail.words_used)
        } else {
            tail.tids = tids.to_vec();
            Slot::Sparse(0, tids.len())
        };
        tail.entries.push((0, tids.len() as u64, slot));
        tail
    }

    #[test]
    fn merge_intersects_sorted_lists() {
        let run = |a: &[u32], b: &[u32]| {
            let mut out = Vec::new();
            merge(a, b, |tid| out.push(tid));
            out
        };
        assert_eq!(run(&[1, 3, 5, 7], &[2, 3, 5, 9]), vec![3, 5]);
        assert_eq!(run(&[], &[1]), Vec::<u32>::new());
        assert_eq!(run(&[4], &[4]), vec![4]);
    }

    /// Every representation pairing (sparse/sparse, dense/dense, mixed)
    /// must agree with the sorted-merge reference, stored or counted.
    #[test]
    fn joins_match_sparse_reference_in_every_pairing() {
        // 128 transactions; a = multiples of 2, b = multiples of 3.
        let n_txns = 128usize;
        let a: Vec<u32> = (0..n_txns as u32).filter(|t| t % 2 == 0).collect();
        let b: Vec<u32> = (0..n_txns as u32).filter(|t| t % 3 == 0).collect();
        let expected: Vec<u32> = (0..n_txns as u32).filter(|t| t % 6 == 0).collect();
        let guard = BudgetGuard::unlimited();
        let ctx = ctx(n_txns, &guard);
        for (dense_a, dense_b) in [(false, false), (true, true), (false, true), (true, false)] {
            let (x, y) = (tail_of(&a, dense_a, n_txns), tail_of(&b, dense_b, n_txns));
            let (x, y) = (x.get(0).2, y.get(0).2);
            assert_eq!(count_join(x, y), expected.len() as u64);
            let mut joined = Tail::default();
            joined.push_join(7, x, y, &ctx);
            let (item, count, tids) = joined.get(0);
            assert_eq!((item, count), (7, expected.len() as u64));
            assert_eq!(decode(tids), expected);
        }
    }

    /// A dense/dense join whose result falls below the cutover decodes to
    /// a sorted list and releases its dense slot; one below the threshold
    /// leaves no trace.
    #[test]
    fn dense_joins_sparsify_below_cutover() {
        let n_txns = 4096usize;
        let all: Vec<u32> = (0..n_txns as u32).collect();
        let few: Vec<u32> = (0..n_txns as u32).step_by(512).collect();
        let guard = BudgetGuard::unlimited();
        let mut ctx = ctx(n_txns, &guard);
        let (x, y) = (tail_of(&all, true, n_txns), tail_of(&few, true, n_txns));
        let (x, y) = (x.get(0).2, y.get(0).2);
        let mut joined = Tail::default();
        joined.push_join(1, x, y, &ctx);
        assert!(matches!(joined.get(0).2, Tids::Sparse(t) if t == few));
        assert_eq!(joined.words_used, 0);
        ctx.min_count = few.len() as u64 + 1;
        joined.push_join(2, x, y, &ctx);
        assert_eq!((joined.len(), joined.tids.len()), (1, few.len()));
    }

    #[test]
    fn layout_picks_representation_by_density() {
        // Item 0 in every transaction, item 1 in one of 64.
        let db = TransactionDb::from_transactions((0..128u32).map(|t| {
            if t % 64 == 0 {
                vec![0, 1]
            } else {
                vec![0]
            }
        }));
        let guard = BudgetGuard::unlimited();
        let layout = Tail::layout(&db, &ctx(db.len(), &guard));
        let (_, count, tids) = layout.get(0);
        assert!(matches!(tids, Tids::Dense(_)) && count == 128);
        assert_eq!(decode(tids), (0..128).collect::<Vec<u32>>());
        let (_, count, tids) = layout.get(1);
        assert!(matches!(tids, Tids::Sparse(t) if t == [0, 64]) && count == 2);
    }

    #[test]
    fn matches_other_miners() {
        let db = textbook_db();
        for min_support in [0.1, 0.2, 0.4, 0.7] {
            for max_len in 1..=5 {
                let config = MinerConfig {
                    min_support,
                    max_len,
                };
                let e = unbudgeted(&db, &config);
                let f = fpgrowth(&db, &config).unwrap();
                let a = apriori(&db, &config).unwrap();
                assert_eq!(e.as_slice(), f.as_slice());
                assert_eq!(e.as_slice(), a.as_slice());
            }
        }
    }

    #[test]
    fn counts_match_brute_force() {
        let db = textbook_db();
        let fi = unbudgeted(&db, &MinerConfig::with_min_support(0.2));
        for (set, count) in fi.iter() {
            assert_eq!(*count, db.support_count(set));
        }
    }

    /// The last level only counts: at `max_len` 2 the layout is the only
    /// tid-set memory charged, so a cap of exactly its bytes admits the
    /// mine, and one byte less trips it.
    #[test]
    fn last_level_stores_no_tidsets() {
        let db = textbook_db();
        let config = MinerConfig {
            min_support: 0.1,
            max_len: 2,
        };
        let layout_bytes = 5 * 8;
        let capped = |cap: u64| {
            let budget = ExecBudget {
                max_tree_bytes: Some(cap),
                ..ExecBudget::default()
            };
            eclat(
                &db,
                &config,
                &Metrics::disabled(),
                &BudgetGuard::new(&budget),
            )
        };
        let fi = capped(layout_bytes).expect("only the layout is charged");
        assert!(fi.iter().any(|(s, _)| s.len() == 2));
        assert!(matches!(
            capped(layout_bytes - 1),
            Err(MineError::Budget(BudgetBreach::TreeMemory { .. }))
        ));
    }

    #[test]
    fn metrics_capture_layout_and_mine_split() {
        let db = textbook_db();
        let metrics = Metrics::enabled();
        let config = MinerConfig::with_min_support(0.2);
        let fi = eclat(&db, &config, &metrics, &BudgetGuard::unlimited()).unwrap();
        let snap = metrics.snapshot();
        let build = snap.stage("mine.tree_build").expect("tree_build event");
        assert_eq!(build.field("transactions_in"), Some(10));
        assert_eq!(build.field("frequent_items"), Some(5));
        assert_eq!(build.field("tidset_bytes"), Some(5 * 8));
        let mine = snap.stage("mine.mine").expect("mine event");
        assert_eq!(mine.field("itemsets_out"), Some(fi.len() as u64));
        // Every frequent pair was one intersection of two frequent items.
        assert!(mine.field("intersections").unwrap() >= 10);
    }

    #[test]
    fn worker_panic_is_contained_in_both_modes() {
        let db = textbook_db();
        let budget = ExecBudget {
            panic_after_emits: Some(2),
            ..ExecBudget::default()
        };
        let config = MinerConfig::with_min_support(0.1);
        for width in [1, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap();
            let err = pool.install(|| {
                eclat(
                    &db,
                    &config,
                    &Metrics::disabled(),
                    &BudgetGuard::new(&budget),
                )
            });
            assert!(
                matches!(&err, Err(MineError::WorkerPanic { message }) if message.contains("injected")),
                "width {width}: {err:?}"
            );
        }
    }
}
