//! FP-Growth frequent-itemset mining (Han et al., DMKD 2004).
//!
//! The paper adopts FP-Growth over Apriori because the traces are large
//! (850k jobs for PAI) and Apriori's candidate generation blows up at 5%
//! support (§III-C). This implementation is hand-rolled:
//!
//! * the FP-tree lives in a flat arena (`Vec<FpNode>`) with intrusive
//!   `first_child` / `next_sibling` / `next_header` links — no `Rc`/
//!   `RefCell` pointer chasing, no per-node allocation at all;
//! * conditional trees are built from weighted prefix paths, re-ranked by
//!   conditional frequency;
//! * single-prefix-path subtrees short-circuit into direct subset
//!   enumeration;
//! * every working structure the recursion needs (pattern base, build
//!   scratch, conditional tree, path buffer) comes from a per-worker
//!   [`Frame`] pool, so steady-state mining performs zero heap
//!   allocation beyond the emitted itemsets themselves;
//! * on a pool wider than one worker, the recursion fans out through
//!   [`rayon::join`]: rank ranges split in two at *every* depth (above a
//!   node-count threshold), so skewed conditional subtrees become
//!   stealable tasks instead of serializing behind a static per-rank
//!   chunking. Results are merged left-before-right in rank order, so
//!   the output is identical regardless of which worker ran what.

use std::cell::RefCell;

use crate::budget::MineError;
use crate::counts::{FrequentItemsets, MinerConfig};
use crate::db::TransactionDb;
use crate::item::{ItemId, Itemset};

/// Sentinel rank used for the root node.
const NO_ITEM: u32 = u32::MAX;
/// Sentinel arena index terminating intrusive lists.
const NO_NODE: u32 = u32::MAX;
/// A conditional tree smaller than this mines inline rather than
/// forking: the join/steal overhead would exceed the subtree's work.
/// (The top level always forks — per-rank subtrees are the natural
/// parallel units.)
const FORK_NODE_THRESHOLD: usize = 128;

/// One FP-tree node (32 bytes; all links are arena indices).
#[derive(Debug, Clone)]
struct FpNode {
    /// Rank (frequency-order index) of the item at this node.
    rank: u32,
    /// Accumulated path count.
    count: u64,
    /// Arena index of the parent (root's parent is itself).
    parent: u32,
    /// Head of this node's child list.
    first_child: u32,
    /// Next node in the parent's child list.
    next_sibling: u32,
    /// Next node holding the same rank (header chain).
    next_header: u32,
}

/// The conditional pattern base of one rank: weighted prefix paths,
/// stored flat (one item vector + `(start, end, weight)` spans) so a
/// cleared base reuses its allocations on the next fill.
#[derive(Debug, Default)]
struct PatternBase {
    items: Vec<ItemId>,
    spans: Vec<(u32, u32, u64)>,
    /// Smallest universe covering every item present (`max item + 1`).
    universe: usize,
}

impl PatternBase {
    fn clear(&mut self) {
        self.items.clear();
        self.spans.clear();
        self.universe = 0;
    }

    fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Weighted paths in insertion order, borrowed from the flat store.
    fn paths(&self) -> impl Iterator<Item = (&[ItemId], u64)> + '_ {
        self.spans
            .iter()
            .map(move |&(start, end, weight)| (&self.items[start as usize..end as usize], weight))
    }

    /// Fills from an iterator of weighted paths, draining it exactly
    /// once (the input may be a one-shot iterator).
    fn fill<'a, I>(&mut self, paths: I)
    where
        I: IntoIterator<Item = (&'a [ItemId], u64)>,
    {
        self.clear();
        for (path, weight) in paths {
            let start = self.items.len() as u32;
            self.items.extend_from_slice(path);
            for &item in path {
                self.universe = self.universe.max(item as usize + 1);
            }
            self.spans.push((start, self.items.len() as u32, weight));
        }
    }
}

/// Reusable buffers for [`FpTree::rebuild`]'s count/rank/insert passes.
#[derive(Debug, Default)]
struct BuildScratch {
    counts: Vec<u64>,
    item_to_rank: Vec<u32>,
    frequent: Vec<ItemId>,
    ranked: Vec<u32>,
}

/// An FP-tree over an item universe restricted to frequent items.
#[derive(Debug, Default)]
struct FpTree {
    nodes: Vec<FpNode>,
    /// Per-rank head of the intrusive header chain (`NO_NODE` = empty).
    headers: Vec<u32>,
    /// Per-rank total support count.
    rank_counts: Vec<u64>,
    /// Rank -> global item id.
    rank_to_item: Vec<ItemId>,
}

impl FpTree {
    /// Builds a fresh tree from weighted paths of *global* item ids.
    /// Convenience wrapper over [`PatternBase::fill`] + [`rebuild`] for
    /// the root tree and tests; the recursion reuses pooled frames
    /// instead.
    ///
    /// The input is drained exactly once, so one-shot iterators are
    /// usable and whatever computation feeds `paths` never re-runs.
    ///
    /// [`rebuild`]: FpTree::rebuild
    fn build<'a, I>(paths: I, n_items: usize, min_count: u64) -> FpTree
    where
        I: IntoIterator<Item = (&'a [ItemId], u64)>,
    {
        let mut base = PatternBase::default();
        base.fill(paths);
        base.universe = base.universe.max(n_items);
        let mut tree = FpTree::default();
        let mut scratch = BuildScratch::default();
        tree.rebuild(&base, min_count, &mut scratch);
        tree
    }

    /// Rebuilds this tree in place from a pattern base, reusing every
    /// allocation from the previous occupant.
    ///
    /// Items below `min_count` are dropped; survivors are ranked by
    /// descending count (ascending id tie-break, so results are
    /// deterministic regardless of thread scheduling).
    fn rebuild(&mut self, base: &PatternBase, min_count: u64, scratch: &mut BuildScratch) {
        let n_items = base.universe;
        scratch.counts.clear();
        scratch.counts.resize(n_items, 0);
        for (path, weight) in base.paths() {
            for &item in path {
                scratch.counts[item as usize] += weight;
            }
        }
        scratch.frequent.clear();
        scratch
            .frequent
            .extend((0..n_items as ItemId).filter(|&i| scratch.counts[i as usize] >= min_count));
        let counts = &scratch.counts;
        scratch.frequent.sort_unstable_by(|&a, &b| {
            counts[b as usize]
                .cmp(&counts[a as usize])
                .then_with(|| a.cmp(&b))
        });
        scratch.item_to_rank.clear();
        scratch.item_to_rank.resize(n_items, NO_ITEM);
        for (rank, &item) in scratch.frequent.iter().enumerate() {
            scratch.item_to_rank[item as usize] = rank as u32;
        }

        self.nodes.clear();
        self.nodes.push(FpNode {
            rank: NO_ITEM,
            count: 0,
            parent: 0,
            first_child: NO_NODE,
            next_sibling: NO_NODE,
            next_header: NO_NODE,
        });
        self.headers.clear();
        self.headers.resize(scratch.frequent.len(), NO_NODE);
        self.rank_counts.clear();
        self.rank_counts
            .extend(scratch.frequent.iter().map(|&i| scratch.counts[i as usize]));
        self.rank_to_item.clear();
        self.rank_to_item.extend_from_slice(&scratch.frequent);

        for (path, weight) in base.paths() {
            scratch.ranked.clear();
            scratch.ranked.extend(
                path.iter()
                    .map(|&i| scratch.item_to_rank[i as usize])
                    .filter(|&r| r != NO_ITEM),
            );
            scratch.ranked.sort_unstable();
            self.insert(&scratch.ranked, weight);
        }
    }

    /// Inserts one ranked path with a weight. Children are matched by a
    /// linear scan and appended at the tail on a miss: ranked paths are
    /// inserted in ascending-rank order, so the most frequent ranks land
    /// near the front of each child list where the scan finds them
    /// first.
    fn insert(&mut self, ranked: &[u32], weight: u64) {
        let mut node = 0u32;
        for &rank in ranked {
            let mut child = self.nodes[node as usize].first_child;
            let mut last = NO_NODE;
            while child != NO_NODE && self.nodes[child as usize].rank != rank {
                last = child;
                child = self.nodes[child as usize].next_sibling;
            }
            node = if child != NO_NODE {
                self.nodes[child as usize].count += weight;
                child
            } else {
                let new = self.nodes.len() as u32;
                self.nodes.push(FpNode {
                    rank,
                    count: weight,
                    parent: node,
                    first_child: NO_NODE,
                    next_sibling: NO_NODE,
                    next_header: self.headers[rank as usize],
                });
                self.headers[rank as usize] = new;
                if last == NO_NODE {
                    self.nodes[node as usize].first_child = new;
                } else {
                    self.nodes[last as usize].next_sibling = new;
                }
                new
            };
        }
    }

    /// Number of distinct frequent items in this tree.
    fn n_ranks(&self) -> usize {
        self.rank_to_item.len()
    }

    /// If the whole tree is one downward path, fills `out` with its
    /// `(item, count)` pairs (root excluded) and returns `true`. On
    /// `false`, `out` holds a meaningless prefix.
    fn single_path_into(&self, out: &mut Vec<(ItemId, u64)>) -> bool {
        out.clear();
        let mut node = 0usize;
        loop {
            let first = self.nodes[node].first_child;
            if first == NO_NODE {
                return true;
            }
            if self.nodes[first as usize].next_sibling != NO_NODE {
                return false;
            }
            node = first as usize;
            let n = &self.nodes[node];
            out.push((self.rank_to_item[n.rank as usize], n.count));
        }
    }

    /// Writes the conditional pattern base of `rank` — weighted prefix
    /// paths of global item ids — into a caller-provided scratch base
    /// (unsorted; `rebuild` re-ranks anyway). Borrowed flat storage
    /// replaces the former per-call `Vec<(Vec<ItemId>, u64)>`, so the
    /// projection loop stops allocating once the pool is warm.
    fn pattern_base_into(&self, rank: u32, out: &mut PatternBase) {
        out.clear();
        let mut leaf = self.headers[rank as usize];
        while leaf != NO_NODE {
            let weight = self.nodes[leaf as usize].count;
            let start = out.items.len() as u32;
            let mut node = self.nodes[leaf as usize].parent;
            while node != 0 {
                let n = &self.nodes[node as usize];
                let item = self.rank_to_item[n.rank as usize];
                out.universe = out.universe.max(item as usize + 1);
                out.items.push(item);
                node = n.parent;
            }
            let end = out.items.len() as u32;
            if end > start {
                out.spans.push((start, end, weight));
            }
            leaf = self.nodes[leaf as usize].next_header;
        }
    }
}

/// One level of reusable mining state: a conditional tree, the pattern
/// base feeding it, the build scratch, and a single-path buffer. Frames
/// live in a per-worker pool ([`with_frame`]); each recursion level owns
/// exactly one frame while active, so stolen subtasks on other workers
/// draw from their own pools and nothing is shared.
#[derive(Debug, Default)]
struct Frame {
    tree: FpTree,
    base: PatternBase,
    build: BuildScratch,
    path: Vec<(ItemId, u64)>,
}

impl Frame {
    fn clear(&mut self) {
        // Buffers are overwritten by the next occupant; only the
        // capacity is meant to survive. `clear` keeps the pool's memory
        // bounded by the deepest recursion actually reached.
        self.base.clear();
        self.path.clear();
    }
}

thread_local! {
    static FRAME_POOL: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a pooled [`Frame`]: pops one (or allocates the first
/// time this worker reaches this depth) and returns it afterwards. In
/// steady state every pop is a hit and the recursion allocates nothing.
fn with_frame<R>(f: impl FnOnce(&mut Frame) -> R) -> R {
    let mut frame = FRAME_POOL
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default();
    let result = f(&mut frame);
    frame.clear();
    FRAME_POOL.with(|pool| pool.borrow_mut().push(frame));
    result
}

/// Emits every non-empty subset of a single path, each with the count of
/// its deepest (least-frequent) member, appended to `suffix`.
fn emit_single_path(
    path: &[(ItemId, u64)],
    suffix: &[ItemId],
    max_len: usize,
    out: &mut Vec<(Itemset, u64)>,
) {
    let budget = max_len.saturating_sub(suffix.len());
    if budget == 0 || path.is_empty() {
        return;
    }
    let n = path.len();
    for mask in 1u32..(1 << n) {
        if (mask.count_ones() as usize) > budget {
            continue;
        }
        // Count of a subset of a single path = count at its deepest node.
        let deepest = 31 - mask.leading_zeros();
        let count = path[deepest as usize].1;
        let mut items: Vec<ItemId> = suffix.to_vec();
        items.extend((0..n).filter(|&i| mask & (1 << i) != 0).map(|i| path[i].0));
        out.push((Itemset::from_items(items), count));
    }
}

/// Immutable mining parameters threaded through the recursion.
struct MineCtx {
    min_count: u64,
    max_len: usize,
    /// Pool width captured once at mine start; 1 disables forking.
    width: usize,
}

/// A batch of emitted itemsets from one subtree, merged in rank order.
type Chunk = Vec<(Itemset, u64)>;

/// Recursive FP-Growth over the rank range `[lo, hi)` of `tree`. On a
/// pool wider than one worker, ranges of two or more ranks split in half
/// through [`rayon::join`], making the right half stealable — at *every*
/// recursion depth once the tree clears [`FORK_NODE_THRESHOLD`] (the top
/// level always splits); a 1-wide pool walks the ranks in order. Chunks
/// come back in rank order regardless of steal order.
fn mine_ranks_par(tree: &FpTree, lo: u32, hi: u32, suffix: &[ItemId], ctx: &MineCtx) -> Vec<Chunk> {
    if hi <= lo {
        return Vec::new();
    }
    if hi - lo == 1 {
        return vec![mine_one_rank(tree, lo, suffix, ctx)];
    }
    let fork = ctx.width > 1 && (suffix.is_empty() || tree.nodes.len() >= FORK_NODE_THRESHOLD);
    if fork {
        let mid = lo + (hi - lo) / 2;
        let (mut left, right) = rayon::join(
            || mine_ranks_par(tree, lo, mid, suffix, ctx),
            || mine_ranks_par(tree, mid, hi, suffix, ctx),
        );
        left.extend(right);
        return left;
    }
    (lo..hi)
        .map(|rank| mine_one_rank(tree, rank, suffix, ctx))
        .collect()
}

/// Mines one rank's conditional subtree: emits the extended suffix, then
/// projects, rebuilds, and recurses through [`mine_ranks_par`] so deep
/// subtrees keep fanning out.
fn mine_one_rank(tree: &FpTree, rank: u32, suffix: &[ItemId], ctx: &MineCtx) -> Chunk {
    let count = tree.rank_counts[rank as usize];
    let item = tree.rank_to_item[rank as usize];
    let mut items: Vec<ItemId> = Vec::with_capacity(suffix.len() + 1);
    items.extend_from_slice(suffix);
    items.push(item);
    let mut chunk: Chunk = vec![(Itemset::from_items(items.iter().copied()), count)];
    if items.len() < ctx.max_len {
        with_frame(|frame| {
            tree.pattern_base_into(rank, &mut frame.base);
            if frame.base.is_empty() {
                return;
            }
            frame
                .tree
                .rebuild(&frame.base, ctx.min_count, &mut frame.build);
            if frame.tree.n_ranks() == 0 {
                return;
            }
            if frame.tree.single_path_into(&mut frame.path) && frame.path.len() <= 31 {
                emit_single_path(&frame.path, &items, ctx.max_len, &mut chunk);
                return;
            }
            let n_ranks = frame.tree.n_ranks() as u32;
            for sub in mine_ranks_par(&frame.tree, 0, n_ranks, &items, ctx) {
                chunk.extend(sub);
            }
        });
    }
    chunk
}

/// Mines all frequent itemsets with FP-Growth.
///
/// Equivalent to [`crate::apriori`] and [`crate::eclat`] in output (the
/// equivalence is property-tested) but asymptotically cheaper on large,
/// dense databases. A reference miner: it takes no budget, records no
/// metrics, and a panic inside the fan-out reaches the caller as from
/// any library function. The only error is [`MineError::InvalidConfig`].
pub fn fpgrowth(db: &TransactionDb, config: &MinerConfig) -> Result<FrequentItemsets, MineError> {
    config.validate().map_err(MineError::InvalidConfig)?;
    let n_transactions = db.len();
    let min_count = config.min_count(n_transactions);
    let tree = FpTree::build(db.iter().map(|t| (t, 1)), db.n_items(), min_count);
    let ctx = MineCtx {
        min_count,
        max_len: config.max_len,
        width: rayon::current_num_threads(),
    };
    let out: Chunk = mine_ranks_par(&tree, 0, tree.n_ranks() as u32, &[], &ctx)
        .into_iter()
        .flatten()
        .collect();
    Ok(FrequentItemsets::new(out, n_transactions))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Classic textbook database (Tan, Steinbach, Kumar §6).
    fn textbook_db() -> TransactionDb {
        TransactionDb::from_transactions(vec![
            vec![0, 1],       // {a, b}
            vec![1, 2, 3],    // {b, c, d}
            vec![0, 2, 3, 4], // {a, c, d, e}
            vec![0, 3, 4],    // {a, d, e}
            vec![0, 1, 2],    // {a, b, c}
            vec![0, 1, 2, 3], // {a, b, c, d}
            vec![0],          // {a}
            vec![0, 1, 2],    // {a, b, c}
            vec![0, 1, 3],    // {a, b, d}
            vec![1, 2, 4],    // {b, c, e}
        ])
    }

    fn mine_db(db: &TransactionDb, min_support: f64) -> FrequentItemsets {
        fpgrowth(db, &MinerConfig::with_min_support(min_support)).unwrap()
    }

    #[test]
    fn counts_match_brute_force() {
        let db = textbook_db();
        let fi = mine_db(&db, 0.2);
        assert!(!fi.is_empty());
        for (set, count) in fi.iter() {
            assert_eq!(*count, db.support_count(set), "wrong count for {set}");
        }
    }

    #[test]
    fn finds_all_frequent_itemsets() {
        let db = textbook_db();
        let fi = mine_db(&db, 0.2);
        // Brute-force enumeration over the 5-item universe.
        let mut expected = 0usize;
        for mask in 1u32..(1 << 5) {
            let set = Itemset::from_items((0..5).filter(|&i| mask & (1 << i) != 0));
            let count = db.support_count(&set);
            if count >= 2 {
                expected += 1;
                assert_eq!(fi.count(&set), Some(count), "missing {set}");
            } else {
                assert_eq!(fi.count(&set), None, "spurious {set}");
            }
        }
        assert_eq!(fi.len(), expected);
    }

    #[test]
    fn max_len_caps_itemsets() {
        let db = textbook_db();
        let config = MinerConfig {
            min_support: 0.1,
            max_len: 2,
        };
        let fi = fpgrowth(&db, &config).unwrap();
        assert!(fi.iter().all(|(s, _)| s.len() <= 2));
        // And the capped family equals the full family filtered to len<=2.
        let full = mine_db(&db, 0.1);
        let expected: Vec<_> = full.iter().filter(|(s, _)| s.len() <= 2).cloned().collect();
        assert_eq!(fi.as_slice(), expected.as_slice());
    }

    #[test]
    fn high_support_returns_only_heavy_hitters() {
        let db = textbook_db();
        let fi = mine_db(&db, 0.8);
        assert_eq!(fi.len(), 1);
        assert_eq!(fi.count(&Itemset::singleton(0)), Some(8));
    }

    #[test]
    fn empty_db_yields_nothing() {
        let db = TransactionDb::from_transactions(Vec::<Vec<ItemId>>::new());
        let fi = mine_db(&db, 0.5);
        assert!(fi.is_empty());
    }

    #[test]
    fn single_transaction() {
        let db = TransactionDb::from_transactions(vec![vec![0, 1, 2]]);
        let fi = mine_db(&db, 1.0);
        assert_eq!(fi.len(), 7); // 2^3 - 1 subsets
        assert_eq!(fi.count(&Itemset::from_items([0, 1, 2])), Some(1));
    }

    /// Regression: `FpTree::build` used to require `I: Clone` and scan the
    /// input twice (once to count, once to insert). It must drain a
    /// one-shot iterator exactly once and still produce correct counts.
    #[test]
    fn build_drains_input_exactly_once() {
        use std::cell::Cell;

        let paths: Vec<(Vec<ItemId>, u64)> =
            vec![(vec![0, 1], 1), (vec![1, 2, 3], 1), (vec![0, 2], 2)];
        let yielded = Cell::new(0usize);
        // A non-Clone iterator: capturing `&Cell` by reference keeps it
        // usable, but the closure tracks every element handed out.
        let once = paths.iter().map(|(p, w)| {
            yielded.set(yielded.get() + 1);
            (p.as_slice(), *w)
        });
        let tree = FpTree::build(once, 4, 1);
        assert_eq!(yielded.get(), paths.len(), "input drained more than once");
        // Counts survive the single pass: item 0 appears with weight 1+2.
        let rank0 = tree
            .rank_to_item
            .iter()
            .position(|&i| i == 0)
            .expect("item 0 is frequent");
        assert_eq!(tree.rank_counts[rank0], 3);
    }

    /// Regression: `pattern_base` used to allocate a fresh
    /// `Vec<(Vec<ItemId>, u64)>` per call. The scratch-buffer variant
    /// must reuse the base's flat storage across fills.
    #[test]
    fn pattern_base_into_reuses_allocations() {
        let db = textbook_db();
        let tree = FpTree::build(db.iter().map(|t| (t, 1)), db.n_items(), 2);
        let mut base = PatternBase::default();
        // Warm the buffers on the deepest rank, then refill for every
        // rank and check capacity never shrinks (no churn).
        let last = tree.n_ranks() as u32 - 1;
        tree.pattern_base_into(last, &mut base);
        let warm_items = base.items.capacity();
        let warm_spans = base.spans.capacity();
        assert!(!base.is_empty(), "deepest rank has prefix paths");
        for rank in 0..tree.n_ranks() as u32 {
            tree.pattern_base_into(rank, &mut base);
            assert!(base.items.capacity() >= warm_items);
            assert!(base.spans.capacity() >= warm_spans);
            // Paths never contain the rank's own item, only its prefix.
            let item = tree.rank_to_item[rank as usize];
            assert!(base.paths().all(|(path, _)| !path.contains(&item)));
        }
    }

    #[test]
    fn single_path_shortcut_counts() {
        // All transactions share a prefix chain: a > b > c strictly nested.
        let db = TransactionDb::from_transactions(vec![
            vec![0],
            vec![0, 1],
            vec![0, 1, 2],
            vec![0, 1, 2],
        ]);
        let fi = mine_db(&db, 0.25);
        assert_eq!(fi.count(&Itemset::from_items([0])), Some(4));
        assert_eq!(fi.count(&Itemset::from_items([0, 1])), Some(3));
        assert_eq!(fi.count(&Itemset::from_items([1, 2])), Some(2));
        assert_eq!(fi.count(&Itemset::from_items([0, 1, 2])), Some(2));
        assert_eq!(fi.count(&Itemset::from_items([2])), Some(2));
    }
}
