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
//! * under `config.parallel`, the recursion fans out through
//!   [`rayon::join`]: rank ranges split in two at *every* depth (above a
//!   node-count threshold), so skewed conditional subtrees become
//!   stealable tasks instead of serializing behind a static per-rank
//!   chunking. Results are merged left-before-right in rank order, so
//!   the output is identical regardless of which worker ran what.

use std::cell::RefCell;
use std::panic::AssertUnwindSafe;

use irma_obs::{Metrics, StageSpan};

use crate::budget::{BudgetBreach, BudgetGuard, MineError};
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
/// parallel units and each gets an observability span.)
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

    /// Estimated arena footprint: nodes plus the per-rank tables. An
    /// upper bound on what `rebuild` grew the arena to, charged against
    /// [`BudgetGuard::charge_tree_bytes`].
    fn estimated_bytes(&self) -> u64 {
        let node = std::mem::size_of::<FpNode>() as u64;
        // headers (4) + rank_counts (8) + rank_to_item (4) per rank.
        self.nodes.len() as u64 * node + self.n_ranks() as u64 * 16
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
    guard: &BudgetGuard,
) -> Result<(), BudgetBreach> {
    let budget = max_len.saturating_sub(suffix.len());
    if budget == 0 || path.is_empty() {
        return Ok(());
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
        guard.charge_itemsets(1)?;
        out.push((Itemset::from_items(items), count));
    }
    Ok(())
}

/// Per-run mining statistics, accumulated locally (no synchronization in
/// the hot recursion) and merged in rank order by [`fpgrowth`].
#[derive(Debug, Clone, Copy, Default)]
struct MineStats {
    /// Conditional FP-trees built during the recursion.
    conditional_trees: u64,
    /// Times the single-prefix-path shortcut replaced recursion.
    single_path_hits: u64,
}

impl MineStats {
    fn merge(&mut self, other: MineStats) {
        self.conditional_trees += other.conditional_trees;
        self.single_path_hits += other.single_path_hits;
    }
}

/// Immutable mining parameters threaded through the recursion. The
/// budget guard rides along by reference, so budget charges and
/// cancellation checks from *stolen* subtasks hit the same shared
/// accounting as the spawning worker's.
struct MineCtx<'a> {
    min_count: u64,
    max_len: usize,
    /// Pool width captured once at mine start; 1 disables forking.
    width: usize,
    guard: &'a BudgetGuard,
}

/// A batch of emitted itemsets from one subtree, merged in rank order.
type Chunk = Vec<(Itemset, u64)>;

/// Sequential recursive FP-Growth over a (conditional) tree. The budget
/// guard is polled once per call and charged per emitted itemset / built
/// tree, so a breach surfaces within one conditional subtree of work.
fn mine_tree(
    tree: &FpTree,
    suffix: &mut Vec<ItemId>,
    ctx: &MineCtx<'_>,
    out: &mut Chunk,
    stats: &mut MineStats,
) -> Result<(), BudgetBreach> {
    if suffix.len() >= ctx.max_len {
        return Ok(());
    }
    ctx.guard.checkpoint()?;
    with_frame(|frame| {
        // Single-prefix-path shortcut: subset enumeration replaces
        // recursion. Paths wider than the u32 subset mask fall through
        // to the general case.
        if tree.single_path_into(&mut frame.path) && frame.path.len() <= 31 {
            stats.single_path_hits += 1;
            return emit_single_path(&frame.path, suffix, ctx.max_len, out, ctx.guard);
        }
        for rank in (0..tree.n_ranks() as u32).rev() {
            let count = tree.rank_counts[rank as usize];
            let item = tree.rank_to_item[rank as usize];
            suffix.push(item);
            ctx.guard.charge_itemsets(1)?;
            out.push((Itemset::from_items(suffix.iter().copied()), count));
            if suffix.len() < ctx.max_len {
                tree.pattern_base_into(rank, &mut frame.base);
                if !frame.base.is_empty() {
                    frame
                        .tree
                        .rebuild(&frame.base, ctx.min_count, &mut frame.build);
                    ctx.guard.charge_tree_bytes(frame.tree.estimated_bytes())?;
                    stats.conditional_trees += 1;
                    if frame.tree.n_ranks() > 0 {
                        mine_tree(&frame.tree, suffix, ctx, out, stats)?;
                    }
                }
            }
            suffix.pop();
        }
        Ok(())
    })
}

/// Parallel recursive FP-Growth over the rank range `[lo, hi)` of
/// `tree`. Ranges of two or more ranks split in half through
/// [`rayon::join`], making the right half stealable — at *every*
/// recursion depth once the tree clears [`FORK_NODE_THRESHOLD`] (the top
/// level always splits). Chunks come back in rank order regardless of
/// steal order; when several ranks fail, the lowest rank's error wins
/// (left results are preferred), so errors are deterministic too.
///
/// `span` is the enclosing `mine.mine` span; it is threaded to top-level
/// leaves only, which open one `mine.conditional_tree` child each —
/// explicit parenting, because the implicit span stack is per-registry
/// and ambiguous across worker threads.
fn mine_ranks_par(
    tree: &FpTree,
    lo: u32,
    hi: u32,
    suffix: &[ItemId],
    ctx: &MineCtx<'_>,
    span: Option<&StageSpan>,
) -> Result<(Vec<Chunk>, MineStats), MineError> {
    if hi <= lo {
        return Ok((Vec::new(), MineStats::default()));
    }
    if hi - lo == 1 {
        // Leaf: one rank, inside its own catch_unwind so a poisoned
        // worker — wherever its task was stolen to — yields a typed
        // error instead of unwinding through the pool.
        return match std::panic::catch_unwind(AssertUnwindSafe(|| {
            mine_one_rank(tree, lo, suffix, ctx, span)
        })) {
            Ok(Ok((chunk, stats))) => Ok((vec![chunk], stats)),
            Ok(Err(e)) => Err(e),
            Err(payload) => Err(MineError::WorkerPanic {
                message: panic_message(payload),
            }),
        };
    }
    let fork = ctx.width > 1 && (suffix.is_empty() || tree.nodes.len() >= FORK_NODE_THRESHOLD);
    if fork {
        let mid = lo + (hi - lo) / 2;
        let (left, right) = rayon::join(
            || mine_ranks_par(tree, lo, mid, suffix, ctx, span),
            || mine_ranks_par(tree, mid, hi, suffix, ctx, span),
        );
        return match (left, right) {
            (Ok((mut chunks, mut stats)), Ok((right_chunks, right_stats))) => {
                chunks.extend(right_chunks);
                stats.merge(right_stats);
                Ok((chunks, stats))
            }
            (Err(e), _) => Err(e),
            (_, Err(e)) => Err(e),
        };
    }
    let mut chunks = Vec::with_capacity((hi - lo) as usize);
    let mut stats = MineStats::default();
    for rank in lo..hi {
        let (sub, sub_stats) = mine_ranks_par(tree, rank, rank + 1, suffix, ctx, span)?;
        chunks.extend(sub);
        stats.merge(sub_stats);
    }
    Ok((chunks, stats))
}

/// Mines one rank's conditional subtree: emits the extended suffix, then
/// projects, rebuilds, and recurses through [`mine_ranks_par`] so deep
/// subtrees keep fanning out.
fn mine_one_rank(
    tree: &FpTree,
    rank: u32,
    suffix: &[ItemId],
    ctx: &MineCtx<'_>,
    parent: Option<&StageSpan>,
) -> Result<(Chunk, MineStats), MineError> {
    ctx.guard.checkpoint().map_err(MineError::from)?;
    let count = tree.rank_counts[rank as usize];
    let item = tree.rank_to_item[rank as usize];
    // Explicit child span (top level only): each rank's subtree is one
    // unit of parallel work, nested under `mine.mine` and attributed to
    // the worker that actually ran it.
    let mut span = parent.map(|s| s.child("mine.conditional_tree"));
    let mut chunk: Chunk = Vec::new();
    let mut stats = MineStats::default();
    ctx.guard.charge_itemsets(1).map_err(MineError::from)?;
    let mut items: Vec<ItemId> = Vec::with_capacity(suffix.len() + 1);
    items.extend_from_slice(suffix);
    items.push(item);
    chunk.push((Itemset::from_items(items.iter().copied()), count));
    if items.len() < ctx.max_len {
        with_frame(|frame| -> Result<(), MineError> {
            tree.pattern_base_into(rank, &mut frame.base);
            if frame.base.is_empty() {
                return Ok(());
            }
            frame
                .tree
                .rebuild(&frame.base, ctx.min_count, &mut frame.build);
            ctx.guard
                .charge_tree_bytes(frame.tree.estimated_bytes())
                .map_err(MineError::from)?;
            stats.conditional_trees += 1;
            if frame.tree.n_ranks() == 0 {
                return Ok(());
            }
            if frame.tree.single_path_into(&mut frame.path) && frame.path.len() <= 31 {
                stats.single_path_hits += 1;
                return emit_single_path(&frame.path, &items, ctx.max_len, &mut chunk, ctx.guard)
                    .map_err(MineError::from);
            }
            let n_ranks = frame.tree.n_ranks() as u32;
            let (sub_chunks, sub_stats) =
                mine_ranks_par(&frame.tree, 0, n_ranks, &items, ctx, None)?;
            for sub in sub_chunks {
                chunk.extend(sub);
            }
            stats.merge(sub_stats);
            Ok(())
        })?;
    }
    if let Some(span) = span.as_mut() {
        span.field("item", item as u64);
        span.field("itemsets_out", chunk.len() as u64);
        if let Some(worker) = rayon::current_thread_index() {
            span.field("worker", worker as u64);
        }
    }
    Ok((chunk, stats))
}

/// Renders a `catch_unwind` payload for a [`MineError::WorkerPanic`].
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Mines all frequent itemsets with FP-Growth.
///
/// Equivalent to [`crate::apriori`] and [`crate::eclat`] in output (the
/// equivalence is property-tested) but asymptotically cheaper on large,
/// dense databases.
///
/// Emits a `mine.tree_build` stage event (transactions in, surviving
/// frequent items) and a `mine.mine` event (itemsets out, conditional
/// trees built, single-path shortcuts taken) into `metrics`; statistics
/// are accumulated thread-locally and merged, so the recursion is as hot
/// as with a disabled registry.
///
/// Budget breaches come back as [`MineError::Budget`], an invalid config
/// as [`MineError::InvalidConfig`], and a panic inside any parallel
/// subtree — wherever it was stolen to — is contained by the nearest
/// leaf's `catch_unwind` and surfaced as [`MineError::WorkerPanic`]
/// (lowest poisoned rank wins when several fail, so the error is
/// deterministic).
pub fn fpgrowth(
    db: &TransactionDb,
    config: &MinerConfig,
    metrics: &Metrics,
    guard: &BudgetGuard,
) -> Result<FrequentItemsets, MineError> {
    config.validate().map_err(MineError::InvalidConfig)?;
    let n_transactions = db.len();
    let min_count = config.min_count(n_transactions);
    guard.checkpoint_now()?;

    let mut span = metrics.span("mine.tree_build");
    let tree = FpTree::build(db.iter().map(|t| (t, 1)), db.n_items(), min_count);
    span.field("transactions_in", n_transactions as u64);
    span.field("frequent_items", tree.n_ranks() as u64);
    span.field("tree_nodes", tree.nodes.len() as u64);
    drop(span);
    guard.charge_tree_bytes(tree.estimated_bytes())?;
    guard.checkpoint_now()?;

    let mut span = metrics.span("mine.mine");
    let mut out: Chunk = Vec::new();
    let mut stats = MineStats::default();
    if tree.n_ranks() == 0 {
        span.field("itemsets_out", 0);
        drop(span);
        return Ok(FrequentItemsets::new(out, n_transactions));
    }

    let ctx = MineCtx {
        min_count,
        max_len: config.max_len,
        width: rayon::current_num_threads(),
        guard,
    };
    if config.parallel {
        let (chunks, par_stats) =
            mine_ranks_par(&tree, 0, tree.n_ranks() as u32, &[], &ctx, Some(&span))?;
        for chunk in chunks {
            out.extend(chunk);
        }
        stats.merge(par_stats);
    } else {
        let mut suffix: Vec<ItemId> = Vec::new();
        mine_tree(&tree, &mut suffix, &ctx, &mut out, &mut stats)?;
    }

    span.field("itemsets_out", out.len() as u64);
    span.field("conditional_trees", stats.conditional_trees);
    span.field("single_path_shortcuts", stats.single_path_hits);
    drop(span);

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

    fn mine_db(db: &TransactionDb, min_support: f64, parallel: bool) -> FrequentItemsets {
        let config = MinerConfig {
            min_support,
            max_len: 5,
            parallel,
        };
        unbudgeted(db, &config)
    }

    fn unbudgeted(db: &TransactionDb, config: &MinerConfig) -> FrequentItemsets {
        fpgrowth(db, config, &Metrics::disabled(), &BudgetGuard::unlimited()).unwrap()
    }

    #[test]
    fn counts_match_brute_force() {
        let db = textbook_db();
        let fi = mine_db(&db, 0.2, false);
        assert!(!fi.is_empty());
        for (set, count) in fi.iter() {
            assert_eq!(*count, db.support_count(set), "wrong count for {set}");
        }
    }

    #[test]
    fn finds_all_frequent_itemsets() {
        let db = textbook_db();
        let fi = mine_db(&db, 0.2, false);
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
    fn parallel_matches_sequential() {
        let db = textbook_db();
        let seq = mine_db(&db, 0.2, false);
        let par = mine_db(&db, 0.2, true);
        assert_eq!(seq.as_slice(), par.as_slice());
    }

    #[test]
    fn parallel_matches_sequential_on_multithread_pool() {
        let db = textbook_db();
        let seq = mine_db(&db, 0.2, false);
        for width in [2usize, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap();
            let par = pool.install(|| mine_db(&db, 0.2, true));
            assert_eq!(seq.as_slice(), par.as_slice(), "width {width}");
        }
    }

    #[test]
    fn max_len_caps_itemsets() {
        let db = textbook_db();
        let config = MinerConfig {
            min_support: 0.1,
            max_len: 2,
            parallel: false,
        };
        let fi = unbudgeted(&db, &config);
        assert!(fi.iter().all(|(s, _)| s.len() <= 2));
        // And the capped family equals the full family filtered to len<=2.
        let full = mine_db(&db, 0.1, false);
        let expected: Vec<_> = full.iter().filter(|(s, _)| s.len() <= 2).cloned().collect();
        assert_eq!(fi.as_slice(), expected.as_slice());
    }

    #[test]
    fn high_support_returns_only_heavy_hitters() {
        let db = textbook_db();
        let fi = mine_db(&db, 0.8, false);
        assert_eq!(fi.len(), 1);
        assert_eq!(fi.count(&Itemset::singleton(0)), Some(8));
    }

    #[test]
    fn empty_db_yields_nothing() {
        let db = TransactionDb::from_transactions(Vec::<Vec<ItemId>>::new());
        let fi = mine_db(&db, 0.5, false);
        assert!(fi.is_empty());
    }

    #[test]
    fn single_transaction() {
        let db = TransactionDb::from_transactions(vec![vec![0, 1, 2]]);
        let fi = mine_db(&db, 1.0, false);
        assert_eq!(fi.len(), 7); // 2^3 - 1 subsets
        assert_eq!(fi.count(&Itemset::from_items([0, 1, 2])), Some(1));
    }

    #[test]
    fn metrics_capture_build_and_mine_split() {
        let db = textbook_db();
        let metrics = Metrics::enabled();
        let fi = fpgrowth(
            &db,
            &MinerConfig::with_min_support(0.2),
            &metrics,
            &BudgetGuard::unlimited(),
        )
        .unwrap();
        let snap = metrics.snapshot();
        let build = snap.stage("mine.tree_build").expect("tree_build event");
        assert_eq!(build.field("transactions_in"), Some(10));
        assert_eq!(build.field("frequent_items"), Some(5));
        let mine = snap.stage("mine.mine").expect("mine event");
        assert_eq!(mine.field("itemsets_out"), Some(fi.len() as u64));
        assert!(mine.field("conditional_trees").unwrap() > 0);
        // The parallel fan-out nests one conditional-tree span per
        // frequent item under `mine.mine`.
        let children: Vec<_> = snap
            .stages
            .iter()
            .filter(|e| e.stage == "mine.conditional_tree")
            .collect();
        assert_eq!(children.len(), 5);
        assert!(children.iter().all(|c| c.parent == Some(mine.id)));
        let per_rank: u64 = children
            .iter()
            .map(|c| c.field("itemsets_out").unwrap())
            .sum();
        assert_eq!(per_rank, fi.len() as u64);
        // Disabled-path result is identical.
        let plain = unbudgeted(&db, &MinerConfig::with_min_support(0.2));
        assert_eq!(plain.as_slice(), fi.as_slice());
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
        let fi = mine_db(&db, 0.25, false);
        assert_eq!(fi.count(&Itemset::from_items([0])), Some(4));
        assert_eq!(fi.count(&Itemset::from_items([0, 1])), Some(3));
        assert_eq!(fi.count(&Itemset::from_items([1, 2])), Some(2));
        assert_eq!(fi.count(&Itemset::from_items([0, 1, 2])), Some(2));
        assert_eq!(fi.count(&Itemset::from_items([2])), Some(2));
    }
}
