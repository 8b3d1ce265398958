//! LRU result cache keyed by *(dataset fingerprint, normalized config)*.
//!
//! Entries hold the pre-rendered analyze payload plus what
//! `GET /v1/explain/{rule}` recomputes an explanation from: the catalog,
//! the mined itemset family and the rule thresholds (generation
//! verdicts), the rule set in its generated order, and the keyword run's
//! index-keyed prune log. All of it is moved out of the finished
//! analysis, never cloned, and nothing is rendered until someone asks —
//! the explain endpoint only works over cached analyses, which is exactly
//! the workflow (analyze once, interrogate the survivors).
//!
//! Only full-fidelity results are cached: a degraded analysis reflects
//! the budget that produced it, and serving it to a tenant with a
//! roomier budget would silently downgrade their answer. The cache key
//! correspondingly excludes the budget (see
//! [`irma_core::fingerprint::config_cache_key`]).
//!
//! Recency is tracked with per-entry access stamps from a monotone
//! counter: a hit bumps one `u64` (O(1)) instead of splicing a shared
//! order list (the old scheme scanned a `VecDeque` on every touch);
//! eviction scans for the minimum stamp, which is O(n) only when the
//! cache is actually past its cap.

use std::collections::HashMap;
use std::sync::Arc;

use irma_mine::{FrequentItemsets, ItemCatalog};
use irma_rules::{Explainer, PruneLog, Rule, RuleConfig};

/// One cached analysis.
#[derive(Debug)]
pub struct CacheEntry {
    /// The rendered response payload (everything but the `cached` flag).
    pub payload: String,
    /// Item catalog for label resolution in explain.
    pub catalog: ItemCatalog,
    /// The mined family generation verdicts are recomputed from.
    pub frequent: FrequentItemsets,
    /// The generation thresholds the analysis ran with.
    pub rule_config: RuleConfig,
    /// The generated rules (pre-pruning) in `generate_rules` order, for
    /// explain metric lookups.
    pub rules: Vec<Rule>,
    /// The keyword run's decisions over `rules`; `None` when the analyze
    /// request named no keyword.
    pub prune_log: Option<PruneLog>,
}

impl CacheEntry {
    /// Explains this entry's rules on demand.
    pub fn explainer(&self) -> Explainer<'_> {
        Explainer::new(
            Some((&self.frequent, &self.rule_config)),
            self.prune_log
                .as_ref()
                .map(|log| (self.rules.as_slice(), log)),
        )
    }

    /// Resolves a rule by exact sorted `(antecedent, consequent)` ids.
    pub fn find_rule(&self, antecedent: &[u32], consequent: &[u32]) -> Option<&Rule> {
        irma_rules::find_rule(&self.rules, antecedent, consequent)
    }
}

/// Bounded LRU over `(fingerprint, config_key)`. `explain?fp=...`
/// resolves to the dataset's most recently used entry under any config.
#[derive(Debug)]
pub struct ResultCache {
    cap: usize,
    map: HashMap<(String, String), Slot>,
    /// Monotone access clock; higher stamp = more recently used.
    clock: u64,
}

#[derive(Debug)]
struct Slot {
    entry: Arc<CacheEntry>,
    stamp: u64,
}

impl ResultCache {
    /// A cache holding at most `cap` entries (minimum 1).
    pub fn new(cap: usize) -> ResultCache {
        ResultCache {
            cap: cap.max(1),
            map: HashMap::new(),
            clock: 0,
        }
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn next_stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Looks up an exact (fingerprint, config) entry, refreshing its LRU
    /// position.
    pub fn get(&mut self, fingerprint: &str, config_key: &str) -> Option<Arc<CacheEntry>> {
        let key = (fingerprint.to_string(), config_key.to_string());
        let stamp = self.next_stamp();
        let slot = self.map.get_mut(&key)?;
        slot.stamp = stamp;
        Some(slot.entry.clone())
    }

    /// The most recently used entry for a fingerprint under any config
    /// (the explain path: the entry a client was last served for that
    /// dataset), refreshing its LRU position. Scans the at most `cap`
    /// slots.
    pub fn latest_for_fp(&mut self, fingerprint: &str) -> Option<Arc<CacheEntry>> {
        let stamp = self.next_stamp();
        let (_, slot) = self
            .map
            .iter_mut()
            .filter(|((fp, _), _)| fp == fingerprint)
            .max_by_key(|(_, slot)| slot.stamp)?;
        slot.stamp = stamp;
        Some(slot.entry.clone())
    }

    /// Inserts an entry, evicting the least recently used past the cap.
    pub fn insert(&mut self, fingerprint: &str, config_key: &str, entry: CacheEntry) {
        let key = (fingerprint.to_string(), config_key.to_string());
        let stamp = self.next_stamp();
        self.map.insert(
            key,
            Slot {
                entry: Arc::new(entry),
                stamp,
            },
        );
        while self.map.len() > self.cap {
            let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.stamp)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            self.map.remove(&victim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(tag: &str) -> CacheEntry {
        CacheEntry {
            payload: tag.to_string(),
            catalog: ItemCatalog::new(),
            frequent: FrequentItemsets::default(),
            rule_config: RuleConfig::default(),
            rules: Vec::new(),
            prune_log: None,
        }
    }

    #[test]
    fn lru_evicts_oldest_untouched_entry() {
        let mut cache = ResultCache::new(2);
        cache.insert("fp1", "a", entry("1a"));
        cache.insert("fp2", "a", entry("2a"));
        // Touch fp1 so fp2 is the LRU victim.
        assert!(cache.get("fp1", "a").is_some());
        cache.insert("fp3", "a", entry("3a"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("fp2", "a").is_none(), "LRU entry must be gone");
        assert!(cache.get("fp1", "a").is_some());
        assert!(cache.get("fp3", "a").is_some());
        // The fingerprint lookup follows the eviction.
        assert!(cache.latest_for_fp("fp2").is_none());
    }

    #[test]
    fn fingerprint_index_tracks_most_recent_config() {
        let mut cache = ResultCache::new(4);
        cache.insert("fp1", "a", entry("old"));
        cache.insert("fp1", "b", entry("new"));
        assert_eq!(cache.latest_for_fp("fp1").unwrap().payload, "new");
        // Exact lookups still reach both configs.
        assert_eq!(cache.get("fp1", "a").unwrap().payload, "old");
    }

    #[test]
    fn fingerprint_lookup_follows_the_entry_last_served() {
        // Analyze under config a, then b, then hit a again: explain must
        // resolve to a, the entry the client was just served.
        let mut cache = ResultCache::new(4);
        cache.insert("fp1", "a", entry("a"));
        cache.insert("fp1", "b", entry("b"));
        assert_eq!(cache.get("fp1", "a").unwrap().payload, "a");
        assert_eq!(cache.latest_for_fp("fp1").unwrap().payload, "a");
        assert!(cache.latest_for_fp("fp2").is_none());
    }

    #[test]
    fn reinserting_a_key_replaces_without_growing() {
        let mut cache = ResultCache::new(2);
        cache.insert("fp1", "a", entry("v1"));
        cache.insert("fp1", "a", entry("v2"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get("fp1", "a").unwrap().payload, "v2");
    }

    #[test]
    fn eviction_order_follows_interleaved_touches() {
        // Fill to cap, then touch entries in a scrambled order through
        // both lookup paths; the victim must always be the entry whose
        // last touch is oldest, across repeated evictions.
        let mut cache = ResultCache::new(3);
        cache.insert("fp1", "a", entry("1"));
        cache.insert("fp2", "a", entry("2"));
        cache.insert("fp3", "a", entry("3"));
        // Recency (old -> new) after these touches: fp3, fp1, fp2.
        assert!(cache.get("fp1", "a").is_some());
        assert!(cache.latest_for_fp("fp2").is_some());
        cache.insert("fp4", "a", entry("4"));
        assert!(cache.get("fp3", "a").is_none(), "fp3 had the oldest touch");
        // Recency now: fp1, fp2, fp4. Touch fp1 via the fp index, making
        // fp2 the next victim.
        assert!(cache.latest_for_fp("fp1").is_some());
        cache.insert("fp5", "a", entry("5"));
        assert!(cache.get("fp2", "a").is_none(), "fp2 had the oldest touch");
        assert!(cache.get("fp1", "a").is_some());
        assert!(cache.get("fp4", "a").is_some());
        assert!(cache.get("fp5", "a").is_some());
    }

    #[test]
    fn find_rule_resolves_by_key() {
        use irma_mine::Itemset;
        let rule = |ante: &[u32], cons: &[u32]| Rule {
            antecedent: Itemset::from_items(ante.iter().copied()),
            consequent: Itemset::from_items(cons.iter().copied()),
            support_count: 10,
            support: 0.1,
            confidence: 0.5,
            lift: 2.0,
        };
        // Sorted by (antecedent, consequent), as `generate_rules` emits.
        let rules = vec![
            rule(&[1], &[2]),
            rule(&[1, 3], &[2]),
            rule(&[1, 3], &[2, 4]),
            rule(&[2], &[1]),
        ];
        let entry = CacheEntry {
            rules: rules.clone(),
            ..entry("")
        };
        for expected in &rules {
            let found = entry.find_rule(expected.antecedent.items(), expected.consequent.items());
            assert_eq!(found, Some(expected));
        }
        assert!(entry.find_rule(&[1, 3], &[4]).is_none());
        assert!(entry.find_rule(&[3], &[2]).is_none());
        assert!(entry.find_rule(&[0], &[1]).is_none());
        assert!(entry.find_rule(&[3], &[9]).is_none());
    }
}
