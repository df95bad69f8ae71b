//! Skew-engine vocabulary: hot-key detection knobs, the count-min sketch
//! with its top-k heavy-hitter table, and the counters that make hot-key
//! handling observable.
//!
//! Real traffic is zipfian: a handful of keys absorb most of the read
//! rate, and without countermeasures they all land on one chain tail (or
//! one AA replica) and serialize there. The skew engine is a software
//! rendition of TurboKV-style in-switch hot-spot detection: every edge
//! (and every client) runs a [`KeySketch`] over its live request stream,
//! classifies heavy hitters locally with no global coordination, and the
//! layers above use that classification to coalesce, cache, and spread
//! hot reads. Counts decay by halving at fixed operation-count epochs so
//! yesterday's hot key cools off on its own.

use crate::kv::Key;
use crate::shardmap::splitmix64;
use std::sync::atomic::{AtomicU64, Ordering};

/// Count-min sketch counters per row (a power of two).
const SKETCH_WIDTH: usize = 1024;

/// Count-min sketch rows (independent hash functions).
const SKETCH_DEPTH: usize = 4;

/// Heavy-hitter table slots: at most this many keys are "hot" at once.
const TOP_K: usize = 16;

/// Decay epoch length in recorded operations: every `EPOCH_OPS` records,
/// all sketch counters and heavy-hitter counts are halved.
const EPOCH_OPS: u64 = 4096;

/// The skew engine's one tuning knob. One instance is shared by the
/// builders with every edge and client of a cluster; the sketch's shape
/// and decay period are the constants above.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SkewConfig {
    /// A key's decayed epoch estimate must reach this before it can be
    /// classified hot (filters the long zipfian tail out of the table).
    pub hot_min_count: u64,
}

impl Default for SkewConfig {
    fn default() -> Self {
        SkewConfig { hot_min_count: 32 }
    }
}

/// One heavy-hitter slot: the key's stable hash plus its current (decayed)
/// count estimate. `hash == 0` means empty; a real key hashing to 0 is
/// remapped to 1 (losing nothing but a 1-in-2^64 collision).
///
/// The pair is guarded by a seqlock-style `tag`: odd while a writer is
/// rewriting it, bumped to the next even value when the pair is whole
/// again. Writers claim the tag with a CAS and readers reject a slot
/// whose tag is odd or moved under them, so `(hash, count)` is always
/// observed as a pair written together — a displacement can never pair
/// the outgoing key's hash with the incoming key's (larger) count, and a
/// refresh can never inflate a count the slot no longer owns. A writer
/// that loses the tag race simply drops its update: the table holds
/// estimates, and the next record of a genuinely hot key retries.
struct HotSlot {
    tag: AtomicU64,
    hash: AtomicU64,
    count: AtomicU64,
}

impl HotSlot {
    /// Claims exclusive write access; returns the claimed (even) tag
    /// base, or `None` if another writer holds the slot.
    fn claim(&self) -> Option<u64> {
        let t = self.tag.load(Ordering::Acquire);
        if t & 1 != 0 {
            return None;
        }
        self.tag
            .compare_exchange(t, t + 1, Ordering::Acquire, Ordering::Relaxed)
            .ok()
    }

    /// Releases a claim taken at tag base `t`, publishing the rewrite.
    fn unclaim(&self, t: u64) {
        self.tag.store(t + 2, Ordering::Release);
    }

    /// Tag-validated snapshot of `(hash, count)`; `None` while a writer
    /// is mid-rewrite (callers treat that as "not this slot" — the pair
    /// will be observable again within a few instructions).
    fn pair(&self) -> Option<(u64, u64)> {
        let t = self.tag.load(Ordering::Acquire);
        if t & 1 != 0 {
            return None;
        }
        let h = self.hash.load(Ordering::Relaxed);
        let c = self.count.load(Ordering::Relaxed);
        (self.tag.load(Ordering::Acquire) == t).then_some((h, c))
    }
}

/// A concurrent count-min sketch with an attached top-k heavy-hitter
/// table and epoch-based decay.
///
/// All operations are lock-free: recording a key is `depth` relaxed
/// atomic increments plus (rarely) a scan of the `top_k` slots, and a
/// hotness check is a scan of the slots alone. Decay is performed by
/// whichever recording thread crosses the epoch boundary (fetch_add
/// returns unique values, so exactly one thread owns each boundary);
/// concurrent records during a halving can only over-count, which a
/// count-min sketch tolerates by construction.
pub struct KeySketch {
    rows: Vec<AtomicU64>,
    slots: Vec<HotSlot>,
    hot_min: u64,
    ops: AtomicU64,
    epoch: AtomicU64,
}

impl KeySketch {
    /// Builds a sketch with `cfg`'s hot threshold.
    pub fn new(cfg: &SkewConfig) -> Self {
        let rows = (0..SKETCH_WIDTH * SKETCH_DEPTH)
            .map(|_| AtomicU64::new(0))
            .collect();
        let slots = (0..TOP_K)
            .map(|_| HotSlot {
                tag: AtomicU64::new(0),
                hash: AtomicU64::new(0),
                count: AtomicU64::new(0),
            })
            .collect();
        KeySketch {
            rows,
            slots,
            hot_min: cfg.hot_min_count.max(1),
            ops: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
        }
    }

    fn cell(&self, hash: u64, row: usize) -> &AtomicU64 {
        // Each row gets an independent hash by remixing with a distinct
        // odd constant; splitmix64 is a full-avalanche finalizer.
        let h = splitmix64(hash ^ (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let idx = row * SKETCH_WIDTH + (h as usize & (SKETCH_WIDTH - 1));
        &self.rows[idx]
    }

    /// Records one occurrence of `key` and returns its (over-)estimate
    /// within the current decay epoch.
    pub fn record(&self, key: &Key) -> u64 {
        self.record_hash(key.stable_hash())
    }

    /// [`KeySketch::record`] for a precomputed stable hash.
    pub fn record_hash(&self, hash: u64) -> u64 {
        let hash = if hash == 0 { 1 } else { hash };
        let mut est = u64::MAX;
        for row in 0..SKETCH_DEPTH {
            let c = self.cell(hash, row).fetch_add(1, Ordering::Relaxed) + 1;
            est = est.min(c);
        }
        if est >= self.hot_min {
            self.offer(hash, est);
        }
        let n = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(EPOCH_OPS) {
            self.decay();
        }
        est
    }

    /// Installs (or refreshes) `hash` in the heavy-hitter table. Every
    /// slot rewrite happens under the slot's tag claim (see [`HotSlot`]);
    /// a lost claim race drops the update — estimate-quality only, the
    /// next record of a hot key retries.
    fn offer(&self, hash: u64, est: u64) {
        // Pass 1: already tracked — keep the larger count. Re-check the
        // hash under the claim: without it a concurrent displacement
        // could hand this key's (larger) count to whichever key just
        // took the slot.
        for s in &self.slots {
            if s.hash.load(Ordering::Relaxed) != hash {
                continue;
            }
            let Some(t) = s.claim() else { return };
            if s.hash.load(Ordering::Relaxed) == hash {
                if est > s.count.load(Ordering::Relaxed) {
                    s.count.store(est, Ordering::Relaxed);
                }
                s.unclaim(t);
                return;
            }
            // Displaced between the scan and the claim: compete for a
            // slot of our own below.
            s.unclaim(t);
            break;
        }
        // Pass 2: claim an empty slot, or displace the weakest slot if
        // this key's estimate clearly beats it (2x hysteresis keeps two
        // near-equal keys from thrashing one slot).
        let mut weakest: Option<(&HotSlot, u64)> = None;
        for s in &self.slots {
            let Some((h, c)) = s.pair() else { continue };
            if h == 0 {
                if let Some(t) = s.claim() {
                    if s.hash.load(Ordering::Relaxed) == 0 {
                        s.count.store(est, Ordering::Relaxed);
                        s.hash.store(hash, Ordering::Relaxed);
                        s.unclaim(t);
                        return;
                    }
                    s.unclaim(t);
                }
                continue;
            }
            if weakest.map(|(_, wc)| c < wc).unwrap_or(true) {
                weakest = Some((s, c));
            }
        }
        if let Some((s, wc)) = weakest {
            if est >= wc.saturating_mul(2) {
                if let Some(t) = s.claim() {
                    // Re-check under the claim: a refresh may have pushed
                    // the count back over the hysteresis bound meanwhile.
                    if est >= s.count.load(Ordering::Relaxed).saturating_mul(2) {
                        s.count.store(est, Ordering::Relaxed);
                        s.hash.store(hash, Ordering::Relaxed);
                    }
                    s.unclaim(t);
                }
            }
        }
    }

    /// Halves every sketch counter and heavy-hitter count; slots whose
    /// halved count falls below the hot threshold are freed.
    fn decay(&self) {
        for c in &self.rows {
            // fetch_update would CAS-loop; a racy halve is fine (sketch
            // counts are estimates either way).
            let v = c.load(Ordering::Relaxed);
            if v != 0 {
                c.store(v / 2, Ordering::Relaxed);
            }
        }
        for s in &self.slots {
            // A slot mid-rewrite skips this halving and catches the next
            // one — cheaper than blocking, and only a one-epoch estimate
            // drift.
            let Some(t) = s.claim() else { continue };
            let v = s.count.load(Ordering::Relaxed) / 2;
            s.count.store(v, Ordering::Relaxed);
            if v < self.hot_min / 2 {
                s.hash.store(0, Ordering::Relaxed);
            }
            s.unclaim(t);
        }
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Is `key` currently classified as a heavy hitter?
    pub fn is_hot(&self, key: &Key) -> bool {
        self.is_hot_hash(key.stable_hash())
    }

    /// [`KeySketch::is_hot`] for a precomputed stable hash.
    pub fn is_hot_hash(&self, hash: u64) -> bool {
        let hash = if hash == 0 { 1 } else { hash };
        self.slots
            .iter()
            .any(|s| s.pair().is_some_and(|(h, c)| h == hash && c >= self.hot_min))
    }

    /// Current count estimate for `key` (no record).
    pub fn estimate(&self, key: &Key) -> u64 {
        let hash = key.stable_hash();
        let hash = if hash == 0 { 1 } else { hash };
        (0..SKETCH_DEPTH)
            .map(|row| self.cell(hash, row).load(Ordering::Relaxed))
            .min()
            .unwrap_or(0)
    }

    /// Completed decay epochs. The validating edge cache stamps entries
    /// with this and discards them on rotation, bounding how long a
    /// cached eventually-consistent value can outlive its key's heat.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Snapshot of the heavy-hitter table as `(stable_hash, count)`
    /// pairs, hottest first (observability / tests).
    pub fn hot_keys(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .slots
            .iter()
            .filter_map(|s| {
                let (h, c) = s.pair()?;
                (h != 0 && c >= self.hot_min).then_some((h, c))
            })
            .collect();
        v.sort_by_key(|s| std::cmp::Reverse(s.1));
        v
    }
}

/// Skew-engine event counters. One relaxed atomic add per event; shared
/// by the edges and clients of a cluster and aggregated into `EdgeStats`.
#[derive(Debug, Default)]
pub struct SkewCounters {
    /// Keys recorded into an edge sketch.
    pub sketch_ops: AtomicU64,
    /// GETs whose key was classified hot at lookup time.
    pub hot_lookups: AtomicU64,
    /// Sketch decay epochs completed.
    pub epochs: AtomicU64,
    /// Hot GETs answered straight from the validating edge cache.
    pub cache_hits: AtomicU64,
    /// Cache fills (a validated upstream/datalet read was retained).
    pub cache_fills: AtomicU64,
    /// Cached entries discarded because re-validation failed (gate word
    /// moved, write generation advanced, key dirty, or epoch rotated).
    pub cache_invalidated: AtomicU64,
    /// Relay flights that led a singleflight group (did the upstream read).
    pub coalesce_leaders: AtomicU64,
    /// Relay requests that joined an in-flight leader and were answered
    /// from its response without an upstream read of their own.
    pub coalesced: AtomicU64,
    /// Strong reads a client routed to a clean non-tail replica because
    /// the key was hot.
    pub hot_routed: AtomicU64,
}

impl SkewCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consistent-enough snapshot (individually atomic reads).
    pub fn snapshot(&self) -> SkewSnapshot {
        SkewSnapshot {
            sketch_ops: self.sketch_ops.load(Ordering::Relaxed),
            hot_lookups: self.hot_lookups.load(Ordering::Relaxed),
            epochs: self.epochs.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_fills: self.cache_fills.load(Ordering::Relaxed),
            cache_invalidated: self.cache_invalidated.load(Ordering::Relaxed),
            coalesce_leaders: self.coalesce_leaders.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            hot_routed: self.hot_routed.load(Ordering::Relaxed),
        }
    }
}

/// Plain-integer snapshot of [`SkewCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SkewSnapshot {
    pub sketch_ops: u64,
    pub hot_lookups: u64,
    pub epochs: u64,
    pub cache_hits: u64,
    pub cache_fills: u64,
    pub cache_invalidated: u64,
    pub coalesce_leaders: u64,
    pub coalesced: u64,
    pub hot_routed: u64,
}

impl SkewSnapshot {
    /// Upstream reads avoided outright (cache hits + coalesced joins).
    pub fn reads_absorbed(&self) -> u64 {
        self.cache_hits + self.coalesced
    }
}

impl std::fmt::Display for SkewSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "skew: {} sketched, {} hot lookups, {} epochs; cache: {} hits, \
             {} fills, {} invalidated; coalesce: {} leaders, {} joined; \
             {} hot-routed",
            self.sketch_ops,
            self.hot_lookups,
            self.epochs,
            self.cache_hits,
            self.cache_fills,
            self.cache_invalidated,
            self.coalesce_leaders,
            self.coalesced,
            self.hot_routed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default sketch shape with a low hot threshold, so a few dozen
    /// records classify a key.
    fn cfg() -> SkewConfig {
        SkewConfig { hot_min_count: 8 }
    }

    #[test]
    fn hot_key_is_classified_and_cold_keys_are_not() {
        let s = KeySketch::new(&cfg());
        let hot = Key::from("hot");
        for i in 0..100u32 {
            s.record(&hot);
            // A trickle of unique cold keys alongside.
            s.record(&Key::from(format!("cold:{i}")));
        }
        assert!(s.is_hot(&hot));
        assert!(!s.is_hot(&Key::from("cold:7")));
        assert!(s.estimate(&hot) >= 50);
        let hh = s.hot_keys();
        assert_eq!(hh.first().map(|&(h, _)| h), Some(hot.stable_hash()));
    }

    #[test]
    fn decay_cools_an_idle_key() {
        let s = KeySketch::new(&cfg());
        let hot = Key::from("hot");
        for _ in 0..32 {
            s.record(&hot);
        }
        assert!(s.is_hot(&hot));
        // Drive several epochs of unrelated traffic; halving should both
        // advance the epoch counter and evict the now-idle key.
        for i in 0..(EPOCH_OPS * 4) {
            s.record(&Key::from(format!("other:{}", i % 4096)));
        }
        assert!(s.epoch() >= 3);
        assert!(!s.is_hot(&hot), "idle key must cool off across epochs");
    }

    #[test]
    fn top_k_is_bounded_and_keeps_the_heaviest() {
        let s = KeySketch::new(&cfg());
        // Twice as many contenders as slots, all above the hot threshold,
        // and one clearly heavier key.
        let contenders = 2 * TOP_K;
        for _ in 0..600u32 {
            for _ in 0..4 {
                s.record(&Key::from("a"));
            }
            for c in 0..contenders {
                s.record(&Key::from(format!("c{c}")));
            }
        }
        let hh = s.hot_keys();
        assert!(hh.len() <= TOP_K, "{} hot keys", hh.len());
        assert!(s.is_hot(&Key::from("a")));
        assert_eq!(hh.first().map(|&(h, _)| h), Some(Key::from("a").stable_hash()));
    }

    #[test]
    fn concurrent_offers_keep_slot_pairs_well_formed() {
        // Hammer the table with competing displacers, refreshers and
        // readers across threads: the tag discipline must keep every
        // observable (hash, count) pair one that some writer actually
        // wrote together — never an evicted key's hash with the
        // incoming key's count. Half the records go to 8 heavy keys and
        // half spread over 4x more contenders than slots, so heavy keys
        // keep displacing light ones.
        let s = std::sync::Arc::new(KeySketch::new(&cfg()));
        let spread = 4 * TOP_K as u64;
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..20_000u64 {
                        let k = if i % 2 == 0 { (i + t) % 8 } else { (i + t) % spread };
                        s.record(&Key::from(format!("contender:{k}")));
                        if i % 32 == 0 {
                            s.is_hot(&Key::from("contender:0"));
                            s.hot_keys();
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Table stayed bounded; every surviving pair is well-formed.
        let hh = s.hot_keys();
        assert!(hh.len() <= TOP_K);
        for (h, c) in hh {
            assert!(h != 0 && c >= cfg().hot_min_count / 2);
        }
        // No writer left a slot claimed (all tags even again).
        assert!(s.slots.iter().all(|s| s.tag.load(Ordering::Relaxed) % 2 == 0));
    }

    #[test]
    fn zero_hash_keys_are_remapped_not_lost() {
        let s = KeySketch::new(&cfg());
        for _ in 0..32 {
            s.record_hash(0);
        }
        assert!(s.is_hot_hash(0));
    }

    #[test]
    fn counters_snapshot_and_display() {
        let c = SkewCounters::new();
        c.cache_hits.fetch_add(3, Ordering::Relaxed);
        c.coalesced.fetch_add(2, Ordering::Relaxed);
        let s = c.snapshot();
        assert_eq!(s.reads_absorbed(), 5);
        assert!(s.to_string().contains("3 hits"));
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = SkewConfig::default();
        assert!(SKETCH_WIDTH.is_power_of_two());
        assert!(cfg.hot_min_count > 0 && EPOCH_OPS > cfg.hot_min_count);
    }
}
