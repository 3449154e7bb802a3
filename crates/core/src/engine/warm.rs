//! The storage of the single-cut fill memo, and the process-lifetime warm cache
//! behind persistent serve mode.
//!
//! One canonical-coordinate fill answers every structurally isomorphic `(block,
//! exclusion)` query exactly (see [`CorpusPool`](super::CorpusPool)). Every
//! single-cut pool fill of the engine — corpus runs and sweeps alike — is stored
//! in a [`WarmPoolCache`]: a corpus run or a [`SweepPlanner`](super::SweepPlanner)
//! without a shared cache creates a private one, while serve mode keeps one for the
//! **process lifetime**: it outlives individual corpus runs, is shared across
//! requests and sessions, and can be snapshotted to disk and warm-started on the
//! next boot.
//!
//! Three properties make sharing and persisting fills sound:
//!
//! * **Keys carry everything a fill depends on.** A cache key is the block's
//!   [`StructuralKey`], the exclusion state in canonical positions, and the
//!   budget group — the constraint set plus exploration budget the fill ran
//!   under. Every fill scores cuts with `DefaultCostModel`, so equal keys imply
//!   byte-identical fill inputs, and deterministic fills imply byte-identical fill
//!   contents whoever computes them, whenever.
//! * **Eviction never changes answers.** Evicting a slot only drops the memo;
//!   in-flight holders keep their `Arc` clone, and a later query under the same key
//!   re-runs the same deterministic fill. The only cost is the refill.
//! * **Snapshots validate, never trust.** The on-disk format is versioned,
//!   checksummed and model-tagged; any mismatch — truncation, corruption, version
//!   bump, different cost model — makes [`load_snapshot`](WarmPoolCache::load_snapshot)
//!   fall back to a cold start instead of erroring or loading garbage.
//!
//! Lock striping replaces the run-local pool's single `Mutex<HashMap>`: keys hash
//! onto `N` independently locked segments, so concurrent warm lookups from many
//! worker threads contend only when they land on the same stripe. `segments = 1`
//! reproduces the old global-lock behaviour (the `serve_bench` concurrent-hit row
//! measures exactly that before/after).
//!
//! # Outcome slots
//!
//! Beside the fill slots the cache holds a second slot kind: an **outcome slot**
//! maps opaque key bytes to a list of [`ProgramOutcome`]s (name, selection,
//! speed-up report). Serve mode keys a slot by the raw request bytes the outcomes
//! depend on, so a known request is answered without resolving, canonicalising,
//! searching or reporting again
//! ([`lookup_outcome`](WarmPoolCache::lookup_outcome) /
//! [`record_outcome`](WarmPoolCache::record_outcome)):
//!
//! * a **corpus source**: its own element plus every other field of the corpus
//!   request; the slot holds every program the source resolved to;
//! * a **`run` or `sweep` payload**: the request kind plus the whole payload; the
//!   slot holds the one program of a run, or one outcome per pair of a sweep, in
//!   request order.
//!
//! Every outcome slot keeps four rules:
//!
//! * **Exact by byte equality**, the rule [`StructuralKey`] follows: equal bytes
//!   decode to equal values, and an outcome depends only on those bytes once the
//!   cost model and the software model are fixed, which they are per cache. A
//!   byte-different but equal request simply misses and recomputes the same
//!   answer. The keys of different request kinds never collide, since the caller
//!   frames them apart.
//! * **Evicted like fills.** Outcome slots share the stripes, the recency clock and
//!   the byte budget; their estimate includes the key. Eviction picks the least
//!   recently used slot of either kind, and an outcome larger than the whole budget
//!   is never stored.
//! * **Never persisted.** Snapshots hold fill slots only, so their format is the
//!   same with or without outcome slots; after a warm start the first request per
//!   source is answered from the restored fills and records its outcome anew.
//! * **Counted as lookups, not fills.** An outcome lookup counts in `hits` or
//!   `misses`; recording one is not a fill, because `fills` counts enumerations.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hasher};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ise_hw::speedup::SpeedupReport;

use crate::constraints::Constraints;
use crate::cut::CutEvaluation;
use crate::pool::{AttemptHistogram, ParetoStore, PoolEntry};
use crate::selection::SelectionResult;
use crate::structural::StructuralKey;

/// Default file name of an on-disk cache snapshot inside a `--cache-dir`.
pub const SNAPSHOT_FILE: &str = "warm_pool_cache.bin";

const SNAPSHOT_MAGIC: &[u8; 8] = b"ISEWARM\x01";
const SNAPSHOT_VERSION: u32 = 3;
/// The cost model every fill is computed under (sessions always score with
/// `DefaultCostModel`). Snapshots record it, and a file carrying another id never
/// warm-starts a cache.
const SNAPSHOT_MODEL_ID: &[u8] = b"default-cost-model";

/// One memoised enumeration, stored entirely in canonical coordinates so that the
/// stored bytes do not depend on which isomorphic block performed the fill.
pub(crate) struct CanonicalFill {
    pub(crate) store: ParetoStore<CanonicalCandidate>,
    pub(crate) histogram: AttemptHistogram,
}

/// A recorded candidate cut: canonical node positions plus its (structure-determined,
/// hence translation-invariant) evaluation.
#[derive(Clone)]
pub(crate) struct CanonicalCandidate {
    pub(crate) positions: Vec<u32>,
    pub(crate) evaluation: CutEvaluation,
}

/// Memo entry state of one cache slot.
pub(crate) enum FillEntry {
    Complete(CanonicalFill),
    Exhausted,
}

/// The constraint-and-budget group a fill ran under.
///
/// Fills are only reusable between queries that would have enumerated identically:
/// same port budgets, byte-identical area limit (compared as `f64` bits), same node
/// budget, same exploration budget. Two corpus runs with different budget groups
/// simply occupy disjoint cache slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BudgetGroup {
    max_inputs: usize,
    max_outputs: usize,
    max_area_bits: Option<u64>,
    max_nodes: Option<usize>,
    exploration_budget: Option<u64>,
}

impl BudgetGroup {
    /// Derives the group of a fill performed under `constraints` and `budget`.
    #[must_use]
    pub fn new(constraints: &Constraints, exploration_budget: Option<u64>) -> Self {
        BudgetGroup {
            max_inputs: constraints.max_inputs,
            max_outputs: constraints.max_outputs,
            max_area_bits: constraints.max_area.map(f64::to_bits),
            max_nodes: constraints.max_nodes,
            exploration_budget,
        }
    }
}

/// Key of one cache slot: structural identity, exclusion state in canonical
/// positions, and the budget group the fill runs under.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    pub(crate) structural: StructuralKey,
    pub(crate) excluded: Vec<u32>,
    pub(crate) group: BudgetGroup,
}

/// One cache slot: the shared fill cell plus the bookkeeping eviction reads.
struct Slot {
    cell: Arc<OnceLock<FillEntry>>,
    /// Logical timestamp of the last lookup (global monotonic counter).
    last_used: u64,
    /// Estimated retained bytes; `0` until the fill lands, which also marks the
    /// slot as not-yet-evictable (an in-flight fill must keep its slot).
    bytes: u64,
}

/// One program's outcome as an outcome slot stores it: the program's name, its
/// selection and its speed-up report.
pub type ProgramOutcome = (String, SelectionResult, SpeedupReport);

/// One outcome slot: every program one source resolved to, plus the bookkeeping
/// eviction reads. Slots are inserted complete, so every one is evictable.
struct OutcomeSlot {
    programs: Arc<[ProgramOutcome]>,
    last_used: u64,
    bytes: u64,
}

/// One lock stripe: the fill slots and the outcome slots whose keys hash onto it.
#[derive(Default)]
struct Segment {
    fills: HashMap<CacheKey, Slot>,
    outcomes: HashMap<Box<[u8]>, OutcomeSlot>,
}

impl Segment {
    /// The recency of the stripe's least recently used evictable slot: a filled
    /// fill slot or any outcome slot.
    fn oldest_evictable(&self) -> Option<u64> {
        let fills = self.fills.values().filter(|slot| slot.bytes > 0);
        let fills = fills.map(|slot| slot.last_used);
        let outcomes = self.outcomes.values().map(|slot| slot.last_used);
        fills.chain(outcomes).min()
    }

    /// Removes the evictable slot last used at `last_used` and returns its bytes.
    fn remove_used_at(&mut self, last_used: u64) -> Option<u64> {
        let fill = self
            .fills
            .iter()
            .find(|(_, slot)| slot.last_used == last_used && slot.bytes > 0)
            .map(|(key, _)| key.clone());
        if let Some(key) = fill {
            return self.fills.remove(&key).map(|slot| slot.bytes);
        }
        let outcome = self
            .outcomes
            .iter()
            .find(|(_, slot)| slot.last_used == last_used)
            .map(|(key, _)| key.clone());
        outcome.and_then(|key| self.outcomes.remove(&key).map(|slot| slot.bytes))
    }
}

/// Configuration of a [`WarmPoolCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmCacheConfig {
    /// Number of mutex-striped segments; rounded up to a power of two, minimum 1.
    /// `1` reproduces a single global lock.
    pub segments: usize,
    /// Optional byte budget; exceeding it evicts least-recently-used filled slots
    /// until back under. `None` never evicts.
    pub byte_budget: Option<u64>,
}

impl Default for WarmCacheConfig {
    fn default() -> Self {
        WarmCacheConfig {
            segments: 16,
            byte_budget: None,
        }
    }
}

/// Counter snapshot of a [`WarmPoolCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct WarmCacheStats {
    /// Lookups that found an already-filled slot or a recorded outcome.
    pub hits: u64,
    /// Lookups that created a slot, joined an in-flight fill or found no outcome.
    pub misses: u64,
    /// Fills recorded into the cache (including exhausted markers).
    pub fills: u64,
    /// Slots evicted by the byte budget.
    pub evictions: u64,
    /// Slots currently resident: fill slots (filled or in flight) and outcome slots.
    pub entries: u64,
    /// Resident slots holding an answer: landed fills and outcome slots.
    pub filled_entries: u64,
    /// Estimated bytes retained by filled slots and outcome slots.
    pub bytes_used: u64,
    /// Number of lock stripes.
    pub segments: u64,
}

/// The process-lifetime, mutex-striped, byte-budgeted cut-pool cache.
///
/// See the module docs for the exactness argument. All methods take `&self`; the
/// cache is meant to be wrapped in an [`Arc`] and shared across worker threads and
/// corpus runs.
pub struct WarmPoolCache {
    segments: Vec<Mutex<Segment>>,
    byte_budget: Option<u64>,
    clock: AtomicU64,
    bytes_used: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    fills: AtomicU64,
    evictions: AtomicU64,
}

impl WarmPoolCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new(config: WarmCacheConfig) -> Self {
        let segments = config.segments.max(1).next_power_of_two();
        WarmPoolCache {
            segments: (0..segments).map(|_| Mutex::default()).collect(),
            byte_budget: config.byte_budget,
            clock: AtomicU64::new(0),
            bytes_used: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fills: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Locks one segment, recovering from a poisoned mutex instead of wedging the
    /// stripe forever.
    ///
    /// A request that panics while holding the stripe lock (a panicking fill being
    /// recorded, an assertion in a callback) poisons the mutex; without recovery,
    /// every later request hashing onto the stripe would panic on `lock()` for the
    /// lifetime of the process. Recovery takes the guard out of the poison wrapper,
    /// evicts exactly the in-flight slots (their fill never landed, so joiners would
    /// wait forever; filled slots are immutable once set and remain valid) and clears
    /// the poison flag. The next query under an evicted key simply re-runs its
    /// deterministic fill.
    fn lock_segment(&self, segment: usize) -> std::sync::MutexGuard<'_, Segment> {
        let mutex = &self.segments[segment];
        mutex.lock().unwrap_or_else(|poisoned| {
            let mut segment = poisoned.into_inner();
            segment.fills.retain(|_, slot| slot.cell.get().is_some());
            mutex.clear_poison();
            segment
        })
    }

    fn segment_index(&self, key: &CacheKey) -> usize {
        let mut h = key.structural.hash();
        for &p in &key.excluded {
            h = fnv1a_step(h, p as u64);
        }
        h = fnv1a_step(h, key.group.max_inputs as u64);
        h = fnv1a_step(h, key.group.max_outputs as u64);
        h = fnv1a_step(h, key.group.max_area_bits.map_or(u64::MAX, |b| b ^ 1));
        h = fnv1a_step(h, key.group.max_nodes.map_or(u64::MAX, |n| n as u64 ^ 1));
        h = fnv1a_step(h, key.group.exploration_budget.map_or(u64::MAX, |b| b ^ 1));
        // Fold the top bits down so low-entropy hashes still spread over stripes.
        ((h ^ (h >> 32)) as usize) & (self.segments.len() - 1)
    }

    /// Returns the shared fill cell of `key`, creating an empty slot on first use.
    ///
    /// A lookup that finds a filled slot counts as a hit; anything else — fresh
    /// slot or joining a fill still in flight — counts as a miss. The caller runs
    /// `get_or_init` on the returned cell and reports a landed fill through
    /// [`record_fill`](Self::record_fill).
    pub(crate) fn lookup(&self, key: &CacheKey) -> Arc<OnceLock<FillEntry>> {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        let segment = self.segment_index(key);
        let mut map = self.lock_segment(segment);
        if let Some(slot) = map.fills.get_mut(key) {
            slot.last_used = now;
            if slot.cell.get().is_some() {
                self.hits.fetch_add(1, Ordering::Relaxed);
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
            return Arc::clone(&slot.cell);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let slot = Slot {
            cell: Arc::default(),
            last_used: now,
            bytes: 0,
        };
        let cell = Arc::clone(&slot.cell);
        map.fills.insert(key.clone(), slot);
        cell
    }

    /// Whether the fill of `key` has landed, without touching the hit/miss
    /// counters or the recency clock.
    pub(crate) fn is_filled(&self, key: &CacheKey) -> bool {
        self.lock_segment(self.segment_index(key))
            .fills
            .get(key)
            .is_some_and(|slot| slot.cell.get().is_some())
    }

    /// Records that the caller's `get_or_init` landed the fill for `key`, charging
    /// its estimated bytes against the budget (and evicting if over).
    pub(crate) fn record_fill(&self, key: &CacheKey, entry: &FillEntry) {
        let bytes = entry_bytes(key, entry);
        self.fills.fetch_add(1, Ordering::Relaxed);
        {
            let segment = self.segment_index(key);
            let mut map = self.lock_segment(segment);
            if let Some(slot) = map.fills.get_mut(key) {
                slot.bytes = bytes;
            } else {
                // The slot was evicted while the fill ran (possible under a tiny
                // budget); nothing is retained, so nothing is charged.
                return;
            }
        }
        self.bytes_used.fetch_add(bytes, Ordering::Relaxed);
        self.evict_to_budget();
    }

    /// Evicts least-recently-used slots of either kind (filled fill slots and
    /// outcome slots) until back under the byte budget.
    fn evict_to_budget(&self) {
        let Some(budget) = self.byte_budget else {
            return;
        };
        while self.bytes_used.load(Ordering::Relaxed) > budget {
            // LRU-ish under striping: scan every stripe for its oldest evictable slot
            // (locking one at a time), then evict the globally oldest. Another
            // thread may touch the victim between the scan and the removal — the
            // result is merely an approximate LRU order, never incorrectness.
            let mut victim: Option<(usize, u64)> = None;
            for index in 0..self.segments.len() {
                let map = self.lock_segment(index);
                if let Some(used) = map.oldest_evictable() {
                    if victim.is_none_or(|(_, oldest)| used < oldest) {
                        victim = Some((index, used));
                    }
                }
            }
            let Some((segment, last_used)) = victim else {
                return; // nothing evictable (everything in flight)
            };
            // `None`: the victim moved under us; rescan.
            if let Some(bytes) = self.lock_segment(segment).remove_used_at(last_used) {
                self.bytes_used.fetch_sub(bytes, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The stripe of an outcome key. Keys run to the size of whole inline
    /// programs, so they are hashed by SipHash, about three times faster per byte
    /// than the byte-wise FNV-1a the fill keys use.
    fn outcome_segment(&self, key: &[u8]) -> usize {
        let mut hasher = DefaultHasher::new();
        hasher.write(key);
        let h = hasher.finish();
        ((h ^ (h >> 32)) as usize) & (self.segments.len() - 1)
    }

    /// Returns every program outcome recorded under `key` by
    /// [`record_outcome`](Self::record_outcome), or `None`.
    ///
    /// The lookup counts as a hit or a miss and refreshes the slot's recency, like a
    /// fill lookup. See the module docs for what a key must carry.
    #[must_use]
    pub fn lookup_outcome(&self, key: &[u8]) -> Option<Arc<[ProgramOutcome]>> {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut map = self.lock_segment(self.outcome_segment(key));
        let Some(slot) = map.outcomes.get_mut(key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        slot.last_used = now;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&slot.programs))
    }

    /// Records `programs`, the outcomes one request answered with, under `key`,
    /// charging their estimated bytes (key included) against the budget and
    /// evicting if over. A slot already resident under `key` is kept; an outcome
    /// larger than the whole budget is not stored, since storing it would evict
    /// everything else first. Not a fill: `fills` counts enumerations.
    pub fn record_outcome(&self, key: Vec<u8>, programs: Arc<[ProgramOutcome]>) {
        let bytes = outcome_bytes(&key, &programs);
        if self.byte_budget.is_some_and(|budget| bytes > budget) {
            return;
        }
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        {
            let mut map = self.lock_segment(self.outcome_segment(&key));
            if map.outcomes.contains_key(key.as_slice()) {
                return;
            }
            let slot = OutcomeSlot {
                programs,
                last_used: now,
                bytes,
            };
            map.outcomes.insert(key.into_boxed_slice(), slot);
        }
        self.bytes_used.fetch_add(bytes, Ordering::Relaxed);
        self.evict_to_budget();
    }

    /// Snapshot of the cache counters and occupancy.
    #[must_use]
    pub fn stats(&self) -> WarmCacheStats {
        let mut entries = 0u64;
        let mut filled = 0u64;
        for index in 0..self.segments.len() {
            let map = self.lock_segment(index);
            let outcomes = map.outcomes.len() as u64;
            entries += map.fills.len() as u64 + outcomes;
            filled += map
                .fills
                .values()
                .filter(|s| s.cell.get().is_some())
                .count() as u64
                + outcomes;
        }
        WarmCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            fills: self.fills.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            filled_entries: filled,
            bytes_used: self.bytes_used.load(Ordering::Relaxed),
            segments: self.segments.len() as u64,
        }
    }

    /// Serializes every filled slot to `path` (versioned, checksummed, sorted by
    /// key so equal cache contents produce equal snapshot bytes).
    ///
    /// Writes to a temporary sibling first and renames into place, so readers
    /// never observe a half-written snapshot. Returns the number of entries
    /// written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (snapshotting is best-effort for callers; the
    /// cache itself is untouched either way).
    pub fn save_snapshot(&self, path: &Path) -> io::Result<u64> {
        let mut slots: Vec<(CacheKey, Arc<OnceLock<FillEntry>>)> = Vec::new();
        for index in 0..self.segments.len() {
            let map = self.lock_segment(index);
            for (key, slot) in &map.fills {
                if slot.cell.get().is_some() {
                    slots.push((key.clone(), Arc::clone(&slot.cell)));
                }
            }
        }
        slots.sort_by(|(a, _), (b, _)| {
            a.structural
                .bytes()
                .cmp(b.structural.bytes())
                .then_with(|| a.excluded.cmp(&b.excluded))
                .then_with(|| format!("{:?}", a.group).cmp(&format!("{:?}", b.group)))
        });

        let mut bytes = Vec::new();
        bytes.extend_from_slice(SNAPSHOT_MAGIC);
        push_u32(&mut bytes, SNAPSHOT_VERSION);
        push_bytes(&mut bytes, SNAPSHOT_MODEL_ID);
        push_u64(&mut bytes, slots.len() as u64);
        for (key, cell) in &slots {
            let entry = cell.get().expect("filtered to filled slots");
            encode_entry(&mut bytes, key, entry);
        }
        let checksum = fnv1a(&bytes);
        push_u64(&mut bytes, checksum);

        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        Ok(slots.len() as u64)
    }

    /// Warm-starts the cache from a snapshot at `path`.
    ///
    /// Validates magic, version, cost-model id and trailing checksum, and parses
    /// the whole file before touching the cache; **any** failure — missing file,
    /// truncation, corruption, version bump, model mismatch — returns `None` and
    /// leaves the cache exactly as it was (a cold start, never an error). Returns
    /// the number of entries loaded. Keys already resident are kept, not
    /// overwritten.
    #[must_use]
    pub fn load_snapshot(&self, path: &Path) -> Option<u64> {
        let bytes = std::fs::read(path).ok()?;
        if bytes.len() < SNAPSHOT_MAGIC.len() + 8 {
            return None;
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let recorded = u64::from_le_bytes(tail.try_into().ok()?);
        if fnv1a(body) != recorded {
            return None;
        }
        let mut reader = Reader::new(body);
        if reader.take(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
            return None;
        }
        if reader.u32()? != SNAPSHOT_VERSION {
            return None;
        }
        if reader.byte_string()? != SNAPSHOT_MODEL_ID {
            return None;
        }
        let count = reader.u64()?;
        let mut loaded = Vec::new();
        for _ in 0..count {
            loaded.push(decode_entry(&mut reader)?);
        }
        if !reader.is_empty() {
            return None;
        }
        let total = loaded.len() as u64;
        for (key, entry) in loaded {
            let bytes = entry_bytes(&key, &entry);
            let now = self.clock.fetch_add(1, Ordering::Relaxed);
            let segment = self.segment_index(&key);
            let mut map = self.lock_segment(segment);
            if map.fills.contains_key(&key) {
                continue;
            }
            let cell = OnceLock::new();
            let _ = cell.set(entry);
            map.fills.insert(
                key,
                Slot {
                    cell: Arc::new(cell),
                    last_used: now,
                    bytes,
                },
            );
            self.bytes_used.fetch_add(bytes, Ordering::Relaxed);
        }
        Some(total)
    }
}

/// Estimated retained bytes of one filled slot (key plus entry). Deterministic in
/// the slot's content, so eviction order is reproducible across runs.
fn entry_bytes(key: &CacheKey, entry: &FillEntry) -> u64 {
    let mut bytes = 64 + key.structural.bytes().len() as u64 + 4 * key.excluded.len() as u64;
    if let FillEntry::Complete(fill) = entry {
        let (entries, _) = fill.store.parts();
        for entry in entries {
            bytes += 96 + 4 * entry.payload.positions.len() as u64;
        }
        let (_, cells) = fill.histogram.parts();
        bytes += 16 * cells.len() as u64;
    }
    bytes
}

/// Estimated retained bytes of one outcome slot (key plus every program's
/// outcome); deterministic in the slot's content, like [`entry_bytes`].
fn outcome_bytes(key: &[u8], programs: &[ProgramOutcome]) -> u64 {
    let mut bytes = 64 + key.len() as u64;
    for (name, selection, report) in programs {
        bytes += 160 + name.len() as u64;
        for chosen in &selection.chosen {
            bytes += 112 + 8 * chosen.identified.cut.word_count() as u64;
        }
        bytes += 56 * report.instructions.len() as u64;
    }
    bytes
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

fn fnv1a_step(hash: u64, value: u64) -> u64 {
    let mut h = hash;
    for b in value.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn push_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn push_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    push_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

fn push_opt_u64(out: &mut Vec<u8>, value: Option<u64>) {
    match value {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            push_u64(out, v);
        }
    }
}

fn encode_entry(out: &mut Vec<u8>, key: &CacheKey, entry: &FillEntry) {
    push_bytes(out, key.structural.bytes());
    push_u32(out, key.excluded.len() as u32);
    for &p in &key.excluded {
        push_u32(out, p);
    }
    push_u64(out, key.group.max_inputs as u64);
    push_u64(out, key.group.max_outputs as u64);
    push_opt_u64(out, key.group.max_area_bits);
    push_opt_u64(out, key.group.max_nodes.map(|n| n as u64));
    push_opt_u64(out, key.group.exploration_budget);
    match entry {
        FillEntry::Exhausted => out.push(0),
        FillEntry::Complete(fill) => {
            out.push(1);
            let (entries, offered) = fill.store.parts();
            push_u64(out, offered);
            push_u32(out, entries.len() as u32);
            for entry in entries {
                push_u64(out, entry.inputs as u64);
                push_u64(out, entry.outputs as u64);
                push_u64(out, entry.score.to_bits());
                push_u64(out, entry.seq);
                push_u32(out, entry.payload.positions.len() as u32);
                for &p in &entry.payload.positions {
                    push_u32(out, p);
                }
                encode_evaluation(out, &entry.payload.evaluation);
            }
            let (layout, cells) = fill.histogram.parts();
            for value in layout {
                push_u64(out, value as u64);
            }
            push_u32(out, cells.len() as u32);
            for &(index, count) in cells {
                push_u64(out, index);
                push_u64(out, count);
            }
        }
    }
}

fn encode_evaluation(out: &mut Vec<u8>, evaluation: &CutEvaluation) {
    push_u64(out, evaluation.nodes as u64);
    push_u64(out, evaluation.inputs as u64);
    push_u64(out, evaluation.outputs as u64);
    out.push(u8::from(evaluation.convex));
    push_u64(out, evaluation.software_cycles);
    push_u64(out, evaluation.hardware_critical_path.to_bits());
    push_u32(out, evaluation.hardware_cycles);
    push_u64(out, evaluation.area.to_bits());
    push_u64(out, evaluation.merit.to_bits());
}

fn decode_entry(reader: &mut Reader<'_>) -> Option<(CacheKey, FillEntry)> {
    let structural = StructuralKey::from_bytes(reader.byte_string()?.to_vec());
    let excluded_len = reader.u32()? as usize;
    let mut excluded = Vec::with_capacity(excluded_len.min(1 << 16));
    for _ in 0..excluded_len {
        excluded.push(reader.u32()?);
    }
    let group = BudgetGroup {
        max_inputs: reader.usize()?,
        max_outputs: reader.usize()?,
        max_area_bits: reader.opt_u64()?,
        max_nodes: match reader.opt_u64()? {
            None => None,
            Some(v) => Some(usize::try_from(v).ok()?),
        },
        exploration_budget: reader.opt_u64()?,
    };
    let key = CacheKey {
        structural,
        excluded,
        group,
    };
    let entry = match reader.u8()? {
        0 => FillEntry::Exhausted,
        1 => {
            let offered = reader.u64()?;
            let entry_count = reader.u32()? as usize;
            let mut entries = Vec::with_capacity(entry_count.min(1 << 16));
            for _ in 0..entry_count {
                let inputs = reader.usize()?;
                let outputs = reader.usize()?;
                let score = f64::from_bits(reader.u64()?);
                let seq = reader.u64()?;
                let position_count = reader.u32()? as usize;
                let mut positions = Vec::with_capacity(position_count.min(1 << 16));
                for _ in 0..position_count {
                    positions.push(reader.u32()?);
                }
                let evaluation = decode_evaluation(reader)?;
                entries.push(PoolEntry {
                    inputs,
                    outputs,
                    score,
                    seq,
                    payload: CanonicalCandidate {
                        positions,
                        evaluation,
                    },
                });
            }
            let store = ParetoStore::from_parts(entries, offered);
            let layout = [
                reader.usize()?,
                reader.usize()?,
                reader.usize()?,
                reader.usize()?,
            ];
            let len = reader.u32()? as usize;
            let mut cells = Vec::with_capacity(len.min(1 << 16));
            for _ in 0..len {
                cells.push((reader.u64()?, reader.u64()?));
            }
            let histogram = AttemptHistogram::from_parts(layout, cells)?;
            FillEntry::Complete(CanonicalFill { store, histogram })
        }
        _ => return None,
    };
    Some((key, entry))
}

fn decode_evaluation(reader: &mut Reader<'_>) -> Option<CutEvaluation> {
    Some(CutEvaluation {
        nodes: reader.usize()?,
        inputs: reader.usize()?,
        outputs: reader.usize()?,
        convex: reader.u8()? != 0,
        software_cycles: reader.u64()?,
        hardware_critical_path: f64::from_bits(reader.u64()?),
        hardware_cycles: reader.u32()?,
        area: f64::from_bits(reader.u64()?),
        merit: f64::from_bits(reader.u64()?),
    })
}

/// Bounds-checked little-endian reader over a snapshot body.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(len)?;
        if end > self.bytes.len() {
            return None;
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    fn opt_u64(&mut self) -> Option<Option<u64>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.u64()?)),
            _ => None,
        }
    }

    fn byte_string(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn is_empty(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u8, group: BudgetGroup) -> CacheKey {
        CacheKey {
            structural: StructuralKey::from_bytes(vec![tag; 24]),
            excluded: vec![u32::from(tag)],
            group,
        }
    }

    fn group() -> BudgetGroup {
        BudgetGroup::new(&Constraints::new(4, 2), Some(1000))
    }

    #[test]
    fn lookup_creates_then_hits() {
        let cache = WarmPoolCache::new(WarmCacheConfig::default());
        let k = key(1, group());
        let cell = cache.lookup(&k);
        assert!(cell.get().is_none());
        let _ = cell.set(FillEntry::Exhausted);
        cache.record_fill(&k, cell.get().unwrap());
        let again = cache.lookup(&k);
        assert!(again.get().is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.fills, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.filled_entries, 1);
    }

    #[test]
    fn budget_group_distinguishes_area_bits() {
        let a = BudgetGroup::new(&Constraints::new(4, 2).with_max_area(1.5), None);
        let b = BudgetGroup::new(&Constraints::new(4, 2).with_max_area(2.5), None);
        assert_ne!(a, b);
        assert_eq!(
            a,
            BudgetGroup::new(&Constraints::new(4, 2).with_max_area(1.5), None)
        );
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let cache = WarmPoolCache::new(WarmCacheConfig {
            segments: 4,
            byte_budget: Some(300),
        });
        // Each exhausted entry costs 64 + 24 + 4 = 92 bytes; four of them overflow
        // the 300-byte budget and evict the least recently used.
        for tag in 0..4u8 {
            let k = key(tag, group());
            let cell = cache.lookup(&k);
            let _ = cell.set(FillEntry::Exhausted);
            cache.record_fill(&k, cell.get().unwrap());
        }
        let stats = cache.stats();
        assert!(stats.evictions >= 1, "{stats:?}");
        assert!(stats.bytes_used <= 300, "{stats:?}");
        // The evicted key refills on next use instead of erroring.
        let k = key(0, group());
        let cell = cache.lookup(&k);
        if cell.get().is_none() {
            let _ = cell.set(FillEntry::Exhausted);
            cache.record_fill(&k, cell.get().unwrap());
        }
        assert!(cache.lookup(&k).get().is_some());
    }

    /// One panicking fill must not wedge its stripe: the next request on the same
    /// stripe still answers, the wedged in-flight slot is evicted (and refills on
    /// demand), and filled slots survive untouched.
    #[test]
    fn poisoned_stripe_recovers_and_evicts_in_flight_slots() {
        let cache = WarmPoolCache::new(WarmCacheConfig {
            segments: 1,
            ..WarmCacheConfig::default()
        });
        // A filled slot that must survive recovery.
        let done = key(1, group());
        let cell = cache.lookup(&done);
        let _ = cell.set(FillEntry::Exhausted);
        cache.record_fill(&done, cell.get().unwrap());
        // An in-flight slot (created, fill never lands) that must be evicted.
        let wedged = key(2, group());
        let in_flight = cache.lookup(&wedged);
        assert!(in_flight.get().is_none());
        // Inject a fill that panics while holding the stripe lock.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cache.segments[0].lock().unwrap();
            panic!("injected panicking fill");
        }));
        assert!(panicked.is_err());
        assert!(cache.segments[0].is_poisoned());
        // The next request on the same stripe answers instead of panicking forever.
        let stats = cache.stats();
        assert_eq!(stats.filled_entries, 1, "the filled slot survives");
        assert_eq!(stats.entries, 1, "the in-flight slot was evicted");
        assert!(
            !cache.segments[0].is_poisoned(),
            "recovery clears the poison flag"
        );
        assert!(cache.lookup(&done).get().is_some());
        // The evicted key simply refills on its next use.
        let cell = cache.lookup(&wedged);
        assert!(cell.get().is_none());
        let _ = cell.set(FillEntry::Exhausted);
        cache.record_fill(&wedged, cell.get().unwrap());
        assert!(cache.lookup(&wedged).get().is_some());
    }

    /// One program with an empty selection: `64 + key + 160 + name` bytes as a slot.
    fn outcome(name: &str) -> Arc<[ProgramOutcome]> {
        let selection = SelectionResult {
            chosen: Vec::new(),
            total_weighted_saving: 0.0,
            identifier_calls: 1,
            cuts_considered: 0,
        };
        let report = SpeedupReport::from_selection(100.0, Vec::new());
        Arc::from(vec![(name.to_string(), selection, report)])
    }

    /// Outcome lookups count as hits and misses but recording is not a fill, and
    /// snapshots carry fill slots only.
    #[test]
    fn outcome_slots_count_as_lookups_and_stay_out_of_snapshots() {
        let cache = WarmPoolCache::new(WarmCacheConfig::default());
        assert!(cache.lookup_outcome(b"source a").is_none());
        cache.record_outcome(b"source a".to_vec(), outcome("a"));
        cache.record_outcome(b"source a".to_vec(), outcome("ignored"));
        let hit = cache.lookup_outcome(b"source a").expect("recorded");
        assert_eq!(hit[0].0, "a", "the first record under a key stays");
        assert!(
            cache.lookup_outcome(b"source a ").is_none(),
            "keys are exact bytes"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.fills), (1, 2, 0));
        assert_eq!((stats.entries, stats.filled_entries), (1, 1));
        assert_eq!(stats.bytes_used, 64 + 8 + 160 + 1);

        let dir = std::env::temp_dir().join(format!("ise-warm-outcome-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let k = key(3, group());
        let cell = cache.lookup(&k);
        let _ = cell.set(FillEntry::Exhausted);
        cache.record_fill(&k, cell.get().unwrap());
        assert_eq!(cache.save_snapshot(&path).unwrap(), 1, "the fill slot only");
        let warm = WarmPoolCache::new(WarmCacheConfig::default());
        assert_eq!(warm.load_snapshot(&path), Some(1));
        assert!(warm.lookup_outcome(b"source a").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Outcome slots and fill slots share one byte budget and one recency order, and
    /// an outcome larger than the whole budget is not stored.
    #[test]
    fn outcome_and_fill_slots_evict_each_other_in_lru_order() {
        let cache = WarmPoolCache::new(WarmCacheConfig {
            segments: 4,
            byte_budget: Some(300),
        });
        // Two exhausted fills of 92 bytes each, then a 233-byte outcome: the fills
        // are older, so both go.
        for tag in 0..2u8 {
            let k = key(tag, group());
            let cell = cache.lookup(&k);
            let _ = cell.set(FillEntry::Exhausted);
            cache.record_fill(&k, cell.get().unwrap());
        }
        cache.record_outcome(b"key".to_vec(), outcome("abcdef"));
        let stats = cache.stats();
        assert_eq!((stats.evictions, stats.entries), (2, 1), "{stats:?}");
        assert_eq!(stats.bytes_used, 64 + 3 + 160 + 6);
        // A fill now evicts the older outcome slot.
        let k = key(9, group());
        let cell = cache.lookup(&k);
        let _ = cell.set(FillEntry::Exhausted);
        cache.record_fill(&k, cell.get().unwrap());
        assert!(cache.lookup_outcome(b"key").is_none());
        assert_eq!(cache.stats().bytes_used, 92);
        // Too large for the budget: not stored, nothing evicted.
        cache.record_outcome(vec![7; 300], outcome("big"));
        let stats = cache.stats();
        assert_eq!(
            (stats.evictions, stats.entries, stats.bytes_used),
            (3, 1, 92)
        );
    }

    /// A small complete single-cut fill: one stored cut and a histogram of `Nout = 1`
    /// (up to two fresh block inputs per attempt, no node budget) with attempts in three
    /// cells (five in all), two of them at path floor 1 with attempt floor 2.
    fn sample_fill() -> CanonicalFill {
        let evaluation = CutEvaluation {
            nodes: 2,
            inputs: 2,
            outputs: 1,
            convex: true,
            software_cycles: 3,
            hardware_critical_path: 0.9,
            hardware_cycles: 1,
            area: 1.5,
            merit: 2.0,
        };
        let entry = PoolEntry {
            inputs: 2,
            outputs: 1,
            score: 2.0,
            seq: 3,
            payload: CanonicalCandidate {
                positions: vec![0, 1],
                evaluation,
            },
        };
        // Cell index (((floor * 3 + fresh) * 2 + prefix) * 2 + drop) * 2 + convex,
        // where the probed `OUT` is `prefix + 1 - drop`.
        let cells = vec![(1, 2), (3, 1), (39, 2)];
        CanonicalFill {
            store: ParetoStore::from_parts(vec![entry], 4),
            histogram: AttemptHistogram::from_parts([1, 2, 2, 0], cells).expect("valid cells"),
        }
    }

    #[test]
    fn snapshot_round_trips_and_rejects_tampering() {
        let dir = std::env::temp_dir().join(format!("ise-warm-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SNAPSHOT_FILE);

        let cache = WarmPoolCache::new(WarmCacheConfig::default());
        let k = key(7, group());
        let cell = cache.lookup(&k);
        let _ = cell.set(FillEntry::Exhausted);
        cache.record_fill(&k, cell.get().unwrap());
        // A complete fill too, so the store and the attempt histogram round-trip.
        let filled = key(8, group());
        let cell = cache.lookup(&filled);
        let _ = cell.set(FillEntry::Complete(sample_fill()));
        cache.record_fill(&filled, cell.get().unwrap());
        assert_eq!(cache.save_snapshot(&path).unwrap(), 2);

        // Round-trip into a fresh cache: the same slots, and re-saving them writes the
        // same bytes.
        let bytes = std::fs::read(&path).unwrap();
        let warm = WarmPoolCache::new(WarmCacheConfig::default());
        assert_eq!(warm.load_snapshot(&path), Some(2));
        assert!(warm.lookup(&k).get().is_some());
        match warm.lookup(&filled).get() {
            Some(FillEntry::Complete(fill)) => {
                assert_eq!(fill.histogram, sample_fill().histogram);
                assert_eq!(fill.histogram.reconstruct(4, 1).cuts_considered, 5);
                let tight = fill.histogram.reconstruct(1, 1);
                assert_eq!((tight.cuts_considered, tight.pruned_inputs), (5, 2));
            }
            _ => panic!("the complete fill did not round-trip"),
        }
        assert_eq!(warm.stats().hits, 2);
        let resaved = dir.join("resaved.bin");
        warm.save_snapshot(&resaved).unwrap();
        assert_eq!(std::fs::read(&resaved).unwrap(), bytes);

        // A truncated file falls back to cold start.
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let cold = WarmPoolCache::new(WarmCacheConfig::default());
        assert_eq!(cold.load_snapshot(&path), None);
        assert_eq!(cold.stats().entries, 0);

        // A corrupted byte falls back to cold start.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xff;
        std::fs::write(&path, &corrupt).unwrap();
        assert_eq!(cold.load_snapshot(&path), None);

        // Any other version falls back to cold start (checksum recomputed so only the
        // version check can reject): version 1 is the layout whose histograms also
        // carried a per-prefix subtree-prune vector, version 2 the dense histograms
        // without input-floor coordinates.
        for version in [1u32, 2, SNAPSHOT_VERSION + 1] {
            let mut bumped = bytes.clone();
            bumped[8..12].copy_from_slice(&version.to_le_bytes());
            let body_len = bumped.len() - 8;
            let checksum = fnv1a(&bumped[..body_len]);
            bumped[body_len..].copy_from_slice(&checksum.to_le_bytes());
            std::fs::write(&path, &bumped).unwrap();
            assert_eq!(cold.load_snapshot(&path), None, "version {version}");
        }

        // A snapshot written under another cost-model id (same length, checksum
        // recomputed so only the id check can reject) falls back to cold start.
        let mut foreign = bytes.clone();
        let id_start = SNAPSHOT_MAGIC.len() + 4 + 4;
        let id_range = id_start..id_start + SNAPSHOT_MODEL_ID.len();
        assert_eq!(&foreign[id_range.clone()], SNAPSHOT_MODEL_ID);
        foreign[id_range].copy_from_slice(b"other-cost-model!!");
        let body_len = foreign.len() - 8;
        let checksum = fnv1a(&foreign[..body_len]);
        foreign[body_len..].copy_from_slice(&checksum.to_le_bytes());
        std::fs::write(&path, &foreign).unwrap();
        assert_eq!(cold.load_snapshot(&path), None);

        // A missing file falls back to cold start.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(cold.load_snapshot(&path), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
