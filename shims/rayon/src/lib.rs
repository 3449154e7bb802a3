//! Offline stand-in for `rayon`.
//!
//! The build environment has no crates.io access, so this shim implements the small
//! slice of the rayon API the workspace uses — `par_iter().map(f).collect()`,
//! `par_iter().for_each(f)` and a minimal `ThreadPoolBuilder`/`ThreadPool` — with *real*
//! parallelism on `std::thread::scope`. Work is handed out dynamically (an atomic
//! next-item cursor, so imbalanced items — e.g. branch-and-bound subtrees of very
//! different sizes — keep every worker busy), and results are reassembled in input
//! order, so a parallel map is always observably identical to the sequential one.
//!
//! Two items go beyond the real `rayon` API: [`sharded_map`] and its
//! [`ShardProgress`] telemetry, which `ise-core`'s corpus driver and `ise-api`'s batch
//! front-end use. Replacing the shim with the real `rayon` means rewriting those call
//! sites (a `par_iter().map().collect()` plus a per-thread counter); everything else
//! compiles unchanged.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The traits user code is expected to import, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

/// Thread-count override installed by [`ThreadPoolBuilder::build_global`] or a
/// [`ThreadPool::install`] scope; `0` means "use all available cores".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The number of worker threads a parallel operation started now would use.
///
/// Without an override this is the machine's available parallelism, asked of the
/// operating system once per process: the query costs tens of microseconds, which a
/// short parallel map would otherwise pay on every call.
#[must_use]
pub fn current_num_threads() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    let configured = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if configured > 0 {
        configured
    } else {
        *AVAILABLE.get_or_init(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }
}

/// Error returned by [`ThreadPoolBuilder::build`]; the shim's builder cannot actually
/// fail, so this exists only for API compatibility with the real `rayon`.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Mirrors `rayon::ThreadPoolBuilder` for the `num_threads` + `build`/`build_global`
/// subset.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder using all available cores.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of worker threads (`0` = all available cores).
    #[must_use]
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds a scoped pool whose thread count applies inside
    /// [`ThreadPool::install`].
    ///
    /// # Errors
    ///
    /// Never fails in the shim; the `Result` mirrors the real `rayon` signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }

    /// Installs the thread count process-wide, like `rayon`'s global pool.
    ///
    /// # Errors
    ///
    /// Never fails in the shim; the `Result` mirrors the real `rayon` signature.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        THREAD_OVERRIDE.store(self.num_threads, Ordering::SeqCst);
        Ok(())
    }
}

/// A configured pool. The shim spawns scoped threads per operation instead of keeping
/// workers alive, so the pool only carries the thread count.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool's thread count governing every parallel operation
    /// started inside it (including nested ones), restoring the previous configuration
    /// afterwards — also on panic.
    ///
    /// Shim caveat versus real `rayon`: there is no shared worker pool. Each parallel
    /// operation runs one share of its items on the calling thread and spawns up to
    /// `num_threads - 1` short-lived scoped threads for the rest, so
    /// *nested* fan-outs (requests × blocks × subtrees) can briefly hold more than
    /// `num_threads` OS threads in total. Results are unaffected; only scheduling
    /// granularity differs. The override is process-global, so concurrent `install`
    /// scopes from different pools are not isolated from each other.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                THREAD_OVERRIDE.store(self.0, Ordering::SeqCst);
            }
        }
        let _restore = Restore(THREAD_OVERRIDE.swap(self.num_threads, Ordering::SeqCst));
        op()
    }

    /// The configured thread count (all available cores when built with `0`).
    #[must_use]
    pub fn current_num_threads(&self) -> usize {
        if self.num_threads > 0 {
            self.num_threads
        } else {
            current_num_threads()
        }
    }
}

/// Mirrors `rayon::iter::IntoParallelRefIterator`: `&self` to a parallel iterator.
pub trait IntoParallelRefIterator<'data> {
    /// The element type iterated over.
    type Item: Sync + 'data;

    /// Returns a parallel iterator over borrowed elements.
    fn par_iter(&'data self) -> ParIter<'data, Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = T;

    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { items: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = T;

    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { items: self }
    }
}

/// A borrowing parallel iterator over a slice.
pub struct ParIter<'data, T: Sync> {
    items: &'data [T],
}

impl<'data, T: Sync> ParIter<'data, T> {
    /// Maps every element through `op`, in parallel.
    pub fn map<R, F>(self, op: F) -> MapIter<'data, T, F>
    where
        R: Send,
        F: Fn(&'data T) -> R + Sync,
    {
        MapIter {
            items: self.items,
            op,
        }
    }

    /// Runs `op` on every element, in parallel.
    pub fn for_each<F>(self, op: F)
    where
        F: Fn(&'data T) + Sync,
    {
        let _ = parallel_map(self.items, op);
    }
}

/// The result of [`ParIter::map`]; consumed by `collect`.
pub struct MapIter<'data, T: Sync, F> {
    items: &'data [T],
    op: F,
}

impl<'data, T, R, F> MapIter<'data, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'data T) -> R + Sync,
{
    /// Collects the mapped values, preserving input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        parallel_map(self.items, self.op).into_iter().collect()
    }
}

/// How many items one worker (shard) of a [`sharded_map`] ended up claiming.
///
/// The atomic-cursor scheduler hands items out dynamically, so the per-shard counts
/// depend on relative item costs and OS scheduling — they are telemetry, not part of
/// any deterministic result. The mapped *values* are always reassembled in input
/// order regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardProgress {
    /// Worker index, `0..thread_count`.
    pub shard: usize,
    /// Number of items this worker claimed and completed.
    pub items: usize,
}

/// Ordered dynamic-scheduling map that also reports per-shard progress.
///
/// This is a shim extension beyond the real `rayon` API (under real `rayon` the same
/// shape is a `par_iter().map().collect()` plus a per-thread counter): `op` receives
/// the claiming worker's shard index alongside the item, results come back in input
/// order, and the second return value records how many items each shard processed.
/// Corpus-scale drivers use the shard index for progress reporting while relying on
/// the ordered reassembly for deterministic results.
pub fn sharded_map<'data, T, R, F>(items: &'data [T], op: F) -> (Vec<R>, Vec<ShardProgress>)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &'data T) -> R + Sync,
{
    let threads = current_num_threads().min(items.len()).max(1);
    let next = AtomicUsize::new(0);
    // One shard's loop: claim the next unclaimed item until none is left.
    let work = |shard: usize| {
        let mut produced: Vec<(usize, R)> = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= items.len() {
                break;
            }
            produced.push((index, op(shard, &items[index])));
        }
        produced
    };
    // The calling thread is shard 0, so only `threads - 1` threads are spawned.
    let produced: Vec<Vec<(usize, R)>> = if threads == 1 {
        vec![work(0)]
    } else {
        std::thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = (1..threads)
                .map(|shard| scope.spawn(move || work(shard)))
                .collect();
            let mut produced = vec![work(0)];
            for handle in handles {
                produced.push(handle.join().expect("worker thread panicked"));
            }
            produced
        })
    };
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    let mut progress = Vec::with_capacity(threads);
    for (shard, produced) in produced.into_iter().enumerate() {
        progress.push(ShardProgress {
            shard,
            items: produced.len(),
        });
        for (index, value) in produced {
            slots[index] = Some(value);
        }
    }
    let results = slots
        .into_iter()
        .map(|slot| slot.expect("every index is claimed by exactly one worker"))
        .collect();
    (results, progress)
}

/// Ordered parallel map with dynamic scheduling: [`sharded_map`] without the
/// shard index and the progress report.
fn parallel_map<'data, T, R, F>(items: &'data [T], op: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'data T) -> R + Sync,
{
    sharded_map(items, |_, item| op(item)).0
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = items.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs_work() {
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [7u32];
        let out: Vec<u32> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn for_each_visits_every_element() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let total = AtomicU64::new(0);
        let items: Vec<u64> = (1..=100).collect();
        items.par_iter().for_each(|&x| {
            total.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(total.into_inner(), 5050);
    }

    #[test]
    fn imbalanced_items_still_come_back_in_order() {
        // Items with wildly different costs: the dynamic cursor hands them out one by
        // one, and the reassembly restores input order regardless of finish order.
        let items: Vec<u64> = (0..64).collect();
        let out: Vec<u64> = items
            .par_iter()
            .map(|&x| {
                if x % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                x * x
            })
            .collect();
        assert_eq!(out, (0..64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn sharded_map_preserves_order_and_accounts_every_item() {
        let items: Vec<u64> = (0..257).collect();
        let (out, progress) = sharded_map(&items, |_shard, &x| x * 3);
        assert_eq!(out, (0..257).map(|x| x * 3).collect::<Vec<_>>());
        let claimed: usize = progress.iter().map(|p| p.items).sum();
        assert_eq!(claimed, items.len());
        for (index, p) in progress.iter().enumerate() {
            assert_eq!(p.shard, index);
        }

        let empty: Vec<u64> = Vec::new();
        let (out, progress) = sharded_map(&empty, |_s, &x| x);
        assert!(out.is_empty());
        assert_eq!(progress.iter().map(|p| p.items).sum::<usize>(), 0);
    }

    /// Serialises the tests that install a thread count: the override is global.
    static INSTALLS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn installed_pools_scope_the_thread_count() {
        let _serial = INSTALLS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        assert_eq!(pool.current_num_threads(), 2);
        let (inside, result) = pool.install(|| {
            let inside = current_num_threads();
            let items: Vec<u32> = (0..10).collect();
            let mapped: Vec<u32> = items.par_iter().map(|&x| x + 1).collect();
            (inside, mapped)
        });
        assert_eq!(inside, 2);
        assert_eq!(result, (1..=10).collect::<Vec<u32>>());
        // The override is restored after the install scope.
        assert_ne!(THREAD_OVERRIDE.load(Ordering::SeqCst), 2);
    }

    /// The default thread count is computed once per process, but an `install`
    /// scope set after that still governs every parallel operation inside it, and
    /// the default comes back when the scope ends.
    #[test]
    fn an_installed_thread_count_overrides_the_cached_default() {
        let _serial = INSTALLS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let default = current_num_threads();
        assert_eq!(
            current_num_threads(),
            default,
            "the cached default is stable"
        );
        let threads = default + 2;
        let items: Vec<u32> = (0..64).collect();
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let (inside, progress) = pool.install(|| {
            let (out, progress) = sharded_map(&items, |_, &x| x);
            assert_eq!(out, items);
            (current_num_threads(), progress)
        });
        assert_eq!(inside, threads);
        assert_eq!(progress.len(), threads, "one shard per installed thread");
        assert_eq!(progress.iter().map(|p| p.items).sum::<usize>(), items.len());
        assert_eq!(current_num_threads(), default);
        let (_, progress) = sharded_map(&items, |_, &x| x);
        assert_eq!(progress.len(), default.min(items.len()));
    }
}
