//! Multi-core batched distance execution.
//!
//! The mining workloads (classification, clustering, motif discovery,
//! subsequence search) all reduce to *pairwise-distance batches*: evaluate a
//! kernel over a list of independent work items, then reduce. [`BatchEngine`]
//! shards such batches across scoped worker threads with three invariants:
//!
//! 1. **Determinism.** Work is split into fixed-size chunks whose boundaries
//!    depend only on the chunk size — never on the thread count or on
//!    scheduling. Results are stitched back together in item order, and every
//!    reduction the mining drivers perform on top runs serially over that
//!    ordered output, so an engine with 1 thread and an engine with N threads
//!    return bitwise-identical results (ties broken by lowest index, exactly
//!    as the serial code did).
//! 2. **No per-pair allocation.** Each worker owns one per-thread state value
//!    (typically a [`DpScratch`] of reusable DP
//!    rows, or a cloned accelerator instance) created once when the worker
//!    starts and threaded through every item it processes.
//! 3. **Serial error semantics.** If items fail, the error reported is the
//!    one the serial loop would have hit first (lowest item index), chosen in
//!    the ordered reduction regardless of which worker saw it.
//!
//! Chunks are claimed dynamically from an atomic counter, so a chunk whose
//! items prune cheaply does not leave its worker idle while a neighbour
//! grinds through full DP computations.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::DistanceError;
use crate::scratch::DpScratch;

/// Default number of items per chunk. Chosen so per-chunk overhead (an atomic
/// fetch-add and a vec append) is negligible against even the cheapest kernel
/// while still exposing enough chunks for load balancing.
pub const DEFAULT_CHUNK_SIZE: usize = 64;

/// A deterministic multi-threaded executor for pairwise-distance batches.
///
/// ```
/// use mda_distance::batch::BatchEngine;
///
/// let engine = BatchEngine::new().with_threads(4);
/// let squares: Vec<usize> = engine
///     .try_map(&[1usize, 2, 3, 4], |_, &x| Ok::<_, ()>(x * x))
///     .unwrap();
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
#[derive(Debug, Clone)]
pub struct BatchEngine {
    threads: usize,
    chunk_size: usize,
}

impl Default for BatchEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchEngine {
    /// An engine using every available core (as reported by
    /// [`std::thread::available_parallelism`]; 1 if unknown).
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        BatchEngine {
            threads,
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }

    /// A single-threaded engine (runs every chunk inline, in order).
    pub fn serial() -> Self {
        BatchEngine {
            threads: 1,
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }

    /// Sets the worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "thread count must be at least 1");
        self.threads = threads;
        self
    }

    /// Sets the chunk size. The chunk size — not the thread count — defines
    /// the work decomposition, so changing it may change chunk-local
    /// statistics (e.g. pruning counters), while changing the thread count
    /// never does.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`.
    #[must_use]
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be at least 1");
        self.chunk_size = chunk_size;
        self
    }

    /// Fallible [`Self::with_threads`], for configuration that arrives from
    /// users or the network: a zero thread count becomes a typed
    /// [`DistanceError::InvalidParameter`] instead of a panic.
    ///
    /// # Errors
    ///
    /// [`DistanceError::InvalidParameter`] when `threads` is 0.
    pub fn try_with_threads(self, threads: usize) -> Result<Self, DistanceError> {
        if threads == 0 {
            return Err(DistanceError::InvalidParameter {
                name: "threads",
                reason: "worker-thread count must be at least 1".into(),
            });
        }
        Ok(self.with_threads(threads))
    }

    /// Fallible [`Self::with_chunk_size`], the typed-error sibling of
    /// [`Self::try_with_threads`].
    ///
    /// # Errors
    ///
    /// [`DistanceError::InvalidParameter`] when `chunk_size` is 0.
    pub fn try_with_chunk_size(self, chunk_size: usize) -> Result<Self, DistanceError> {
        if chunk_size == 0 {
            return Err(DistanceError::InvalidParameter {
                name: "chunk_size",
                reason: "chunk size must be at least 1".into(),
            });
        }
        Ok(self.with_chunk_size(chunk_size))
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// The core primitive: runs `f` once per fixed-size chunk of `items`,
    /// threading a per-worker state value (from `init`) through every chunk a
    /// worker claims, and returns the concatenated per-chunk outputs in item
    /// order.
    ///
    /// `f` receives `(state, chunk_start_index, chunk_items)` and returns one
    /// output per chunk item. Chunk boundaries depend only on the chunk
    /// size, so outputs are identical for every thread count.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing chunk (within a chunk,
    /// `f` decides; the drivers short-circuit at the first failing item).
    pub fn try_map_chunks<S, T, R, E, I, F>(&self, items: &[T], init: I, f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &[T]) -> Result<Vec<R>, E> + Sync,
    {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let chunk_count = items.len().div_ceil(self.chunk_size);
        let workers = self.threads.min(chunk_count);

        // Inline fast path: nothing to gain from spawning.
        if workers == 1 {
            let mut state = init();
            let mut out = Vec::with_capacity(items.len());
            for (ci, chunk) in items.chunks(self.chunk_size).enumerate() {
                out.extend(f(&mut state, ci * self.chunk_size, chunk)?);
            }
            return Ok(out);
        }

        let next = AtomicUsize::new(0);
        let mut per_chunk: Vec<Option<Result<Vec<R>, E>>> =
            (0..chunk_count).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    let init = &init;
                    let f = &f;
                    scope.spawn(move || {
                        let mut state = init();
                        let mut local: Vec<(usize, Result<Vec<R>, E>)> = Vec::new();
                        loop {
                            let ci = next.fetch_add(1, Ordering::Relaxed);
                            if ci >= chunk_count {
                                break;
                            }
                            let start = ci * self.chunk_size;
                            let end = (start + self.chunk_size).min(items.len());
                            local.push((ci, f(&mut state, start, &items[start..end])));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                let local = handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                for (ci, result) in local {
                    per_chunk[ci] = Some(result);
                }
            }
        });

        // Ordered reduction: concatenate chunk outputs, surfacing the error
        // of the lowest-indexed failing chunk — what a serial loop hits.
        let mut out = Vec::with_capacity(items.len());
        for result in per_chunk {
            out.extend(result.expect("every chunk index was claimed exactly once")?);
        }
        Ok(out)
    }

    /// Maps `f` over every item with a per-worker state value, returning
    /// outputs in item order.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed item's error.
    pub fn try_map_with<S, T, R, E, I, F>(&self, items: &[T], init: I, f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> Result<R, E> + Sync,
    {
        self.try_map_chunks(items, init, |state, start, chunk| {
            chunk
                .iter()
                .enumerate()
                .map(|(k, item)| f(state, start + k, item))
                .collect()
        })
    }

    /// Maps a stateless `f` over every item, returning outputs in item order.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed item's error.
    pub fn try_map<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        self.try_map_with(items, || (), |(), i, item| f(i, item))
    }

    /// Maps `f` over every item with a per-worker [`DpScratch`] — the shape
    /// every DP-kernel batch uses.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed item's error.
    pub fn try_map_scratch<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(&mut DpScratch, usize, &T) -> Result<R, E> + Sync,
    {
        self.try_map_with(items, DpScratch::new, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_builders_reject_zero_with_typed_errors() {
        assert!(matches!(
            BatchEngine::new().try_with_threads(0),
            Err(DistanceError::InvalidParameter {
                name: "threads",
                ..
            })
        ));
        assert!(matches!(
            BatchEngine::new().try_with_chunk_size(0),
            Err(DistanceError::InvalidParameter {
                name: "chunk_size",
                ..
            })
        ));
        let engine = BatchEngine::serial()
            .try_with_threads(3)
            .unwrap()
            .try_with_chunk_size(5)
            .unwrap();
        assert_eq!((engine.threads(), engine.chunk_size()), (3, 5));
    }

    #[test]
    fn outputs_preserve_item_order() {
        let items: Vec<usize> = (0..1000).collect();
        let engine = BatchEngine::new().with_threads(8).with_chunk_size(7);
        let out: Vec<usize> = engine
            .try_map(&items, |i, &x| Ok::<_, ()>(i * 1000 + x))
            .unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 1000 + i);
        }
    }

    #[test]
    fn identical_across_thread_counts() {
        let items: Vec<f64> = (0..500).map(|i| (i as f64 * 0.37).sin()).collect();
        let kernel = |_: usize, x: &f64| Ok::<f64, ()>(x * 1.0000001 + 0.25);
        let one = BatchEngine::serial().try_map(&items, kernel).unwrap();
        for threads in [2, 3, 8] {
            let many = BatchEngine::new()
                .with_threads(threads)
                .try_map(&items, kernel)
                .unwrap();
            assert_eq!(one, many, "thread count {threads} changed results");
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        let items: Vec<usize> = (0..400).collect();
        let engine = BatchEngine::new().with_threads(4).with_chunk_size(16);
        // Items 37 and 251 fail; the serial loop would report 37 first.
        let err = engine
            .try_map(
                &items,
                |_, &x| {
                    if x == 37 || x == 251 {
                        Err(x)
                    } else {
                        Ok(x)
                    }
                },
            )
            .unwrap_err();
        assert_eq!(err, 37);
    }

    #[test]
    fn per_worker_state_is_reused_not_shared() {
        // Each worker counts the items it processed in its own state; the
        // total must cover every item exactly once.
        use std::sync::atomic::AtomicUsize;
        let total = AtomicUsize::new(0);
        struct Counter<'a>(usize, &'a AtomicUsize);
        impl Drop for Counter<'_> {
            fn drop(&mut self) {
                self.1.fetch_add(self.0, Ordering::Relaxed);
            }
        }
        let items: Vec<usize> = (0..300).collect();
        BatchEngine::new()
            .with_threads(4)
            .with_chunk_size(8)
            .try_map_with(
                &items,
                || Counter(0, &total),
                |c, _, &x| {
                    c.0 += 1;
                    Ok::<_, ()>(x)
                },
            )
            .unwrap();
        assert_eq!(total.load(Ordering::Relaxed), 300);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<usize> = BatchEngine::new()
            .try_map(&[] as &[usize], |_, &x| Ok::<_, ()>(x))
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn chunk_callback_sees_fixed_boundaries() {
        let items: Vec<usize> = (0..100).collect();
        let engine = BatchEngine::serial().with_chunk_size(32);
        let starts: Vec<usize> = engine
            .try_map_chunks(
                &items,
                || (),
                |(), start, chunk| Ok::<_, ()>(vec![start; chunk.len()]),
            )
            .unwrap();
        assert_eq!(starts[0], 0);
        assert_eq!(starts[31], 0);
        assert_eq!(starts[32], 32);
        assert_eq!(starts[99], 96);
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn zero_threads_rejected() {
        let _ = BatchEngine::new().with_threads(0);
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_rejected() {
        let _ = BatchEngine::new().with_chunk_size(0);
    }
}
