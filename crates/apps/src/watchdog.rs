//! The no-pop watchdog of the shared search loop.
//!
//! A search's workers stop when its count of outstanding open entries
//! reaches zero. A queue that holds keys it never returns, or loses
//! them, keeps that count above zero forever, and the workers would
//! poll an empty queue without end. Instead, a worker whose pop comes
//! back empty asks [`Shared::stalled`]; once no worker anywhere has
//! popped for [`TIMEOUT`], every worker stops, and [`Shared::finish`]
//! panics on the solver's own thread with the solver's stall message.

use crate::search::Shared;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Wall-clock time with open entries outstanding but no pop anywhere
/// after which a solve gives up.
#[cfg(not(test))]
const TIMEOUT: Duration = Duration::from_secs(10);
/// The unit tests below drive the watchdog with a queue that loses
/// keys; they need not wait ten seconds each.
#[cfg(test)]
const TIMEOUT: Duration = Duration::from_secs(2);

impl Shared {
    /// A worker of `solver` popped nothing, `left` entries outstanding;
    /// `idle` is when it last saw the pop count move, and that count.
    /// Stop once any worker has seen no pop anywhere for [`TIMEOUT`].
    pub(crate) fn stalled(
        &self,
        solver: &str,
        idle: &mut Option<(Instant, u64)>,
        left: i64,
        queue_len: impl FnOnce() -> usize,
    ) -> bool {
        if self.stall.get().is_some() {
            return true;
        }
        let popped = self.expanded.load(Ordering::Relaxed);
        match *idle {
            Some((since, seen)) if seen == popped => {
                if since.elapsed() < TIMEOUT {
                    return false;
                }
                let msg = format!(
                    "{solver} stalled: {left} entries outstanding, queue len {}, no pop for {TIMEOUT:?}",
                    queue_len()
                );
                let _ = self.stall.set(msg);
                true
            }
            _ => {
                *idle = Some((Instant::now(), popped));
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{solve_astar, solve_knapsack, solve_sssp};
    use baseline_heaps::CoarseLockPq;
    use pq_api::{BatchPriorityQueue, Entry, ItemwiseBatch, KeyType, ValueType};
    use std::sync::atomic::{AtomicBool, Ordering};
    use workloads::{
        Correlation, Graph, GraphSpec, Grid, GridSpec, KnapsackInstance, KnapsackSpec,
    };

    /// A queue that loses keys: it keeps the first batch inserted (the
    /// search's start entry) and silently drops every later one.
    struct DropsKeys<Q> {
        inner: Q,
        kept_first: AtomicBool,
    }

    fn drops_keys<K: KeyType, V: ValueType>() -> DropsKeys<ItemwiseBatch<CoarseLockPq<K, V>>> {
        DropsKeys {
            inner: ItemwiseBatch::new(CoarseLockPq::new(), 8),
            kept_first: AtomicBool::new(false),
        }
    }

    impl<K: KeyType, V: ValueType, Q: BatchPriorityQueue<K, V>> BatchPriorityQueue<K, V>
        for DropsKeys<Q>
    {
        fn batch_capacity(&self) -> usize {
            self.inner.batch_capacity()
        }

        fn insert_batch(&self, items: &[Entry<K, V>]) {
            if !self.kept_first.swap(true, Ordering::AcqRel) {
                self.inner.insert_batch(items);
            }
        }

        fn delete_min_batch(&self, out: &mut Vec<Entry<K, V>>, count: usize) -> usize {
            self.inner.delete_min_batch(out, count)
        }

        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    #[test]
    #[should_panic(expected = "A* stalled: ")]
    fn astar_over_a_key_losing_queue_panics() {
        let grid = Grid::generate(GridSpec::new(16, 0.1, 1));
        solve_astar(&grid, &drops_keys(), 2);
    }

    #[test]
    #[should_panic(expected = "knapsack stalled: ")]
    fn knapsack_over_a_key_losing_queue_panics() {
        let inst = KnapsackInstance::generate(KnapsackSpec::new(16, Correlation::Weak, 1));
        solve_knapsack(&inst, &drops_keys(), 2);
    }

    #[test]
    #[should_panic(expected = "SSSP stalled: ")]
    fn sssp_over_a_key_losing_queue_panics() {
        let graph = Graph::generate(GraphSpec::new(64, 4, 1));
        solve_sssp(&graph, 0, &drops_keys(), 2);
    }
}
