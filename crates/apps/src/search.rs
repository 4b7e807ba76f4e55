//! The one batched-search loop every application and platform shares:
//! pop a batch, expand it, publish the children, then retire the
//! parents. An application supplies a [`Search`] (its start entry and
//! expansion), a platform a [`SearchWorker`] (its queue calls, its
//! back-off, and hooks where a simulated kernel charges device time).

use pq_api::{BatchPriorityQueue, Entry, ValueType};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::OnceLock;

/// One application's best-first search over `u64` keys.
pub trait Search: Sync {
    /// An open entry's payload.
    type Node: ValueType;
    /// The solver's name in its stall message.
    const NAME: &'static str;

    /// The entry the search starts from.
    fn root(&self) -> Entry<u64, Self::Node>;

    /// Expand the popped batch, appending the children to push.
    fn expand(&self, popped: &[Entry<u64, Self::Node>], children: &mut Vec<Entry<u64, Self::Node>>);
}

/// One worker's access to the shared queue.
pub trait SearchWorker<V: ValueType> {
    /// Pop up to `count` smallest entries into `out`; returns how many.
    fn pop(&mut self, out: &mut Vec<Entry<u64, V>>, count: usize) -> usize;

    /// Insert `batch` (at most the batch size the loop was given).
    fn push(&mut self, batch: &[Entry<u64, V>]);

    /// The queue's length, for the stall message.
    fn queue_len(&self) -> usize;

    /// Wait before popping again after an empty pop.
    fn back_off(&mut self);

    /// `got` entries were popped and are about to be expanded.
    fn after_pop(&mut self, _got: usize) {}

    /// The popped batch gave `children` entries, about to be published.
    fn after_expand(&mut self, _children: usize) {}
}

/// What one search's workers share: the budget, the outstanding and
/// expanded counts, and the no-pop watchdog's stall message.
pub struct Shared {
    budget: Option<u64>,
    outstanding: AtomicI64,
    pub(crate) expanded: AtomicU64,
    pub(crate) stall: OnceLock<String>,
}

impl Shared {
    /// A search with its start entry outstanding and an expansion budget.
    pub fn new(budget: Option<u64>) -> Self {
        Self {
            budget,
            outstanding: AtomicI64::new(1),
            expanded: AtomicU64::new(0),
            stall: OnceLock::new(),
        }
    }

    /// Run `search` on worker `w` with batches of up to `k` entries until
    /// the search drains, the budget is spent or the watchdog trips.
    pub fn run<S: Search, W: SearchWorker<S::Node>>(&self, search: &S, mut w: W, k: usize) {
        let mut out = Vec::with_capacity(k);
        let mut children = Vec::new();
        let mut idle = None;
        loop {
            if self.budget.is_some_and(|b| self.expanded.load(Ordering::Relaxed) >= b) {
                return;
            }
            out.clear();
            let got = w.pop(&mut out, k);
            if got == 0 {
                let left = self.outstanding.load(Ordering::Acquire);
                if left <= 0 || self.stalled(S::NAME, &mut idle, left, || w.queue_len()) {
                    return;
                }
                w.back_off();
                continue;
            }
            w.after_pop(got);
            children.clear();
            search.expand(&out, &mut children);
            w.after_expand(children.len());
            self.expanded.fetch_add(got as u64, Ordering::Relaxed);
            // Publish children before retiring the parents so
            // `outstanding == 0` implies a drained search.
            if !children.is_empty() {
                self.outstanding.fetch_add(children.len() as i64, Ordering::AcqRel);
                for chunk in children.chunks(k) {
                    w.push(chunk);
                }
            }
            self.outstanding.fetch_sub(got as i64, Ordering::AcqRel);
        }
    }

    /// The entries expanded, once every worker has returned. Panics if
    /// the search stalled.
    pub fn finish(self) -> u64 {
        if let Some(msg) = self.stall.into_inner() {
            panic!("{msg}");
        }
        self.expanded.into_inner()
    }
}

/// A CPU thread's worker: the queue's own calls, and a yield as
/// back-off.
impl<V: ValueType, Q: BatchPriorityQueue<u64, V> + ?Sized> SearchWorker<V> for &Q {
    fn pop(&mut self, out: &mut Vec<Entry<u64, V>>, count: usize) -> usize {
        self.delete_min_batch(out, count)
    }

    fn push(&mut self, batch: &[Entry<u64, V>]) {
        self.insert_batch(batch);
    }

    fn queue_len(&self) -> usize {
        (**self).len()
    }

    fn back_off(&mut self) {
        std::thread::yield_now();
    }
}

/// Lower `best` to `new` if that improves it; returns whether it did.
/// Unlike `fetch_min`, a value that does not improve issues no write.
#[inline]
pub(crate) fn improve(best: &AtomicU64, new: u64) -> bool {
    let mut cur = best.load(Ordering::Acquire);
    while new < cur {
        match best.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return true,
            Err(now) => cur = now,
        }
    }
    false
}

/// Run `search` with `threads` workers sharing queue `q`; returns the
/// entries expanded.
pub(crate) fn solve<S, Q>(search: &S, q: &Q, threads: usize, budget: Option<u64>) -> u64
where
    S: Search,
    Q: BatchPriorityQueue<u64, S::Node> + ?Sized,
{
    let shared = Shared::new(budget);
    q.insert_batch(&[search.root()]);
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| shared.run(search, q, q.batch_capacity()));
        }
    });
    shared.finish()
}
