//! The BGPQ batched heap (Algorithms 1–3 of the paper).
//!
//! One generic implementation of the paper's pseudocode, parameterized
//! over a [`Platform`]: on [`bgpq_runtime::CpuPlatform`] it is a real
//! concurrent priority queue under OS threads; on
//! [`bgpq_runtime::SimPlatform`] the same code runs inside the
//! virtual-time GPU simulator with every primitive charged to the
//! simulated clock.
//!
//! Layout (see [`crate::storage`]): node `1` is the root (≤ k keys),
//! node `0` the partial buffer (≤ k-1 keys, shares the root's lock),
//! nodes `2..` are full batch nodes. The heap invariant is the paper's:
//! each non-root node's smallest key ≥ its parent's largest key, and the
//! buffer's smallest key ≥ the root's largest.
//!
//! Deviation from the pseudocode (documented in DESIGN.md): the paper
//! keeps `pBuffer` unsorted and sorts it lazily on overflow (Alg. 1
//! line 26), but then uses it in sorted `SORT_SPLIT`s elsewhere (Alg. 2
//! lines 13/25) without sorting. We keep the buffer sorted at all times
//! by merging insertions into it — same asymptotics on the GPU (one
//! merge-path pass), no ambiguity.

use crate::history::{HistoryEvent, HistoryOp, HistoryRecorder, ProtocolKind};
use crate::options::BgpqOptions;
use crate::scratch::OpScratch;
use crate::split;
use crate::storage::{NodeState, NodeStorage, PBUFFER};
use crate::tree::{next_on_path, ROOT};
use bgpq_runtime::{InjectionPoint, Place, Platform};
use pq_api::{Entry, KeyType, OpStats, QueueError, ValueType};
use primitives::{simd, PrimitiveCost};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Spin iterations before a collaboration wait escalates from the cheap
/// platform backoff to [`Platform::backoff_long`] (the awaited worker
/// looks stalled, stop burning its CPU).
const SPIN_ESCALATE_AFTER: u64 = 1 << 10;

/// Spin iterations after which a collaboration wait gives up and
/// poisons the queue: the counterpart insert has evidently died (see
/// DESIGN.md "Failure model"). About 10⁶, orders of magnitude above
/// any healthy refill, and reached only after the escalation above, so
/// a merely slow peer does not trip it.
const SPIN_POISON_AFTER: u64 = 1 << 20;

/// Most locks any single operation holds at once: a delete-heapify
/// level holds its node and both children. The losing child leaves in
/// its parent's store and is released in its parent's release round
/// trip, before the next level takes any lock. An insert holds three
/// only while it waits for a held `tar` with the root and its first
/// path node taken; the root refill holds at most two.
const MAX_HELD: usize = 3;

/// Most nodes an operation has changed but not yet stored: at the root
/// level of a delete heapify, the root, the pBuffer and both children.
#[cfg(debug_assertions)]
const MAX_DIRTY: usize = 4;

/// The lock guarding `node`'s keys: the pBuffer shares the root's.
#[cfg(debug_assertions)]
fn lock_of(node: usize) -> usize {
    if node == PBUFFER {
        ROOT
    } else {
        node
    }
}

/// How an operation holds a node's lock+state word for one state
/// change (see [`Crit::take_word`]).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Word {
    /// One CAS: the word was unlocked.
    Cas,
    /// The charged lock path: the word was locked.
    Locked,
}

/// A batched, heap-based, lock-based, linearizable concurrent priority
/// queue — the paper's contribution.
pub struct Bgpq<K, V, P: Platform> {
    platform: P,
    storage: NodeStorage<K, V>,
    opts: BgpqOptions,
    /// Linearization sequence, drawn while holding the root lock.
    seq: AtomicU64,
    /// Approximate item count (exact at quiescence).
    items: AtomicI64,
    /// Published lower-priority-bound of the queue: the root cache's
    /// smallest key as `KeyType::to_ordered_bits`, refreshed at every
    /// root-lock release; `u64::MAX` when no cheap bound exists (queue
    /// empty, or root and buffer both drained mid-heapify). Lets a
    /// sharded router compare shard minima without taking root locks.
    root_min_bits: AtomicU64,
    /// Set when a worker died (panicked or timed out) mid-restructure:
    /// the heap invariants can no longer be trusted, so every subsequent
    /// operation fails with [`QueueError::Poisoned`] instead of reading
    /// a possibly-corrupt structure (fail-stop; DESIGN.md "Failure
    /// model").
    poisoned: AtomicBool,
    stats: OpStats,
    history: Option<HistoryRecorder<K>>,
}

/// RAII critical-section guard: tracks which node locks the current
/// operation holds so that an unwinding worker (injected panic, watchdog
/// panic, any bug) releases its whole lock chain — peers un-wedge — and
/// poisons the queue *before* the locks become grabbable, so those peers
/// observe the crash as a typed error rather than corrupt state.
///
/// In debug builds it also checks the store side of the device model:
/// every node whose keys the host changed must be named by a
/// [`Crit::store`] before its lock is released.
struct Crit<'a, K: KeyType, V: ValueType, P: Platform> {
    q: &'a Bgpq<K, V, P>,
    w: &'a mut P::Worker,
    held: [usize; MAX_HELD],
    n: usize,
    /// Nodes changed since their last store.
    #[cfg(debug_assertions)]
    dirty: [usize; MAX_DIRTY],
    #[cfg(debug_assertions)]
    n_dirty: usize,
}

impl<'a, K: KeyType, V: ValueType, P: Platform> Crit<'a, K, V, P> {
    fn new(q: &'a Bgpq<K, V, P>, w: &'a mut P::Worker) -> Self {
        Crit {
            q,
            w,
            held: [0; MAX_HELD],
            n: 0,
            #[cfg(debug_assertions)]
            dirty: [0; MAX_DIRTY],
            #[cfg(debug_assertions)]
            n_dirty: 0,
        }
    }

    #[inline]
    fn inject(&mut self, point: InjectionPoint) {
        self.q.platform.inject(self.w, point);
    }

    #[inline]
    fn charge(&mut self, c: PrimitiveCost) {
        self.q.platform.charge(self.w, c);
    }

    /// One coalesced global load of `n` entries into the block's shared
    /// memory (nothing to charge when `n == 0`).
    #[inline]
    fn load(&mut self, n: usize) {
        if n > 0 {
            self.charge(PrimitiveCost::GlobalRead { n });
        }
    }

    /// One coalesced global store from shared memory of the named
    /// `(node, entries)` ranges, charged as one `GlobalWrite` of their
    /// sum. A range may be empty: a root whose changed keys all left as
    /// results has nothing left to write.
    #[inline]
    fn store(&mut self, parts: impl IntoIterator<Item = (usize, usize)>) {
        let mut n = 0;
        for (_node, len) in parts {
            n += len;
            #[cfg(debug_assertions)]
            if let Some(i) = self.dirty[..self.n_dirty].iter().position(|&d| d == _node) {
                self.n_dirty -= 1;
                self.dirty[i] = self.dirty[self.n_dirty];
            }
        }
        if n > 0 {
            self.charge(PrimitiveCost::GlobalWrite { n });
        }
    }

    /// Note that the host changed `node`'s keys: a [`Crit::store`] must
    /// name it before its lock is released (checked in debug builds).
    /// Taking keys off the root's head is not a change: the device model
    /// moves where the root starts instead.
    #[inline]
    fn changed(&mut self, _node: usize) {
        #[cfg(debug_assertions)]
        if !self.dirty[..self.n_dirty].contains(&_node) {
            assert!(self.n_dirty < MAX_DIRTY, "more than {MAX_DIRTY} unstored nodes");
            self.dirty[self.n_dirty] = _node;
            self.n_dirty += 1;
        }
    }

    /// Debug-build store check, run before `releasing` is released:
    /// every changed, unstored node must stay guarded by a held lock.
    /// (Checked while `releasing` is still tracked, so a failing check
    /// unwinds through [`Drop`] and frees it.)
    #[inline]
    fn check_stored(&self, _releasing: usize) {
        #[cfg(debug_assertions)]
        for &node in &self.dirty[..self.n_dirty] {
            let lock = lock_of(node);
            assert!(
                lock != _releasing && self.held[..self.n].contains(&lock),
                "node {node} changed but not stored when lock {_releasing} was released"
            );
        }
    }

    #[inline]
    fn backoff(&mut self) {
        self.q.platform.backoff(self.w);
    }

    #[inline]
    fn backoff_long(&mut self) {
        self.q.platform.backoff_long(self.w);
    }

    // Lock-free accesses, each tagged for schedule exploration (a no-op
    // elsewhere) where its word lives: node states and the root-min
    // hint beside their node's lock, the poison flag queue-wide.

    /// Node `node`'s state word, read outside its lock.
    #[inline]
    fn state(&mut self, node: usize) -> NodeState {
        self.q.platform.tag(self.w, Place::Lock(node), false);
        self.q.storage.state(node)
    }

    /// Publish node `node`'s state word.
    #[inline]
    fn set_state(&mut self, node: usize, state: NodeState) {
        self.q.platform.tag(self.w, Place::Lock(node), true);
        self.q.storage.set_state(node, state);
    }

    /// One poll of a wait on `node`'s state word, which reads the
    /// poison flag next: tagged queue-wide, covering both (a read, so
    /// polls commute with each other).
    #[inline]
    fn poll_state(&mut self, node: usize) -> NodeState {
        self.q.platform.tag(self.w, Place::Queue, false);
        self.q.storage.state(node)
    }

    /// Whether the queue is poisoned.
    #[inline]
    fn poisoned(&mut self) -> bool {
        self.q.platform.tag(self.w, Place::Queue, false);
        self.q.is_poisoned()
    }

    /// Poison the queue (idempotent; the first transition counts a
    /// poison event and retracts the min hint so routers stop
    /// considering this queue).
    #[inline]
    fn poison(&mut self) {
        self.q.platform.tag(self.w, Place::Queue, true);
        if !self.q.poisoned.swap(true, Ordering::SeqCst) {
            OpStats::bump(&self.q.stats.poison_events);
            self.q.root_min_bits.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// Refresh [`Bgpq::min_hint_bits`]. Caller holds the root lock (the
    /// buffer shares it); must run before every root-lock release so
    /// the published value reflects the state being made visible.
    #[inline]
    fn publish_root_min(&mut self) {
        self.q.platform.tag(self.w, Place::Lock(ROOT), true);
        let s = &self.q.storage;
        // SAFETY: root lock held; reads cover only the root/buffer
        // region that lock protects.
        let bits = unsafe {
            let m = s.meta_mut();
            if m.root_len > 0 {
                s.node_ref(ROOT)[0].key.to_ordered_bits()
            } else if m.buf_len > 0 {
                s.node_ref(PBUFFER)[0].key.to_ordered_bits()
            } else {
                u64::MAX
            }
        };
        self.q.root_min_bits.store(bits, Ordering::Relaxed);
    }

    fn track(&mut self, lock: usize) {
        debug_assert!(self.n < MAX_HELD, "lock chain deeper than MAX_HELD");
        self.held[self.n] = lock;
        self.n += 1;
    }

    fn untrack(&mut self, lock: usize) {
        self.check_stored(lock);
        let pos = self.held[..self.n]
            .iter()
            .rposition(|&l| l == lock)
            .expect("releasing a lock this operation does not hold");
        for i in pos..self.n - 1 {
            self.held[i] = self.held[i + 1];
        }
        self.n -= 1;
    }

    /// Acquire `lock` and track it. A watchdog failure is counted and
    /// surfaced; the caller decides whether it poisons (see
    /// [`Crit::lock_or_poison`]).
    fn acquire(&mut self, lock: usize) -> Result<(), QueueError> {
        self.inject(InjectionPoint::PreLockAcquire);
        match self.q.platform.lock_checked(self.w, lock) {
            Ok(()) => {
                self.track(lock);
                self.inject(InjectionPoint::PostLockAcquire);
                Ok(())
            }
            Err(f) => {
                OpStats::bump(&self.q.stats.lock_timeouts);
                Err(QueueError::LockTimeout { lock: f.lock, detail: f.detail })
            }
        }
    }

    /// First lock of an operation: nothing is held and nothing has been
    /// mutated yet, so failure (or an existing poison) is clean — the
    /// operation simply never starts.
    fn lock_entry(&mut self, lock: usize) -> Result<(), QueueError> {
        if self.poisoned() {
            return Err(QueueError::Poisoned);
        }
        self.acquire(lock)
    }

    /// Mid-operation lock: the operation holds locks with a batch in
    /// flight, so failing to advance strands keys — poison the queue and
    /// release the chain.
    fn lock_or_poison(&mut self, lock: usize) -> Result<(), QueueError> {
        match self.acquire(lock) {
            Ok(()) => {
                if self.q.is_poisoned() {
                    self.release_all();
                    return Err(QueueError::Poisoned);
                }
                Ok(())
            }
            Err(e) => {
                self.poison();
                self.release_all();
                Err(e)
            }
        }
    }

    /// Normal-path release (with the pre-release injection point).
    fn unlock(&mut self, lock: usize) {
        self.inject(InjectionPoint::PreLockRelease);
        self.untrack(lock);
        self.q.platform.unlock(self.w, lock);
    }

    /// CAS the lock word of `a` and, if given, of `b` in one atomic
    /// round trip (DESIGN §2): the two compare-and-swaps do not depend
    /// on each other, so only `a`'s is charged a `c_atomic`. Returns
    /// which words it took; a word found locked is left to the caller,
    /// which takes it through the charged lock path. Each CAS keeps the
    /// lock injection points, and a CAS that took a word poisons like
    /// [`Crit::lock_or_poison`].
    fn cas(&mut self, a: usize, b: Option<usize>) -> Result<(bool, bool), QueueError> {
        self.inject(InjectionPoint::PreLockAcquire);
        if b.is_some() {
            self.inject(InjectionPoint::PreLockAcquire);
        }
        let got_a = self.q.platform.try_lock(self.w, a);
        let got_b = b.filter(|&b| self.q.platform.try_lock_uncharged(self.w, b));
        self.took([got_a.then_some(a), got_b])?;
        Ok((got_a, got_b.is_some()))
    }

    /// Track the words a CAS took and fire their post-acquire points; a
    /// CAS that took a word on a poisoned queue releases every held
    /// lock instead. Always inlined: as a call it added 3–5% to the
    /// host time of an insert-only queue build (EXPERIMENTS E19).
    #[inline(always)]
    fn took(&mut self, got: [Option<usize>; 2]) -> Result<(), QueueError> {
        // Track every word taken before any injection point can unwind.
        for lock in got.into_iter().flatten() {
            self.track(lock);
        }
        for _ in got.into_iter().flatten() {
            self.inject(InjectionPoint::PostLockAcquire);
        }
        if got.iter().any(Option::is_some) && self.q.is_poisoned() {
            self.release_all();
            return Err(QueueError::Poisoned);
        }
        Ok(())
    }

    /// Release `held` and CAS `lock`'s word in the same atomic round
    /// trip: the CAS rides the charged release. A word found locked
    /// takes the charged lock path after the release, so that wait
    /// holds nothing.
    fn release_then_take(&mut self, held: usize, lock: usize) -> Result<Word, QueueError> {
        self.unlock(held);
        self.inject(InjectionPoint::PreLockAcquire);
        let got = self.q.platform.try_lock_uncharged(self.w, lock);
        self.took([got.then_some(lock), None])?;
        if got {
            return Ok(Word::Cas);
        }
        self.lock_or_poison(lock)?;
        Ok(Word::Locked)
    }

    /// Lock `a` and, if given, `b`: one [`Crit::cas`] of both words,
    /// then the charged lock path, in order, for each word it found
    /// locked, keeping the word it got meanwhile.
    fn lock_pair(&mut self, a: usize, b: Option<usize>) -> Result<(), QueueError> {
        let (got_a, got_b) = self.cas(a, b)?;
        if !got_a {
            self.lock_or_poison(a)?;
        }
        match b {
            Some(b) if !got_b => self.lock_or_poison(b),
            _ => Ok(()),
        }
    }

    /// Take node `lock`'s lock+state word for one state change that
    /// moves no keys under the node's lock (DESIGN §2). On the device
    /// the word holds the lock bit and the state, so while it is
    /// unlocked one CAS, one `c_atomic`, reads or changes the state
    /// ([`Word::Cas`]); the host holds the lock for the CAS's duration.
    /// A locked word takes the charged lock path instead
    /// ([`Word::Locked`]), after the failed CAS.
    fn take_word(&mut self, lock: usize) -> Result<Word, QueueError> {
        if self.cas(lock, None)?.0 {
            return Ok(Word::Cas);
        }
        self.lock_or_poison(lock)?;
        Ok(Word::Locked)
    }

    /// End a [`Crit::take_word`]: the CAS's release costs nothing more;
    /// the lock path's is a charged unlock.
    fn release_word(&mut self, lock: usize, word: Word) {
        match word {
            Word::Cas => self.unlock_uncharged(lock),
            Word::Locked => self.unlock(lock),
        }
    }

    /// Release `lock` at no charge of its own: it rides in the atomic
    /// round trip of the CAS that took it or of the charged release
    /// just before it (with the pre-release injection point).
    fn unlock_uncharged(&mut self, lock: usize) {
        self.inject(InjectionPoint::PreLockRelease);
        self.untrack(lock);
        self.q.platform.unlock_uncharged(self.w, lock);
    }

    /// Abandon-path release: raw unlocks (no injection hooks, so a
    /// teardown cannot re-fault), newest first.
    fn release_all(&mut self) {
        while self.n > 0 {
            self.n -= 1;
            self.q.platform.unlock(self.w, self.held[self.n]);
        }
    }
}

impl<K: KeyType, V: ValueType, P: Platform> Drop for Crit<'_, K, V, P> {
    fn drop(&mut self) {
        // Only reached with locks held when unwinding out of a critical
        // section (normal paths release explicitly). Poison FIRST: a
        // peer that wins a freed lock must already see the flag.
        if self.n > 0 {
            self.poison();
            self.release_all();
        }
    }
}

/// Per-operation linearization context: invocation timestamp and (for
/// history-recording queues) the data needed to emit the history event
/// *at the linearization point* — so an operation that linearized and
/// then crashed still appears in the truncated history.
struct OpCtx<K> {
    invoked: Option<u64>,
    insert_keys: Option<Vec<K>>,
    requested: usize,
    seq: Option<u64>,
}

impl<K: KeyType, V: ValueType, P: Platform> Bgpq<K, V, P> {
    /// Build a queue on `platform`, which must provide at least
    /// `opts.max_nodes + 1` locks (one per node slot; index 0 is unused
    /// because the buffer shares the root's lock).
    pub fn with_platform(platform: P, opts: BgpqOptions) -> Self {
        opts.validate();
        assert!(
            platform.num_locks() > opts.max_nodes,
            "platform must provide max_nodes + 1 locks ({} > {})",
            platform.num_locks(),
            opts.max_nodes
        );
        Self {
            storage: NodeStorage::new(opts.node_capacity, opts.max_nodes),
            platform,
            opts,
            seq: AtomicU64::new(0),
            items: AtomicI64::new(0),
            root_min_bits: AtomicU64::new(u64::MAX),
            poisoned: AtomicBool::new(false),
            stats: OpStats::new(),
            history: None,
        }
    }

    /// Whether a crashed worker has poisoned this queue (all operations
    /// now fail with [`QueueError::Poisoned`]).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Enable linearization-history recording (Section 5 checking).
    /// Must be called before the queue is shared.
    pub fn with_history(mut self) -> Self {
        self.history = Some(HistoryRecorder::new());
        self
    }

    /// Drain the recorded linearization history (if enabled).
    pub fn take_history(&self) -> Vec<crate::history::HistoryEvent<K>> {
        self.history.as_ref().map(|h| h.take()).unwrap_or_default()
    }

    /// Drain the recorded TARGET/MARKED protocol transitions (empty
    /// unless history recording is enabled). Check with
    /// [`crate::history::check_collaboration`].
    pub fn take_protocol(&self) -> Vec<crate::history::ProtocolEvent> {
        self.history.as_ref().map(|h| h.take_protocol()).unwrap_or_default()
    }

    #[inline]
    fn record_protocol(&self, kind: ProtocolKind, node: usize) {
        if let Some(rec) = self.history.as_ref() {
            rec.record_protocol(kind, node);
        }
    }

    /// Node capacity `k`.
    pub fn node_capacity(&self) -> usize {
        self.opts.node_capacity
    }

    /// Configuration.
    pub fn options(&self) -> &BgpqOptions {
        &self.opts
    }

    /// Operation statistics.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// The platform (for inspection).
    pub fn platform(&self) -> &P {
        &self.platform
    }

    /// Approximate number of stored items (exact at quiescence).
    pub fn len(&self) -> usize {
        self.items.load(Ordering::Relaxed).max(0) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cheap root-min peek: the smallest key in the root cache as of
    /// the last root-lock release, in [`KeyType::to_ordered_bits`]
    /// order. `u64::MAX` means "no cheap bound" — the queue is empty or
    /// its root cache is cold. Advisory: it may lag in-flight
    /// operations, but at quiescence it is exactly the true minimum
    /// whenever the root holds keys and an over-estimate (never an
    /// under-estimate) otherwise, so sampling routers comparing shards
    /// at rest never under-rank one.
    pub fn min_hint_bits(&self) -> u64 {
        self.root_min_bits.load(Ordering::Relaxed)
    }

    /// [`Self::min_hint_bits`] read by a router on `w`, outside any
    /// lock: tagged beside the root's lock, as every publish is.
    #[inline]
    pub fn read_min_hint(&self, w: &mut P::Worker) -> u64 {
        self.platform.tag(w, Place::Lock(ROOT), false);
        self.min_hint_bits()
    }

    /// Total key capacity of the heap body.
    pub fn capacity_items(&self) -> usize {
        self.opts.capacity_items()
    }

    /// Bytes reserved for the preallocated node storage (the paper's
    /// memory-efficiency criterion: `k + O(1)` words for `k` keys —
    /// Table 1 footnote b). Entries plus one state byte per node. The
    /// reservation is not written up front: resident bytes grow with
    /// the nodes filled, and reach this figure once every node has
    /// held keys.
    pub fn memory_bytes(&self) -> usize {
        (self.opts.max_nodes + 1)
            * (self.opts.node_capacity * std::mem::size_of::<Entry<K, V>>() + 1)
    }

    /// Remove every entry, appending them to `out` in ascending key
    /// order. Concurrent-safe (each batch is one linearized DELETEMIN);
    /// with concurrent inserts running, "every" means "until a moment
    /// the queue was observed empty". Returns the number drained.
    pub fn drain(&self, w: &mut P::Worker, out: &mut Vec<Entry<K, V>>) -> usize {
        let start = out.len();
        let k = self.opts.node_capacity;
        let mut s = self.take_scratch(w);
        while self.delete_min_with(w, out, k, &mut s) > 0 {}
        self.put_scratch(w, s);
        out.len() - start
    }

    /// Discard every entry (a drain into a throwaway buffer — the
    /// batched heap has no cheaper structural reset that preserves
    /// concurrent safety). Returns the number discarded.
    pub fn clear(&self, w: &mut P::Worker) -> usize {
        let k = self.opts.node_capacity;
        let mut s = self.take_scratch(w);
        let mut sink = std::mem::take(&mut s.stage);
        let mut n = 0;
        loop {
            sink.clear();
            let got = self.delete_min_with(w, &mut sink, k, &mut s);
            if got == 0 {
                break;
            }
            n += got;
        }
        sink.clear();
        s.stage = sink;
        self.put_scratch(w, s);
        n
    }

    // ------------------------------------------------------------------
    // helpers
    // ------------------------------------------------------------------

    /// Take the worker's operation arena out of its scratch slot (or
    /// build one on first use / after a panic dropped it), sized for
    /// this queue's `k`. Taking (moving the `Box` out) rather than
    /// borrowing lets the heap hold the arena across a [`Crit`] that
    /// mutably borrows the same worker, and makes nested users (e.g.
    /// the shard router, which parks its own scratch type in the same
    /// slot) compose without aliasing.
    fn take_scratch(&self, w: &mut P::Worker) -> Box<OpScratch<K, V>> {
        let k = self.opts.node_capacity;
        match self.platform.scratch_slot(w).take::<OpScratch<K, V>>() {
            Some(mut s) => {
                s.reset(k);
                s
            }
            None => Box::new(OpScratch::new(k)),
        }
    }

    /// Park the arena back in the worker's slot for the next operation.
    /// Not called on unwind: a panicking operation drops the taken-out
    /// arena with its stack, and the next operation re-allocates (the
    /// queue is poisoned by then anyway).
    fn put_scratch(&self, w: &mut P::Worker, s: Box<OpScratch<K, V>>) {
        self.platform.scratch_slot(w).put(s);
    }

    fn begin_insert(&self, items: &[Entry<K, V>]) -> OpCtx<K> {
        OpCtx {
            invoked: self.history.as_ref().map(|h| h.tick()),
            insert_keys: self.history.as_ref().map(|_| items.iter().map(|e| e.key).collect()),
            requested: 0,
            seq: None,
        }
    }

    fn begin_delete(&self, count: usize) -> OpCtx<K> {
        OpCtx {
            invoked: self.history.as_ref().map(|h| h.tick()),
            insert_keys: None,
            requested: count,
            seq: None,
        }
    }

    /// Draw the linearization point of an INSERT and (if recording)
    /// emit its history event right away, so a crash after this instant
    /// leaves the committed operation visible in the truncated history.
    /// Must run while holding the root lock, once per operation.
    fn linearize_insert(&self, ctx: &mut OpCtx<K>) {
        let s = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        debug_assert!(ctx.seq.is_none(), "operation linearized twice");
        ctx.seq = Some(s);
        if let Some(rec) = self.history.as_ref() {
            rec.record(HistoryEvent {
                seq: s,
                invoked: ctx.invoked.expect("invocation timestamp missing"),
                responded: rec.tick(),
                op: HistoryOp::Insert {
                    keys: ctx.insert_keys.take().expect("insert keys missing"),
                },
            });
        }
    }

    /// Draw the linearization point of a DELETEMIN (its result set
    /// `out[start..]` is final by then) and emit the history event.
    fn linearize_delete(&self, ctx: &mut OpCtx<K>, out: &[Entry<K, V>], start: usize) {
        let s = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        debug_assert!(ctx.seq.is_none(), "operation linearized twice");
        ctx.seq = Some(s);
        if let Some(rec) = self.history.as_ref() {
            rec.record(HistoryEvent {
                seq: s,
                invoked: ctx.invoked.expect("invocation timestamp missing"),
                responded: rec.tick(),
                op: HistoryOp::DeleteMin {
                    requested: ctx.requested,
                    keys: out[start..].iter().map(|e| e.key).collect(),
                },
            });
        }
    }

    /// Release a path lock on the insert path; if it is the root's,
    /// draw the linearization point first.
    fn unlock_path(&self, c: &mut Crit<'_, K, V, P>, lock: usize, ctx: &mut OpCtx<K>) {
        if lock == ROOT {
            self.linearize_insert(ctx);
            c.publish_root_min();
        }
        c.unlock(lock);
    }

    /// `EXTRACT_ROOT` (Alg. 2 lines 32-35): move up to `want` smallest
    /// keys from the root into `out`, compacting the root. Caller holds
    /// the root lock. Returns the number extracted.
    ///
    /// Charges nothing: the caller knows whether the root is already in
    /// the block's shared memory and charges its load, fused with the
    /// other keys its held locks cover. The device model takes keys off
    /// the root's head by moving where the root starts, so a root that
    /// did not otherwise change needs no store. The extracted keys reach
    /// the caller's buffer in one coalesced store after the root lock is
    /// released ([`Self::store_results`]).
    fn extract_root(&self, out: &mut Vec<Entry<K, V>>, want: usize) -> usize {
        // SAFETY: root lock held (caller), references scoped to this fn.
        unsafe {
            let rl = self.storage.meta_mut().root_len;
            let s = want.min(rl);
            if s > 0 {
                let root = self.storage.node_mut(ROOT);
                out.extend_from_slice(&root[..s]);
                root.copy_within(s..rl, 0);
                self.storage.meta_mut().root_len = rl - s;
            }
            s
        }
    }

    /// Keys the root holds (caller holds the root lock).
    fn root_len(&self) -> usize {
        // SAFETY: root lock held (caller).
        unsafe { self.storage.meta_mut().root_len }
    }

    /// Store a DELETEMIN's `n` results from shared memory to the
    /// caller's buffer: one coalesced write, issued once the root lock
    /// is released so it stays off the serialized path.
    fn store_results(&self, w: &mut P::Worker, n: usize) {
        if n > 0 {
            self.platform.charge(w, PrimitiveCost::GlobalWrite { n });
        }
    }

    // ------------------------------------------------------------------
    // INSERT (Alg. 1)
    // ------------------------------------------------------------------

    /// Insert 1..=k `(key, value)` entries — the panicking convenience
    /// API. Prefer [`Bgpq::try_insert`] anywhere failure must be
    /// handled: this wrapper turns every [`QueueError`] into a panic
    /// (`Full` keeps its historical "out of node slots" message).
    ///
    /// Panics if `items` is empty, exceeds the node capacity, the heap
    /// body is out of node slots, the queue is poisoned, or a lock
    /// watchdog fires.
    pub fn insert(&self, w: &mut P::Worker, items: &[Entry<K, V>]) {
        match self.try_insert(w, items) {
            Ok(()) => {}
            Err(QueueError::Full { max_nodes }) => {
                panic!("BGPQ out of node slots (max_nodes = {max_nodes}); size the queue larger")
            }
            Err(e) => panic!("BGPQ insert failed: {e}"),
        }
    }

    /// Insert 1..=k `(key, value)` entries, surfacing failures as
    /// [`QueueError`] instead of panicking.
    ///
    /// On `Err` the batch was **not** inserted and the caller still owns
    /// every key — in particular [`QueueError::Full`] is raised *before*
    /// any state changes, so backpressure loses nothing (contrast with
    /// the historical behavior of dropping the overflowing node).
    /// An operation already linearized when a fault strikes returns
    /// `Ok`: its effect is committed (and recorded in the history) even
    /// though the queue may now be poisoned.
    ///
    /// Panics only on misuse (empty or oversized batch).
    pub fn try_insert(&self, w: &mut P::Worker, items: &[Entry<K, V>]) -> Result<(), QueueError> {
        let mut s = self.take_scratch(w);
        let r = self.try_insert_with(w, items, &mut s);
        self.put_scratch(w, s);
        if r.is_ok() {
            self.stats.record_batch_occupancy(items.len(), self.opts.node_capacity);
        }
        r
    }

    fn try_insert_with(
        &self,
        w: &mut P::Worker,
        items: &[Entry<K, V>],
        s: &mut OpScratch<K, V>,
    ) -> Result<(), QueueError> {
        let mut ctx = self.begin_insert(items);
        let mut c = Crit::new(self, w);
        self.insert_inner(&mut c, items, &mut ctx, s)
    }

    /// Map a mid-flight insert fault to the API result: after the
    /// linearization point the operation is committed (`Ok`), before it
    /// the operation never happened (`Err`).
    fn insert_tail(&self, ctx: &OpCtx<K>, e: QueueError) -> Result<(), QueueError> {
        if ctx.seq.is_some() {
            Ok(())
        } else {
            Err(e)
        }
    }

    fn insert_inner(
        &self,
        c: &mut Crit<'_, K, V, P>,
        items: &[Entry<K, V>],
        ctx: &mut OpCtx<K>,
        s: &mut OpScratch<K, V>,
    ) -> Result<(), QueueError> {
        let k = self.opts.node_capacity;
        let size = items.len();
        assert!(size >= 1 && size <= k, "insert batch must have 1..=k items, got {size}");

        // Stage the incoming batch in the worker's arena (Alg. 1
        // line 2). `buf` is k slots so the overflow SORT_SPLIT can
        // deposit a full batch into it; arena contents past `size` are
        // stale from earlier operations and never read before being
        // overwritten.
        let buf = &mut s.ins[..k];
        let scratch = &mut s.merge;
        buf[..size].copy_from_slice(items);
        c.charge(PrimitiveCost::SortWith { n: size, algo: self.opts.sort_algo });
        buf[..size].sort_unstable();

        c.lock_entry(ROOT)?;
        if self.is_poisoned() {
            c.release_all();
            return Err(QueueError::Poisoned);
        }

        // ---- PARTIAL_INSERT (Alg. 1 lines 15-29) ----
        // SAFETY throughout: root lock held; buffer shares it.
        let (heap_size, buf_len) = unsafe {
            let m = self.storage.meta_mut();
            (m.heap_size, m.buf_len)
        };

        // Backpressure precheck, *before any state is touched*: a batch
        // that will need an insert-heapify when no node slot is free is
        // refused outright — the caller keeps every key. (The root
        // merge below changes neither `buf_len` nor `heap_size`, so the
        // predicate is exact.)
        let needs_heapify = heap_size > 0 && buf_len + size >= k;
        if needs_heapify && heap_size >= self.opts.max_nodes {
            let max_nodes = self.opts.max_nodes;
            c.unlock(ROOT);
            return Err(QueueError::Full { max_nodes });
        }

        OpStats::bump(&self.stats.inserts);
        OpStats::add(&self.stats.items_inserted, size as u64);
        self.items.fetch_add(size as i64, Ordering::Relaxed);

        if heap_size == 0 {
            unsafe {
                self.storage.node_mut(ROOT)[..size].copy_from_slice(&buf[..size]);
                let m = self.storage.meta_mut();
                m.root_len = size;
                m.heap_size = 1;
            }
            c.changed(ROOT);
            c.store([(ROOT, size)]);
            c.set_state(ROOT, NodeState::Avail);
            OpStats::bump(&self.stats.inserts_buffered);
            self.linearize_insert(ctx);
            c.publish_root_min();
            c.unlock(ROOT);
            return Ok(());
        }

        // The root and the pBuffer share the root lock: one load brings
        // both on-chip, and one store writes both back before the lock
        // is released.
        let root_len = self.root_len();
        c.load(root_len + buf_len);

        // Merge with the root so it keeps the |root| smallest keys
        // (Alg. 1 line 20).
        if root_len > 0 {
            c.charge(PrimitiveCost::SortSplit { na: root_len, nb: size });
            unsafe {
                let root = self.storage.node_mut(ROOT);
                split::sort_split_entries(root, root_len, buf, size, root_len, scratch);
            }
            c.changed(ROOT);
        }

        if buf_len + size < k {
            // Buffer absorbs the batch (Alg. 1 lines 21-24); kept sorted
            // by merging (see module docs).
            c.charge(PrimitiveCost::Merge { n: buf_len + size });
            unsafe {
                let pb = self.storage.node_mut(PBUFFER);
                // Merge buf[..size] into pb[..buf_len]: both sorted,
                // the old buffer winning ties (stable — same order the
                // scalar loop gave). The absorb stashes the old buffer
                // contents in the arena so it can write pb in place.
                split::merge_absorb(&mut pb[..buf_len + size], buf_len, &buf[..size], scratch);
                self.storage.meta_mut().buf_len = buf_len + size;
            }
            c.changed(PBUFFER);
            c.store([(ROOT, root_len), (PBUFFER, buf_len + size)]);
            OpStats::bump(&self.stats.inserts_buffered);
            self.linearize_insert(ctx);
            c.publish_root_min();
            c.unlock(ROOT);
            return Ok(());
        }

        // Overflow (Alg. 1 lines 25-29): extract the k smallest of
        // (batch ∪ buffer) into `buf`, leave the rest in the buffer. An
        // empty buffer means `size == k`: `buf` already is that batch.
        let buf_out = if buf_len > 0 {
            debug_assert!(buf_len + size >= k);
            c.charge(PrimitiveCost::SortSplit { na: size, nb: buf_len });
            unsafe {
                let pb = self.storage.node_mut(PBUFFER);
                split::sort_split_entries(buf, size, pb, buf_len, k, scratch);
                self.storage.meta_mut().buf_len = buf_len + size - k;
            }
            c.changed(PBUFFER);
            buf_len + size - k
        } else {
            0
        };
        // The root section's only store: root and leftover buffer, once
        // their last change is made (before the heapify takes any lock).
        c.store([(ROOT, root_len), (PBUFFER, buf_out)]);

        // ---- full insert-heapify (Alg. 1 lines 5-14) ----
        OpStats::bump(&self.stats.insert_heapifies);
        // The precheck above guaranteed a free slot.
        debug_assert!(unsafe { self.storage.meta_mut().heap_size } < self.opts.max_nodes);
        // SAFETY: root lock held.
        let tar = unsafe {
            let m = self.storage.meta_mut();
            m.heap_size += 1;
            m.heap_size
        };
        // Reserve `tar` (EMPTY → TARGET) and lock the first path node:
        // one CAS of both words, or of `tar`'s alone, kept for the fill,
        // when `tar` is that node. A held `tar` comes through the lock
        // path. `tar` is marked and its word released before any wait
        // for the first path node: a deleter holding that node locks
        // `tar` as its child (DESIGN §2).
        let first = next_on_path(ROOT, tar);
        let (got_tar, mut got_first) = match c.cas(tar, (first != tar).then_some(first)) {
            Ok(got) => got,
            Err(e) => return self.insert_tail(ctx, e),
        };
        #[cfg(any(test, feature = "mutations"))]
        let hold_tar = self.opts.mutation == crate::options::Mutation::PathWaitHoldsTarget;
        #[cfg(not(any(test, feature = "mutations")))]
        let hold_tar = false;
        if hold_tar && got_tar && !got_first && first != tar {
            // DELIBERATE BUG (schedule-explorer self-test, see
            // `Mutation::PathWaitHoldsTarget`): wait for the first path
            // node while still holding `tar`'s word.
            if let Err(e) = c.lock_or_poison(first) {
                return self.insert_tail(ctx, e);
            }
            got_first = true;
        }
        if !got_tar {
            if let Err(e) = c.lock_or_poison(tar) {
                return self.insert_tail(ctx, e);
            }
        }
        c.set_state(tar, NodeState::Target);
        self.record_protocol(ProtocolKind::TargetSet, tar);
        if first != tar {
            c.release_word(tar, if got_tar { Word::Cas } else { Word::Locked });
        }

        // INSERT_HEAPIFY (Alg. 1 lines 30-34), iteratively. `held` is
        // the lock we currently hold — initially the root; `taken` says
        // the CAS above already took `cur`'s lock.
        let mut held = ROOT;
        let mut cur = first;
        let mut taken = got_first || first == tar;
        // The root is held until the first pass releases it, so `tar`
        // cannot be MARKED while the first path node is taken.
        while cur != tar && c.state(tar) != NodeState::Marked {
            c.inject(InjectionPoint::MidInsertHeapify);
            if !std::mem::take(&mut taken) {
                if let Err(e) = c.lock_or_poison(cur) {
                    return self.insert_tail(ctx, e);
                }
            }
            self.unlock_path(c, held, ctx);
            if held != ROOT {
                // `tar`'s state rides in the round trip that released
                // `held`: a delete may have marked `tar` while this
                // block waited for `cur` (DESIGN §2).
                if c.state(tar) == NodeState::Marked {
                    return self.answer_at_lock(c, cur, tar, &buf[..k], ctx);
                }
            }
            held = cur;
            c.load(k);
            c.charge(PrimitiveCost::SortSplit { na: k, nb: k });
            // Pull the next path node into L2 while this level's merge
            // runs (same overlap trick as the delete path).
            let nxt = next_on_path(cur, tar);
            if nxt != tar {
                self.prefetch_node_full(nxt, k);
            }
            debug_assert_eq!(self.storage.state(cur), NodeState::Avail);
            // SAFETY: we hold `cur`'s lock; path nodes are full AVAIL.
            unsafe {
                split::sort_split_full_entries(self.storage.node_mut(cur), buf, scratch);
            }
            c.changed(cur);
            c.store([(cur, k)]);
            cur = next_on_path(cur, tar);
        }

        // Alg. 1 lines 8-14.
        c.inject(InjectionPoint::MidInsertHeapify);
        if !taken {
            if let Err(e) = c.lock_or_poison(tar) {
                return self.insert_tail(ctx, e);
            }
        }
        self.unlock_path(c, held, ctx);
        if c.state(tar) == NodeState::Target {
            // SAFETY: we hold tar's lock and it is TARGET (reserved for
            // us; no keys yet, and perhaps never written).
            unsafe {
                self.storage.fill(tar, &buf[..k]);
            }
            c.changed(tar);
            c.store([(tar, k)]);
            c.set_state(tar, NodeState::Avail);
            self.record_protocol(ProtocolKind::TargetFilled, tar);
        } else {
            self.answer_marked(c, tar, &buf[..k]);
        }
        c.unlock(tar);
        Ok(())
    }

    /// Answer a MARKED `tar` seen at the grant of path node `cur`:
    /// `cur` is untouched, so it leaves, and `tar`'s word is taken, in
    /// one round trip; then the batch refills the root. Cold: a delete
    /// must have marked `tar` during this block's wait for `cur`.
    #[cold]
    fn answer_at_lock(
        &self,
        c: &mut Crit<'_, K, V, P>,
        cur: usize,
        tar: usize,
        batch: &[Entry<K, V>],
        ctx: &mut OpCtx<K>,
    ) -> Result<(), QueueError> {
        let word = match c.release_then_take(cur, tar) {
            Ok(word) => word,
            Err(e) => return self.insert_tail(ctx, e),
        };
        self.answer_marked(c, tar, batch);
        c.release_word(tar, word);
        Ok(())
    }

    /// Answer a MARKED `tar` (§4.3): a DELETEMIN spins on the root,
    /// holding the root lock, until this insert's `batch` refills the
    /// root. The caller holds `tar`'s word, whether it reached `tar` or
    /// saw the marking at its next path lock.
    fn answer_marked(&self, c: &mut Crit<'_, K, V, P>, tar: usize, batch: &[Entry<K, V>]) {
        debug_assert_eq!(self.storage.state(tar), NodeState::Marked);
        let k = batch.len();
        #[cfg(any(test, feature = "mutations"))]
        let early_avail = self.opts.mutation == crate::options::Mutation::MarkedHandoffEarlyAvail;
        #[cfg(not(any(test, feature = "mutations")))]
        let early_avail = false;
        if early_avail {
            // DELIBERATE BUG (schedule-explorer self-test, see
            // `Mutation::MarkedHandoffEarlyAvail`): publish AVAIL before
            // the stolen keys land. A deleter scheduled into the charge
            // below reads a stale root.
            c.set_state(ROOT, NodeState::Avail);
            c.changed(ROOT);
            c.store([(ROOT, k)]);
            unsafe {
                self.storage.node_mut(ROOT).copy_from_slice(batch);
                self.storage.meta_mut().root_len = k;
            }
        } else {
            // SAFETY: collaboration-phase ownership of the root entries
            // and root_len (see storage module docs) — the deleter will
            // not touch them until it observes AVAIL.
            unsafe {
                self.storage.node_mut(ROOT).copy_from_slice(batch);
                self.storage.meta_mut().root_len = k;
            }
            c.changed(ROOT);
            c.store([(ROOT, k)]);
            c.set_state(ROOT, NodeState::Avail);
        }
        c.set_state(tar, NodeState::Empty);
        OpStats::bump(&self.stats.collaborations);
        self.record_protocol(ProtocolKind::CollabRefill, tar);
    }

    // ------------------------------------------------------------------
    // DELETEMIN (Alg. 2 + 3)
    // ------------------------------------------------------------------

    /// Delete up to `count` (1..=k) smallest entries, appending them to
    /// `out` in ascending key order — the panicking convenience API.
    /// Prefer [`Bgpq::try_delete_min`] anywhere failure must be
    /// handled. Returns how many were deleted (fewer than `count` only
    /// if the queue ran out of items).
    ///
    /// Panics on any [`QueueError`] (poisoned queue, watchdog timeout).
    pub fn delete_min(&self, w: &mut P::Worker, out: &mut Vec<Entry<K, V>>, count: usize) -> usize {
        self.try_delete_min(w, out, count).unwrap_or_else(|e| panic!("BGPQ delete_min failed: {e}"))
    }

    /// Delete up to `count` (1..=k) smallest entries, surfacing
    /// failures as [`QueueError`] instead of panicking.
    ///
    /// On `Err` nothing was appended to `out` (a partially-assembled
    /// result is rolled back) and the operation did not linearize. An
    /// operation already linearized when a fault strikes returns `Ok`
    /// with its final result set — committed and recorded — even though
    /// the queue may now be poisoned.
    ///
    /// Panics only on misuse (`count` outside `1..=k`).
    pub fn try_delete_min(
        &self,
        w: &mut P::Worker,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
    ) -> Result<usize, QueueError> {
        let mut s = self.take_scratch(w);
        let r = self.try_delete_min_with(w, out, count, &mut s);
        self.put_scratch(w, s);
        if let Ok(n) = r {
            if n > 0 {
                self.stats.record_batch_occupancy(n, self.opts.node_capacity);
            }
        }
        r
    }

    /// Delete up to `count` smallest entries where `count` may exceed
    /// the node width `k` — the partial-batch refill entry point for
    /// buffered fronts whose deletion buffers are wider than one node.
    ///
    /// Issues a sequence of `≤ k`-wide linearized deletes sharing one
    /// scratch arena, stopping early when the queue runs short. Each
    /// inner batch commits independently: on a fault after at least one
    /// batch delivered, the delivered entries stay appended to `out`
    /// and `Ok(delivered)` is returned (the queue is poisoned and the
    /// *next* call surfaces the error); `Err` is returned only when the
    /// first batch fails, in which case nothing was appended.
    ///
    /// Panics only on misuse (`count == 0`).
    pub fn try_delete_up_to(
        &self,
        w: &mut P::Worker,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
    ) -> Result<usize, QueueError> {
        assert!(count >= 1, "delete batch must request at least one entry");
        let k = self.opts.node_capacity;
        let mut s = self.take_scratch(w);
        let mut total = 0;
        let r = loop {
            let step = (count - total).min(k);
            match self.try_delete_min_with(w, out, step, &mut s) {
                Ok(0) => break Ok(total),
                Ok(n) => {
                    self.stats.record_batch_occupancy(n, k);
                    total += n;
                    if n < step || total >= count {
                        break Ok(total);
                    }
                }
                Err(e) if total == 0 => break Err(e),
                Err(_) => break Ok(total),
            }
        };
        self.put_scratch(w, s);
        r
    }

    /// [`Bgpq::delete_min`] with a caller-held arena (batched paths
    /// like [`Bgpq::drain`] and [`Bgpq::clear`] take the scratch once
    /// for many operations).
    fn delete_min_with(
        &self,
        w: &mut P::Worker,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
        s: &mut OpScratch<K, V>,
    ) -> usize {
        self.try_delete_min_with(w, out, count, s)
            .unwrap_or_else(|e| panic!("BGPQ delete_min failed: {e}"))
    }

    fn try_delete_min_with(
        &self,
        w: &mut P::Worker,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
        s: &mut OpScratch<K, V>,
    ) -> Result<usize, QueueError> {
        let mut ctx = self.begin_delete(count);
        let start = out.len();
        let r = {
            let mut c = Crit::new(self, w);
            self.delete_min_inner(&mut c, out, count, &mut ctx, s)
        };
        match r {
            Ok(n) => {
                self.store_results(w, n);
                Ok(n)
            }
            Err(e) => self.delete_tail(w, &ctx, out, start, e),
        }
    }

    /// Map a mid-flight delete fault to the API result: post-linearize
    /// the result set is committed (and stored), pre-linearize it is
    /// rolled back.
    fn delete_tail(
        &self,
        w: &mut P::Worker,
        ctx: &OpCtx<K>,
        out: &mut Vec<Entry<K, V>>,
        start: usize,
        e: QueueError,
    ) -> Result<usize, QueueError> {
        if ctx.seq.is_some() {
            let n = out.len() - start;
            self.store_results(w, n);
            Ok(n)
        } else {
            out.truncate(start);
            Err(e)
        }
    }

    /// Bounded collaboration wait: spin until `node`'s state is `want`,
    /// escalating the backoff once the peer looks stalled and giving up
    /// (poisoning) at `SPIN_POISON_AFTER` — the peer has evidently
    /// died and the awaited refill will never come. Also aborts as soon
    /// as an existing poison is observed. Either failure releases every
    /// held lock.
    fn bounded_wait(
        &self,
        c: &mut Crit<'_, K, V, P>,
        node: usize,
        want: NodeState,
    ) -> Result<(), QueueError> {
        let mut iters: u64 = 0;
        while c.poll_state(node) != want {
            if self.is_poisoned() {
                c.release_all();
                return Err(QueueError::Poisoned);
            }
            iters += 1;
            if iters > SPIN_POISON_AFTER {
                c.poison();
                c.release_all();
                return Err(QueueError::Poisoned);
            }
            c.inject(InjectionPoint::MarkedSpin);
            if iters >= SPIN_ESCALATE_AFTER {
                if iters == SPIN_ESCALATE_AFTER {
                    OpStats::bump(&self.stats.spin_escalations);
                }
                c.backoff_long();
            } else {
                c.backoff();
            }
        }
        Ok(())
    }

    fn delete_min_inner(
        &self,
        c: &mut Crit<'_, K, V, P>,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
        ctx: &mut OpCtx<K>,
        s: &mut OpScratch<K, V>,
    ) -> Result<usize, QueueError> {
        let k = self.opts.node_capacity;
        assert!(count >= 1 && count <= k, "delete batch must request 1..=k items, got {count}");
        let start = out.len();
        let scratch = &mut s.merge;

        c.lock_entry(ROOT)?;
        if self.is_poisoned() {
            c.release_all();
            return Err(QueueError::Poisoned);
        }
        OpStats::bump(&self.stats.delete_mins);

        // ---- PARTIAL_DELETEMIN (Alg. 2 lines 15-31) ----
        // SAFETY throughout: root lock held.
        let (heap_size, root_len, buf_len) = unsafe {
            let m = self.storage.meta_mut();
            (m.heap_size, m.root_len, m.buf_len)
        };

        // The root refill below will stream the last heap node; start
        // pulling it into L2 now so the fetch overlaps the root
        // extraction and lock work in between.
        if heap_size > 1 {
            self.prefetch_node_full(heap_size, k);
        }

        if heap_size == 0 {
            self.finish_delete(c, out, start, ROOT, true, ctx)?;
            return Ok(0);
        }

        if count < root_len {
            // Root alone satisfies the request (Alg. 2 lines 18-20):
            // load the keys it takes.
            c.load(count);
            self.extract_root(out, count);
            OpStats::bump(&self.stats.deletes_from_root);
            self.finish_delete(c, out, start, ROOT, true, ctx)?;
            return Ok(count);
        }

        // Take everything the root has (Alg. 2 line 22). Those keys are
        // loaded below, together with whatever else the held locks
        // cover.
        self.extract_root(out, root_len);

        if heap_size == 1 {
            // No full nodes: serve the remainder from the buffer
            // (Alg. 2 lines 23-29). Root and buffer arrive in one load;
            // the buffer's leftover keys, now the root's, in one store.
            c.load(root_len + buf_len);
            unsafe {
                if buf_len > 0 {
                    let pb_ptr = self.storage.node_mut(PBUFFER);
                    let root = self.storage.node_mut(ROOT);
                    root[..buf_len].copy_from_slice(&pb_ptr[..buf_len]);
                    let m = self.storage.meta_mut();
                    m.root_len = buf_len;
                    m.buf_len = 0;
                }
                c.changed(ROOT);
            }
            self.extract_root(out, count - root_len);
            let left = self.root_len();
            c.store([(ROOT, left)]);
            if left == 0 {
                // Heap fully drained; reset to the empty state.
                // SAFETY: root lock held.
                unsafe { self.storage.meta_mut().heap_size = 0 };
                c.set_state(ROOT, NodeState::Empty);
            }
            OpStats::bump(&self.stats.deletes_from_root);
            self.finish_delete(c, out, start, ROOT, true, ctx)?;
            return Ok(out.len() - start);
        }

        // ---- refill the root from a heap node (Alg. 2 lines 4-14) ----
        c.set_state(ROOT, NodeState::Empty);
        let remained = count - root_len;
        let tar = unsafe {
            let m = self.storage.meta_mut();
            let t = m.heap_size;
            m.heap_size -= 1;
            t
        };
        debug_assert!(tar >= 2);

        // Take `tar`'s keys, or hand the refill to the insert that
        // reserved it. Each pass takes `tar`'s word once: one CAS while
        // it is unlocked, the lock path otherwise. `pending` counts the
        // old root's keys (the results) and the pBuffer's not yet
        // loaded. The loop yields `root_on_chip`, false only when a
        // collaborating inserter stored the new root itself.
        let mut pending = root_len + buf_len;
        let root_on_chip = loop {
            let word = c.take_word(tar)?;
            if word == Word::Locked {
                // The lock path reads the state with an atomic of its own.
                c.charge(PrimitiveCost::Atomic);
            }
            match c.state(tar) {
                NodeState::Avail => {
                    // `tar` is EMPTY once its word is released, and no
                    // insert can reserve it while the root is held: its
                    // keys arrive with the results and the pBuffer in
                    // one load after the release.
                    self.move_node_to_root(c, tar);
                    c.release_word(tar, word);
                    c.load(pending + k);
                    break true;
                }
                NodeState::Target if !self.opts.use_collaboration => {
                    // Ablation: wait for the insertion to finish filling
                    // `tar`, then take its keys like any AVAIL node.
                    c.release_word(tar, word);
                    self.bounded_wait(c, tar, NodeState::Avail)?;
                }
                NodeState::Target if word == Word::Cas && pending > 0 => {
                    // A CAS that found TARGET changed nothing. The results
                    // must be on-chip before the inserter overwrites the
                    // root; a second CAS marks `tar` once they are.
                    c.release_word(tar, word);
                    c.load(pending);
                    pending = 0;
                }
                NodeState::Target => {
                    // Collaborate: the in-flight insertion refills the
                    // root directly (§4.3; footnote 2: we spin holding the
                    // root lock). `tar` holds no keys yet. Bounded: a dead
                    // inserter must not wedge us.
                    c.load(pending);
                    c.set_state(tar, NodeState::Marked);
                    self.record_protocol(ProtocolKind::MarkedSet, tar);
                    c.release_word(tar, word);
                    self.bounded_wait(c, ROOT, NodeState::Avail)?;
                    break false;
                }
                s => unreachable!("refill node {tar} is {s:?}"),
            }
        };

        // Re-establish root ≤ buffer (Alg. 2 line 13) once the root is
        // on-chip: now, or, for a root the inserter stored, right after
        // level 0 loads it with the children. The rewritten buffer is
        // stored with level 0's root.
        if buf_len > 0 && root_on_chip {
            self.split_root_buffer(c, buf_len, scratch);
        }

        OpStats::bump(&self.stats.delete_heapifies);
        self.delete_heapify(c, out, start, remained, root_on_chip, buf_len, scratch, ctx)?;
        Ok(out.len() - start)
    }

    /// SORT_SPLIT the refilled root's k keys with the pBuffer's
    /// `buf_len`, both on-chip, so the root keeps the k smallest (Alg. 2
    /// line 13). Caller holds the root lock.
    fn split_root_buffer(
        &self,
        c: &mut Crit<'_, K, V, P>,
        buf_len: usize,
        scratch: &mut Vec<Entry<K, V>>,
    ) {
        let k = self.opts.node_capacity;
        c.charge(PrimitiveCost::SortSplit { na: k, nb: buf_len });
        // SAFETY: root lock held covers both the root and buffer.
        unsafe {
            let root = self.storage.node_mut(ROOT);
            let pb = self.storage.node_mut(PBUFFER);
            split::sort_split_entries(root, k, pb, buf_len, k, scratch);
        }
        c.changed(ROOT);
        c.changed(PBUFFER);
    }

    /// Hint-prefetch the cache lines of node `node` that the next
    /// heapify level touches first: the head (`[0]` min probe, merge
    /// stream start) and the tail (`[k-1]` max probe). The body streams
    /// in behind the hardware prefetcher once the merge starts. Issued
    /// before the node's lock is taken, so the loads overlap the
    /// acquisition; prefetching is a hint, so racing a writer is safe.
    #[inline]
    fn prefetch_node(&self, node: usize, k: usize) {
        let p = self.storage.node_ptr(node);
        simd::prefetch_read(p);
        simd::prefetch_read(p.wrapping_add(k - 1));
    }

    /// Bulk-prefetch every cache line of node `node` into L2. Issued
    /// one full merge *ahead* of the level that will stream the node,
    /// so the fetch overlaps real work — at steady state the heap's
    /// nodes live far down the cache hierarchy (the working set is
    /// `max_nodes * k` entries) and the hand-over-hand traversal
    /// otherwise stalls on them level after level.
    fn prefetch_node_full(&self, node: usize, k: usize) {
        let p = self.storage.node_ptr(node);
        let per_line = (64 / core::mem::size_of::<Entry<K, V>>()).max(1);
        let mut i = 0;
        while i < k {
            simd::prefetch_read_l2(p.wrapping_add(i));
            i += per_line;
        }
    }

    /// Move AVAIL node `tar`'s full batch into the (empty) root and mark
    /// `tar` EMPTY. Caller holds the root lock and `tar`'s word, and
    /// charges `tar`'s load.
    ///
    /// The block keeps the new root in shared memory: the heapify
    /// stores it once, just before releasing the root
    /// (see [`Self::delete_heapify`]).
    fn move_node_to_root(&self, c: &mut Crit<'_, K, V, P>, tar: usize) {
        // SAFETY: both locks held; nodes are disjoint (tar >= 2).
        unsafe {
            let src = self.storage.node_ref(tar);
            let dst = self.storage.node_mut(ROOT);
            dst.copy_from_slice(src);
            self.storage.meta_mut().root_len = src.len();
        }
        c.changed(ROOT);
        c.set_state(tar, NodeState::Empty);
        c.set_state(ROOT, NodeState::Avail);
    }

    /// `DELETEMIN_HEAPIFY` (Alg. 3), iteratively. On entry the caller
    /// holds `cur = root`'s lock; `remained` keys still owed to the
    /// caller are extracted from the root before it is released.
    ///
    /// Each level moves data once: one CAS takes both children's lock
    /// words, one load brings both children (and `cur`, unless it is
    /// already on-chip) into shared memory, and the nodes whose locks
    /// are held together leave together: `cur` and the loser `x` in one
    /// store, just before `cur`'s release, and `x` is released in
    /// `cur`'s release round trip. The winner `y` stays on-chip as the
    /// next level's `cur`. `root_on_chip` says the caller left a
    /// changed, not yet stored root in shared memory, already split
    /// with the `buf_len` pBuffer keys (on-chip); otherwise the root
    /// arrives in level 0's load and that split follows it. Either way
    /// the rewritten pBuffer keys are stored with the root.
    // The merge scratch arrives split off the op's arena, so it can't
    // ride in as one `&mut OpScratch` alongside `out` (which is also
    // arena-owned).
    #[allow(clippy::too_many_arguments)]
    fn delete_heapify(
        &self,
        c: &mut Crit<'_, K, V, P>,
        out: &mut Vec<Entry<K, V>>,
        start: usize,
        remained: usize,
        root_on_chip: bool,
        buf_len: usize,
        scratch: &mut Vec<Entry<K, V>>,
        ctx: &mut OpCtx<K>,
    ) -> Result<(), QueueError> {
        let k = self.opts.node_capacity;
        let max = self.opts.max_nodes;
        let mut cur = ROOT;
        // `cur`'s keys are on-chip, changed and not yet stored.
        let mut cur_on_chip = root_on_chip;
        // The pBuffer keys stored with `cur` (at the root only).
        let mut extra = (buf_len > 0).then_some((PBUFFER, buf_len));
        loop {
            c.inject(InjectionPoint::MidDeleteHeapify);
            let l = crate::tree::left(cur);
            let r = crate::tree::right(cur);
            let l_in = l <= max;
            let r_in = r <= max;
            // Software-prefetch the child entries this level is about
            // to read (the min/max probes below, then the SORT_SPLIT
            // streams), so the loads overlap the hand-over-hand lock
            // acquisitions; a no-op off x86_64. See EXPERIMENTS.md E11.
            if l_in {
                self.prefetch_node(l, k);
            }
            if r_in {
                self.prefetch_node(r, k);
            }
            // Both children's words in one CAS; a held child comes
            // through the lock path while the CAS keeps the other.
            if l_in {
                c.lock_pair(l, r_in.then_some(r))?;
            }
            let l_has = l_in && c.state(l) == NodeState::Avail;
            let r_has = r_in && c.state(r) == NodeState::Avail;
            let child_keys = (usize::from(l_has) + usize::from(r_has)) * k;
            c.load(if cur_on_chip { 0 } else { k } + child_keys);
            if !cur_on_chip && extra.is_some() {
                // Level 0 of a collaborating delete: the root the
                // inserter stored just arrived; split it with the
                // pBuffer.
                self.split_root_buffer(c, buf_len, scratch);
                cur_on_chip = true;
            }

            // SAFETY: we hold cur (and child) locks; AVAIL non-root
            // nodes are full and sorted.
            let cur_max = unsafe { self.storage.node_ref(cur)[k - 1].key };
            let min_child = unsafe {
                match (l_has, r_has) {
                    (true, true) => {
                        Some(self.storage.node_ref(l)[0].key.min(self.storage.node_ref(r)[0].key))
                    }
                    (true, false) => Some(self.storage.node_ref(l)[0].key),
                    (false, true) => Some(self.storage.node_ref(r)[0].key),
                    (false, false) => None,
                }
            };

            // Alg. 3 lines 4-8: heap property already satisfied (TARGET
            // and EMPTY children hold no keys). The children are
            // unchanged and leave in one release round trip; `cur` is
            // stored only if it changed.
            if min_child.is_none_or(|m| cur_max <= m) {
                if cur == ROOT {
                    self.extract_root(out, remained);
                }
                if l_in {
                    c.unlock(l);
                }
                if r_in {
                    c.unlock_uncharged(r);
                }
                if cur_on_chip {
                    c.store([(cur, self.node_len(cur))].into_iter().chain(extra));
                }
                self.finish_delete(c, out, start, cur, cur == ROOT, ctx)?;
                return Ok(());
            }

            // Descend. If only one child holds keys, SORT_SPLIT with it
            // directly; otherwise Alg. 3 lines 9-12. Both splits run
            // the crossing-bounded in-place routine
            // (`split::sort_split_full_entries`); fusing the two into one
            // three-stream merge was tried and rejected — the 3-way
            // select defeats branch if-conversion and costs more than
            // the traffic it saves (EXPERIMENTS.md E11).
            let (y, x) = if l_has && r_has {
                let (x, y) = unsafe {
                    let lmax = self.storage.node_ref(l)[k - 1].key;
                    let rmax = self.storage.node_ref(r)[k - 1].key;
                    if lmax > rmax {
                        (l, r)
                    } else {
                        (r, l)
                    }
                };
                c.charge(PrimitiveCost::SortSplit { na: k, nb: k });
                // SAFETY: both child locks held; disjoint nodes.
                unsafe {
                    split::sort_split_full_entries(
                        self.storage.node_mut(y),
                        self.storage.node_mut(x),
                        scratch,
                    );
                }
                c.changed(x);
                (y, Some(x))
            } else {
                let y = if l_has { l } else { r };
                // Release the keyless sibling immediately.
                let other = if l_has { r } else { l };
                if other == r && r_in {
                    c.unlock(r);
                } else if other == l && l_in {
                    c.unlock(l);
                }
                (y, None)
            };

            // The next iteration streams `y`'s children in its sibling
            // SORT_SPLIT; start pulling them into L2 so the fetch
            // overlaps the full merge below.
            let (yl, yr) = (crate::tree::left(y), crate::tree::right(y));
            if yl <= max {
                self.prefetch_node_full(yl, k);
            }
            if yr <= max {
                self.prefetch_node_full(yr, k);
            }

            // SORT_SPLIT(cur, y): cur keeps the k smallest (Alg. 3
            // line 12).
            c.charge(PrimitiveCost::SortSplit { na: k, nb: k });
            // SAFETY: cur and y locks held; disjoint nodes.
            unsafe {
                split::sort_split_full_entries(
                    self.storage.node_mut(cur),
                    self.storage.node_mut(y),
                    scratch,
                );
            }
            c.changed(cur);
            c.changed(y);

            if cur == ROOT {
                self.extract_root(out, remained);
            }
            c.store([(cur, self.node_len(cur))].into_iter().chain(extra).chain(x.map(|x| (x, k))));
            self.finish_delete(c, out, start, cur, cur == ROOT, ctx)?;
            if let Some(x) = x {
                // Released in `cur`'s release round trip.
                c.unlock_uncharged(x);
            }
            cur = y;
            cur_on_chip = true;
            extra = None;
        }
    }

    /// Keys node `node` holds: `root_len` for the root, `k` for a full
    /// batch node. Caller holds `node`'s lock.
    fn node_len(&self, node: usize) -> usize {
        if node == ROOT {
            self.root_len()
        } else {
            self.opts.node_capacity
        }
    }

    /// Release `lock` on the delete path; when it is the root lock this
    /// is the operation's linearization point (the result set is final
    /// by then), so draw the sequence number and update the item count.
    fn finish_delete(
        &self,
        c: &mut Crit<'_, K, V, P>,
        out: &[Entry<K, V>],
        start: usize,
        lock: usize,
        is_root: bool,
        ctx: &mut OpCtx<K>,
    ) -> Result<(), QueueError> {
        if is_root {
            // Last pre-commit poison check: if a peer died while we
            // worked, abort before publishing the result rather than
            // hand out keys from a queue in an unknown state.
            if self.is_poisoned() && ctx.seq.is_none() {
                c.release_all();
                return Err(QueueError::Poisoned);
            }
            let got = &out[start..];
            self.items.fetch_sub(got.len() as i64, Ordering::Relaxed);
            OpStats::add(&self.stats.items_deleted, got.len() as u64);
            self.linearize_delete(ctx, out, start);
            c.publish_root_min();
        }
        c.unlock(lock);
        Ok(())
    }
}

/// Exact accounting of one [`Bgpq::salvage_reset`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SalvageReport {
    /// Keys walked out of node storage into the caller's buffer.
    pub keys_recovered: usize,
    /// Keys the item count promised but the walk could not find:
    /// confirmed or conservatively presumed lost to in-flight
    /// operations. Zero on a quiescent healthy queue.
    pub keys_lost: usize,
    /// The queue's item count at the moment of salvage (clamped at 0),
    /// `keys_recovered + keys_lost` by construction. An upper bound on
    /// the keys that were settled: a worker that crashed *before* its
    /// insert linearized has already bumped the count for keys its
    /// caller still owns (see `try_insert` docs), so `keys_lost` can
    /// over-report loss — never under.
    pub keys_expected: usize,
    /// Nodes skipped in TARGET state: reserved by an in-flight insert
    /// whose keys died on the crashed worker's stack.
    pub nodes_skipped_target: usize,
    /// Nodes skipped in MARKED state: a collaboration was in flight;
    /// the stolen keys died with whichever worker held them.
    pub nodes_skipped_marked: usize,
    /// Whether the queue was poisoned when salvage began (`false`
    /// means a healthy drain-and-reset).
    pub was_poisoned: bool,
}

impl SalvageReport {
    /// The conservation identity every salvage upholds:
    /// `recovered + lost == expected`. (True by construction here;
    /// drills assert it against independently tracked traffic.)
    pub fn conserves(&self) -> bool {
        self.keys_recovered + self.keys_lost == self.keys_expected
    }
}

impl<K: KeyType, V: ValueType, P: Platform> Bgpq<K, V, P> {
    /// Salvage: walk every settled key out of node storage into `out`,
    /// then reset the queue to a fresh empty (un-poisoned) state.
    ///
    /// **Exclusive and quiescent only** — the same contract as
    /// [`Bgpq::check_invariants`], but stronger in practice: every
    /// worker that ever operated on this queue must have returned or
    /// unwound, and none may call in while salvage runs. Lock words
    /// abandoned by crashed workers are released first, through
    /// [`Platform::force_reset_locks`] (a no-op on the simulator, whose
    /// scheduler already handed them off).
    ///
    /// The walk trusts node *states*, which every mutation path keeps
    /// accurate between injection points:
    ///
    /// * root — counted when `AVAIL` (`root_len` live entries). An
    ///   `EMPTY` root mid-refill is skipped; its keys are reported
    ///   lost rather than risk double-counting the refill source node.
    /// * partial buffer — `buf_len` entries, always (it shares the
    ///   root's lock and has no state machine of its own).
    /// * every other node slot, `2..=max_nodes` — counted when `AVAIL`
    ///   (full `k` entries), *regardless of `heap_size`*: a crashed
    ///   delete may have already decremented `heap_size` while its
    ///   refill source still holds keys. `TARGET`/`MARKED` slots are
    ///   skipped and tallied — those keys were in flight on a dead
    ///   worker's stack.
    ///
    /// The reset happens only after the walk completes: a second fault
    /// during the walk (the `SalvageWalk` injection point fires per
    /// visited node) leaves the queue still poisoned and salvageable
    /// again. `out` may then hold a partial walk — callers re-running
    /// salvage must discard it (the entries are still in storage).
    ///
    /// Works on healthy queues too (drain-and-reset), where
    /// `keys_lost == 0` at quiescence.
    pub fn salvage_reset(&self, w: &mut P::Worker, out: &mut Vec<Entry<K, V>>) -> SalvageReport {
        // Locks first: a crashed worker's abandoned locks would wedge
        // any later operation on the reset queue.
        self.platform.force_reset_locks();
        // The walk reads, and the reset rewrites, the entire queue:
        // conflicts with every operation on it.
        self.platform.tag(w, Place::Queue, true);
        let was_poisoned = self.is_poisoned();
        let k = self.opts.node_capacity;
        let expected = self.items.load(Ordering::SeqCst).max(0) as usize;
        let mut recovered = 0usize;
        let mut skipped_target = 0usize;
        let mut skipped_marked = 0usize;

        // ---- walk (no mutation) ----
        // SAFETY: exclusivity/quiescence is the caller's contract; no
        // other thread touches storage or meta.
        unsafe {
            let m = *self.storage.meta_mut();
            self.platform.inject(w, InjectionPoint::SalvageWalk);
            if self.storage.state(ROOT) == NodeState::Avail && m.root_len > 0 {
                out.extend_from_slice(&self.storage.node_ref(ROOT)[..m.root_len.min(k)]);
                recovered += m.root_len.min(k);
            }
            if m.buf_len > 0 {
                out.extend_from_slice(&self.storage.node_ref(PBUFFER)[..m.buf_len.min(k)]);
                recovered += m.buf_len.min(k);
            }
            for node in 2..=self.opts.max_nodes {
                match self.storage.state(node) {
                    NodeState::Avail => {
                        self.platform.inject(w, InjectionPoint::SalvageWalk);
                        out.extend_from_slice(self.storage.node_ref(node));
                        recovered += k;
                    }
                    NodeState::Target => skipped_target += 1,
                    NodeState::Marked => skipped_marked += 1,
                    NodeState::Empty => {}
                }
            }
        }

        // ---- reset to the fresh empty state ----
        // SAFETY: same exclusivity contract.
        unsafe {
            let m = self.storage.meta_mut();
            m.heap_size = 0;
            m.root_len = 0;
            m.buf_len = 0;
        }
        for node in 0..=self.opts.max_nodes {
            self.storage.set_state(node, NodeState::Empty);
        }
        self.items.store(0, Ordering::SeqCst);
        self.root_min_bits.store(u64::MAX, Ordering::SeqCst);
        // Un-poison last: a freshly grabbable queue must already look
        // empty. `seq` is deliberately preserved — linearization
        // ordinals stay monotone across the queue's lifetimes.
        self.poisoned.store(false, Ordering::SeqCst);
        OpStats::bump(&self.stats.salvages);

        SalvageReport {
            keys_recovered: recovered,
            keys_lost: expected.saturating_sub(recovered),
            keys_expected: expected,
            nodes_skipped_target: skipped_target,
            nodes_skipped_marked: skipped_marked,
            was_poisoned,
        }
    }
}

// ----------------------------------------------------------------------
// Quiescent invariant checking (test support)
// ----------------------------------------------------------------------

impl<K: KeyType, V: ValueType, P: Platform> Bgpq<K, V, P> {
    /// Verify the batched-heap invariants. **Quiescent only**: no
    /// concurrent operations may be running. Panics with a description
    /// on violation; returns the total key count on success.
    pub fn check_invariants(&self) -> usize {
        assert!(!self.is_poisoned(), "queue is poisoned; invariants are void");
        // SAFETY: quiescence is the caller's contract; no other thread
        // touches storage.
        unsafe {
            let k = self.opts.node_capacity;
            let m = *self.storage.meta_mut();
            assert!(m.heap_size <= self.opts.max_nodes, "heap_size exceeds max_nodes");
            assert!(m.root_len <= k, "root over capacity");
            assert!(m.buf_len <= k.saturating_sub(1), "buffer over capacity");
            let mut total = 0usize;

            if m.heap_size == 0 {
                assert_eq!(m.root_len, 0, "empty heap with keys in root");
                assert_eq!(m.buf_len, 0, "empty heap with keys in buffer");
                assert_eq!(self.min_hint_bits(), u64::MAX, "empty heap publishing a min hint");
                return 0;
            }
            assert_eq!(self.storage.state(ROOT), NodeState::Avail, "root not AVAIL");
            let root = self.storage.node_ref(ROOT);
            assert!(root[..m.root_len].windows(2).all(|p| p[0] <= p[1]), "root not sorted");
            if m.root_len > 0 {
                assert_eq!(
                    self.min_hint_bits(),
                    root[0].key.to_ordered_bits(),
                    "stale root-min hint at quiescence"
                );
            }
            total += m.root_len;

            let pb = self.storage.node_ref(PBUFFER);
            assert!(pb[..m.buf_len].windows(2).all(|p| p[0] <= p[1]), "buffer not sorted");
            if m.buf_len > 0 && m.root_len > 0 {
                assert!(root[m.root_len - 1].key <= pb[0].key, "buffer min below root max");
            }
            total += m.buf_len;

            for node in 2..=m.heap_size {
                assert_eq!(
                    self.storage.state(node),
                    NodeState::Avail,
                    "node {node} within heap_size not AVAIL"
                );
                let n = self.storage.node_ref(node);
                assert!(n.windows(2).all(|p| p[0] <= p[1]), "node {node} not sorted");
                let parent = crate::tree::parent(node);
                if parent == ROOT {
                    if m.root_len > 0 {
                        assert!(
                            root[m.root_len - 1].key <= n[0].key,
                            "node {node} min below root max"
                        );
                    }
                } else {
                    let p = self.storage.node_ref(parent);
                    assert!(p[k - 1].key <= n[0].key, "node {node} min below parent {parent} max");
                }
                total += k;
            }
            for node in (m.heap_size + 1).max(2)..=self.opts.max_nodes {
                assert_eq!(
                    self.storage.state(node),
                    NodeState::Empty,
                    "node {node} beyond heap_size not EMPTY"
                );
            }
            assert_eq!(total as i64, self.items.load(Ordering::Relaxed), "item count drift");
            total
        }
    }
}
