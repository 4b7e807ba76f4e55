//! The buffered sticky front, in the style of "Engineering
//! MultiQueues" (Williams & Sanders). With
//! [`ShardedOptions::buffer`](crate::ShardedOptions::buffer) set, each
//! worker hashes to a buffer slot holding
//!
//! * an **insertion buffer** — up to `B` staged inserts, flushed to the
//!   home shard as `k`-wide batches when full, on demand
//!   ([`ShardedBgpq::flush_slot`]), or on quiesce;
//! * a **deletion buffer** — restocked by one `k`-wide (or wider, see
//!   [`pq_api::BufferPolicy::refill_width`]) sampled delete-min and then
//!   served locally with no shared-memory traffic at all;
//! * a **sticky shard** — the shard picked by the last fresh `c`-of-`S`
//!   sample serves up to `σ` consecutive refills before the front
//!   re-samples, trading bounded extra rank error for `σ×` fewer hint
//!   scans and sampled probes.
//!
//! Buffered keys stay *owned by the router*: [`ShardedBgpq::len`] counts
//! them, exact-emptiness deletes drain the caller's own stage and then
//! harvest every other reachable slot before reporting `Ok(0)`, and
//! [`ShardedBgpq::drain`] empties every slot. A flush whose home shard
//! was quarantined re-routes through the ordinary redistribution path
//! and the re-routed keys are counted in
//! [`StatsSnapshot::buffer_reroutes`](pq_api::StatsSnapshot::buffer_reroutes)
//! — buffered inserts are never silently dropped by a breaker trip.
//!
//! **Rank-error bound (quiescent, exact hints).** An unbuffered sampled
//! delete skips at most `S − c` shards. Buffered pops add two windows:
//! a pop served from position `j > 1` of a refill batch can additionally
//! be beaten by any shard whose minimum arrived after the refill was
//! sampled, and a sticky refill skips the sample entirely — so a single
//! buffered pop's shard-level rank error is bounded by `S − 1` (every
//! shard except the serving one; the serving shard's remaining keys are
//! all ≥ the buffered batch by construction). `B` and `σ` control how
//! *often* the worst case can occur, not its magnitude: between two
//! fresh samples at most `σ · max(refill_width, k)` pops are served from
//! sticky or buffered state.
//!
//! **Lock discipline.** The slot's owner (the worker hashing to it)
//! takes the slot mutex blocking — the only contenders are harvesters
//! and drains, whose critical sections are pure memory moves — while
//! *foreign* access (emptiness harvests, full drains) uses `try_lock`
//! and never performs a platform or shard call while holding someone
//! else's slot. That discipline is what makes the blocking lock safe
//! under the gpu-sim virtual-time scheduler: an owner never waits on a
//! holder that is itself waiting on virtual time.

use crate::router::{Rank, ShardedBgpq};
use bgpq_runtime::Platform;
use pq_api::{BufferPolicy, Entry, KeyType, OpStats, QueueError, ValueType};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

/// Buffer slots in buffered mode: workers hash to `worker % SLOTS`.
const SLOTS: usize = 64;

/// One worker's staged inserts and deletion buffer.
///
/// `ready` is kept **descending** by key so `pop()` serves the current
/// minimum in O(1); `stage` is arrival-ordered (the flush re-batches it
/// through the router, which sorts per node batch anyway). `tmp` is the
/// long-lived refill scratch — reused so steady-state refills allocate
/// nothing once the vectors reach their working capacity.
#[derive(Debug)]
struct WorkerBuffers<K: KeyType, V: ValueType> {
    /// Staged inserts, arrival order, never more than the policy's
    /// `insert_capacity`.
    stage: Vec<Entry<K, V>>,
    /// Deletion buffer, descending by key (serve by popping the tail).
    ready: Vec<Entry<K, V>>,
    /// Refill scratch.
    tmp: Vec<Entry<K, V>>,
    /// Sticky shard latched by the last fresh sample.
    sticky: usize,
    /// Shard-sourced refills left before the next fresh sample.
    sticky_left: u32,
}

impl<K: KeyType, V: ValueType> Default for WorkerBuffers<K, V> {
    fn default() -> Self {
        Self { stage: Vec::new(), ready: Vec::new(), tmp: Vec::new(), sticky: 0, sticky_left: 0 }
    }
}

impl<K: KeyType, V: ValueType> WorkerBuffers<K, V> {
    /// Keys parked in this slot (staged inserts + deletion buffer).
    fn parked(&self) -> usize {
        self.stage.len() + self.ready.len()
    }

    /// Move `tmp` into `ready`, descending so pops serve ascending.
    /// Sorting rather than reversing: a refill wider than `k` is several
    /// linearized shard batches, whose concatenation need not be
    /// globally sorted under concurrent inserts.
    fn serve_tmp(&mut self) {
        self.tmp.sort_unstable_by_key(|e| std::cmp::Reverse(e.key));
        std::mem::swap(&mut self.ready, &mut self.tmp);
        self.tmp.clear();
    }
}

/// The buffered front's state: policy and slots (its counters go to
/// the router's record).
pub(crate) struct Buffers<K: KeyType, V: ValueType> {
    /// `None` leaves `slots` empty and the buffered entry points
    /// panicking on misuse.
    policy: Option<BufferPolicy>,
    /// Per-worker buffer slots (empty when unbuffered).
    slots: Box<[Mutex<WorkerBuffers<K, V>>]>,
    /// Keys currently parked across all slots ([`ShardedBgpq::len`]
    /// counts them; updated only after a successful buffer mutation, so
    /// a panicking shard op cannot strand the count).
    parked: AtomicU64,
}

impl<K: KeyType, V: ValueType> Buffers<K, V> {
    pub(crate) fn new(policy: Option<BufferPolicy>) -> Self {
        let slots = if policy.is_some() { SLOTS } else { 0 };
        Self {
            policy,
            slots: (0..slots).map(|_| Mutex::new(WorkerBuffers::default())).collect(),
            parked: AtomicU64::new(0),
        }
    }

    /// Lock the caller's *own* slot. Blocking is safe under the lock
    /// discipline (module docs). A poisoned slot (a fault-injected panic
    /// unwound through its owner) is recovered, not propagated — the
    /// buffers inside are always structurally valid.
    fn lock(&self, slot: usize) -> MutexGuard<'_, WorkerBuffers<K, V>> {
        self.slots[slot].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Try-lock a *foreign* slot; `None` when its owner (or another
    /// harvester) holds it — a busy owner is mid-operation, so its keys
    /// do not count against quiescent exactness.
    fn try_lock(&self, slot: usize) -> Option<MutexGuard<'_, WorkerBuffers<K, V>>> {
        match self.slots[slot].try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Empty every slot, appending (when `keep`) each slot's keys to
    /// `out` in ascending key order per slot. Returns the keys removed.
    pub(crate) fn drain(&self, out: &mut Vec<Entry<K, V>>, keep: bool) -> usize {
        let mut total = 0;
        for slot in 0..self.slots.len() {
            let mut b = self.lock(slot);
            let n = b.parked();
            if n == 0 {
                continue;
            }
            if keep {
                let start = out.len();
                out.extend(b.ready.drain(..).rev());
                out.append(&mut b.stage);
                out[start..].sort_unstable_by_key(|e| e.key);
            } else {
                b.ready.clear();
                b.stage.clear();
            }
            total += n;
        }
        if total > 0 {
            self.parked.fetch_sub(total as u64, Ordering::Relaxed);
        }
        total
    }
}

impl<K: KeyType, V: ValueType, P: Platform> ShardedBgpq<K, V, P> {
    /// Keys currently parked in worker buffers (0 when unbuffered).
    pub fn buffered_len(&self) -> usize {
        self.buffers.parked.load(Ordering::Relaxed) as usize
    }

    /// Whether the buffered operating mode is on.
    pub fn buffered(&self) -> bool {
        self.buffers.policy.is_some()
    }

    /// The router's record: the buffered front's traffic (its
    /// `inserts`/`delete_mins` count buffered calls) beside rank error,
    /// steals, sweeps and breaker events. Shard-level counters stay per
    /// shard, see [`ShardedBgpq::merged_stats`].
    pub fn front_stats(&self) -> &OpStats {
        &self.stats
    }

    /// Buffered insert: stage `items` in the worker's slot, flushing to
    /// the shards first when staging would overflow the policy's
    /// capacity `B`. Batches of `B` or more skip staging entirely (the
    /// buffer exists to *assemble* batches; one that arrives pre-formed
    /// routes directly, in `k`-wide chunks, after a flush keeps its
    /// keys ordered around it).
    ///
    /// `Err` is clean: it is only returned when *none* of the new items
    /// were accepted — the error came from flushing *previously staged*
    /// keys, which remain staged. Once the new items start landing the
    /// call commits: a chunk failure mid-way parks the un-inserted tail
    /// in the stage (over capacity if need be) and still returns `Ok`,
    /// so a retry never duplicates keys; the shards' backpressure
    /// surfaces on the next flush instead.
    pub fn buffered_try_insert(
        &self,
        w: &mut P::Worker,
        worker: usize,
        items: &[Entry<K, V>],
    ) -> Result<(), QueueError> {
        let policy = self.buffers.policy.expect("buffered mode not enabled");
        if items.is_empty() {
            return Ok(());
        }
        let slot = worker % SLOTS;
        let cap = policy.insert_capacity;
        let wide = items.len() >= cap;
        let mut b = self.buffers.lock(slot);
        if wide || b.stage.len() + items.len() > cap {
            self.flush_locked(w, slot, &mut b)?;
        }
        let done =
            if wide { self.insert_chunks(items, |c| self.try_insert(w, slot, c)).0 } else { 0 };
        b.stage.extend_from_slice(&items[done..]);
        self.buffers.parked.fetch_add((items.len() - done) as u64, Ordering::Relaxed);
        OpStats::bump(&self.stats.inserts);
        OpStats::add(&self.stats.items_inserted, items.len() as u64);
        Ok(())
    }

    /// Buffered delete-min: serve up to `count` entries from the
    /// worker's deletion buffer, refilling it with one wide sampled
    /// delete when empty. `Ok(0)` keeps the unbuffered exactness
    /// contract *extended to buffers*: it is returned only after every
    /// live shard swept empty, the caller's own staged inserts were
    /// served, and every reachable foreign slot was harvested — at
    /// quiescence, `Ok(0)` really means the queue holds nothing.
    ///
    /// Entries are ascending per call (they come from one sorted
    /// buffer).
    pub fn buffered_try_delete_min(
        &self,
        w: &mut P::Worker,
        worker: usize,
        rng: &mut u64,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
    ) -> Result<usize, QueueError> {
        let policy = self.buffers.policy.expect("buffered mode not enabled");
        assert!(count >= 1, "delete batch must request at least one entry");
        let slot = worker % SLOTS;
        let mut b = self.buffers.lock(slot);
        if b.ready.is_empty() {
            self.refill_locked(w, slot, rng, &mut b, &policy)?;
        }
        let n = count.min(b.ready.len());
        let at = b.ready.len() - n;
        out.extend(b.ready.drain(at..).rev());
        if n > 0 {
            self.buffers.parked.fetch_sub(n as u64, Ordering::Relaxed);
        }
        OpStats::bump(&self.stats.delete_mins);
        OpStats::add(&self.stats.items_deleted, n as u64);
        Ok(n)
    }

    /// Restock `b.ready` (which must be empty): sticky shard first,
    /// then a fresh sample through the full routed machinery, then —
    /// only when every live shard swept empty — the caller's own stage
    /// and finally a harvest of every reachable foreign slot.
    fn refill_locked(
        &self,
        w: &mut P::Worker,
        slot: usize,
        rng: &mut u64,
        b: &mut WorkerBuffers<K, V>,
        policy: &BufferPolicy,
    ) -> Result<usize, QueueError> {
        debug_assert!(b.ready.is_empty());
        self.tick(w);
        let width =
            if policy.refill_width == 0 { self.node_capacity() } else { policy.refill_width };
        b.tmp.clear();
        let routed = self.with_scratch(w, |w, rs| {
            // Sticky reuse: skip sampling while the latched shard has
            // tenure left and is still live. Rank error is still
            // recorded honestly against a fresh hint scan.
            if b.sticky_left > 0 {
                b.sticky_left -= 1;
                if !self.is_quarantined(b.sticky) {
                    OpStats::bump(&self.stats.sticky_reuses);
                    let got = self.delete_from(w, b.sticky, &mut b.tmp, width, rs, Rank::Fresh);
                    if let Some(got @ 1..) = got {
                        return Ok((got, Some(b.sticky)));
                    }
                }
                // Dry, failed or quarantined: re-sample.
                b.sticky_left = 0;
            }
            OpStats::bump(&self.stats.sticky_resamples);
            let routed = self.try_delete_min_routed(w, rng, &mut b.tmp, width, rs);
            if let Ok((_, Some(i))) = routed {
                b.sticky = i;
                b.sticky_left = policy.stickiness - 1;
            }
            routed
        });
        if let Ok((got, Some(_))) = routed {
            OpStats::bump(&self.stats.buffer_refills);
            OpStats::add(&self.stats.buffer_refill_items, got as u64);
            self.stats.record_batch_occupancy(got, width);
            self.buffers.parked.fetch_add(got as u64, Ordering::Relaxed);
            b.serve_tmp();
            return Ok(got);
        }
        // Every live shard swept empty, or none is left: parked keys
        // are still reachable and win over a Poisoned verdict.
        match self.serve_parked(slot, b) {
            0 => routed.map(|_| 0),
            n => Ok(n),
        }
    }

    /// Exhausted-shards fallback: serve the caller's own staged inserts
    /// and harvest every reachable foreign slot straight into `b.ready`
    /// (the keys are already parked, so the global count is unchanged).
    /// Returns how many keys became servable.
    fn serve_parked(&self, slot: usize, b: &mut WorkerBuffers<K, V>) -> usize {
        b.tmp.append(&mut b.stage);
        for j in (0..self.buffers.slots.len()).filter(|&j| j != slot) {
            // Foreign slot: try_lock only, pure memory moves inside.
            if let Some(mut fb) = self.buffers.try_lock(j) {
                b.tmp.append(&mut fb.ready);
                b.tmp.append(&mut fb.stage);
            }
        }
        b.serve_tmp();
        b.ready.len()
    }

    /// Insert the leading keys of `keys` through the router in `k`-wide
    /// chunks and remove the ones that landed. Returns how many landed,
    /// and the refusal that stopped the rest.
    fn push_down(
        &self,
        w: &mut P::Worker,
        slot: usize,
        keys: &mut Vec<Entry<K, V>>,
    ) -> (usize, Result<(), QueueError>) {
        let (done, r) = self.insert_chunks(keys, |c| self.try_insert(w, slot, c));
        keys.drain(..done);
        self.buffers.parked.fetch_sub(done as u64, Ordering::Relaxed);
        (done, r)
    }

    /// Flush the staged inserts of `b` to the shards in `k`-wide
    /// chunks. On `Err` the *unflushed* keys remain staged (the flushed
    /// prefix is committed) — a failed flush never loses keys. Keys
    /// whose home shard is quarantined re-route through
    /// [`Self::try_insert`]'s redistribution and are counted in
    /// [`StatsSnapshot::buffer_reroutes`](pq_api::StatsSnapshot::buffer_reroutes).
    fn flush_locked(
        &self,
        w: &mut P::Worker,
        slot: usize,
        b: &mut WorkerBuffers<K, V>,
    ) -> Result<usize, QueueError> {
        let total = b.stage.len();
        if total == 0 {
            return Ok(0);
        }
        if self.is_quarantined(slot % self.num_shards()) {
            OpStats::add(&self.stats.buffer_reroutes, total as u64);
        }
        let (done, r) = self.push_down(w, slot, &mut b.stage);
        if done > 0 {
            let cap = self.buffers.policy.map_or(self.node_capacity(), |p| p.insert_capacity);
            OpStats::bump(&self.stats.buffer_flushes);
            OpStats::add(&self.stats.buffer_flush_items, done as u64);
            self.stats.record_batch_occupancy(done.min(cap), cap);
        }
        r.map(|()| done)
    }

    /// Flush one worker's staged inserts to the shards (deletion-buffer
    /// keys stay put — they were already removed from the shards). No-op
    /// when unbuffered.
    pub fn flush_slot(&self, w: &mut P::Worker, worker: usize) -> Result<usize, QueueError> {
        if !self.buffered() {
            return Ok(0);
        }
        let slot = worker % SLOTS;
        self.flush_locked(w, slot, &mut self.buffers.lock(slot))
    }

    /// Fully quiesce one worker's slot: flush staged inserts *and*
    /// return deletion-buffer keys to the shards, leaving the slot
    /// empty. On `Err` unreturned keys remain parked (never lost).
    /// No-op when unbuffered. Returns keys moved back to the shards.
    pub fn quiesce_slot(&self, w: &mut P::Worker, worker: usize) -> Result<usize, QueueError> {
        if !self.buffered() {
            return Ok(0);
        }
        let slot = worker % SLOTS;
        let mut b = self.buffers.lock(slot);
        let flushed = self.flush_locked(w, slot, &mut b)?;
        // Reinsert ascending so the home shard sees sorted batches; the
        // remainder of a refused reinsert stays parked, descending.
        b.ready.reverse();
        let (returned, r) = self.push_down(w, slot, &mut b.ready);
        b.ready.reverse();
        r.map(|()| flushed + returned)
    }

    /// Quiesce every slot (drains and benches; quiescent callers).
    pub fn quiesce_all(&self, w: &mut P::Worker) -> Result<usize, QueueError> {
        let mut moved = 0;
        for slot in 0..self.buffers.slots.len() {
            moved += self.quiesce_slot(w, slot)?;
        }
        Ok(moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parked_counts_both_buffers() {
        let mut b: WorkerBuffers<u32, u32> = WorkerBuffers::default();
        assert_eq!(b.parked(), 0);
        b.stage.push(Entry::new(1, 1));
        b.ready.push(Entry::new(2, 2));
        b.ready.push(Entry::new(0, 0));
        assert_eq!(b.parked(), 3);
    }
}
