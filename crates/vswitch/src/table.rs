//! The connection-tracking flow table.
//!
//! The paper adds a hash table to OVS keyed by the flow 5-tuple, using RCU
//! for read-mostly lookups and an individual spinlock per flow entry so
//! distinct flows update concurrently (§4). The Rust equivalent here is a
//! *sharded* table — each shard a `parking_lot::RwLock<BTreeMap>` taken
//! for read on lookup — holding `Arc<FlowSlot>` values (the entry behind
//! its own lock, plus a lock-free feedback-pending flag). The per-packet
//! fast path is [`FlowTable::with_entry`]: shard read-lock → per-entry
//! lock, no `Arc` refcount traffic. Inserts and removals (SYN / FIN +
//! garbage collection) take the shard writer lock, exactly the "many more
//! lookups than insertions" profile the paper describes.
//!
//! Shard *selection* hashes the key with [`FlowKey::hash64`] (FNV-1a over
//! the 12 key bytes — stable run-to-run and cheap enough for the two
//! lookups every packet makes), but within a shard the map
//! is ordered: `for_each`/`gc` visit entries in `FlowKey` order, which
//! keeps every whole-table traversal deterministic.
//!
//! ## Capacity & admission
//!
//! A production vSwitch carries tens of thousands of connections and the
//! paper sizes the design around that (§4: two ~320 B entries per
//! connection), so the table can be *bounded*: [`FlowTable::bounded`]
//! sets a hard `max_flows` cap enforced by a global atomic reservation
//! counter (the count is reserved *before* the shard insert, so `len()`
//! can never exceed the cap, not even transiently). What happens at the
//! cap is the [`AdmissionPolicy`]: turn the new flow away (it is then
//! forwarded untouched — the §3.3 fail-safe) or deterministically evict
//! the entry idle the longest, smallest key breaking ties. Every create
//! path reports an [`Admission`] outcome so the datapath can account
//! evictions and drive its degradation ladder.

use std::collections::btree_map::Entry as MapEntry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, MutexGuard};

use acdc_packet::FlowKey;
use acdc_stats::time::Nanos;
use acdc_telemetry::{EventKind, Telemetry};
use parking_lot::{Mutex, RwLock};

use crate::entry::FlowEntry;

/// Number of shards (power of two). Sized so that even the 10k-flow CPU
/// benchmarks keep shards a handful of entries deep: the per-packet cost
/// is then one FNV hash, one uncontended read lock, and a one-or-two
/// comparison tree descent, instead of a deep BTreeMap walk.
const SHARDS: usize = 1024;

/// Bound on evict→reserve retries when racing other inserters; the
/// deterministic single-threaded simulation always succeeds on the first
/// attempt.
const MAX_EVICT_ATTEMPTS: usize = 8;

/// What a bounded table does when a new flow arrives at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Refuse the new flow; the caller forwards it untracked (the §3.3
    /// fail-safe: the guest's own congestion control still runs).
    RejectNew,
    /// Evict the entry with the oldest `last_activity` (smallest key on
    /// ties) to make room. Deterministic: same state ⇒ same victim.
    EvictOldestIdle,
}

/// Outcome of a create-capable table operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The key was already tracked; no capacity was consumed.
    Existing,
    /// A fresh entry was inserted within capacity.
    Created,
    /// A fresh entry was inserted after evicting this many idle entries.
    CreatedAfterEviction(usize),
    /// The table is full and the policy refused the flow.
    Rejected,
}

impl Admission {
    /// Did this call insert a fresh entry?
    pub fn created(self) -> bool {
        matches!(
            self,
            Admission::Created | Admission::CreatedAfterEviction(_)
        )
    }

    /// Was the flow turned away at the capacity gate?
    pub fn rejected(self) -> bool {
        matches!(self, Admission::Rejected)
    }
}

/// A table slot: the per-flow entry behind its lock, plus the one flag
/// the egress fast path reads without taking that lock.
pub struct FlowSlot {
    /// Mirrors `entry.rx_total > 0` — receiver-module bytes awaiting PACK
    /// feedback. The egress ACK path probes this with a relaxed load and
    /// skips the reverse-entry lock entirely in the common unidirectional
    /// case; it is written back under the entry lock, so a stale `true`
    /// costs one harmless probe and a stale `false` only defers feedback
    /// to the next ACK (which is the PACK contract anyway).
    pub rx_pending: AtomicBool,
    /// The flow entry proper.
    pub entry: Mutex<FlowEntry>,
}

impl FlowSlot {
    fn new(entry: FlowEntry) -> FlowSlot {
        FlowSlot {
            rx_pending: AtomicBool::new(false),
            entry: Mutex::new(entry),
        }
    }

    /// Lock the flow entry.
    pub fn lock(&self) -> MutexGuard<'_, FlowEntry> {
        self.entry.lock()
    }

    /// Relaxed probe of the feedback-pending flag.
    pub fn rx_pending(&self) -> bool {
        self.rx_pending.load(Ordering::Relaxed)
    }

    /// Set the feedback-pending flag (call with the entry lock held).
    pub fn set_rx_pending(&self, pending: bool) {
        self.rx_pending.store(pending, Ordering::Relaxed);
    }
}

/// A sharded flow table: `FlowKey → Arc<FlowSlot>`.
pub struct FlowTable {
    shards: Vec<RwLock<BTreeMap<FlowKey, Arc<FlowSlot>>>>,
    /// Tracked-entry count, maintained by reservation: incremented before
    /// a shard insert, decremented on remove/gc/clear. Upper-bounds the
    /// sum of shard lengths at all times, so a capacity check against it
    /// can never let the table overshoot `max_flows`.
    count: AtomicUsize,
    max_flows: Option<usize>,
    admission: AdmissionPolicy,
    /// GC bookkeeping epoch: idleness is measured from
    /// `max(last_activity, epoch)`, so stamping the epoch at a datapath
    /// reset or checkpoint restore guarantees entries carrying
    /// `last_activity` values from before that event can never be
    /// spuriously collected by the first sweep afterwards.
    epoch: AtomicU64,
    /// Event sink for per-key lifecycle events the table itself observes
    /// (today: idle/closed garbage collection). `None` until the owning
    /// datapath attaches its hub.
    telemetry: Option<Arc<Telemetry>>,
}

impl Default for FlowTable {
    fn default() -> Self {
        FlowTable::new()
    }
}

impl FlowTable {
    /// An empty, unbounded table.
    pub fn new() -> FlowTable {
        FlowTable {
            shards: (0..SHARDS).map(|_| RwLock::new(BTreeMap::new())).collect(),
            count: AtomicUsize::new(0),
            max_flows: None,
            admission: AdmissionPolicy::EvictOldestIdle,
            epoch: AtomicU64::new(0),
            telemetry: None,
        }
    }

    /// An empty table holding at most `max_flows` entries, applying
    /// `admission` when a new flow arrives at capacity.
    pub fn bounded(max_flows: usize, admission: AdmissionPolicy) -> FlowTable {
        FlowTable {
            max_flows: Some(max_flows),
            admission,
            ..FlowTable::new()
        }
    }

    /// The configured capacity (`None` = unbounded).
    pub fn max_flows(&self) -> Option<usize> {
        self.max_flows
    }

    /// The current GC bookkeeping epoch (0 until first stamped).
    pub fn epoch(&self) -> Nanos {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Stamp the GC epoch: idleness in subsequent [`FlowTable::gc`]
    /// sweeps is measured from no earlier than `at`. Called on datapath
    /// reset and checkpoint restore; stamps never move backwards.
    pub fn set_epoch(&self, at: Nanos) {
        self.epoch.fetch_max(at, Ordering::Relaxed);
    }

    /// Attach the telemetry hub that receives the table's own lifecycle
    /// events (gc evictions carry the collected flow's key).
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// The shard index `key` maps to: the low bits of [`FlowKey::hash64`].
    /// Worker steering (`acdc-workers`) masks the *same* hash, so for a
    /// power-of-two worker count every worker touches a disjoint slice of
    /// shards — its working set is effectively core-local.
    pub fn shard_of(key: &FlowKey) -> usize {
        (key.hash64() as usize) & (SHARDS - 1)
    }

    fn shard(&self, key: &FlowKey) -> &RwLock<BTreeMap<FlowKey, Arc<FlowSlot>>> {
        &self.shards[Self::shard_of(key)]
    }

    /// Look up an entry (read path: shard read lock only). Clones the
    /// `Arc` — fine for cold paths; per-packet code uses
    /// [`FlowTable::with_entry`] to skip the two refcount ops.
    pub fn get(&self, key: &FlowKey) -> Option<Arc<FlowSlot>> {
        self.shard(key).read().get(key).cloned()
    }

    /// Run `f` on the slot for `key`, under the shard read lock, without
    /// touching the `Arc` refcount. `f` must not call back into the table
    /// (the shard lock is held).
    pub fn with_entry<R>(&self, key: &FlowKey, f: impl FnOnce(&FlowSlot) -> R) -> Option<R> {
        self.shard(key).read().get(key).map(|slot| f(slot))
    }

    /// Reserve one slot in `count`, respecting the cap.
    fn try_reserve(&self) -> bool {
        match self.max_flows {
            None => {
                self.count.fetch_add(1, Ordering::Relaxed);
                true
            }
            Some(cap) => self
                .count
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                    (c < cap).then_some(c + 1)
                })
                .is_ok(),
        }
    }

    fn release(&self) {
        self.count.fetch_sub(1, Ordering::Relaxed);
    }

    /// Evict the entry idle the longest (smallest key on ties), never the
    /// key about to be inserted. Returns `false` when nothing is
    /// evictable.
    fn evict_one(&self, avoid: &FlowKey) -> bool {
        let mut victim: Option<(Nanos, FlowKey)> = None;
        for shard in &self.shards {
            let shard = shard.read();
            for (k, slot) in shard.iter() {
                if k == avoid {
                    continue;
                }
                let cand = (slot.entry.lock().last_activity, *k);
                if victim.is_none_or(|v| cand < v) {
                    victim = Some(cand);
                }
            }
        }
        match victim {
            Some((_, k)) => self.remove(&k),
            None => false,
        }
    }

    /// Reserve capacity for a new entry per the admission policy.
    /// Returns `(reserved, entries evicted to make room)`.
    fn admit(&self, key: &FlowKey) -> (bool, usize) {
        if self.try_reserve() {
            return (true, 0);
        }
        match self.admission {
            AdmissionPolicy::RejectNew => (false, 0),
            AdmissionPolicy::EvictOldestIdle => {
                let mut evicted = 0;
                for _ in 0..MAX_EVICT_ATTEMPTS {
                    if !self.evict_one(key) {
                        return (false, evicted);
                    }
                    evicted += 1;
                    if self.try_reserve() {
                        return (true, evicted);
                    }
                }
                (false, evicted)
            }
        }
    }

    /// [`FlowTable::with_entry`], creating the slot with `init` when
    /// absent — subject to the capacity/admission gate. Same rule: `f`
    /// must not call back into the table. Returns `None` (with
    /// [`Admission::Rejected`]) when the table is full and the policy
    /// refused the flow; `f` is not called in that case.
    pub fn with_entry_or_create<R>(
        &self,
        key: FlowKey,
        init: impl FnOnce() -> FlowEntry,
        f: impl FnOnce(&Arc<FlowSlot>) -> R,
    ) -> (Option<R>, Admission) {
        {
            let shard = self.shard(&key).read();
            if let Some(slot) = shard.get(&key) {
                return (Some(f(slot)), Admission::Existing);
            }
        }
        // Admission (and any eviction it entails) happens before the
        // target shard's write lock is taken: the victim may live in the
        // same shard, and parking_lot locks are not re-entrant.
        let (reserved, evicted) = self.admit(&key);
        if !reserved {
            return (None, Admission::Rejected);
        }
        let mut shard = self.shard(&key).write();
        match shard.entry(key) {
            MapEntry::Occupied(o) => {
                // Lost a create race: hand the reservation back.
                self.release();
                (Some(f(o.get())), Admission::Existing)
            }
            MapEntry::Vacant(v) => {
                let slot = v.insert(Arc::new(FlowSlot::new(init())));
                let adm = if evicted > 0 {
                    Admission::CreatedAfterEviction(evicted)
                } else {
                    Admission::Created
                };
                (Some(f(slot)), adm)
            }
        }
    }

    /// Look up or create an entry with `init`, subject to the
    /// capacity/admission gate, and clone its `Arc` out — the cold-path
    /// form of [`FlowTable::with_entry_or_create`]. `None` with
    /// [`Admission::Rejected`] when the table is full and the policy
    /// refused the flow.
    pub fn get_or_create(
        &self,
        key: FlowKey,
        init: impl FnOnce() -> FlowEntry,
    ) -> (Option<Arc<FlowSlot>>, Admission) {
        self.with_entry_or_create(key, init, Arc::clone)
    }

    /// Remove an entry (FIN teardown).
    pub fn remove(&self, key: &FlowKey) -> bool {
        let removed = self.shard(key).write().remove(key).is_some();
        if removed {
            self.release();
        }
        removed
    }

    /// Number of tracked flows (O(1): the reservation counter).
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (vSwitch restart). Returns the number removed.
    pub fn clear(&self) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let mut shard = shard.write();
            removed += shard.len();
            shard.clear();
        }
        self.count.fetch_sub(removed, Ordering::Relaxed);
        removed
    }

    /// Coarse-grained garbage collection (paired with FIN handling in the
    /// paper): drop entries idle for longer than `idle_timeout`, plus any
    /// entry already marked closed. Idleness is measured from the later
    /// of the entry's `last_activity` and the table [`FlowTable::epoch`],
    /// so a reset/restore epoch stamp shields entries carrying pre-event
    /// activity times from one spurious collection. Returns the number
    /// collected.
    pub fn gc(&self, now: Nanos, idle_timeout: Nanos) -> usize {
        // Evicted keys are collected during the sweep and their events
        // published only after every shard/entry lock is released (W002:
        // no event-bus entry while table locks are held). Shard order is
        // the iteration order, so the event sequence is unchanged.
        let epoch = self.epoch();
        let mut evicted: Vec<FlowKey> = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.write();
            shard.retain(|key, v| {
                let e = v.entry.lock();
                let dead =
                    e.closing || now.saturating_sub(e.last_activity.max(epoch)) > idle_timeout;
                if dead {
                    evicted.push(*key);
                }
                !dead
            });
        }
        self.count.fetch_sub(evicted.len(), Ordering::Relaxed);
        debug_assert!(
            self.count.load(Ordering::Relaxed)
                == self.shards.iter().map(|s| s.read().len()).sum::<usize>(),
            "flow-table count drifted from shard contents after gc"
        );
        if let Some(t) = &self.telemetry {
            for key in &evicted {
                t.record(now, *key, EventKind::FlowEvicted { reason: "gc" });
            }
        }
        evicted.len()
    }

    /// Visit every entry (diagnostics, inactivity scans).
    pub fn for_each(&self, mut f: impl FnMut(&FlowKey, &mut FlowEntry)) {
        for shard in &self.shards {
            let shard = shard.read();
            for (k, v) in shard.iter() {
                f(k, &mut v.entry.lock());
            }
        }
    }

    /// Visit every *slot* (entry plus the lock-free `rx_pending` flag) —
    /// the checkpoint capture walk, which needs slot state `for_each`
    /// hides. Same rule as [`FlowTable::with_entry`]: `f` must not call
    /// back into the table (the shard read lock is held).
    pub fn for_each_slot(&self, mut f: impl FnMut(&FlowKey, &FlowSlot)) {
        for shard in &self.shards {
            let shard = shard.read();
            for (k, v) in shard.iter() {
                f(k, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdc_cc::{CcConfig, CcKind};

    fn key(p: u16) -> FlowKey {
        FlowKey {
            src_ip: [10, 0, 0, 1],
            dst_ip: [10, 0, 0, 2],
            src_port: p,
            dst_port: 80,
        }
    }

    fn entry(now: Nanos) -> FlowEntry {
        FlowEntry::new(CcKind::Dctcp, CcConfig::vswitch(1448), now)
    }

    fn create(t: &FlowTable, p: u16, now: Nanos) -> (Arc<FlowSlot>, Admission) {
        let (slot, adm) = t.get_or_create(key(p), || entry(now));
        (slot.expect("admitted"), adm)
    }

    #[test]
    fn create_lookup_remove() {
        let t = FlowTable::new();
        assert!(t.get(&key(1)).is_none());
        let (e, adm) = create(&t, 1, 0);
        assert_eq!(adm, Admission::Created);
        e.lock().last_activity = 42;
        let e2 = t.get(&key(1)).unwrap();
        assert_eq!(e2.lock().last_activity, 42);
        assert_eq!(t.len(), 1);
        assert!(t.remove(&key(1)));
        assert!(t.is_empty());
        assert!(!t.remove(&key(1)));
    }

    #[test]
    fn get_or_create_is_idempotent() {
        let t = FlowTable::new();
        let (a, _) = create(&t, 7, 0);
        let (b, adm) = create(&t, 7, 99);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(adm, Admission::Existing);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn many_flows_distribute_across_shards() {
        let t = FlowTable::new();
        for p in 0..1000 {
            create(&t, p, 0);
        }
        assert_eq!(t.len(), 1000);
        let nonempty = t.shards.iter().filter(|s| !s.read().is_empty()).count();
        assert!(nonempty > SHARDS / 2, "poor shard distribution: {nonempty}");
    }

    #[test]
    fn gc_collects_idle_and_closed() {
        let t = FlowTable::new();
        create(&t, 1, 0); // idle since t=0
        let (fresh, _) = create(&t, 2, 0);
        fresh.lock().last_activity = 1_000_000_000;
        let (closed, _) = create(&t, 3, 0);
        closed.lock().last_activity = 1_000_000_000;
        closed.lock().closing = true;
        let n = t.gc(1_000_000_001, 500_000_000);
        assert_eq!(n, 2);
        assert_eq!(t.len(), 1);
        assert!(t.get(&key(1)).is_none());
        assert!(t.get(&key(2)).is_some());
        assert!(t.get(&key(3)).is_none());
    }

    #[test]
    fn gc_epoch_shields_pre_epoch_idle_times() {
        let t = FlowTable::new();
        create(&t, 1, 0); // last_activity = 0, ancient
        assert_eq!(t.epoch(), 0);
        // Without an epoch stamp this entry would be collected instantly.
        t.set_epoch(2_000_000_000);
        assert_eq!(t.gc(2_000_000_001, 500_000_000), 0);
        assert!(t.get(&key(1)).is_some(), "epoch shields pre-epoch idleness");
        // Once genuinely idle *past* the epoch, collection proceeds.
        assert_eq!(t.gc(2_600_000_001, 500_000_000), 1);
        assert!(t.get(&key(1)).is_none());
        // Epoch stamps never move backwards.
        t.set_epoch(1_000_000_000);
        assert_eq!(t.epoch(), 2_000_000_000);
    }

    #[test]
    fn bounded_reject_new_refuses_at_capacity() {
        let t = FlowTable::bounded(2, AdmissionPolicy::RejectNew);
        assert_eq!(create(&t, 1, 0).1, Admission::Created);
        assert_eq!(create(&t, 2, 0).1, Admission::Created);
        let (slot, adm) = t.get_or_create(key(3), || entry(0));
        assert!(slot.is_none());
        assert_eq!(adm, Admission::Rejected);
        assert_eq!(t.len(), 2);
        // Existing keys still resolve at capacity.
        assert_eq!(create(&t, 1, 0).1, Admission::Existing);
        // Freeing a slot re-opens admission.
        assert!(t.remove(&key(1)));
        assert_eq!(create(&t, 3, 0).1, Admission::Created);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn bounded_evict_oldest_idle_is_deterministic() {
        let t = FlowTable::bounded(2, AdmissionPolicy::EvictOldestIdle);
        let (a, _) = create(&t, 1, 0);
        a.lock().last_activity = 100;
        let (b, _) = create(&t, 2, 0);
        b.lock().last_activity = 50; // oldest → the victim
        let (_, adm) = create(&t, 3, 0);
        assert_eq!(adm, Admission::CreatedAfterEviction(1));
        assert_eq!(t.len(), 2);
        assert!(t.get(&key(2)).is_none(), "oldest-idle entry evicted");
        assert!(t.get(&key(1)).is_some());
        assert!(t.get(&key(3)).is_some());
    }

    #[test]
    fn eviction_ties_break_on_smallest_key() {
        let t = FlowTable::bounded(2, AdmissionPolicy::EvictOldestIdle);
        create(&t, 9, 0);
        create(&t, 4, 0); // same last_activity; smaller port loses
        create(&t, 7, 0);
        assert!(t.get(&key(4)).is_none(), "smallest key evicted on tie");
        assert!(t.get(&key(9)).is_some());
        assert!(t.get(&key(7)).is_some());
    }

    #[test]
    fn with_entry_or_create_respects_capacity() {
        let t = FlowTable::bounded(1, AdmissionPolicy::RejectNew);
        let (r, adm) = t.with_entry_or_create(key(1), || entry(0), |_| 1u32);
        assert_eq!((r, adm), (Some(1), Admission::Created));
        let (r, adm) = t.with_entry_or_create(key(2), || entry(0), |_| 2u32);
        assert_eq!((r, adm), (None, Admission::Rejected));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn clear_empties_and_reopens_admission() {
        let t = FlowTable::bounded(2, AdmissionPolicy::RejectNew);
        create(&t, 1, 0);
        create(&t, 2, 0);
        assert_eq!(t.clear(), 2);
        assert!(t.is_empty());
        assert_eq!(create(&t, 3, 0).1, Admission::Created);
    }

    #[test]
    fn shard_of_matches_internal_selection() {
        let t = FlowTable::new();
        for p in 0..200 {
            create(&t, p, 0);
        }
        for p in 0..200 {
            let k = key(p);
            let shard = t.shards[FlowTable::shard_of(&k)].read();
            assert!(shard.contains_key(&k));
        }
        assert!(SHARDS.is_power_of_two());
    }

    #[test]
    fn concurrent_access_from_threads() {
        let t = Arc::new(FlowTable::new());
        let mut handles = Vec::new();
        for tid in 0..4u16 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..250u16 {
                    let k = key(tid * 250 + i);
                    let (e, _) = t.get_or_create(k, || entry(0));
                    e.unwrap().lock().last_activity = u64::from(i);
                    assert!(t.get(&k).is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 1000);
    }
}
