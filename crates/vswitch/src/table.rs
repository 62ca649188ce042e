//! The connection-tracking flow table.
//!
//! The paper adds a hash table to OVS keyed by the flow 5-tuple, with
//! "two flow entries for each connection", RCU for read-mostly lookups
//! and a spinlock per entry so distinct flows update concurrently (§4).
//! Here a connection's two entries are one *record*. The table is keyed
//! by the connection ([`FlowKey::canonical`]: the smaller of a key and
//! its reverse, the key worker steering hashes), and a record holds both
//! directions' [`FlowEntry`]s as optional halves in one allocation. A
//! data packet updates its own direction and then the reverse one (the
//! feedback an egress ACK piggybacks, the ACK an ingress segment
//! carries), and finds both with one hash, one lock and one probe:
//! `FlowTable::with_connection` and `with_connection_or_create` run `f`
//! on `key`'s half, then `g` on the reverse half. The two run one after
//! the other, so a key that is its own reverse (source = destination,
//! which a tenant can send) hands its one entry to each in turn, never
//! two aliasing handles.
//! Everything else still speaks directions: a key names one half, `len()`
//! and the `max_flows` cap count halves, eviction removes one half, and a
//! record is freed with its last half.
//!
//! The table is one open-addressed index behind one `parking_lot::Mutex`,
//! which guards the index, the records in it, the entry count and the gc
//! epoch. The per-entry lock bought the paper concurrency between two
//! writers of one connection; nothing here writes a connection from two
//! places at once, so a second lock would guard nothing the table lock
//! does not. Every access is closures under that lock, handed
//! `&mut FlowEntry` ([`FlowTable::with_entry`],
//! [`FlowTable::with_entry_or_create`] and [`FlowTable::for_each`] visit
//! one half at a time); no reference to an entry outlives its call.
//!
//! The index is an [`acdc_packet::FlowIndex`] of records by connection
//! key: linear probing from a home bucket keyed by a secret drawn once per
//! process, so a sender choosing its ports cannot choose a probe cluster.
//! A bucket holds the connection key beside a `Box<Record>`, so a probe
//! compares keys without touching records and a resize moves pointers.
//! An empty table allocates nothing; `gc` halves an array left less than
//! an eighth full and `clear` frees it, so every whole-table walk
//! (`for_each`, `gc`, eviction) costs the buckets the table holds now,
//! not the most it ever held. Walks visit records in bucket order and
//! halves in order, which depends on history and on the secret. Whatever
//! a walk publishes is ordered by content instead: `tick` and `gc` sort
//! their events by `FlowTable::sweep_order`, `flow_stats` and
//! `checkpoint` by key, and eviction takes a minimum.
//!
//! ## Capacity & admission
//!
//! A production vSwitch carries tens of thousands of connections and the
//! paper sizes the design around that (§4: two ~320 B entries per
//! connection), so the table can be *bounded*: [`FlowTable::bounded`]
//! sets a hard `max_flows` cap on entries (halves). A create checks the
//! count under the table lock, and at the cap evicts and inserts under
//! that same lock, so `len()` never exceeds the cap.
//! What happens at the cap is the [`AdmissionPolicy`]: turn the new flow
//! away (it is then forwarded untouched — the §3.3 fail-safe) or
//! deterministically evict the entry idle the longest, smallest key
//! breaking ties, never the key being inserted. Every create path reports
//! an [`Admission`] outcome so the datapath can account evictions and
//! drive its degradation ladder.

use acdc_packet::{FlowIndex, FlowKey};
use acdc_stats::time::Nanos;
use parking_lot::Mutex;

use crate::entry::FlowEntry;

/// Ways [`FlowTable::sweep_order`] splits keys by hash before it compares
/// them. An ordering, not a placement: it is the shard count of the table
/// that fixed the recorded event order, kept so recordings replay.
const SWEEP_TAGS: usize = 1024;

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

/// Both directions of one connection in one allocation. Half 0 is the
/// direction the connection key names, half 1 its reverse; a key that is
/// its own reverse has half 0 only. No record is ever empty: the table
/// frees one with its last half.
#[derive(Default)]
struct Record {
    halves: [Option<FlowEntry>; 2],
}

impl Record {
    /// Entries present, 1 or 2.
    fn len(&self) -> usize {
        self.halves.iter().flatten().count()
    }

    fn is_empty(&self) -> bool {
        self.halves.iter().all(Option::is_none)
    }
}

/// `key`'s connection key, the half of its record `key` names and the
/// half its reverse names (the same one for a key that is its own
/// reverse). Inlined: a call that returns the key through memory costs
/// a lookup from another crate (the generic accessors are instantiated
/// there) about as much again as the probe.
#[inline]
fn locate(key: &FlowKey) -> (FlowKey, usize, usize) {
    let dir = key.direction();
    (
        key.canonical(),
        usize::from(dir.is_gt()),
        usize::from(dir.is_lt()),
    )
}

/// The key of half `i` of connection `conn`.
fn key_of(conn: &FlowKey, i: usize) -> FlowKey {
    if i == 0 {
        *conn
    } else {
        conn.reverse()
    }
}

/// The table's contents: connection records in a [`FlowIndex`], plus the
/// entry count and the gc epoch.
struct Inner {
    index: FlowIndex<Box<Record>>,
    /// Entries (halves) over every record: what `len()` and the cap count.
    entries: usize,
    /// GC bookkeeping epoch: idleness is measured from
    /// `max(last_activity, epoch)`, so stamping the epoch at a datapath
    /// reset or checkpoint restore guarantees entries carrying
    /// `last_activity` values from before that event can never be
    /// spuriously collected by the first sweep afterwards.
    epoch: Nanos,
}

// A bucket is the connection key beside the `Box`, whose niche encodes
// an empty one.
const _: () = assert!(size_of::<Option<(FlowKey, Box<Record>)>>() == 24);

impl Inner {
    /// The record in bucket `at`, if it holds one.
    fn at(&mut self, at: Option<usize>) -> Option<&mut Record> {
        self.index.at_mut(at?).map(|r| &mut **r)
    }

    /// Put `entry` in as half `side` of connection `conn`, whose record
    /// is in bucket `at` if it has one; that half must be absent. Returns
    /// the record's bucket.
    fn put(&mut self, conn: FlowKey, at: Option<usize>, side: usize, entry: FlowEntry) -> usize {
        self.entries += 1;
        if let (Some(i), Some(rec)) = (at, self.at(at)) {
            rec.halves[side] = Some(entry);
            return i;
        }
        let mut rec = Box::<Record>::default();
        rec.halves[side] = Some(entry);
        self.index.insert(conn, rec)
    }

    /// Drop `key`'s entry, and its record with it when the reverse
    /// direction is not tracked.
    fn remove(&mut self, key: &FlowKey) -> bool {
        let (conn, side, _) = locate(key);
        let at = self.index.find(&conn);
        let Some(rec) = self.at(at).filter(|r| r.halves[side].is_some()) else {
            return false;
        };
        // A key that is its own reverse is half 0, and half 1 is empty.
        if rec.halves[1 - side].is_some() {
            rec.halves[side] = None;
        } else if let Some(i) = at {
            self.index.remove_at(i);
        }
        self.entries -= 1;
        true
    }

    /// Evict the entry idle the longest (smallest key on ties), never
    /// `avoid`, the key about to be inserted. Returns `false` when
    /// nothing is evictable.
    fn evict_one(&mut self, avoid: &FlowKey) -> bool {
        let mut victim: Option<(Nanos, FlowKey)> = None;
        for (conn, rec) in self.index.iter() {
            for (i, e) in rec.halves.iter().enumerate() {
                let Some(e) = e else { continue };
                // Most entries lose on time alone; only a candidate
                // pays for its directional key.
                let at = e.life().last_activity;
                if victim.is_some_and(|(t, _)| at > t) {
                    continue;
                }
                let cand = (at, key_of(conn, i));
                if cand.1 != *avoid && victim.is_none_or(|v| cand < v) {
                    victim = Some(cand);
                }
            }
        }
        victim.is_some_and(|(_, k)| self.remove(&k))
    }
}

/// `f` on half `side` of `rec`, when present, then `g` on its result and
/// on half `rside`: the two closures of the `with_connection` pair, run
/// in turn so that `side == rside` (a key that is its own reverse) lends
/// the one entry twice rather than aliasing it.
fn in_turn<A, R>(
    rec: Option<&mut Record>,
    side: usize,
    rside: usize,
    f: impl FnOnce(&mut FlowEntry) -> A,
    g: impl FnOnce(Option<A>, Option<&mut FlowEntry>) -> R,
) -> R {
    let Some(rec) = rec else {
        return g(None, None);
    };
    let a = rec.halves[side].as_mut().map(f);
    g(a, rec.halves[rside].as_mut())
}

/// A flow table: connection key → record of both directions'
/// [`FlowEntry`]s, behind one lock.
pub struct FlowTable {
    inner: Mutex<Inner>,
    max_flows: Option<usize>,
    admission: AdmissionPolicy,
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
            inner: Mutex::new(Inner {
                index: FlowIndex::new(),
                entries: 0,
                epoch: 0,
            }),
            max_flows: None,
            admission: AdmissionPolicy::EvictOldestIdle,
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
        self.inner.lock().epoch
    }

    /// Stamp the GC epoch: idleness in subsequent [`FlowTable::gc`]
    /// sweeps is measured from no earlier than `at`. Called on datapath
    /// reset and checkpoint restore; stamps never move backwards.
    pub fn set_epoch(&self, at: Nanos) {
        let mut inner = self.inner.lock();
        inner.epoch = inner.epoch.max(at);
    }

    /// The order a sweep publishes its per-flow events in: a
    /// [`SWEEP_TAGS`]-way tag from `key`'s own hash, then `key` — the
    /// order a sharded table of one entry per direction held its contents
    /// in, kept so that recorded runs keep their event sequence. Walks
    /// themselves go in bucket order; `tick` and `gc` tag what they
    /// collect with this, once per key, and sort before recording, so the
    /// recorder's sequence numbers replay across a checkpoint restore and
    /// under racing worker inserts.
    pub(crate) fn sweep_order(key: &FlowKey) -> (usize, FlowKey) {
        ((key.hash64() as usize) & (SWEEP_TAGS - 1), *key)
    }

    /// Run `f` on the entry for `key` under the table lock. `f` must not
    /// call back into the table (the lock is held) nor publish events
    /// (W002).
    pub fn with_entry<R>(&self, key: &FlowKey, f: impl FnOnce(&mut FlowEntry) -> R) -> Option<R> {
        let (conn, side, _) = locate(key);
        self.inner.lock().index.get_mut(&conn)?.halves[side]
            .as_mut()
            .map(f)
    }

    /// Both directions of `key`'s connection under one lookup — the
    /// per-packet path: `f` on `key`'s entry when tracked, then `g` on
    /// `f`'s result (`None` when `f` did not run) and on the reverse
    /// direction's entry. Same rules for both closures as for
    /// [`FlowTable::with_entry`].
    pub(crate) fn with_connection<A, R>(
        &self,
        key: &FlowKey,
        f: impl FnOnce(&mut FlowEntry) -> A,
        g: impl FnOnce(Option<A>, Option<&mut FlowEntry>) -> R,
    ) -> R {
        let (conn, side, rside) = locate(key);
        let mut inner = self.inner.lock();
        in_turn(
            inner.index.get_mut(&conn).map(|r| &mut **r),
            side,
            rside,
            f,
            g,
        )
    }

    /// Make room for one more entry per the admission policy, evicting
    /// never `key`.
    fn admit(&self, inner: &mut Inner, key: &FlowKey) -> Admission {
        if self.max_flows.is_none_or(|cap| inner.entries < cap) {
            return Admission::Created;
        }
        match self.admission {
            AdmissionPolicy::RejectNew => Admission::Rejected,
            AdmissionPolicy::EvictOldestIdle if inner.evict_one(key) => {
                Admission::CreatedAfterEviction(1)
            }
            AdmissionPolicy::EvictOldestIdle => Admission::Rejected,
        }
    }

    /// [`FlowTable::with_connection`], creating `key`'s entry with `init`
    /// when absent — subject to the capacity/admission gate, and `init`
    /// runs under the table lock too. When the table is full and the
    /// policy refuses the flow ([`Admission::Rejected`]), `f` does not
    /// run and `g` gets `None` beside the reverse entry.
    pub(crate) fn with_connection_or_create<A, R>(
        &self,
        key: FlowKey,
        init: impl FnOnce() -> FlowEntry,
        f: impl FnOnce(&mut FlowEntry) -> A,
        g: impl FnOnce(Option<A>, Option<&mut FlowEntry>) -> R,
    ) -> (R, Admission) {
        let (conn, side, rside) = locate(&key);
        let mut inner = self.inner.lock();
        let mut at = inner.index.find(&conn);
        let mut adm = Admission::Existing;
        if inner.at(at).is_none_or(|r| r.halves[side].is_none()) {
            adm = self.admit(&mut inner, &key);
            if adm.created() {
                if adm != Admission::Created {
                    // The victim's removal may have moved this record.
                    at = inner.index.find(&conn);
                }
                at = Some(inner.put(conn, at, side, init()));
            }
        }
        let rec = inner.at(at);
        let r = if adm.rejected() {
            g(None, rec.and_then(|r| r.halves[rside].as_mut()))
        } else {
            in_turn(rec, side, rside, f, g)
        };
        (r, adm)
    }

    /// [`FlowTable::with_entry`], creating the entry with `init` when
    /// absent — subject to the capacity/admission gate. Same rules for
    /// `f`, and `init` runs under the table lock too. Returns `None`
    /// (with [`Admission::Rejected`]) when the table is full and the
    /// policy refused the flow; `f` is not called in that case.
    pub fn with_entry_or_create<R>(
        &self,
        key: FlowKey,
        init: impl FnOnce() -> FlowEntry,
        f: impl FnOnce(&mut FlowEntry) -> R,
    ) -> (Option<R>, Admission) {
        self.with_connection_or_create(key, init, f, |a, _| a)
    }

    /// Look up or create an entry with `init`, subject to the
    /// capacity/admission gate, and say which it was:
    /// [`Admission::Rejected`] when the table is full and the policy
    /// refused the flow.
    pub fn get_or_create(&self, key: FlowKey, init: impl FnOnce() -> FlowEntry) -> Admission {
        self.with_entry_or_create(key, init, |_| ()).1
    }

    /// Remove an entry (FIN teardown), and its record with it when the
    /// reverse direction is not tracked.
    pub fn remove(&self, key: &FlowKey) -> bool {
        self.inner.lock().remove(key)
    }

    /// Number of tracked entries, one per direction (O(1)).
    pub fn len(&self) -> usize {
        self.inner.lock().entries
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of connection records, each holding one or both
    /// directions (O(1)).
    pub fn connections(&self) -> usize {
        self.inner.lock().index.len()
    }

    /// Drop every entry (vSwitch restart) and free the bucket array,
    /// however large a flood grew it. Returns the number removed.
    pub fn clear(&self) -> usize {
        let mut inner = self.inner.lock();
        inner.index = FlowIndex::new();
        std::mem::take(&mut inner.entries)
    }

    /// Coarse-grained garbage collection (paired with FIN handling in the
    /// paper): drop entries idle for longer than `idle_timeout`, plus any
    /// entry already marked closed, and every record left empty.
    /// Idleness is measured from the later of the entry's
    /// `last_activity` and the table [`FlowTable::epoch`], so a
    /// reset/restore epoch stamp shields entries carrying pre-event
    /// activity times from one spurious collection. Yields the collected
    /// keys in [`FlowTable::sweep_order`], the order the datapath records
    /// their evictions in. An array left less than an eighth full halves
    /// (down to 8 buckets); [`FlowTable::clear`] frees it.
    pub fn gc(&self, now: Nanos, idle_timeout: Nanos) -> impl ExactSizeIterator<Item = FlowKey> {
        // Each collected key is tagged with its `sweep_order` as it is
        // found. Bucket order is not sweep order, so the whole list is
        // sorted once, after the lock is released.
        let mut evicted: Vec<(usize, FlowKey)> = Vec::new();
        {
            let mut inner = self.inner.lock();
            let epoch = inner.epoch;
            inner.index.retain(|conn, rec| {
                for (i, h) in rec.halves.iter_mut().enumerate() {
                    let dead = h.as_ref().is_some_and(|e| {
                        let life = e.life();
                        life.closing
                            || now.saturating_sub(life.last_activity.max(epoch)) > idle_timeout
                    });
                    if dead {
                        *h = None;
                        evicted.push(FlowTable::sweep_order(&key_of(conn, i)));
                    }
                }
                !rec.is_empty()
            });
            inner.entries -= evicted.len();
            debug_assert!(
                inner.entries == inner.index.iter().map(|(_, r)| r.len()).sum::<usize>(),
                "flow-table count drifted from the index contents after gc"
            );
        }
        evicted.sort_unstable();
        evicted.into_iter().map(|(_, key)| key)
    }

    /// Visit every entry with its directional key, under the table lock
    /// (diagnostics, inactivity scans, checkpoint capture). Same rules
    /// for `f` as [`FlowTable::with_entry`].
    pub fn for_each(&self, mut f: impl FnMut(&FlowKey, &mut FlowEntry)) {
        let mut inner = self.inner.lock();
        for (conn, rec) in inner.index.iter_mut() {
            for (i, h) in rec.halves.iter_mut().enumerate() {
                if let Some(e) = h {
                    f(&key_of(conn, i), e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdc_cc::{CcConfig, CcKind};
    use acdc_packet::flow_index::MIN_BUCKETS;
    use std::sync::Arc;

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

    fn create(t: &FlowTable, p: u16, now: Nanos) -> Admission {
        let adm = t.get_or_create(key(p), || entry(now));
        assert!(!adm.rejected(), "admitted");
        adm
    }

    fn last_activity(t: &FlowTable, p: u16) -> Option<Nanos> {
        t.with_entry(&key(p), |e| e.life().last_activity)
    }

    /// Stamp `e`'s `last_activity`, through the one outside write path.
    fn touch(e: &mut FlowEntry, at: Nanos) {
        let mut s = e.checkpoint_state();
        s.life.last_activity = at;
        assert!(e.restore_state(&s));
    }

    fn set_last_activity(t: &FlowTable, p: u16, at: Nanos) {
        t.with_entry(&key(p), |e| touch(e, at)).expect("tracked");
    }

    #[test]
    fn create_lookup_remove() {
        let t = FlowTable::new();
        assert!(last_activity(&t, 1).is_none());
        assert_eq!(create(&t, 1, 0), Admission::Created);
        set_last_activity(&t, 1, 42);
        assert_eq!(last_activity(&t, 1), Some(42));
        assert_eq!(t.len(), 1);
        assert!(t.remove(&key(1)));
        assert!(t.is_empty());
        assert!(!t.remove(&key(1)));
    }

    #[test]
    fn get_or_create_is_idempotent() {
        let t = FlowTable::new();
        create(&t, 7, 0);
        assert_eq!(create(&t, 7, 99), Admission::Existing);
        assert_eq!(last_activity(&t, 7), Some(0), "the first entry stays");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn gc_collects_idle_and_closed() {
        let t = FlowTable::new();
        create(&t, 1, 0); // idle since t=0
        create(&t, 2, 0);
        set_last_activity(&t, 2, 1_000_000_000);
        create(&t, 3, 0);
        t.with_entry(&key(3), |e| {
            touch(e, 1_000_000_000);
            e.close();
        });
        let gone: Vec<FlowKey> = t.gc(1_000_000_001, 500_000_000).collect();
        let mut want = [key(1), key(3)];
        want.sort_by_key(FlowTable::sweep_order);
        assert_eq!(gone, want, "collected keys, in sweep order");
        assert_eq!(t.len(), 1);
        assert!(last_activity(&t, 1).is_none());
        assert!(last_activity(&t, 2).is_some());
        assert!(last_activity(&t, 3).is_none());
    }

    #[test]
    fn gc_epoch_shields_pre_epoch_idle_times() {
        let t = FlowTable::new();
        create(&t, 1, 0); // last_activity = 0, ancient
        assert_eq!(t.epoch(), 0);
        // Without an epoch stamp this entry would be collected instantly.
        t.set_epoch(2_000_000_000);
        assert_eq!(t.gc(2_000_000_001, 500_000_000).len(), 0);
        assert!(
            last_activity(&t, 1).is_some(),
            "epoch shields pre-epoch idleness"
        );
        // Once genuinely idle *past* the epoch, collection proceeds.
        assert_eq!(t.gc(2_600_000_001, 500_000_000).len(), 1);
        assert!(last_activity(&t, 1).is_none());
        // Epoch stamps never move backwards.
        t.set_epoch(1_000_000_000);
        assert_eq!(t.epoch(), 2_000_000_000);
    }

    #[test]
    fn bounded_reject_new_refuses_at_capacity() {
        let t = FlowTable::bounded(2, AdmissionPolicy::RejectNew);
        assert_eq!(create(&t, 1, 0), Admission::Created);
        assert_eq!(create(&t, 2, 0), Admission::Created);
        assert_eq!(t.get_or_create(key(3), || entry(0)), Admission::Rejected);
        assert!(last_activity(&t, 3).is_none());
        assert_eq!(t.len(), 2);
        // Existing keys still resolve at capacity.
        assert_eq!(create(&t, 1, 0), Admission::Existing);
        // Freeing a slot re-opens admission.
        assert!(t.remove(&key(1)));
        assert_eq!(create(&t, 3, 0), Admission::Created);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn bounded_evict_oldest_idle_is_deterministic() {
        let t = FlowTable::bounded(2, AdmissionPolicy::EvictOldestIdle);
        create(&t, 1, 0);
        set_last_activity(&t, 1, 100);
        create(&t, 2, 0);
        set_last_activity(&t, 2, 50); // oldest → the victim
        assert_eq!(create(&t, 3, 0), Admission::CreatedAfterEviction(1));
        assert_eq!(t.len(), 2);
        assert!(last_activity(&t, 2).is_none(), "oldest-idle entry evicted");
        assert!(last_activity(&t, 1).is_some());
        assert!(last_activity(&t, 3).is_some());
    }

    #[test]
    fn eviction_ties_break_on_smallest_key() {
        let t = FlowTable::bounded(2, AdmissionPolicy::EvictOldestIdle);
        create(&t, 9, 0);
        create(&t, 4, 0); // same last_activity; smaller port loses
        create(&t, 7, 0);
        assert!(
            last_activity(&t, 4).is_none(),
            "smallest key evicted on tie"
        );
        assert!(last_activity(&t, 9).is_some());
        assert!(last_activity(&t, 7).is_some());
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
    fn both_directions_share_one_record() {
        let t = FlowTable::new();
        let (k, r) = (key(1), key(1).reverse());
        assert_eq!(create(&t, 1, 10), Admission::Created);
        assert_eq!(t.get_or_create(r, || entry(20)), Admission::Created);
        assert_eq!((t.len(), t.connections()), (2, 1));
        // Each side sees its own entry first and the other one second.
        let seen = |from: &FlowKey| {
            t.with_connection(
                from,
                |e| e.life().last_activity,
                |a, re| (a, re.map(|e| e.life().last_activity)),
            )
        };
        assert_eq!(seen(&k), (Some(10), Some(20)));
        assert_eq!(seen(&r), (Some(20), Some(10)));
        // Removing one direction keeps the other and the record.
        assert!(t.remove(&k));
        assert_eq!(seen(&r), (Some(20), None));
        assert_eq!((t.len(), t.connections()), (1, 1));
        // The last direction takes the record with it.
        assert!(t.remove(&r));
        assert_eq!((t.len(), t.connections()), (0, 0));
        assert_eq!(seen(&k), (None, None));
    }

    #[test]
    fn a_key_that_is_its_own_reverse_is_one_entry_lent_in_turn() {
        let own = FlowKey {
            src_ip: [10, 0, 0, 7],
            dst_ip: [10, 0, 0, 7],
            src_port: 9,
            dst_port: 9,
        };
        assert_eq!(own.reverse(), own);
        let t = FlowTable::new();
        let (seen, adm) = t.with_connection_or_create(
            own,
            || entry(0),
            |e| touch(e, 5),
            // The reverse of `own` is `own`: `g` gets the entry `f` wrote.
            |a, re| a.and(re.map(|e| e.life().last_activity)),
        );
        assert_eq!((seen, adm), (Some(5), Admission::Created));
        assert_eq!(t.get_or_create(own, || entry(0)), Admission::Existing);
        assert_eq!((t.len(), t.connections()), (1, 1));
        assert!(t.remove(&own));
        assert_eq!((t.len(), t.connections()), (0, 0));
    }

    #[test]
    fn eviction_and_gc_take_one_direction_and_keep_the_other() {
        let t = FlowTable::bounded(2, AdmissionPolicy::EvictOldestIdle);
        let r = key(1).reverse();
        create(&t, 1, 0);
        t.get_or_create(r, || entry(100));
        // The oldest entry is `k`'s half of the record; `r` stays.
        assert_eq!(create(&t, 2, 50), Admission::CreatedAfterEviction(1));
        assert!(last_activity(&t, 1).is_none());
        assert!(t.with_entry(&r, |_| ()).is_some());
        // `r` keeps `k`'s record; `key(2)` has its own.
        assert_eq!(t.connections(), 2);
        // Idle `key(2)` goes at gc; `r` is young enough to stay.
        assert_eq!(t.gc(200, 120).len(), 1);
        assert_eq!((t.len(), t.connections()), (1, 1));
        assert!(t.with_entry(&r, |_| ()).is_some());
        // And when it goes too, so does its record.
        assert_eq!(t.gc(300, 120).len(), 1);
        assert_eq!((t.len(), t.connections()), (0, 0));
    }

    #[test]
    fn a_rejected_direction_still_lends_the_reverse_one() {
        let t = FlowTable::bounded(1, AdmissionPolicy::RejectNew);
        t.get_or_create(key(1).reverse(), || entry(30));
        let (seen, adm) = t.with_connection_or_create(
            key(1),
            || entry(0),
            |_| unreachable!("a refused entry is not created"),
            |a: Option<()>, re| (a, re.map(|e| e.life().last_activity)),
        );
        assert_eq!((seen, adm), ((None, Some(30)), Admission::Rejected));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn clear_empties_and_reopens_admission() {
        let t = FlowTable::bounded(2, AdmissionPolicy::RejectNew);
        create(&t, 1, 0);
        create(&t, 2, 0);
        assert_eq!(t.clear(), 2);
        assert!(t.is_empty());
        assert_eq!(create(&t, 3, 0), Admission::Created);
    }

    /// `n` ports. One array holds every key, so any `n` past four grows
    /// it and any handful collides on some probe path.
    fn crowd(n: u16) -> Vec<u16> {
        (0..n).collect()
    }

    fn buckets(t: &FlowTable) -> usize {
        t.inner.lock().index.buckets()
    }

    #[test]
    fn clear_frees_bucket_arrays() {
        let t = FlowTable::new();
        // Enough to grow the array several times.
        let crowd = crowd(40);
        for &p in &crowd {
            create(&t, p, 0);
        }
        assert!(buckets(&t) >= 2 * crowd.len());
        assert_eq!(t.clear(), crowd.len());
        assert_eq!((t.connections(), buckets(&t)), (0, 0));
        // An emptied table starts again from its first allocation.
        create(&t, crowd[0], 0);
        assert_eq!(buckets(&t), MIN_BUCKETS);
    }

    #[test]
    fn gc_shrinks_bucket_arrays_to_the_live_entries() {
        const IDLE: Nanos = 1_000;
        let t = FlowTable::new();
        let crowd = crowd(40);
        for &p in &crowd {
            create(&t, p, 0);
        }
        assert_eq!(buckets(&t), 128);
        // Six stay active: 6 of 128 is under an eighth, so the array
        // halves to 32, where 6 is not.
        let (live, idle) = crowd.split_at(6);
        for &p in live {
            set_last_activity(&t, p, 2 * IDLE);
        }
        assert_eq!(t.gc(2 * IDLE, IDLE).len(), idle.len());
        assert_eq!(buckets(&t), 32);
        for &p in live {
            assert!(
                last_activity(&t, p).is_some(),
                "port {p} lost in the shrink"
            );
        }
        for &p in idle {
            assert!(last_activity(&t, p).is_none(), "port {p} survived gc");
        }
        // Emptied by gc, the table keeps its smallest array.
        assert_eq!(t.gc(4 * IDLE, IDLE).len(), live.len());
        assert!(t.is_empty());
        assert_eq!(buckets(&t), MIN_BUCKETS);
    }

    #[test]
    fn a_small_table_is_all_a_sweep_visits() {
        // Two connections, both ways: the first insert allocates the
        // smallest array and the second fits in it.
        let t = FlowTable::new();
        for p in [1, 2] {
            create(&t, p, 0);
            t.get_or_create(key(p).reverse(), || entry(0));
        }
        assert_eq!((t.len(), t.connections(), buckets(&t)), (4, 2, MIN_BUCKETS));
        let mut seen = Vec::new();
        t.for_each(|k, _| seen.push(*k));
        seen.sort_unstable();
        let mut want = vec![key(1), key(1).reverse(), key(2), key(2).reverse()];
        want.sort_unstable();
        assert_eq!(seen, want, "for_each visits the four entries once each");
        // A sweep after a flood walks what is left, not the peak.
        for p in 3..1_000 {
            create(&t, p, 0);
        }
        set_last_activity(&t, 1, 10);
        t.with_entry(&key(1).reverse(), |e| touch(e, 10));
        assert_eq!(buckets(&t), 2_048);
        assert_eq!(t.gc(10, 5).len(), 999);
        assert_eq!((t.len(), t.connections(), buckets(&t)), (2, 1, MIN_BUCKETS));
        assert_eq!(t.gc(10, 5).len(), 0);
        assert_eq!(t.gc(20, 5).len(), 2);
        assert_eq!((t.len(), buckets(&t)), (0, MIN_BUCKETS));
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
                    let (set, _) =
                        t.with_entry_or_create(k, || entry(0), |e| touch(e, u64::from(i)));
                    assert!(set.is_some());
                    assert_eq!(
                        t.with_entry(&k, |e| e.life().last_activity),
                        Some(u64::from(i))
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 1000);
    }
}
