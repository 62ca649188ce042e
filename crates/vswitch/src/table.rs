//! The connection-tracking flow table.
//!
//! The paper adds a hash table to OVS keyed by the flow 5-tuple, with
//! "two flow entries for each connection", RCU for read-mostly lookups
//! and a spinlock per entry so distinct flows update concurrently (§4).
//! Here a connection's two entries are one *record*. The table is keyed
//! by the connection ([`FlowKey::canonical`]: the smaller of a key and
//! its reverse), and a record holds both
//! directions' [`FlowEntry`]s as optional halves in one allocation. A
//! data packet updates its own direction and then the reverse one (the
//! feedback an egress ACK piggybacks, the ACK an ingress segment
//! carries), and finds both with one hash and one probe: a lookup
//! returns a `Conn` that lends `key`'s half, then the reverse half, each
//! as `&mut FlowEntry` for as long as the caller holds it. A key that is
//! its own reverse (source = destination, which a tenant can send) has
//! one half, and the `Conn` lends it to each in turn, never as two
//! aliasing borrows.
//! Everything else still speaks directions: a key names one half, `len()`
//! and the `max_flows` cap count halves, eviction removes one half, and a
//! record is freed with its last half.
//!
//! The records, the entry count, the gc epoch and the capacity gate are
//! `Flows`, plain `&mut` state. [`FlowTable`] keeps them, with the rest
//! of what the datapath mutates (the health ladder, the overload flag:
//! the datapath's core, `crate::state`), in one `RefCell`, and each
//! datapath call borrows it once. The paper's per-entry spinlocks and
//! RCU serve one datapath thread per CPU; here the datapath has one
//! owner and one thread (DESIGN.md §12), so there is nothing to lock,
//! and the `RefCell` is there only because the benchmark harness calls
//! through a shared `&dp` until ROADMAP item 1. Past `run`, the wrapper
//! keeps only the names the harness builds against (`new`, `bounded`,
//! `get_or_create`, `with_entry`, `remove`, `len`, `is_empty`), each
//! borrowing the core once; the tests drive `Flows` itself.
//!
//! The index is an [`acdc_packet::FlowIndex`] of records by connection
//! key: linear probing from a home bucket keyed by a secret drawn once per
//! process, so a sender choosing its ports cannot choose a probe cluster.
//! A bucket holds the connection key beside a `Box<Record>`, so a probe
//! compares keys without touching records and a resize moves pointers.
//! An empty table allocates nothing; `gc` halves an array left less than
//! an eighth full and `clear` frees it, so every whole-table walk
//! (`tick`, `gc`, eviction, a checkpoint) costs the buckets the table
//! holds now, not the most it ever held. Walks visit records in bucket
//! order and halves in order, which depends on history and on the
//! secret. Whatever a walk hands out is ordered by content instead:
//! `tick`, `gc`, `flow_stats` and `checkpoint` sort by key, and eviction
//! takes a minimum.
//!
//! ## Capacity & admission
//!
//! A production vSwitch carries tens of thousands of connections and the
//! paper sizes the design around that (§4: two ~320 B entries per
//! connection), so the table can be *bounded*: [`FlowTable::bounded`]
//! sets a hard `max_flows` cap on entries (halves). A create checks the
//! count, and at the cap evicts and inserts, in one `&mut` call, so
//! `len()` never exceeds the cap.
//! What happens at the cap is the [`AdmissionPolicy`]: turn the new flow
//! away (it is then forwarded untouched — the §3.3 fail-safe) or
//! deterministically evict the entry idle the longest, smallest key
//! breaking ties, never the key being inserted. Every create path reports
//! an [`Admission`] outcome so the datapath can account evictions and
//! drive its degradation ladder.

use std::cell::{RefCell, RefMut};

use acdc_packet::{FlowIndex, FlowKey};
use acdc_stats::time::Nanos;

use crate::entry::FlowEntry;
use crate::state::Core;

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
    /// A fresh entry was inserted after evicting the entry idle the
    /// longest.
    CreatedAfterEviction,
    /// The table is full and the policy refused the flow.
    Rejected,
}

impl Admission {
    /// Did this call insert a fresh entry?
    pub fn created(self) -> bool {
        matches!(self, Admission::Created | Admission::CreatedAfterEviction)
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
/// a lookup about as much again as the probe.
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

/// Both directions of one connection, from one lookup: `key`'s half and
/// the reverse half, each lent in turn. A key that is its own reverse
/// has one half, and both accessors lend it, one borrow at a time.
pub(crate) struct Conn<'a> {
    rec: Option<&'a mut Record>,
    side: usize,
    rside: usize,
}

impl<'a> Conn<'a> {
    /// `key`'s entry, when tracked.
    #[inline]
    pub(crate) fn this(&mut self) -> Option<&mut FlowEntry> {
        self.rec.as_deref_mut()?.halves[self.side].as_mut()
    }

    /// The reverse direction's entry, when tracked.
    #[inline]
    pub(crate) fn reverse(&mut self) -> Option<&mut FlowEntry> {
        self.rec.as_deref_mut()?.halves[self.rside].as_mut()
    }

    /// `key`'s entry, for as long as the lookup's borrow lasts.
    #[inline]
    pub(crate) fn into_this(self) -> Option<&'a mut FlowEntry> {
        self.rec?.halves[self.side].as_mut()
    }
}

/// The table's contents: connection records in a [`FlowIndex`], the
/// entry count, the gc epoch and the capacity gate. Plain `&mut` state:
/// [`FlowTable`] keeps it, with the rest of the datapath's, in its one
/// `RefCell`.
pub(crate) struct Flows {
    index: FlowIndex<Box<Record>>,
    /// Entries (halves) over every record: what `len()` and the cap count.
    entries: usize,
    /// GC bookkeeping epoch: idleness is measured from
    /// `max(last_activity, epoch)`, so stamping the epoch at a datapath
    /// reset or checkpoint restore guarantees entries carrying
    /// `last_activity` values from before that event can never be
    /// spuriously collected by the first sweep afterwards.
    epoch: Nanos,
    max_flows: Option<usize>,
    admission: AdmissionPolicy,
}

// A bucket is the connection key beside the `Box`, whose niche encodes
// an empty one.
const _: () = assert!(size_of::<Option<(FlowKey, Box<Record>)>>() == 24);

impl Flows {
    /// An empty table: at most `max_flows` entries (`None` = unbounded),
    /// applying `admission` when a new flow arrives at capacity.
    pub(crate) fn new(max_flows: Option<usize>, admission: AdmissionPolicy) -> Flows {
        Flows {
            index: FlowIndex::new(),
            entries: 0,
            epoch: 0,
            max_flows,
            admission,
        }
    }

    /// Number of tracked entries, one per direction (O(1)).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.entries
    }

    /// Number of connection records (O(1)).
    pub(crate) fn connections(&self) -> usize {
        self.index.len()
    }

    /// The current GC bookkeeping epoch (0 until first stamped).
    pub(crate) fn epoch(&self) -> Nanos {
        self.epoch
    }

    /// Stamp the GC epoch: idleness in later sweeps is measured from no
    /// earlier than `at`. Stamps never move backwards.
    pub(crate) fn set_epoch(&mut self, at: Nanos) {
        self.epoch = self.epoch.max(at);
    }

    /// Both directions of `key`'s connection.
    #[inline(always)]
    pub(crate) fn connection(&mut self, key: &FlowKey) -> Conn<'_> {
        let (conn, side, rside) = locate(key);
        Conn {
            rec: self.index.get_mut(&conn).map(|r| &mut **r),
            side,
            rside,
        }
    }

    /// `key`'s entry, when tracked.
    #[inline(always)]
    pub(crate) fn get(&mut self, key: &FlowKey) -> Option<&mut FlowEntry> {
        self.connection(key).into_this()
    }

    /// [`Flows::connection`], creating `key`'s entry with `init` when
    /// absent — subject to the capacity/admission gate. When the policy
    /// refuses the flow ([`Admission::Rejected`]), `key`'s half stays
    /// absent and the reverse one is still lent.
    pub(crate) fn connection_or_create(
        &mut self,
        key: &FlowKey,
        init: impl FnOnce() -> FlowEntry,
    ) -> (Conn<'_>, Admission) {
        let (conn, side, rside) = locate(key);
        let mut at = self.index.find(&conn);
        let mut adm = Admission::Existing;
        if self.at(at).is_none_or(|r| r.halves[side].is_none()) {
            adm = self.admit(key);
            if adm.created() {
                if adm != Admission::Created {
                    // The victim's removal may have moved this record.
                    at = self.index.find(&conn);
                }
                at = Some(self.put(conn, at, side, init()));
            }
        }
        let rec = self.at(at);
        (Conn { rec, side, rside }, adm)
    }

    /// The record in bucket `at`, if it holds one.
    #[inline]
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

    /// Make room for one more entry per the admission policy, evicting
    /// never `key`.
    fn admit(&mut self, key: &FlowKey) -> Admission {
        if self.max_flows.is_none_or(|cap| self.entries < cap) {
            return Admission::Created;
        }
        if self.admission == AdmissionPolicy::EvictOldestIdle && self.evict_one(key) {
            Admission::CreatedAfterEviction
        } else {
            Admission::Rejected
        }
    }

    /// Drop `key`'s entry, and its record with it when the reverse
    /// direction is not tracked.
    pub(crate) fn remove(&mut self, key: &FlowKey) -> bool {
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

    /// Drop every entry and free the bucket array, however large a flood
    /// grew it. Returns the number removed.
    pub(crate) fn clear(&mut self) -> usize {
        self.index.clear();
        std::mem::take(&mut self.entries)
    }

    /// Coarse-grained garbage collection (paired with FIN handling in the
    /// paper): drop entries idle for longer than `idle_timeout`, plus any
    /// entry already marked closed, and every record left empty.
    /// Idleness is measured from the later of the entry's
    /// `last_activity` and the epoch, so a reset/restore epoch stamp
    /// shields entries carrying pre-event activity times from one
    /// spurious collection. Returns the collected keys sorted, the order
    /// the datapath records their evictions in, not the walk's bucket
    /// order. An array left less than an eighth full halves (down to 8
    /// buckets); [`Flows::clear`] frees it.
    pub(crate) fn gc(&mut self, now: Nanos, idle_timeout: Nanos) -> Vec<FlowKey> {
        let mut evicted = Vec::new();
        let epoch = self.epoch;
        self.index.retain(|conn, rec| {
            for (i, h) in rec.halves.iter_mut().enumerate() {
                let dead = h.as_ref().is_some_and(|e| {
                    let life = e.life();
                    life.closing || now.saturating_sub(life.last_activity.max(epoch)) > idle_timeout
                });
                if dead {
                    *h = None;
                    evicted.push(key_of(conn, i));
                }
            }
            !rec.is_empty()
        });
        self.entries -= evicted.len();
        debug_assert!(
            self.entries == self.index.iter().map(|(_, r)| r.len()).sum::<usize>(),
            "flow-table count drifted from the index contents after gc"
        );
        evicted.sort_unstable();
        evicted
    }

    /// Every entry with its directional key, in bucket order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (FlowKey, &mut FlowEntry)> {
        self.index.iter_mut().flat_map(|(conn, rec)| {
            rec.halves
                .iter_mut()
                .enumerate()
                .filter_map(move |(i, h)| Some((key_of(conn, i), h.as_mut()?)))
        })
    }
}

/// A flow table: connection key → record of both directions'
/// [`FlowEntry`]s, in one `RefCell` with everything else the datapath
/// mutates (its core, `crate::state`). The public methods are the names
/// the benchmark harness builds against, each borrowing the core once;
/// the datapath reaches its core through `FlowTable::run` alone.
pub struct FlowTable {
    core: RefCell<Core>,
}

impl Default for FlowTable {
    fn default() -> Self {
        FlowTable::new()
    }
}

impl FlowTable {
    /// An empty, unbounded table.
    pub fn new() -> FlowTable {
        FlowTable::with_flows(Flows::new(None, AdmissionPolicy::EvictOldestIdle))
    }

    /// An empty table holding at most `max_flows` entries, applying
    /// `admission` when a new flow arrives at capacity.
    pub fn bounded(max_flows: usize, admission: AdmissionPolicy) -> FlowTable {
        FlowTable::with_flows(Flows::new(Some(max_flows), admission))
    }

    fn with_flows(flows: Flows) -> FlowTable {
        FlowTable {
            core: RefCell::new(Core::new(flows)),
        }
    }

    /// The core, borrowed: the one place anything borrows it. Private:
    /// past this module the core is reached through [`FlowTable::run`]
    /// alone.
    #[inline]
    fn core(&self) -> RefMut<'_, Core> {
        self.core.borrow_mut()
    }

    /// `f` on the core, borrowed: the way the datapath reaches its core,
    /// once per call. `f` is a `fn`, so it captures nothing and sees the
    /// core and `arg` only, and the borrow ends when it returns: whatever
    /// `arg` lends (a call's `Cx`, holding its events) outlives it. A
    /// call that reached the table again from inside `f` would panic on
    /// the second borrow, where a lock would have deadlocked.
    #[inline(always)]
    pub(crate) fn run<A, R>(&self, arg: A, f: fn(&mut Core, A) -> R) -> R {
        f(&mut self.core(), arg)
    }

    /// Run `f` on the entry for `key`.
    pub fn with_entry<R>(&self, key: &FlowKey, f: impl FnOnce(&mut FlowEntry) -> R) -> Option<R> {
        self.core().flows.get(key).map(f)
    }

    /// Look up or create an entry with `init`, subject to the
    /// capacity/admission gate, and say which it was:
    /// [`Admission::Rejected`] when the table is full and the policy
    /// refused the flow.
    pub fn get_or_create(&self, key: FlowKey, init: impl FnOnce() -> FlowEntry) -> Admission {
        self.core().flows.connection_or_create(&key, init).1
    }

    /// Remove an entry (FIN teardown), and its record with it when the
    /// reverse direction is not tracked.
    pub fn remove(&self, key: &FlowKey) -> bool {
        self.core().flows.remove(key)
    }

    /// Number of tracked entries, one per direction (O(1)).
    pub fn len(&self) -> usize {
        self.core().flows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdc_cc::{CcConfig, CcKind};
    use acdc_packet::flow_index::MIN_BUCKETS;

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

    fn unbounded() -> Flows {
        Flows::new(None, AdmissionPolicy::EvictOldestIdle)
    }

    fn bounded(cap: usize, admission: AdmissionPolicy) -> Flows {
        Flows::new(Some(cap), admission)
    }

    /// Look up or create `k`'s entry, stamped `now` if created.
    fn add(t: &mut Flows, k: FlowKey, now: Nanos) -> Admission {
        t.connection_or_create(&k, || entry(now)).1
    }

    fn create(t: &mut Flows, p: u16, now: Nanos) -> Admission {
        let adm = add(t, key(p), now);
        assert!(!adm.rejected(), "admitted");
        adm
    }

    fn last_activity(t: &mut Flows, p: u16) -> Option<Nanos> {
        t.get(&key(p)).map(|e| e.life().last_activity)
    }

    /// Stamp `e`'s `last_activity`, through the one outside write path.
    fn touch(e: &mut FlowEntry, at: Nanos) {
        let mut s = e.checkpoint_state();
        s.life.last_activity = at;
        assert!(e.restore_state(&s));
    }

    fn set_last_activity(t: &mut Flows, p: u16, at: Nanos) {
        touch(t.get(&key(p)).expect("tracked"), at);
    }

    /// `from`'s own `last_activity`, then its reverse's, from one lookup.
    fn seen(t: &mut Flows, from: &FlowKey) -> (Option<Nanos>, Option<Nanos>) {
        let mut conn = t.connection(from);
        let at = |e: &mut FlowEntry| e.life().last_activity;
        (conn.this().map(at), conn.reverse().map(at))
    }

    #[test]
    fn create_lookup_remove() {
        let mut t = unbounded();
        assert!(last_activity(&mut t, 1).is_none());
        assert_eq!(create(&mut t, 1, 0), Admission::Created);
        set_last_activity(&mut t, 1, 42);
        assert_eq!(last_activity(&mut t, 1), Some(42));
        assert_eq!(t.len(), 1);
        assert!(t.remove(&key(1)));
        assert_eq!(t.len(), 0);
        assert!(!t.remove(&key(1)));
    }

    #[test]
    fn get_or_create_is_idempotent() {
        let mut t = unbounded();
        create(&mut t, 7, 0);
        assert_eq!(create(&mut t, 7, 99), Admission::Existing);
        assert_eq!(last_activity(&mut t, 7), Some(0), "the first entry stays");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn gc_collects_idle_and_closed() {
        let mut t = unbounded();
        create(&mut t, 1, 0); // idle since t=0
        create(&mut t, 2, 0);
        set_last_activity(&mut t, 2, 1_000_000_000);
        create(&mut t, 3, 0);
        let e = t.get(&key(3)).expect("tracked");
        touch(e, 1_000_000_000);
        e.close();
        let gone = t.gc(1_000_000_001, 500_000_000);
        assert_eq!(gone, [key(1), key(3)], "collected keys, in key order");
        assert_eq!(t.len(), 1);
        assert!(last_activity(&mut t, 1).is_none());
        assert!(last_activity(&mut t, 2).is_some());
        assert!(last_activity(&mut t, 3).is_none());
    }

    #[test]
    fn gc_epoch_shields_pre_epoch_idle_times() {
        let mut t = unbounded();
        create(&mut t, 1, 0); // last_activity = 0, ancient
        assert_eq!(t.epoch(), 0);
        // Without an epoch stamp this entry would be collected instantly.
        t.set_epoch(2_000_000_000);
        assert_eq!(t.gc(2_000_000_001, 500_000_000).len(), 0);
        assert!(
            last_activity(&mut t, 1).is_some(),
            "epoch shields pre-epoch idleness"
        );
        // Once genuinely idle *past* the epoch, collection proceeds.
        assert_eq!(t.gc(2_600_000_001, 500_000_000).len(), 1);
        assert!(last_activity(&mut t, 1).is_none());
        // Epoch stamps never move backwards.
        t.set_epoch(1_000_000_000);
        assert_eq!(t.epoch(), 2_000_000_000);
    }

    #[test]
    fn bounded_reject_new_refuses_at_capacity() {
        let mut t = bounded(2, AdmissionPolicy::RejectNew);
        assert_eq!(create(&mut t, 1, 0), Admission::Created);
        assert_eq!(create(&mut t, 2, 0), Admission::Created);
        assert_eq!(add(&mut t, key(3), 0), Admission::Rejected);
        assert!(last_activity(&mut t, 3).is_none());
        assert_eq!(t.len(), 2);
        // Existing keys still resolve at capacity.
        assert_eq!(create(&mut t, 1, 0), Admission::Existing);
        // Freeing a slot re-opens admission.
        assert!(t.remove(&key(1)));
        assert_eq!(create(&mut t, 3, 0), Admission::Created);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn bounded_evict_oldest_idle_is_deterministic() {
        let mut t = bounded(2, AdmissionPolicy::EvictOldestIdle);
        create(&mut t, 1, 0);
        set_last_activity(&mut t, 1, 100);
        create(&mut t, 2, 0);
        set_last_activity(&mut t, 2, 50); // oldest → the victim
        assert_eq!(create(&mut t, 3, 0), Admission::CreatedAfterEviction);
        assert_eq!(t.len(), 2);
        assert!(
            last_activity(&mut t, 2).is_none(),
            "oldest-idle entry evicted"
        );
        assert!(last_activity(&mut t, 1).is_some());
        assert!(last_activity(&mut t, 3).is_some());
    }

    #[test]
    fn eviction_ties_break_on_smallest_key() {
        let mut t = bounded(2, AdmissionPolicy::EvictOldestIdle);
        create(&mut t, 9, 0);
        create(&mut t, 4, 0); // same last_activity; smaller port loses
        create(&mut t, 7, 0);
        assert!(
            last_activity(&mut t, 4).is_none(),
            "smallest key evicted on tie"
        );
        assert!(last_activity(&mut t, 9).is_some());
        assert!(last_activity(&mut t, 7).is_some());
    }

    #[test]
    fn both_directions_share_one_record() {
        let mut t = unbounded();
        let (k, r) = (key(1), key(1).reverse());
        assert_eq!(create(&mut t, 1, 10), Admission::Created);
        assert_eq!(add(&mut t, r, 20), Admission::Created);
        assert_eq!((t.len(), t.connections()), (2, 1));
        // Each side sees its own entry first and the other one second.
        assert_eq!(seen(&mut t, &k), (Some(10), Some(20)));
        assert_eq!(seen(&mut t, &r), (Some(20), Some(10)));
        // Removing one direction keeps the other and the record.
        assert!(t.remove(&k));
        assert_eq!(seen(&mut t, &r), (Some(20), None));
        assert_eq!((t.len(), t.connections()), (1, 1));
        // The last direction takes the record with it.
        assert!(t.remove(&r));
        assert_eq!((t.len(), t.connections()), (0, 0));
        assert_eq!(seen(&mut t, &k), (None, None));
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
        let mut t = unbounded();
        let (mut conn, adm) = t.connection_or_create(&own, || entry(0));
        assert_eq!(adm, Admission::Created);
        touch(conn.this().expect("created"), 5);
        // The reverse of `own` is `own`: the entry just written.
        let seen = conn.reverse().map(|e| e.life().last_activity);
        assert_eq!(seen, Some(5));
        assert_eq!(add(&mut t, own, 0), Admission::Existing);
        assert_eq!((t.len(), t.connections()), (1, 1));
        assert!(t.remove(&own));
        assert_eq!((t.len(), t.connections()), (0, 0));
    }

    #[test]
    fn eviction_and_gc_take_one_direction_and_keep_the_other() {
        let mut t = bounded(2, AdmissionPolicy::EvictOldestIdle);
        let r = key(1).reverse();
        create(&mut t, 1, 0);
        add(&mut t, r, 100);
        // The oldest entry is `k`'s half of the record; `r` stays.
        assert_eq!(create(&mut t, 2, 50), Admission::CreatedAfterEviction);
        assert!(last_activity(&mut t, 1).is_none());
        assert!(t.get(&r).is_some());
        // `r` keeps `k`'s record; `key(2)` has its own.
        assert_eq!(t.connections(), 2);
        // Idle `key(2)` goes at gc; `r` is young enough to stay.
        assert_eq!(t.gc(200, 120).len(), 1);
        assert_eq!((t.len(), t.connections()), (1, 1));
        assert!(t.get(&r).is_some());
        // And when it goes too, so does its record.
        assert_eq!(t.gc(300, 120).len(), 1);
        assert_eq!((t.len(), t.connections()), (0, 0));
    }

    #[test]
    fn a_rejected_direction_still_lends_the_reverse_one() {
        let mut t = bounded(1, AdmissionPolicy::RejectNew);
        add(&mut t, key(1).reverse(), 30);
        let (mut conn, adm) = t.connection_or_create(&key(1), || entry(0));
        assert_eq!(adm, Admission::Rejected);
        assert!(conn.this().is_none(), "a refused entry is not created");
        let seen = conn.reverse().map(|e| e.life().last_activity);
        assert_eq!(seen, Some(30));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn clear_empties_and_reopens_admission() {
        let mut t = bounded(2, AdmissionPolicy::RejectNew);
        create(&mut t, 1, 0);
        create(&mut t, 2, 0);
        assert_eq!(t.clear(), 2);
        assert_eq!(t.len(), 0);
        assert_eq!(create(&mut t, 3, 0), Admission::Created);
    }

    /// `n` ports. One array holds every key, so any `n` past four grows
    /// it and any handful collides on some probe path.
    fn crowd(n: u16) -> Vec<u16> {
        (0..n).collect()
    }

    #[test]
    fn clear_frees_bucket_arrays() {
        let mut t = unbounded();
        // Enough to grow the array several times.
        let crowd = crowd(40);
        for &p in &crowd {
            create(&mut t, p, 0);
        }
        assert!(t.index.buckets() >= 2 * crowd.len());
        assert_eq!(t.clear(), crowd.len());
        assert_eq!((t.connections(), t.index.buckets()), (0, 0));
        // An emptied table starts again from its first allocation.
        create(&mut t, crowd[0], 0);
        assert_eq!(t.index.buckets(), MIN_BUCKETS);
    }

    #[test]
    fn gc_shrinks_bucket_arrays_to_the_live_entries() {
        const IDLE: Nanos = 1_000;
        let mut t = unbounded();
        let crowd = crowd(40);
        for &p in &crowd {
            create(&mut t, p, 0);
        }
        assert_eq!(t.index.buckets(), 128);
        // Six stay active: 6 of 128 is under an eighth, so the array
        // halves to 32, where 6 is not.
        let (live, idle) = crowd.split_at(6);
        for &p in live {
            set_last_activity(&mut t, p, 2 * IDLE);
        }
        let gone: Vec<FlowKey> = idle.iter().map(|&p| key(p)).collect();
        assert_eq!(t.gc(2 * IDLE, IDLE), gone, "the idle keys, in key order");
        assert_eq!(t.index.buckets(), 32);
        for &p in live {
            assert!(
                last_activity(&mut t, p).is_some(),
                "port {p} lost in the shrink"
            );
        }
        for &p in idle {
            assert!(last_activity(&mut t, p).is_none(), "port {p} survived gc");
        }
        // Emptied by gc, the table keeps its smallest array.
        assert_eq!(t.gc(4 * IDLE, IDLE).len(), live.len());
        assert_eq!(t.len(), 0);
        assert_eq!(t.index.buckets(), MIN_BUCKETS);
    }

    /// Every entry's key, in walk order.
    fn walk(t: &mut Flows) -> Vec<FlowKey> {
        t.iter_mut().map(|(k, _)| k).collect()
    }

    #[test]
    fn a_small_table_is_all_a_sweep_visits() {
        // Two connections, both ways: the first insert allocates the
        // smallest array and the second fits in it.
        let mut t = unbounded();
        for p in [1, 2] {
            create(&mut t, p, 0);
            add(&mut t, key(p).reverse(), 0);
        }
        assert_eq!(
            (t.len(), t.connections(), t.index.buckets()),
            (4, 2, MIN_BUCKETS)
        );
        let mut seen = walk(&mut t);
        seen.sort_unstable();
        let mut want = vec![key(1), key(1).reverse(), key(2), key(2).reverse()];
        want.sort_unstable();
        assert_eq!(seen, want, "a walk visits the four entries once each");
        // A sweep after a flood walks what is left, not the peak.
        for p in 3..1_000 {
            create(&mut t, p, 0);
        }
        set_last_activity(&mut t, 1, 10);
        touch(t.get(&key(1).reverse()).expect("tracked"), 10);
        assert_eq!(t.index.buckets(), 2_048);
        assert_eq!(t.gc(10, 5).len(), 999);
        assert_eq!(
            (t.len(), t.connections(), t.index.buckets()),
            (2, 1, MIN_BUCKETS)
        );
        assert_eq!(t.gc(10, 5).len(), 0);
        assert_eq!(t.gc(20, 5).len(), 2);
        assert_eq!((t.len(), t.index.buckets()), (0, MIN_BUCKETS));
    }

    proptest::proptest! {
        /// Bucket order depends on history and on the secret only: two
        /// tables fed the same creates, removes, sweeps and clears over
        /// two dozen connections, both ways, walk alike after every op.
        #[test]
        fn same_ops_walk_in_the_same_order(
            ops in proptest::collection::vec((0u8..11, 0u16..48, 0u16..1000), 1..200)
        ) {
            let (mut a, mut b) = (unbounded(), unbounded());
            for &(op, k, now) in &ops {
                let k = if k < 24 { key(k) } else { key(k - 24).reverse() };
                let now = Nanos::from(now);
                for t in [&mut a, &mut b] {
                    match op {
                        0..=5 => {
                            let (conn, _) = t.connection_or_create(&k, || entry(now));
                            touch(conn.into_this().expect("unbounded"), now);
                        }
                        6..=8 => drop(t.remove(&k)),
                        9 => drop(t.gc(now, 250)),
                        _ => drop(t.clear()),
                    }
                }
                proptest::prop_assert_eq!(walk(&mut a), walk(&mut b));
            }
        }
    }
}
