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
//! [`FlowKey::hash64`] of the connection key (FNV-1a over the 12 key
//! bytes, stable run-to-run), keyed by a secret drawn once per process
//! and mixed, picks the home bucket, so a sender choosing its ports cannot
//! choose a probe cluster. The index is linear probing over a
//! power-of-two bucket array kept at most half full, removal by backward
//! shift, so there are no tombstones and a probe for an absent key ends
//! at the first empty bucket. A bucket holds the connection key beside a
//! `Box<Record>`, so a probe compares keys without touching records and a
//! resize moves pointers. An empty table allocates nothing; its first
//! insert allocates [`MIN_BUCKETS`]. `gc` halves an array left less than
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

use std::hash::{BuildHasher, RandomState};
use std::sync::OnceLock;

use acdc_packet::{mix64, FlowKey};
use acdc_stats::time::Nanos;
use parking_lot::Mutex;

use crate::entry::FlowEntry;

/// Buckets the index allocates on its first insert.
const MIN_BUCKETS: usize = 8;

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

/// One bucket: 24 bytes, the `Box`'s non-null niche encoding `None`.
type Bucket = Option<(FlowKey, Box<Record>)>;

/// This process's placement secret, drawn once from the standard
/// library's randomly keyed SipHash. Flow keys are wire input: were
/// bucket placement a public function of the key, a sender choosing its
/// ports could pile keys into one probe cluster and make every operation
/// on the table O(cluster). Nothing observable reads placement (see
/// [`FlowTable::sweep_order`]), so runs still replay exactly.
fn placement_secret() -> u64 {
    static SECRET: OnceLock<u64> = OnceLock::new();
    *SECRET.get_or_init(|| RandomState::new().hash_one(()))
}

/// The bucket a probe for connection `conn` starts at in an array of
/// `cap` buckets (a power of two): the key's hash keyed by `secret` and
/// mixed.
fn home(conn: &FlowKey, secret: u64, cap: usize) -> usize {
    mix64(conn.hash64() ^ secret) as usize & (cap - 1)
}

/// The table's contents: an open-addressed index of records by
/// connection key, with linear probing, at most half full, plus the
/// entry count and the gc epoch. An empty index allocates nothing.
struct Index {
    buckets: Box<[Bucket]>,
    /// Records (occupied buckets).
    records: usize,
    /// Entries (halves) over every record: what `len()` and the cap count.
    entries: usize,
    /// GC bookkeeping epoch: idleness is measured from
    /// `max(last_activity, epoch)`, so stamping the epoch at a datapath
    /// reset or checkpoint restore guarantees entries carrying
    /// `last_activity` values from before that event can never be
    /// spuriously collected by the first sweep afterwards.
    epoch: Nanos,
    /// Keys bucket placement ([`placement_secret`]).
    secret: u64,
}

const _: () = assert!(size_of::<Bucket>() == 24);

impl Index {
    /// The bucket holding connection `conn`, if present.
    fn find(&self, conn: &FlowKey) -> Option<usize> {
        let cap = self.buckets.len();
        if cap == 0 {
            return None;
        }
        let mut i = home(conn, self.secret, cap);
        loop {
            match &self.buckets[i] {
                None => return None,
                Some((k, _)) if k == conn => return Some(i),
                Some(_) => i = (i + 1) & (cap - 1),
            }
        }
    }

    /// The record in bucket `at`, if it holds one.
    fn at(&mut self, at: Option<usize>) -> Option<&mut Record> {
        self.buckets[at?].as_mut().map(|(_, r)| &mut **r)
    }

    fn get_mut(&mut self, conn: &FlowKey) -> Option<&mut Record> {
        let at = self.find(conn);
        self.at(at)
    }

    /// The first empty bucket on `conn`'s probe path (the array has one:
    /// it is at most half full).
    fn vacant(&self, conn: &FlowKey) -> usize {
        let cap = self.buckets.len();
        let mut i = home(conn, self.secret, cap);
        while self.buckets[i].is_some() {
            i = (i + 1) & (cap - 1);
        }
        i
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
        let cap = self.buckets.len();
        if 2 * (self.records + 1) > cap {
            self.resize((2 * cap).max(MIN_BUCKETS));
        }
        let i = self.vacant(&conn);
        self.records += 1;
        self.buckets[i] = Some((conn, rec));
        i
    }

    /// Move every record into a fresh array of `cap` buckets, a power of
    /// two at least twice `records`.
    fn resize(&mut self, cap: usize) {
        let old = std::mem::replace(
            &mut self.buckets,
            std::iter::repeat_with(|| None).take(cap).collect(),
        );
        for (conn, rec) in old.into_vec().into_iter().flatten() {
            let i = self.vacant(&conn);
            self.buckets[i] = Some((conn, rec));
        }
    }

    /// Drop `key`'s entry, and its record with it when the reverse
    /// direction is not tracked.
    fn remove(&mut self, key: &FlowKey) -> bool {
        let (conn, side, _) = locate(key);
        let Some(i) = self.find(&conn) else {
            return false;
        };
        let Some(rec) = self.at(Some(i)).filter(|r| r.halves[side].is_some()) else {
            return false;
        };
        // A key that is its own reverse is half 0, and half 1 is empty.
        if rec.halves[1 - side].is_some() {
            rec.halves[side] = None;
        } else {
            self.remove_at(i);
        }
        self.entries -= 1;
        true
    }

    /// Empty bucket `hole`, then shift back every later record of its
    /// cluster whose probe path passes the hole, so that no probe ever
    /// stops short of its key.
    fn remove_at(&mut self, mut hole: usize) {
        self.buckets[hole] = None;
        self.records -= 1;
        let cap = self.buckets.len();
        let mask = cap - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let Some((conn, _)) = &self.buckets[i] else {
                return;
            };
            // Distances forward from `conn`'s home and from the hole to
            // i: the record may move iff the hole is no nearer to i than
            // home.
            let from_home = (i + cap - home(conn, self.secret, cap)) & mask;
            if from_home >= (i + cap - hole) & mask {
                self.buckets[hole] = self.buckets[i].take();
                hole = i;
            }
        }
    }

    /// Offer each record exactly once to `keep`, which may drop halves
    /// and says whether any is left; drop the records it rejects. Then
    /// halve the array while it is less than an eighth full (never below
    /// [`MIN_BUCKETS`]), so that after a flood the table's memory and
    /// every later walk over it follow the live records, not the peak.
    /// The walk starts just past an empty bucket, which no cluster spans:
    /// a removal only shifts records from later in the hole's cluster, so
    /// none lands on a bucket the walk has already passed.
    fn retain(&mut self, mut keep: impl FnMut(&FlowKey, &mut Record) -> bool) {
        let cap = self.buckets.len();
        let Some(empty) = self.buckets.iter().position(Option::is_none) else {
            return;
        };
        let mut i = empty;
        for _ in 0..cap {
            i = (i + 1) & (cap - 1);
            while let Some((conn, rec)) = &mut self.buckets[i] {
                if keep(conn, rec) {
                    break;
                }
                // Re-examine i: a later record may have shifted into it.
                self.remove_at(i);
            }
        }
        let mut fit = cap;
        while fit > MIN_BUCKETS && 8 * self.records < fit {
            fit /= 2;
        }
        if fit < cap {
            self.resize(fit);
        }
    }

    /// Records in bucket order, with their connection keys.
    fn iter(&self) -> impl Iterator<Item = (&FlowKey, &Record)> {
        self.buckets.iter().flatten().map(|(k, r)| (k, &**r))
    }

    /// Evict the entry idle the longest (smallest key on ties), never
    /// `avoid`, the key about to be inserted. Returns `false` when
    /// nothing is evictable.
    fn evict_one(&mut self, avoid: &FlowKey) -> bool {
        let mut victim: Option<(Nanos, FlowKey)> = None;
        for (conn, rec) in self.iter() {
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
    index: Mutex<Index>,
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
            index: Mutex::new(Index {
                buckets: Box::default(),
                records: 0,
                entries: 0,
                epoch: 0,
                secret: placement_secret(),
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
        self.index.lock().epoch
    }

    /// Stamp the GC epoch: idleness in subsequent [`FlowTable::gc`]
    /// sweeps is measured from no earlier than `at`. Called on datapath
    /// reset and checkpoint restore; stamps never move backwards.
    pub fn set_epoch(&self, at: Nanos) {
        let mut index = self.index.lock();
        index.epoch = index.epoch.max(at);
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
        self.index.lock().get_mut(&conn)?.halves[side]
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
        in_turn(self.index.lock().get_mut(&conn), side, rside, f, g)
    }

    /// Make room for one more entry per the admission policy, evicting
    /// never `key`.
    fn admit(&self, index: &mut Index, key: &FlowKey) -> Admission {
        if self.max_flows.is_none_or(|cap| index.entries < cap) {
            return Admission::Created;
        }
        match self.admission {
            AdmissionPolicy::RejectNew => Admission::Rejected,
            AdmissionPolicy::EvictOldestIdle if index.evict_one(key) => {
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
        let mut index = self.index.lock();
        let mut at = index.find(&conn);
        let mut adm = Admission::Existing;
        if index.at(at).is_none_or(|r| r.halves[side].is_none()) {
            adm = self.admit(&mut index, &key);
            if adm.created() {
                if adm != Admission::Created {
                    // The victim's removal may have moved this record.
                    at = index.find(&conn);
                }
                at = Some(index.put(conn, at, side, init()));
            }
        }
        let rec = index.at(at);
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
        self.index.lock().remove(key)
    }

    /// Number of tracked entries, one per direction (O(1)).
    pub fn len(&self) -> usize {
        self.index.lock().entries
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of connection records, each holding one or both
    /// directions (O(1)).
    pub fn connections(&self) -> usize {
        self.index.lock().records
    }

    /// Drop every entry (vSwitch restart) and free the bucket array,
    /// however large a flood grew it. Returns the number removed.
    pub fn clear(&self) -> usize {
        let mut index = self.index.lock();
        index.buckets = Box::default();
        index.records = 0;
        std::mem::take(&mut index.entries)
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
    /// (down to [`MIN_BUCKETS`]); [`FlowTable::clear`] frees it.
    pub fn gc(&self, now: Nanos, idle_timeout: Nanos) -> impl ExactSizeIterator<Item = FlowKey> {
        // Each collected key is tagged with its `sweep_order` as it is
        // found. Bucket order is not sweep order, so the whole list is
        // sorted once, after the lock is released.
        let mut evicted: Vec<(usize, FlowKey)> = Vec::new();
        {
            let mut index = self.index.lock();
            let epoch = index.epoch;
            index.retain(|conn, rec| {
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
            index.entries -= evicted.len();
            debug_assert!(
                index.entries == index.iter().map(|(_, r)| r.len()).sum::<usize>(),
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
        let mut index = self.index.lock();
        for (conn, rec) in index.buckets.iter_mut().flatten() {
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
        t.index.lock().buckets.len()
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
        {
            let index = t.index.lock();
            assert_eq!((index.records, index.buckets.len()), (0, 0));
        }
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

    /// The longest probe any entry needs, in buckets.
    fn longest_probe(t: &FlowTable) -> usize {
        let index = t.index.lock();
        let cap = index.buckets.len();
        let probe = |(i, b): (usize, &Bucket)| {
            b.as_ref()
                .map(|(k, _)| ((i + cap - home(k, index.secret, cap)) & (cap - 1)) + 1)
        };
        index
            .buckets
            .iter()
            .enumerate()
            .filter_map(probe)
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn ports_chosen_against_the_public_hash_do_not_cluster() {
        // What a sender can compute without the secret: 24 connections
        // whose keys share the low hash bits an unkeyed placement would
        // use for a home in the 64-bucket array 24 records grow the table
        // to. The sender picks the data direction's ports; its connection
        // key is the reverse (10.0.0.2 sorts first).
        let chosen: Vec<FlowKey> = (0..=u8::MAX)
            .flat_map(|a| {
                (0..=u16::MAX).map(move |p| FlowKey {
                    src_ip: [10, 0, 1, a],
                    ..key(p)
                })
            })
            .filter(|k| k.canonical().hash64() & 0x3f == 0)
            .take(24)
            .collect();
        assert_eq!(chosen.len(), 24);
        assert!(chosen.iter().all(|k| k.canonical() == k.reverse()));
        let golden = 0x9e37_79b9_7f4a_7c15_u64;
        for secret in (1..=32).map(|s| golden.wrapping_mul(s)) {
            let t = FlowTable::new();
            t.index.lock().secret = secret;
            for &k in &chosen {
                t.get_or_create(k, || entry(0));
                t.get_or_create(k.reverse(), || entry(0));
            }
            assert_eq!((t.len(), buckets(&t)), (48, 64));
            // Unkeyed, the last of them would probe 24 buckets; keyed,
            // these 32 secrets give at most 9.
            let longest = longest_probe(&t);
            assert!(
                longest <= 12,
                "secret {secret:#x}: a {longest}-bucket probe"
            );
        }
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
