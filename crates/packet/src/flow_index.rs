//! [`FlowIndex`]: the workspace's one hash index keyed by [`FlowKey`].
//!
//! The vSwitch flow table files its connection records in one, and every
//! simulated host demuxes arriving segments to its connections through
//! another: one probe per lookup where a `BTreeMap` walks a path of
//! nodes.
//!
//! Linear probing over a power-of-two bucket array kept at most half
//! full, so a probe for an absent key ends at the first empty bucket.
//! Removal shifts the rest of the cluster back over the hole, so there
//! are no tombstones and probes do not lengthen with churn. An empty
//! index allocates nothing; its first insert allocates [`MIN_BUCKETS`].
//! [`FlowIndex::retain`] halves an array left less than an eighth full,
//! and [`FlowIndex::clear`] frees it, so a walk costs the buckets the
//! index holds now, not the most it ever held.
//!
//! Placement is keyed by a secret drawn once per process. Flow keys are
//! wire input: were the home bucket a public function of the key, a
//! sender choosing its ports could pile keys into one probe cluster and
//! make every operation O(cluster). So walk order depends on the secret
//! and on history, and nothing observable may follow it: a caller that
//! publishes what a walk finds orders it by content first.

use std::hash::{BuildHasher, RandomState};
use std::sync::OnceLock;

use crate::{mix64, FlowKey};

/// Buckets an index allocates on its first insert, and the fewest
/// [`FlowIndex::retain`] shrinks it to.
pub const MIN_BUCKETS: usize = 8;

/// This process's placement secret, drawn once from the standard
/// library's randomly keyed SipHash.
fn placement_secret() -> u64 {
    static SECRET: OnceLock<u64> = OnceLock::new();
    *SECRET.get_or_init(|| RandomState::new().hash_one(()))
}

/// `key`'s placement hash under `secret`: the 12 key bytes read as two
/// words (addresses, ports) and mixed in turn, two multiply chains where
/// a byte-wise hash runs twelve dependent multiplies.
#[inline]
fn place(key: &FlowKey, secret: u64) -> u64 {
    let ips =
        u64::from(u32::from_ne_bytes(key.src_ip)) << 32 | u64::from(u32::from_ne_bytes(key.dst_ip));
    let ports = u64::from(key.src_port) << 16 | u64::from(key.dst_port);
    mix64(ips ^ mix64(ports ^ secret))
}

/// An open-addressed map from [`FlowKey`] to `V`, probed linearly from a
/// secretly keyed home bucket (module docs). A bucket is the key beside
/// the value, so a probe compares keys without touching what a value
/// points to; with a `Box` value the bucket is 24 bytes, the `Box`'s
/// niche standing for an empty one.
pub struct FlowIndex<V> {
    buckets: Box<[Option<(FlowKey, V)>]>,
    /// Occupied buckets.
    len: usize,
    /// Keys placement ([`placement_secret`]).
    secret: u64,
}

impl<V> Default for FlowIndex<V> {
    fn default() -> Self {
        FlowIndex::new()
    }
}

impl<V> FlowIndex<V> {
    /// An empty index; it allocates nothing until its first insert.
    pub fn new() -> FlowIndex<V> {
        FlowIndex {
            buckets: Box::default(),
            len: 0,
            secret: placement_secret(),
        }
    }

    /// Keys held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Does the index hold no key?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Buckets allocated: 0, or a power of two at least [`MIN_BUCKETS`]
    /// and at least twice [`FlowIndex::len`].
    pub fn buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The bucket a probe for `key` starts at; the array is not empty.
    #[inline]
    fn home(&self, key: &FlowKey) -> usize {
        place(key, self.secret) as usize & (self.buckets.len() - 1)
    }

    /// Where `key` is: `Ok` with the bucket holding it, or `Err` with the
    /// first empty bucket on its probe path. The array is not empty, and
    /// at most half full, so it has one.
    #[inline]
    fn probe(&self, key: &FlowKey) -> Result<usize, usize> {
        let mask = self.buckets.len() - 1;
        let mut i = self.home(key);
        loop {
            match &self.buckets[i] {
                None => return Err(i),
                Some((k, _)) if k == key => return Ok(i),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// The bucket holding `key`, if present. It stays valid until the
    /// next insert or removal.
    #[inline]
    pub fn find(&self, key: &FlowKey) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        self.probe(key).ok()
    }

    /// `key`'s value, if present.
    #[inline]
    pub fn get(&self, key: &FlowKey) -> Option<&V> {
        let at = self.find(key)?;
        self.buckets[at].as_ref().map(|(_, v)| v)
    }

    /// `key`'s value, mutably, if present.
    #[inline]
    pub fn get_mut(&mut self, key: &FlowKey) -> Option<&mut V> {
        let at = self.find(key)?;
        self.at_mut(at)
    }

    /// The value in bucket `at` ([`FlowIndex::find`]), if it holds one.
    #[inline]
    pub fn at_mut(&mut self, at: usize) -> Option<&mut V> {
        self.buckets[at].as_mut().map(|(_, v)| v)
    }

    /// The first empty bucket on `key`'s probe path (the array has one:
    /// it is at most half full).
    fn vacant(&self, key: &FlowKey) -> usize {
        let mask = self.buckets.len() - 1;
        let mut i = self.home(key);
        while self.buckets[i].is_some() {
            i = (i + 1) & mask;
        }
        i
    }

    /// Map `key` to `value`, replacing any value it had, and return its
    /// bucket. The array doubles when a new key would fill it past half.
    pub fn insert(&mut self, key: FlowKey, value: V) -> usize {
        let cap = self.buckets.len();
        let at = match (cap > 0).then(|| self.probe(&key)) {
            Some(Ok(at)) => {
                self.buckets[at] = Some((key, value));
                return at;
            }
            Some(Err(at)) if 2 * (self.len + 1) <= cap => at,
            _ => {
                self.resize((2 * cap).max(MIN_BUCKETS));
                self.vacant(&key)
            }
        };
        self.buckets[at] = Some((key, value));
        self.len += 1;
        at
    }

    /// Move every key into a fresh array of `cap` buckets, a power of two
    /// at least twice `len`.
    fn resize(&mut self, cap: usize) {
        let old = std::mem::replace(
            &mut self.buckets,
            std::iter::repeat_with(|| None).take(cap).collect(),
        );
        for (key, value) in old.into_vec().into_iter().flatten() {
            let at = self.vacant(&key);
            self.buckets[at] = Some((key, value));
        }
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: &FlowKey) -> Option<V> {
        let at = self.find(key)?;
        self.remove_at(at)
    }

    /// Empty bucket `hole` and return what it held, then shift back every
    /// later key of its cluster whose probe path passes the hole, so that
    /// no probe ever stops short of its key.
    pub fn remove_at(&mut self, mut hole: usize) -> Option<V> {
        let (_, value) = self.buckets[hole].take()?;
        self.len -= 1;
        let cap = self.buckets.len();
        let mask = cap - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let Some((key, _)) = &self.buckets[i] else {
                return Some(value);
            };
            // Distances forward from `key`'s home and from the hole to
            // i: the key may move iff the hole is no nearer to i than
            // home.
            if (i + cap - self.home(key)) & mask >= (i + cap - hole) & mask {
                self.buckets[hole] = self.buckets[i].take();
                hole = i;
            }
        }
    }

    /// Offer each key exactly once to `keep`, which may change its value,
    /// and drop the keys it rejects. Then halve the array while it is
    /// less than an eighth full (never below [`MIN_BUCKETS`]), so that
    /// after a flood the memory held and every later walk follow the live
    /// keys, not the peak. The walk starts just past an empty bucket,
    /// which no cluster spans: a removal only shifts keys from later in
    /// the hole's cluster, so none lands on a bucket already passed.
    pub fn retain(&mut self, mut keep: impl FnMut(&FlowKey, &mut V) -> bool) {
        let cap = self.buckets.len();
        let Some(empty) = self.buckets.iter().position(Option::is_none) else {
            return;
        };
        let mut i = empty;
        for _ in 0..cap {
            i = (i + 1) & (cap - 1);
            while let Some((key, value)) = &mut self.buckets[i] {
                if keep(key, value) {
                    break;
                }
                // Re-examine i: a later key may have shifted into it.
                self.remove_at(i);
            }
        }
        let mut fit = cap;
        while fit > MIN_BUCKETS && 8 * self.len < fit {
            fit /= 2;
        }
        if fit < cap {
            self.resize(fit);
        }
    }

    /// Drop every key and free the bucket array.
    pub fn clear(&mut self) {
        self.buckets = Box::default();
        self.len = 0;
    }

    /// Keys and values in bucket order, which follows the secret and the
    /// history of inserts and removals, never the keys alone.
    pub fn iter(&self) -> impl Iterator<Item = (&FlowKey, &V)> {
        self.buckets.iter().flatten().map(|(k, v)| (k, v))
    }

    /// [`FlowIndex::iter`], with the values mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&FlowKey, &mut V)> {
        self.buckets.iter_mut().flatten().map(|(k, v)| (&*k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(p: u16) -> FlowKey {
        FlowKey {
            src_ip: [10, 0, 0, 1],
            dst_ip: [10, 0, 0, 2],
            src_port: p,
            dst_port: 80,
        }
    }

    /// The longest probe any key needs, in buckets.
    fn longest_probe<V>(ix: &FlowIndex<V>) -> usize {
        let mask = ix.buckets() - 1;
        ix.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                b.as_ref()
                    .map(|(k, _)| ((i + mask + 1 - ix.home(k)) & mask) + 1)
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn ports_chosen_against_the_public_hash_do_not_cluster() {
        // What a sender can compute without the secret: 24 keys that
        // share the low bits an unkeyed placement (the secret zeroed)
        // would use for a home in the 64-bucket array 24 keys grow the
        // index to.
        let chosen: Vec<FlowKey> = (0..=u8::MAX)
            .flat_map(|a| {
                (0..=u16::MAX).map(move |p| FlowKey {
                    src_ip: [10, 0, 1, a],
                    ..key(p)
                })
            })
            .filter(|k| place(k, 0) & 0x3f == 0)
            .take(24)
            .collect();
        assert_eq!(chosen.len(), 24);
        let unkeyed = FlowIndex {
            secret: 0,
            ..FlowIndex::new()
        };
        let build = |mut ix: FlowIndex<()>| {
            for &k in &chosen {
                ix.insert(k, ());
            }
            assert_eq!((ix.len(), ix.buckets()), (24, 64));
            longest_probe(&ix)
        };
        assert_eq!(build(unkeyed), 24, "unkeyed, they share one home");
        let golden = 0x9e37_79b9_7f4a_7c15_u64;
        for secret in (1..=32).map(|s| golden.wrapping_mul(s)) {
            let longest = build(FlowIndex {
                secret,
                ..FlowIndex::new()
            });
            assert!(
                longest <= 12,
                "secret {secret:#x}: a {longest}-bucket probe"
            );
        }
    }
}
