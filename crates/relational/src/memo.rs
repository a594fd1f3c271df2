//! The one memo behind every counting cache.
//!
//! The paper's method asks the `‖·‖` primitive the same questions many
//! times (§6.1 asks each join of `Q` for three cardinalities, §6.2.2
//! runs a batch of `A → b` tests over one `A`), so the `StatsEngine`
//! memoizes each probe's answer and the columnar backend each encoded
//! set. All eight caches are one [`Memo`]: a map from a key to a value
//! tagged with the table generation(s) it was built from
//! ([`Database::generation`]). An entry is served only at its tag; a
//! build at a new tag replaces it.
//!
//! Keys are shared by concurrent sessions, so a missing entry is built
//! *outside* the lock and re-checked under the write lock: a concurrent
//! winner's entry is adopted as a hit and the loser's build dropped,
//! which wastes the loser's pass but never serializes distinct keys.
//!
//! A poisoned lock (a thread panicked holding the write guard) is
//! recovered by *purging* the map, never by serving it: the panicking
//! thread may have installed a value computed from a state that blew
//! up halfway. Dropping a cache is always sound — the next probe
//! rebuilds from the extension — and the poison flag is cleared.

use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::Hash;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(doc)]
use crate::database::Database;

/// A generation-tagged get-or-build cache (see the module docs). `V`
/// is cloned out on every lookup, so it is a small value or an `Arc`.
pub(crate) struct Memo<K, V, Tag = u64> {
    map: RwLock<HashMap<K, (Tag, V)>>,
}

/// What one [`Memo`] lookup served.
pub(crate) struct Served<V> {
    /// The entry at the asked tag.
    pub(crate) value: V,
    /// `true` when the entry was already there — found by the first
    /// read, or installed by a concurrent build that won the race —
    /// and `false` when this lookup built it.
    pub(crate) hit: bool,
}

impl<K, V, Tag> Default for Memo<K, V, Tag> {
    fn default() -> Self {
        Memo {
            map: RwLock::default(),
        }
    }
}

impl<K: Hash + Eq, V: Clone, Tag: PartialEq> Memo<K, V, Tag> {
    /// Serves `key`'s entry if it is tagged `tag`; otherwise runs
    /// `build` outside the lock and installs its value at `tag`, unless
    /// a concurrent build installed one first, which is then served as
    /// a hit. A failed build installs nothing.
    pub(crate) fn get_or_try_init<E>(
        &self,
        key: K,
        tag: Tag,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<Served<V>, E> {
        let cached = |map: &HashMap<K, (Tag, V)>, key: &K| {
            map.get(key)
                .filter(|(at, _)| *at == tag)
                .map(|(_, value)| Served {
                    value: value.clone(),
                    hit: true,
                })
        };
        if let Some(served) = cached(&self.read(), &key) {
            return Ok(served);
        }
        let value = build()?;
        let mut map = self.write();
        if let Some(served) = cached(&map, &key) {
            return Ok(served);
        }
        map.insert(key, (tag, value.clone()));
        Ok(Served { value, hit: false })
    }

    /// [`Memo::get_or_try_init`] for a build that cannot fail.
    pub(crate) fn get_or_init(&self, key: K, tag: Tag, build: impl FnOnce() -> V) -> Served<V> {
        match self.get_or_try_init(key, tag, || Ok::<V, Infallible>(build())) {
            Ok(served) => served,
            Err(never) => match never {},
        }
    }

    /// The read guard, purging the map first if the lock is poisoned.
    fn read(&self) -> RwLockReadGuard<'_, HashMap<K, (Tag, V)>> {
        if let Ok(guard) = self.map.read() {
            return guard;
        }
        drop(self.write());
        self.map.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The write guard, purging the map if the lock is poisoned.
    fn write(&self) -> RwLockWriteGuard<'_, HashMap<K, (Tag, V)>> {
        self.map.write().unwrap_or_else(|poison| {
            let mut map = poison.into_inner();
            map.clear();
            self.map.clear_poison();
            map
        })
    }
}

#[cfg(test)]
impl<K: Send + Sync, V: Send + Sync, Tag: Send + Sync> Memo<K, V, Tag>
where
    K: Hash + Eq,
{
    /// Installs `value` from a thread that then panics while holding
    /// the write guard, leaving the lock poisoned with `value` in it:
    /// what a writer that blew up mid-insert would leave behind.
    pub(crate) fn plant_and_poison(&self, key: K, tag: Tag, value: V) {
        std::thread::scope(|s| {
            let planter = s.spawn(|| {
                let mut map = self.map.write().unwrap();
                map.insert(key, (tag, value));
                panic!("poison the memo");
            });
            assert!(planter.join().is_err(), "the planting thread must panic");
        });
        assert!(self.map.is_poisoned(), "the lock must be poisoned");
    }

    /// Whether the lock is poisoned.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.map.is_poisoned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    /// Two threads miss one cold key at once and both build: the first
    /// to take the write lock installs its value, the other adopts it
    /// as a hit. One entry, one build counted, one hit.
    #[test]
    fn racing_builds_give_one_entry_one_miss_one_hit() {
        let memo: Memo<&str, Arc<usize>> = Memo::default();
        let both_missed = Barrier::new(2);
        let served: Vec<Served<Arc<usize>>> = std::thread::scope(|s| {
            let racers: Vec<_> = [1usize, 2]
                .into_iter()
                .map(|id| {
                    let (memo, both_missed) = (&memo, &both_missed);
                    s.spawn(move || {
                        memo.get_or_init("k", 7, || {
                            both_missed.wait();
                            Arc::new(id)
                        })
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let built: Vec<&Served<Arc<usize>>> = served.iter().filter(|s| !s.hit).collect();
        assert_eq!(built.len(), 1, "one build is installed, the other adopted");
        let winner = &built[0].value;
        for s in &served {
            assert!(Arc::ptr_eq(&s.value, winner), "both serve the one entry");
        }
        let again = memo.get_or_init("k", 7, || unreachable!("the entry is cached"));
        assert!(again.hit && Arc::ptr_eq(&again.value, winner));
    }

    /// A lookup at a new tag rebuilds and replaces the entry; the old
    /// tag's value is then gone.
    #[test]
    fn a_stale_tag_rebuilds_and_replaces_the_entry() {
        let memo: Memo<u32, &str> = Memo::default();
        let first = memo.get_or_init(1, 10, || "gen 10");
        assert!(!first.hit);
        let hit = memo.get_or_init(1, 10, || unreachable!("cached at tag 10"));
        assert!(hit.hit);
        assert_eq!(hit.value, "gen 10");
        let rebuilt = memo.get_or_init(1, 11, || "gen 11");
        assert!(!rebuilt.hit);
        assert_eq!(rebuilt.value, "gen 11");
        assert_eq!(
            memo.get_or_init(1, 10, || "gen 10 again").value,
            "gen 10 again"
        );
        // A failed build installs nothing.
        let failed = memo.get_or_try_init(2, 10, || Err::<&str, _>("no"));
        assert_eq!(failed.err(), Some("no"));
        assert!(!memo.get_or_init(2, 10, || "built").hit);
    }

    /// A tag compares as a whole: a pair of generations (the join memo)
    /// is stale when either half moved.
    #[test]
    fn a_pair_tag_is_stale_when_either_half_moves() {
        let memo: Memo<&str, u32, (u64, u64)> = Memo::default();
        memo.get_or_init("j", (1, 1), || 0);
        assert!(memo.get_or_init("j", (1, 1), || 9).hit);
        assert!(!memo.get_or_init("j", (2, 1), || 1).hit);
        assert!(!memo.get_or_init("j", (2, 3), || 2).hit);
        assert_eq!(memo.get_or_init("j", (2, 3), || 9).value, 2);
    }

    /// A writer that panics holding the write guard poisons the lock
    /// with whatever it planted. Recovery must purge the map, never
    /// serve the planted entry, and clear the poison.
    #[test]
    fn a_poisoned_lock_is_purged_not_served() {
        let memo: Memo<u32, usize> = Memo::default();
        assert_eq!(memo.get_or_init(1, 5, || 4).value, 4);
        memo.plant_and_poison(1, 5, 999);
        let served = memo.get_or_init(1, 5, || 4);
        assert!(!served.hit, "the planted entry was purged");
        assert_eq!(served.value, 4);
        assert!(!memo.is_poisoned(), "recovery clears the poison");
        assert!(memo.get_or_init(1, 5, || 0).hit);
    }
}
