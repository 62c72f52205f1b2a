//! A small, type-erased memo of structures derived from an immutable value.
//!
//! [`crate::Graph`] carries one so that expensive derived structures (a
//! distributed engine's partition and per-machine buckets, say) are built
//! once per graph and shared by every later user instead of being rebuilt
//! on each call. Keys are matched by exact `Eq` equality — no hashing — and
//! at most [`MEMO_CAP`] entries are kept, the oldest evicted first.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Entries a memo keeps; inserting past this evicts the oldest.
pub(crate) const MEMO_CAP: usize = 4;

/// A type-erased key and the value built for it.
type Entry = (Box<dyn Any + Send + Sync>, Arc<dyn Any + Send + Sync>);

/// The memo. Cloning yields an *empty* memo, so a copy never shares
/// derived structures with its original; rebuilding is always correct.
#[derive(Default)]
pub(crate) struct Memo {
    entries: Mutex<VecDeque<Entry>>,
}

impl Clone for Memo {
    fn clone(&self) -> Self {
        Memo::default()
    }
}

impl Memo {
    /// The value memoised under `key`, building it with `build` on a miss.
    ///
    /// The lock is held only for the lookup and the insert, never while
    /// `build` runs, so a slow build does not stall lookups of other keys
    /// and a panicking build leaves the memo usable. Two callers that miss
    /// on the same key at once may both build; the first insert wins and
    /// both get its value.
    pub(crate) fn get_or_build<K, T>(&self, key: K, build: impl FnOnce() -> T) -> Arc<T>
    where
        K: Any + Eq + Send + Sync,
        T: Any + Send + Sync,
    {
        if let Some(hit) = find(&self.lock(), &key) {
            return hit;
        }
        let built = Arc::new(build());
        let mut entries = self.lock();
        if let Some(hit) = find(&entries, &key) {
            return hit;
        }
        if entries.len() == MEMO_CAP {
            entries.pop_front();
        }
        entries.push_back((Box::new(key), built.clone()));
        built
    }

    /// Number of entries held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<Entry>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The value of type `T` stored under a key equal to `key`.
fn find<K, T>(entries: &VecDeque<Entry>, key: &K) -> Option<Arc<T>>
where
    K: Any + Eq,
    T: Any + Send + Sync,
{
    entries
        .iter()
        .find(|(k, v)| k.downcast_ref::<K>() == Some(key) && v.is::<T>())
        .and_then(|(_, v)| Arc::clone(v).downcast::<T>().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn hits_share_one_value() {
        let memo = Memo::default();
        let builds = Cell::new(0);
        let build = || {
            builds.set(builds.get() + 1);
            vec![1u32, 2, 3]
        };
        let a = memo.get_or_build(7u32, build);
        let b = memo.get_or_build(7u32, build);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(builds.get(), 1);
    }

    #[test]
    fn keys_match_by_type_and_equality() {
        let memo = Memo::default();
        let a = memo.get_or_build(1u32, || "u32 one");
        let b = memo.get_or_build(1u64, || "u64 one");
        let c = memo.get_or_build(2u32, || "u32 two");
        let d = memo.get_or_build(1u32, || 1.5f64);
        assert_eq!((*a, *b, *c, *d), ("u32 one", "u64 one", "u32 two", 1.5));
        assert_eq!(memo.len(), 4);
        assert_eq!(*memo.get_or_build(1u32, || "rebuilt"), "u32 one");
    }

    #[test]
    fn holds_at_most_cap_entries_and_evicts_oldest_first() {
        let memo = Memo::default();
        let builds = Cell::new(0);
        let get = |k: usize| {
            *memo.get_or_build(k, || {
                builds.set(builds.get() + 1);
                k * 10
            })
        };
        for k in 0..MEMO_CAP {
            assert_eq!(get(k), k * 10);
        }
        assert_eq!(builds.get(), MEMO_CAP);
        // A hit does not refresh an entry's age: key 0 stays the oldest.
        get(0);
        get(MEMO_CAP);
        assert_eq!(memo.len(), MEMO_CAP);
        assert_eq!(builds.get(), MEMO_CAP + 1);
        for k in 1..=MEMO_CAP {
            get(k);
        }
        assert_eq!(builds.get(), MEMO_CAP + 1, "keys 1..=CAP are still held");
        get(0);
        assert_eq!(builds.get(), MEMO_CAP + 2, "key 0 was evicted");
        assert_eq!(memo.len(), MEMO_CAP);
    }

    #[test]
    fn a_panicking_build_leaves_the_memo_usable() {
        let memo = Memo::default();
        memo.get_or_build(1u8, || "kept");
        let failed = catch_unwind(AssertUnwindSafe(|| {
            memo.get_or_build(2u8, || -> &str { panic!("build failed") })
        }));
        assert!(failed.is_err());
        assert_eq!(*memo.get_or_build(1u8, || "rebuilt"), "kept");
        assert_eq!(*memo.get_or_build(2u8, || "second try"), "second try");
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn a_poisoned_lock_is_recovered() {
        let memo = Memo::default();
        memo.get_or_build(1u8, || "kept");
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            let _guard = memo.entries.lock().unwrap();
            panic!("poison the lock");
        }));
        assert!(poisoned.is_err());
        assert!(memo.entries.is_poisoned());
        assert_eq!(*memo.get_or_build(1u8, || "rebuilt"), "kept");
        assert_eq!(*memo.get_or_build(2u8, || "new"), "new");
    }
}
