//! `PMap<K, V>`: a checkpointed ordered map.

use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;

use crate::heap::{Heap, HeapValue, Holder, ObjId};

/// A handle to a `BTreeMap<K, V>` stored in a [`Heap`], with undo-logged
/// mutation. Servers keep their tables (process table, file table, key-value
/// store…) in `PMap`s so a crashed request can be rolled back precisely.
///
/// Map mutations are never coalesced: the coalescing index is type-erased and
/// cannot compare keys, and hashing alone cannot prove two keys equal.
///
/// ```
/// # use osiris_checkpoint::Heap;
/// let mut heap = Heap::new("demo");
/// let m = heap.alloc_map::<u32, String>("procs");
/// m.insert(&mut heap, 1, "init".into());
/// assert_eq!(m.with(&heap, &1, |name| name.len()), Some(4));
/// ```
pub struct PMap<K, V> {
    id: ObjId,
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K, V> Copy for PMap<K, V> {}

impl<K, V> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PMap({:?})", self.id)
    }
}

/// Key bound for [`PMap`]: ordinary ordered heap values.
pub trait MapKey: HeapValue + Ord {}
impl<K: HeapValue + Ord> MapKey for K {}

fn entry_bytes<K, V>() -> usize {
    std::mem::size_of::<K>() + std::mem::size_of::<V>()
}

fn refresh_bytes<K: MapKey, V: HeapValue>(holder: &mut Holder<BTreeMap<K, V>>) {
    holder.extra_bytes = holder.value.len() * entry_bytes::<K, V>();
}

impl Heap {
    /// Allocates a new empty [`PMap`] named `name`.
    pub fn alloc_map<K: MapKey, V: HeapValue>(&mut self, name: &'static str) -> PMap<K, V> {
        PMap {
            id: self.alloc_obj(name, BTreeMap::<K, V>::new()),
            _marker: PhantomData,
        }
    }
}

impl<K: MapKey, V: HeapValue> PMap<K, V> {
    /// Number of entries.
    pub fn len(&self, heap: &Heap) -> usize {
        heap.holder::<BTreeMap<K, V>>(self.id).value.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self, heap: &Heap) -> bool {
        self.len(heap) == 0
    }

    /// Returns a copy of the value stored under `key`. Only for `Copy`
    /// values: read anything else by borrow ([`PMap::with`]), or spell a
    /// deliberate deep copy [`PMap::cloned`].
    pub fn get(&self, heap: &Heap, key: &K) -> Option<V>
    where
        V: Copy,
    {
        heap.holder::<BTreeMap<K, V>>(self.id)
            .value
            .get(key)
            .copied()
    }

    /// Returns a deep copy of the value stored under `key`.
    pub fn cloned(&self, heap: &Heap, key: &K) -> Option<V> {
        heap.holder::<BTreeMap<K, V>>(self.id)
            .value
            .get(key)
            .cloned()
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, heap: &Heap, key: &K) -> bool {
        heap.holder::<BTreeMap<K, V>>(self.id)
            .value
            .contains_key(key)
    }

    /// Applies `f` to a shared reference of the value under `key`.
    pub fn with<R>(&self, heap: &Heap, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        heap.holder::<BTreeMap<K, V>>(self.id).value.get(key).map(f)
    }

    /// Applies `f` to a shared reference of the underlying map.
    pub fn with_map<R>(&self, heap: &Heap, f: impl FnOnce(&BTreeMap<K, V>) -> R) -> R {
        f(&heap.holder::<BTreeMap<K, V>>(self.id).value)
    }

    /// Inserts `value` under `key`. When a record is owed, the displaced
    /// binding (or its absence) moves into the undo journal; otherwise it is
    /// dropped. Nothing is cloned but the key of a logged store.
    pub fn insert(&self, heap: &mut Heap, key: K, value: V) {
        let undo_key = heap.note_write(self.id).then(|| key.clone());
        let h = heap.holder_mut::<BTreeMap<K, V>>(self.id);
        let prev = h.value.insert(key, value);
        refresh_bytes(h);
        if let Some(undo_key) = undo_key {
            heap.log_map_insert_old(self.id, undo_key, prev);
        }
    }

    /// Removes the binding for `key`, returning its value. When a record is
    /// owed, the removed key and value move into the undo journal and the
    /// caller gets the one copy made of the value. Removing an absent key
    /// logs nothing. A caller that drops the value calls [`PMap::delete`].
    pub fn remove(&self, heap: &mut Heap, key: &K) -> Option<V> {
        let h = heap.holder_mut::<BTreeMap<K, V>>(self.id);
        let (key, old) = h.value.remove_entry(key)?;
        refresh_bytes(h);
        if !heap.note_write(self.id) {
            return Some(old);
        }
        let copy = old.clone();
        heap.log_map_remove_old(self.id, key, old);
        Some(copy)
    }

    /// [`PMap::remove`] without the copy: the removed binding moves into the
    /// undo journal when a record is owed and is dropped otherwise. Returns
    /// whether `key` was present.
    pub fn delete(&self, heap: &mut Heap, key: &K) -> bool {
        let h = heap.holder_mut::<BTreeMap<K, V>>(self.id);
        let Some((key, old)) = h.value.remove_entry(key) else {
            return false;
        };
        refresh_bytes(h);
        if heap.note_write(self.id) {
            heap.log_map_remove_old(self.id, key, old);
        }
        true
    }

    /// Mutates the value under `key` in place, in one lookup, logging a copy
    /// of the old value first when a record is owed. Returns `None` (without
    /// calling `f`) if the key is absent.
    pub fn update<R>(&self, heap: &mut Heap, key: &K, f: impl FnOnce(&mut V) -> R) -> Option<R> {
        heap.update_map(self.id, key, f)
    }

    /// Calls `f` for every `(key, value)` pair in key order.
    pub fn for_each(&self, heap: &Heap, mut f: impl FnMut(&K, &V)) {
        for (k, v) in heap.holder::<BTreeMap<K, V>>(self.id).value.iter() {
            f(k, v);
        }
    }

    /// Returns a clone of all keys, in order.
    pub fn keys(&self, heap: &Heap) -> Vec<K> {
        heap.holder::<BTreeMap<K, V>>(self.id)
            .value
            .keys()
            .cloned()
            .collect()
    }

    /// Returns the first key matching `pred`, if any.
    pub fn find_key(&self, heap: &Heap, mut pred: impl FnMut(&K, &V) -> bool) -> Option<K> {
        heap.holder::<BTreeMap<K, V>>(self.id)
            .value
            .iter()
            .find(|(k, v)| pred(k, v))
            .map(|(k, _)| k.clone())
    }

    /// Returns a full snapshot clone of the map.
    pub fn snapshot(&self, heap: &Heap) -> BTreeMap<K, V> {
        heap.holder::<BTreeMap<K, V>>(self.id).value.clone()
    }
}

#[cfg(test)]
mod tests {
    use crate::Heap;

    #[test]
    fn insert_get_remove() {
        let mut h = Heap::new("t");
        let m = h.alloc_map::<u32, &'static str>("m");
        m.insert(&mut h, 1, "a");
        assert_eq!(m.get(&h, &1), Some("a"));
        m.insert(&mut h, 1, "b");
        assert_eq!((m.get(&h, &1), m.len(&h)), (Some("b"), 1));
        assert_eq!(m.remove(&mut h, &1), Some("b"));
        assert!(m.is_empty(&h));
        m.insert(&mut h, 2, "c");
        assert!(m.delete(&mut h, &2) && !m.delete(&mut h, &2));
        assert!(m.is_empty(&h));
    }

    #[test]
    fn rollback_restores_bindings() {
        let mut h = Heap::new("t");
        let m = h.alloc_map::<u32, String>("m");
        m.insert(&mut h, 1, "one".into());
        m.insert(&mut h, 2, "two".into());
        h.set_logging(true);
        let mark = h.mark();
        m.insert(&mut h, 3, "three".into());
        m.remove(&mut h, &1);
        m.update(&mut h, &2, |v| *v = "TWO".into());
        h.rollback_to(mark);
        assert_eq!(m.cloned(&h, &1).as_deref(), Some("one"));
        assert_eq!(m.cloned(&h, &2).as_deref(), Some("two"));
        assert_eq!(m.cloned(&h, &3), None);
        assert_eq!(m.len(&h), 2);
    }

    #[test]
    fn update_absent_key_is_noop() {
        let mut h = Heap::new("t");
        let m = h.alloc_map::<u32, u32>("m");
        h.set_logging(true);
        assert_eq!(m.update(&mut h, &7, |v| *v += 1), None);
        assert_eq!(h.log_len(), 0);
    }

    #[test]
    fn remove_absent_key_logs_nothing() {
        let mut h = Heap::new("t");
        let m = h.alloc_map::<u32, u32>("m");
        h.set_logging(true);
        assert_eq!(m.remove(&mut h, &7), None);
        assert_eq!(h.log_len(), 0);
    }

    #[test]
    fn keys_and_find_key_are_ordered() {
        let mut h = Heap::new("t");
        let m = h.alloc_map::<u32, u32>("m");
        for k in [3, 1, 2] {
            m.insert(&mut h, k, k * 10);
        }
        assert_eq!(m.keys(&h), vec![1, 2, 3]);
        assert_eq!(m.find_key(&h, |_, v| *v > 15), Some(2));
    }

    #[test]
    fn map_writes_are_never_coalesced() {
        let mut h = Heap::new("t");
        let m = h.alloc_map::<u32, u64>("m");
        m.insert(&mut h, 1, 0);
        h.set_logging(true);
        let mark = h.mark();
        for i in 1..=5 {
            m.insert(&mut h, 1, i);
        }
        assert_eq!(h.log_len(), 5);
        assert_eq!(h.stats().coalesced_writes, 0);
        h.rollback_to(mark);
        assert_eq!(m.get(&h, &1), Some(0));
    }

    #[test]
    fn owned_keys_and_values_roll_back_exactly() {
        let mut h = Heap::new("t");
        let m = h.alloc_map::<String, Vec<u8>>("m");
        m.insert(&mut h, "a".into(), vec![1]);
        h.set_logging(true);
        let mark = h.mark();
        m.insert(&mut h, "a".into(), vec![9, 9]);
        m.insert(&mut h, "b".into(), vec![2]);
        m.remove(&mut h, &"a".to_string());
        h.rollback_to(mark);
        assert_eq!(m.cloned(&h, &"a".to_string()), Some(vec![1]));
        assert_eq!(m.cloned(&h, &"b".to_string()), None);
    }
}
