//! `PVec<T>`: a checkpointed growable array.

use std::fmt;
use std::marker::PhantomData;

use crate::heap::{Heap, HeapValue, Holder, ObjId};

/// A handle to a `Vec<T>` stored in a [`Heap`], with undo-logged mutation.
///
/// ```
/// # use osiris_checkpoint::Heap;
/// let mut heap = Heap::new("demo");
/// let v = heap.alloc_vec::<u32>("frames");
/// v.push(&mut heap, 7);
/// assert_eq!(v.get(&heap, 0), Some(7));
/// ```
pub struct PVec<T> {
    id: ObjId,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for PVec<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for PVec<T> {}

impl<T> fmt::Debug for PVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PVec({:?})", self.id)
    }
}

fn refresh_bytes<T: HeapValue>(holder: &mut Holder<Vec<T>>) {
    holder.extra_bytes = holder.value.len() * std::mem::size_of::<T>();
}

impl Heap {
    /// Allocates a new empty [`PVec`] named `name`.
    pub fn alloc_vec<T: HeapValue>(&mut self, name: &'static str) -> PVec<T> {
        self.alloc_vec_from(name, Vec::new())
    }

    /// Allocates a [`PVec`] holding `data`: the same object, contents and
    /// byte accounting as [`Heap::alloc_vec`] plus one push per element, at
    /// the cost of one write instead of `data.len()`. Servers (notably VM)
    /// pre-allocate their large tables this way at boot.
    pub fn alloc_vec_from<T: HeapValue>(&mut self, name: &'static str, data: Vec<T>) -> PVec<T> {
        let id = self.alloc_obj(name, data);
        refresh_bytes(self.holder_mut::<Vec<T>>(id));
        PVec {
            id,
            _marker: PhantomData,
        }
    }
}

impl<T: HeapValue> PVec<T> {
    /// Number of elements.
    pub fn len(&self, heap: &Heap) -> usize {
        heap.holder::<Vec<T>>(self.id).value.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self, heap: &Heap) -> bool {
        self.len(heap) == 0
    }

    /// Returns a copy of the element at `index`, if present. Only for
    /// `Copy` elements; read anything else by borrow ([`PVec::with`]).
    pub fn get(&self, heap: &Heap, index: usize) -> Option<T>
    where
        T: Copy,
    {
        heap.holder::<Vec<T>>(self.id).value.get(index).copied()
    }

    /// Applies `f` to a shared reference of the whole vector.
    pub fn with<R>(&self, heap: &Heap, f: impl FnOnce(&[T]) -> R) -> R {
        f(&heap.holder::<Vec<T>>(self.id).value)
    }

    /// Returns a snapshot clone of the whole vector.
    pub fn snapshot(&self, heap: &Heap) -> Vec<T> {
        heap.holder::<Vec<T>>(self.id).value.clone()
    }

    /// Appends `value`, logging the inverse (a pop).
    pub fn push(&self, heap: &mut Heap, value: T) {
        heap.log_vec_push::<T>(self.id);
        let h = heap.holder_mut::<Vec<T>>(self.id);
        h.value.push(value);
        refresh_bytes(h);
    }

    /// Removes and returns the last element, logging a copy of it when a
    /// record is owed. Popping an empty vector logs nothing.
    pub fn pop(&self, heap: &mut Heap) -> Option<T> {
        let h = heap.holder_mut::<Vec<T>>(self.id);
        let last = h.value.pop()?;
        refresh_bytes(h);
        if heap.note_write(self.id) {
            heap.log_vec_pop_old(self.id, last.clone());
        }
        Some(last)
    }

    /// Overwrites the element at `index`; the old one moves into the undo
    /// journal (or is dropped when no record is owed).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set(&self, heap: &mut Heap, index: usize, value: T) {
        assert!(index < self.len(heap), "PVec::set index out of bounds");
        let owed = heap.note_vec_set_write::<T>(self.id, index);
        let slot = &mut heap.holder_mut::<Vec<T>>(self.id).value[index];
        let old = std::mem::replace(slot, value);
        if owed {
            heap.log_vec_set_old(self.id, index, old);
        }
    }

    /// Mutates the element at `index` in place, logging a copy of the old
    /// value first when a record is owed.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn update<R>(&self, heap: &mut Heap, index: usize, f: impl FnOnce(&mut T) -> R) -> R {
        assert!(index < self.len(heap), "PVec::update index out of bounds");
        if heap.note_vec_set_write::<T>(self.id, index) {
            let old = heap.holder::<Vec<T>>(self.id).value[index].clone();
            heap.log_vec_set_old(self.id, index, old);
        }
        f(&mut heap.holder_mut::<Vec<T>>(self.id).value[index])
    }

    /// Shortens the vector to `len`; the removed tail moves into the undo
    /// journal.
    pub fn truncate(&self, heap: &mut Heap, len: usize) {
        if len < self.len(heap) {
            heap.truncate_vec::<T>(self.id, len);
        }
    }

    /// Clears the vector, logging the full old contents.
    pub fn clear(&self, heap: &mut Heap) {
        self.truncate(heap, 0);
    }

    /// Calls `f` for each `(index, element)` pair.
    pub fn for_each(&self, heap: &Heap, mut f: impl FnMut(usize, &T)) {
        for (i, v) in heap.holder::<Vec<T>>(self.id).value.iter().enumerate() {
            f(i, v);
        }
    }

    /// Returns the index of the first element matching `pred`, if any.
    pub fn position(&self, heap: &Heap, pred: impl FnMut(&T) -> bool) -> Option<usize> {
        heap.holder::<Vec<T>>(self.id).value.iter().position(pred)
    }
}

#[cfg(test)]
mod tests {
    use crate::Heap;

    #[test]
    fn push_pop_set_roundtrip() {
        let mut h = Heap::new("t");
        let v = h.alloc_vec::<i32>("v");
        v.push(&mut h, 1);
        v.push(&mut h, 2);
        assert_eq!(v.pop(&mut h), Some(2));
        v.set(&mut h, 0, 5);
        assert_eq!(v.snapshot(&h), vec![5]);
    }

    #[test]
    fn rollback_restores_structure() {
        let mut h = Heap::new("t");
        let v = h.alloc_vec::<i32>("v");
        v.push(&mut h, 1);
        v.push(&mut h, 2);
        h.set_logging(true);
        let m = h.mark();
        v.push(&mut h, 3);
        v.set(&mut h, 0, 99);
        v.pop(&mut h);
        v.truncate(&mut h, 1);
        h.rollback_to(m);
        assert_eq!(v.snapshot(&h), vec![1, 2]);
    }

    #[test]
    fn repeated_set_of_same_index_coalesces() {
        let mut h = Heap::new("t");
        let v = h.alloc_vec::<u64>("v");
        v.push(&mut h, 0);
        v.push(&mut h, 0);
        h.set_logging(true);
        let m = h.mark();
        for i in 1..=10 {
            v.set(&mut h, 0, i);
            v.set(&mut h, 1, i * 100);
        }
        // One record per distinct index, not per store.
        assert_eq!(h.log_len(), 2);
        assert_eq!(h.stats().coalesced_writes, 18);
        h.rollback_to(m);
        assert_eq!(v.snapshot(&h), vec![0, 0]);
    }

    #[test]
    fn position_and_for_each() {
        let mut h = Heap::new("t");
        let v = h.alloc_vec::<i32>("v");
        for i in 0..5 {
            v.push(&mut h, i);
        }
        assert_eq!(v.position(&h, |x| *x == 3), Some(3));
        let mut sum = 0;
        v.for_each(&h, |_, x| sum += *x);
        assert_eq!(sum, 10);
    }

    #[test]
    fn pop_empty_returns_none_and_logs_nothing() {
        let mut h = Heap::new("t");
        let v = h.alloc_vec::<i32>("v");
        h.set_logging(true);
        assert_eq!(v.pop(&mut h), None);
        assert_eq!(h.log_len(), 0);
    }

    #[test]
    fn droppable_elements_roll_back_exactly() {
        let mut h = Heap::new("t");
        let v = h.alloc_vec::<String>("v");
        v.push(&mut h, "a".into());
        h.set_logging(true);
        let m = h.mark();
        v.push(&mut h, "b".into());
        v.set(&mut h, 0, "A".into());
        v.pop(&mut h);
        v.clear(&mut h);
        h.rollback_to(m);
        assert_eq!(v.snapshot(&h), vec!["a".to_string()]);
    }
}
