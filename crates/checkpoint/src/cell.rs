//! `PCell<T>`: a single checkpointed value.

use std::fmt;
use std::marker::PhantomData;

use crate::heap::{Heap, HeapValue, ObjId};

/// A handle to a single value of type `T` stored in a [`Heap`].
///
/// The handle itself is plain copyable data; all reads and writes go through
/// the heap so that mutations are undo-logged while a recovery window is
/// open.
///
/// ```
/// # use osiris_checkpoint::Heap;
/// let mut heap = Heap::new("demo");
/// let cell = heap.alloc_cell("answer", 41u32);
/// cell.update(&mut heap, |v| *v += 1);
/// assert_eq!(cell.get(&heap), 42);
/// ```
pub struct PCell<T> {
    id: ObjId,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for PCell<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for PCell<T> {}

impl<T> fmt::Debug for PCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PCell({:?})", self.id)
    }
}

impl Heap {
    /// Allocates a new [`PCell`] named `name` (for debugging and memory
    /// attribution) holding `value`.
    pub fn alloc_cell<T: HeapValue>(&mut self, name: &'static str, value: T) -> PCell<T> {
        PCell {
            id: self.alloc_obj(name, value),
            _marker: PhantomData,
        }
    }
}

impl<T: HeapValue> PCell<T> {
    /// Returns a copy of the stored value. Only for `Copy` payloads: read
    /// anything else by borrow ([`PCell::with`]), or spell a deliberate deep
    /// copy [`PCell::cloned`].
    ///
    /// # Panics
    ///
    /// Panics if used with a heap other than the allocating one.
    pub fn get(&self, heap: &Heap) -> T
    where
        T: Copy,
    {
        heap.holder::<T>(self.id).value
    }

    /// Returns a deep copy of the stored value.
    pub fn cloned(&self, heap: &Heap) -> T {
        heap.holder::<T>(self.id).value.clone()
    }

    /// Applies `f` to a shared reference of the stored value.
    pub fn with<R>(&self, heap: &Heap, f: impl FnOnce(&T) -> R) -> R {
        f(&heap.holder::<T>(self.id).value)
    }

    /// Replaces the stored value; the old one moves into the undo journal
    /// (or is dropped when no record is owed). Never clones.
    pub fn set(&self, heap: &mut Heap, value: T) {
        let owed = heap.note_cell_write::<T>(self.id);
        let old = std::mem::replace(&mut heap.holder_mut::<T>(self.id).value, value);
        if owed {
            heap.log_cell_old(self.id, old);
        }
    }

    /// Mutates the stored value in place through `f`, logging a copy of the
    /// old value first when a record is owed.
    pub fn update<R>(&self, heap: &mut Heap, f: impl FnOnce(&mut T) -> R) -> R {
        if heap.note_cell_write::<T>(self.id) {
            let old = heap.holder::<T>(self.id).value.clone();
            heap.log_cell_old(self.id, old);
        }
        f(&mut heap.holder_mut::<T>(self.id).value)
    }
}

#[cfg(test)]
mod tests {
    use crate::Heap;

    #[test]
    fn get_set_update() {
        let mut h = Heap::new("t");
        let c = h.alloc_cell("v", String::from("a"));
        c.set(&mut h, "b".into());
        assert_eq!(c.cloned(&h), "b");
        c.update(&mut h, |s| s.push('c'));
        assert_eq!(c.cloned(&h), "bc");
        assert!(c.with(&h, |s| s.len() == 2));
    }

    #[test]
    fn update_is_rolled_back() {
        let mut h = Heap::new("t");
        let c = h.alloc_cell("v", vec![1, 2, 3]);
        h.set_logging(true);
        let m = h.mark();
        c.update(&mut h, |v| v.push(4));
        c.update(&mut h, |v| v.clear());
        assert!(c.with(&h, |v| v.is_empty()));
        h.rollback_to(m);
        assert_eq!(c.cloned(&h), vec![1, 2, 3]);
    }

    #[test]
    fn update_returns_closure_result() {
        let mut h = Heap::new("t");
        let c = h.alloc_cell("v", 10u32);
        let doubled = c.update(&mut h, |v| {
            *v += 1;
            *v * 2
        });
        assert_eq!(doubled, 22);
    }
}
