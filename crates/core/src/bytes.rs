//! [`Bytes`]: the immutable, cheaply cloneable payload handle that travels
//! inside a [`Packet`](crate::Packet).
//!
//! A handle is a byte range of a shared `Vec<u8>`. Cloning and
//! [`slice`](Bytes::slice) share the allocation; the block is freed (or
//! reclaimed by the [`FramePool`](crate::FramePool) that staged it) when the
//! last handle drops.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

#[derive(Clone)]
enum Store {
    /// Static (or empty) bytes: nothing is owned.
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

/// An immutable byte range sharing its allocation with its clones.
#[derive(Clone)]
pub struct Bytes {
    store: Store,
    range: Range<usize>,
}

impl Bytes {
    /// A payload over static bytes; no allocation.
    pub const fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes {
            store: Store::Static(bytes),
            range: 0..bytes.len(),
        }
    }

    /// A payload holding a copy of `bytes`.
    pub fn copy_from_slice(bytes: &[u8]) -> Bytes {
        Bytes::from(bytes.to_vec())
    }

    /// All of a block a [`FramePool`](crate::FramePool) filled.
    pub(crate) fn from_block(block: Arc<Vec<u8>>) -> Bytes {
        Bytes {
            range: 0..block.len(),
            store: Store::Shared(block),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// Whether the payload has no bytes.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// A handle on `range` of this payload, sharing its allocation.
    ///
    /// # Panics
    /// Panics if `range` does not lie inside `0..self.len()`.
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} out of range for length {}",
            self.len()
        );
        Bytes {
            store: self.store.clone(),
            range: self.range.start + range.start..self.range.start + range.end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        let all: &[u8] = match &self.store {
            Store::Static(bytes) => bytes,
            Store::Shared(block) => block,
        };
        &all[self.range.clone()]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(bytes: Vec<u8>) -> Bytes {
        Bytes::from_block(Arc::new(bytes))
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}
