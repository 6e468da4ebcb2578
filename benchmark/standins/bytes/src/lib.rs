//! Stand-in for `bytes`: `Bytes`, `BytesMut` and `BufMut`, only what lmpi
//! calls.
//!
//! Three properties of the published crate are load-bearing for lmpi's
//! `FramePool` and are kept here: a block is allocated **uninitialised**,
//! `reserve` grows to **exactly** the size asked for, and `reserve`
//! **reclaims** the block it already owns once no split-off handle is alive.
//!
//! Ownership model: a `Block` is one raw allocation shared through an `Arc`.
//! Every handle (`Bytes` or `BytesMut`) owns a byte range of it, and ranges
//! of live handles never overlap: `split` hands the written prefix to the
//! new handle and keeps only the unwritten tail, and only the handle holding
//! the tail may write. A frozen range is never written again.

use std::alloc::{self, Layout};
use std::fmt;
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::ptr::{self, NonNull};
use std::sync::Arc;

/// One heap allocation of `cap` bytes, uninitialised until written.
struct Block {
    ptr: NonNull<u8>,
    cap: usize,
}

// SAFETY: `Block` is only a pointer and a length. All access to the bytes
// goes through handles whose ranges are disjoint (module doc), so sharing or
// sending the block between threads creates no aliased mutable access.
unsafe impl Send for Block {}
// SAFETY: as above.
unsafe impl Sync for Block {}

impl Block {
    fn layout(cap: usize) -> Layout {
        Layout::array::<u8>(cap).expect("capacity overflow")
    }

    fn alloc(cap: usize) -> Block {
        if cap == 0 {
            return Block {
                ptr: NonNull::dangling(),
                cap: 0,
            };
        }
        let layout = Self::layout(cap);
        // SAFETY: `layout` has non-zero size.
        let raw = unsafe { alloc::alloc(layout) };
        let Some(ptr) = NonNull::new(raw) else {
            alloc::handle_alloc_error(layout)
        };
        Block { ptr, cap }
    }

    fn from_vec(v: Vec<u8>) -> Block {
        let mut v = std::mem::ManuallyDrop::new(v);
        // A `Vec<u8>` with capacity `cap > 0` owns an allocation of
        // `Layout::array::<u8>(cap)`, which is what `Drop` frees; with
        // capacity 0 it owns nothing and `Drop` frees nothing.
        Block {
            ptr: NonNull::new(v.as_mut_ptr()).expect("Vec pointer is never null"),
            cap: v.capacity(),
        }
    }
}

impl Drop for Block {
    fn drop(&mut self) {
        if self.cap != 0 {
            // SAFETY: `ptr` came from `alloc::alloc` (or a `Vec<u8>`) with
            // exactly this layout and is freed once, here.
            unsafe { alloc::dealloc(self.ptr.as_ptr(), Self::layout(self.cap)) };
        }
    }
}

/// An immutable, cheaply cloneable byte range.
#[derive(Clone)]
pub struct Bytes {
    ptr: *const u8,
    len: usize,
    /// Keeps the allocation alive; `None` for static and empty ranges.
    _owner: Option<Arc<Block>>,
}

// SAFETY: `ptr..ptr+len` is initialised, never written while any `Bytes`
// over it is alive (module doc), and kept alive by `_owner` (or is static),
// so a `Bytes` is a shared read-only view like `Arc<[u8]>`.
unsafe impl Send for Bytes {}
// SAFETY: as above.
unsafe impl Sync for Bytes {}

impl Bytes {
    pub const fn new() -> Bytes {
        Bytes::from_static(&[])
    }

    pub const fn from_static(s: &'static [u8]) -> Bytes {
        Bytes {
            ptr: s.as_ptr(),
            len: s.len(),
            _owner: None,
        }
    }

    pub fn copy_from_slice(s: &[u8]) -> Bytes {
        let mut b = BytesMut::with_capacity(s.len());
        b.put_slice(s);
        b.freeze()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A view of `range` within this one, sharing the allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of range for length {}",
            self.len
        );
        Bytes {
            // SAFETY: `start <= len`, so the result stays inside (or one past
            // the end of) the range this handle owns.
            ptr: unsafe { self.ptr.add(start) },
            len: end - start,
            _owner: self._owner.clone(),
        }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: see the `Send` impl: the range is initialised, immutable
        // and alive for as long as `self`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let len = v.len();
        let block = Block::from_vec(v);
        Bytes {
            ptr: block.ptr.as_ptr(),
            len,
            _owner: Some(Arc::new(block)),
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A growable byte buffer whose written prefix can be split off and frozen.
#[derive(Default)]
pub struct BytesMut {
    block: Option<Arc<Block>>,
    /// This handle owns `start..end` of the block; `start..start+len` is
    /// written.
    start: usize,
    len: usize,
    end: usize,
}

impl BytesMut {
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    pub fn with_capacity(cap: usize) -> BytesMut {
        let mut b = BytesMut::new();
        b.reserve(cap);
        b
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes this handle can hold without reserving, written ones included.
    pub fn capacity(&self) -> usize {
        self.end - self.start
    }

    pub fn as_ptr(&self) -> *const u8 {
        self.base()
    }

    fn base(&self) -> *mut u8 {
        match &self.block {
            // SAFETY: `start <= cap` of the block.
            Some(b) => unsafe { b.ptr.as_ptr().add(self.start) },
            None => NonNull::dangling().as_ptr(),
        }
    }

    /// Make room for `additional` more bytes. Reuses the current block when
    /// it is large enough and no other handle refers to it; otherwise
    /// allocates a block of exactly `len + additional` bytes.
    pub fn reserve(&mut self, additional: usize) {
        if self.capacity() - self.len >= additional {
            return;
        }
        let need = self.len.checked_add(additional).expect("capacity overflow");
        if let Some(arc) = &mut self.block {
            if let Some(block) = Arc::get_mut(arc) {
                if block.cap >= need {
                    // SAFETY: this is the only handle, so the whole block is
                    // ours; source and destination lie inside it and `copy`
                    // allows them to overlap.
                    unsafe {
                        ptr::copy(block.ptr.as_ptr().add(self.start), block.ptr.as_ptr(), self.len)
                    };
                    self.start = 0;
                    self.end = block.cap;
                    return;
                }
            }
        }
        let fresh = Block::alloc(need);
        // SAFETY: `self.len` written bytes at `base()`; `fresh` holds at
        // least that many and is a different allocation.
        unsafe { ptr::copy_nonoverlapping(self.base(), fresh.ptr.as_ptr(), self.len) };
        self.block = Some(Arc::new(fresh));
        self.start = 0;
        self.end = need;
    }

    /// Hand the written bytes to a new handle, keeping the unwritten tail.
    pub fn split(&mut self) -> BytesMut {
        let head = BytesMut {
            block: self.block.clone(),
            start: self.start,
            len: self.len,
            end: self.start + self.len,
        };
        self.start += self.len;
        self.len = 0;
        head
    }

    pub fn freeze(self) -> Bytes {
        Bytes {
            ptr: self.base(),
            len: self.len,
            _owner: self.block,
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: `start..start+len` is written and owned by this handle.
        unsafe { std::slice::from_raw_parts(self.base(), self.len) }
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: as `deref`, and `&mut self` makes the access exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.base(), self.len) }
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A buffer bytes can be appended to.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.reserve(src.len());
        // SAFETY: `reserve` left at least `src.len()` unwritten bytes after
        // the written prefix, inside the range this handle owns; `src` cannot
        // alias them because no reference to unwritten bytes exists.
        unsafe { ptr::copy_nonoverlapping(src.as_ptr(), self.base().add(self.len), src.len()) };
        self.len += src.len();
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}
