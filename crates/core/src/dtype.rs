//! Derived datatypes: MPI-1's type-constructor layer
//! (`MPI_Type_contiguous` / `vector` / `indexed` / `struct`) with
//! `MPI_Pack` / `MPI_Unpack` and the zero-copy typed-transfer substrate.
//!
//! A [`DataType`] describes a memory layout over a byte region: which bytes
//! belong to the message and in what order. `pack` walks the layout and
//! gathers bytes into a contiguous buffer; `unpack` scatters them back.
//! The paper's MPI carries the MPICH-style datatype machinery (it lists
//! "communicators, datatypes and different modes" as the MPI overheads its
//! measurements include); we reproduce the layout algebra here.
//!
//! The layout tree is an algebra, not a transfer format: before a type can
//! move bytes it is *flattened* into a [`FlatLayout`] — the coalesced
//! iovec of `(memory offset, packed offset, length)` runs in message
//! order, with its packed size and extent validated once under checked
//! arithmetic. [`DataType::commit`] memoizes the flattening behind an
//! `Arc` (the `MPI_Type_commit` model), so the typed send path can gather
//! runs straight into pooled staging and the chunked rendezvous receive
//! path can scatter each arriving chunk at-offset through the same runs —
//! no intermediate contiguous buffer on either end.

use std::sync::Arc;

use crate::error::{MpiError, MpiResult};

/// A datatype: a layout tree over a byte region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DataType {
    /// `size` contiguous bytes (a primitive type of that size).
    Base {
        /// Bytes per element.
        size: usize,
    },
    /// `count` consecutive copies of `inner`.
    Contiguous {
        /// Number of repetitions.
        count: usize,
        /// Element type.
        inner: Box<DataType>,
    },
    /// `count` blocks of `blocklen` copies of `inner`, the start of
    /// consecutive blocks `stride` *elements* apart (as in
    /// `MPI_Type_vector`).
    Vector {
        /// Number of blocks.
        count: usize,
        /// Elements per block.
        blocklen: usize,
        /// Element stride between block starts.
        stride: usize,
        /// Element type.
        inner: Box<DataType>,
    },
    /// Blocks at explicit element displacements (as in
    /// `MPI_Type_indexed`): `(displacement, blocklen)` pairs.
    Indexed {
        /// `(element displacement, elements in block)` pairs.
        blocks: Vec<(usize, usize)>,
        /// Element type.
        inner: Box<DataType>,
    },
    /// Heterogeneous fields at explicit *byte* displacements (as in
    /// `MPI_Type_struct`).
    Struct {
        /// `(byte displacement, field type)` pairs.
        fields: Vec<(usize, DataType)>,
    },
}

/// The typed error for layouts whose byte counts do not fit `usize`.
/// Adversarial constructors (`count * blocklen * inner` near `usize::MAX`)
/// must fail here, not wrap silently in release builds.
fn overflow() -> MpiError {
    MpiError::Unsupported {
        what: "datatype layout size overflows usize (adversarial count/stride/displacement)"
            .to_string(),
    }
}

impl DataType {
    /// A primitive of `size` bytes.
    pub fn base(size: usize) -> DataType {
        DataType::Base { size }
    }

    /// `count` consecutive copies of `self`.
    pub fn contiguous(self, count: usize) -> DataType {
        DataType::Contiguous {
            count,
            inner: Box::new(self),
        }
    }

    /// Strided blocks of `self` (see [`DataType::Vector`]).
    pub fn vector(self, count: usize, blocklen: usize, stride: usize) -> DataType {
        assert!(
            stride >= blocklen,
            "vector stride {stride} smaller than block length {blocklen} would overlap"
        );
        DataType::Vector {
            count,
            blocklen,
            stride,
            inner: Box::new(self),
        }
    }

    /// Number of *message* bytes (the packed size) — `MPI_Type_size`.
    ///
    /// All arithmetic is checked: a layout whose packed size does not fit
    /// `usize` returns [`MpiError::Unsupported`] instead of wrapping.
    pub fn packed_size(&self) -> MpiResult<usize> {
        match self {
            DataType::Base { size } => Ok(*size),
            DataType::Contiguous { count, inner } => {
                count.checked_mul(inner.packed_size()?).ok_or_else(overflow)
            }
            DataType::Vector {
                count,
                blocklen,
                inner,
                ..
            } => {
                let per = inner.packed_size()?;
                count
                    .checked_mul(*blocklen)
                    .and_then(|n| n.checked_mul(per))
                    .ok_or_else(overflow)
            }
            DataType::Indexed { blocks, inner } => {
                let per = inner.packed_size()?;
                let mut total = 0usize;
                for (_, len) in blocks {
                    let block = len.checked_mul(per).ok_or_else(overflow)?;
                    total = total.checked_add(block).ok_or_else(overflow)?;
                }
                Ok(total)
            }
            DataType::Struct { fields } => {
                let mut total = 0usize;
                for (_, t) in fields {
                    total = total.checked_add(t.packed_size()?).ok_or_else(overflow)?;
                }
                Ok(total)
            }
        }
    }

    /// Bytes the layout spans in memory, including holes — `MPI_Type_extent`.
    ///
    /// Checked like [`packed_size`](Self::packed_size): an extent past
    /// `usize::MAX` returns [`MpiError::Unsupported`]. Every memory offset
    /// the layout touches is strictly below this value, so a validated
    /// extent bounds all the offset arithmetic the flattened walk performs.
    pub fn extent(&self) -> MpiResult<usize> {
        match self {
            DataType::Base { size } => Ok(*size),
            DataType::Contiguous { count, inner } => {
                count.checked_mul(inner.extent()?).ok_or_else(overflow)
            }
            DataType::Vector {
                count,
                blocklen,
                stride,
                inner,
            } => {
                if *count == 0 {
                    return Ok(0);
                }
                let ext = inner.extent()?;
                (count - 1)
                    .checked_mul(*stride)
                    .and_then(|n| n.checked_add(*blocklen))
                    .and_then(|n| n.checked_mul(ext))
                    .ok_or_else(overflow)
            }
            DataType::Indexed { blocks, inner } => {
                let ext = inner.extent()?;
                let mut max = 0usize;
                for (disp, len) in blocks {
                    let end = disp
                        .checked_add(*len)
                        .and_then(|n| n.checked_mul(ext))
                        .ok_or_else(overflow)?;
                    max = max.max(end);
                }
                Ok(max)
            }
            DataType::Struct { fields } => {
                let mut max = 0usize;
                for (disp, t) in fields {
                    let end = disp.checked_add(t.extent()?).ok_or_else(overflow)?;
                    max = max.max(end);
                }
                Ok(max)
            }
        }
    }

    /// Visit every `(offset, len)` contiguous run of message bytes, in
    /// message order. Callers must have validated [`extent`](Self::extent)
    /// first: every offset computed here is bounded by the extent, so the
    /// unchecked arithmetic below cannot wrap once the extent fits `usize`.
    fn walk(&self, base: usize, f: &mut impl FnMut(usize, usize)) {
        match self {
            DataType::Base { size } => f(base, *size),
            DataType::Contiguous { count, inner } => {
                let ext = inner.extent().expect("validated by flatten");
                for i in 0..*count {
                    inner.walk(base + i * ext, f);
                }
            }
            DataType::Vector {
                count,
                blocklen,
                stride,
                inner,
            } => {
                let ext = inner.extent().expect("validated by flatten");
                for b in 0..*count {
                    for i in 0..*blocklen {
                        inner.walk(base + (b * stride + i) * ext, f);
                    }
                }
            }
            DataType::Indexed { blocks, inner } => {
                let ext = inner.extent().expect("validated by flatten");
                for (disp, len) in blocks {
                    for i in 0..*len {
                        inner.walk(base + (disp + i) * ext, f);
                    }
                }
            }
            DataType::Struct { fields } => {
                for (disp, t) in fields {
                    t.walk(base + disp, f);
                }
            }
        }
    }

    /// Flatten the layout tree into its iovec form: coalesced
    /// `(memory offset, length)` runs in message order, sizes validated
    /// under checked arithmetic. This is the representation every actual
    /// transfer uses; [`commit`](Self::commit) caches it per type.
    pub fn flatten(&self) -> MpiResult<FlatLayout> {
        let packed_size = self.packed_size()?;
        let extent = self.extent()?;
        let mut runs: Vec<IovRun> = Vec::new();
        let mut packed_off = 0usize;
        // `walk` offsets are bounded by the just-validated extent, and
        // `packed_off` by the just-validated packed size: no wrapping.
        self.walk(0, &mut |mem_off, len| {
            if len == 0 {
                return;
            }
            match runs.last_mut() {
                // Memory-adjacent to the previous run (packed offsets are
                // sequential by construction): one longer run, not two.
                Some(last) if last.mem_off + last.len == mem_off => last.len += len,
                _ => runs.push(IovRun {
                    mem_off,
                    packed_off,
                    len,
                }),
            }
            packed_off += len;
        });
        debug_assert_eq!(packed_off, packed_size, "walk disagrees with packed_size");
        let mem_span = runs.iter().map(|r| r.mem_off + r.len).max().unwrap_or(0);
        debug_assert!(mem_span <= extent, "walk reached past the extent");
        let overlapping = {
            let mut spans: Vec<(usize, usize)> = runs.iter().map(|r| (r.mem_off, r.len)).collect();
            spans.sort_unstable();
            spans.windows(2).any(|w| w[0].0 + w[0].1 > w[1].0)
        };
        Ok(FlatLayout {
            runs,
            packed_size,
            extent,
            mem_span,
            overlapping,
        })
    }

    /// Commit the type for transfer (`MPI_Type_commit`): flatten once and
    /// share the result behind an `Arc`. Every `send_typed`/`recv_typed`
    /// through the returned handle — and every clone of it — reuses the
    /// cached iovec; the tree is never re-walked on the data path.
    pub fn commit(&self) -> MpiResult<CommittedType> {
        Ok(CommittedType {
            flat: Arc::new(self.flatten()?),
        })
    }

    /// Gather this layout's bytes from `memory` into a packed buffer
    /// (`MPI_Pack`). Fails with a typed error — never a panic — on an
    /// oversized layout or one reaching past the end of `memory`.
    pub fn pack(&self, memory: &[u8]) -> MpiResult<Vec<u8>> {
        self.flatten()?.pack(memory)
    }

    /// Scatter a packed buffer back into `memory` (`MPI_Unpack`). Bytes
    /// outside the layout are untouched.
    ///
    /// `packed` lengths are wire-supplied via `recv_packed`, so every
    /// malformation returns a typed error instead of panicking: a length
    /// mismatch is [`MpiError::Transport`], a layout reaching past the end
    /// of `memory` is [`MpiError::Truncated`], and an oversized layout is
    /// [`MpiError::Unsupported`].
    pub fn unpack(&self, packed: &[u8], memory: &mut [u8]) -> MpiResult<()> {
        let flat = self.flatten()?;
        if packed.len() != flat.packed_size() {
            return Err(MpiError::transport(format!(
                "packed buffer carries {} bytes but the layout packs {} \
                 (corrupt or truncated message?)",
                packed.len(),
                flat.packed_size()
            )));
        }
        flat.unpack_prefix(packed, memory)?;
        Ok(())
    }
}

/// One contiguous run of message bytes: `len` bytes at `mem_off` in the
/// user buffer, occupying `packed_off..packed_off + len` of the packed
/// message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IovRun {
    /// Byte offset in user memory.
    pub mem_off: usize,
    /// Byte offset in the packed message.
    pub packed_off: usize,
    /// Run length in bytes.
    pub len: usize,
}

/// A [`DataType`] flattened to its iovec: coalesced runs in message order
/// plus the validated sizes. This is what transfers consume — the eager
/// path gathers runs straight into pooled staging, and the chunked
/// rendezvous path scatters each arriving chunk through them at-offset.
#[derive(Debug)]
pub struct FlatLayout {
    /// Runs in message order; `packed_off` is strictly increasing, so a
    /// wire offset maps to its run by binary search.
    runs: Vec<IovRun>,
    packed_size: usize,
    extent: usize,
    /// Exact last memory byte any run touches (`<= extent`).
    mem_span: usize,
    /// Whether any two runs overlap in memory. Legal to send (the bytes
    /// are read twice); rejected for typed receives, where the scatter
    /// order of chunks would make the result ill-defined.
    overlapping: bool,
}

impl FlatLayout {
    /// Message bytes (`MPI_Type_size`), validated at flatten time.
    pub fn packed_size(&self) -> usize {
        self.packed_size
    }

    /// Memory span including holes (`MPI_Type_extent`), validated at
    /// flatten time.
    pub fn extent(&self) -> usize {
        self.extent
    }

    /// The coalesced iovec, in message order.
    pub fn runs(&self) -> &[IovRun] {
        &self.runs
    }

    /// Whether the layout is a single contiguous run (or empty) — such
    /// transfers take the plain contiguous path with zero penalty.
    pub fn is_contiguous(&self) -> bool {
        self.runs.len() <= 1
    }

    /// Whether any two runs alias the same memory bytes.
    pub fn overlapping(&self) -> bool {
        self.overlapping
    }

    /// Typed bounds check: the layout must fit entirely inside a buffer of
    /// `memory_len` bytes (the full extent, holes included, as MPI
    /// requires of the caller's buffer).
    pub fn fits(&self, memory_len: usize) -> MpiResult<()> {
        if self.extent > memory_len {
            Err(MpiError::Truncated {
                message_len: self.extent,
                buffer_len: memory_len,
            })
        } else {
            Ok(())
        }
    }

    /// Gather the runs out of `memory` into a fresh packed buffer — the
    /// copying reference path (`MPI_Pack`); transfers use
    /// [`FramePool::stage_gather`](crate::packet::FramePool::stage_gather)
    /// instead, which gathers into pooled staging.
    pub fn pack(&self, memory: &[u8]) -> MpiResult<Vec<u8>> {
        self.fits(memory.len())?;
        let mut out = Vec::with_capacity(self.packed_size);
        for r in &self.runs {
            out.extend_from_slice(&memory[r.mem_off..r.mem_off + r.len]);
        }
        Ok(out)
    }

    /// Scatter a *prefix* of the packed representation into `memory`:
    /// exactly the bytes `packed` holds, which may stop short of
    /// [`packed_size`](Self::packed_size) (a short message delivers what
    /// arrived, like a contiguous receive). Returns the bytes consumed.
    pub fn unpack_prefix(&self, packed: &[u8], memory: &mut [u8]) -> MpiResult<usize> {
        self.fits(memory.len())?;
        // SAFETY: `fits` proved `mem_span <= extent <= memory.len()`, and
        // the scatter writes only within runs, all of which end at or
        // before `mem_span`.
        Ok(unsafe { self.scatter_raw(0, packed, memory.as_mut_ptr()) })
    }

    /// Index of the run containing packed offset `off` (or the run count
    /// when `off` is past the end).
    fn run_ix(&self, off: usize) -> usize {
        self.runs.partition_point(|r| r.packed_off + r.len <= off)
    }

    /// Scatter `data` — the packed bytes occupying wire offsets
    /// `packed_off..packed_off + data.len()` — through the runs into the
    /// buffer at `base`. Bytes past [`packed_size`](Self::packed_size) are
    /// dropped (the engine decides truncation from the message total, not
    /// per chunk). Returns the bytes written. This is the chunked
    /// rendezvous landing path: each chunk scatters straight into the
    /// posted non-contiguous buffer with no intermediate staging.
    ///
    /// # Safety
    /// `base` must be valid for writes of [`mem_span`](Self::mem_span)
    /// bytes and unaliased for the duration of the call (see the
    /// `RecvDest` contract).
    pub(crate) unsafe fn scatter_raw(
        &self,
        packed_off: usize,
        data: &[u8],
        base: *mut u8,
    ) -> usize {
        let end = self.packed_size.min(packed_off.saturating_add(data.len()));
        if packed_off >= end {
            return 0;
        }
        let mut ix = self.run_ix(packed_off);
        let mut pos = packed_off;
        while pos < end {
            let run = self.runs[ix];
            let skip = pos - run.packed_off;
            let n = (run.len - skip).min(end - pos);
            // SAFETY: `run.mem_off + skip + n <= mem_span`, which the
            // caller guarantees is writable; `pos - packed_off + n <=
            // data.len()` by construction of `end`.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    data.as_ptr().add(pos - packed_off),
                    base.add(run.mem_off + skip),
                    n,
                );
            }
            pos += n;
            ix += 1;
        }
        end - packed_off
    }

    /// Exact number of memory bytes the runs reach (`<=` extent): the
    /// write bound the unsafe scatter relies on.
    pub fn mem_span(&self) -> usize {
        self.mem_span
    }
}

/// A committed (transfer-ready) datatype: the [`FlatLayout`] computed once
/// and shared behind an `Arc` — the `MPI_Type_commit` model. Cloning is a
/// reference bump; every operation through any clone reuses the memoized
/// flattening.
#[derive(Clone, Debug)]
pub struct CommittedType {
    flat: Arc<FlatLayout>,
}

impl CommittedType {
    /// The cached flattening.
    pub fn layout(&self) -> &FlatLayout {
        &self.flat
    }

    /// Share the cached flattening (the receive path parks it in the
    /// request so chunks arriving later scatter through it).
    pub(crate) fn shared(&self) -> Arc<FlatLayout> {
        Arc::clone(&self.flat)
    }

    /// Message bytes (`MPI_Type_size`).
    pub fn packed_size(&self) -> usize {
        self.flat.packed_size
    }

    /// Memory span including holes (`MPI_Type_extent`).
    pub fn extent(&self) -> usize {
        self.flat.extent
    }
}

impl crate::mpi::Communicator {
    /// Send the bytes selected by `dtype` out of `memory`
    /// (`MPI_Pack` + `MPI_Send` in one call).
    ///
    /// This is the copying reference path — it stages the packed bytes
    /// through a fresh buffer on both ends. Prefer
    /// [`send_typed`](Self::send_typed), which gathers directly into the
    /// transmit staging pool.
    pub fn send_packed(
        &self,
        dtype: &DataType,
        memory: &[u8],
        dst: crate::types::Rank,
        tag: crate::types::Tag,
    ) -> crate::error::MpiResult<()> {
        let packed = dtype.pack(memory)?;
        self.send(&packed, dst, tag)
    }

    /// Receive a message laid out by `dtype` into `memory`
    /// (`MPI_Recv` + `MPI_Unpack`). Bytes outside the layout are untouched.
    ///
    /// Honors the actual received length: a message shorter than the
    /// layout's packed size scatters only the received prefix (the
    /// returned [`Status::len`](crate::types::Status) says how much), and
    /// a longer one fails with the same typed truncation error a
    /// contiguous receive reports.
    pub fn recv_packed(
        &self,
        dtype: &DataType,
        memory: &mut [u8],
        src: impl Into<crate::types::SourceSel>,
        tag: impl Into<crate::types::TagSel>,
    ) -> crate::error::MpiResult<crate::types::Status> {
        let flat = dtype.flatten()?;
        flat.fits(memory.len())?;
        let mut packed = vec![0u8; flat.packed_size()];
        let st = self.recv(&mut packed, src, tag)?;
        flat.unpack_prefix(&packed[..st.len], memory)?;
        Ok(st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_sizes() {
        let t = DataType::base(8);
        assert_eq!(t.packed_size().unwrap(), 8);
        assert_eq!(t.extent().unwrap(), 8);
    }

    #[test]
    fn contiguous_packs_everything() {
        let t = DataType::base(2).contiguous(3);
        assert_eq!(t.packed_size().unwrap(), 6);
        assert_eq!(t.extent().unwrap(), 6);
        let mem = [1u8, 2, 3, 4, 5, 6];
        assert_eq!(t.pack(&mem).unwrap(), mem.to_vec());
    }

    #[test]
    fn vector_skips_holes() {
        // A column of a 3x4 row-major matrix of u16: count=3 rows,
        // blocklen=1, stride=4 elements.
        let t = DataType::base(2).vector(3, 1, 4);
        assert_eq!(t.packed_size().unwrap(), 6);
        assert_eq!(t.extent().unwrap(), (2 * 4 + 1) * 2);
        let mem: Vec<u8> = (0..24).collect();
        let packed = t.pack(&mem).unwrap();
        assert_eq!(packed, vec![0, 1, 8, 9, 16, 17]);
    }

    #[test]
    fn vector_roundtrip() {
        let t = DataType::base(1).vector(4, 2, 5);
        let mem: Vec<u8> = (100..100 + t.extent().unwrap() as u8).collect();
        let packed = t.pack(&mem).unwrap();
        let mut out = vec![0u8; mem.len()];
        t.unpack(&packed, &mut out).unwrap();
        // Only the packed positions are restored; holes stay zero.
        let repacked = t.pack(&out).unwrap();
        assert_eq!(repacked, packed);
    }

    #[test]
    fn indexed_blocks() {
        let t = DataType::Indexed {
            blocks: vec![(0, 2), (5, 1), (3, 1)],
            inner: Box::new(DataType::base(1)),
        };
        assert_eq!(t.packed_size().unwrap(), 4);
        assert_eq!(t.extent().unwrap(), 6);
        let mem = [10u8, 11, 12, 13, 14, 15];
        assert_eq!(t.pack(&mem).unwrap(), vec![10, 11, 15, 13]);
    }

    #[test]
    fn struct_fields_at_byte_offsets() {
        // { f64 at 0, i32 at 12 } — a hole at bytes 8..12 (like Rust/C
        // padding).
        let t = DataType::Struct {
            fields: vec![(0, DataType::base(8)), (12, DataType::base(4))],
        };
        assert_eq!(t.packed_size().unwrap(), 12);
        assert_eq!(t.extent().unwrap(), 16);
        let mem: Vec<u8> = (0..16).collect();
        let packed = t.pack(&mem).unwrap();
        assert_eq!(packed, vec![0, 1, 2, 3, 4, 5, 6, 7, 12, 13, 14, 15]);
        let mut out = vec![0xFFu8; 16];
        t.unpack(&packed, &mut out).unwrap();
        assert_eq!(&out[..8], &mem[..8]);
        assert_eq!(&out[8..12], &[0xFF; 4], "hole untouched");
        assert_eq!(&out[12..], &mem[12..]);
    }

    #[test]
    fn nested_vector_of_struct() {
        let elem = DataType::Struct {
            fields: vec![(0, DataType::base(2)), (4, DataType::base(2))],
        };
        assert_eq!(elem.extent().unwrap(), 6);
        let t = elem.vector(2, 1, 2);
        assert_eq!(t.packed_size().unwrap(), 8);
        let mem: Vec<u8> = (0..t.extent().unwrap() as u8).collect();
        let packed = t.pack(&mem).unwrap();
        assert_eq!(packed, vec![0, 1, 4, 5, 12, 13, 16, 17]);
    }

    #[test]
    #[should_panic(expected = "would overlap")]
    fn overlapping_vector_rejected() {
        let _ = DataType::base(4).vector(2, 3, 2);
    }

    // ------------------------------------------------------------------
    // Flattening
    // ------------------------------------------------------------------

    #[test]
    fn flatten_coalesces_adjacent_runs() {
        // blocklen=2 of 3-byte elements with no intra-block holes: each
        // block's elements coalesce to one 6-byte run.
        let t = DataType::base(3).vector(2, 2, 4);
        let flat = t.flatten().unwrap();
        assert_eq!(
            flat.runs(),
            &[
                IovRun {
                    mem_off: 0,
                    packed_off: 0,
                    len: 6
                },
                IovRun {
                    mem_off: 12,
                    packed_off: 6,
                    len: 6
                },
            ]
        );
        assert_eq!(flat.packed_size(), 12);
        assert_eq!(flat.mem_span(), 18);
        assert!(!flat.is_contiguous());
        assert!(!flat.overlapping());
    }

    #[test]
    fn flatten_contiguous_is_one_run() {
        let flat = DataType::base(4).contiguous(64).flatten().unwrap();
        assert_eq!(flat.runs().len(), 1);
        assert!(flat.is_contiguous());
        assert_eq!(flat.runs()[0].len, 256);
    }

    #[test]
    fn flatten_flags_overlapping_indexed() {
        let t = DataType::Indexed {
            blocks: vec![(0, 3), (1, 2)],
            inner: Box::new(DataType::base(2)),
        };
        let flat = t.flatten().unwrap();
        assert!(flat.overlapping());
        // Still packs fine — sending reads bytes twice, legally.
        let mem = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(t.pack(&mem).unwrap(), vec![1, 2, 3, 4, 5, 6, 3, 4, 5, 6]);
    }

    #[test]
    fn scatter_at_offset_spans_run_boundaries() {
        // Runs: [0..2), [5..7), [10..12) in memory; packed = 6 bytes.
        let t = DataType::base(1).vector(3, 2, 5);
        let flat = t.flatten().unwrap();
        assert_eq!(flat.runs().len(), 3);
        let mut mem = [0u8; 12];
        // A "chunk" covering packed bytes 1..5 straddles all three runs.
        let n = unsafe { flat.scatter_raw(1, &[0xA1, 0xA2, 0xA3, 0xA4], mem.as_mut_ptr()) };
        assert_eq!(n, 4);
        assert_eq!(mem, [0, 0xA1, 0, 0, 0, 0xA2, 0xA3, 0, 0, 0, 0xA4, 0]);
        // Bytes past the packed size are dropped, not scattered.
        let n = unsafe { flat.scatter_raw(5, &[0xB1, 0xB2, 0xB3], mem.as_mut_ptr()) };
        assert_eq!(n, 1);
        assert_eq!(mem[11], 0xB1);
        let n = unsafe { flat.scatter_raw(6, &[0xC1], mem.as_mut_ptr()) };
        assert_eq!(n, 0, "past-end chunk dropped");
        let n = unsafe { flat.scatter_raw(usize::MAX, &[0xC1], mem.as_mut_ptr()) };
        assert_eq!(n, 0, "wire offset overflow clamped");
    }

    #[test]
    fn commit_shares_one_flattening() {
        let ct = DataType::base(8).vector(4, 1, 2).commit().unwrap();
        let clone = ct.clone();
        assert!(std::ptr::eq(ct.layout(), clone.layout()));
        assert_eq!(ct.packed_size(), 32);
        assert_eq!(ct.extent(), 7 * 8);
    }

    // ------------------------------------------------------------------
    // Malformed input: typed errors, never panics (the packed buffer is
    // wire-supplied via recv_packed)
    // ------------------------------------------------------------------

    #[test]
    fn unpack_rejects_short_and_long_packed_buffers() {
        let t = DataType::base(1).vector(4, 2, 5);
        let need = t.packed_size().unwrap();
        let mut mem = vec![0u8; t.extent().unwrap()];
        for bad_len in [0, 1, need - 1, need + 1, need * 3] {
            let packed = vec![0xEEu8; bad_len];
            match t.unpack(&packed, &mut mem) {
                Err(MpiError::Transport { .. }) => {}
                other => panic!("len {bad_len}: expected Transport error, got {other:?}"),
            }
        }
        // The exact length still works.
        t.unpack(&vec![1u8; need], &mut mem).unwrap();
    }

    #[test]
    fn unpack_rejects_layout_past_end_of_memory() {
        let t = DataType::base(1).vector(4, 2, 5);
        let packed = vec![7u8; t.packed_size().unwrap()];
        let mut small = vec![0u8; t.extent().unwrap() - 1];
        match t.unpack(&packed, &mut small) {
            Err(MpiError::Truncated {
                message_len,
                buffer_len,
            }) => {
                assert_eq!(message_len, t.extent().unwrap());
                assert_eq!(buffer_len, small.len());
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        assert!(small.iter().all(|&b| b == 0), "no partial scatter");
    }

    #[test]
    fn unpack_fuzz_malformed_inputs_never_panic() {
        // Deterministic fuzz: a grid of adversarial (layout, packed len,
        // memory len) triples; every combination must return cleanly.
        let layouts = vec![
            DataType::base(0),
            DataType::base(1),
            DataType::base(3).contiguous(0),
            DataType::base(1).vector(4, 2, 5),
            DataType::Indexed {
                blocks: vec![(9, 1), (0, 2)],
                inner: Box::new(DataType::base(2)),
            },
            DataType::Struct {
                fields: vec![
                    (3, DataType::base(2).vector(2, 1, 3)),
                    (0, DataType::base(1)),
                ],
            },
        ];
        let mut lcg = 0x2545F4914F6CDD1Du64;
        for t in &layouts {
            let need = t.packed_size().unwrap();
            let ext = t.extent().unwrap();
            for plen in [0, 1, need.saturating_sub(1), need, need + 1, need * 2 + 3] {
                for mlen in [0, 1, ext.saturating_sub(1), ext, ext + 7] {
                    lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let packed: Vec<u8> = (0..plen).map(|i| (lcg as usize + i) as u8).collect();
                    let mut mem = vec![0u8; mlen];
                    // Must not panic; Ok only when the sizes are right.
                    let r = t.unpack(&packed, &mut mem);
                    if plen == need && mlen >= ext {
                        assert!(r.is_ok(), "{t:?} plen={plen} mlen={mlen}: {r:?}");
                    } else {
                        assert!(r.is_err(), "{t:?} plen={plen} mlen={mlen}");
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Checked arithmetic (runs in release via the CI protocol-crate leg,
    // like the PR 3 seq/ack wrap regression — wrapping only differs from
    // panicking when debug_assert/overflow checks are compiled out)
    // ------------------------------------------------------------------

    #[test]
    fn packed_size_and_extent_overflow_is_typed_not_wrapped() {
        let huge = DataType::base(usize::MAX).contiguous(usize::MAX);
        assert!(matches!(
            huge.packed_size(),
            Err(MpiError::Unsupported { .. })
        ));
        assert!(matches!(huge.extent(), Err(MpiError::Unsupported { .. })));

        let v = DataType::base(2).vector(usize::MAX / 2, 2, 2);
        assert!(matches!(v.packed_size(), Err(MpiError::Unsupported { .. })));
        assert!(matches!(v.extent(), Err(MpiError::Unsupported { .. })));

        let idx = DataType::Indexed {
            blocks: vec![(usize::MAX - 1, 2)],
            inner: Box::new(DataType::base(1)),
        };
        assert!(matches!(idx.extent(), Err(MpiError::Unsupported { .. })));

        let st = DataType::Struct {
            fields: vec![(usize::MAX, DataType::base(8))],
        };
        assert!(matches!(st.extent(), Err(MpiError::Unsupported { .. })));

        // Flatten (and therefore commit/pack/unpack) refuses too.
        assert!(matches!(huge.flatten(), Err(MpiError::Unsupported { .. })));
        assert!(matches!(
            huge.pack(&[0u8; 8]),
            Err(MpiError::Unsupported { .. })
        ));

        // Boundary: exactly usize::MAX bytes is representable...
        let max_ok = DataType::base(usize::MAX).contiguous(1);
        assert_eq!(max_ok.packed_size().unwrap(), usize::MAX);
        // ...one byte more is not. The overflow is in the packed size: the
        // extent is the furthest field end, which is still usize::MAX.
        let max_plus = DataType::Struct {
            fields: vec![(0, DataType::base(usize::MAX)), (1, DataType::base(1))],
        };
        assert_eq!(max_plus.extent().unwrap(), usize::MAX);
        assert!(matches!(
            max_plus.packed_size(),
            Err(MpiError::Unsupported { .. })
        ));
    }
}
