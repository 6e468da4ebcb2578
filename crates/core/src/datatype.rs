//! Element datatypes: the bridge between typed Rust slices and the
//! byte-oriented wire.
//!
//! Primitive types convert with a single `memcpy` (they are plain-old-data
//! with no padding in slice form); the compound [`Loc`] type used by
//! `MAXLOC`/`MINLOC` reductions converts field-by-field so padding bytes are
//! never read.
//!
//! `write_to` appends to a `Vec<u8>` so the hot send path can stage
//! payloads directly into the block of the engine's reusable
//! [`FramePool`](crate::packet::FramePool) without an intermediate copy.

/// A type that can travel through MPI messages.
///
/// Implementations must encode a slice to bytes and back such that
/// `read_from(write_to(xs)) == xs` and `byte_len(n)` is exactly the encoded
/// length of `n` elements.
pub trait MpiData: Copy + Send + 'static {
    /// Encoded size of `n` elements.
    fn byte_len(n: usize) -> usize;

    /// Append the encoding of `slice` to `buf`. The caller reserves
    /// capacity (`byte_len`) up front on the hot path.
    fn write_to(buf: &mut Vec<u8>, slice: &[Self]);

    /// Decode `bytes` into `out`.
    ///
    /// # Panics
    /// Panics if `bytes.len() != Self::byte_len(out.len())`.
    fn read_from(bytes: &[u8], out: &mut [Self]);

    /// `slice`'s own memory as bytes, when that memory *is* its wire
    /// encoding — exactly what [`write_to`](Self::write_to) would append.
    /// A large send of such a slice lends the memory itself to the
    /// receiver instead of staging a copy (see [`crate::Lease`]). `None`,
    /// the default, when the encoding differs from the representation
    /// (padding, field order, normalization).
    fn as_wire(_slice: &[Self]) -> Option<&[u8]> {
        None
    }
}

/// A slice of one of the `impl_pod_data!` types viewed as bytes. Private, so
/// that only those types reach it.
#[inline]
fn pod_bytes<T>(slice: &[T]) -> &[u8] {
    // SAFETY: `T` is a primitive numeric type (the only callers are the
    // `impl_pod_data!` expansions below): its slice representation is
    // contiguous initialized bytes with no padding, so viewing it as bytes
    // is sound.
    unsafe { std::slice::from_raw_parts(slice.as_ptr() as *const u8, std::mem::size_of_val(slice)) }
}

macro_rules! impl_pod_data {
    ($($t:ty),* $(,)?) => {$(
        impl MpiData for $t {
            #[inline]
            fn byte_len(n: usize) -> usize {
                n * std::mem::size_of::<$t>()
            }

            #[inline]
            fn write_to(buf: &mut Vec<u8>, slice: &[$t]) {
                buf.extend_from_slice(pod_bytes(slice));
            }

            #[inline]
            fn as_wire(slice: &[$t]) -> Option<&[u8]> {
                Some(pod_bytes(slice))
            }

            #[inline]
            fn read_from(bytes: &[u8], out: &mut [$t]) {
                assert_eq!(
                    bytes.len(),
                    std::mem::size_of_val(out),
                    "byte length mismatch decoding {}",
                    stringify!($t)
                );
                // SAFETY: same layout argument as `write_to`; the assert
                // guarantees the source region is exactly as long as the
                // destination, and `copy_nonoverlapping` handles any
                // alignment since we copy bytes into an aligned buffer.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        bytes.as_ptr(),
                        out.as_mut_ptr() as *mut u8,
                        bytes.len(),
                    );
                }
            }
        }
    )*};
}

impl_pod_data!(u8, i8, u16, i16, u32, i32, u64, i64, usize, isize, f32, f64);

impl MpiData for bool {
    fn byte_len(n: usize) -> usize {
        n
    }

    fn write_to(buf: &mut Vec<u8>, slice: &[bool]) {
        for &b in slice {
            buf.push(b as u8);
        }
    }

    fn read_from(bytes: &[u8], out: &mut [bool]) {
        assert_eq!(bytes.len(), out.len(), "byte length mismatch decoding bool");
        for (o, &b) in out.iter_mut().zip(bytes) {
            *o = b != 0;
        }
    }
}

/// A `(value, index)` pair for `MAXLOC` / `MINLOC` reductions
/// (MPI's `MPI_DOUBLE_INT` and friends).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Loc<T> {
    /// The compared value.
    pub value: T,
    /// Index (usually the owning rank or element position).
    pub index: u64,
}

impl<T: MpiData> MpiData for Loc<T> {
    fn byte_len(n: usize) -> usize {
        n * (T::byte_len(1) + 8)
    }

    fn write_to(buf: &mut Vec<u8>, slice: &[Self]) {
        for item in slice {
            T::write_to(buf, std::slice::from_ref(&item.value));
            buf.extend_from_slice(&item.index.to_le_bytes());
        }
    }

    fn read_from(bytes: &[u8], out: &mut [Self]) {
        let stride = T::byte_len(1) + 8;
        assert_eq!(
            bytes.len(),
            out.len() * stride,
            "byte length mismatch decoding Loc"
        );
        for (o, chunk) in out.iter_mut().zip(bytes.chunks_exact(stride)) {
            let (v, i) = chunk.split_at(T::byte_len(1));
            let mut value = [o.value]; // placeholder, overwritten below
            T::read_from(v, &mut value);
            o.value = value[0];
            o.index = u64::from_le_bytes(i.try_into().expect("8-byte index"));
        }
    }
}

/// Encode a typed slice into a fresh byte vector.
pub fn to_bytes<T: MpiData>(slice: &[T]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(T::byte_len(slice.len()));
    T::write_to(&mut buf, slice);
    buf
}

/// Decode bytes into a typed vector of `count` elements, where `T: Default`
/// is not required — elements are fully overwritten.
pub fn from_bytes<T: MpiData + Default>(bytes: &[u8], count: usize) -> Vec<T> {
    let mut out = vec![T::default(); count];
    T::read_from(bytes, &mut out);
    out
}

impl<T: Default> Default for Loc<T> {
    fn default() -> Self {
        Loc {
            value: T::default(),
            index: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let xs: Vec<f64> = (0..17).map(|i| i as f64 * 0.5 - 3.0).collect();
        let bytes = to_bytes(&xs);
        assert_eq!(bytes.len(), f64::byte_len(xs.len()));
        let ys: Vec<f64> = from_bytes(&bytes, xs.len());
        assert_eq!(xs, ys);
    }

    #[test]
    fn integer_types_roundtrip() {
        let xs: Vec<i32> = vec![-1, 0, 1, i32::MAX, i32::MIN];
        let ys: Vec<i32> = from_bytes(&to_bytes(&xs), xs.len());
        assert_eq!(xs, ys);

        let us: Vec<u16> = vec![0, 1, u16::MAX];
        let vs: Vec<u16> = from_bytes(&to_bytes(&us), us.len());
        assert_eq!(us, vs);
    }

    #[test]
    fn bool_roundtrip() {
        let xs = vec![true, false, true, true];
        let ys: Vec<bool> = from_bytes(&to_bytes(&xs), xs.len());
        assert_eq!(xs, ys);
    }

    #[test]
    fn loc_roundtrip_no_padding_leak() {
        let xs = vec![
            Loc {
                value: 1.5f64,
                index: 7,
            },
            Loc {
                value: -2.25,
                index: u64::MAX,
            },
        ];
        let bytes = to_bytes(&xs);
        assert_eq!(bytes.len(), Loc::<f64>::byte_len(2));
        let ys: Vec<Loc<f64>> = from_bytes(&bytes, 2);
        assert_eq!(xs, ys);
    }

    #[test]
    fn loc_of_i32_handles_field_widths() {
        let xs = vec![Loc {
            value: -42i32,
            index: 3,
        }];
        let bytes = to_bytes(&xs);
        assert_eq!(bytes.len(), 12); // 4 value + 8 index, no padding on the wire
        let ys: Vec<Loc<i32>> = from_bytes(&bytes, 1);
        assert_eq!(xs, ys);
    }

    #[test]
    fn empty_slices() {
        let xs: Vec<u32> = vec![];
        let bytes = to_bytes(&xs);
        assert!(bytes.is_empty());
        let ys: Vec<u32> = from_bytes(&bytes, 0);
        assert!(ys.is_empty());
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn read_from_length_mismatch_panics() {
        let mut out = [0f32; 2];
        f32::read_from(&[0u8; 7], &mut out);
    }
}
