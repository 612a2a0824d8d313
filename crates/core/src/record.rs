//! Plain-old-data records for zero-copy streaming.
//!
//! X-Stream moves edges, updates and vertex state through byte-oriented
//! *chunk arrays* (paper Fig. 5) and, for out-of-core graphs, through
//! partition files on disk. The [`Record`] trait marks types whose raw
//! bytes can be written to and read back from such streams without any
//! serialization step — the property that makes streaming competitive
//! with in-place access in the first place.

use core::mem;
use core::ptr;
use core::slice;

/// A fixed-size plain-old-data record.
///
/// Engines copy records into byte buffers with `memcpy` semantics and
/// reconstruct them with unaligned reads, so implementors must uphold
/// the contract below.
///
/// # Safety
///
/// Implementors must guarantee all of the following:
///
/// * the type is `repr(C)` (or a primitive/array thereof) and contains
///   **no padding bytes** — every byte of the value is initialized;
/// * the type contains no pointers, references, or any other data whose
///   validity depends on its address;
/// * any bit pattern produced by copying the bytes of a valid value is
///   itself a valid value (no niche/validity invariants such as `bool`
///   or enum discriminants beyond their range).
pub unsafe trait Record: Copy + Send + Sync + 'static {
    /// Size of the record in bytes, as stored in a stream.
    const SIZE: usize = mem::size_of::<Self>();
}

// SAFETY: primitives are padding-free, pointer-free and any bit pattern
// copied from a valid value is valid.
unsafe impl Record for u8 {}
// SAFETY: as above.
unsafe impl Record for u16 {}
// SAFETY: as above.
unsafe impl Record for u32 {}
// SAFETY: as above.
unsafe impl Record for u64 {}
// SAFETY: as above.
unsafe impl Record for i32 {}
// SAFETY: as above.
unsafe impl Record for i64 {}
// SAFETY: as above.
unsafe impl Record for f32 {}
// SAFETY: as above.
unsafe impl Record for f64 {}
// SAFETY: an array of padding-free records is itself padding-free.
unsafe impl<T: Record, const N: usize> Record for [T; N] {}

/// Views a slice of records as raw bytes, zero-copy.
#[inline]
pub fn records_as_bytes<T: Record>(records: &[T]) -> &[u8] {
    // SAFETY: `T: Record` guarantees no padding, so every byte in the
    // slice is initialized; the returned slice covers exactly the same
    // memory with the same lifetime.
    unsafe { slice::from_raw_parts(records.as_ptr().cast::<u8>(), mem::size_of_val(records)) }
}

/// Views a mutable slice of records as raw bytes, zero-copy, so a
/// reader can fill records straight from a byte source.
#[inline]
pub fn records_as_bytes_mut<T: Record>(records: &mut [T]) -> &mut [u8] {
    // SAFETY: as for `records_as_bytes`, every byte is initialized;
    // and `T: Record` guarantees any bit pattern is a valid `T`, so no
    // bytes written through the view can leave an invalid record.
    unsafe {
        slice::from_raw_parts_mut(records.as_mut_ptr().cast::<u8>(), mem::size_of_val(records))
    }
}

/// A vector of `len` all-zero records from `alloc_zeroed`: a large one
/// maps fresh zero pages, first touched by whoever writes them, instead
/// of memsetting them here.
pub fn zeroed_records<T: Record>(len: usize) -> Vec<T> {
    assert!(mem::size_of::<T>() > 0, "zero-sized record");
    if len == 0 {
        return Vec::new();
    }
    let layout = std::alloc::Layout::array::<T>(len).expect("record count overflows a layout");
    // SAFETY: `layout` has nonzero size. The all-zero bit pattern is a
    // valid `T` (the `Record` contract), so all `len` elements are
    // initialized; the pointer comes from the global allocator with
    // exactly the layout `Vec` frees it with (capacity `len`).
    unsafe {
        let ptr = std::alloc::alloc_zeroed(layout).cast::<T>();
        if ptr.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        Vec::from_raw_parts(ptr, len, len)
    }
}

/// Reads one record from the front of `buf`.
///
/// # Panics
///
/// Panics if `buf` is shorter than `T::SIZE`.
#[inline]
pub fn read_record<T: Record>(buf: &[u8]) -> T {
    assert!(
        buf.len() >= mem::size_of::<T>(),
        "record read out of bounds"
    );
    // SAFETY: the bound was just checked; `read_unaligned` places no
    // alignment requirement on the source, and `T: Record` guarantees
    // any byte pattern copied from a valid record is a valid `T`.
    unsafe { ptr::read_unaligned(buf.as_ptr().cast::<T>()) }
}

/// Appends the raw bytes of a record to a byte vector.
#[inline]
pub fn append_record<T: Record>(buf: &mut Vec<u8>, value: &T) {
    buf.extend_from_slice(records_as_bytes(slice::from_ref(value)));
}

/// Copies the records encoded in `bytes` into a typed vector.
///
/// The source need not be aligned.
///
/// # Panics
///
/// Panics if `bytes.len()` is not a multiple of `T::SIZE`.
pub fn decode_records<T: Record>(bytes: &[u8]) -> Vec<T> {
    assert_eq!(
        bytes.len() % mem::size_of::<T>(),
        0,
        "byte stream length is not a whole number of records"
    );
    let n = bytes.len() / mem::size_of::<T>();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(read_record::<T>(&bytes[i * mem::size_of::<T>()..]));
    }
    out
}

/// Iterator decoding successive records from a byte stream.
///
/// Trailing bytes shorter than one record are ignored; engines only
/// produce whole-record streams, so in practice there are none.
pub struct RecordIter<'a, T: Record> {
    bytes: &'a [u8],
    _marker: core::marker::PhantomData<T>,
}

impl<'a, T: Record> RecordIter<'a, T> {
    /// Creates an iterator over the records packed in `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            _marker: core::marker::PhantomData,
        }
    }

    /// Number of whole records remaining.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() / mem::size_of::<T>()
    }
}

impl<'a, T: Record> Iterator for RecordIter<'a, T> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        if self.bytes.len() < mem::size_of::<T>() {
            return None;
        }
        let v = read_record::<T>(self.bytes);
        self.bytes = &self.bytes[mem::size_of::<T>()..];
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

impl<'a, T: Record> ExactSizeIterator for RecordIter<'a, T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;

    #[test]
    fn roundtrip_single() {
        let e = Edge::weighted(1, 2, 3.5);
        let mut buf = Vec::new();
        append_record(&mut buf, &e);
        assert_eq!(buf.len(), 12);
        let back: Edge = read_record(&buf);
        assert_eq!(back, e);
    }

    #[test]
    fn roundtrip_slice() {
        let edges = vec![Edge::new(0, 1), Edge::new(2, 3), Edge::weighted(4, 5, -1.0)];
        let bytes = records_as_bytes(&edges);
        assert_eq!(bytes.len(), 36);
        let back: Vec<Edge> = decode_records(bytes);
        assert_eq!(back, edges);
    }

    #[test]
    fn mutable_byte_view_fills_records() {
        let src = vec![Edge::new(1, 2), Edge::weighted(3, 4, 0.5)];
        let mut dst = vec![Edge::new(0, 0); 2];
        records_as_bytes_mut(&mut dst).copy_from_slice(records_as_bytes(&src));
        assert_eq!(dst, src);
    }

    #[test]
    fn iterator_handles_unaligned_offsets() {
        // Prepend one byte so every record read is unaligned.
        let edges = vec![Edge::new(10, 20), Edge::new(30, 40)];
        let mut buf = vec![0xAAu8];
        buf.extend_from_slice(records_as_bytes(&edges));
        let it = RecordIter::<Edge>::new(&buf[1..]);
        let back: Vec<Edge> = it.collect();
        assert_eq!(back, edges);
    }

    #[test]
    #[should_panic(expected = "whole number of records")]
    fn decode_rejects_ragged_stream() {
        let bytes = [0u8; 13];
        let _ = decode_records::<Edge>(&bytes);
    }
}
