//! Cache-line-aligned owned buffers.
//!
//! glibc hands out large blocks 16 bytes past a 64-byte line, so a plain
//! `Vec<f64>` of a few hundred KiB starts mid-line and every row of a
//! matrix in it whose stride is a multiple of 64 bytes inherits that
//! offset: each 512-bit load of such a row straddles two cache lines.
//! [`AlignedVec`] starts its elements on a 64-byte boundary instead.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Alignment of an [`AlignedVec`]'s first element: one cache line.
const ALIGN: usize = 64;

/// A fixed-length buffer of `T` whose first element sits on a 64-byte
/// boundary.
///
/// It over-allocates a few elements and starts at the first aligned one
/// (`64 / size_of::<T>() − 1` spare elements reach one from any address
/// the allocator's alignment allows), so it needs no unsafe code;
/// an element type whose size does not divide 64 keeps the allocator's
/// alignment. New buffers are filled through `vec![T::default(); …]`, so a
/// zero `f64` buffer comes from calloc's lazily zeroed pages. The buffer
/// dereferences to `[T]`; [`Clone`] aligns the copy afresh, and
/// [`PartialEq`] and [`Debug`] see the contents only.
pub struct AlignedVec<T> {
    buf: Vec<T>,
    at: usize,
    len: usize,
}

impl<T: Clone + Default> AlignedVec<T> {
    /// A buffer of `len` default values (`0.0` for `f64`).
    pub fn zeroed(len: usize) -> Self {
        let pad = (ALIGN / std::mem::size_of::<T>().max(1)).saturating_sub(1);
        let buf = vec![T::default(); len + pad];
        let at = buf.as_ptr().align_offset(ALIGN);
        AlignedVec { buf, at: if at <= pad { at } else { 0 }, len }
    }

    /// An aligned copy of `values`.
    pub fn from_slice(values: &[T]) -> Self {
        let mut out = AlignedVec::zeroed(values.len());
        out.clone_from_slice(values);
        out
    }
}

impl<T> Deref for AlignedVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf[self.at..self.at + self.len]
    }
}

impl<T> DerefMut for AlignedVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[self.at..self.at + self.len]
    }
}

impl<T> AsRef<[T]> for AlignedVec<T> {
    fn as_ref(&self) -> &[T] {
        self
    }
}

impl<T> AsMut<[T]> for AlignedVec<T> {
    fn as_mut(&mut self) -> &mut [T] {
        self
    }
}

impl<T: Clone + Default> Clone for AlignedVec<T> {
    fn clone(&self) -> Self {
        AlignedVec::from_slice(self)
    }
}

impl<T: PartialEq> PartialEq for AlignedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: fmt::Debug> fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aligned<T>(v: &[T]) -> bool {
        (v.as_ptr() as usize).is_multiple_of(ALIGN)
    }

    #[test]
    fn every_length_starts_on_a_cache_line() {
        for len in 0..=70 {
            let v = AlignedVec::<f64>::zeroed(len);
            assert_eq!(v.len(), len);
            assert!(v.iter().all(|&x| x == 0.0), "len {len} not zeroed");
            assert!(aligned(&v), "len {len} at {:p}", v.as_ptr());
            assert!(aligned(&v.clone()), "clone of len {len}");
            let pairs = AlignedVec::<[f64; 2]>::zeroed(len);
            assert!(aligned(&pairs), "16-byte elements, len {len}");
        }
        // Large enough that glibc serves it from mmap, 16 bytes past a line.
        assert!(aligned(&AlignedVec::<f64>::zeroed(20 * 8192)));
    }

    #[test]
    fn equality_and_debug_see_contents_only() {
        let values: Vec<f64> = (0..13).map(|i| i as f64 * 0.5).collect();
        let a = AlignedVec::from_slice(&values);
        let mut b = AlignedVec::zeroed(13);
        b.copy_from_slice(&values);
        assert_eq!(a, b);
        assert_eq!(&a[..], &values[..]);
        assert_eq!(format!("{a:?}"), format!("{values:?}"));
        b[12] = -1.0;
        assert_ne!(a, b);
        assert_ne!(a, AlignedVec::from_slice(&values[..12]));
    }
}
