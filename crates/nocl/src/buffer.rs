//! Typed device buffers.

use core::marker::PhantomData;
use nocl_kir::Elem;

/// A scalar type that can live in device buffers.
pub trait DeviceScalar: Copy {
    /// The device element type.
    const ELEM: Elem;
    /// Append the little-endian byte representation.
    fn extend_bytes(&self, out: &mut Vec<u8>);
    /// Decode from little-endian bytes (`bytes.len() == ELEM.bytes()`).
    fn from_bytes(bytes: &[u8]) -> Self;
}

macro_rules! scalar {
    ($t:ty, $elem:expr) => {
        impl DeviceScalar for $t {
            const ELEM: Elem = $elem;
            fn extend_bytes(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn from_bytes(bytes: &[u8]) -> Self {
                Self::from_le_bytes(bytes.try_into().expect("element size"))
            }
        }
    };
}

scalar!(u8, Elem::U8);
scalar!(i8, Elem::I8);
scalar!(u16, Elem::U16);
scalar!(i16, Elem::I16);
scalar!(u32, Elem::U32);
scalar!(i32, Elem::I32);
scalar!(f32, Elem::F32);

/// A device buffer of `len` elements of `T` at a fixed device address.
///
/// Buffers are plain handles: data goes in through
/// [`crate::Gpu::alloc_from`] and comes out through [`crate::Gpu::read`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Buffer<T> {
    addr: u32,
    len: u32,
    _elem: PhantomData<T>,
}

impl<T: DeviceScalar> Buffer<T> {
    pub(crate) fn new(addr: u32, len: u32) -> Self {
        Buffer { addr, len, _elem: PhantomData }
    }

    /// Device address of the first element.
    pub fn addr(&self) -> u32 {
        self.addr
    }

    /// Length in elements.
    pub(crate) fn len(&self) -> u32 {
        self.len
    }

    /// Size in bytes.
    pub(crate) fn bytes(&self) -> u32 {
        self.len * T::ELEM.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut out = Vec::new();
        1.5f32.extend_bytes(&mut out);
        (-7i32).extend_bytes(&mut out);
        0xABu8.extend_bytes(&mut out);
        assert_eq!(f32::from_bytes(&out[0..4]), 1.5);
        assert_eq!(i32::from_bytes(&out[4..8]), -7);
        assert_eq!(u8::from_bytes(&out[8..9]), 0xAB);
    }

    #[test]
    fn buffer_geometry() {
        let b: Buffer<u16> = Buffer::new(0x8000_0000, 10);
        assert_eq!(b.bytes(), 20);
    }
}
