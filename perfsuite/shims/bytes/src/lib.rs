//! Offline stand-in for the subset of `bytes` 1.x this repository uses:
//! the `Buf` cursor over `&[u8]` and the `BufMut` writer over `Vec<u8>`.

macro_rules! getters {
    ($($le:ident $be:ident $t:ty),*) => {$(
        #[inline]
        fn $le(&mut self) -> $t {
            let mut raw = [0u8; std::mem::size_of::<$t>()];
            self.copy_to_slice(&mut raw);
            <$t>::from_le_bytes(raw)
        }
        #[inline]
        fn $be(&mut self) -> $t {
            let mut raw = [0u8; std::mem::size_of::<$t>()];
            self.copy_to_slice(&mut raw);
            <$t>::from_be_bytes(raw)
        }
    )*};
}

macro_rules! putters {
    ($($le:ident $be:ident $t:ty),*) => {$(
        #[inline]
        fn $le(&mut self, v: $t) {
            self.put_slice(&v.to_le_bytes());
        }
        #[inline]
        fn $be(&mut self, v: $t) {
            self.put_slice(&v.to_be_bytes());
        }
    )*};
}

/// Read access to a buffer through an advancing cursor.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    #[inline]
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer too short");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    #[inline]
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    #[inline]
    fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }

    getters!(get_u16_le get_u16 u16, get_i16_le get_i16 i16, get_u32_le get_u32 u32, get_i32_le get_i32 i32,
             get_u64_le get_u64 u64, get_i64_le get_i64 i64, get_f32_le get_f32 f32, get_f64_le get_f64 f64);
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }

    #[inline]
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Append access to a growable buffer.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    #[inline]
    fn put_i8(&mut self, v: i8) {
        self.put_slice(&[v as u8]);
    }

    putters!(put_u16_le put_u16 u16, put_i16_le put_i16 i16, put_u32_le put_u32 u32, put_i32_le put_i32 i32,
             put_u64_le put_u64 u64, put_i64_le put_i64 i64, put_f32_le put_f32 f32, put_f64_le put_f64 f64);
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }

    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
}

impl<B: BufMut + ?Sized> BufMut for &mut B {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src);
    }
}
