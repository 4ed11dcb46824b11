//! Big-endian primitive codec shared by the frame and message layers.
//!
//! The engine already stores everything big-endian (page headers, WAL
//! records, [`mohan_common::key::KeyValue`] order-preserving keys), so
//! the wire uses the same convention. Encoding appends to a `Vec<u8>`;
//! decoding walks a [`Cursor`] and returns `None` on truncation, the
//! same contract as `IndexEntry::decode` — callers translate `None`
//! into a protocol-level `Malformed` error.

/// Bounds-checked reader over a received payload.
///
/// Every `get_*` advances the cursor and returns `None` if fewer bytes
/// remain than the value needs; decoding a whole message succeeds only
/// if the cursor is exactly drained (see [`Cursor::finish`]).
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Start reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Read a big-endian `u16`.
    pub fn get_u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_be_bytes([s[0], s[1]]))
    }

    /// Read a big-endian `u32`.
    pub fn get_u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Read a big-endian `u64`.
    pub fn get_u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_be_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// Read a big-endian `i64` (two's complement).
    pub fn get_i64(&mut self) -> Option<i64> {
        self.get_u64().map(|v| v as i64)
    }

    /// Read a `u32`-length-prefixed byte string.
    ///
    /// The length is validated against the bytes actually present, so a
    /// forged huge length fails fast instead of allocating.
    pub fn get_bytes(&mut self) -> Option<Vec<u8>> {
        let len = self.get_u32()? as usize;
        self.take(len).map(|s| s.to_vec())
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn get_string(&mut self) -> Option<String> {
        String::from_utf8(self.get_bytes()?).ok()
    }

    /// Succeed only if the payload was consumed exactly — trailing
    /// garbage is as malformed as truncation.
    pub fn finish<T>(self, value: T) -> Option<T> {
        if self.remaining() == 0 {
            Some(value)
        } else {
            None
        }
    }
}

/// Append one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a big-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a big-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a big-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a big-endian `i64` (two's complement).
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_u64(out, v as u64);
}

/// Append a `u32`-length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_u32(out, v.len() as u32);
    out.extend_from_slice(v);
}

/// Append a `u32`-length-prefixed UTF-8 string.
pub fn put_string(out: &mut Vec<u8>, v: &str) {
    put_bytes(out, v.as_bytes());
}

/// Explicit protocol cap on every `u16`-counted list (columns, index
/// specs, key columns, created ids, stat counters). Encoders clamp to
/// it — count and emitted elements always agree — instead of letting
/// `as u16` wrap the count and produce a frame the peer rejects as
/// malformed (trailing bytes). Real lists are orders of magnitude
/// smaller; the clamp is a wire-format invariant, not a working limit.
pub const MAX_LIST: usize = u16::MAX as usize;

/// Most elements a list decoder reserves on the strength of a count it
/// has only read, not yet seen the elements of: a forged count costs
/// one small allocation before truncation rejects the frame.
const RESERVE_CAP: usize = 256;

/// How one field type travels. Implemented once per type, here for
/// the shapes every message shares and in [`crate::message`] for the
/// structs and enums that nest; the message tables call it per field,
/// in declaration order. `get` is strict: `None` on truncation or on
/// a value the type cannot hold.
pub(crate) trait Wire: Sized {
    /// Append this value's encoding.
    fn put(&self, out: &mut Vec<u8>);
    /// Read one value, advancing the cursor.
    fn get(c: &mut Cursor<'_>) -> Option<Self>;
}

macro_rules! wire_int {
    ($($ty:ty: $put:ident / $get:ident),+) => {$(
        impl Wire for $ty {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $put(out, *self);
            }
            #[inline]
            fn get(c: &mut Cursor<'_>) -> Option<Self> {
                c.$get()
            }
        }
    )+};
}
wire_int!(u16: put_u16 / get_u16, u32: put_u32 / get_u32, u64: put_u64 / get_u64, i64: put_i64 / get_i64);

/// One byte, 0 or 1; anything else is malformed.
impl Wire for bool {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_u8(out, u8::from(*self));
    }
    #[inline]
    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        match c.get_u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for String {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_string(out, self);
    }
    #[inline]
    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        c.get_string()
    }
}

/// A `u32`-length byte string, not a list of `u8` (which has no
/// `Wire` impl of its own, so the two cannot be confused).
impl Wire for Vec<u8> {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, self);
    }
    #[inline]
    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        c.get_bytes()
    }
}

/// A `u16`-counted list, clamped at [`MAX_LIST`] on encode.
impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_list(self, out);
    }
    #[inline]
    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        let n = c.get_u16()? as usize;
        get_items(c, n)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    #[inline]
    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        Some((A::get(c)?, B::get(c)?))
    }
}

/// Append a `u16` count, clamped at [`MAX_LIST`], and that many items.
#[inline]
pub(crate) fn put_list<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    let n = items.len().min(MAX_LIST);
    put_u16(out, n as u16);
    put_items(&items[..n], out);
}

/// Append `items` back to back; the caller has written their count.
#[inline]
pub(crate) fn put_items<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    for item in items {
        item.put(out);
    }
}

/// Read `n` items back to back; the caller has read (and bounded) `n`.
#[inline]
pub(crate) fn get_items<T: Wire>(c: &mut Cursor<'_>, n: usize) -> Option<Vec<T>> {
    let mut items = Vec::with_capacity(n.min(RESERVE_CAP));
    for _ in 0..n {
        items.push(T::get(c)?);
    }
    Some(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xab);
        put_u16(&mut buf, 0xbeef);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 7);
        put_i64(&mut buf, -42);
        put_bytes(&mut buf, b"key");
        put_string(&mut buf, "naïve");
        let mut c = Cursor::new(&buf);
        assert_eq!(c.get_u8(), Some(0xab));
        assert_eq!(c.get_u16(), Some(0xbeef));
        assert_eq!(c.get_u32(), Some(0xdead_beef));
        assert_eq!(c.get_u64(), Some(u64::MAX - 7));
        assert_eq!(c.get_i64(), Some(-42));
        assert_eq!(c.get_bytes().as_deref(), Some(&b"key"[..]));
        assert_eq!(c.get_string().as_deref(), Some("naïve"));
        assert_eq!(c.finish(()), Some(()));
    }

    #[test]
    fn truncation_returns_none() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 1);
        for cut in 0..8 {
            let mut c = Cursor::new(&buf[..cut]);
            assert_eq!(c.get_u64(), None, "cut at {cut}");
        }
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX); // claims 4 GiB follow
        buf.extend_from_slice(b"xy");
        let mut c = Cursor::new(&buf);
        assert_eq!(c.get_bytes(), None);
    }

    #[test]
    fn trailing_garbage_fails_finish() {
        let buf = [1u8, 2, 3];
        let mut c = Cursor::new(&buf);
        c.get_u8().unwrap();
        assert_eq!(c.finish(()), None);
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, &[0xff, 0xfe]);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.get_string(), None);
    }
}
