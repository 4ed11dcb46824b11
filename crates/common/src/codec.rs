//! The one byte codec for everything the engine persists or ships:
//! wire messages, log records, checkpoints, the catalog, index pages
//! and heap rows.
//!
//! The engine stores everything big-endian (page headers, log records,
//! [`KeyValue`]'s order-preserving keys), so the codec does too. A type
//! says how it travels by implementing [`Wire`] once; a value encodes
//! by appending to a `Vec<u8>` and decodes by walking a [`Cursor`].
//! Decoding is strict: `None` on truncation, on a value the type cannot
//! hold and — at the top, in [`decode`] — on trailing bytes. A count
//! read from the input reserves memory only through [`get_items`],
//! which caps the reserve at [`RESERVE_CAP`]; every other length is
//! checked against the bytes actually present before anything is
//! copied.
//!
//! Codecs are declared, not written: [`wire_enum!`](crate::wire_enum)
//! turns a table with one row per variant into an enum and its codec,
//! and [`wire_struct!`](crate::wire_struct) lists a struct's fields in
//! wire order. A field whose shape is not its type's names an override
//! module: [`framed`], [`u32_counted`] or [`u64_counted`].

use crate::ids::{IndexId, Lsn, PageId, Rid, TableId, TxId};
use crate::key::{IndexEntry, KeyValue};

/// Bounds-checked reader over received or stored bytes.
///
/// Every read advances the cursor and returns `None` if fewer bytes
/// remain than the value needs; a whole value decodes only if the
/// cursor is exactly drained (see [`Cursor::finish`]).
pub struct Cursor<'a> {
    /// The bytes not yet consumed. Each read is one split of this
    /// slice; a buffer-plus-position cursor re-derived the bounds on
    /// every read and made the log's header walk 40 % slower.
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// Start reading `buf` from the beginning.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { rest: buf }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes, or `None` if fewer remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.rest.split_at_checked(n)?;
        self.rest = rest;
        Some(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.rest.split_first_chunk()?;
        self.rest = rest;
        Some(*head)
    }

    /// Read one byte.
    #[inline]
    pub fn get_u8(&mut self) -> Option<u8> {
        let (&byte, rest) = self.rest.split_first()?;
        self.rest = rest;
        Some(byte)
    }

    /// Succeed only if the input was consumed exactly — trailing
    /// garbage is as malformed as truncation.
    pub fn finish<T>(self, value: T) -> Option<T> {
        self.rest.is_empty().then_some(value)
    }
}

/// How one type travels. Implemented once per type; a struct or enum
/// that nests calls it per field, in wire order. `get` is strict:
/// `None` on truncation or on a value the type cannot hold.
pub trait Wire: Sized {
    /// Append this value's encoding.
    fn put(&self, out: &mut Vec<u8>);
    /// Read one value, advancing the cursor.
    fn get(c: &mut Cursor<'_>) -> Option<Self>;
}

/// Encode `value` alone. No reserve: a fixed one changes the chunk
/// sizes of the build-progress and catalog blobs, and that alone moved
/// glibc's peak heap on a parallel build by 5 % with the same bytes in
/// use.
#[must_use]
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut out);
    out
}

/// Decode exactly one `T` from `buf`: truncation, a bad value and
/// trailing bytes are all `None`.
#[must_use]
pub fn decode<T: Wire>(buf: &[u8]) -> Option<T> {
    let mut c = Cursor::new(buf);
    let value = T::get(&mut c)?;
    c.finish(value)
}

/// Explicit cap on every `u16`-counted list. Encoders clamp to it —
/// count and emitted elements always agree — instead of letting `as
/// u16` wrap the count and produce bytes the reader rejects. Real lists
/// are orders of magnitude smaller; the clamp is a format invariant,
/// not a working limit.
pub const MAX_LIST: usize = u16::MAX as usize;

/// Most elements a list decoder reserves on the strength of a count it
/// has only read, not yet seen the elements of: a forged count costs
/// one small allocation before truncation rejects the input.
pub const RESERVE_CAP: usize = 256;

/// Append `items` back to back; the caller has written their count.
#[inline]
pub fn put_items<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    for item in items {
        item.put(out);
    }
}

/// Append a `u16` count, clamped at [`MAX_LIST`], and that many items.
#[inline]
pub fn put_list<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    let n = items.len().min(MAX_LIST);
    (n as u16).put(out);
    put_items(&items[..n], out);
}

/// Read `n` items back to back with `get`; the caller has read `n`.
/// The only place a count from the input reserves memory: at most
/// [`RESERVE_CAP`] elements up front, the rest as items arrive.
#[inline]
pub fn get_items<T>(
    c: &mut Cursor<'_>,
    n: usize,
    get: impl Fn(&mut Cursor<'_>) -> Option<T>,
) -> Option<Vec<T>> {
    let mut items = Vec::with_capacity(n.min(RESERVE_CAP));
    for _ in 0..n {
        items.push(get(c)?);
    }
    Some(items)
}

macro_rules! wire_int {
    ($($ty:ty),+) => {$(
        impl Wire for $ty {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }
            #[inline]
            fn get(c: &mut Cursor<'_>) -> Option<Self> {
                c.array().map(<$ty>::from_be_bytes)
            }
        }
    )+};
}
wire_int!(u16, u32, u64, i64);

/// One byte, 0 or 1; anything else is malformed.
impl Wire for bool {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
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

/// A `u32`-length byte string, not a list of `u8` (which has no `Wire`
/// impl of its own, so the two cannot be confused). The length is
/// checked against the bytes present, so a forged one fails fast
/// instead of allocating.
impl Wire for Vec<u8> {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self);
    }
    #[inline]
    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        let n = u32::get(c)? as usize;
        c.take(n).map(<[u8]>::to_vec)
    }
}

/// A `u32`-length UTF-8 string.
impl Wire for String {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    #[inline]
    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        String::from_utf8(Vec::get(c)?).ok()
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
        let n = u16::get(c)? as usize;
        get_items(c, n, T::get)
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

/// A 0/1 presence byte, then the value if present; any other flag is
/// malformed.
impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.is_some()));
        if let Some(v) = self {
            v.put(out);
        }
    }
    #[inline]
    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        match c.get_u8()? {
            0 => Some(None),
            1 => Some(Some(T::get(c)?)),
            _ => None,
        }
    }
}

/// A RID travels packed ([`Rid::pack`]).
impl Wire for Rid {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.pack().put(out);
    }
    #[inline]
    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        u64::get(c).map(Rid::unpack)
    }
}

/// Implement [`Wire`] for a struct by listing its fields in wire order:
///
/// ```text
/// wire_struct! { Type { field, other as override_module } }
/// wire_struct! { [T: Bound] Generic<T> { field } }
/// wire_struct! { Newtype { 0 } }
/// ```
///
/// Each field is encoded by its type's `Wire` impl; `as module` names a
/// module whose `put`/`get` replace that impl for the one field whose
/// shape is not its type's.
#[macro_export]
macro_rules! wire_struct {
    (@put $v:expr, $out:ident) => { $crate::codec::Wire::put($v, $out) };
    (@put $v:expr, $out:ident, $via:ident) => { $via::put($v, $out) };
    (@get $c:ident) => { $crate::codec::Wire::get($c)? };
    (@get $c:ident, $via:ident) => { $via::get($c)? };
    ([$($gen:tt)*] $ty:ty { $($field:tt $(as $via:ident)?),+ $(,)? }) => {
        impl<$($gen)*> $crate::codec::Wire for $ty {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::wire_struct!(@put &self.$field, out $(, $via)?);)+
            }
            #[inline]
            fn get(c: &mut $crate::codec::Cursor<'_>) -> Option<Self> {
                Some(Self { $($field: $crate::wire_struct!(@get c $(, $via)?)),+ })
            }
        }
    };
    ($ty:ty { $($fields:tt)* }) => { $crate::wire_struct!([] $ty { $($fields)* }); };
}

wire_struct! { TableId { 0 } }
wire_struct! { IndexId { 0 } }
wire_struct! { PageId { 0 } }
wire_struct! { Lsn { 0 } }
wire_struct! { TxId { 0 } }
wire_struct! { KeyValue { 0 } }
wire_struct! { IndexEntry { key, rid } }

/// Declare an enum and its codec from a table, one row per variant:
///
/// ```text
/// /// Doc comment.
/// Variant = tag [may_block] {
///     /// Field doc comment.
///     field: Type,
///     other: Type as override_module,
/// },
/// ```
///
/// `[may_block]` and the braces are optional. A field is encoded by
/// its type's [`Wire`] impl, fields in the order written; `as module`
/// names a module whose `put`/`get` replace that impl for the one field
/// whose shape is not its type's. Generated: the enum with every
/// attribute and doc comment passed through, `NAMES`, `index()`,
/// `name()`, `tag()`, `has_tag()`, `put_fields()`/`get_fields()` (the
/// body without the tag byte, for formats that put something between
/// the two), a private `tag_may_block()` and the `Wire` impl (tag
/// byte, then the fields).
#[macro_export]
macro_rules! wire_enum {
    (@flag) => { false };
    (@flag may_block) => { true };
    (@put $field:ident, $out:ident) => { $crate::codec::Wire::put($field, $out) };
    (@put $field:ident, $out:ident, $via:ident) => { $via::put($field, $out) };
    (@get $c:ident) => { $crate::codec::Wire::get($c)? };
    (@get $c:ident, $via:ident) => { $via::get($c)? };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $tag:literal $([$flag:ident])? $({
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident: $fty:ty $(as $via:ident)?
                    ),+ $(,)?
                })?
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $({
                    $(
                        $(#[$fmeta])*
                        $field: $fty
                    ),+
                })?
            ),+
        }

        impl $name {
            /// Every variant's name, in table order.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($variant)),+];

            /// This variant's position in [`Self::NAMES`] — a dense
            /// index for per-variant arrays (the tag bytes have gaps).
            #[must_use]
            pub fn index(&self) -> usize {
                enum Row {
                    $($variant),+
                }
                match self {
                    $($name::$variant { .. } => Row::$variant as usize),+
                }
            }

            /// This variant's name, stable across releases (metric
            /// and trace labels are built from it).
            #[must_use]
            pub fn name(&self) -> &'static str {
                Self::NAMES[self.index()]
            }

            /// This variant's tag byte, frozen once shipped.
            #[must_use]
            pub const fn tag(&self) -> u8 {
                match self {
                    $($name::$variant { .. } => $tag),+
                }
            }

            /// Is `tag` some row's tag byte?
            #[must_use]
            #[inline]
            #[allow(clippy::manual_range_patterns)] // tags are listed, not ranged
            pub fn has_tag(tag: u8) -> bool {
                matches!(tag, $($tag)|+)
            }

            /// Is the row with this tag byte marked `[may_block]`?
            #[allow(dead_code)] // only `Request` rows carry the flag
            fn tag_may_block(tag: u8) -> bool {
                match tag {
                    $($tag => $crate::wire_enum!(@flag $($flag)?),)+
                    _ => false,
                }
            }

            /// Append this variant's fields, without its tag byte.
            #[inline]
            #[allow(clippy::ptr_arg, unused_variables)] // a table of unit rows writes nothing
            pub fn put_fields(&self, out: &mut Vec<u8>) {
                match self {
                    $($name::$variant $({ $($field),+ })? => {
                        $($($crate::wire_enum!(@put $field, out $(, $via)?);)+)?
                    })+
                }
            }

            /// Read the fields of the row tagged `tag`; `None` for an
            /// unknown tag or malformed fields.
            #[inline]
            #[allow(unused_variables)] // nor reads anything
            pub fn get_fields(tag: u8, c: &mut $crate::codec::Cursor<'_>) -> Option<Self> {
                Some(match tag {
                    $($tag => $name::$variant $({
                        $($field: $crate::wire_enum!(@get c $(, $via)?)),+
                    })?,)+
                    _ => return None,
                })
            }
        }

        impl $crate::codec::Wire for $name {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.push(self.tag());
                self.put_fields(out);
            }

            #[inline]
            fn get(c: &mut $crate::codec::Cursor<'_>) -> Option<Self> {
                let tag = c.get_u8()?;
                Self::get_fields(tag, c)
            }
        }
    };
}

/// A nested value behind a `u32` byte length, `[u32 len][value]`: the
/// value must fill its frame exactly.
pub mod framed {
    use super::{decode, Cursor, Wire};

    /// Append `value` behind its byte length.
    pub fn put<T: Wire>(value: &T, out: &mut Vec<u8>) {
        let at = out.len();
        out.extend_from_slice(&[0; 4]);
        value.put(out);
        let len = (out.len() - at - 4) as u32;
        out[at..at + 4].copy_from_slice(&len.to_be_bytes());
    }

    /// Read one framed value.
    pub fn get<T: Wire>(c: &mut Cursor<'_>) -> Option<T> {
        let len = u32::get(c)? as usize;
        decode(c.take(len)?)
    }
}

macro_rules! counted {
    ($($module:ident: $count:ty),+) => {$(
        #[doc = concat!("A list behind a `", stringify!($count), "` count, not `Vec<T>`'s `u16`.")]
        pub mod $module {
            use super::{get_items, put_items, Cursor, Wire};

            /// Append the count, then the items.
            pub fn put<T: Wire>(items: &[T], out: &mut Vec<u8>) {
                (items.len() as $count).put(out);
                put_items(items, out);
            }

            /// Read the count, then that many items.
            pub fn get<T: Wire>(c: &mut Cursor<'_>) -> Option<Vec<T>> {
                let n = <$count>::get(c)?;
                get_items(c, usize::try_from(n).ok()?, T::get)
            }
        }
    )+};
}
counted!(u32_counted: u32, u64_counted: u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut buf = Vec::new();
        buf.push(0xab);
        0xbeef_u16.put(&mut buf);
        0xdead_beef_u32.put(&mut buf);
        (u64::MAX - 7).put(&mut buf);
        (-42i64).put(&mut buf);
        b"key".to_vec().put(&mut buf);
        String::from("naïve").put(&mut buf);
        Some(Lsn(9)).put(&mut buf);
        None::<Lsn>.put(&mut buf);
        Rid::new(3, 4).put(&mut buf);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.get_u8(), Some(0xab));
        assert_eq!(u16::get(&mut c), Some(0xbeef));
        assert_eq!(u32::get(&mut c), Some(0xdead_beef));
        assert_eq!(u64::get(&mut c), Some(u64::MAX - 7));
        assert_eq!(i64::get(&mut c), Some(-42));
        assert_eq!(Vec::<u8>::get(&mut c).as_deref(), Some(&b"key"[..]));
        assert_eq!(String::get(&mut c).as_deref(), Some("naïve"));
        assert_eq!(Option::get(&mut c), Some(Some(Lsn(9))));
        assert_eq!(Option::<Lsn>::get(&mut c), Some(None));
        assert_eq!(Rid::get(&mut c), Some(Rid::new(3, 4)));
        assert_eq!(c.finish(()), Some(()));
    }

    #[test]
    fn truncation_returns_none() {
        let buf = encode(&1u64);
        for cut in 0..8 {
            assert_eq!(decode::<u64>(&buf[..cut]), None, "cut at {cut}");
        }
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut buf = encode(&u32::MAX); // claims 4 GiB follow
        buf.extend_from_slice(b"xy");
        assert_eq!(decode::<Vec<u8>>(&buf), None);
    }

    #[test]
    fn trailing_garbage_fails_finish() {
        let mut c = Cursor::new(&[1u8, 2, 3]);
        c.get_u8().unwrap();
        assert_eq!(c.finish(()), None);
        assert_eq!(decode::<u16>(&[0, 1, 2]), None);
    }

    #[test]
    fn invalid_utf8_and_flags_rejected() {
        assert_eq!(decode::<String>(&encode(&vec![0xffu8, 0xfe])), None);
        assert_eq!(decode::<bool>(&[2]), None);
        assert_eq!(decode::<Option<u16>>(&[2, 0, 0]), None);
    }

    #[test]
    fn entry_and_frames_roundtrip() {
        let e = IndexEntry::from_i64(-31337, Rid::new(12, 3));
        assert_eq!(decode(&encode(&e)), Some(e.clone()));
        let mut buf = Vec::new();
        framed::put(&e, &mut buf);
        u32_counted::put(&[e.clone(), e.clone()], &mut buf);
        u64_counted::put(&[7u16], &mut buf);
        let mut c = Cursor::new(&buf);
        assert_eq!(framed::get(&mut c), Some(e.clone()));
        assert_eq!(u32_counted::get(&mut c), Some(vec![e.clone(), e]));
        assert_eq!(u64_counted::get(&mut c), Some(vec![7u16]));
        assert_eq!(c.finish(()), Some(()));
        // A frame must be filled exactly by its value.
        let mut long = vec![0, 0, 0, 3];
        long.extend_from_slice(&[0, 1, 9]);
        assert_eq!(framed::get::<u16>(&mut Cursor::new(&long)), None);
    }

    #[test]
    fn forged_counts_reserve_at_most_the_cap() {
        let mut c = Cursor::new(&[0xFF; 64]);
        assert_eq!(u64_counted::get::<u64>(&mut c), None);
        let items = get_items(&mut Cursor::new(&[0; 16]), 2, u64::get).unwrap();
        assert_eq!(items, vec![0, 0]);
        let v = get_items(&mut Cursor::new(&[]), usize::MAX, u64::get);
        assert!(v.is_none());
    }
}
