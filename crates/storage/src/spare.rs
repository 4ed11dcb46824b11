//! Spare page buffers, one list per process.
//!
//! A page's bytes are one shared buffer (`Arc<[u8]>`, see
//! [`crate::cache`]). A buffer nobody needs any more — the durable image
//! a force replaced, a staged image staged over, a copy a crash
//! dropped — is [`give`]n here instead of freed, and the next copy
//! before a write ([`make_mut`]) or fresh page ([`zeroed`]) of its
//! length takes it. So a page's memory is reused whichever thread freed
//! it: the allocator would put a buffer freed by a checkpoint back in
//! the arena of the thread that allocated it, and the thread that copies
//! the page next might never allocate from there.
//!
//! A buffer is given back only when nothing else refers to it
//! (`Arc::get_mut` succeeds): no image, frame, staged copy or reader can
//! still see it, so reusing it changes no byte anyone can read. There
//! is one list per buffer length and no size bound: a buffer enters the
//! list only after it was a page buffer, so the buffers in use plus the
//! spare ones never exceed the process's high-water mark of page
//! buffers. The list's mutex is a leaf lock: callers hand buffers back
//! after they release their own locks, and nothing is called under it.

use parking_lot::Mutex;
use std::sync::Arc;

/// The spare buffers of each length, and their bytes in all.
struct Spare {
    lists: Vec<(usize, Vec<Arc<[u8]>>)>,
    bytes: u64,
}

static SPARE: Mutex<Spare> = Mutex::new(Spare {
    lists: Vec::new(),
    bytes: 0,
});

/// A spare buffer of `len` bytes, holding whatever its last page left.
fn take(len: usize) -> Option<Arc<[u8]>> {
    let mut spare = SPARE.lock();
    let buf = spare.lists.iter_mut().find(|(l, _)| *l == len)?.1.pop()?;
    spare.bytes -= len as u64;
    Some(buf)
}

/// Keep `buf` for the next page of its length, if nothing else refers
/// to it; otherwise just drop this reference.
pub fn give(mut buf: Arc<[u8]>) {
    if Arc::get_mut(&mut buf).is_none() {
        return;
    }
    let len = buf.len();
    let mut spare = SPARE.lock();
    spare.bytes += len as u64;
    match spare.lists.iter_mut().find(|(l, _)| *l == len) {
        Some((_, list)) => list.push(buf),
        None => spare.lists.push((len, vec![buf])),
    }
}

/// A buffer of `len` zero bytes: a spare one cleared, or a new one.
#[must_use]
pub fn zeroed(len: usize) -> Arc<[u8]> {
    match take(len) {
        Some(mut buf) => {
            Arc::get_mut(&mut buf)
                .expect("spare buffers are unshared")
                .fill(0);
            buf
        }
        // Collected straight into the shared buffer: one allocation.
        None => std::iter::repeat_n(0, len).collect(),
    }
}

/// The bytes of `buf` to write. If anything else still shares them (an
/// image, or a clone), they are first copied into a spare buffer of
/// their length, or a new one, and `buf` lets go of the shared one.
pub fn make_mut(buf: &mut Arc<[u8]>) -> &mut [u8] {
    // Every page operation comes here, so the unshared case pays one
    // atomic read-modify-write (`get_mut`'s), as `Arc::make_mut` did:
    // the two counts are plain loads. They read 1 and 0 only while
    // `buf` is the one reference, and then nothing can add another.
    if Arc::strong_count(buf) > 1 || Arc::weak_count(buf) > 0 {
        let copy = match take(buf.len()) {
            Some(mut spare) => {
                Arc::get_mut(&mut spare)
                    .expect("spare buffers are unshared")
                    .copy_from_slice(&buf[..]);
                spare
            }
            None => Arc::from(&buf[..]),
        };
        // The sharer may have let go meanwhile, leaving this the last
        // reference.
        give(std::mem::replace(buf, copy));
    }
    Arc::get_mut(buf).expect("a fresh copy is unshared")
}

/// Bytes on the spare list now, process-wide (`cache.spare_bytes`).
#[must_use]
pub fn bytes() -> u64 {
    SPARE.lock().bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lengths no other test in this crate uses, so the process-wide
    /// list holds only what each test gave.
    const LEN: usize = 1_001;

    #[test]
    fn a_shared_buffer_is_copied_into_a_spare_one() {
        let mut spare: Arc<[u8]> = Arc::from(&[7u8; LEN][..]);
        let kept = Arc::clone(&spare);
        give(Arc::clone(&spare));
        assert!(take(LEN).is_none(), "a shared buffer is not given back");
        drop(kept);
        let addr = spare.as_ptr();
        give(std::mem::replace(&mut spare, Arc::from(&[][..])));
        let mut page: Arc<[u8]> = Arc::from(&[1u8; LEN][..]);
        let image = Arc::clone(&page);
        make_mut(&mut page)[0] = 2;
        assert_eq!(page.as_ptr(), addr, "the copy took the spare buffer");
        assert_eq!((page[0], page[1], image[0]), (2, 1, 1));
        // A buffer nobody else holds is written in place.
        make_mut(&mut page)[1] = 3;
        assert_eq!(page.as_ptr(), addr);
    }

    #[test]
    fn a_zeroed_buffer_is_cleared() {
        give(Arc::from(&[9u8; LEN + 1][..]));
        let buf = zeroed(LEN + 1);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(zeroed(LEN + 2).len(), LEN + 2);
    }
}
