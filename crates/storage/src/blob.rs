//! Forced-write metadata area ("stable storage").
//!
//! The paper repeatedly has the index builder "record on stable
//! storage" small pieces of progress information: the highest key
//! inserted so far (§2.2.3), sort-phase checkpoints (§5.1), merge
//! counters (§5.2), side-file positions (§3.2.5). A [`BlobStore`] is
//! that stable area: `put` is atomically durable (it models a forced
//! write of a checkpoint record), so its contents survive a simulated
//! crash unchanged.

use parking_lot::Mutex;
use std::collections::HashMap;

/// Durable key/value store for checkpoint metadata.
#[derive(Debug, Default)]
pub struct BlobStore {
    inner: Mutex<HashMap<String, Vec<u8>>>,
}

impl BlobStore {
    /// Empty store.
    #[must_use]
    pub fn new() -> BlobStore {
        BlobStore::default()
    }

    /// Durably record `value` under `key`, replacing any prior value.
    pub fn put(&self, key: &str, value: Vec<u8>) {
        self.inner.lock().insert(key.to_string(), value);
    }

    /// Read back a value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.inner.lock().get(key).cloned()
    }

    /// Durably remove a value (e.g. a completed build's progress
    /// record).
    pub fn remove(&self, key: &str) {
        self.inner.lock().remove(key);
    }

    /// Keys currently present (diagnostics).
    #[must_use]
    pub fn keys(&self) -> Vec<String> {
        self.inner.lock().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_remove() {
        let b = BlobStore::new();
        b.put("ib/progress", vec![1, 2, 3]);
        assert_eq!(b.get("ib/progress"), Some(vec![1, 2, 3]));
        b.remove("ib/progress");
        assert_eq!(b.get("ib/progress"), None);
        assert!(b.keys().is_empty());
    }

    #[test]
    fn put_replaces() {
        let b = BlobStore::new();
        b.put("k", vec![1]);
        b.put("k", vec![2]);
        assert_eq!(b.get("k"), Some(vec![2]));
    }
}
