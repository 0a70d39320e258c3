//! Dense codes for distinct keys, in first-seen order.
//!
//! [`Column::distinct_count`](crate::Column::distinct_count) and the query
//! executor's GROUP, UDF and calendar-year buckets all number distinct
//! keys with a [`FirstSeen`], so they agree on what "distinct" means and
//! hash the same way.

use std::collections::HashMap;
use std::hash::Hash;

/// How many keys a [`FirstSeen`] matches by linear scan before it builds
/// a hash index.
const SCAN_LIMIT: usize = 16;

/// Assigns each distinct key a dense `u32` code, `0, 1, 2, …` in the order
/// keys are first seen.
///
/// Up to 16 distinct keys are matched by a linear scan, with no hashing.
/// Past that, a `HashMap` under std's `RandomState` (SipHash-1-3 with
/// per-process random keys) indexes them: the keys are cells of a CSV, and
/// an unkeyed hash would let a crafted file collide them.
#[derive(Debug)]
pub struct FirstSeen<K> {
    keys: Vec<K>,
    index: HashMap<K, u32>,
}

impl<K> Default for FirstSeen<K> {
    fn default() -> Self {
        FirstSeen {
            keys: Vec::new(),
            index: HashMap::new(),
        }
    }
}

impl<K: Clone + Eq + Hash> FirstSeen<K> {
    pub fn new() -> Self {
        Self::default()
    }

    /// The code of `key`, assigning the next code on first sight.
    pub fn code(&mut self, key: K) -> u32 {
        let found = if self.keys.len() <= SCAN_LIMIT {
            self.keys.iter().position(|k| *k == key).map(|i| i as u32)
        } else {
            self.index.get(&key).copied()
        };
        if let Some(code) = found {
            return code;
        }
        // `u32::MAX` is never a code, so callers may use it as a marker.
        assert!(
            self.keys.len() < u32::MAX as usize,
            "more than u32::MAX - 1 distinct keys"
        );
        let code = self.keys.len() as u32;
        if self.keys.len() == SCAN_LIMIT {
            self.index = self.keys.iter().cloned().zip(0..).collect();
        }
        if self.keys.len() >= SCAN_LIMIT {
            self.index.insert(key.clone(), code);
        }
        self.keys.push(key);
        code
    }

    /// Number of distinct keys seen.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The distinct keys, indexed by code.
    pub fn into_keys(self) -> Vec<K> {
        self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_dense_in_first_seen_order_past_the_scan_limit() {
        let mut seen = FirstSeen::new();
        let keys: Vec<u64> = (0..100).map(|i| (i * 37) % 50).collect();
        let codes: Vec<u32> = keys.iter().map(|&k| seen.code(k)).collect();
        let mut first: Vec<u64> = Vec::new();
        for &k in &keys {
            if !first.contains(&k) {
                first.push(k);
            }
        }
        assert_eq!(seen.len(), 50);
        for (&k, &c) in keys.iter().zip(&codes) {
            assert_eq!(first[c as usize], k);
        }
        assert_eq!(seen.into_keys(), first);
    }

    #[test]
    fn str_keys_borrow() {
        let cells = ["b", "a", "b", "c", "a"];
        let mut seen = FirstSeen::new();
        let codes: Vec<u32> = cells.iter().map(|&s| seen.code(s)).collect();
        assert_eq!(codes, [0, 1, 0, 2, 1]);
        assert_eq!(seen.into_keys(), ["b", "a", "c"]);
    }
}
