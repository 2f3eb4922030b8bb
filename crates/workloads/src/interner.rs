//! String-key interning.
//!
//! The engine partitions on dense `u64` keys ([`prompt_core::types::Key`]),
//! but real workloads key on strings (words, medallion hashes, machine
//! names). [`KeyInterner`] is the bidirectional mapping the receiver layer
//! maintains: intern on ingestion, resolve for display. A deterministic
//! synthetic vocabulary generator produces realistic word spellings for the
//! tweet workload's output.

use prompt_core::hash::FastBuildHasher;
use prompt_core::source::TupleSource;
use prompt_core::types::{Interval, Key, Tuple};
use std::collections::HashMap;

/// Bidirectional `String ↔ Key` mapping with dense key assignment.
#[derive(Debug, Default)]
pub struct KeyInterner {
    by_name: HashMap<String, Key, FastBuildHasher>,
    by_key: Vec<String>,
}

impl KeyInterner {
    /// An empty interner.
    pub fn new() -> KeyInterner {
        KeyInterner::default()
    }

    /// Intern `name`, returning its stable key (allocating the next dense
    /// key on first sight).
    pub fn intern(&mut self, name: &str) -> Key {
        if let Some(&k) = self.by_name.get(name) {
            return k;
        }
        let k = Key(self.by_key.len() as u64);
        self.by_name.insert(name.to_string(), k);
        self.by_key.push(name.to_string());
        k
    }

    /// Resolve a key back to its name.
    pub fn resolve(&self, key: Key) -> Option<&str> {
        self.by_key.get(key.0 as usize).map(String::as_str)
    }

    /// Look up a name without interning.
    pub fn get(&self, name: &str) -> Option<Key> {
        self.by_name.get(name).copied()
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }
}

/// A [`TupleSource`] adapter that routes every key of an inner source
/// through string interning: each generated `Key(rank)` is rendered to its
/// [`word`] spelling and re-interned in first-sight order, exactly like a
/// receiver ingesting raw text.
///
/// The engine's differential oracle reads a 2²²-key space through it.
/// Interning is deterministic (first-sight
/// dense assignment over a deterministic tuple stream), so wrapped sources
/// remain replayable and differential-testable.
pub struct InternedSource<S> {
    inner: S,
    interner: KeyInterner,
}

impl<S: TupleSource> InternedSource<S> {
    /// Wrap `inner`, interning every key it emits.
    pub fn new(inner: S) -> InternedSource<S> {
        InternedSource {
            inner,
            interner: KeyInterner::new(),
        }
    }

    /// The interner accumulated so far (for cardinality reporting).
    pub fn interner(&self) -> &KeyInterner {
        &self.interner
    }
}

impl<S: TupleSource> TupleSource for InternedSource<S> {
    fn fill(&mut self, interval: Interval, out: &mut Vec<Tuple>) {
        let start = out.len();
        self.inner.fill(interval, out);
        for t in &mut out[start..] {
            t.key = self.interner.intern(&word(t.key.0));
        }
    }
}

/// Deterministic synthetic vocabulary: pronounceable pseudo-words, one per
/// rank, stable across runs (`word(i)` alternates consonant/vowel runs
/// seeded by `i`). Rank 0 is the most frequent word under a Zipf draw, so
/// `word(rank)` labels the tweet workload's keys for human-readable output.
pub fn word(rank: u64) -> String {
    const CONSONANTS: &[u8] = b"bcdfghjklmnpqrstvwz";
    const VOWELS: &[u8] = b"aeiou";
    let mut x = prompt_core::hash::mix64(rank ^ 0x5EED);
    // 2–5 syllables depending on rank (frequent words are shorter, like
    // natural language).
    let syllables = 2 + (64 - (rank + 2).leading_zeros() as u64).min(3);
    let mut out = String::with_capacity(2 * syllables as usize);
    for _ in 0..syllables {
        out.push(CONSONANTS[(x % CONSONANTS.len() as u64) as usize] as char);
        x = prompt_core::hash::mix64(x);
        out.push(VOWELS[(x % VOWELS.len() as u64) as usize] as char);
        x = prompt_core::hash::mix64(x);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_resolve_roundtrip() {
        let mut interner = KeyInterner::new();
        assert!(interner.is_empty());
        let a = interner.intern("hello");
        let b = interner.intern("world");
        assert_eq!(interner.intern("hello"), a, "idempotent");
        assert_ne!(a, b);
        assert_eq!(interner.resolve(a), Some("hello"));
        assert_eq!(interner.resolve(b), Some("world"));
        assert_eq!(interner.get("world"), Some(b));
        assert_eq!(interner.get("missing"), None);
        assert_eq!(interner.resolve(Key(99)), None);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn keys_are_dense_and_ordered_by_first_sight() {
        let mut interner = KeyInterner::new();
        for (i, name) in ["x", "y", "z"].iter().enumerate() {
            assert_eq!(interner.intern(name), Key(i as u64));
        }
    }

    #[test]
    fn words_are_deterministic_and_mostly_distinct() {
        assert_eq!(word(5), word(5));
        let mut seen = std::collections::HashSet::new();
        for rank in 0..5_000 {
            seen.insert(word(rank));
        }
        // Pseudo-words may collide occasionally; most must be distinct.
        assert!(seen.len() > 4_500, "only {} distinct words", seen.len());
    }

    #[test]
    fn frequent_words_are_short() {
        assert!(word(0).len() <= 8);
        assert!(word(1_000_000).len() >= word(0).len());
        for rank in [0u64, 10, 1000] {
            let w = word(rank);
            assert!(w.chars().all(|c| c.is_ascii_lowercase()), "{w}");
            assert!(w.len() >= 4, "{w}");
        }
    }

    #[test]
    fn interned_vocabulary_labels_tweet_keys() {
        // The tweet generator draws Key(rank); word(rank) names it.
        let mut interner = KeyInterner::new();
        for rank in 0..100u64 {
            let k = interner.intern(&word(rank));
            assert_eq!(k, Key(rank), "dense vocabulary interning");
        }
        assert_eq!(interner.resolve(Key(42)), Some(word(42).as_str()));
    }
}
