//! Embedded English dictionary.
//!
//! The SNAILS paper measures *mean token-in-dictionary* against "a
//! comprehensive English word list". Shipping a full wordlist file is not
//! possible here, so this module embeds a curated ~1,900-word list that covers
//! (a) the most frequent English words, and (b) the domain vocabulary of the
//! nine SNAILS databases (nature observation, crash statistics, school
//! performance, enterprise resource planning). The list is complete with
//! respect to every Regular-naturalness identifier the `snails-data` crate
//! generates, which is the property the benchmark relies on.

use std::collections::HashSet;
use std::sync::OnceLock;

/// Raw embedded word list, one lowercase word per line.
pub const WORD_LIST: &str = include_str!("words.txt");

/// A set-backed English dictionary with O(1) membership tests.
#[derive(Debug)]
pub struct Dictionary {
    words: HashSet<&'static str>,
    max_len: usize,
}

impl Dictionary {
    fn from_embedded() -> Self {
        let mut words = HashSet::with_capacity(2048);
        let mut max_len = 0;
        for line in WORD_LIST.lines() {
            let w = line.trim();
            if !w.is_empty() {
                max_len = max_len.max(w.len());
                words.insert(w);
            }
        }
        Dictionary { words, max_len }
    }

    /// Membership test; the query must already be lowercase.
    pub fn contains(&self, word: &str) -> bool {
        self.words.contains(word)
    }

    /// Case-insensitive membership test (allocates only for mixed case).
    pub fn contains_ignore_case(&self, word: &str) -> bool {
        if word.bytes().all(|b| b.is_ascii_lowercase()) {
            self.contains(word)
        } else {
            self.contains(word.to_ascii_lowercase().as_str())
        }
    }

    /// Number of words in the dictionary.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the dictionary is empty (never, for the embedded list).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Length of the longest word, an upper bound for expansion searches.
    pub fn max_word_len(&self) -> usize {
        self.max_len
    }

    /// Iterate over all words.
    pub fn iter(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.words.iter().copied()
    }

    /// Words that start with the given lowercase prefix.
    pub fn words_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = &'static str> + 'a {
        self.words.iter().copied().filter(move |w| w.starts_with(prefix))
    }
}

/// True when `needle`'s characters appear in `hay` in order (not necessarily
/// contiguously). Both inputs are expected lowercase.
pub fn is_subsequence(needle: &str, hay: &str) -> bool {
    let mut hay_iter = hay.bytes();
    'outer: for nb in needle.bytes() {
        for hb in hay_iter.by_ref() {
            if hb == nb {
                continue 'outer;
            }
        }
        return false;
    }
    true
}

/// The process-wide embedded dictionary.
pub fn dictionary() -> &'static Dictionary {
    static DICT: OnceLock<Dictionary> = OnceLock::new();
    DICT.get_or_init(Dictionary::from_embedded)
}

/// True when `word` (lowercase) is in the embedded dictionary.
pub fn is_dictionary_word(word: &str) -> bool {
    dictionary().contains(word)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dictionary_loads_and_is_large() {
        let d = dictionary();
        assert!(d.len() > 1500, "dictionary too small: {}", d.len());
        assert!(!d.is_empty());
    }

    #[test]
    fn common_words_present() {
        for w in [
            "the", "name", "date", "count", "species", "vehicle", "teacher", "invoice",
            "vegetation", "height", "observation", "customer", "location", "school",
        ] {
            assert!(is_dictionary_word(w), "missing: {w}");
        }
    }

    #[test]
    fn abbreviations_absent() {
        for w in ["vg", "ht", "nm", "qty", "cstmr", "tbl"] {
            assert!(!is_dictionary_word(w), "unexpected word: {w}");
        }
    }

    #[test]
    fn case_insensitive_lookup() {
        assert!(dictionary().contains_ignore_case("Vegetation"));
        assert!(dictionary().contains_ignore_case("HEIGHT"));
        assert!(!dictionary().contains_ignore_case("VgHt"));
    }

    #[test]
    fn subsequence_matching() {
        assert!(is_subsequence("vgt", "vegetation"));
        assert!(is_subsequence("", "anything"));
        assert!(!is_subsequence("xyz", "vegetation"));
        assert!(!is_subsequence("noitateg", "vegetation"));
    }

    #[test]
    fn words_with_prefix_filters() {
        let d = dictionary();
        let hits: Vec<_> = d.words_with_prefix("veget").collect();
        assert!(hits.contains(&"vegetation"));
        assert!(hits.iter().all(|w| w.starts_with("veget")));
    }

    #[test]
    fn max_word_len_is_sane() {
        let d = dictionary();
        assert!(d.max_word_len() >= 10 && d.max_word_len() <= 30);
    }
}
