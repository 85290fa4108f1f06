//! From-scratch byte-pair-encoding tokenizer.
//!
//! Standard BPE: start from single characters, repeatedly merge the most
//! frequent adjacent pair in the training corpus, record the merge order, and
//! at encode time greedily apply merges by rank. Word-internal only — text is
//! first split at non-alphanumeric boundaries and camel-case transitions
//! (identifier-aware pre-tokenization, matching how code tokenizers treat
//! identifiers).
//!
//! Training and encoding work on interned symbols: a symbol's id is its
//! [`Vocabulary`] id, a merge rule is `(left id, right id) → merged id`, and
//! no string is built per pair lookup.

use crate::vocab::Vocabulary;
use crate::Tokenizer;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;

/// Two adjacent symbols, as vocabulary ids.
type Pair = (u32, u32);

/// The id `encode` gives a character the training corpus never showed; no
/// merge involves it.
const UNKNOWN: u32 = u32::MAX;

/// Trainer configuration for [`BpeTokenizer`].
#[derive(Debug, Clone)]
pub struct BpeTrainer {
    merges: usize,
    name: String,
}

impl BpeTrainer {
    /// Trainer that will learn at most `merges` merge rules.
    pub fn new(merges: usize) -> Self {
        BpeTrainer { merges, name: "bpe".to_owned() }
    }

    /// Set the tokenizer display name.
    pub fn with_name(mut self, name: &str) -> Self {
        self.name = name.to_owned();
        self
    }

    /// Train on `(word, frequency)` pairs. Each word is one pre-split
    /// character sequence, taken as given: nothing is split, case-folded or
    /// counted here, and empty words are skipped.
    ///
    /// Each round merges the adjacent pair with the highest count (every
    /// window of every word, overlapping windows included, times the word's
    /// frequency), breaking ties by the smallest `(left, right)` string
    /// pair, and rewrites the words left to right without overlap. Training
    /// stops after `merges` rounds or once no pair occurs twice.
    ///
    /// Pairs are counted once and indexed to the words that hold them; a
    /// merge rewrites and recounts only those words, and the rounds pop a
    /// lazy max-heap instead of recounting the corpus. Vocabulary ids are
    /// the corpus's characters in order of first appearance, then merged
    /// symbols in merge order.
    pub fn train(&self, corpus: &[(String, u64)]) -> BpeTokenizer {
        let mut symbols = Symbols::default();
        let mut words: Vec<(Vec<u32>, u64)> = corpus
            .iter()
            .filter(|(w, _)| !w.is_empty())
            .map(|(w, f)| {
                let ids = w
                    .chars()
                    .map(|c| symbols.intern(c.encode_utf8(&mut [0; 4])));
                (ids.collect(), *f)
            })
            .collect();

        let mut counts: HashMap<Pair, u64> = HashMap::new();
        // Words that hold (or once held) each pair; lists may repeat a word.
        let mut holders: HashMap<Pair, Vec<usize>> = HashMap::new();
        for (w, (word, freq)) in words.iter().enumerate() {
            for pair in pairs(word) {
                *counts.entry(pair).or_insert(0) += freq;
                holders.entry(pair).or_default().push(w);
            }
        }
        let mut heap: BinaryHeap<Candidate> = counts
            .iter()
            .filter(|&(_, &count)| count >= 2)
            .map(|(&pair, &count)| symbols.candidate(pair, count))
            .collect();

        let mut merges = HashMap::new();
        for rank in 0..self.merges {
            // Entries go stale as counts move; the first live one is the best.
            let Some(best) = std::iter::from_fn(|| heap.pop()).find(|c| counts[&c.pair] == c.count)
            else {
                break;
            };
            let Reverse((left, right)) = &best.key;
            let merged = symbols.intern(&format!("{left}{right}"));
            merges.insert(best.pair, (rank, merged));

            // Each touched pair's count before this merge.
            let mut before: HashMap<Pair, u64> = HashMap::new();
            let mut held = holders.remove(&best.pair).unwrap_or_default();
            held.sort_unstable();
            held.dedup();
            for w in held {
                let (word, freq) = &mut words[w];
                if !pairs(word).any(|p| p == best.pair) {
                    continue;
                }
                for p in pairs(word) {
                    let count = counts.get_mut(&p).expect("a held pair is counted");
                    before.entry(p).or_insert(*count);
                    *count -= *freq;
                }
                rewrite(word, best.pair, merged);
                for p in pairs(word) {
                    let count = counts.entry(p).or_insert(0);
                    before.entry(p).or_insert(*count);
                    *count += *freq;
                    if p.0 == merged || p.1 == merged {
                        holders.entry(p).or_default().push(w);
                    }
                }
            }
            for (p, was) in before {
                let now = counts[&p];
                if now != was && now >= 2 {
                    heap.push(symbols.candidate(p, now));
                }
            }
        }

        BpeTokenizer {
            name: self.name.clone(),
            merges,
            vocab: symbols.vocab,
        }
    }
}

/// The trainer's interner: vocabulary ids, plus each id's string shared
/// with the heap entries that order pairs by it.
#[derive(Default)]
struct Symbols {
    vocab: Vocabulary,
    text: Vec<Rc<str>>,
}

impl Symbols {
    fn intern(&mut self, token: &str) -> u32 {
        let id = self.vocab.intern(token);
        if id as usize == self.text.len() {
            self.text.push(token.into());
        }
        id
    }

    fn candidate(&self, pair: Pair, count: u64) -> Candidate {
        let text = |id: u32| Rc::clone(&self.text[id as usize]);
        Candidate {
            count,
            key: Reverse((text(pair.0), text(pair.1))),
            pair,
        }
    }
}

/// A pair's count when it was pushed on the merge heap (stale once the
/// count moves on). The heap pops the highest count, then the smallest
/// `(left, right)` string pair.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Candidate {
    count: u64,
    key: Reverse<(Rc<str>, Rc<str>)>,
    pair: Pair,
}

/// Adjacent pairs of `word`, overlapping windows included.
fn pairs(word: &[u32]) -> impl Iterator<Item = Pair> + '_ {
    word.windows(2).map(|w| (w[0], w[1]))
}

/// Replace each `(left, right)` in `word` with `merged`, scanning left to
/// right without overlap.
fn rewrite(word: &mut Vec<u32>, (left, right): Pair, merged: u32) {
    let (mut read, mut write) = (0, 0);
    while read < word.len() {
        if read + 1 < word.len() && word[read] == left && word[read + 1] == right {
            word[write] = merged;
            read += 2;
        } else {
            word[write] = word[read];
            read += 1;
        }
        write += 1;
    }
    word.truncate(write);
}

/// A trained BPE tokenizer.
#[derive(Debug, Clone)]
pub struct BpeTokenizer {
    name: String,
    /// `(left, right) → (rank, merged)` in vocabulary ids; lower rank =
    /// earlier merge.
    merges: HashMap<Pair, (usize, u32)>,
    vocab: Vocabulary,
}

impl BpeTokenizer {
    /// Number of learned merge rules.
    pub fn merge_count(&self) -> usize {
        self.merges.len()
    }

    /// The learned merge rules as `(left, right)` strings, earliest first.
    pub fn merges(&self) -> Vec<(&str, &str)> {
        let mut ranked: Vec<(usize, Pair)> = self
            .merges
            .iter()
            .map(|(&pair, &(rank, _))| (rank, pair))
            .collect();
        ranked.sort_unstable();
        let token = |id| self.vocab.token(id).expect("merge symbols are interned");
        ranked
            .into_iter()
            .map(|(_, (l, r))| (token(l), token(r)))
            .collect()
    }

    /// The tokenizer's vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Append the ids of one pre-split word to `out`: its characters, merged
    /// lowest rank first, leftmost on ties.
    fn encode_word_into(&self, word: &str, out: &mut Vec<u32>) {
        let start = out.len();
        out.extend(word.chars().map(|c| {
            self.vocab
                .get(c.encode_utf8(&mut [0; 4]))
                .unwrap_or(UNKNOWN)
        }));
        loop {
            let mut best: Option<(usize, usize, u32)> = None; // (rank, index, merged)
            for (i, pair) in out[start..].windows(2).enumerate() {
                if let Some(&(rank, merged)) = self.merges.get(&(pair[0], pair[1])) {
                    if best.is_none_or(|(r, _, _)| rank < r) {
                        best = Some((rank, start + i, merged));
                    }
                }
            }
            let Some((_, i, merged)) = best else { break };
            out[i] = merged;
            out.remove(i + 1);
        }
    }

    /// Tokenize one pre-split word into subword strings.
    pub fn encode_word(&self, word: &str) -> Vec<String> {
        let mut ids = Vec::new();
        self.encode_word_into(word, &mut ids);
        // An unknown character never merges: it is the word's next char.
        let mut rest = word;
        ids.into_iter()
            .map(|id| {
                let len = match self.vocab.token(id) {
                    Some(token) => token.len(),
                    None => rest.chars().next().map_or(0, char::len_utf8),
                };
                let (token, tail) = rest.split_at(len);
                rest = tail;
                token.to_owned()
            })
            .collect()
    }

    /// Pre-tokenize into word chunks: lowercase alphanumeric runs split at
    /// case transitions and separators, mirroring code-model pre-tokenizers.
    fn pre_tokenize(text: &str) -> Vec<String> {
        snails_lexicon::split_identifier(text)
            .into_iter()
            .map(|t| t.text.to_ascii_lowercase())
            .collect()
    }

    /// Tokenize arbitrary text into subword strings.
    pub fn encode_strings(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        for chunk in Self::pre_tokenize(text) {
            out.extend(self.encode_word(&chunk));
        }
        out
    }
}

impl Tokenizer for BpeTokenizer {
    fn name(&self) -> &str {
        &self.name
    }

    fn encode(&self, text: &str) -> Vec<u32> {
        let mut out = Vec::new();
        for chunk in Self::pre_tokenize(text) {
            self.encode_word_into(&chunk, &mut out);
        }
        out
    }
}

/// The quadratic string trainer and encoder the id-based ones replaced,
/// kept as the oracle the tests compare them with.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::HashMap;

    /// `(left, right) → rank` over symbol strings.
    pub type MergeTable = HashMap<(String, String), usize>;

    /// Recount every adjacent pair for each merge; the merges earliest
    /// first.
    pub fn train(corpus: &[(String, u64)], merges: usize) -> Vec<(String, String)> {
        let mut words: Vec<(Vec<String>, u64)> = corpus
            .iter()
            .filter(|(w, _)| !w.is_empty())
            .map(|(w, f)| (w.chars().map(|c| c.to_string()).collect::<Vec<_>>(), *f))
            .collect();

        let mut merge_table: MergeTable = HashMap::new();
        for rank in 0..merges {
            let mut pair_counts: HashMap<(&str, &str), u64> = HashMap::new();
            for (symbols, freq) in &words {
                for pair in symbols.windows(2) {
                    *pair_counts
                        .entry((pair[0].as_str(), pair[1].as_str()))
                        .or_insert(0) += freq;
                }
            }
            // Deterministic arg-max: highest count, then lexicographic.
            let best = pair_counts
                .iter()
                .filter(|(_, &c)| c >= 2)
                .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)));
            let Some((&(left, right), _)) = best else {
                break;
            };
            let (left, right) = (left.to_owned(), right.to_owned());
            let merged = format!("{left}{right}");

            for (symbols, _) in &mut words {
                let mut i = 0;
                while i + 1 < symbols.len() {
                    if symbols[i] == left && symbols[i + 1] == right {
                        symbols[i] = merged.clone();
                        symbols.remove(i + 1);
                    } else {
                        i += 1;
                    }
                }
            }
            merge_table.insert((left, right), rank);
        }
        let mut ranked: Vec<_> = merge_table.into_iter().collect();
        ranked.sort_by_key(|(_, rank)| *rank);
        ranked.into_iter().map(|(pair, _)| pair).collect()
    }

    /// Rank table of a merge list given earliest first.
    pub fn table(merges: &[(&str, &str)]) -> MergeTable {
        merges
            .iter()
            .enumerate()
            .map(|(rank, &(l, r))| ((l.to_owned(), r.to_owned()), rank))
            .collect()
    }

    /// Tokenize one pre-split word by string lookups.
    pub fn encode_word(merges: &MergeTable, word: &str) -> Vec<String> {
        let mut symbols: Vec<String> = word.chars().map(|c| c.to_string()).collect();
        if symbols.len() < 2 {
            return symbols;
        }
        loop {
            // Find the lowest-rank applicable merge.
            let mut best: Option<(usize, usize)> = None; // (rank, index)
            for i in 0..symbols.len() - 1 {
                if let Some(&rank) = merges.get(&(symbols[i].clone(), symbols[i + 1].clone())) {
                    if best.is_none_or(|(r, _)| rank < r) {
                        best = Some((rank, i));
                    }
                }
            }
            let Some((_, i)) = best else { break };
            let merged = format!("{}{}", symbols[i], symbols[i + 1]);
            symbols[i] = merged;
            symbols.remove(i + 1);
            if symbols.len() < 2 {
                break;
            }
        }
        symbols
    }
}

#[cfg(test)]
mod test_util {
    use super::*;

    pub fn tiny_tokenizer() -> BpeTokenizer {
        let corpus: Vec<(String, u64)> = [
            ("height", 50),
            ("weight", 40),
            ("vegetation", 30),
            ("station", 30),
            ("nation", 20),
            ("the", 100),
            ("then", 40),
        ]
        .into_iter()
        .map(|(w, f)| (w.to_owned(), f))
        .collect();
        BpeTrainer::new(200).with_name("tiny").train(&corpus)
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::tiny_tokenizer;
    use super::*;

    #[test]
    fn trained_words_become_single_tokens() {
        let t = tiny_tokenizer();
        assert_eq!(t.encode_word("height"), ["height"]);
        assert_eq!(t.encode_word("the"), ["the"]);
    }

    #[test]
    fn shared_suffixes_merge() {
        let t = tiny_tokenizer();
        // "ation" appears in vegetation/station/nation — unseen "cation"
        // should still benefit from the shared merges.
        let toks = t.encode_word("cation");
        assert!(toks.len() <= 3, "no merges applied: {toks:?}");
    }

    #[test]
    fn oov_fragments_into_more_tokens() {
        let t = tiny_tokenizer();
        let natural = t.encode_word("height").len();
        let abbreviated = t.encode_word("hght").len();
        assert!(abbreviated > natural);
    }

    #[test]
    fn single_char_and_empty() {
        let t = tiny_tokenizer();
        assert_eq!(t.encode_word("x"), ["x"]);
        assert!(t.encode_word("").is_empty());
    }

    #[test]
    fn unknown_characters_stay_single_symbols() {
        let t = tiny_tokenizer();
        assert_eq!(t.encode_word("héight"), ["h", "é", "ight"]);
        assert_eq!(t.encode("qé"), [UNKNOWN]);
    }

    #[test]
    fn encode_splits_identifiers() {
        let t = tiny_tokenizer();
        let toks = t.encode_strings("VegHeight_2");
        assert!(toks.iter().any(|s| s.contains('h')), "{toks:?}");
        // Separator is dropped; digits tokenized separately.
        assert!(toks.iter().all(|s| !s.contains('_')));
    }

    #[test]
    fn encode_ids_are_in_vocab() {
        let t = tiny_tokenizer();
        for id in t.encode("vegetation height") {
            assert!(t.vocabulary().token(id).is_some());
        }
    }

    #[test]
    fn merge_budget_respected() {
        let corpus: Vec<(String, u64)> =
            [("aaaa", 10u64), ("aaab", 10)].map(|(w, f)| (w.to_owned(), f)).to_vec();
        let t = BpeTrainer::new(1).train(&corpus);
        assert!(t.merge_count() <= 1);
    }

    #[test]
    fn overlapping_windows_count_and_merge_without_overlap() {
        // "aaaa" holds three (a, a) windows: 3 × 2 = 6 beats (a, b)'s 5.
        // Merged left to right it becomes (aa, aa), which counts 2.
        let corpus: Vec<(String, u64)> = [("aaaa", 2u64), ("ab", 5)]
            .map(|(w, f)| (w.to_owned(), f))
            .to_vec();
        let t = BpeTrainer::new(3).train(&corpus);
        assert_eq!(t.merges(), [("a", "a"), ("a", "b"), ("aa", "aa")]);
        assert_eq!(t.encode_word("aaaaa"), ["aaaa", "a"]);
    }

    #[test]
    fn training_twice_gives_the_same_vocabulary_ids() {
        let corpus = crate::corpus::english_training_corpus();
        let a = BpeTrainer::new(4000).train(&corpus);
        let b = BpeTrainer::new(4000).train(&corpus);
        assert!(a.vocabulary().iter().eq(b.vocabulary().iter()));
        assert_eq!(a.merges(), b.merges());
        // Characters in order of first appearance, then merged symbols in
        // merge order.
        let mut expected = Vocabulary::new();
        for (word, _) in &corpus {
            for c in word.chars() {
                expected.intern(&c.to_string());
            }
        }
        for (l, r) in a.merges() {
            expected.intern(&format!("{l}{r}"));
        }
        assert!(a.vocabulary().iter().eq(expected.iter()));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::test_util::tiny_tokenizer;
    use super::*;
    use crate::{Tokenizer, TokenizerProfile};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use snails_lexicon::abbrev::CONVENTIONAL_ABBREVIATIONS;
    use std::sync::OnceLock;

    /// The GPT-like tokenizer with its merges as a string rank table.
    fn gpt() -> &'static (BpeTokenizer, reference::MergeTable) {
        static GPT: OnceLock<(BpeTokenizer, reference::MergeTable)> = OnceLock::new();
        GPT.get_or_init(|| {
            let t = TokenizerProfile::GptLike.train().expect("a BPE profile");
            let table = reference::table(&t.merges());
            (t, table)
        })
    }

    /// Ids of `text` by the string reference encode.
    fn reference_ids(text: &str) -> Vec<u32> {
        let (t, table) = gpt();
        BpeTokenizer::pre_tokenize(text)
            .iter()
            .flat_map(|chunk| reference::encode_word(table, chunk))
            .map(|s| t.vocabulary().get(&s).unwrap_or(UNKNOWN))
            .collect()
    }

    fn assert_counts_match(text: &str) {
        let (t, _) = gpt();
        let expected = reference_ids(text);
        assert_eq!(
            t.token_count(text),
            expected.len(),
            "token_count of {text:?}"
        );
        assert_eq!(t.encode(text), expected, "encode of {text:?}");
    }

    #[test]
    fn token_counts_match_the_string_encode_on_every_dictionary_word() {
        for word in snails_lexicon::dictionary().iter() {
            assert_counts_match(word);
        }
    }

    #[test]
    fn token_counts_match_the_string_encode_on_every_abbreviation() {
        for (abbr, _) in CONVENTIONAL_ABBREVIATIONS {
            assert_counts_match(abbr);
            assert_counts_match(&abbr.to_ascii_uppercase());
        }
    }

    proptest! {
        #[test]
        fn encode_word_preserves_characters(word in "[a-z]{1,16}") {
            let t = tiny_tokenizer();
            let toks = t.encode_word(&word);
            let rebuilt: String = toks.concat();
            prop_assert_eq!(rebuilt, word);
        }

        #[test]
        fn token_count_le_char_count(word in "[a-z]{1,16}") {
            let t = tiny_tokenizer();
            prop_assert!(t.encode_word(&word).len() <= word.len());
        }

        #[test]
        fn merges_match_the_recount(
            corpus in vec(("[abcé]{0,7}", 1u64..=5), 0..12),
            budget in 0usize..=40,
        ) {
            let t = BpeTrainer::new(budget).train(&corpus);
            let expected = reference::train(&corpus, budget);
            let expected: Vec<(&str, &str)> =
                expected.iter().map(|(l, r)| (l.as_str(), r.as_str())).collect();
            prop_assert_eq!(t.merges(), expected);
        }

        #[test]
        fn token_counts_match_the_string_encode_on_identifiers(
            identifier in "[a-zA-Z0-9_ é]{0,24}",
        ) {
            assert_counts_match(&identifier);
        }

        #[test]
        fn encode_word_matches_the_string_encode(word in "[a-z0-9é]{0,16}") {
            let (t, table) = gpt();
            prop_assert_eq!(t.encode_word(&word), reference::encode_word(table, &word));
        }
    }
}
