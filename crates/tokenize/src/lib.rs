#![warn(missing_docs)]

//! # snails-tokenize
//!
//! Tokenization substrate for the SNAILS benchmark. The paper analyses the
//! relationship between identifier naturalness and *tokenizer behaviour*
//! (appendix B.9): natural identifiers consist of in-vocabulary words and
//! tokenize to few tokens per character, while abbreviations fragment into
//! many sub-tokens. This drives the token-count CDFs (Figure 27), the
//! token-to-character-ratio analysis (Figure 28, Equation 6), and the
//! TCR ↔ QueryRecall Kendall-τ tables (Figures 31a/31b).
//!
//! The paper used the proprietary tiktoken / CodeLlama / Bison tokenizers;
//! this crate substitutes a from-scratch trainable byte-pair-encoding (BPE)
//! tokenizer trained on the embedded English corpus, plus a character-level
//! tokenizer modelling CANINE. The substitution preserves the property under
//! study: out-of-vocabulary character sequences split into multiple subtokens.

pub mod bpe;
pub mod chars;
pub mod corpus;
pub mod tcr;
pub mod vocab;

pub use bpe::{BpeTokenizer, BpeTrainer};
pub use chars::CharTokenizer;
pub use tcr::{token_character_ratio, TcrSummary};
pub use vocab::Vocabulary;

use std::sync::OnceLock;

/// A tokenizer that maps an identifier to a sequence of token ids.
pub trait Tokenizer {
    /// Human-readable tokenizer name (appears in figure legends).
    fn name(&self) -> &str;
    /// Encode text to token ids.
    fn encode(&self, text: &str) -> Vec<u32>;
    /// Number of tokens produced for `text` (may avoid materializing ids).
    fn token_count(&self, text: &str) -> usize {
        self.encode(text).len()
    }
}

/// Profiles mirroring the model tokenizers compared in Figures 27/28.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenizerProfile {
    /// Large-vocabulary BPE (tiktoken-like: GPT family).
    GptLike,
    /// Mid-vocabulary BPE (SentencePiece-BPE-like: CodeLlama family).
    CodeLlamaLike,
    /// Small-vocabulary BPE (legacy Bison-like).
    BisonLike,
    /// Character-level (CANINE-like).
    CharLevel,
}

impl TokenizerProfile {
    /// All profiles, in figure order.
    pub const ALL: [TokenizerProfile; 4] = [
        TokenizerProfile::GptLike,
        TokenizerProfile::CodeLlamaLike,
        TokenizerProfile::BisonLike,
        TokenizerProfile::CharLevel,
    ];

    /// Display name used in reproduced figures.
    pub fn display_name(&self) -> &'static str {
        match self {
            TokenizerProfile::GptLike => "gpt-bpe",
            TokenizerProfile::CodeLlamaLike => "codellama-bpe",
            TokenizerProfile::BisonLike => "bison-bpe",
            TokenizerProfile::CharLevel => "canine-char",
        }
    }

    /// Train this profile's BPE tokenizer afresh on the English corpus;
    /// `None` for CharLevel, which learns nothing.
    pub fn train(&self) -> Option<BpeTokenizer> {
        let merges = match self {
            TokenizerProfile::GptLike => 4000,
            TokenizerProfile::CodeLlamaLike => 2000,
            TokenizerProfile::BisonLike => 800,
            TokenizerProfile::CharLevel => return None,
        };
        let trainer = BpeTrainer::new(merges).with_name(self.display_name());
        Some(trainer.train(&corpus::english_training_corpus()))
    }
}

/// A lazily trained, process-wide tokenizer for each profile.
pub fn tokenizer_for(profile: TokenizerProfile) -> &'static dyn Tokenizer {
    static GPT: OnceLock<BpeTokenizer> = OnceLock::new();
    static LLAMA: OnceLock<BpeTokenizer> = OnceLock::new();
    static BISON: OnceLock<BpeTokenizer> = OnceLock::new();
    static CHAR: OnceLock<CharTokenizer> = OnceLock::new();

    let bpe = |slot: &'static OnceLock<BpeTokenizer>| -> &'static dyn Tokenizer {
        slot.get_or_init(|| profile.train().expect("a BPE profile"))
    };
    match profile {
        TokenizerProfile::GptLike => bpe(&GPT),
        TokenizerProfile::CodeLlamaLike => bpe(&LLAMA),
        TokenizerProfile::BisonLike => bpe(&BISON),
        TokenizerProfile::CharLevel => {
            CHAR.get_or_init(|| CharTokenizer::new("canine-char"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_have_distinct_names() {
        let names: std::collections::HashSet<_> =
            TokenizerProfile::ALL.iter().map(|p| p.display_name()).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn natural_words_tokenize_shorter_than_abbreviations() {
        let t = tokenizer_for(TokenizerProfile::GptLike);
        // Same semantics, decreasing naturalness. Per-character token cost
        // must increase as the identifier becomes less natural.
        let tcr_regular = t.token_count("vegetation") as f64 / "vegetation".len() as f64;
        let tcr_least = t.token_count("vgtn") as f64 / "vgtn".len() as f64;
        assert!(
            tcr_regular < tcr_least,
            "regular tcr {tcr_regular} !< least tcr {tcr_least}"
        );
    }

    #[test]
    fn char_level_is_one_token_per_char() {
        let t = tokenizer_for(TokenizerProfile::CharLevel);
        assert_eq!(t.token_count("AuthorID"), 8);
    }

    /// Each BPE profile's merge count and the FNV-1a digest of its merges
    /// earliest first (`left`, NUL, `right`, newline each), as the
    /// recounting trainer these replace learned them.
    #[test]
    fn profiles_learn_the_pinned_merges() {
        let pinned = [
            (TokenizerProfile::GptLike, 3298, 0x82e3_4e86_573f_6a82_u64),
            (TokenizerProfile::CodeLlamaLike, 2000, 0x4607_d569_ac7b_668c),
            (TokenizerProfile::BisonLike, 800, 0x57e9_d756_60c5_8156),
        ];
        for (profile, count, digest) in pinned {
            let t = profile.train().expect("a BPE profile");
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for (l, r) in t.merges() {
                for b in l.bytes().chain([0]).chain(r.bytes()).chain([b'\n']) {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0100_0000_01b3);
                }
            }
            assert_eq!(t.merge_count(), count, "{}", profile.display_name());
            assert_eq!(h, digest, "{} merge digest", profile.display_name());
            // The corpus's 26 letters, then one token per merge.
            assert_eq!(t.vocabulary().len(), count + 26, "{}", profile.display_name());
        }
        assert!(TokenizerProfile::CharLevel.train().is_none());
    }

    #[test]
    fn tokenizers_are_cached() {
        let a = tokenizer_for(TokenizerProfile::GptLike) as *const dyn Tokenizer;
        let b = tokenizer_for(TokenizerProfile::GptLike) as *const dyn Tokenizer;
        assert_eq!(a as *const u8, b as *const u8);
    }
}
