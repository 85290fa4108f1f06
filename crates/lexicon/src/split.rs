//! Identifier token splitting.
//!
//! Database identifiers mix naming conventions: `snake_case`, `camelCase`,
//! `PascalCase`, `SCREAMING_SNAKE`, digit suffixes (`CAUSE3`), and prefix
//! conventions (`tbl_MicroHabitat`, `tlu_topo_position`). Naturalness
//! measurement operates on *word tokens*, so this module provides a splitter
//! that handles all of these conventions deterministically.

/// A single word-ish token extracted from an identifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdentifierToken {
    /// The token text as it appeared (original case preserved).
    pub text: String,
    /// Byte offset of the token start within the identifier.
    pub start: usize,
    /// True when the token is entirely ASCII digits.
    pub numeric: bool,
}

impl IdentifierToken {
    fn new(text: &str, start: usize) -> Self {
        IdentifierToken {
            numeric: !text.is_empty() && text.bytes().all(|b| b.is_ascii_digit()),
            text: text.to_owned(),
            start,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum CharClass {
    Lower,
    Upper,
    Digit,
    Separator,
}

fn classify(c: char) -> CharClass {
    if c.is_ascii_lowercase() {
        CharClass::Lower
    } else if c.is_ascii_uppercase() {
        CharClass::Upper
    } else if c.is_ascii_digit() {
        CharClass::Digit
    } else {
        CharClass::Separator
    }
}

/// Split an identifier into word tokens.
///
/// Rules:
/// * `_`, `-`, whitespace, and any other non-alphanumeric character separate
///   tokens and are discarded;
/// * a lower→upper transition starts a new token (`camelCase` → `camel`,
///   `Case`);
/// * an upper-run followed by a lowercase letter keeps the final uppercase
///   letter with the following token (`XMLFile` → `XML`, `File`);
/// * letter↔digit transitions start a new token (`CAUSE3` → `CAUSE`, `3`).
pub fn split_identifier(identifier: &str) -> Vec<IdentifierToken> {
    let mut tokens = Vec::new();
    let chars: Vec<(usize, char)> = identifier.char_indices().collect();
    let mut tok_start: Option<usize> = None;

    let flush = |tokens: &mut Vec<IdentifierToken>, start: usize, end: usize| {
        let text = &identifier[start..end];
        if !text.is_empty() {
            tokens.push(IdentifierToken::new(text, start));
        }
    };

    for i in 0..chars.len() {
        let (pos, c) = chars[i];
        let class = classify(c);
        match class {
            CharClass::Separator => {
                if let Some(s) = tok_start.take() {
                    flush(&mut tokens, s, pos);
                }
            }
            _ => {
                if let Some(s) = tok_start {
                    let prev = classify(chars[i - 1].1);
                    let boundary = match (prev, class) {
                        (CharClass::Lower, CharClass::Upper) => true,
                        (CharClass::Digit, CharClass::Lower | CharClass::Upper) => true,
                        (CharClass::Lower | CharClass::Upper, CharClass::Digit) => true,
                        (CharClass::Upper, CharClass::Lower) => {
                            // `XMLFile`: break before the last upper of a run.
                            i >= 2 && classify(chars[i - 2].1) == CharClass::Upper
                        }
                        _ => false,
                    };
                    if boundary {
                        let split_at = if prev == CharClass::Upper && class == CharClass::Lower {
                            chars[i - 1].0
                        } else {
                            pos
                        };
                        flush(&mut tokens, s, split_at);
                        tok_start = Some(split_at);
                    }
                } else {
                    tok_start = Some(pos);
                }
            }
        }
    }
    if let Some(s) = tok_start {
        flush(&mut tokens, s, identifier.len());
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(id: &str) -> Vec<String> {
        split_identifier(id).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn snake_case() {
        assert_eq!(texts("service_name"), ["service", "name"]);
    }

    #[test]
    fn camel_case() {
        assert_eq!(texts("adaptiveCruiseControl"), ["adaptive", "Cruise", "Control"]);
    }

    #[test]
    fn pascal_case() {
        assert_eq!(texts("ModelYear"), ["Model", "Year"]);
    }

    #[test]
    fn screaming_snake() {
        assert_eq!(texts("HEADREST_DAM"), ["HEADREST", "DAM"]);
    }

    #[test]
    fn acronym_run_before_word() {
        assert_eq!(texts("XMLFile"), ["XML", "File"]);
        assert_eq!(texts("NPSUnit"), ["NPS", "Unit"]);
    }

    #[test]
    fn digit_boundaries() {
        assert_eq!(texts("CAUSE3"), ["CAUSE", "3"]);
        assert_eq!(texts("CSI22"), ["CSI", "22"]);
        assert_eq!(texts("AuthorID_5"), ["Author", "ID", "5"]);
    }

    #[test]
    fn whitespace_and_symbols() {
        assert_eq!(texts("Research Staff"), ["Research", "Staff"]);
        assert_eq!(texts("Veg-Height"), ["Veg", "Height"]);
        assert_eq!(texts("COGM_Act"), ["COGM", "Act"]);
    }

    #[test]
    fn empty_and_separator_only() {
        assert!(texts("").is_empty());
        assert!(texts("___").is_empty());
    }

    #[test]
    fn numeric_flag() {
        let toks = split_identifier("plot12");
        assert!(!toks[0].numeric);
        assert!(toks[1].numeric);
    }

    #[test]
    fn offsets_are_correct() {
        let toks = split_identifier("ab_CdEf");
        assert_eq!(toks[0].start, 0);
        assert_eq!(toks[1].start, 3);
        assert_eq!(toks[2].start, 5);
    }

    #[test]
    fn single_upper_then_lower() {
        assert_eq!(texts("Height"), ["Height"]);
    }
}
