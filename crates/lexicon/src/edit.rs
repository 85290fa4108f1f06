//! Levenshtein edit distance with a rolling single-row implementation.
//!
//! Used by the appendix B.1 heuristic scorer (edit distance between an
//! identifier token and candidate dictionary expansions) and by the simulated
//! LLMs' typo-like hallucination detection.

/// Classic Levenshtein distance over bytes (inputs are ASCII identifiers).
///
/// Runs in `O(|a| * |b|)` time and `O(min(|a|, |b|))` space.
pub fn levenshtein(a: &str, b: &str) -> usize {
    distance(a.as_bytes(), b.as_bytes(), |c| c)
}

/// Case-insensitive Levenshtein distance: ASCII case is folded per byte,
/// and inputs whose shorter side fits [`STACK_LEN`] bytes are measured
/// without touching the heap.
pub fn levenshtein_ignore_case(a: &str, b: &str) -> usize {
    distance(a.as_bytes(), b.as_bytes(), |c| c.to_ascii_lowercase())
}

/// The longest shorter side measured in stack buffers; identifiers are
/// far shorter.
const STACK_LEN: usize = 64;

/// Distance between the bytes of `a` and `b` after `fold`. The shorter
/// side is folded once up front, so the inner loop compares plain bytes.
fn distance(a: &[u8], b: &[u8], fold: impl Fn(u8) -> u8) -> usize {
    let (a, b) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if a.len() > STACK_LEN {
        let a: Vec<u8> = a.iter().map(|&c| fold(c)).collect();
        return rolling(&a, b, fold, &mut vec![0; a.len() + 1]);
    }
    let mut folded = [0u8; STACK_LEN];
    for (f, &c) in folded.iter_mut().zip(a) {
        *f = fold(c);
    }
    rolling(
        &folded[..a.len()],
        b,
        fold,
        &mut [0; STACK_LEN + 1][..=a.len()],
    )
}

/// The rolling single-row distance between the folded `a` and `b`, whose
/// bytes are folded as they are read; `row` (`a.len() + 1` entries) is
/// scratch.
fn rolling(a: &[u8], b: &[u8], fold: impl Fn(u8) -> u8, row: &mut [usize]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    for (i, r) in row.iter_mut().enumerate() {
        *r = i;
    }
    for (j, &bc) in b.iter().enumerate() {
        let bc = fold(bc);
        let mut prev_diag = row[0];
        row[0] = j + 1;
        for (i, &ac) in a.iter().enumerate() {
            let cost = usize::from(ac != bc);
            let next = (prev_diag + cost).min(row[i] + 1).min(row[i + 1] + 1);
            prev_diag = row[i + 1];
            row[i + 1] = next;
        }
    }
    row[a.len()]
}

/// Normalized similarity in `[0, 1]`: `1 - dist / max_len`.
pub fn similarity(a: &str, b: &str) -> f64 {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical() {
        assert_eq!(levenshtein("height", "height"), 0);
    }

    #[test]
    fn empty_sides() {
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", ""), 0);
    }

    #[test]
    fn known_distances() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("vg", "vegetation"), 8);
        assert_eq!(levenshtein("ht", "height"), 4);
    }

    #[test]
    fn inputs_past_the_stack_buffers() {
        let long = "x".repeat(STACK_LEN + 6);
        assert_eq!(levenshtein(&long, &format!("{long}yz")), 2);
        assert_eq!(
            levenshtein_ignore_case(&long.to_ascii_uppercase(), &format!("{long}Z")),
            1
        );
    }

    #[test]
    fn symmetric() {
        assert_eq!(levenshtein("abcd", "xy"), levenshtein("xy", "abcd"));
    }

    #[test]
    fn case_insensitive() {
        assert_eq!(levenshtein_ignore_case("HEIGHT", "height"), 0);
        assert!(levenshtein("HEIGHT", "height") > 0);
    }

    #[test]
    fn similarity_bounds() {
        assert_eq!(similarity("", ""), 1.0);
        assert_eq!(similarity("abc", "abc"), 1.0);
        assert_eq!(similarity("abc", "xyz"), 0.0);
        let s = similarity("custmr", "customer");
        assert!(s > 0.5 && s < 1.0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn triangle_inequality(a in "[a-z]{0,12}", b in "[a-z]{0,12}", c in "[a-z]{0,12}") {
            let ab = levenshtein(&a, &b);
            let bc = levenshtein(&b, &c);
            let ac = levenshtein(&a, &c);
            prop_assert!(ac <= ab + bc);
        }

        #[test]
        fn bounded_by_longer(a in "[a-z]{0,16}", b in "[a-z]{0,16}") {
            let d = levenshtein(&a, &b);
            prop_assert!(d <= a.len().max(b.len()));
            prop_assert!(d >= a.len().abs_diff(b.len()));
        }

        #[test]
        fn zero_iff_equal(a in "[a-z]{0,16}", b in "[a-z]{0,16}") {
            prop_assert_eq!(levenshtein(&a, &b) == 0, a == b);
        }

        #[test]
        fn both_match_the_full_matrix_on_lowercased_copies(
            a in "[a-zA-Z0-9_ ]{0,80}",
            b in "[a-zA-Z0-9_ ]{0,80}",
        ) {
            let (la, lb) = (a.to_ascii_lowercase(), b.to_ascii_lowercase());
            let want = full_matrix(la.as_bytes(), lb.as_bytes());
            prop_assert_eq!(levenshtein_ignore_case(&a, &b), want);
            prop_assert_eq!(levenshtein(&la, &lb), want);
        }
    }

    /// The textbook full-matrix distance, an independent reference for the
    /// rolling row (inputs reach past `STACK_LEN`).
    fn full_matrix(a: &[u8], b: &[u8]) -> usize {
        let mut d = vec![vec![0usize; b.len() + 1]; a.len() + 1];
        for (i, row) in d.iter_mut().enumerate() {
            row[0] = i;
        }
        for (j, cell) in d[0].iter_mut().enumerate() {
            *cell = j;
        }
        for i in 1..=a.len() {
            for j in 1..=b.len() {
                let cost = usize::from(a[i - 1] != b[j - 1]);
                d[i][j] = (d[i - 1][j] + 1)
                    .min(d[i][j - 1] + 1)
                    .min(d[i - 1][j - 1] + cost);
            }
        }
        d[a.len()][b.len()]
    }
}
