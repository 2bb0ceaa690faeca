//! Property tests: the SQL front end is total and deterministic.

use proptest::prelude::*;
use querc_sql::{
    fingerprint_tokens, normalize::normalize_sql, normalize::normalized_text, normalize_tokens,
    parse_query, template_fingerprint, tokenize, Dialect,
};

/// Fragments that stress the span lexer's edges: every quoting style
/// (with doubled-quote escapes), every comment style, every bind marker,
/// unterminated literals, keywords in mixed case and at the length
/// limit, and non-ASCII bytes next to delimiters.
const EDGES: &[&str] = &[
    "\"a\"\"b\"",
    "\"Mixed Case\"",
    "`x`",
    "`a``b`",
    "``",
    "[y]",
    "[a]]b]",
    "[dbo].[T]",
    "-- note\n",
    "/* block */",
    "/* open",
    "# hash\n",
    "?",
    ":name",
    "$1",
    "$v",
    "@p",
    "%s",
    "'open",
    "\"open",
    "`open",
    "[open",
    "\"é",
    "'it''s'",
    "é",
    "漢字",
    "🙂",
    "\u{feff}",
    "ü\"",
    "SELECT",
    "sElEcT",
    "Straight_Join",
    "STRAIGHT_JOINS",
    "from",
    "t.a",
    "1.5e-3",
    ".5",
    "1.e",
    "<=",
    "::",
    "!=",
    "(",
    ",",
    " ",
    "\n",
];

/// SQL-ish text built from [`EDGES`], words and arbitrary characters.
fn edge_soup() -> impl Strategy<Value = String> {
    let piece = (0usize..EDGES.len() + 2, "[a-zA-Z_]{1,15}", ".{0,3}");
    prop::collection::vec(piece, 0..32).prop_map(|pieces| {
        pieces
            .into_iter()
            .map(|(pick, word, chars)| match pick {
                i if i < EDGES.len() => EDGES[i].to_string(),
                i if i == EDGES.len() => word,
                _ => chars,
            })
            .collect::<String>()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lexer accepts ANY string without panicking, in every dialect.
    #[test]
    fn tokenize_never_panics(s in ".{0,200}") {
        for d in Dialect::all() {
            let _ = tokenize(&s, d);
        }
    }

    /// The parser accepts any string without panicking.
    #[test]
    fn parse_never_panics(s in ".{0,200}") {
        let _ = parse_query(&s, Dialect::Generic);
    }

    /// Lexing is deterministic.
    #[test]
    fn tokenize_deterministic(s in ".{0,200}") {
        prop_assert_eq!(tokenize(&s, Dialect::Generic), tokenize(&s, Dialect::Generic));
    }

    /// Normalization is case-insensitive on keywords/identifiers.
    #[test]
    fn normalization_case_insensitive(s in "[a-zA-Z_ ]{0,80}") {
        prop_assert_eq!(
            normalized_text(&s.to_ascii_uppercase(), Dialect::Generic),
            normalized_text(&s.to_ascii_lowercase(), Dialect::Generic)
        );
    }

    /// Numeric literals always normalize to the same placeholder, so two
    /// queries differing only in numbers normalize identically.
    #[test]
    fn literal_blindness(a in 0u32..1_000_000, b in 0u32..1_000_000) {
        let qa = format!("select x from t where v = {a}");
        let qb = format!("select x from t where v = {b}");
        prop_assert_eq!(
            normalized_text(&qa, Dialect::Generic),
            normalized_text(&qb, Dialect::Generic)
        );
    }

    /// Every token's text is a substring of the input (no invention).
    #[test]
    fn tokens_come_from_input(s in "[ -~]{0,120}") {
        for t in tokenize(&s, Dialect::Generic) {
            prop_assert!(s.contains(&t.text), "token {:?} not in {:?}", t.text, s);
        }
    }

    /// Fingerprinting is total and deterministic on arbitrary input.
    #[test]
    fn fingerprint_total_and_deterministic(s in ".{0,200}") {
        for d in Dialect::all() {
            prop_assert_eq!(template_fingerprint(&s, d), template_fingerprint(&s, d));
        }
    }

    /// The fingerprint is invariant under numeric- and string-literal
    /// substitution: every instantiation of a template shares one key.
    #[test]
    fn fingerprint_literal_invariance(
        a in 0u64..1_000_000_000,
        b in 0u64..1_000_000_000,
        sa in "[a-z0-9 ]{0,12}",
        sb in "[a-z0-9 ]{0,12}",
    ) {
        let qa = format!("select col from t where n = {a} and s = '{sa}'");
        let qb = format!("select col from t where n = {b} and s = '{sb}'");
        prop_assert_eq!(
            template_fingerprint(&qa, Dialect::Generic),
            template_fingerprint(&qb, Dialect::Generic)
        );
    }

    /// …and invariant under whitespace and keyword/identifier case.
    #[test]
    fn fingerprint_layout_invariance(
        ws in prop::collection::vec("[ \t\n]{1,3}", 4..=4),
        v in 0u32..100_000,
    ) {
        let plain = format!("select a_col from big_t where x = {v}");
        let mangled = format!(
            "SELECT{}A_Col{}FROM{}Big_T where x = {v}{}",
            ws[0], ws[1], ws[2], ws[3]
        );
        prop_assert_eq!(
            template_fingerprint(&plain, Dialect::Generic),
            template_fingerprint(&mangled, Dialect::Generic)
        );
    }

    /// Structurally different queries fingerprint differently: if the
    /// normalized token streams differ, so must the hashes (this is the
    /// no-accidental-collision property over realistic identifier space).
    #[test]
    fn fingerprint_separates_structures(
        ca in "[a-z]{1,10}",
        cb in "[a-z]{1,10}",
    ) {
        let qa = format!("select {ca} from t where {cb} = 1");
        let qb = format!("select {cb} from t where {ca} = 1");
        let na = normalize_sql(&qa, Dialect::Generic);
        let nb = normalize_sql(&qb, Dialect::Generic);
        if na == nb {
            prop_assert_eq!(
                template_fingerprint(&qa, Dialect::Generic),
                template_fingerprint(&qb, Dialect::Generic)
            );
        } else {
            prop_assert_ne!(
                template_fingerprint(&qa, Dialect::Generic),
                template_fingerprint(&qb, Dialect::Generic)
            );
        }
    }

    /// The SQL-level and token-level entry points agree, in every
    /// dialect, so callers holding memoized normalized tokens can skip
    /// the re-lex safely, and the streaming paths match the owned ones.
    #[test]
    fn fingerprint_token_entry_point_agrees(s in ".{0,160}") {
        for d in Dialect::all() {
            let normalized = normalize_sql(&s, d);
            prop_assert_eq!(&normalized, &normalize_tokens(&tokenize(&s, d)));
            prop_assert_eq!(template_fingerprint(&s, d), fingerprint_tokens(&normalized));
        }
    }

    /// The streaming fingerprint equals the hash of the materialized
    /// normalized tokens, in every dialect, on inputs biased to the
    /// lexer's edges.
    #[test]
    fn fingerprint_streams_bit_identically_in_every_dialect(s in edge_soup()) {
        for d in Dialect::all() {
            prop_assert!(
                template_fingerprint(&s, d) == fingerprint_tokens(&normalize_sql(&s, d)),
                "fingerprints differ on {:?} under {:?}", s, d
            );
        }
    }

    /// Normalizing straight off the spans equals normalizing the owned
    /// tokens, in every dialect.
    #[test]
    fn normalize_spans_match_normalize_tokens_in_every_dialect(s in edge_soup()) {
        for d in Dialect::all() {
            prop_assert!(
                normalize_sql(&s, d) == normalize_tokens(&tokenize(&s, d)),
                "normalized streams differ on {:?} under {:?}", s, d
            );
        }
    }
}
