//! Query normalization for representation learning.
//!
//! The embedders in `querc-embed` consume *normalized token streams*, the
//! same preprocessing Jain et al. apply before Doc2Vec / LSTM training:
//!
//! * keywords and identifiers lowercased (identifiers are **kept**, not
//!   masked — schema vocabulary is precisely the signal that makes account
//!   prediction work in the paper's §5.2);
//! * literals collapsed to class placeholders (`<num>`, `<str>`) so the
//!   embedding reflects query *shape*, not parameter values;
//! * bind parameters collapsed to `<param>`;
//! * comments dropped, punctuation and operators kept as their own tokens.
//!
//! The rule is written once, as a view of one token's source text
//! (`NormToken`). [`normalize_sql`] reads it straight off the lexer's
//! borrowed spans and allocates once per token, for the output string;
//! [`crate::fingerprint::template_fingerprint`] hashes the same view
//! without allocating.

use crate::dialect::Dialect;
use crate::lexer::Spans;
use crate::token::{Token, TokenKind};

/// Placeholder token for numeric literals.
pub const NUM: &str = "<num>";
/// Placeholder token for string literals.
pub const STR: &str = "<str>";
/// Placeholder token for bind parameters.
pub const PARAM: &str = "<param>";
/// Placeholder token for unclassifiable byte runs.
const OTHER: &str = "<other>";

/// One token's normalized form as a view of its source text: the bytes
/// of `text`, a doubled `escape` byte read as one, ASCII letters
/// lowercased when `fold` is set.
#[derive(Clone, Copy)]
pub(crate) struct NormToken<'a> {
    text: &'a str,
    fold: bool,
    escape: Option<u8>,
}

impl<'a> NormToken<'a> {
    /// The normalized form of a `kind` token whose source is `text`;
    /// `None` for a comment, which normalization drops.
    pub(crate) fn of(kind: TokenKind, text: &'a str) -> Option<NormToken<'a>> {
        let plain = |text| NormToken {
            text,
            fold: false,
            escape: None,
        };
        Some(match kind {
            TokenKind::Keyword | TokenKind::Ident => NormToken {
                fold: true,
                ..plain(text)
            },
            TokenKind::QuotedIdent => NormToken {
                fold: true,
                ..NormToken::quoted_name(text)
            },
            TokenKind::Number => plain(NUM),
            TokenKind::StringLit => plain(STR),
            TokenKind::Param => plain(PARAM),
            TokenKind::Operator | TokenKind::Punct => plain(text),
            TokenKind::Comment => return None,
            TokenKind::Other => plain(OTHER),
        })
    }

    /// The name inside a quoted identifier, case preserved: the opening
    /// quote stripped, the closing one too if it is there (the total
    /// lexer emits unterminated quoted identifiers, which may end
    /// mid-name), and `""` / ` `` ` read as one quote. `]` has no escape.
    pub(crate) fn quoted_name(text: &'a str) -> NormToken<'a> {
        let Some(open) = text.chars().next() else {
            return NormToken {
                text,
                fold: false,
                escape: None,
            };
        };
        let close = if open == '[' { ']' } else { open };
        let body = &text[open.len_utf8()..];
        NormToken {
            text: body.strip_suffix(close).unwrap_or(body),
            fold: false,
            escape: match open {
                '"' => Some(b'"'),
                '`' => Some(b'`'),
                _ => None,
            },
        }
    }

    /// The normalized bytes.
    pub(crate) fn bytes(self) -> impl Iterator<Item = u8> + 'a {
        let src = self.text.as_bytes();
        let mut i = 0;
        std::iter::from_fn(move || {
            let &b = src.get(i)?;
            i += 1;
            if self.escape == Some(b) && src.get(i) == Some(&b) {
                i += 1;
            }
            Some(if self.fold { b.to_ascii_lowercase() } else { b })
        })
    }

    /// How many normalized bytes there are.
    pub(crate) fn len(self) -> usize {
        match self.escape {
            None => self.text.len(),
            Some(_) => self.bytes().count(),
        }
    }

    /// The normalized form as an owned string: one allocation.
    pub(crate) fn into_string(self) -> String {
        match (self.escape, self.fold) {
            (None, true) => self.text.to_ascii_lowercase(),
            (None, false) => self.text.to_string(),
            // Only ASCII bytes are dropped or case-folded, so the
            // result is as valid UTF-8 as the source.
            (Some(_), _) => String::from_utf8(self.bytes().collect())
                .expect("ASCII-only edits keep UTF-8 valid"),
        }
    }
}

/// Normalize an already-lexed token stream into embedder tokens.
pub fn normalize_tokens(tokens: &[Token]) -> Vec<String> {
    let mut out = Vec::with_capacity(tokens.len());
    out.extend(
        tokens
            .iter()
            .filter_map(|t| NormToken::of(t.kind, &t.text))
            .map(NormToken::into_string),
    );
    out
}

/// Lex and normalize in one scan, without building [`Token`]s: equal to
/// `normalize_tokens(&tokenize(sql, dialect))`.
pub fn normalize_sql(sql: &str, dialect: Dialect) -> Vec<String> {
    Spans::new(sql, dialect, false)
        .filter_map(|(kind, text)| NormToken::of(kind, text))
        .map(NormToken::into_string)
        .collect()
}

/// Canonical single-line text form of a normalized query (tokens joined by
/// single spaces). Two queries with the same shape and schema references
/// have identical normalized text, which is how the security-audit
/// experiment detects verbatim-identical queries across users.
pub fn normalized_text(sql: &str, dialect: Dialect) -> String {
    normalize_sql(sql, dialect).join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_become_placeholders() {
        let toks = normalize_sql(
            "SELECT * FROM orders WHERE o_totalprice > 100.5 AND o_comment = 'x'",
            Dialect::Generic,
        );
        assert!(toks.contains(&NUM.to_string()));
        assert!(toks.contains(&STR.to_string()));
        assert!(!toks.iter().any(|t| t == "100.5" || t == "'x'"));
    }

    #[test]
    fn identifiers_survive_lowercased() {
        let toks = normalize_sql("SELECT C_Name FROM Customer", Dialect::Generic);
        assert_eq!(toks, ["select", "c_name", "from", "customer"]);
    }

    #[test]
    fn params_unify_across_dialect_markers() {
        let a = normalized_text("select * from t where x = ?", Dialect::Generic);
        let b = normalized_text("select * from t where x = $1", Dialect::Postgres);
        let c = normalized_text("select * from t where x = @p", Dialect::TSql);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn same_shape_different_literals_normalize_identically() {
        let a = normalized_text(
            "select o_orderkey from orders where o_totalprice > 100",
            Dialect::Generic,
        );
        let b = normalized_text(
            "SELECT o_orderkey FROM orders WHERE o_totalprice > 99999",
            Dialect::Generic,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn quoted_identifiers_unquoted_and_folded() {
        let t = normalized_text("select \"My Col\" from [My Table]", Dialect::Generic);
        assert_eq!(t, "select my col from my table");
    }

    #[test]
    fn comments_removed() {
        let t = normalized_text("select 1 -- hi\n from t", Dialect::Generic);
        assert_eq!(t, "select <num> from t");
    }

    #[test]
    fn normalization_is_idempotent_on_its_own_output() {
        let once = normalized_text(
            "SELECT a, b FROM t WHERE a = 5 AND b LIKE 'x%'",
            Dialect::Generic,
        );
        let twice = normalized_text(&once, Dialect::Generic);
        // `<num>` style placeholders re-lex as operator '<' etc., so exact
        // idempotence needs the placeholders to survive. They do not re-lex
        // to themselves, so we instead require stability of the alphabetic
        // skeleton — the property the embedders rely on.
        let skeleton = |s: &str| {
            s.split_whitespace()
                .filter(|w| w.chars().all(|c| c.is_ascii_alphabetic() || c == '_'))
                // Re-lexed placeholder fragments (`<num>` → `num`) are not
                // part of the alphabetic skeleton either.
                .filter(|w| !matches!(*w, "num" | "str" | "param" | "other"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        assert_eq!(skeleton(&once), skeleton(&twice));
    }

    #[test]
    fn empty_input() {
        assert!(normalize_sql("", Dialect::Generic).is_empty());
        assert_eq!(normalized_text("", Dialect::Generic), "");
    }
}
