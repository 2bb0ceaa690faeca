//! Token model shared by the lexer, normalizer and parser.

use crate::normalize::NormToken;

/// Lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// A reserved word in the active dialect (`select`, `join`, …).
    Keyword,
    /// A bare identifier (table, column, alias, function name).
    Ident,
    /// A quoted identifier — `"x"`, `` `x` `` or `[x]` depending on dialect.
    QuotedIdent,
    /// Numeric literal (integer, decimal or scientific).
    Number,
    /// Single-quoted string literal (quote-doubling handled).
    StringLit,
    /// Operator such as `=`, `<>`, `<=`, `||`, `::`.
    Operator,
    /// Single punctuation character: `( ) , ; .`
    Punct,
    /// Bind parameter: `?`, `:name`, `$1`, `%s`, `@p`.
    Param,
    /// `-- …`, `/* … */` or `# …` comment (kept only when requested).
    Comment,
    /// Any byte sequence the lexer could not classify. Lexing never fails.
    Other,
}

/// One lexed token: its class and the exact source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token class assigned by the lexer.
    pub kind: TokenKind,
    /// Raw text as it appeared in the query (quotes included for quoted
    /// identifiers and string literals).
    pub text: String,
}

impl Token {
    /// Construct a token from its class and source text.
    pub fn new(kind: TokenKind, text: impl Into<String>) -> Self {
        Token {
            kind,
            text: text.into(),
        }
    }

    /// Case-normalized view: keywords and identifiers lowercase, everything
    /// else verbatim.
    pub fn folded(&self) -> String {
        match self.kind {
            TokenKind::Keyword | TokenKind::Ident => self.text.to_ascii_lowercase(),
            _ => self.text.clone(),
        }
    }

    /// For quoted identifiers, the name with quoting stripped and case
    /// preserved; for bare identifiers the lowercased name; otherwise the
    /// raw text.
    pub fn ident_name(&self) -> String {
        match self.kind {
            TokenKind::Ident => self.text.to_ascii_lowercase(),
            TokenKind::QuotedIdent => NormToken::quoted_name(&self.text).into_string(),
            _ => self.text.clone(),
        }
    }

    /// True for keyword tokens matching `kw` case-insensitively.
    pub fn is_kw(&self, kw: &str) -> bool {
        self.kind == TokenKind::Keyword && self.text.eq_ignore_ascii_case(kw)
    }

    /// True for punctuation tokens with exactly this character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }

    /// True for operator tokens with exactly this text.
    pub fn is_op(&self, op: &str) -> bool {
        self.kind == TokenKind::Operator && self.text == op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_lowercases_words_only() {
        assert_eq!(Token::new(TokenKind::Keyword, "SELECT").folded(), "select");
        assert_eq!(
            Token::new(TokenKind::Ident, "LineItem").folded(),
            "lineitem"
        );
        assert_eq!(
            Token::new(TokenKind::StringLit, "'ASIA'").folded(),
            "'ASIA'"
        );
    }

    #[test]
    fn ident_name_strips_quoting() {
        assert_eq!(
            Token::new(TokenKind::QuotedIdent, "\"My Table\"").ident_name(),
            "My Table"
        );
        assert_eq!(
            Token::new(TokenKind::QuotedIdent, "`col`").ident_name(),
            "col"
        );
        assert_eq!(
            Token::new(TokenKind::QuotedIdent, "[dbo]").ident_name(),
            "dbo"
        );
        assert_eq!(
            Token::new(TokenKind::QuotedIdent, "\"a\"\"b\"").ident_name(),
            "a\"b"
        );
    }

    #[test]
    fn predicates() {
        let t = Token::new(TokenKind::Keyword, "Select");
        assert!(t.is_kw("SELECT"));
        assert!(!t.is_kw("FROM"));
        assert!(Token::new(TokenKind::Punct, "(").is_punct('('));
        assert!(Token::new(TokenKind::Operator, "<=").is_op("<="));
    }
}
