//! Template fingerprinting — a stable 64-bit identity for a query's *shape*.
//!
//! Cloud workloads are overwhelmingly templated: the same statement
//! structure recurs with only literals varying (the SnowCloud corpus the
//! paper trains on, and the "few distinct intents, many concrete
//! instances" pattern). A template fingerprint hashes the *normalized*
//! token stream — literals collapsed to placeholders, identifiers
//! case-folded, whitespace and comments gone — so every instantiation of
//! a template maps to one `u64`. That key is what the serving plane's
//! vector cache (`querc::embed_plane`) is indexed by: embed a template
//! once, serve every repetition from the cache.
//!
//! Properties (enforced by `tests/prop.rs`):
//!
//! * **literal-blind** — `where x = 1` and `where x = 99` fingerprint
//!   identically, as do `'a'` vs `'b'` string literals and `?`/`$1`/`@p`
//!   bind markers;
//! * **layout-blind** — whitespace, case, and comments don't matter;
//! * **structure-sensitive** — different identifiers, different clause
//!   structure, or different token order produce different fingerprints
//!   (modulo 64-bit hash collisions);
//! * **total** — any byte sequence fingerprints without panicking, like
//!   the lexer it is built on.
//!
//! [`template_fingerprint`] streams: it folds each normalized token into
//! the hash straight off the lexer's borrowed spans and allocates
//! nothing, yet equals [`fingerprint_tokens`] over
//! [`crate::normalize::normalize_sql`]'s output bit for bit (a property
//! test pins this in every dialect). A template-cache hit at ingress
//! therefore costs one allocation-free scan of the SQL.
//!
//! ```
//! use querc_sql::{template_fingerprint, Dialect};
//!
//! let a = template_fingerprint("SELECT * FROM t WHERE x = 1", Dialect::Generic);
//! let b = template_fingerprint("select *  from t where x = 42 -- hi", Dialect::Generic);
//! let c = template_fingerprint("select * from u where x = 1", Dialect::Generic);
//! assert_eq!(a, b);
//! assert_ne!(a, c);
//! ```

use crate::dialect::Dialect;
use crate::lexer::Spans;
use crate::normalize::NormToken;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Fold one token into the running FNV-1a state: its length as eight
/// little-endian bytes, then its bytes.
fn fold_token(h: u64, len: usize, bytes: impl Iterator<Item = u8>) -> u64 {
    let step = |h: u64, b: u8| (h ^ b as u64).wrapping_mul(FNV_PRIME);
    let h = (len as u64).to_le_bytes().into_iter().fold(h, step);
    bytes.fold(h, step)
}

/// Fingerprint an already-normalized token stream (the output of
/// [`crate::normalize::normalize_sql`]). FNV-1a over each token's
/// length followed by its bytes — a length-prefixed encoding is
/// injective over token streams, so no byte value *inside* a token
/// (quoted identifiers can smuggle in arbitrary bytes, separators
/// included) can make two different streams hash as one.
///
/// Callers that already hold the normalized tokens (e.g. a memoized
/// `EnrichedQuery`) use this directly and skip re-lexing the SQL.
pub fn fingerprint_tokens<S: AsRef<str>>(tokens: &[S]) -> u64 {
    tokens.iter().fold(FNV_OFFSET, |h, t| {
        let bytes = t.as_ref().as_bytes();
        fold_token(h, bytes.len(), bytes.iter().copied())
    })
}

/// The template fingerprint of raw SQL text under `dialect`, equal to
/// `fingerprint_tokens(&normalize_sql(sql, dialect))`: one scan of the
/// lexer, each token's normalized bytes (literals → placeholders,
/// identifiers case-folded, comments dropped) hashed where they lie in
/// `sql`. Allocates nothing.
pub fn template_fingerprint(sql: &str, dialect: Dialect) -> u64 {
    Spans::new(sql, dialect, false)
        .filter_map(|(kind, text)| NormToken::of(kind, text))
        .fold(FNV_OFFSET, |h, t| fold_token(h, t.len(), t.bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize_sql;

    #[test]
    fn literal_substitution_is_invariant() {
        let a = template_fingerprint(
            "select o_orderkey from orders where o_totalprice > 100",
            Dialect::Generic,
        );
        let b = template_fingerprint(
            "select o_orderkey from orders where o_totalprice > 99999.5",
            Dialect::Generic,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn whitespace_case_and_comments_are_invariant() {
        let a = template_fingerprint("select a from t where x = 'v'", Dialect::Generic);
        let b = template_fingerprint(
            "SELECT  A\n FROM t /* c */ WHERE x = 'other'",
            Dialect::Generic,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn bind_markers_unify_across_dialects() {
        let a = template_fingerprint("select * from t where x = ?", Dialect::Generic);
        let b = template_fingerprint("select * from t where x = $1", Dialect::Postgres);
        let c = template_fingerprint("select * from t where x = @p", Dialect::TSql);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn structure_changes_the_fingerprint() {
        let base = template_fingerprint("select a from t", Dialect::Generic);
        for other in [
            "select b from t",
            "select a from u",
            "select a, b from t",
            "select a from t where a = 1",
            "from t select a",
        ] {
            assert_ne!(
                base,
                template_fingerprint(other, Dialect::Generic),
                "{other} must not collide with the base template"
            );
        }
    }

    #[test]
    fn token_boundaries_matter() {
        assert_ne!(
            fingerprint_tokens(&["ab", "c"]),
            fingerprint_tokens(&["a", "bc"])
        );
        assert_ne!(fingerprint_tokens(&["a"]), fingerprint_tokens(&["a", ""]));
    }

    #[test]
    fn separator_bytes_inside_tokens_cannot_forge_boundaries() {
        // A quoted identifier smuggles a control byte into a token: the
        // stream ["a\u{1f}b"] must not collide with ["a", "b"] (the
        // former boundary-separator scheme collided here).
        assert_ne!(
            fingerprint_tokens(&["a\u{1f}b"]),
            fingerprint_tokens(&["a", "b"])
        );
        assert_ne!(
            template_fingerprint("select \"a\u{1f}b\" from t", Dialect::Generic),
            template_fingerprint("select a b from t", Dialect::Generic)
        );
    }

    #[test]
    fn matches_the_token_level_entry_point() {
        let sql = "SELECT revenue FROM finance_reports WHERE q = 7";
        assert_eq!(
            template_fingerprint(sql, Dialect::Generic),
            fingerprint_tokens(&normalize_sql(sql, Dialect::Generic))
        );
    }

    #[test]
    fn empty_input_is_the_offset_basis() {
        assert_eq!(template_fingerprint("", Dialect::Generic), FNV_OFFSET);
        assert_eq!(fingerprint_tokens::<&str>(&[]), FNV_OFFSET);
    }
}
