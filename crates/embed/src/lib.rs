//! # querc-embed
//!
//! Learned vector representations for SQL queries — the core technical
//! contribution of *Database-Agnostic Workload Management* (Jain et al.,
//! CIDR 2019), implemented from scratch on `querc-linalg`.
//!
//! The paper evaluates two embedders (its §3):
//!
//! * [`doc2vec::Doc2Vec`] — context-prediction paragraph vectors (PV-DM and
//!   PV-DBOW variants of Le & Mikolov) with negative sampling;
//! * [`lstm::LstmAutoencoder`] — a sequence-to-sequence LSTM autoencoder
//!   whose final encoder hidden state is the query embedding (paper Fig 2).
//!
//! Both implement the [`Embedder`] trait consumed by `querc`'s classifiers
//! and by the offline summarization pipeline. A hashed bag-of-tokens
//! embedder ([`bow::BagOfTokens`]) is included as a cheap non-neural
//! baseline for ablations, alongside the hand-engineered features in
//! `querc-sql::features`.
//!
//! All embedders consume *normalized token streams* from
//! [`querc_sql::normalize`]: literals are collapsed to placeholders but
//! identifiers survive, which is what lets a generic model pick up schema
//! vocabulary (the mechanism behind the paper's near-perfect account
//! labeling).

#![deny(missing_docs)]

pub mod bow;
pub mod doc2vec;
pub mod embedder;
pub mod io;
pub mod lstm;
pub mod vocab;

pub use bow::BagOfTokens;
pub use doc2vec::{Doc2Vec, Doc2VecConfig, Doc2VecMode};
pub use embedder::{embed_corpus, Embedder};
pub use lstm::{LstmAutoencoder, LstmConfig};
pub use vocab::{Vocab, VocabConfig};

/// Tokenize + normalize SQL text the way every embedder in this crate
/// expects. Uses the Generic dialect so any tenant's SQL is accepted.
pub fn sql_tokens(sql: &str) -> Vec<String> {
    querc_sql::normalize::normalize_sql(sql, SQL_DIALECT)
}

/// The template fingerprint of [`sql_tokens`]`(sql)`, computed in one
/// allocation-free scan without building the tokens.
pub fn sql_fingerprint(sql: &str) -> u64 {
    querc_sql::template_fingerprint(sql, SQL_DIALECT)
}

/// The dialect [`sql_tokens`] and [`sql_fingerprint`] lex under.
const SQL_DIALECT: querc_sql::Dialect = querc_sql::Dialect::Generic;
