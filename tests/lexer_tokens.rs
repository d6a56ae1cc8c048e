//! Drift guard for the minicc lexer: the token stream (kind, payload and
//! line of every token) of the 21 suite benchmarks and of progen seeds
//! 0..2000 hashes to a pinned FNV-1a value. A change to the lexer's
//! scanning keeps every stream identical; a deliberate change to what it
//! produces re-pins the hash with a reason.

use idiomatch::{benchsuite, minicc, progen};
use std::fmt::Write;

/// FNV-1a over the `Debug` form of every token, one per line: the suite
/// in its table order, then progen seeds 0..2000.
const TOKEN_STREAM_HASH: u64 = 0x9ab9_f948_061a_99ab;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn hash_tokens(mut h: u64, source: &str, line: &mut String) -> u64 {
    for tok in minicc::lexer::lex(source).expect("source lexes") {
        line.clear();
        writeln!(line, "{tok:?}").expect("writes to a String");
        for &b in line.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

#[test]
fn token_streams_are_unchanged() {
    let mut line = String::new();
    let mut h = FNV_OFFSET;
    for b in benchsuite::all() {
        h = hash_tokens(h, b.source, &mut line);
    }
    for seed in 0..2000 {
        h = hash_tokens(h, &progen::generate(seed).render(), &mut line);
    }
    assert_eq!(h, TOKEN_STREAM_HASH, "token streams changed: {h:#018x}");
}
