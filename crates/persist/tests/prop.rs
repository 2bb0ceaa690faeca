//! Property tests: the snapshot reader is total — every corruption of
//! a valid snapshot surfaces `PersistError::Corrupt`, never a panic, and
//! every uncorrupted snapshot round-trips its sections bit-exactly,
//! whether it was written in one stream or grown by appends.

use proptest::prelude::*;
use querc_persist::{append_to, PersistError, Snapshot, SnapshotReader, MAGIC};

/// Build a snapshot from generated `(name-suffix, payload)` sections.
fn snapshot(sections: &[(String, Vec<u8>)]) -> Snapshot {
    let mut s = Snapshot::new();
    for (suffix, payload) in sections {
        s.add_section(&format!("sec-{suffix}"), payload.clone());
    }
    s
}

fn build(sections: &[(String, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    snapshot(sections)
        .encode(&mut out)
        .expect("a Vec never fails a write");
    out
}

/// Byte ranges of each whole section (header line through payload
/// terminator), found by walking the framing the way the reader does.
fn section_spans(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let line_end = |from: usize| from + bytes[from..].iter().position(|&b| b == b'\n').unwrap() + 1;
    let mut pos = line_end(0);
    let mut spans = Vec::new();
    while bytes[pos..].starts_with(b"SECTION ") {
        let payload_at = line_end(pos);
        let header = std::str::from_utf8(&bytes[pos..payload_at - 1]).unwrap();
        let len: usize = header.split(' ').nth(2).unwrap().parse().unwrap();
        spans.push(pos..payload_at + len + 1);
        pos = payload_at + len + 1;
    }
    spans
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Valid snapshots round-trip: every section's payload comes back
    /// bit-exact under last-wins lookup.
    #[test]
    fn roundtrip_is_exact(
        sections in prop::collection::vec(
            ("[a-z0-9]{1,8}", prop::collection::vec(any::<u8>(), 0..200)),
            0..6,
        )
    ) {
        let bytes = build(&sections);
        let r = SnapshotReader::from_bytes(bytes).expect("valid snapshot");
        prop_assert_eq!(r.len(), sections.len());
        for (suffix, payload) in &sections {
            let name = format!("sec-{suffix}");
            // Last occurrence of the name wins; find it in the input.
            let expected = sections
                .iter()
                .rev()
                .find(|(s, _)| s == suffix)
                .map(|(_, p)| p.as_slice());
            prop_assert_eq!(r.section(&name), expected);
            let _ = payload;
        }
    }

    /// Any strict truncation of a valid snapshot is rejected with
    /// `Corrupt` — never accepted, never a panic.
    #[test]
    fn truncation_never_panics_never_passes(
        sections in prop::collection::vec(
            ("[a-z]{1,6}", prop::collection::vec(any::<u8>(), 0..120)),
            1..5,
        ),
        cut_seed in any::<u64>(),
    ) {
        let bytes = build(&sections);
        let cut = (cut_seed % bytes.len() as u64) as usize; // < len: strict prefix
        match SnapshotReader::from_bytes(&bytes[..cut]) {
            Err(PersistError::Corrupt { .. }) => {}
            Err(other) => prop_assert!(false, "wrong error for truncation: {other:?}"),
            Ok(_) => prop_assert!(false, "truncated snapshot accepted at {cut}/{}", bytes.len()),
        }
    }

    /// Any single bit flip in a valid snapshot is rejected with
    /// `Corrupt` — the per-section CRC, the footer CRC, or the framing
    /// catches it.
    #[test]
    fn bit_flips_never_panic_never_pass(
        sections in prop::collection::vec(
            ("[a-z]{1,6}", prop::collection::vec(any::<u8>(), 1..120)),
            1..5,
        ),
        pos_seed in any::<u64>(),
        bit in 0u32..8,
    ) {
        let bytes = build(&sections);
        let pos = (pos_seed % bytes.len() as u64) as usize;
        let mut evil = bytes.clone();
        evil[pos] ^= 1u8 << bit;
        prop_assert!(evil != bytes);
        match SnapshotReader::from_bytes(evil) {
            Err(PersistError::Corrupt { .. }) => {}
            Err(other) => prop_assert!(false, "wrong error for bit flip: {other:?}"),
            Ok(_) => prop_assert!(
                false,
                "bit flip at byte {pos} bit {bit} went undetected"
            ),
        }
    }

    /// Arbitrary garbage bytes never panic the reader.
    #[test]
    fn arbitrary_bytes_never_panic(
        garbage in prop::collection::vec(any::<u8>(), 0..400)
    ) {
        // Either a (vanishingly unlikely) valid parse or a clean error.
        let _ = SnapshotReader::from_bytes(garbage);
    }

    /// Splices keep every section's own CRC intact and still fail: a
    /// whole section dropped, repeated, or swapped with its neighbour
    /// breaks the footer's count or its chain over the header lines.
    #[test]
    fn whole_section_splices_never_pass(
        sections in prop::collection::vec(
            ("[a-z]{1,6}", prop::collection::vec(any::<u8>(), 0..120)),
            2..6,
        ),
        pick in any::<u64>(),
        op in 0u8..3,
    ) {
        let bytes = build(&sections);
        let spans = section_spans(&bytes);
        prop_assert_eq!(spans.len(), sections.len());
        let i = (pick % (spans.len() as u64 - 1)) as usize; // i + 1 exists
        let (a, b) = (spans[i].clone(), spans[i + 1].clone());
        let evil = match op {
            0 => [&bytes[..a.start], &bytes[a.end..]].concat(),
            1 => [&bytes[..a.end], &bytes[a.clone()], &bytes[a.end..]].concat(),
            _ => [&bytes[..a.start], &bytes[b.clone()], &bytes[a.clone()], &bytes[b.end..]].concat(),
        };
        // Swapping two byte-identical sections is no corruption.
        prop_assume!(evil != bytes);
        match SnapshotReader::from_bytes(evil) {
            Err(PersistError::Corrupt { .. }) => {}
            other => prop_assert!(false, "splice op {op} at section {i} accepted: {other:?}"),
        }
    }

    /// The footer chain is a running CRC the reader hands to `append_to`:
    /// a file grown by appends is byte-identical to one streamed whole.
    #[test]
    fn appended_file_equals_the_streamed_file(
        sections in prop::collection::vec(
            ("[a-z0-9]{1,8}", prop::collection::vec(any::<u8>(), 0..200)),
            1..6,
        ),
        split_seed in any::<u64>(),
        case in any::<u64>(),
    ) {
        let split = (split_seed % sections.len() as u64) as usize;
        let path = std::env::temp_dir().join(format!(
            "querc-persist-prop-{}-{case:016x}.snap",
            std::process::id()
        ));
        snapshot(&sections[..split]).write_to(&path).expect("write base");
        for (suffix, payload) in &sections[split..] {
            append_to(&path, &[(format!("sec-{suffix}"), payload.clone())]).expect("append");
        }
        let grown = std::fs::read(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(grown, build(&sections));
    }

    /// Any other version on the magic line is refused by name, whatever
    /// follows it — there is one reader and it reads [`MAGIC`]'s.
    #[test]
    fn other_versions_are_named_in_the_error(
        sections in prop::collection::vec(
            ("[a-z]{1,6}", prop::collection::vec(any::<u8>(), 0..60)),
            0..3,
        ),
        number in 0u32..1000,
    ) {
        prop_assume!(format!("QUERCSNAP v{number}") != MAGIC);
        let version = format!("v{number}");
        let bytes = build(&sections);
        let forged = [
            format!("QUERCSNAP {version}").as_bytes(),
            &bytes[MAGIC.len()..],
        ]
        .concat();
        match SnapshotReader::from_bytes(forged) {
            Err(PersistError::Corrupt { detail }) => prop_assert!(
                detail.contains(&format!("{version:?}")),
                "{detail} does not name {version}"
            ),
            other => prop_assert!(false, "{version} accepted: {other:?}"),
        }
    }
}
