//! The snapshot container — a versioned, checksummed, appendable file
//! format for persisting the whole querc serving stack.
//!
//! A snapshot is a sequence of named **sections**. Each section's
//! payload is opaque to this crate (the serving layers put small JSON
//! headers, raw model text and little-endian binary records there), but
//! its integrity is not: every section carries a CRC-32 over its name
//! and payload, and the file ends with a footer whose CRC covers every
//! section header — so truncation, bit flips, splices, and reorderings
//! are all detected up front, before a single payload byte is
//! interpreted.
//!
//! ```text
//! QUERCSNAP v4\n                          magic + format version
//! SECTION <name> <len> <crc32hex>\n       per-section header
//! <len payload bytes>\n                   payload (opaque)
//! ...more sections...
//! END <count> <crc32hex>\n                footer: section count +
//!                                         CRC over all header lines
//! ```
//!
//! The framing is v1's; the version names the **section schema** the
//! serving layer writes (see ARCHITECTURE.md): v2 replaced v1's
//! wholesale, v3 gave every labeling app's model one payload shape, and
//! v4 gave the two clustering apps' models one payload shape.
//! A file of any other version is rejected by name, not read.
//!
//! **Every byte once.** [`Snapshot::write_to`] streams through a
//! buffered writer: a payload is CRC'd in place (slicing-by-8), its
//! header line goes out, then the payload itself — no whole-file copy.
//! [`SnapshotReader`] keeps the one file buffer and hands out ranges of
//! it.
//!
//! **Append semantics.** [`append_to`] validates the whole existing
//! file — streamed through one fixed read buffer by the same parser the
//! reader runs, never read whole — truncates the footer, writes new
//! sections, and writes a fresh footer. Repeated section names are
//! legal and ordered:
//! [`SnapshotReader::section`] returns the **last** occurrence (the
//! newest full state wins) while [`SnapshotReader::sections`] returns
//! every occurrence in file order (how incremental deltas replay).
//!
//! A reader never panics on hostile input: every malformed byte surfaces
//! as [`PersistError::Corrupt`], which `querc` maps onto
//! `QuercError::Corrupt`.

#![deny(missing_docs)]

use std::fmt;
use std::fs;
use std::io::{self, BufRead, BufReader, BufWriter, Seek as _, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// File magic + format version, first line of every snapshot.
pub const MAGIC: &str = "QUERCSNAP v4";

/// What every version's magic line starts with.
const MAGIC_PREFIX: &str = "QUERCSNAP ";

/// Errors surfaced by snapshot reading/writing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The snapshot bytes fail validation: bad magic, an unsupported
    /// version, a CRC mismatch, truncation, or a malformed header.
    Corrupt {
        /// What failed and where.
        detail: String,
    },
    /// The underlying file could not be read or written.
    Io {
        /// The OS error message.
        detail: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Corrupt { detail } => write!(f, "corrupt snapshot: {detail}"),
            PersistError::Io { detail } => write!(f, "snapshot io: {detail}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> PersistError {
        PersistError::Io {
            detail: e.to_string(),
        }
    }
}

fn corrupt(detail: impl Into<String>) -> PersistError {
    PersistError::Corrupt {
        detail: detail.into(),
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, PersistError>;

// Slicing-by-8 CRC-32 tables, built in const context so the crate stays
// dependency-free. `CRC_TABLES[0]` is the classic byte-at-a-time table;
// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
// which lets the hot loop fold eight input bytes per iteration. Both
// checkpoint and restore pass every payload byte through this.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Fold `bytes` into a running (pre-inverted) CRC state.
fn crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE polynomial, the zlib/`cksum -o3` variant) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0u32, bytes)
}

/// CRC of one section: over the name bytes, a NUL separator, and the
/// payload — so a payload swapped between two sections is detected even
/// when the payloads' own CRCs are individually intact.
fn section_crc(name: &str, payload: &[u8]) -> u32 {
    !crc32_update(section_crc_seed(name), payload)
}

/// The running (pre-inverted) section CRC after the name and its NUL
/// separator, ready for the payload bytes.
fn section_crc_seed(name: &str) -> u32 {
    crc32_update(crc32_update(!0u32, name.as_bytes()), &[0])
}

fn assert_section_name(name: &str) {
    assert!(
        !name.is_empty() && !name.contains(char::is_whitespace),
        "section name must be non-empty and whitespace-free: {name:?}"
    );
}

/// Write `sections` — header line, payload, terminator each — then the
/// footer. `headers_crc` is the running (pre-inverted) CRC over the
/// header lines already in the file and `count` how many there are, so
/// an append continues the footer chain where the reader left it.
fn write_sections<W: Write>(
    w: &mut W,
    sections: &[(String, Vec<u8>)],
    mut headers_crc: u32,
    count: usize,
) -> io::Result<()> {
    for (name, payload) in sections {
        let header = format!(
            "SECTION {name} {} {:08x}\n",
            payload.len(),
            section_crc(name, payload)
        );
        headers_crc = crc32_update(headers_crc, header.as_bytes());
        w.write_all(header.as_bytes())?;
        w.write_all(payload)?;
        w.write_all(b"\n")?;
    }
    writeln!(w, "END {} {:08x}", count + sections.len(), !headers_crc)
}

/// Strict canonical decimal: ASCII digits only, no sign, no leading zero
/// (except "0" itself). `usize::from_str` alone would accept `+5` and
/// `007`, letting byte-level mutations of the footer line go undetected.
fn parse_count(s: &str) -> Option<usize> {
    let canonical = !s.is_empty()
        && s.bytes().all(|b| b.is_ascii_digit())
        && (s.len() == 1 || !s.starts_with('0'));
    if canonical {
        s.parse::<usize>().ok()
    } else {
        None
    }
}

/// Strict canonical CRC field: exactly 8 **lowercase** hex digits, as the
/// writer emits. `u32::from_str_radix` alone is case-insensitive, so a
/// flip of the 0x20 bit in `a`–`f` would parse to the same value and slip
/// past detection in the one line no CRC covers (the footer itself).
fn parse_hex8(s: &str) -> Option<u32> {
    let canonical = s.len() == 8
        && s.bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
    if canonical {
        u32::from_str_radix(s, 16).ok()
    } else {
        None
    }
}

/// `<path>.tmp-snap`: the suffix goes on the **full** file name, so
/// `stack.snap` and `stack.bak` in one directory never share a
/// temporary.
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp-snap");
    PathBuf::from(name)
}

/// fsync the directory holding `path`, making a rename into it durable.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    fs::File::open(parent)?.sync_all()
}

/// A snapshot under construction: named sections in insertion order.
#[derive(Debug, Default)]
pub struct Snapshot {
    sections: Vec<(String, Vec<u8>)>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Append a section. Names may repeat (delta sections); section
    /// names must be non-empty and contain no whitespace or newlines
    /// (they live on a space-delimited header line). A `Vec<u8>` or
    /// `String` payload is moved in, not copied.
    ///
    /// # Panics
    /// If `name` is empty or contains whitespace — a writer-side
    /// programming error, not a runtime condition.
    pub fn add_section(&mut self, name: &str, payload: impl Into<Vec<u8>>) -> &mut Self {
        assert_section_name(name);
        self.sections.push((name.to_string(), payload.into()));
        self
    }

    /// Number of sections added so far.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// True when no sections have been added.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Stream the whole snapshot into `w`: each payload is CRC'd where
    /// it lies and written once.
    pub fn encode<W: Write>(&self, w: &mut W) -> Result<()> {
        writeln!(w, "{MAGIC}")?;
        write_sections(w, &self.sections, !0u32, 0)?;
        Ok(())
    }

    /// Write the snapshot to `path`, replacing any existing file. The
    /// write goes through a temporary sibling, an fsync, a rename and an
    /// fsync of the directory, so a crash mid-write never leaves a
    /// half-written snapshot at `path` and a completed one survives a
    /// power cut.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        let tmp = tmp_sibling(path);
        let mut w = BufWriter::new(fs::File::create(&tmp)?);
        self.encode(&mut w)?;
        let f = w.into_inner().map_err(|e| e.into_error())?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)?;
        sync_parent_dir(path)?;
        Ok(())
    }
}

/// One validated section: its name and where its payload lies in the
/// reader's buffer.
#[derive(Debug)]
struct Section {
    name: String,
    payload: Range<usize>,
}

/// A fully-validated snapshot: every CRC checked before any accessor
/// returns a byte. Owns the file's bytes; accessors borrow from them.
#[derive(Debug)]
pub struct SnapshotReader {
    bytes: Vec<u8>,
    sections: Vec<Section>,
}

impl SnapshotReader {
    /// Read a snapshot file into one buffer, which the reader keeps and
    /// hands out ranges of, and validate it.
    pub fn open(path: impl AsRef<Path>) -> Result<SnapshotReader> {
        SnapshotReader::from_bytes(fs::read(path.as_ref())?)
    }

    /// Validate a snapshot held in memory. A `Vec<u8>` is taken over as
    /// the reader's buffer; a slice is copied once. Validation reads the
    /// buffer in place.
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Result<SnapshotReader> {
        let bytes = bytes.into();
        let sections = validate(bytes.as_slice())?.sections;
        Ok(SnapshotReader { bytes, sections })
    }

    fn payload(&self, s: &Section) -> &[u8] {
        &self.bytes[s.payload.clone()]
    }

    /// Payload of the **last** section named `name` — the newest full
    /// state when a name was re-snapshotted by an append.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(|s| self.payload(s))
    }

    /// Payloads of **every** section named `name`, in file order — how
    /// incremental delta sections replay.
    pub fn sections(&self, name: &str) -> Vec<&[u8]> {
        self.sections
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self.payload(s))
            .collect()
    }

    /// All section names, in file order (repeats preserved).
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|s| s.name.as_str()).collect()
    }

    /// Number of sections in the file.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// True when the snapshot holds no sections.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }
}

/// What validating a snapshot establishes about it.
struct Layout {
    sections: Vec<Section>,
    /// Byte offset where the footer line starts — where [`append_to`]
    /// resumes writing.
    footer_offset: usize,
    /// Running (pre-inverted) CRC over every header line: the footer
    /// chain an append continues.
    headers_crc: u32,
}

/// Read buffer [`append_to`] validates the base file through.
const APPEND_READ_BUF: usize = 64 * 1024;

/// The one snapshot parser: checks the magic line, every section's
/// header, payload terminator and CRC, the footer's count and header
/// chain, and that nothing follows the footer. It streams — one header
/// line is held at a time and each payload is CRC'd chunk by chunk as
/// `src` yields it — so its memory is what `src` buffers: nothing extra
/// for an in-memory slice, one fixed buffer for a file.
fn validate(mut src: impl BufRead) -> Result<Layout> {
    let mut pos = 0usize;
    let mut line = Vec::new();
    if !read_line(&mut src, &mut pos, &mut line)? {
        return Err(corrupt("missing magic line"));
    }
    if line != MAGIC.as_bytes() {
        let got = String::from_utf8_lossy(&line[..line.len().min(24)]);
        return Err(corrupt(match got.strip_prefix(MAGIC_PREFIX) {
            Some(version) => {
                format!("unsupported snapshot version {version:?}: this build reads {MAGIC:?} only")
            }
            None => format!("bad magic: expected {MAGIC:?}, got {got:?}"),
        }));
    }
    let mut sections = Vec::new();
    let mut headers_crc = !0u32;
    loop {
        let line_start = pos;
        if !read_line(&mut src, &mut pos, &mut line)? {
            return Err(corrupt("truncated: missing footer"));
        }
        let text = std::str::from_utf8(&line).map_err(|_| corrupt("non-utf8 header line"))?;
        if let Some(rest) = text.strip_prefix("SECTION ") {
            let mut parts = rest.split(' ');
            let name = parts.next().filter(|n| !n.is_empty());
            let len = parts.next().and_then(parse_count);
            let crc = parts.next().and_then(parse_hex8);
            let (Some(name), Some(len), Some(crc), None) = (name, len, crc, parts.next()) else {
                return Err(corrupt(format!("malformed section header: {text:?}")));
            };
            let seed = section_crc_seed(name);
            let name = name.to_string();
            // The header line as written, newline included.
            headers_crc = crc32_update(crc32_update(headers_crc, &line), b"\n");
            let payload_start = pos;
            let digest = crc_span(&mut src, &mut pos, seed, len)?;
            let terminator = next_byte(&mut src, &mut pos)?;
            let (Some(digest), Some(terminator)) = (digest, terminator) else {
                return Err(corrupt(format!(
                    "truncated: section {name:?} claims {len} bytes past end of file"
                )));
            };
            if terminator != b'\n' {
                return Err(corrupt(format!(
                    "section {name:?}: missing payload terminator"
                )));
            }
            if !digest != crc {
                return Err(corrupt(format!("section {name:?}: CRC mismatch")));
            }
            sections.push(Section {
                name,
                payload: payload_start..payload_start + len,
            });
        } else if let Some(rest) = text.strip_prefix("END ") {
            let mut parts = rest.split(' ');
            let count = parts.next().and_then(parse_count);
            let crc = parts.next().and_then(parse_hex8);
            let (Some(count), Some(crc), None) = (count, crc, parts.next()) else {
                return Err(corrupt(format!("malformed footer: {text:?}")));
            };
            if count != sections.len() {
                return Err(corrupt(format!(
                    "footer claims {count} sections, found {}",
                    sections.len()
                )));
            }
            if !headers_crc != crc {
                return Err(corrupt("footer CRC mismatch (headers tampered)"));
            }
            if !src.fill_buf()?.is_empty() {
                return Err(corrupt("trailing bytes after footer"));
            }
            return Ok(Layout {
                sections,
                footer_offset: line_start,
                headers_crc,
            });
        } else {
            return Err(corrupt(format!(
                "expected SECTION or END, got {:?}",
                &text[..text.len().min(32)]
            )));
        }
    }
}

/// Read one `\n`-terminated line into `line` (newline dropped),
/// advancing `*pos` past it. `false` when the input ends first.
fn read_line(src: &mut impl BufRead, pos: &mut usize, line: &mut Vec<u8>) -> io::Result<bool> {
    line.clear();
    let n = src.read_until(b'\n', line)?;
    *pos += n;
    Ok(line.pop() == Some(b'\n'))
}

/// Fold the next `len` bytes of `src` into the running CRC `c`, in the
/// chunks `src` hands out. `None` when the input ends first.
fn crc_span(
    src: &mut impl BufRead,
    pos: &mut usize,
    mut c: u32,
    mut len: usize,
) -> io::Result<Option<u32>> {
    while len > 0 {
        let chunk = src.fill_buf()?;
        if chunk.is_empty() {
            return Ok(None);
        }
        let n = chunk.len().min(len);
        c = crc32_update(c, &chunk[..n]);
        src.consume(n);
        *pos += n;
        len -= n;
    }
    Ok(Some(c))
}

/// The next byte of `src`, `None` at the end of input.
fn next_byte(src: &mut impl BufRead, pos: &mut usize) -> io::Result<Option<u8>> {
    let Some(&b) = src.fill_buf()?.first() else {
        return Ok(None);
    };
    src.consume(1);
    *pos += 1;
    Ok(Some(b))
}

/// Append sections to an existing snapshot file **incrementally**: the
/// existing file is fully validated, its footer is truncated, the new
/// sections are appended, and a fresh footer covering old + new headers
/// is written. Existing payload bytes are never rewritten.
///
/// Validation streams the base through one fixed 64 KiB read buffer
/// (the same parser [`SnapshotReader`] runs, with every CRC, the footer
/// chain and the trailing-bytes rule), so an append never holds the
/// base in memory. A base that fails validation is left untouched.
pub fn append_to(path: impl AsRef<Path>, sections: &[(String, Vec<u8>)]) -> Result<()> {
    let path = path.as_ref();
    let base = validate(BufReader::with_capacity(
        APPEND_READ_BUF,
        fs::File::open(path)?,
    ))?;
    sections
        .iter()
        .for_each(|(name, _)| assert_section_name(name));
    let mut f = fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(base.footer_offset as u64)?;
    f.seek(io::SeekFrom::End(0))?;
    let mut w = BufWriter::new(f);
    write_sections(&mut w, sections, base.headers_crc, base.sections.len())?;
    w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_bytes(s: &Snapshot) -> Vec<u8> {
        let mut out = Vec::new();
        s.encode(&mut out).unwrap();
        out
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc_equals_the_bytewise_reference_at_every_length_and_split() {
        fn bytewise(mut c: u32, bytes: &[u8]) -> u32 {
            for &b in bytes {
                c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            c
        }
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        for len in 0..data.len() {
            let want = bytewise(!0, &data[..len]);
            assert_eq!(crc32_update(!0, &data[..len]), want, "len {len}");
            // A running state carried across an arbitrary split agrees too.
            let split = len / 3;
            let carried = crc32_update(crc32_update(!0, &data[..split]), &data[split..len]);
            assert_eq!(carried, want, "len {len} split {split}");
        }
    }

    #[test]
    fn roundtrip_in_memory() {
        let mut s = Snapshot::new();
        s.add_section("manifest", br#"{"v":1}"#.to_vec());
        s.add_section("app:audit", b"payload with\nnewlines\x00and nul".to_vec());
        let bytes = to_bytes(&s);
        let r = SnapshotReader::from_bytes(bytes).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.section("manifest"), Some(&br#"{"v":1}"#[..]));
        assert_eq!(
            r.section("app:audit"),
            Some(&b"payload with\nnewlines\x00and nul"[..])
        );
        assert_eq!(r.section("ghost"), None);
        assert_eq!(r.section_names(), vec!["manifest", "app:audit"]);
    }

    #[test]
    fn file_roundtrip_and_append() {
        let dir = std::env::temp_dir().join("querc-persist-test-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.qsnap");
        let mut s = Snapshot::new();
        s.add_section("base", b"one".to_vec());
        s.write_to(&path).unwrap();

        append_to(&path, &[("delta".to_string(), b"two".to_vec())]).unwrap();
        append_to(&path, &[("delta".to_string(), b"three".to_vec())]).unwrap();

        let r = SnapshotReader::open(&path).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.section("base"), Some(&b"one"[..]));
        // Last-wins for `section`, in-order replay for `sections`.
        assert_eq!(r.section("delta"), Some(&b"three"[..]));
        assert_eq!(r.sections("delta"), vec![&b"two"[..], &b"three"[..]]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_is_detected() {
        let mut s = Snapshot::new();
        s.add_section("a", vec![7u8; 100]);
        let bytes = to_bytes(&s);
        for cut in [0, 1, 10, bytes.len() / 2, bytes.len() - 1] {
            let err = SnapshotReader::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, PersistError::Corrupt { .. }), "cut at {cut}");
        }
    }

    #[test]
    fn bit_flips_are_detected() {
        let mut s = Snapshot::new();
        s.add_section("a", b"hello world".to_vec());
        s.add_section("b", b"goodbye".to_vec());
        let bytes = to_bytes(&s);
        for i in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[i] ^= 0x40;
            assert!(
                SnapshotReader::from_bytes(evil).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn payload_swap_between_sections_is_detected() {
        // Two sections with equal-length payloads; swap the payload
        // bytes but keep each header intact.
        let mut s = Snapshot::new();
        s.add_section("a", b"AAAA".to_vec());
        s.add_section("b", b"BBBB".to_vec());
        let bytes = to_bytes(&s);
        let a_at = bytes.windows(4).position(|w| w == b"AAAA").unwrap();
        let b_at = bytes.windows(4).position(|w| w == b"BBBB").unwrap();
        let mut evil = bytes.clone();
        for i in 0..4 {
            evil.swap(a_at + i, b_at + i);
        }
        assert!(matches!(
            SnapshotReader::from_bytes(evil),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn dropped_section_fails_footer() {
        let mut s = Snapshot::new();
        s.add_section("a", b"xx".to_vec());
        s.add_section("b", b"yy".to_vec());
        let whole = to_bytes(&s);
        // Splice: magic + first section of `whole` + footer of `whole`.
        let footer_at = whole.windows(4).rposition(|w| w == b"END ").unwrap();
        let second_at = whole
            .windows(10)
            .rposition(|w| w.starts_with(b"SECTION b"))
            .unwrap();
        let mut evil = whole[..second_at].to_vec();
        evil.extend_from_slice(&whole[footer_at..]);
        assert!(matches!(
            SnapshotReader::from_bytes(evil),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let s = Snapshot::new();
        let r = SnapshotReader::from_bytes(to_bytes(&s)).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        for garbage in [
            &b""[..],
            b"\n",
            b"QUERCSNAP v5\nEND 0 00000000\n",
            b"QUERCSNAP v4\nSECTION",
            b"QUERCSNAP v4\nSECTION a 99999999999999999999 0\nEND 0 0\n",
            b"QUERCSNAP v4\nSECTION a 4 zzzzzzzz\nxxxx\nEND 1 0\n",
            b"\xff\xfe\x00\x01",
        ] {
            assert!(SnapshotReader::from_bytes(garbage).is_err());
        }
    }

    #[test]
    fn other_versions_are_rejected_by_name_not_read() {
        // Well-formed v1, v2 and v3 files: same framing, older section
        // schemas.
        for version in ["v1", "v2", "v3"] {
            let old = to_bytes(Snapshot::new().add_section("a", b"x".to_vec()))
                .strip_prefix(MAGIC.as_bytes())
                .map(|rest| [format!("QUERCSNAP {version}").as_bytes(), rest].concat())
                .unwrap();
            match SnapshotReader::from_bytes(old) {
                Err(PersistError::Corrupt { detail }) => assert!(
                    detail.contains(&format!("{version:?}")) && detail.contains(MAGIC),
                    "{detail}"
                ),
                other => panic!("{version} must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn siblings_with_one_stem_do_not_share_a_temporary() {
        assert_ne!(
            tmp_sibling(Path::new("d/stack.snap")),
            tmp_sibling(Path::new("d/stack.bak"))
        );
        let dir =
            std::env::temp_dir().join(format!("querc-persist-siblings-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (snap, bak) = (dir.join("stack.snap"), dir.join("stack.bak"));
        // A stale temporary of the sibling must survive our write.
        std::fs::write(tmp_sibling(&bak), b"the sibling's half-written file").unwrap();
        Snapshot::new()
            .add_section("who", b"snap".to_vec())
            .write_to(&snap)
            .unwrap();
        assert_eq!(
            std::fs::read(tmp_sibling(&bak)).unwrap(),
            b"the sibling's half-written file"
        );
        Snapshot::new()
            .add_section("who", b"bak".to_vec())
            .write_to(&bak)
            .unwrap();
        assert_eq!(
            SnapshotReader::open(&snap).unwrap().section("who"),
            Some(&b"snap"[..])
        );
        assert_eq!(
            SnapshotReader::open(&bak).unwrap().section("who"),
            Some(&b"bak"[..])
        );
        let mut left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(
            left,
            ["stack.bak", "stack.snap"],
            "no temporary left behind"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_to_a_bad_base_is_corrupt_and_leaves_it_untouched() {
        let dir =
            std::env::temp_dir().join(format!("querc-persist-bad-base-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("base.snap");
        let mut s = Snapshot::new();
        s.add_section("a", b"hello world".to_vec());
        s.add_section("b", b"payload\nwith newline".to_vec());
        let good = to_bytes(&s);
        let delta = [("delta".to_string(), b"new".to_vec())];
        let expect_corrupt = |bad: &[u8], what: &str| {
            std::fs::write(&path, bad).unwrap();
            let outcome = append_to(&path, &delta);
            assert!(
                matches!(outcome, Err(PersistError::Corrupt { .. })),
                "{what}: {outcome:?}"
            );
            assert_eq!(std::fs::read(&path).unwrap(), bad, "{what}: base modified");
        };
        for i in 0..good.len() {
            for mask in [0x01u8, 0x40, 0xFF] {
                let mut bad = good.clone();
                bad[i] ^= mask;
                expect_corrupt(&bad, &format!("byte {i} ^ {mask:#04x}"));
            }
        }
        for cut in 0..good.len() {
            expect_corrupt(&good[..cut], &format!("truncated to {cut}"));
        }
        // The untouched base still takes the append.
        std::fs::write(&path, &good).unwrap();
        append_to(&path, &delta).unwrap();
        assert_eq!(
            SnapshotReader::open(&path).unwrap().section_names(),
            ["a", "b", "delta"]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trailing_bytes_after_footer_rejected() {
        let mut s = Snapshot::new();
        s.add_section("a", b"x".to_vec());
        let mut bytes = to_bytes(&s);
        bytes.extend_from_slice(b"SECTION sneaky 1 00000000\nz\n");
        assert!(matches!(
            SnapshotReader::from_bytes(bytes),
            Err(PersistError::Corrupt { .. })
        ));
    }
}
