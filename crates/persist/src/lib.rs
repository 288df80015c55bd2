//! Shared persistence plumbing: checksum framing, little-endian codecs,
//! the atomic write / `.prev` rotation / fallback-load protocol, and the
//! one durable write-ahead log.
//!
//! Every durable artifact in the workspace — search checkpoints and
//! organization stores (`dln-org`), the feedback evidence log
//! (`org::reopt`), and the CDC change log (`lake::cdc`) — shares one
//! torn-write story, implemented here once:
//!
//! * **FNV-1a 64 checksums** ([`fnv1a`]) over every byte that matters.
//! * **Atomic publish** ([`atomic_write`]): the encoded buffer is written
//!   to `<path>.tmp`, fsynced, then renamed over `path`; an existing file
//!   is rotated to `<path>.prev` first so one previous generation always
//!   survives a torn write of the newest.
//! * **Fallback load** ([`load_with_fallback`]): when the newest file is
//!   unreadable or fails its checksum, the rotated previous generation is
//!   tried; only a double failure is an error — and on a double failure
//!   the files on disk are left byte-for-byte untouched for forensics.
//!   [`load_if_present`] is the same load for artifacts that may not
//!   exist yet.
//! * **Durable logs** ([`Wal`]): a sealed snapshot plus a framed,
//!   fsync-per-append WAL, with torn-tail truncation, a typed error on a
//!   sequence gap, and one quarantine policy for checksum-valid frames
//!   that do not decode. The CDC change log and the evidence log are
//!   both a [`Wal`] over their own [`WalState`].
//!
//! [`Writer`] and [`Reader`] are the little-endian codec halves used by
//! the record-style formats; the store's fixed-width section format uses
//! [`fnv1a`] and [`atomic_write`] directly.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::path::{Path, PathBuf};

use dln_fault::{DlnError, DlnResult};

mod wal;

pub use wal::{encode_frame, wal_path, Wal, WalState};

/// FNV-1a 64 over a byte slice — the integrity checksum used by every
/// on-disk artifact in this workspace (and by the organization
/// fingerprint in `dln-org`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The `<path>.prev` rotation target for `path`.
pub fn prev_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".prev");
    PathBuf::from(os)
}

/// The `<path>.tmp` staging target for [`atomic_write`].
fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Atomically publish `bytes` at `path`.
///
/// The buffer is staged at `<path>.tmp` and fsynced before any visible
/// change; an existing `path` is then rotated to `<path>.prev` (the
/// one-generation fallback) and the staged file renamed into place. A
/// crash at any point leaves either the old generation, or the new one
/// with the old at `.prev` — never a half-written `path`.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> DlnResult<()> {
    use std::io::Write as _;
    let tmp = tmp_path(path);
    {
        let mut f = std::fs::File::create(&tmp)
            .map_err(|e| DlnError::io(format!("creating {}", tmp.display()), e))?;
        f.write_all(bytes)
            .map_err(|e| DlnError::io(format!("writing {}", tmp.display()), e))?;
        f.sync_all()
            .map_err(|e| DlnError::io(format!("fsyncing {}", tmp.display()), e))?;
    }
    if path.exists() {
        std::fs::rename(path, prev_path(path))
            .map_err(|e| DlnError::io(format!("rotating {}", path.display()), e))?;
    }
    std::fs::rename(&tmp, path)
        .map_err(|e| DlnError::io(format!("publishing {}", path.display()), e))
}

/// Load the artifact at `path` via `load`, falling back to the rotated
/// previous generation (`<path>.prev`) when the newest file is unreadable
/// or fails its integrity checks. Errors only when both generations are
/// unusable; `what` names the artifact kind in warnings and errors. The
/// load path never writes: a double failure leaves both generations on
/// disk exactly as found, so the corruption can be inspected post-mortem.
pub fn load_with_fallback<T>(
    path: &Path,
    what: &str,
    load: impl Fn(&Path) -> DlnResult<T>,
) -> DlnResult<T> {
    match load(path) {
        Ok(v) => Ok(v),
        Err(primary) => {
            let prev = prev_path(path);
            eprintln!(
                "warning: {what} {} unusable ({primary}); trying {}",
                path.display(),
                prev.display()
            );
            load(&prev).map_err(|fallback| {
                DlnError::corrupt(
                    path.display().to_string(),
                    format!("both generations unusable — newest: {primary}; previous: {fallback}"),
                )
            })
        }
    }
}

/// [`load_with_fallback`] for an artifact that may not exist yet: `None`
/// when neither `path` nor `<path>.prev` is on disk.
pub fn load_if_present<T>(
    path: &Path,
    what: &str,
    load: impl Fn(&Path) -> DlnResult<T>,
) -> DlnResult<Option<T>> {
    if path.exists() || prev_path(path).exists() {
        load_with_fallback(path, what, load).map(Some)
    } else {
        Ok(None)
    }
}

/// Little-endian record encoder. The caller appends fields in order and
/// finishes with [`Writer::seal`], which appends the FNV-1a checksum of
/// every preceding byte.
pub struct Writer(Vec<u8>);

impl Writer {
    /// A writer with `capacity` bytes pre-reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer(Vec::with_capacity(capacity))
    }
    /// Append raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.0.extend_from_slice(v);
    }
    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a string as a u32 byte length followed by its UTF-8 bytes.
    pub fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.bytes(v.as_bytes());
    }
    /// Append the FNV-1a checksum of everything written so far and return
    /// the finished buffer.
    pub fn seal(mut self) -> Vec<u8> {
        let checksum = fnv1a(&self.0);
        self.u64(checksum);
        self.0
    }
}

/// Little-endian record decoder over a checked byte slice. Every read is
/// bounds-checked and reports [`DlnError::Corrupt`] with `context` (the
/// source path) on truncation.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    context: &'a str,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes` starting at `pos`, attributing errors to
    /// `context`.
    pub fn new(bytes: &'a [u8], pos: usize, context: &'a str) -> Self {
        Reader {
            bytes,
            pos,
            context,
        }
    }

    /// Current read position.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Total length of the underlying slice.
    pub fn total_len(&self) -> usize {
        self.bytes.len()
    }

    /// The source name errors are attributed to.
    pub fn context(&self) -> &'a str {
        self.context
    }

    /// Take the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> DlnResult<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(DlnError::corrupt(
                self.context,
                format!("truncated at byte {} (wanted {} more)", self.pos, n),
            ));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    /// Read one byte.
    pub fn u8(&mut self) -> DlnResult<u8> {
        Ok(self.take(1)?[0])
    }
    /// Read a little-endian u32.
    pub fn u32(&mut self) -> DlnResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    /// Read a little-endian u64.
    pub fn u64(&mut self) -> DlnResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    /// Read a string written by [`Writer::str`]: the length is bounded by
    /// the buffer and the bytes must be UTF-8.
    pub fn str(&mut self) -> DlnResult<String> {
        let n = self.u32()? as usize;
        if n > self.bytes.len() {
            return Err(DlnError::corrupt(self.context, "implausible string length"));
        }
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| DlnError::corrupt(self.context, "string is not valid UTF-8"))
    }
    /// Read a length prefix, sanity-bounded so a corrupt-but-checksummed
    /// length cannot trigger a giant allocation.
    pub fn len_prefix(&mut self) -> DlnResult<usize> {
        let n = self.u64()? as usize;
        let remaining = self.bytes.len() - self.pos;
        if n > remaining {
            return Err(DlnError::corrupt(
                self.context,
                format!("implausible length {n} at byte {}", self.pos),
            ));
        }
        Ok(n)
    }
}

/// Split a sealed buffer into its payload and verify the trailing FNV-1a
/// checksum, reporting [`DlnError::Corrupt`] (attributed to `context`) on
/// mismatch or if the buffer is too short to carry one.
pub fn verify_sealed<'a>(bytes: &'a [u8], context: &str) -> DlnResult<&'a [u8]> {
    if bytes.len() < 8 {
        return Err(DlnError::corrupt(
            context,
            format!(
                "{} bytes is too short for a checksummed record",
                bytes.len()
            ),
        ));
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes([
        tail[0], tail[1], tail[2], tail[3], tail[4], tail[5], tail[6], tail[7],
    ]);
    let computed = fnv1a(payload);
    if stored != computed {
        return Err(DlnError::corrupt(
            context,
            format!("checksum mismatch (stored {stored:#x}, computed {computed:#x}) — torn or corrupt write"),
        ));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn seal_and_verify_roundtrip() {
        let mut w = Writer::with_capacity(16);
        w.u32(7);
        w.u64(u64::MAX);
        w.u8(3);
        let buf = w.seal();
        let payload = verify_sealed(&buf, "test").expect("verify");
        let mut r = Reader::new(payload, 0, "test");
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u8().unwrap(), 3);
        assert_eq!(r.pos(), payload.len());
    }

    #[test]
    fn str_roundtrip_and_rejections() {
        let mut w = Writer::with_capacity(16);
        w.str("héllo");
        w.str("");
        let buf = w.seal();
        // u32 length, then the raw UTF-8 bytes.
        assert_eq!(&buf[..4], &6u32.to_le_bytes());
        assert_eq!(&buf[4..10], "héllo".as_bytes());
        let mut r = Reader::new(&buf, 0, "test");
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.str().unwrap(), "");
        // A length past the buffer and invalid UTF-8 are typed Corrupt.
        let mut r = Reader::new(&[0xFF, 0xFF, 0xFF, 0x7F], 0, "test");
        assert!(matches!(r.str(), Err(DlnError::Corrupt { .. })));
        let mut r = Reader::new(&[2, 0, 0, 0, 0xC3, 0x28], 0, "test");
        assert!(matches!(r.str(), Err(DlnError::Corrupt { .. })));
    }

    #[test]
    fn every_flipped_byte_fails_verification() {
        let mut w = Writer::with_capacity(8);
        w.u64(0x0123_4567_89ab_cdef);
        let buf = w.seal();
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert!(verify_sealed(&bad, "test").is_err(), "flip at {i}");
        }
    }

    #[test]
    fn atomic_write_rotates_and_survives() {
        let dir = std::env::temp_dir().join(format!("dln_persist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.bin");
        atomic_write(&path, b"gen-1").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"gen-1");
        assert!(!prev_path(&path).exists());
        atomic_write(&path, b"gen-2").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"gen-2");
        assert_eq!(std::fs::read(prev_path(&path)).unwrap(), b"gen-1");
        // No .tmp litter is left behind.
        assert!(!dir.join("artifact.bin.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_with_fallback_prefers_newest_then_prev() {
        let dir = std::env::temp_dir().join(format!("dln_persist_fb_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.bin");
        let load = |p: &Path| -> DlnResult<Vec<u8>> {
            let b = std::fs::read(p).map_err(|e| DlnError::io(p.display().to_string(), e))?;
            if b.starts_with(b"ok:") {
                Ok(b)
            } else {
                Err(DlnError::corrupt(p.display().to_string(), "bad prefix"))
            }
        };
        atomic_write(&path, b"ok:1").unwrap();
        assert_eq!(
            load_with_fallback(&path, "artifact", load).unwrap(),
            b"ok:1"
        );
        // Newest torn, previous good.
        atomic_write(&path, b"torn").unwrap();
        assert_eq!(
            load_with_fallback(&path, "artifact", load).unwrap(),
            b"ok:1"
        );
        // Both bad: a combined Corrupt error.
        atomic_write(&path, b"torn2").unwrap();
        let err = load_with_fallback(&path, "artifact", load).unwrap_err();
        assert!(matches!(err, DlnError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn double_corruption_is_typed_and_leaves_files_for_forensics() {
        // Both generations hold sealed records; both are then corrupted.
        // The load must surface a typed `Corrupt` (no panic) and must not
        // modify, truncate, rotate, or delete either file — a post-mortem
        // needs the torn bytes exactly as the crash left them.
        let dir = std::env::temp_dir().join(format!("dln_persist_forensic_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.bin");
        let seal = |tag: u64| {
            let mut w = Writer::with_capacity(16);
            w.u64(tag);
            w.seal()
        };
        atomic_write(&path, &seal(1)).unwrap();
        atomic_write(&path, &seal(2)).unwrap();
        // Corrupt both generations in place (flip one payload byte each).
        for p in [path.clone(), prev_path(&path)] {
            let mut b = std::fs::read(&p).unwrap();
            b[3] ^= 0xFF;
            std::fs::write(&p, &b).unwrap();
        }
        let newest_before = std::fs::read(&path).unwrap();
        let prev_before = std::fs::read(prev_path(&path)).unwrap();
        let load = |p: &Path| -> DlnResult<u64> {
            let b = std::fs::read(p).map_err(|e| DlnError::io(p.display().to_string(), e))?;
            let payload = verify_sealed(&b, &p.display().to_string())?;
            Reader::new(payload, 0, "forensic").u64()
        };
        let err = load_with_fallback(&path, "artifact", load).unwrap_err();
        assert!(matches!(err, DlnError::Corrupt { .. }), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("both generations"), "combined context: {msg}");
        // Forensics: both corrupt files survive byte-for-byte.
        assert_eq!(std::fs::read(&path).unwrap(), newest_before);
        assert_eq!(std::fs::read(prev_path(&path)).unwrap(), prev_before);
        assert!(!dir.join("artifact.bin.tmp").exists(), "no staging litter");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_if_present_is_none_without_either_generation() {
        let dir = std::env::temp_dir().join(format!("dln_persist_lip_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.bin");
        let load =
            |p: &Path| std::fs::read(p).map_err(|e| DlnError::io(p.display().to_string(), e));
        assert!(load_if_present(&path, "artifact", load).unwrap().is_none());
        // Only the previous generation survives: it is loaded.
        std::fs::write(prev_path(&path), b"old").unwrap();
        assert_eq!(
            load_if_present(&path, "artifact", load).unwrap().as_deref(),
            Some(&b"old"[..])
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_both_generations_is_an_error() {
        let path = std::env::temp_dir().join("dln_persist_never_written.bin");
        let err = load_with_fallback(&path, "artifact", |p| {
            std::fs::read(p).map_err(|e| DlnError::io(p.display().to_string(), e))
        })
        .unwrap_err();
        assert!(matches!(err, DlnError::Corrupt { .. }), "{err}");
    }
}
