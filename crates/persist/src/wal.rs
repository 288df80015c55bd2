//! The durable log: a sealed snapshot plus a framed write-ahead log.
//!
//! A [`Wal`] keeps an in-memory [`WalState`] durable across crashes in two
//! files derived from one base path:
//!
//! * `<base>` — the **snapshot**: a sealed record (`magic`, `version`,
//!   `last_seq:u64`, `quarantined:u64`, then the state body) published
//!   with [`atomic_write`], so one previous generation always survives at
//!   `<base>.prev`.
//! * `<base>.wal` — the **WAL**: appended frames, each
//!   `[len:u64][seq:u64 ‖ payload][fnv1a(seq ‖ payload):u64]`, fsynced per
//!   append.
//!
//! The recovery contract, the same for every state type:
//!
//! * **Ack after durable.** [`Wal::append`] returns the sequence number
//!   only once the frame is on disk. A torn append (including the injected
//!   tear at [`WalState::TORN_SITE`]) acknowledges nothing and is
//!   discarded by the next append or open.
//! * **Torn tail.** On open, the WAL is scanned up to the first frame that
//!   is cut short or fails its checksum, and truncated there with a
//!   warning — everything before it is intact by construction.
//! * **Sequence gap.** Frames don't tear in the middle of a file, so a
//!   gap in sequence numbers means lost data: [`DlnError::Corrupt`].
//! * **Quarantine.** A frame whose checksum passes but whose payload does
//!   not decode was not torn (the checksum covers every payload byte), so
//!   skipping it cannot mask data loss: it is counted, its sequence number
//!   still advances, and every later frame still applies.
//! * **Compaction.** [`Wal::compact`] publishes the state as the new
//!   snapshot and then truncates the WAL. A crash between the two steps is
//!   safe: frames the snapshot already covers are skipped by sequence
//!   number on the next open, never applied twice.

use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use dln_fault::{DlnError, DlnResult};

use crate::{atomic_write, fnv1a, load_if_present, verify_sealed, Reader, Writer};

/// The in-memory state a [`Wal`] folds its records into, plus the
/// format constants of its files.
pub trait WalState: Default {
    /// One appended record: the payload of one WAL frame.
    type Record;
    /// Name of the log in warnings and errors.
    const WHAT: &'static str;
    /// Magic prefix of the snapshot file.
    const SNAP_MAGIC: &'static [u8; 8];
    /// Snapshot format version.
    const SNAP_VERSION: u8;
    /// Failpoint that tears an append mid-frame.
    const TORN_SITE: &'static str;

    /// Encode one record as a frame payload.
    fn encode_record(record: &Self::Record) -> Vec<u8>;
    /// Decode one frame payload; an error on a checksum-valid frame
    /// quarantines it.
    fn decode_record(bytes: &[u8], context: &str) -> DlnResult<Self::Record>;
    /// Fold record `seq` into the state.
    fn apply(&mut self, seq: u64, record: &Self::Record);
    /// Append the snapshot body (everything after the common header).
    fn encode_body(&self, w: &mut Writer);
    /// Decode a snapshot body written by [`encode_body`](Self::encode_body);
    /// `last_seq` is the sequence number the snapshot covers.
    fn decode_body(r: &mut Reader<'_>, last_seq: u64) -> DlnResult<Self>;
}

/// The `<base>.wal` path of the log rooted at `base`.
pub fn wal_path(base: &Path) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

/// One WAL frame: `[len:u64][seq:u64 ‖ payload][fnv1a(seq ‖ payload):u64]`.
pub fn encode_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let body_len = 8 + payload.len();
    let mut frame = Vec::with_capacity(16 + body_len);
    frame.extend_from_slice(&(body_len as u64).to_le_bytes());
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(payload);
    let checksum = fnv1a(&frame[8..]);
    frame.extend_from_slice(&checksum.to_le_bytes());
    frame
}

/// The little-endian u64 at `pos`, if the buffer holds one.
fn u64_at(bytes: &[u8], pos: usize) -> Option<u64> {
    let word = bytes.get(pos..pos.checked_add(8)?)?;
    Some(u64::from_le_bytes(word.try_into().ok()?))
}

/// The checksum-valid frame body starting at `pos` and the offset where
/// its frame ends; `None` at a clean end or a torn / corrupt frame.
fn frame_at(bytes: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let len = usize::try_from(u64_at(bytes, pos)?).ok()?;
    let body_end = (pos + 8).checked_add(len)?;
    let body = bytes.get(pos + 8..body_end)?;
    (u64_at(bytes, body_end)? == fnv1a(body)).then_some((body, body_end + 8))
}

/// Cut `path` to `len` bytes and fsync, creating it if missing.
fn truncate_to(path: &Path, len: u64) -> DlnResult<()> {
    let io_err = |e| DlnError::io(path.display().to_string(), e);
    let f = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(io_err)?;
    f.set_len(len).map_err(io_err)?;
    f.sync_all().map_err(io_err)
}

/// A durable log of `S::Record`s folded into an `S`. See the module docs
/// for the on-disk contract.
#[derive(Debug)]
pub struct Wal<S: WalState> {
    snap_path: PathBuf,
    wal_path: PathBuf,
    state: S,
    /// Last durably appended (or quarantine-skipped) sequence number.
    last_seq: u64,
    /// Length of the known-valid WAL prefix (bytes).
    clean_len: u64,
    /// Checksum-valid frames whose payload failed to decode.
    quarantined: u64,
}

impl<S: WalState> Wal<S> {
    /// Open (or create) the log rooted at `base`: a torn snapshot falls
    /// back to `<base>.prev`, a torn WAL tail is truncated, an undecodable
    /// frame is quarantined, and a sequence gap is [`DlnError::Corrupt`].
    pub fn open(base: &Path) -> DlnResult<Wal<S>> {
        let snap_path = base.to_path_buf();
        let wal_path = wal_path(base);
        let what = format!("{} snapshot", S::WHAT);
        let (mut state, snap_seq, mut quarantined) =
            load_if_present(&snap_path, &what, Self::load_snapshot)?.unwrap_or_default();

        let mut last_seq = snap_seq;
        let mut clean_len = 0u64;
        if wal_path.exists() {
            let bytes = std::fs::read(&wal_path)
                .map_err(|e| DlnError::io(wal_path.display().to_string(), e))?;
            let context = wal_path.display().to_string();
            let mut pos = 0usize;
            while let Some((body, end)) = frame_at(&bytes, pos) {
                let mut r = Reader::new(body, 0, &context);
                let seq = r.u64()?;
                if seq > snap_seq {
                    if seq != last_seq + 1 {
                        return Err(DlnError::corrupt(
                            &context,
                            format!(
                                "{} sequence gap: expected {}, found {seq}",
                                S::WHAT,
                                last_seq + 1
                            ),
                        ));
                    }
                    match S::decode_record(&body[r.pos()..], &context) {
                        Ok(record) => state.apply(seq, &record),
                        Err(e) => {
                            eprintln!("warning: quarantining {} frame seq {seq} ({e})", S::WHAT);
                            quarantined += 1;
                        }
                    }
                    last_seq = seq;
                }
                pos = end;
            }
            clean_len = pos as u64;
            if pos < bytes.len() {
                eprintln!(
                    "warning: {} WAL {} has a torn tail ({} of {} bytes valid); truncating",
                    S::WHAT,
                    wal_path.display(),
                    pos,
                    bytes.len()
                );
                truncate_to(&wal_path, clean_len)?;
            }
        }
        Ok(Wal {
            snap_path,
            wal_path,
            state,
            last_seq,
            clean_len,
            quarantined,
        })
    }

    fn load_snapshot(path: &Path) -> DlnResult<(S, u64, u64)> {
        let bytes = std::fs::read(path).map_err(|e| DlnError::io(path.display().to_string(), e))?;
        let context = path.display().to_string();
        let payload = verify_sealed(&bytes, &context)?;
        let mut r = Reader::new(payload, 0, &context);
        if r.take(8)? != S::SNAP_MAGIC {
            return Err(DlnError::corrupt(
                &context,
                format!("not a {} snapshot (bad magic)", S::WHAT),
            ));
        }
        let version = r.u8()?;
        if version != S::SNAP_VERSION {
            return Err(DlnError::corrupt(
                &context,
                format!("unsupported {} snapshot version {version}", S::WHAT),
            ));
        }
        let last_seq = r.u64()?;
        let quarantined = r.u64()?;
        let state = S::decode_body(&mut r, last_seq)?;
        if r.pos() != payload.len() {
            return Err(DlnError::corrupt(&context, "trailing bytes"));
        }
        Ok((state, last_seq, quarantined))
    }

    /// Durably append one record, returning its sequence number. The frame
    /// is fsynced before this returns `Ok`; on any error (including the
    /// injected tear at [`WalState::TORN_SITE`]) nothing is acknowledged
    /// and the write is discarded by the next append or open.
    pub fn append(&mut self, record: &S::Record) -> DlnResult<u64> {
        let seq = self.last_seq + 1;
        let frame = encode_frame(seq, &S::encode_record(record));
        let torn = dln_fault::should_fail(S::TORN_SITE);
        let write_len = if torn {
            frame.len() * 2 / 3
        } else {
            frame.len()
        };
        let io_err = |e| DlnError::io(self.wal_path.display().to_string(), e);
        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&self.wal_path)
            .map_err(io_err)?;
        // Discard any torn tail a previous failed append left behind.
        f.set_len(self.clean_len).map_err(io_err)?;
        f.seek(SeekFrom::Start(self.clean_len)).map_err(io_err)?;
        f.write_all(&frame[..write_len]).map_err(io_err)?;
        f.sync_all().map_err(io_err)?;
        if torn {
            return Err(DlnError::corrupt(
                self.wal_path.display().to_string(),
                format!("injected torn {} append ({})", S::WHAT, S::TORN_SITE),
            ));
        }
        self.clean_len += frame.len() as u64;
        self.last_seq = seq;
        self.state.apply(seq, record);
        Ok(seq)
    }

    /// Atomically publish the state as the new snapshot, then truncate the
    /// WAL. A crash between the two steps is safe: frames the snapshot
    /// already covers are skipped by sequence number on the next open.
    pub fn compact(&mut self) -> DlnResult<()> {
        let mut w = Writer::with_capacity(256);
        w.bytes(S::SNAP_MAGIC);
        w.u8(S::SNAP_VERSION);
        w.u64(self.last_seq);
        w.u64(self.quarantined);
        self.state.encode_body(&mut w);
        atomic_write(&self.snap_path, &w.seal())?;
        truncate_to(&self.wal_path, 0)?;
        self.clean_len = 0;
        Ok(())
    }

    /// Everything durably logged: the snapshot plus every valid WAL frame.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Sequence number of the last durably appended frame.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Checksum-valid frames whose payload failed to decode.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny state: the sum of every applied value and the sequence
    /// numbers that were applied. A record is exactly eight bytes, so any
    /// other payload length quarantines.
    #[derive(Debug, Default, PartialEq)]
    struct Tally {
        sum: u64,
        seqs: Vec<u64>,
    }

    impl WalState for Tally {
        type Record = u64;
        const WHAT: &'static str = "tally";
        const SNAP_MAGIC: &'static [u8; 8] = b"TESTTALY";
        const SNAP_VERSION: u8 = 1;
        const TORN_SITE: &'static str = "test.wal_torn";

        fn encode_record(record: &u64) -> Vec<u8> {
            record.to_le_bytes().to_vec()
        }
        fn decode_record(bytes: &[u8], context: &str) -> DlnResult<u64> {
            let mut r = Reader::new(bytes, 0, context);
            let v = r.u64()?;
            if r.pos() != bytes.len() {
                return Err(DlnError::corrupt(context, "trailing bytes"));
            }
            Ok(v)
        }
        fn apply(&mut self, seq: u64, record: &u64) {
            self.sum += record;
            self.seqs.push(seq);
        }
        fn encode_body(&self, w: &mut Writer) {
            w.u64(self.sum);
            w.u64(self.seqs.len() as u64);
            for &s in &self.seqs {
                w.u64(s);
            }
        }
        fn decode_body(r: &mut Reader<'_>, _last_seq: u64) -> DlnResult<Tally> {
            let sum = r.u64()?;
            let n = r.len_prefix()?;
            let seqs = (0..n).map(|_| r.u64()).collect::<DlnResult<_>>()?;
            Ok(Tally { sum, seqs })
        }
    }

    type TallyLog = Wal<Tally>;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dln_wal_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir.join("log")
    }

    fn cleanup(base: &Path) {
        if let Some(dir) = base.parent() {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    fn write_wal(base: &Path, frames: &[(u64, &[u8])]) {
        let mut wal = Vec::new();
        for &(seq, payload) in frames {
            wal.extend_from_slice(&encode_frame(seq, payload));
        }
        std::fs::write(wal_path(base), &wal).expect("write wal");
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let _clean = dln_fault::scoped("").expect("clean scope");
        let base = tmp("torn_tail");
        let mut log = TallyLog::open(&base).expect("open");
        log.append(&4).expect("append");
        let clean = std::fs::metadata(wal_path(&base)).expect("wal").len();
        // A frame cut short by a crash.
        let frame = encode_frame(2, &9u64.to_le_bytes());
        let mut bytes = std::fs::read(wal_path(&base)).expect("read");
        bytes.extend_from_slice(&frame[..frame.len() - 3]);
        std::fs::write(wal_path(&base), &bytes).expect("write");
        let reopened = TallyLog::open(&base).expect("reopen over torn tail");
        assert_eq!(reopened.last_seq(), 1);
        assert_eq!(reopened.state().sum, 4);
        assert_eq!(
            std::fs::metadata(wal_path(&base)).expect("wal").len(),
            clean
        );
        cleanup(&base);
    }

    #[test]
    fn torn_append_is_not_acked_and_the_same_handle_rewinds() {
        let base = tmp("torn_append");
        let mut log;
        {
            let _clean = dln_fault::scoped("").expect("clean scope");
            log = TallyLog::open(&base).expect("open");
            log.append(&1).expect("append 1");
        }
        {
            let _torn = dln_fault::scoped("test.wal_torn:1.0:0").expect("torn scope");
            let err = log.append(&100).unwrap_err();
            assert!(matches!(err, DlnError::Corrupt { .. }), "{err}");
        }
        assert_eq!(log.last_seq(), 1, "torn append not acked");
        let _clean = dln_fault::scoped("").expect("clean scope");
        // The same handle rewinds to the clean prefix: the retry gets the
        // torn append's sequence number and nothing of it survives.
        assert_eq!(log.append(&2).expect("append after torn"), 2);
        let reopened = TallyLog::open(&base).expect("reopen");
        assert_eq!(
            reopened.state(),
            &Tally {
                sum: 3,
                seqs: vec![1, 2]
            }
        );
        cleanup(&base);
    }

    #[test]
    fn sequence_gap_is_typed_corrupt() {
        let _clean = dln_fault::scoped("").expect("clean scope");
        let base = tmp("gap");
        let v = 1u64.to_le_bytes();
        write_wal(&base, &[(1, &v), (3, &v)]); // 2 missing
        let err = TallyLog::open(&base).unwrap_err();
        assert!(matches!(err, DlnError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("sequence gap"), "{err}");
        cleanup(&base);
    }

    #[test]
    fn undecodable_frame_is_quarantined_and_later_frames_apply() {
        let _clean = dln_fault::scoped("").expect("clean scope");
        let base = tmp("quarantine");
        write_wal(
            &base,
            &[
                (1, &10u64.to_le_bytes()),
                (2, &[0xFF, 0x00, 0x01]), // checksum-valid junk
                (3, &20u64.to_le_bytes()),
            ],
        );
        let len_before = std::fs::metadata(wal_path(&base)).expect("wal").len();
        let mut log = TallyLog::open(&base).expect("open quarantines, not fails");
        assert_eq!(log.last_seq(), 3, "sequence still advances");
        assert_eq!(log.quarantined(), 1);
        assert_eq!(
            log.state(),
            &Tally {
                sum: 30,
                seqs: vec![1, 3]
            }
        );
        assert_eq!(
            std::fs::metadata(wal_path(&base)).expect("wal").len(),
            len_before,
            "nothing after the quarantined frame is truncated"
        );
        // The count survives compaction.
        log.compact().expect("compact");
        assert_eq!(TallyLog::open(&base).expect("reopen").quarantined(), 1);
        cleanup(&base);
    }

    #[test]
    fn compaction_crash_window_skips_covered_frames() {
        let _clean = dln_fault::scoped("").expect("clean scope");
        let base = tmp("compact_crash");
        let mut log = TallyLog::open(&base).expect("open");
        log.append(&3).expect("append 1");
        log.append(&4).expect("append 2");
        // Crash after the snapshot is published but before the WAL
        // truncation reaches the disk: the covered frames are still there.
        let wal_before = std::fs::read(wal_path(&base)).expect("read wal");
        log.compact().expect("compact");
        std::fs::write(wal_path(&base), &wal_before).expect("restore wal");
        let mut reopened = TallyLog::open(&base).expect("reopen");
        assert_eq!(reopened.last_seq(), 2);
        assert_eq!(
            reopened.state(),
            &Tally {
                sum: 7,
                seqs: vec![1, 2]
            },
            "covered frames are not applied twice"
        );
        // Appending continues the sequence after the covered frames.
        assert_eq!(reopened.append(&5).expect("append 3"), 3);
        let again = TallyLog::open(&base).expect("reopen again");
        assert_eq!(
            again.state(),
            &Tally {
                sum: 12,
                seqs: vec![1, 2, 3]
            }
        );
        cleanup(&base);
    }
}
