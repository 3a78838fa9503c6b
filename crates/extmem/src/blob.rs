//! The append-only payload log: variable-length byte values behind the
//! hash index.
//!
//! The paper's model stores one-word items, so the tables above this
//! crate map `u64 → u64`. Real data does not fit in a word; the standard
//! production shape (simd-r-drive's DataStore, the buffer-tree
//! dictionaries of Conway et al.) keeps the hash table as an **index**
//! and the payloads in an append-only data log. [`BlobLog`] is that log:
//!
//! * every record is **length-framed and checksummed** —
//!   `len: u32 | fnv1a64(payload): u64 | payload` — so a torn tail can
//!   never be mistaken for data;
//! * [`BlobLog::append`] returns `(offset, len)`; the caller stores
//!   `BLOB_TAG | offset` as the index word (see [`crate::BLOB_TAG`]);
//! * [`BlobLog::get`] has two paths, both without a per-read checksum
//!   (integrity is established once, at open, when the committed prefix
//!   is verified frame by frame; appends made through this handle are
//!   the process's own bytes). A frame appended since the last
//!   [`BlobLog::sync`] is a **zero-copy borrow** of the in-memory
//!   unsynced tail — a hot key's newest frame costs no syscall. A synced
//!   frame costs **one `pread`** of header plus payload into a reused
//!   buffer (a second only when the payload is longer than the first
//!   read, which is sized from the mean frame length seen so far);
//! * memory is bounded by the sync cadence, not by the log size: the
//!   handle holds the unsynced tail (released at every sync) and one
//!   read buffer, never the synced log;
//! * durability is the caller's ordering obligation: appends are
//!   volatile until [`BlobLog::sync`], and the `dxh-dura` rule
//!   `blob-sync-before-index-commit` demands the sync precede any index
//!   commit that references the new offsets.
//!
//! The storage seam is [`BlobFile`]: a real file ([`FileBlob`]) or the
//! crash simulator's blob namespace (`SimBlob` in `sim_disk`), so every
//! torture sweep covers torn appends with the same code path.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::block::le_word;
use crate::error::{ExtMemError, Result};
use crate::item::MAX_BLOB_OFFSET;
use crate::sim_disk::{fnv1a64, fnv1a64_fold, FNV1A64_BASIS};

/// Bytes of framing before each payload: `len: u32 LE | fnv1a64: u64 LE`.
pub const BLOB_FRAME_HEADER: usize = 12;

/// Largest single read of [`BlobLog::open`]'s verification pass: the
/// file streams through one buffer of at most this many bytes.
const SCAN_CHUNK: usize = 1 << 20;

/// The byte-level storage a [`BlobLog`] runs on: an append-only file
/// with explicit sync. Implementations: [`FileBlob`] (a real file) and
/// the simulator's `SimBlob` (volatile until sync, torn-tail lottery at
/// a power cycle).
pub trait BlobFile {
    /// Appends `bytes` at the end of the file (volatile until
    /// [`BlobFile::sync`]).
    fn append(&mut self, bytes: &[u8]) -> Result<()>;
    /// `fdatasync`: makes every prior append durable.
    fn sync(&mut self) -> Result<()>;
    /// Current file length in bytes (appends included).
    fn len(&self) -> u64;
    /// Whether the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Reads exactly `buf.len()` bytes at `offset` — a process reads its
    /// own unsynced appends. A range past the end is an error.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;
    /// Truncates to `len` bytes — recovery's crash-tail discard.
    fn truncate(&mut self, len: u64) -> Result<()>;
}

/// A [`BlobFile`] over a real file: positioned appends and reads, one
/// syscall each, `sync_data` durability — the blob twin of `FileDisk`.
pub struct FileBlob {
    file: File,
    len: u64,
}

impl FileBlob {
    /// Creates (truncating) the blob file at `path`.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        Ok(FileBlob { file, len: 0 })
    }

    /// Opens the existing blob file at `path` without truncating.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        Ok(FileBlob { file, len })
    }
}

impl BlobFile for FileBlob {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.file.write_all_at(bytes, self.len)?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.file.read_exact_at(buf, offset)?;
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<()> {
        self.file.set_len(len)?;
        self.len = len;
        Ok(())
    }
}

/// Count and total bytes of the frames a [`BlobLog`] has seen (verified
/// at open or appended): their mean sizes the first read of a synced
/// frame.
#[derive(Debug, Default, Clone, Copy)]
struct FrameSizes {
    frames: u64,
    bytes: u64,
}

impl FrameSizes {
    fn record(&mut self, frame_len: u64) {
        self.frames += 1;
        self.bytes += frame_len;
    }

    /// Bytes to fetch first for a synced frame: the mean frame length
    /// seen, and at least a header.
    fn first_read(&self) -> u64 {
        match self.frames {
            0 => BLOB_FRAME_HEADER as u64,
            n => self.bytes.div_ceil(n).max(BLOB_FRAME_HEADER as u64),
        }
    }
}

/// The append-only, length-framed, checksummed payload log (module
/// docs above). Generic over its [`BlobFile`] so the real store and the
/// crash simulator share the exact recovery path.
pub struct BlobLog<F: BlobFile> {
    file: F,
    /// Log offset of `tail[0]`: the length as of the last
    /// [`BlobLog::sync`] (or of open). Frames below it are read from the
    /// file.
    tail_base: u64,
    /// Every byte appended since the last [`BlobLog::sync`] — the only
    /// log bytes held in memory; [`BlobLog::get`] borrows from it.
    tail: Vec<u8>,
    /// The reused read buffer for frames below `tail_base`.
    buf: Vec<u8>,
    sizes: FrameSizes,
}

impl<F: BlobFile> BlobLog<F> {
    /// Wraps a freshly created (empty) [`BlobFile`].
    pub fn create(file: F) -> Result<Self> {
        if !file.is_empty() {
            return Err(ExtMemError::BadConfig(
                "BlobLog::create expects an empty file (use open to recover)".into(),
            ));
        }
        Ok(BlobLog {
            file,
            tail_base: 0,
            tail: Vec::new(),
            buf: Vec::new(),
            sizes: FrameSizes::default(),
        })
    }

    /// Opens an existing log, recovering around `committed_len` — the
    /// length the caller's last index commit covers (a manifest field).
    /// The committed prefix is verified frame by frame (length framing
    /// and checksum), so every offset the committed index holds reads
    /// back intact — or the open fails with [`ExtMemError::Corrupt`]
    /// instead of serving bad bytes. Bytes **past** the commit point
    /// are a crash tail: whole checksum-valid frames there are *kept*
    /// (a durable append whose index commit hadn't landed yet — the
    /// index's own blocks can survive a crash ahead of the manifest
    /// and legitimately reference them), and the log is truncated at
    /// the first torn or corrupt frame. The file streams through
    /// [`BlobFile::read_at`] in bounded chunks, so opening holds no
    /// buffer proportional to the log.
    pub fn open(mut file: F, committed_len: u64) -> Result<Self> {
        let file_len = file.len();
        if file_len < committed_len {
            return Err(ExtMemError::Corrupt(format!(
                "blob log holds {file_len} bytes, index commit covers {committed_len}"
            )));
        }
        let mut sizes = FrameSizes::default();
        let (end, stop) = walk_frames(&file, 0, committed_len, &mut sizes)?;
        if let Some(why) = stop {
            debug_assert!(end < committed_len);
            return Err(ExtMemError::Corrupt(why));
        }
        let (keep, _) = walk_frames(&file, committed_len, file_len, &mut sizes)?;
        if keep < file_len {
            file.truncate(keep)?;
        }
        Ok(BlobLog { file, tail_base: keep, tail: Vec::new(), buf: Vec::new(), sizes })
    }

    /// Appends `payload` as one framed record; returns `(offset, len)` —
    /// the offset to store (tagged) in the index word and the framed
    /// length on disk. Volatile until [`BlobLog::sync`].
    pub fn append(&mut self, payload: &[u8]) -> Result<(u64, u32)> {
        let frame_len = BLOB_FRAME_HEADER
            .checked_add(payload.len())
            .filter(|&n| n <= u32::MAX as usize)
            .ok_or_else(|| {
                ExtMemError::BadConfig("payload exceeds the 4 GiB frame bound".into())
            })?;
        let offset = self.len();
        if offset + frame_len as u64 > MAX_BLOB_OFFSET {
            // Offsets must stay below the index word's tag bit headroom.
            return Err(ExtMemError::BadConfig("blob log exceeds the offset bound".into()));
        }
        let at = self.tail.len();
        self.tail.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.tail.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        self.tail.extend_from_slice(payload);
        if let Err(e) = self.file.append(&self.tail[at..]) {
            self.tail.truncate(at);
            return Err(e);
        }
        self.sizes.record(frame_len as u64);
        Ok((offset, frame_len as u32))
    }

    /// The read path: the payload at `offset`, with no per-read checksum
    /// (the committed prefix was verified at open; appends made through
    /// this handle are the process's own bytes). An unsynced frame is a
    /// zero-copy borrow of the in-memory tail; a synced one is read from
    /// the file into a reused buffer (see the module docs). Errors on an
    /// offset that does not frame a record.
    pub fn get(&mut self, offset: u64) -> Result<&[u8]> {
        Ok(&self.frame(offset)?[BLOB_FRAME_HEADER..])
    }

    /// The copying read path: re-verifies the record's checksum and
    /// returns an owned copy — what a caller crossing a thread or
    /// trust boundary uses, and the `exp_blob` bench's comparison arm.
    pub fn get_verified(&mut self, offset: u64) -> Result<Vec<u8>> {
        let frame = self.frame(offset)?;
        let (header, payload) = frame.split_at(BLOB_FRAME_HEADER);
        if fnv1a64(payload) != le_word(header, 4) {
            return Err(ExtMemError::Corrupt(format!(
                "blob record at offset {offset} fails its checksum"
            )));
        }
        Ok(payload.to_vec())
    }

    /// The whole frame (header plus payload) at `offset`, bounds-checked
    /// against the log: borrowed from the unsynced tail, or read from the
    /// file into the reused buffer.
    fn frame(&mut self, offset: u64) -> Result<&[u8]> {
        let outside = || ExtMemError::Corrupt(format!("blob offset {offset} outside the log"));
        let overruns =
            || ExtMemError::Corrupt(format!("blob record at offset {offset} overruns the log"));
        // Log bytes from `offset` to the end, at least a header's worth.
        let avail = self
            .len()
            .checked_sub(offset)
            .filter(|&n| n >= BLOB_FRAME_HEADER as u64)
            .ok_or_else(outside)?;
        if offset >= self.tail_base {
            let at = (offset - self.tail_base) as usize;
            let need = frame_len(&self.tail[at..]);
            if need as u64 > avail {
                return Err(overruns());
            }
            return Ok(&self.tail[at..at + need]);
        }
        let first = self.sizes.first_read().min(avail) as usize;
        if self.buf.len() < first {
            self.buf.resize(first, 0);
        }
        self.file.read_at(offset, &mut self.buf[..first])?;
        let need = frame_len(&self.buf);
        if need as u64 > avail {
            return Err(overruns());
        }
        if need > first {
            if self.buf.len() < need {
                self.buf.resize(need, 0);
            }
            self.file.read_at(offset + first as u64, &mut self.buf[first..need])?;
        }
        Ok(&self.buf[..need])
    }

    /// `fdatasync`: every append so far becomes durable, and the
    /// in-memory tail is released (later reads of its frames go to the
    /// file). The caller's index commit may reference the new offsets
    /// only after this returns (`blob-sync-before-index-commit`).
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync()?;
        self.tail_base += self.tail.len() as u64;
        self.tail = Vec::new();
        Ok(())
    }

    /// Total log length in bytes (what an index commit after a
    /// [`BlobLog::sync`] records as the committed length).
    pub fn len(&self) -> u64 {
        self.tail_base + self.tail.len() as u64
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes appended since the last [`BlobLog::sync`].
    pub fn unsynced_bytes(&self) -> u64 {
        self.tail.len() as u64
    }
}

/// Header plus payload length of the frame whose header starts `b`
/// (which must hold at least the 4-byte length field).
fn frame_len(b: &[u8]) -> usize {
    let mut len4 = [0u8; 4];
    len4.copy_from_slice(&b[..4]);
    BLOB_FRAME_HEADER + u32::from_le_bytes(len4) as usize
}

/// Sequential reads of `[pos, end)` of a blob file through one reused
/// buffer of at most [`SCAN_CHUNK`] bytes — open's bounded-memory pass.
struct Scan<'a, F> {
    file: &'a F,
    /// File offset of the next byte to fetch into `buf`.
    next: u64,
    end: u64,
    buf: Vec<u8>,
    /// The unconsumed fetched bytes are `buf[lo..hi]`.
    lo: usize,
    hi: usize,
}

impl<'a, F: BlobFile> Scan<'a, F> {
    fn new(file: &'a F, from: u64, end: u64) -> Self {
        let chunk = (SCAN_CHUNK as u64).min(end - from) as usize;
        Scan { file, next: from, end, buf: vec![0; chunk], lo: 0, hi: 0 }
    }

    /// File offset of the next unconsumed byte.
    fn pos(&self) -> u64 {
        self.next - (self.hi - self.lo) as u64
    }

    fn remaining(&self) -> u64 {
        self.end - self.pos()
    }

    /// Consumes up to `max` bytes — at least one while any remain —
    /// fetching the next chunk when the buffer is drained.
    fn take(&mut self, max: usize) -> Result<&[u8]> {
        if self.lo == self.hi {
            let n = (self.buf.len() as u64).min(self.end - self.next) as usize;
            self.file.read_at(self.next, &mut self.buf[..n])?;
            self.next += n as u64;
            (self.lo, self.hi) = (0, n);
        }
        let n = max.min(self.hi - self.lo);
        self.lo += n;
        Ok(&self.buf[self.lo - n..self.lo])
    }

    /// Fills `out` (which must not exceed [`Scan::remaining`]).
    fn take_exact(&mut self, out: &mut [u8]) -> Result<()> {
        let mut got = 0;
        while got < out.len() {
            let s = self.take(out.len() - got)?;
            out[got..got + s.len()].copy_from_slice(s);
            got += s.len();
        }
        Ok(())
    }
}

/// Walks the frames of `[from, end)` of `file`, checking length framing
/// and every record's checksum — the open-time integrity pass that lets
/// [`BlobLog::get`] skip per-read verification — and recording each
/// valid frame in `sizes`. Returns the end of the last whole valid frame
/// and, when the walk stopped short of `end`, why.
fn walk_frames<F: BlobFile>(
    file: &F,
    from: u64,
    end: u64,
    sizes: &mut FrameSizes,
) -> Result<(u64, Option<String>)> {
    let mut scan = Scan::new(file, from, end);
    loop {
        let at = scan.pos();
        if scan.remaining() == 0 {
            return Ok((at, None));
        }
        if scan.remaining() < BLOB_FRAME_HEADER as u64 {
            return Ok((at, Some(format!("blob log truncated mid-header at offset {at}"))));
        }
        let mut header = [0u8; BLOB_FRAME_HEADER];
        scan.take_exact(&mut header)?;
        let len = (frame_len(&header) - BLOB_FRAME_HEADER) as u64;
        if scan.remaining() < len {
            return Ok((at, Some(format!("blob log truncated mid-record at offset {at}"))));
        }
        let mut sum = FNV1A64_BASIS;
        let mut left = len as usize;
        while left > 0 {
            let s = scan.take(left)?;
            sum = fnv1a64_fold(sum, s);
            left -= s.len();
        }
        if sum != le_word(&header, 4) {
            return Ok((at, Some(format!("blob record at offset {at} fails its checksum"))));
        }
        sizes.record(BLOB_FRAME_HEADER as u64 + len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dxh-blob-{tag}-{}", std::process::id()))
    }

    /// An in-memory BlobFile for unit tests (the crash-faithful twin is
    /// SimBlob in sim_disk); counts its `read_at` calls.
    #[derive(Default)]
    struct MemBlob {
        bytes: Vec<u8>,
        reads: std::cell::Cell<u64>,
    }

    impl MemBlob {
        fn of(bytes: Vec<u8>) -> Self {
            MemBlob { bytes, ..Default::default() }
        }
    }

    impl BlobFile for MemBlob {
        fn append(&mut self, bytes: &[u8]) -> Result<()> {
            self.bytes.extend_from_slice(bytes);
            Ok(())
        }
        fn sync(&mut self) -> Result<()> {
            Ok(())
        }
        fn len(&self) -> u64 {
            self.bytes.len() as u64
        }
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
            self.reads.set(self.reads.get() + 1);
            let at = offset as usize;
            let src = self.bytes.get(at..at + buf.len()).ok_or_else(|| {
                ExtMemError::Io(std::io::Error::from(std::io::ErrorKind::UnexpectedEof))
            })?;
            buf.copy_from_slice(src);
            Ok(())
        }
        fn truncate(&mut self, len: u64) -> Result<()> {
            self.bytes.truncate(len as usize);
            Ok(())
        }
    }

    #[test]
    fn append_get_round_trip_zero_copy_and_verified() {
        let mut log = BlobLog::create(MemBlob::default()).unwrap();
        let (o1, l1) = log.append(b"hello").unwrap();
        let (o2, _) = log.append(b"").unwrap();
        let (o3, _) = log.append(&[0xFF; 8]).unwrap();
        assert_eq!(o1, 0);
        assert_eq!(l1 as usize, BLOB_FRAME_HEADER + 5);
        assert_eq!(o2, l1 as u64);
        assert_eq!(log.get(o1).unwrap(), b"hello");
        assert_eq!(log.get(o2).unwrap(), b"");
        assert_eq!(log.get(o3).unwrap(), &[0xFF; 8], "u64::MAX-image payload is storable");
        assert_eq!(log.get_verified(o1).unwrap(), b"hello".to_vec());
    }

    #[test]
    fn get_rejects_non_frame_offsets() {
        let mut log = BlobLog::create(MemBlob::default()).unwrap();
        let (o, _) = log.append(b"abcdefgh").unwrap();
        assert!(log.get(o + 1).is_ok() || log.get(o + 1).is_err()); // never panics
        assert!(log.get(10_000).is_err(), "past the end");
        assert!(log.get_verified(o + 3).is_err(), "misaligned offset fails the checksum");
    }

    #[test]
    fn open_truncates_the_torn_tail_and_verifies_the_prefix() {
        let mut file = MemBlob::default();
        {
            let mut log = BlobLog::create(MemBlob::default()).unwrap();
            let _ = log.append(b"alpha").unwrap();
            let _ = log.append(b"beta").unwrap();
            file.bytes = log.file.bytes.clone();
        }
        let committed = file.len();
        // A torn half-append past the committed length.
        file.append(&[9, 0, 0, 0, 1, 2]).unwrap();
        let mut log = BlobLog::open(file, committed).unwrap();
        assert_eq!(log.len(), committed, "torn tail discarded");
        assert_eq!(log.get(0).unwrap(), b"alpha");
    }

    /// A whole valid frame past the commit point survives recovery: the
    /// index's own blocks can durably outrun the manifest, so the
    /// offsets they hold must stay servable. A torn frame *after* it is
    /// still cut.
    #[test]
    fn open_keeps_valid_frames_past_the_commitment() {
        let (mut file, committed, tail_off) = {
            let mut log = BlobLog::create(MemBlob::default()).unwrap();
            let _ = log.append(b"committed").unwrap();
            let committed = log.len();
            let (tail_off, _) = log.append(b"durable but uncommitted").unwrap();
            (MemBlob::of(log.file.bytes.clone()), committed, tail_off)
        };
        file.append(&[44, 0, 0, 0, 7]).unwrap(); // torn half-append after it
        let mut log = BlobLog::open(file, committed).unwrap();
        assert_eq!(log.get(tail_off).unwrap(), b"durable but uncommitted");
        assert_eq!(
            log.len(),
            tail_off + (BLOB_FRAME_HEADER + b"durable but uncommitted".len()) as u64,
            "the torn half-append is cut, the valid frame kept"
        );
    }

    #[test]
    fn open_rejects_corruption_inside_the_committed_prefix() {
        let mut good = BlobLog::create(MemBlob::default()).unwrap();
        let _ = good.append(b"payload").unwrap();
        let mut bytes = good.file.bytes.clone();
        let committed = bytes.len() as u64;
        *bytes.last_mut().unwrap() ^= 0xFF; // flip a payload byte
        let r = BlobLog::open(MemBlob::of(bytes), committed);
        assert!(matches!(r, Err(ExtMemError::Corrupt(_))), "checksum rejects the record");
        // And a log shorter than the commitment is corruption, not recovery.
        let r = BlobLog::open(MemBlob::default(), committed);
        assert!(matches!(r, Err(ExtMemError::Corrupt(_))));
    }

    #[test]
    fn unsynced_accounting_tracks_appends_and_sync() {
        let mut log = BlobLog::create(MemBlob::default()).unwrap();
        assert_eq!(log.unsynced_bytes(), 0);
        let (_, l) = log.append(b"x").unwrap();
        assert_eq!(log.unsynced_bytes(), l as u64);
        log.sync().unwrap();
        assert_eq!(log.unsynced_bytes(), 0);
        assert_eq!(log.len(), l as u64);
    }

    #[test]
    fn file_blob_round_trips_across_reopen() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let committed;
        {
            let mut log = BlobLog::create(FileBlob::create(&path).unwrap()).unwrap();
            let (o, _) = log.append(b"durable bytes").unwrap();
            assert_eq!(o, 0);
            log.sync().unwrap();
            committed = log.len();
        }
        let mut log = BlobLog::open(FileBlob::open(&path).unwrap(), committed).unwrap();
        assert_eq!(log.get(0).unwrap(), b"durable bytes");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_blob_open_discards_a_torn_tail_past_the_commitment() {
        let path = tmp("tail");
        let _ = std::fs::remove_file(&path);
        let committed;
        {
            let mut log = BlobLog::create(FileBlob::create(&path).unwrap()).unwrap();
            let _ = log.append(b"kept").unwrap();
            log.sync().unwrap();
            committed = log.len();
            // A torn append: header promising more bytes than exist.
            log.file.append(&[99, 0, 0, 0, 1, 2, 3]).unwrap();
        }
        let mut log = BlobLog::open(FileBlob::open(&path).unwrap(), committed).unwrap();
        assert_eq!(log.len(), committed);
        assert!(log.get(committed).is_err(), "the discarded tail is unreachable");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unsynced_frames_are_borrowed_and_synced_frames_cost_one_read() {
        let mut log = BlobLog::create(MemBlob::default()).unwrap();
        let (o, _) = log.append(b"hot key, newest frame").unwrap();
        let p1 = log.get(o).unwrap().as_ptr();
        let p2 = log.get(o).unwrap().as_ptr();
        assert_eq!(p1, p2, "an unsynced frame is a borrow of the tail");
        assert_eq!(log.file.reads.get(), 0, "the tail costs no read");
        log.sync().unwrap();
        assert_eq!(log.get(o).unwrap(), b"hot key, newest frame", "same bytes across the sync");
        assert_eq!(log.file.reads.get(), 1, "a synced frame costs one read");
        let (o2, _) = log.append(b"second, synced frame!").unwrap();
        log.sync().unwrap();
        let q1 = log.get(o).unwrap().as_ptr();
        let q2 = log.get(o2).unwrap().as_ptr();
        assert_eq!(q1, q2, "synced reads reuse one buffer");
        assert_eq!(log.file.reads.get(), 3);
        assert_eq!(log.get_verified(o2).unwrap(), b"second, synced frame!".to_vec());
    }

    #[test]
    fn payload_longer_than_the_first_read_round_trips() {
        let mut log = BlobLog::create(MemBlob::default()).unwrap();
        let small: Vec<u64> = (0..16u8).map(|i| log.append(&[i; 4]).unwrap().0).collect();
        let big: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let (ob, _) = log.append(&big).unwrap();
        log.sync().unwrap();
        assert!(log.sizes.first_read() < (BLOB_FRAME_HEADER + big.len()) as u64);
        let before = log.file.reads.get();
        assert_eq!(log.get(ob).unwrap(), &big[..]);
        assert_eq!(log.file.reads.get() - before, 2, "one short read, then the rest");
        assert_eq!(log.get_verified(ob).unwrap(), big);
        // A short frame after the long one: the buffer is reused, one read.
        let before = log.file.reads.get();
        assert_eq!(log.get(small[3]).unwrap(), &[3u8; 4]);
        assert_eq!(log.file.reads.get() - before, 1);
        // After a reopen the sizes come from the verification pass.
        let committed = log.len();
        let mut log = BlobLog::open(MemBlob::of(log.file.bytes.clone()), committed).unwrap();
        assert_eq!(log.get(ob).unwrap(), &big[..]);
        assert_eq!(log.get(small[15]).unwrap(), &[15u8; 4]);
    }

    #[test]
    fn sync_releases_the_tail() {
        let mut log = BlobLog::create(MemBlob::default()).unwrap();
        for i in 0..64u8 {
            log.append(&[i; 100]).unwrap();
        }
        assert!(log.tail.capacity() >= 64 * 112);
        log.sync().unwrap();
        assert_eq!(log.tail.capacity(), 0, "synced bytes are not held in memory");
        assert_eq!(log.unsynced_bytes(), 0);
        assert_eq!(log.len(), 64 * 112);
        assert_eq!(log.get(63 * 112).unwrap(), &[63u8; 100]);
        assert!(log.buf.capacity() < 2 * 112, "the read buffer holds one frame");
    }

    /// Frames too large for one scan chunk verify across chunk seams; a
    /// flipped byte deep in the committed prefix still fails the open.
    #[test]
    fn streamed_verification_spans_chunks_and_still_rejects_corruption() {
        let mut log = BlobLog::create(MemBlob::default()).unwrap();
        let big: Vec<u8> = (0..SCAN_CHUNK as u32 + 777).map(|i| (i % 253) as u8).collect();
        let (o1, _) = log.append(b"head").unwrap();
        let (o2, _) = log.append(&big).unwrap();
        let (o3, _) = log.append(b"after the seam").unwrap();
        let committed = log.len();
        let image = log.file.bytes.clone();
        let mut reopened = BlobLog::open(MemBlob::of(image.clone()), committed).unwrap();
        assert!(reopened.file.reads.get() >= 2, "the pass streams in chunks");
        assert_eq!(reopened.get(o1).unwrap(), b"head");
        assert_eq!(reopened.get(o2).unwrap(), &big[..]);
        assert_eq!(reopened.get(o3).unwrap(), b"after the seam");
        for flip in [SCAN_CHUNK + 5, image.len() - 1] {
            let mut bad = image.clone();
            bad[flip] ^= 0x40;
            let r = BlobLog::open(MemBlob::of(bad), committed);
            assert!(matches!(r, Err(ExtMemError::Corrupt(_))), "flip at {flip} must fail");
        }
    }

    #[test]
    fn file_blob_reads_cross_the_sync_and_survive_reopen() {
        let path = tmp("cross");
        let _ = std::fs::remove_file(&path);
        let (committed, o1, o2);
        {
            let mut log = BlobLog::create(FileBlob::create(&path).unwrap()).unwrap();
            o1 = log.append(b"synced frame").unwrap().0;
            log.sync().unwrap();
            o2 = log.append(b"tail frame").unwrap().0;
            assert_eq!(log.get(o1).unwrap(), b"synced frame", "from the file");
            assert_eq!(log.get(o2).unwrap(), b"tail frame", "from the tail");
            log.sync().unwrap();
            assert_eq!(log.get(o2).unwrap(), b"tail frame", "from the file after the sync");
            committed = log.len();
        }
        let mut log = BlobLog::open(FileBlob::open(&path).unwrap(), committed).unwrap();
        assert_eq!(log.get(o1).unwrap(), b"synced frame");
        assert_eq!(log.get(o2).unwrap(), b"tail frame");
        let _ = std::fs::remove_file(&path);
    }
}
