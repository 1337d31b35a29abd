//! Crash-safe on-disk session state: snapshot containers + write-ahead log.
//!
//! ROADMAP item 5's LSM-style durability substrate. A session's state on
//! disk is a **generation pair**: `snapshot-GGGGGGGG.ses` (the folded state
//! at the moment generation `G` began) plus `wal-GGGGGGGG.log` (every
//! state-mutating request applied since). Compaction folds the log into a
//! fresh snapshot under generation `G+1` and retires generations older
//! than `G` — the two newest pairs are kept, so a snapshot that turns out
//! unreadable on recovery falls back losslessly to its predecessor plus
//! both logs.
//!
//! ## Snapshot container
//!
//! | offset | bytes | field |
//! |--------|-------|-------|
//! | 0      | 8     | magic `SESSNAP1` |
//! | 8      | 8     | payload length `n` (u64 LE) |
//! | 16     | n     | payload (opaque to this layer) |
//! | 16+n   | 4     | CRC-32 (IEEE) of the payload (u32 LE) |
//! | 20+n   | 8     | footer magic `SNAPEND.` |
//!
//! Snapshots are written crash-safely: the full container goes to a
//! temporary file in the same directory, the file is fsynced, atomically
//! renamed into place, and the directory is fsynced — a crash at any
//! point leaves either the complete old state or the complete new state,
//! never a torn file under the final name. A reader that finds *anything*
//! wrong (short file, bad magic, length mismatch, checksum mismatch)
//! reports the snapshot invalid; recovery policy (fall back vs. fail
//! loudly) lives with the caller.
//!
//! ## Write-ahead log
//!
//! An 8-byte file magic `SESWAL1.` followed by self-framing records:
//!
//! | bytes | field |
//! |-------|-------|
//! | 4     | payload length (u32 LE) |
//! | 4     | CRC-32 of the payload (u32 LE) |
//! | 4     | CRC-32 of the previous 8 header bytes (u32 LE) |
//! | n     | payload |
//!
//! The header CRC is what lets the reader tell a **torn tail** (a crash
//! mid-append left a prefix of the final record — truncate and continue,
//! nothing acknowledged was lost because records are fsynced before their
//! request is applied or answered) from a **bit flip** (all declared bytes
//! are present but a checksum disagrees — fail loudly with
//! [`ServiceError::Corrupt`], because acknowledged data can no longer be
//! trusted). Every single-bit corruption lands in the loud class: flips in
//! the length field break the header CRC, flips in the payload break the
//! payload CRC, flips in either CRC break themselves.

use crate::error::ServiceError;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Leading magic of a snapshot container.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SESSNAP1";
/// Trailing magic of a snapshot container.
pub const SNAPSHOT_FOOTER: &[u8; 8] = b"SNAPEND.";
/// Leading magic of a write-ahead log.
pub const WAL_MAGIC: &[u8; 8] = b"SESWAL1.";
/// Bytes of a WAL record header (`len`, payload CRC, header CRC).
pub const WAL_HEADER_LEN: usize = 12;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the same
/// checksum gzip and PNG use. Table-driven, one table build per process.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        table
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// File name of generation `generation`'s snapshot.
pub fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot-{generation:08}.ses"))
}

/// File name of generation `generation`'s write-ahead log.
pub fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation:08}.log"))
}

/// Writes `payload` as generation `generation`'s snapshot, crash-safely:
/// temp file in `dir` → fsync → atomic rename → directory fsync.
///
/// # Errors
/// [`ServiceError::Io`] on any filesystem failure; the final path is never
/// left torn.
pub fn write_snapshot(dir: &Path, generation: u64, payload: &[u8]) -> Result<(), ServiceError> {
    let final_path = snapshot_path(dir, generation);
    let tmp_path = dir.join(format!(".snapshot-{generation:08}.tmp"));
    let mut bytes = Vec::with_capacity(payload.len() + 28);
    bytes.extend_from_slice(SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    bytes.extend_from_slice(SNAPSHOT_FOOTER);
    let mut tmp = File::create(&tmp_path).map_err(io_at(&tmp_path))?;
    tmp.write_all(&bytes).map_err(io_at(&tmp_path))?;
    tmp.sync_all().map_err(io_at(&tmp_path))?;
    drop(tmp);
    fs::rename(&tmp_path, &final_path).map_err(io_at(&final_path))?;
    sync_dir(dir)
}

/// Reads and fully validates a snapshot container, returning its payload.
///
/// # Errors
/// * [`ServiceError::Io`] when the file cannot be read at all;
/// * [`ServiceError::Corrupt`] when it can, but fails any integrity check
///   (truncated, bad magic, length mismatch, checksum mismatch). Callers
///   with an older generation on disk may treat this as "fall back";
///   callers without one must surface it.
pub fn read_snapshot(path: &Path) -> Result<Vec<u8>, ServiceError> {
    let bytes = fs::read(path).map_err(io_at(path))?;
    let corrupt =
        |what: &str| ServiceError::corrupt(format!("snapshot {}: {what}", path.display()));
    if bytes.len() < 28 {
        return Err(corrupt(&format!("file is {} bytes, below the 28-byte minimum", bytes.len())));
    }
    if &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(corrupt("bad leading magic"));
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
    if bytes.len() != 28 + len {
        return Err(corrupt(&format!(
            "declared payload of {len} bytes disagrees with file size {}",
            bytes.len()
        )));
    }
    let payload = &bytes[16..16 + len];
    let stored_crc = u32::from_le_bytes(bytes[16 + len..20 + len].try_into().expect("4 bytes"));
    if crc32(payload) != stored_crc {
        return Err(corrupt("payload checksum mismatch"));
    }
    if &bytes[20 + len..] != SNAPSHOT_FOOTER {
        return Err(corrupt("bad footer magic"));
    }
    Ok(payload.to_vec())
}

/// The fully-validated contents of one write-ahead log file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalContents {
    /// The complete, checksum-verified record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// When the file ends in a torn record (a crash mid-append), the byte
    /// offset the file should be truncated to before appending resumes.
    /// `None` means the file ended cleanly on a record boundary.
    pub torn_at: Option<u64>,
}

/// Reads a write-ahead log, verifying every record.
///
/// A **prefix** of a record at end-of-file (torn header, or full header
/// with fewer payload bytes than declared) is a torn append: tolerated,
/// reported via [`WalContents::torn_at`]. A checksum or magic mismatch
/// with all declared bytes present is a bit flip: loud
/// [`ServiceError::Corrupt`].
///
/// # Errors
/// [`ServiceError::Io`] when the file cannot be read;
/// [`ServiceError::Corrupt`] on any in-place corruption.
pub fn read_wal(path: &Path) -> Result<WalContents, ServiceError> {
    let bytes = fs::read(path).map_err(io_at(path))?;
    let corrupt = |what: String| ServiceError::corrupt(format!("wal {}: {what}", path.display()));
    if bytes.len() < 8 {
        // A crash while the log file itself was being created: nothing was
        // ever appended, so there is nothing to lose.
        return Ok(WalContents { records: Vec::new(), torn_at: Some(0) });
    }
    if &bytes[..8] != WAL_MAGIC {
        return Err(corrupt("bad file magic".into()));
    }
    let mut records = Vec::new();
    let mut pos = 8usize;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < WAL_HEADER_LEN {
            // A prefix of a header: torn append.
            return Ok(WalContents { records, torn_at: Some(pos as u64) });
        }
        let header = &bytes[pos..pos + WAL_HEADER_LEN];
        let stored_header_crc = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if crc32(&header[..8]) != stored_header_crc {
            return Err(corrupt(format!("record {}: header checksum mismatch", records.len())));
        }
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let payload_crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if remaining < WAL_HEADER_LEN + len {
            // Valid header, short payload: torn append.
            return Ok(WalContents { records, torn_at: Some(pos as u64) });
        }
        let payload = &bytes[pos + WAL_HEADER_LEN..pos + WAL_HEADER_LEN + len];
        if crc32(payload) != payload_crc {
            return Err(corrupt(format!("record {}: payload checksum mismatch", records.len())));
        }
        records.push(payload.to_vec());
        pos += WAL_HEADER_LEN + len;
    }
    Ok(WalContents { records, torn_at: None })
}

/// Append handle on one write-ahead log file. Creation writes (or, after
/// a torn tail, rewrites from the truncation point) the durable framing;
/// every [`append`](Self::append) fsyncs before returning, so a record
/// this returns `Ok` for survives any subsequent crash.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
}

impl WalWriter {
    /// Opens `path` for appending, creating it (with the file magic) if
    /// missing or empty. `truncate_to` carries a torn-tail offset from
    /// [`read_wal`]; the file is cut back to that record boundary first.
    ///
    /// # Errors
    /// [`ServiceError::Io`] on any filesystem failure.
    pub fn open(path: &Path, truncate_to: Option<u64>) -> Result<Self, ServiceError> {
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)
            .map_err(io_at(path))?;
        if let Some(offset) = truncate_to {
            file.set_len(offset).map_err(io_at(path))?;
        }
        let len = file.metadata().map_err(io_at(path))?.len();
        if len < 8 {
            // New, empty, or truncated-to-zero file: (re)write the magic.
            file.set_len(0).map_err(io_at(path))?;
            file.write_all(WAL_MAGIC).map_err(io_at(path))?;
            file.sync_all().map_err(io_at(path))?;
        }
        Ok(Self { file })
    }

    /// Re-fsyncs the log file. Every [`append`](Self::append) already
    /// syncs before acknowledging, so this adds no durability for
    /// committed records — it exists for explicit wind-down points (the
    /// network server's graceful shutdown fsyncs every session's log one
    /// final time before closing the listeners).
    ///
    /// # Errors
    /// [`ServiceError::Io`] on sync failure.
    pub fn sync(&mut self) -> Result<(), ServiceError> {
        self.file.sync_all()?;
        Ok(())
    }

    /// Appends one record and fsyncs. After `Ok`, the record is durable.
    ///
    /// # Errors
    /// [`ServiceError::Io`] on write or sync failure.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), ServiceError> {
        let mut framed = Vec::with_capacity(WAL_HEADER_LEN + payload.len());
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&crc32(payload).to_le_bytes());
        framed.extend_from_slice(&crc32(&framed[..8]).to_le_bytes());
        framed.extend_from_slice(payload);
        self.file.write_all(&framed)?;
        self.file.sync_all()?;
        Ok(())
    }
}

/// The snapshot generations present in `dir`, ascending. A state
/// directory with no snapshots is a fresh session.
///
/// # Errors
/// [`ServiceError::Io`] when the directory cannot be listed.
pub fn generations(dir: &Path) -> Result<Vec<u64>, ServiceError> {
    scan(dir, "snapshot-", ".ses")
}

/// The write-ahead-log generations present in `dir`, ascending.
///
/// # Errors
/// [`ServiceError::Io`] when the directory cannot be listed.
pub fn wal_generations(dir: &Path) -> Result<Vec<u64>, ServiceError> {
    scan(dir, "wal-", ".log")
}

fn scan(dir: &Path, prefix: &str, suffix: &str) -> Result<Vec<u64>, ServiceError> {
    let mut gens = Vec::new();
    for entry in fs::read_dir(dir).map_err(io_at(dir))? {
        let entry = entry.map_err(io_at(dir))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(num) = name.strip_prefix(prefix).and_then(|n| n.strip_suffix(suffix)) {
            if let Ok(g) = num.parse::<u64>() {
                gens.push(g);
            }
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

/// Deletes the snapshot + log pairs of every generation older than
/// `keep_from`. Missing files are fine (retirement is idempotent).
///
/// # Errors
/// [`ServiceError::Io`] on a failing delete of an existing file.
pub fn retire_generations(dir: &Path, keep_from: u64) -> Result<(), ServiceError> {
    for g in generations(dir)? {
        if g >= keep_from {
            continue;
        }
        for path in [snapshot_path(dir, g), wal_path(dir, g)] {
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_at(&path)(e)),
            }
        }
    }
    Ok(())
}

/// Maps an I/O error to [`ServiceError::Io`] with the offending path.
fn io_at(path: &Path) -> impl Fn(std::io::Error) -> ServiceError + '_ {
    move |e| ServiceError::Io { detail: format!("{}: {e}", path.display()) }
}

/// Fsyncs a directory so a just-renamed file's directory entry is durable.
fn sync_dir(dir: &Path) -> Result<(), ServiceError> {
    // Opening a directory read-only for fsync is POSIX; on platforms where
    // it fails (e.g. Windows), the rename itself is the best available
    // ordering guarantee, so the failure is swallowed deliberately.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ses-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Any single-bit flip must change the checksum.
        let base = crc32(b"hello wal");
        let mut flipped = *b"hello wal";
        for byte in 0..flipped.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}.{bit} went unnoticed");
                flipped[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn snapshot_roundtrips_and_rejects_every_corruption() {
        let dir = tmpdir("snap");
        let payload = b"{\"state\":42}".to_vec();
        write_snapshot(&dir, 3, &payload).unwrap();
        let path = snapshot_path(&dir, 3);
        assert_eq!(read_snapshot(&path).unwrap(), payload);
        // No temp file left behind.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);

        let pristine = fs::read(&path).unwrap();
        // Every truncation point fails validation (never a wrong payload).
        for cut in 0..pristine.len() {
            fs::write(&path, &pristine[..cut]).unwrap();
            let err = read_snapshot(&path).unwrap_err();
            assert_eq!(err.code(), "corrupt", "cut at {cut}: {err}");
        }
        // Every single-bit flip fails validation.
        for byte in 0..pristine.len() {
            let mut bent = pristine.clone();
            bent[byte] ^= 1;
            fs::write(&path, &bent).unwrap();
            let err = read_snapshot(&path).unwrap_err();
            assert_eq!(err.code(), "corrupt", "flip at byte {byte}: {err}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_roundtrips_records() {
        let dir = tmpdir("wal");
        let path = wal_path(&dir, 0);
        let payloads: Vec<Vec<u8>> =
            vec![b"one".to_vec(), Vec::new(), vec![0xAB; 1000], b"four".to_vec()];
        let mut w = WalWriter::open(&path, None).unwrap();
        for p in &payloads {
            w.append(p).unwrap();
        }
        drop(w);
        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.records, payloads);
        assert_eq!(contents.torn_at, None);

        // Re-opening appends after the existing records.
        let mut w = WalWriter::open(&path, None).unwrap();
        w.append(b"five").unwrap();
        drop(w);
        assert_eq!(read_wal(&path).unwrap().records.len(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_classifies_every_fault_as_torn_or_corrupt() {
        let dir = tmpdir("wal-faults");
        let path = wal_path(&dir, 0);
        let payloads: Vec<Vec<u8>> = vec![b"first record".to_vec(), b"second".to_vec()];
        let mut w = WalWriter::open(&path, None).unwrap();
        for p in &payloads {
            w.append(p).unwrap();
        }
        drop(w);
        let pristine = fs::read(&path).unwrap();
        let boundaries = [8, 8 + 12 + payloads[0].len(), pristine.len()];

        // Truncations: a cut at a record boundary is clean up to there; any
        // other cut reports a torn tail at the last boundary before it.
        // Either way every surviving record is intact — never an error.
        for cut in 0..pristine.len() {
            fs::write(&path, &pristine[..cut]).unwrap();
            let contents = read_wal(&path).unwrap();
            let survived = boundaries.iter().filter(|&&b| b <= cut).count();
            assert_eq!(contents.records, payloads[..survived.saturating_sub(1)].to_vec());
            if boundaries.contains(&cut) {
                assert_eq!(contents.torn_at, None, "cut at {cut}");
            } else {
                let expected = if cut < 8 { 0 } else { *boundaries[..survived].last().unwrap() };
                assert_eq!(contents.torn_at, Some(expected as u64), "cut at {cut}");
            }
        }

        // Bit flips: every one is a loud typed corruption.
        for byte in 0..pristine.len() {
            let mut bent = pristine.clone();
            bent[byte] ^= 0x10;
            fs::write(&path, &bent).unwrap();
            let err = read_wal(&path).unwrap_err();
            assert_eq!(err.code(), "corrupt", "flip at byte {byte}");
        }

        // Truncation followed by re-open resumes cleanly mid-file.
        fs::write(&path, &pristine[..boundaries[1] + 5]).unwrap();
        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.torn_at, Some(boundaries[1] as u64));
        let mut w = WalWriter::open(&path, contents.torn_at).unwrap();
        w.append(b"replacement").unwrap();
        drop(w);
        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.records, vec![payloads[0].clone(), b"replacement".to_vec()]);
        assert_eq!(contents.torn_at, None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generation_scan_and_retirement() {
        let dir = tmpdir("gens");
        assert_eq!(generations(&dir).unwrap(), Vec::<u64>::new());
        for g in [0u64, 1, 2, 3] {
            write_snapshot(&dir, g, b"x").unwrap();
            WalWriter::open(&wal_path(&dir, g), None).unwrap();
        }
        // Unrelated files are ignored by the scan.
        fs::write(dir.join("notes.txt"), b"hi").unwrap();
        assert_eq!(generations(&dir).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(wal_generations(&dir).unwrap(), vec![0, 1, 2, 3]);
        retire_generations(&dir, 2).unwrap();
        assert_eq!(generations(&dir).unwrap(), vec![2, 3]);
        assert!(!wal_path(&dir, 1).exists());
        assert!(wal_path(&dir, 2).exists());
        // Idempotent.
        retire_generations(&dir, 2).unwrap();
        assert_eq!(generations(&dir).unwrap(), vec![2, 3]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
