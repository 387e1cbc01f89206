//! The persistent, content-addressed artifact store.
//!
//! A [`DiskStore`] keeps pipeline artifacts on disk between processes so
//! a warm sweep — or a long-lived `hsmd` server — skips every expensive
//! stage whose inputs it has seen before, the simulation included.
//! Entries are addressed by the stable string form of their
//! [`ArtifactKey`] (FNV source hash × cores × policy × spec × opt level,
//! and for runs the scenario, chip and simulator version), so any process
//! that derives the same key finds the same entry: the store is
//! content-addressed, not session-scoped.
//!
//! On-disk layout (all under `<root>/v2/`, the format-version directory;
//! one directory per [`Stage`], created when the store opens):
//!
//! ```text
//! <root>/v2/translate/<src>-c<n>-...            — RCCE source + pass trace
//! <root>/v2/compile/<src>-...-O<n>              — versioned bytecode text
//! <root>/v2/profile/<src>-...-k<chip>-v<model>  — `hsmprofile` text
//! <root>/v2/run/<src>-...-k<chip>-v<model>      — `RunResult::encode` bytes
//! ```
//!
//! The `parse`, `analyze` and `partition` directories exist and stay
//! empty: [`ArtifactCache`](crate::ArtifactCache) keeps those shelves in
//! memory, because each is cheaper to recompute than to write.
//!
//! Every entry starts with a one-line header carrying the entry format
//! version, the artifact stage, an FNV-1a checksum of the payload and the
//! payload length. [`DiskStore::load`] verifies all four and classifies
//! any mismatch as [`LoadOutcome::Corrupt`] (removing the bad file), so a
//! truncated write, a flipped bit or a stale format falls back to a plain
//! recompute — never a wrong artifact.
//!
//! Writes are atomic: the payload lands in a temp file first and is
//! `rename`d into place, so concurrent readers (other processes, `hsmd`
//! worker threads) only ever observe complete entries. An optional byte
//! capacity triggers oldest-first (mtime) eviction after each write.

use crate::cache::ArtifactKey;
use crate::metrics::Stage;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// On-disk format version: the name of the store's subdirectory and the
/// first field of every entry header. Bump on any incompatible change —
/// old entries are then simply never found.
pub(crate) const STORE_FORMAT_VERSION: u32 = 2;

/// FNV-1a over raw bytes (the checksum in every entry header).
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// What [`DiskStore::load`] found for a key.
#[derive(Debug)]
pub enum LoadOutcome {
    /// A verified entry; the payload bytes.
    Hit(Vec<u8>),
    /// No entry on disk.
    Miss,
    /// An entry existed but failed verification (bad header, length or
    /// checksum); it has been removed so the next write replaces it.
    Corrupt,
}

/// A persistent artifact store rooted at a directory. See the module
/// docs for layout and integrity guarantees.
#[derive(Debug)]
pub struct DiskStore {
    /// The caller-supplied root (version directory lives below it).
    outer: PathBuf,
    /// `<root>/v<STORE_FORMAT_VERSION>` — where entries live.
    root: PathBuf,
    /// Byte budget across all entries (`None` = unbounded).
    capacity: Option<u64>,
    evictions: AtomicU64,
    /// Serializes eviction scans (writes themselves are atomic renames).
    evict_lock: Mutex<()>,
    tmp_counter: AtomicU64,
}

impl DiskStore {
    /// Opens (creating if needed) an unbounded store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskStore> {
        Self::build(dir.into(), None)
    }

    /// Opens a store with a byte capacity; each write that pushes the
    /// total payload volume past `capacity_bytes` evicts the
    /// oldest-modified entries until it fits again.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn with_capacity(dir: impl Into<PathBuf>, capacity_bytes: u64) -> io::Result<DiskStore> {
        Self::build(dir.into(), Some(capacity_bytes))
    }

    fn build(outer: PathBuf, capacity: Option<u64>) -> io::Result<DiskStore> {
        let root = outer.join(format!("v{STORE_FORMAT_VERSION}"));
        for stage in Stage::ALL {
            fs::create_dir_all(root.join(stage.label()))?;
        }
        Ok(DiskStore {
            outer,
            root,
            capacity,
            evictions: AtomicU64::new(0),
            evict_lock: Mutex::new(()),
            tmp_counter: AtomicU64::new(0),
        })
    }

    /// The directory the store was opened at.
    pub fn dir(&self) -> &Path {
        &self.outer
    }

    /// Evictions performed by this handle since it was opened.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The absolute path of a key's entry.
    pub(crate) fn entry_path(&self, key: &ArtifactKey) -> PathBuf {
        self.root.join(key.path())
    }

    /// Loads and verifies a key's entry.
    pub fn load(&self, key: &ArtifactKey) -> LoadOutcome {
        let path = self.entry_path(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return LoadOutcome::Miss,
            Err(_) => return LoadOutcome::Corrupt,
        };
        match parse_entry(&bytes, key) {
            Some(payload) => LoadOutcome::Hit(payload),
            None => {
                let _ = fs::remove_file(&path);
                LoadOutcome::Corrupt
            }
        }
    }

    /// Removes a key's entry (used when a verified payload fails its
    /// stage-level decode — same corruption classification, one layer up).
    pub fn remove(&self, key: &ArtifactKey) {
        let _ = fs::remove_file(self.entry_path(key));
    }

    /// Atomically writes a key's entry, then enforces the capacity.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures of the temp write or rename (callers treat
    /// the store as best-effort and keep the in-memory artifact).
    pub fn save(&self, key: &ArtifactKey, payload: &[u8]) -> io::Result<()> {
        let path = self.entry_path(key);
        let mut entry = format!(
            "hsmstore {} {} {:016x} {}\n",
            STORE_FORMAT_VERSION,
            key.stage().label(),
            fnv1a_bytes(payload),
            payload.len()
        )
        .into_bytes();
        entry.extend_from_slice(payload);
        let tmp = self.root.join(format!(
            "tmp-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, &entry)?;
        fs::rename(&tmp, &path)?;
        if self.capacity.is_some() {
            self.enforce_capacity();
        }
        Ok(())
    }

    /// All entry files under the version directory (temp files excluded).
    fn walk_entries(&self) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        let stages = match fs::read_dir(&self.root) {
            Ok(rd) => rd,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for stage in stages {
            let stage = stage?;
            if !stage.file_type()?.is_dir() {
                continue; // stray temp file at the root
            }
            for entry in fs::read_dir(stage.path())? {
                let entry = entry?;
                if entry.file_type()?.is_file() {
                    out.push(entry.path());
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Removes oldest-modified entries until the total payload volume
    /// fits the capacity again. Mtime ties break by path order, so the
    /// victim sequence is deterministic for a given directory state.
    fn enforce_capacity(&self) {
        let Some(capacity) = self.capacity else {
            return;
        };
        let _guard = self.evict_lock.lock().expect("evict lock");
        let Ok(paths) = self.walk_entries() else {
            return;
        };
        let mut entries: Vec<(std::time::SystemTime, PathBuf, u64)> = paths
            .into_iter()
            .filter_map(|p| {
                let meta = fs::metadata(&p).ok()?;
                Some((meta.modified().ok()?, p, meta.len()))
            })
            .collect();
        let mut total: u64 = entries.iter().map(|(_, _, len)| len).sum();
        entries.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        for (_, path, len) in entries {
            if total <= capacity {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Verifies an entry's header and returns the payload.
fn parse_entry(bytes: &[u8], key: &ArtifactKey) -> Option<Vec<u8>> {
    let newline = bytes.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&bytes[..newline]).ok()?;
    let payload = &bytes[newline + 1..];
    let mut toks = header.split(' ');
    if toks.next()? != "hsmstore" {
        return None;
    }
    if toks.next()?.parse::<u32>().ok()? != STORE_FORMAT_VERSION {
        return None;
    }
    if toks.next()? != key.stage().label() {
        return None;
    }
    let checksum = u64::from_str_radix(toks.next()?, 16).ok()?;
    let len = toks.next()?.parse::<usize>().ok()?;
    if toks.next().is_some() || payload.len() != len || fnv1a_bytes(payload) != checksum {
        return None;
    }
    Some(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_store_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hsm-store-test-{}-{}-{}",
            tag,
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(src: u64) -> ArtifactKey {
        ArtifactKey::Parse { src }
    }

    #[test]
    fn save_load_round_trips() {
        let dir = temp_store_dir("roundtrip");
        let store = DiskStore::open(&dir).expect("open");
        assert!(matches!(store.load(&key(1)), LoadOutcome::Miss));
        store.save(&key(1), b"int main() {}").expect("save");
        match store.load(&key(1)) {
            LoadOutcome::Hit(payload) => assert_eq!(payload, b"int main() {}"),
            other => panic!("expected hit, got {other:?}"),
        }
        // A second handle over the same directory sees the entry.
        let second = DiskStore::open(&dir).expect("reopen");
        assert!(matches!(second.load(&key(1)), LoadOutcome::Hit(_)));
        assert_eq!(second.walk_entries().expect("count").len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected_and_removed() {
        let dir = temp_store_dir("corrupt");
        let store = DiskStore::open(&dir).expect("open");
        store.save(&key(2), b"payload bytes").expect("save");
        let path = store.entry_path(&key(2));
        // Flip payload bytes without fixing the checksum.
        let mut bytes = fs::read(&path).expect("read");
        let n = bytes.len();
        bytes[n - 1] ^= 0xff;
        fs::write(&path, &bytes).expect("rewrite");
        assert!(matches!(store.load(&key(2)), LoadOutcome::Corrupt));
        // The bad entry was removed: next load is a plain miss.
        assert!(matches!(store.load(&key(2)), LoadOutcome::Miss));
        // Garbage without a header is also corrupt, not a crash.
        store.save(&key(3), b"x").expect("save");
        fs::write(store.entry_path(&key(3)), b"not an entry").expect("rewrite");
        assert!(matches!(store.load(&key(3)), LoadOutcome::Corrupt));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_stage_or_version_is_corrupt() {
        let dir = temp_store_dir("stage");
        let store = DiskStore::open(&dir).expect("open");
        let k = ArtifactKey::Parse { src: 9 };
        store.save(&k, b"src").expect("save");
        // Rewrite the header claiming a different stage.
        let path = store.entry_path(&k);
        let text = String::from_utf8(fs::read(&path).expect("read")).expect("utf8");
        fs::write(&path, text.replacen("parse", "compile", 1)).expect("rewrite");
        assert!(matches!(store.load(&k), LoadOutcome::Corrupt));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn capacity_evicts_oldest_entries() {
        let dir = temp_store_dir("evict");
        let store = DiskStore::with_capacity(&dir, 256).expect("open");
        let payload = vec![b'x'; 100];
        for i in 0..4u64 {
            store
                .save(&ArtifactKey::Parse { src: i }, &payload)
                .expect("save");
            // Distinct mtimes so the eviction order is age, not ties.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert!(store.evictions() > 0, "capacity forced evictions");
        assert!(
            store.walk_entries().expect("count").len() < 4,
            "old entries were dropped"
        );
        // The most recent entry always survives.
        assert!(matches!(
            store.load(&ArtifactKey::Parse { src: 3 }),
            LoadOutcome::Hit(_)
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv_matches_known_vector() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(fnv1a_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a_bytes(b"a"), fnv1a_bytes(b"b"));
    }
}
