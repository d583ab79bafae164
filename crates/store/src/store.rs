//! The on-disk artifact store.

use std::error::Error;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::artifacts::Artifact;
use crate::codec::{DecodeError, Reader, Writer};
use crate::digest::Digest;
use crate::key::StageKey;

/// The store's file format version. Bumped whenever any artifact's byte
/// layout changes; a store written by another version is simply treated
/// as cold (artifact by artifact, with a warning) rather than
/// misdecoded.
pub const FORMAT_VERSION: u32 = 2;

/// Magic bytes every artifact file starts with.
const MAGIC: &[u8; 4] = b"FBST";

/// What went wrong talking to the store.
#[derive(Debug)]
pub enum StoreError {
    /// The store root exists but is not a directory.
    NotADirectory(PathBuf),
    /// The store root cannot be created or written.
    NotWritable {
        /// The store root.
        path: PathBuf,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// An artifact file could not be read or written.
    Io {
        /// The artifact path.
        path: PathBuf,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// An artifact file exists but does not decode (corrupt bytes, a
    /// foreign format version, a kind mismatch).
    Decode {
        /// The artifact path.
        path: PathBuf,
        /// What the decoder rejected.
        source: DecodeError,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotADirectory(p) => {
                write!(f, "store path {} is not a directory", p.display())
            }
            StoreError::NotWritable { path, source } => write!(
                f,
                "store directory {} is not writable: {source}",
                path.display()
            ),
            StoreError::Io { path, source } => {
                write!(f, "store I/O error at {}: {source}", path.display())
            }
            StoreError::Decode { path, source } => {
                write!(f, "cannot decode artifact {}: {source}", path.display())
            }
        }
    }
}

impl Error for StoreError {}

/// A content-addressed artifact store rooted at a directory.
///
/// Layout: `<root>/<kind>/<digest>.fbst`, one file per artifact, each
/// wrapped in a self-describing envelope (magic, format version, kind,
/// key digest, payload, payload checksum). Writes go through a
/// temporary file in the same directory followed by a rename, so a
/// crashed writer can never leave a half-written artifact under a live
/// key, and concurrent writers of the same key are safe (they write
/// identical bytes — keys are content addresses). Writes are not synced
/// to disk, so an operating-system crash can tear one; its checksum then
/// fails and the next read recomputes it.
///
/// The store is cheap to clone and safe to share across threads.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
    tmp_counter: Arc<AtomicU64>,
}

impl ArtifactStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotADirectory`] if `dir` exists and is a file,
    /// [`StoreError::NotWritable`] if the directory cannot be created or
    /// a probe file cannot be written (e.g. a read-only mount).
    pub fn open(dir: &Path) -> Result<ArtifactStore, StoreError> {
        if dir.exists() && !dir.is_dir() {
            return Err(StoreError::NotADirectory(dir.to_path_buf()));
        }
        fs::create_dir_all(dir).map_err(|source| StoreError::NotWritable {
            path: dir.to_path_buf(),
            source,
        })?;
        // probe writability now, with a clear error, instead of failing
        // obscurely mid-flow on the first put
        let probe = dir.join(".fbist-store-probe");
        fs::write(&probe, b"probe")
            .and_then(|()| fs::remove_file(&probe))
            .map_err(|source| StoreError::NotWritable {
                path: dir.to_path_buf(),
                source,
            })?;
        Ok(ArtifactStore {
            root: dir.to_path_buf(),
            tmp_counter: Arc::new(AtomicU64::new(0)),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// `true` if an artifact file exists under `key` (it may still fail
    /// to decode — use [`load`](Self::load) for the real answer).
    pub fn contains(&self, key: StageKey) -> bool {
        key.path_under(&self.root).is_file()
    }

    /// Loads the artifact under `key`.
    ///
    /// Returns `Ok(None)` when no artifact exists — the normal cold-path
    /// answer.
    ///
    /// # Errors
    ///
    /// [`StoreError::Decode`] for a file that exists but is corrupt, of
    /// a foreign format version, or of the wrong kind;
    /// [`StoreError::Io`] for filesystem failures.
    pub fn load<T: Artifact>(&self, key: StageKey) -> Result<Option<T>, StoreError> {
        let path = key.path_under(&self.root);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(source) => return Err(StoreError::Io { path, source }),
        };
        let payload = unwrap_envelope(&bytes, key).map_err(|source| StoreError::Decode {
            path: path.clone(),
            source,
        })?;
        let mut r = Reader::new(payload);
        let value = T::decode(&mut r).map_err(|source| StoreError::Decode {
            path: path.clone(),
            source,
        })?;
        if !r.is_exhausted() {
            return Err(StoreError::Decode {
                path,
                source: DecodeError::Invalid(format!(
                    "{} trailing bytes after the payload",
                    r.remaining()
                )),
            });
        }
        Ok(Some(value))
    }

    /// [`load`](Self::load) with the store's standard degradation: any
    /// error is reported on stderr and answered with `None`, so the
    /// caller transparently falls back to recomputing (and a later
    /// [`put`](Self::put) overwrites the bad artifact).
    pub fn get<T: Artifact>(&self, key: StageKey) -> Option<T> {
        match self.load(key) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("fbist-store: warning: {e}; recomputing {key}");
                None
            }
        }
    }

    /// Writes `value` under `key`, atomically (temp file + rename).
    ///
    /// The file is not synced to disk: the store is a cache, and an
    /// artifact that an operating-system crash left torn fails its
    /// envelope or checksum check on the next read, which recomputes it
    /// like any other unreadable artifact. Waiting on the disk made each
    /// write's cost follow the device's load rather than the work.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure.
    pub fn save<T: Artifact>(&self, key: StageKey, value: &T) -> Result<(), StoreError> {
        let path = key.path_under(&self.root);
        let dir = path.parent().expect("artifact paths always have a parent");
        fs::create_dir_all(dir).map_err(|source| StoreError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        let mut payload = Writer::new();
        value.encode(&mut payload);
        let bytes = wrap_envelope(key, &payload.into_bytes());
        // unique within the process; cross-process collisions only race
        // identical content, and rename() is atomic either way
        let n = self.tmp_counter.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(".{}.tmp-{}-{n}", key.digest, std::process::id()));
        let write = || -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            fs::rename(&tmp, &path)
        };
        write().map_err(|source| {
            let _ = fs::remove_file(&tmp);
            StoreError::Io {
                path: path.clone(),
                source,
            }
        })
    }

    /// [`save`](Self::save) with the store's standard degradation: a
    /// failed write is reported on stderr and otherwise ignored — the
    /// computed value is still returned to the caller, the store just
    /// stays cold for this key.
    pub fn put<T: Artifact>(&self, key: StageKey, value: &T) {
        if let Err(e) = self.save(key, value) {
            eprintln!("fbist-store: warning: {e}; artifact not cached");
        }
    }
}

/// Builds the self-describing envelope around a payload.
fn wrap_envelope(key: StageKey, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    let mut out = Vec::with_capacity(payload.len() + 64);
    out.extend_from_slice(MAGIC);
    w.u32(FORMAT_VERSION);
    w.str(key.kind);
    w.bytes(&key.digest.0);
    w.bytes(payload);
    w.bytes(&checksum(payload).0);
    out.extend_from_slice(&w.into_bytes());
    out
}

/// Validates the envelope and returns the payload slice.
fn unwrap_envelope(bytes: &[u8], key: StageKey) -> Result<&[u8], DecodeError> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let mut r = Reader::new(&bytes[MAGIC.len()..]);
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(DecodeError::BadVersion {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let kind = r.str()?;
    if kind != key.kind {
        return Err(DecodeError::BadKind {
            found: kind,
            expected: key.kind.to_owned(),
        });
    }
    let digest = r.bytes()?;
    if digest != key.digest.0 {
        return Err(DecodeError::Invalid(
            "artifact was written under a different key digest".into(),
        ));
    }
    let payload = r.bytes()?;
    let stored_sum = r.bytes()?;
    if stored_sum != checksum(payload).0 {
        return Err(DecodeError::Invalid("payload checksum mismatch".into()));
    }
    if !r.is_exhausted() {
        return Err(DecodeError::Invalid(format!(
            "{} trailing bytes after the envelope",
            r.remaining()
        )));
    }
    Ok(payload)
}

fn checksum(payload: &[u8]) -> crate::digest::DigestBytes {
    let mut d = Digest::new("payload-checksum");
    d.bytes(payload);
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::Digest;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fbist-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(tag: u64) -> StageKey {
        let mut d = Digest::new("test");
        d.u64(tag);
        StageKey::new("cover", d.finish())
    }

    #[test]
    fn round_trip_and_miss() {
        let dir = tmpdir("roundtrip");
        let store = ArtifactStore::open(&dir).unwrap();
        assert_eq!(store.load::<u64>(key(1)).unwrap(), None);
        assert!(!store.contains(key(1)));
        store.save(key(1), &42u64).unwrap();
        assert!(store.contains(key(1)));
        assert_eq!(store.load::<u64>(key(1)).unwrap(), Some(42));
        // a different key digest is a different artifact
        assert_eq!(store.load::<u64>(key(2)).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_artifact_is_a_decode_error_and_get_degrades() {
        let dir = tmpdir("corrupt");
        let store = ArtifactStore::open(&dir).unwrap();
        store.save(key(1), &7u64).unwrap();
        let path = key(1).path_under(&dir);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load::<u64>(key(1)),
            Err(StoreError::Decode { .. })
        ));
        assert_eq!(store.get::<u64>(key(1)), None);
        // a fresh save repairs the entry
        store.save(key(1), &7u64).unwrap();
        assert_eq!(store.load::<u64>(key(1)).unwrap(), Some(7));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_format_version_is_rejected() {
        let dir = tmpdir("version");
        let store = ArtifactStore::open(&dir).unwrap();
        store.save(key(1), &7u64).unwrap();
        let path = key(1).path_under(&dir);
        let mut bytes = fs::read(&path).unwrap();
        // the version field sits right after the 4 magic bytes
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        match store.load::<u64>(key(1)) {
            Err(StoreError::Decode {
                source: DecodeError::BadVersion { found, expected },
                ..
            }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("expected BadVersion, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let dir = tmpdir("kind");
        let store = ArtifactStore::open(&dir).unwrap();
        let k = key(1);
        store.save(k, &7u64).unwrap();
        // read the same digest back under a different kind directory name
        let alias = StageKey::new("atpg", k.digest);
        let from = k.path_under(&dir);
        let to = alias.path_under(&dir);
        fs::create_dir_all(to.parent().unwrap()).unwrap();
        fs::copy(&from, &to).unwrap();
        assert!(matches!(
            store.load::<u64>(alias),
            Err(StoreError::Decode {
                source: DecodeError::BadKind { .. },
                ..
            })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_a_file_path() {
        let dir = tmpdir("file");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("plain-file");
        fs::write(&file, b"x").unwrap();
        assert!(matches!(
            ArtifactStore::open(&file),
            Err(StoreError::NotADirectory(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_magic_is_bad_magic() {
        let dir = tmpdir("magic");
        let store = ArtifactStore::open(&dir).unwrap();
        let path = key(1).path_under(&dir);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, b"FB").unwrap();
        assert!(matches!(
            store.load::<u64>(key(1)),
            Err(StoreError::Decode {
                source: DecodeError::BadMagic,
                ..
            })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
