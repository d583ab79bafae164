//! Stage keys: (kind, content digest) → store path.

use std::path::{Path, PathBuf};

use crate::digest::DigestBytes;

/// The address of one artifact in the store: the *stage kind* (one
/// directory per kind) plus the 128-bit content digest of everything the
/// stage's output depends on.
///
/// The layout is `<store>/<kind>/<digest-hex>.fbst` — flat per kind, no
/// fan-out subdirectories (a store holds thousands of artifacts, not
/// millions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageKey {
    /// Stage kind — `"atpg"`, `"first-detection"`, `"cover"`. Doubles as the subdirectory name, so it must stay a
    /// valid path component.
    pub kind: &'static str,
    /// Content digest of the stage's inputs.
    pub digest: DigestBytes,
}

impl StageKey {
    /// Creates a key.
    pub fn new(kind: &'static str, digest: DigestBytes) -> StageKey {
        StageKey { kind, digest }
    }

    /// The artifact's path under a store root.
    pub fn path_under(&self, root: &Path) -> PathBuf {
        root.join(self.kind).join(format!("{}.fbst", self.digest))
    }
}

impl std::fmt::Display for StageKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.kind, self.digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::Digest;

    #[test]
    fn path_layout() {
        let key = StageKey::new("cover", Digest::new("t").finish());
        let p = key.path_under(Path::new("/tmp/store"));
        let s = p.to_string_lossy();
        assert!(s.starts_with("/tmp/store/cover/"), "{s}");
        assert!(s.ends_with(".fbst"), "{s}");
        assert_eq!(key.to_string(), format!("cover/{}", key.digest));
    }
}
