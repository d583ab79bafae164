//! # fbist-store — the content-addressed artifact store
//!
//! Persists the reseeding flow's expensive intermediates so repeat
//! queries become disk reads: an ATPG run on big3500 costs ~27 s, its
//! artifact decodes in milliseconds.
//!
//! ## Keys
//!
//! An artifact's address is a [`StageKey`]: a stage *kind* plus a
//! 128-bit FNV-1a [`Digest`] of **exactly the inputs the stage's output
//! depends on** — the circuit content and the relevant
//! `FlowConfig` fragment. Throughput knobs (`jobs`, the SIMD width)
//! are deliberately *not* hashed: the workspace pins them bit-identical, so caching across
//! them is sound and a warm store answers any of their combinations.
//! Changing a keyed knob (seed, τ, TPG, ATPG settings, solver
//! settings, trim) changes the key, which *is* the invalidation rule —
//! stale artifacts are never read, only orphaned.
//!
//! ## Layout & format
//!
//! ```text
//! <root>/<kind>/<digest-hex>.fbst
//! ```
//!
//! Each file is an envelope — magic `FBST`, format version
//! ([`FORMAT_VERSION`]), kind string, key digest, payload, payload
//! checksum — around the artifact's exact little-endian encoding
//! ([`Artifact`]). Encodings are byte-deterministic (floats travel as
//! IEEE-754 bit patterns), which is what makes cold-vs-warm runs
//! byte-identical. Files from a different format version, truncated
//! files and bit-flipped files are all detected, warned about on
//! stderr, and transparently recomputed ([`ArtifactStore::get`]).
//!
//! ## Example
//!
//! ```
//! use fbist_store::{ArtifactStore, Digest, StageKey};
//! use fbist_netlist::embedded;
//!
//! let dir = std::env::temp_dir().join(format!("fbist-store-doc-{}", std::process::id()));
//! let store = ArtifactStore::open(&dir)?;
//! let netlist = embedded::c17();
//!
//! let mut d = Digest::new("doc-example");
//! d.str(netlist.name());
//! let key = StageKey::new("netlist", d.finish());
//!
//! store.save(key, &netlist)?;
//! assert_eq!(store.load(key)?, Some(netlist));
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), fbist_store::StoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifacts;
mod codec;
mod digest;
mod key;
mod store;

pub use artifacts::{decode_from_slice, encode_to_vec, Artifact};
pub use codec::{DecodeError, Reader, Writer};
pub use digest::{Digest, DigestBytes};
pub use key::StageKey;
pub use store::{ArtifactStore, StoreError, FORMAT_VERSION};
